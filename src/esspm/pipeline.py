"""Solve pipeline and batch harness: generate games, solve them, aggregate statistics.

The per-game pipeline normalizes payoffs, runs the pure-strategy preprocessing
pass, and only forwards games without a pure solution to the configured
solver(s), whose ``analysis`` verdict records it passes on as they are.
Batches assign each game a derived seed (base + index) so any single
instance can be regenerated in isolation, and emit one CSV row per game.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .analysis import (
    EsspmOutcome, Infeasible, LimitReached, MixedEsspm, PureEsspm, SolveFailed, Tolerances,
    approximation_error, find_pure_esspm, nash_epsilon, pure_nash_epsilon,
)
from .enumeration import check_cap, enumerate_esspm
from .game import GameMatrix, MixedStrategy, check_int, check_positive, normalize
from .generators import (
    cancer_game,
    chicken,
    counterexample_game,
    mutation_population,
    random_cancer_params,
    rock_paper_scissors,
    uniform_random,
)
from .model import EPS, build_model
from .simplex import SolverError
from .solver import SolveLimits, solve

__all__ = [
    "BatchConfig",
    "BatchStats",
    "GameRecord",
    "CSV_COLUMNS",
    "make_game",
    "solve_record",
    "run_batch",
]

# nash_eps values below this print as 0: an exact tie solution reads as
# rounding noise (1e-16 and so on) that depends on the last bits of the strategy.
_NASH_EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class BatchConfig:
    """What to solve and how. ``game`` is the one game of class ``file``, read once.

    Every per-batch CSV column (class, m, k, eps, delta, method) reads it.

    ``m`` is always the size of the config's games. It sizes a ``uniform``
    game (default 2); every other class has a fixed size (a file game's
    header), which ``m`` defaults to and a given ``m`` must match.

    Each number gets the rule of its kind, ``game.check_int`` or
    ``game.check_positive``, and an oracle's ``m`` the cap
    ``enumeration.check_cap``, so a bad setting is refused before any game
    is solved. ``tolerances`` is built from ``delta``, once.
    """

    # The paper's breakpoint count, unused by the exact model: a constant that
    # the CSV echoes and perfbench's milp_mixed gate reads until ROADMAP item 1a.
    k: ClassVar[int] = 20

    game_class: str = "uniform"
    m: int | None = None
    n_games: int = 1
    seed: int = 0
    eps: float = EPS
    delta: float = Tolerances.delta
    solver: str = "milp"
    limits: SolveLimits = SolveLimits()  # frozen, so one default instance serves every config
    game: GameMatrix | None = None
    tolerances: Tolerances = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.game_class not in GAME_CLASSES:
            raise ValueError(f"unknown game class {self.game_class!r}")
        min_m = 2 if self.game_class == "uniform" else None  # other classes fix their own size
        for name, minimum in (("m", min_m), ("n_games", 1), ("seed", None)):
            value = getattr(self, name)
            if value is not None:  # a None m is resolved from the class below
                object.__setattr__(self, name, check_int(name, value, minimum))
        check_positive("eps", self.eps)
        object.__setattr__(self, "tolerances", Tolerances(self.delta))
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if (self.game_class == "file") != (self.game is not None):
            raise ValueError("game class 'file' needs a game, and no other class takes one")
        if self.game_class == "uniform":
            m = 2 if self.m is None else self.m
        else:
            m = make_game(self, 0).m
            if self.m is not None and self.m != m:
                raise ValueError(f"m {self.m} does not match class {self.game_class}, whose games have m={m}")
        object.__setattr__(self, "m", m)
        if self.solver != "milp":
            check_cap(m)


@dataclass
class BatchStats:
    n_pure: int = 0
    n_optimal: int = 0
    n_infeasible: int = 0
    n_limit: int = 0
    n_error: int = 0
    mean_runtime_optimal_ms: float = float("nan")
    mean_runtime_infeasible_ms: float = float("nan")
    mean_error_optimal: float = float("nan")

    @property
    def total(self) -> int:
        return self.n_pure + self.n_optimal + self.n_infeasible + self.n_limit + self.n_error


@dataclass
class GameRecord:
    """Every per-game CSV field of one solved instance; the per-batch ones are the config's.

    ``strategy`` is the strategy played (the pure one as a vector) and
    ``error`` its approximation error; both are None when no ESSPM was found.
    """

    game_id: int
    outcome: EsspmOutcome | SolveFailed
    strategy: MixedStrategy | None
    error: float | None
    nash_eps: float | None
    runtime_ms: float
    disagreement: int


# Each game class is one maker (cfg, seed) -> GameMatrix; the keys are GAME_CLASSES.
_GAME_MAKERS = {
    "uniform": lambda cfg, seed: uniform_random(cfg.m, seed),
    "chicken": lambda cfg, seed: chicken(seed),
    "cancer": lambda cfg, seed: cancer_game(random_cancer_params(seed)),
    "mp": lambda cfg, seed: mutation_population(),
    "rps": lambda cfg, seed: rock_paper_scissors(),
    "counterexample": lambda cfg, seed: counterexample_game(),
    "file": lambda cfg, seed: cfg.game,
}
GAME_CLASSES = tuple(_GAME_MAKERS)


def make_game(cfg: BatchConfig, index: int) -> GameMatrix:
    """Instance ``index`` of the configured class, seeded with seed + index."""
    return _GAME_MAKERS[cfg.game_class](cfg, (cfg.seed + index) & 0xFFFFFFFFFFFFFFFF)


def _milp_outcome(norm: GameMatrix, cfg: BatchConfig) -> EsspmOutcome:
    return solve(build_model(norm, cfg.eps), cfg.limits).outcome


def _enum_outcome(norm: GameMatrix, cfg: BatchConfig) -> EsspmOutcome:
    """Oracle verdict: the first certificate in (size, indices) order.

    The enumeration stops there; only the ``both`` cross-check of an
    INFEASIBLE MILP verdict needs them all.
    """
    certs = enumerate_esspm(norm, cfg.tolerances, limit=1)
    if not certs:
        return Infeasible()
    return MixedEsspm(certs[0].strategy)


def _both_route(norm: GameMatrix, cfg: BatchConfig) -> tuple[EsspmOutcome, int]:
    """The MILP's verdict, and 1 if the oracle contradicts it."""
    milp = _milp_outcome(norm, cfg)
    if isinstance(milp, LimitReached):
        return milp, 0
    if isinstance(milp, MixedEsspm):
        return milp, int(not enumerate_esspm(norm, cfg.tolerances, limit=1))
    # Only count the miss when some oracle margin exceeds the model's eps; a
    # finer margin is an expected false negative (the leaf check demands a
    # strict margin of eps).
    certs = enumerate_esspm(norm, cfg.tolerances)
    return milp, int(any(c.min_slack() > cfg.eps for c in certs))


# Each solver is one route (norm, cfg) -> (outcome, disagreement flag) for a
# game already past preprocessing; the keys are SOLVERS.
_SOLVE_ROUTES = {
    "milp": lambda norm, cfg: (_milp_outcome(norm, cfg), 0),
    "enum": lambda norm, cfg: (_enum_outcome(norm, cfg), 0),
    "both": _both_route,
}
SOLVERS = tuple(_SOLVE_ROUTES)


def solve_record(game: GameMatrix, cfg: BatchConfig, game_id: int = 0) -> GameRecord:
    """Normalize, try the pure-strategy preprocessing pass, then the configured solver.

    Returns the verdict with its CSV fields; ``.outcome`` is the verdict alone.
    A pure answer's ``nash_eps`` is read from its payoff column.
    """
    t0 = time.perf_counter()
    norm = normalize(game)
    pure = find_pure_esspm(norm, cfg.tolerances)
    disagreement = 0
    strategy: MixedStrategy | None = None
    error: float | None = None
    if pure is not None:
        outcome: EsspmOutcome = PureEsspm(pure)
        strategy, error = MixedStrategy.pure(pure, norm.m), 0.0
    else:
        outcome, disagreement = _SOLVE_ROUTES[cfg.solver](norm, cfg)
        if isinstance(outcome, MixedEsspm):
            strategy = outcome.strategy
            error = approximation_error(norm, strategy, cfg.tolerances)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    if pure is not None:
        nash_eps: float | None = pure_nash_epsilon(norm, pure)
    else:
        nash_eps = None if strategy is None else nash_epsilon(norm, strategy)

    return GameRecord(
        game_id=game_id,
        outcome=outcome,
        strategy=strategy,
        error=error,
        nash_eps=nash_eps,
        runtime_ms=runtime_ms,
        disagreement=disagreement,
    )


def strategy_cell(strategy: MixedStrategy) -> str:
    """The probabilities as the CSV and ``esspm solve`` print them."""
    return ";".join(f"{p:.9g}" for p in strategy.probs)


def _nash_eps_cell(nash_eps: float | None) -> str:
    if nash_eps is None:
        return ""
    return "0" if nash_eps < _NASH_EPS_FLOOR else f"{nash_eps:.9g}"


# Each CSV column is one (name, cell) pair; a cell maps (record, cfg) to its value.
_CSV_CELLS = (
    ("game_id", lambda r, cfg: r.game_id),
    ("class", lambda r, cfg: cfg.game_class),
    ("m", lambda r, cfg: cfg.m),
    ("k", lambda r, cfg: cfg.k),
    ("eps", lambda r, cfg: f"{cfg.eps:.9g}"),
    ("delta", lambda r, cfg: f"{cfg.delta:.9g}"),
    ("method", lambda r, cfg: cfg.solver),
    ("status", lambda r, cfg: r.outcome.status),
    ("support_size", lambda r, cfg: "" if r.strategy is None else len(r.strategy.support())),
    ("strategy", lambda r, cfg: "" if r.strategy is None else strategy_cell(r.strategy)),
    ("error", lambda r, cfg: "" if r.error is None else f"{r.error:.9g}"),
    ("nash_eps", lambda r, cfg: _nash_eps_cell(r.nash_eps)),
    ("runtime_ms", lambda r, cfg: f"{r.runtime_ms:.3f}"),
    ("disagreement", lambda r, cfg: r.disagreement),
)
CSV_COLUMNS = [name for name, _ in _CSV_CELLS]


def _csv_row(record: GameRecord, cfg: BatchConfig) -> list:
    return [cell(record, cfg) for _, cell in _CSV_CELLS]


def run_batch(cfg: BatchConfig, out) -> BatchStats:
    """Generate and solve ``cfg.n_games`` instances, writing one CSV row each to ``out``.

    ``out`` may be any text stream; a file should be opened with
    ``newline=""``, as for any ``csv.writer``. Rows appear in game-index
    order and, runtime column aside, rerunning the same config reproduces
    the file exactly. A game whose solve raises ``SolverError`` gets an
    ERROR row, with no strategy, error or nash_eps, and the batch goes on.
    """
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    verdicts: list[tuple[str, float, float | None]] = []  # (status, runtime_ms, error)
    for i in range(cfg.n_games):
        game = make_game(cfg, i)
        t0 = time.perf_counter()
        try:
            record = solve_record(game, cfg, i)
        except SolverError:
            ms = (time.perf_counter() - t0) * 1000.0
            record = GameRecord(i, SolveFailed(), strategy=None, error=None, nash_eps=None,
                                runtime_ms=ms, disagreement=0)
        writer.writerow(_csv_row(record, cfg))
        verdicts.append((record.outcome.status, record.runtime_ms, record.error))
    counts = Counter(status for status, _, _ in verdicts)
    optimal, infeasible = MixedEsspm.status, Infeasible.status
    return BatchStats(
        n_pure=counts[PureEsspm.status],
        n_optimal=counts[optimal],
        n_infeasible=counts[infeasible],
        n_limit=counts[LimitReached.status],
        n_error=counts[SolveFailed.status],
        mean_runtime_optimal_ms=_mean([ms for s, ms, _ in verdicts if s == optimal]),
        mean_runtime_infeasible_ms=_mean([ms for s, ms, _ in verdicts if s == infeasible]),
        mean_error_optimal=_mean([err for s, _, err in verdicts if s == optimal]),
    )


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else float("nan")
