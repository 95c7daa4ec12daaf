"""Solve pipeline and batch harness: generate games, solve them, aggregate statistics.

The per-game pipeline normalizes payoffs, runs the pure-strategy preprocessing
pass, and only forwards games without a pure solution to the configured
solver(s). Batches assign each game a derived seed (base + index) so any single
instance can be regenerated in isolation, and emit one CSV row per game.
"""

from __future__ import annotations

import csv
import operator
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .analysis import Tolerances, approximation_error, find_pure_esspm, nash_epsilon
from .enumeration import DEFAULT_SUPPORT_CAP, enumerate_esspm
from .game import GameMatrix, MixedStrategy, normalize
from .generators import (
    cancer_game,
    chicken,
    counterexample_game,
    mutation_population,
    random_cancer_params,
    rock_paper_scissors,
    uniform_random,
)
from .model import EPS, build_model, check_eps, check_k
from .simplex import SolverError
from .solver import SolveLimits, SolveStatus, extract_strategy, solve

__all__ = [
    "PureEsspm",
    "MixedEsspm",
    "Infeasible",
    "LimitReached",
    "SolveFailed",
    "EsspmOutcome",
    "BatchConfig",
    "BatchStats",
    "GameRecord",
    "CSV_COLUMNS",
    "make_game",
    "solve_record",
    "run_batch",
]

GAME_CLASSES = ("uniform", "chicken", "cancer", "mp", "rps", "counterexample", "file")
SOLVERS = ("milp", "enum", "both")

# nash_eps values below this print as 0: an exact tie solution reads as
# rounding noise (1e-16 and so on) that depends on the last bits of the strategy.
_NASH_EPS_FLOOR = 1e-12

CSV_COLUMNS = [
    "game_id",
    "class",
    "m",
    "k",
    "eps",
    "delta",
    "method",
    "status",
    "support_size",
    "strategy",
    "error",
    "nash_eps",
    "runtime_ms",
    "disagreement",
]


# Each outcome class names its CSV status once, as ``status``.
@dataclass(frozen=True)
class PureEsspm:
    status: ClassVar[str] = "PURE"
    index: int


@dataclass(frozen=True)
class MixedEsspm:
    status: ClassVar[str] = "OPTIMAL"
    strategy: MixedStrategy


@dataclass(frozen=True)
class Infeasible:
    status: ClassVar[str] = "INFEASIBLE"


@dataclass(frozen=True)
class LimitReached:
    status: ClassVar[str] = "LIMIT"


EsspmOutcome = PureEsspm | MixedEsspm | Infeasible | LimitReached


@dataclass(frozen=True)
class SolveFailed:
    """A batch game whose solve raised ``SolverError``; only ``run_batch`` makes one."""

    status: ClassVar[str] = "ERROR"


@dataclass(frozen=True)
class BatchConfig:
    """What to solve and how. ``game`` is the one game of class ``file``, read once.

    ``m`` is always the size of the config's games. It sizes a ``uniform``
    game (default 2); every other class has a fixed size (a file game's
    header), which ``m`` defaults to and a given ``m`` must match.

    ``k`` and ``eps`` get the model's checks and ``delta`` that of
    ``Tolerances``, so a bad setting is refused before any game is solved.
    """

    game_class: str = "uniform"
    m: int | None = None
    n_games: int = 1
    seed: int = 0
    k: int = 20
    eps: float = EPS
    delta: float = Tolerances.delta
    solver: str = "milp"
    limits: SolveLimits = field(default_factory=SolveLimits)
    game: GameMatrix | None = None

    def __post_init__(self) -> None:
        if self.game_class not in GAME_CLASSES:
            raise ValueError(f"unknown game class {self.game_class!r}")
        for name in ("m", "n_games", "seed"):
            value = getattr(self, name)
            if value is None and name == "m":
                continue  # resolved from the class below
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.n_games < 1:
            raise ValueError("n_games must be >= 1")
        object.__setattr__(self, "k", check_k(self.k))
        check_eps(self.eps)
        Tolerances(delta=self.delta)
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if (self.game_class == "file") != (self.game is not None):
            raise ValueError("game class 'file' needs a game, and no other class takes one")
        if self.game_class == "uniform":
            m = 2 if self.m is None else self.m
            if m < 2:
                raise ValueError(f"m must be >= 2, got {m}")
        else:
            m = make_game(self, 0).m
            if self.m is not None and self.m != m:
                raise ValueError(f"m {self.m} does not match class {self.game_class}, whose games have m={m}")
        object.__setattr__(self, "m", m)
        if self.solver != "milp" and m > DEFAULT_SUPPORT_CAP:
            raise ValueError(f"m={m} exceeds the enumeration cap of {DEFAULT_SUPPORT_CAP}")

    @property
    def tolerances(self) -> Tolerances:
        return Tolerances(delta=self.delta)


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
    """Everything the CSV needs about one solved instance.

    ``strategy`` is the strategy played (the pure one as a vector) and
    ``error`` its approximation error; both are None when no ESSPM was found.
    """

    game_id: int
    game_class: str
    m: int
    outcome: EsspmOutcome | SolveFailed
    strategy: MixedStrategy | None
    error: float | None
    nash_eps: float | None
    runtime_ms: float
    disagreement: int


def make_game(cfg: BatchConfig, index: int) -> GameMatrix:
    """Instance ``index`` of the configured class, seeded with seed + index."""
    seed = (cfg.seed + index) & 0xFFFFFFFFFFFFFFFF
    if cfg.game_class == "uniform":
        return uniform_random(cfg.m, seed)
    if cfg.game_class == "chicken":
        return chicken(seed)
    if cfg.game_class == "cancer":
        return cancer_game(random_cancer_params(seed))
    if cfg.game_class == "mp":
        return mutation_population()
    if cfg.game_class == "rps":
        return rock_paper_scissors()
    if cfg.game_class == "counterexample":
        return counterexample_game()
    return cfg.game


def _milp_outcome(norm: GameMatrix, cfg: BatchConfig) -> EsspmOutcome:
    model = build_model(norm, cfg.eps)
    result = solve(model, cfg.limits)
    if result.status is SolveStatus.FEASIBLE:
        return MixedEsspm(extract_strategy(result, norm.m))
    if result.status is SolveStatus.LIMIT_REACHED:
        return LimitReached()
    return Infeasible()


def _enum_outcome(norm: GameMatrix, cfg: BatchConfig) -> EsspmOutcome:
    """Oracle verdict: the first certificate in (size, indices) order.

    The enumeration stops there; only the ``both`` cross-check of an
    INFEASIBLE MILP verdict needs them all.
    """
    certs = enumerate_esspm(norm, cfg.tolerances, limit=1)
    if not certs:
        return Infeasible()
    return MixedEsspm(certs[0].strategy)


def _solve_normalized(norm: GameMatrix, cfg: BatchConfig) -> tuple[EsspmOutcome, int]:
    """(outcome, disagreement flag) for a game already past preprocessing."""
    if cfg.solver == "milp":
        return _milp_outcome(norm, cfg), 0
    if cfg.solver == "enum":
        return _enum_outcome(norm, cfg), 0
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


def solve_record(game: GameMatrix, cfg: BatchConfig, game_id: int = 0) -> GameRecord:
    """Normalize, try the pure-strategy preprocessing pass, then the configured solver.

    Returns the verdict with its CSV fields; ``.outcome`` is the verdict alone.
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
        outcome, disagreement = _solve_normalized(norm, cfg)
        if isinstance(outcome, MixedEsspm):
            strategy = outcome.strategy
            error = approximation_error(norm, strategy, cfg.tolerances)
    runtime_ms = (time.perf_counter() - t0) * 1000.0

    return GameRecord(
        game_id=game_id,
        game_class=cfg.game_class,
        m=game.m,
        outcome=outcome,
        strategy=strategy,
        error=error,
        nash_eps=None if strategy is None else nash_epsilon(norm, strategy),
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


def _csv_row(record: GameRecord, cfg: BatchConfig) -> list:
    strategy = record.strategy
    return [
        record.game_id,
        record.game_class,
        record.m,
        cfg.k,
        f"{cfg.eps:.9g}",
        f"{cfg.delta:.9g}",
        cfg.solver,
        record.outcome.status,
        "" if strategy is None else len(strategy.support()),
        "" if strategy is None else strategy_cell(strategy),
        "" if record.error is None else f"{record.error:.9g}",
        _nash_eps_cell(record.nash_eps),
        f"{record.runtime_ms:.3f}",
        record.disagreement,
    ]


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
            record = GameRecord(i, cfg.game_class, game.m, SolveFailed(), strategy=None, error=None,
                                nash_eps=None, runtime_ms=ms, disagreement=0)
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
