"""Solve pipeline and batch harness: generate games, solve them, aggregate statistics.

The per-game pipeline normalizes payoffs, runs the pure-strategy preprocessing
pass, and only forwards games without a pure solution to the configured
solver(s). Batches assign each game a derived seed (base + index) so any single
instance can be regenerated in isolation, and emit one CSV row per game.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import Tolerances, approximation_error, find_pure_esspm, nash_epsilon
from .enumeration import enumerate_esspm
from .game import GameMatrix, MixedStrategy, normalize, read_game
from .generators import (
    cancer_game,
    chicken,
    counterexample_game,
    mutation_population,
    random_cancer_params,
    rock_paper_scissors,
    uniform_random,
)
from .model import build_model
from .solver import SolveLimits, SolveStatus, extract_strategy, solve

__all__ = [
    "PureEsspm",
    "MixedEsspm",
    "Infeasible",
    "LimitReached",
    "EsspmOutcome",
    "BatchConfig",
    "BatchStats",
    "GameRecord",
    "CSV_COLUMNS",
    "make_game",
    "solve_one",
    "solve_record",
    "run_batch",
]

GAME_CLASSES = ("uniform", "chicken", "cancer", "mp", "rps", "counterexample", "file")

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


@dataclass(frozen=True)
class PureEsspm:
    index: int


@dataclass(frozen=True)
class MixedEsspm:
    strategy: MixedStrategy
    error: float


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class LimitReached:
    pass


EsspmOutcome = PureEsspm | MixedEsspm | Infeasible | LimitReached


@dataclass(frozen=True)
class BatchConfig:
    game_class: str = "uniform"
    m: int = 2
    n_games: int = 1
    seed: int = 0
    k: int = 20
    eps: float = 1e-5
    delta: float = 1e-7
    solver: str = "milp"
    limits: SolveLimits = field(default_factory=SolveLimits)
    game_file: str | None = None

    def __post_init__(self) -> None:
        if self.game_class not in GAME_CLASSES:
            raise ValueError(f"unknown game class {self.game_class!r}")
        if self.n_games < 1:
            raise ValueError("n_games must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.eps <= 0.0 or self.delta <= 0.0:
            raise ValueError("eps and delta must be positive")
        if self.solver not in ("milp", "enum", "both"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.game_class == "file" and not self.game_file:
            raise ValueError("game class 'file' needs game_file")

    @property
    def tolerances(self) -> Tolerances:
        return Tolerances(delta=self.delta)


@dataclass
class BatchStats:
    n_pure: int = 0
    n_optimal: int = 0
    n_infeasible: int = 0
    n_limit: int = 0
    mean_runtime_optimal_ms: float = float("nan")
    mean_runtime_infeasible_ms: float = float("nan")
    mean_error_optimal: float = float("nan")

    @property
    def total(self) -> int:
        return self.n_pure + self.n_optimal + self.n_infeasible + self.n_limit


@dataclass
class GameRecord:
    """Everything the CSV needs about one solved instance."""

    game_id: int
    game_class: str
    m: int
    outcome: EsspmOutcome
    nash_eps: float | None
    runtime_ms: float
    support_size: int | None
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
    with open(cfg.game_file, encoding="utf-8") as fh:
        return read_game(fh.read())


def _milp_outcome(norm: GameMatrix, cfg: BatchConfig) -> EsspmOutcome:
    model = build_model(norm, cfg.eps)
    result = solve(model, cfg.limits)
    if result.status is SolveStatus.FEASIBLE:
        strategy = extract_strategy(result, norm.m)
        return MixedEsspm(strategy, approximation_error(norm, strategy, cfg.tolerances))
    if result.status is SolveStatus.LIMIT_REACHED:
        return LimitReached()
    return Infeasible()


def _enum_outcome(norm: GameMatrix, cfg: BatchConfig) -> EsspmOutcome:
    """Oracle verdict: the first certificate in (size, indices) order.

    The enumeration stops there; only the ``both`` cross-check needs them all.
    """
    certs = enumerate_esspm(norm, cfg.tolerances, limit=1)
    if not certs:
        return Infeasible()
    best = certs[0]
    return MixedEsspm(best.strategy, approximation_error(norm, best.strategy, cfg.tolerances))


def _solve_normalized(norm: GameMatrix, cfg: BatchConfig) -> tuple[EsspmOutcome, int]:
    """(outcome, disagreement flag) for a game already past preprocessing."""
    if cfg.solver == "milp":
        return _milp_outcome(norm, cfg), 0
    if cfg.solver == "enum":
        return _enum_outcome(norm, cfg), 0
    milp = _milp_outcome(norm, cfg)
    certs = enumerate_esspm(norm, cfg.tolerances)
    disagreement = 0
    if isinstance(milp, Infeasible) and certs:
        # Only count the miss when the oracle's margin exceeds the model's
        # eps; a finer margin is an expected false negative (the leaf check
        # demands a strict margin of eps).
        if max(c.min_slack() for c in certs) > cfg.eps:
            disagreement = 1
    elif isinstance(milp, MixedEsspm) and not certs:
        disagreement = 1
    return milp, disagreement


def solve_one(game: GameMatrix, cfg: BatchConfig) -> EsspmOutcome:
    """Normalize, try the pure-strategy preprocessing pass, then the configured solver."""
    return solve_record(game, cfg).outcome


def solve_record(game: GameMatrix, cfg: BatchConfig, game_id: int = 0) -> GameRecord:
    """Solve one game as :func:`solve_one` describes and collect its CSV fields."""
    t0 = time.perf_counter()
    norm = normalize(game)
    pure = find_pure_esspm(norm, cfg.tolerances)
    disagreement = 0
    if pure is not None:
        outcome: EsspmOutcome = PureEsspm(pure)
    else:
        outcome, disagreement = _solve_normalized(norm, cfg)
    runtime_ms = (time.perf_counter() - t0) * 1000.0

    nash: float | None = None
    support_size: int | None = None
    if isinstance(outcome, PureEsspm):
        strat = MixedStrategy.pure(outcome.index, norm.m)
        nash = nash_epsilon(norm, strat)
        support_size = 1
    elif isinstance(outcome, MixedEsspm):
        nash = nash_epsilon(norm, outcome.strategy)
        support_size = len(outcome.strategy.support())
    return GameRecord(
        game_id=game_id,
        game_class=cfg.game_class,
        m=game.m,
        outcome=outcome,
        nash_eps=nash,
        runtime_ms=runtime_ms,
        support_size=support_size,
        disagreement=disagreement,
    )


def _status_name(outcome: EsspmOutcome) -> str:
    if isinstance(outcome, PureEsspm):
        return "PURE"
    if isinstance(outcome, MixedEsspm):
        return "OPTIMAL"
    if isinstance(outcome, Infeasible):
        return "INFEASIBLE"
    return "LIMIT"


def _nash_eps_cell(nash_eps: float | None) -> str:
    if nash_eps is None:
        return ""
    return "0" if nash_eps < _NASH_EPS_FLOOR else f"{nash_eps:.9g}"


def _csv_row(record: GameRecord, cfg: BatchConfig) -> list:
    outcome = record.outcome
    strategy = ""
    error = ""
    if isinstance(outcome, PureEsspm):
        probs = MixedStrategy.pure(outcome.index, record.m).probs
        strategy = ";".join(f"{p:.9g}" for p in probs)
        error = f"{0.0:.9g}"
    elif isinstance(outcome, MixedEsspm):
        strategy = ";".join(f"{p:.9g}" for p in outcome.strategy.probs)
        error = f"{outcome.error:.9g}"
    return [
        record.game_id,
        record.game_class,
        record.m,
        cfg.k,
        f"{cfg.eps:.9g}",
        f"{cfg.delta:.9g}",
        cfg.solver,
        _status_name(outcome),
        "" if record.support_size is None else record.support_size,
        strategy,
        error,
        _nash_eps_cell(record.nash_eps),
        f"{record.runtime_ms:.3f}",
        record.disagreement,
    ]


def run_batch(cfg: BatchConfig, out) -> BatchStats:
    """Generate and solve ``cfg.n_games`` instances, writing one CSV row each to ``out``.

    ``out`` may be any text stream; a file should be opened with
    ``newline=""``, as for any ``csv.writer``. Rows appear in game-index
    order and, runtime column aside, rerunning the same config reproduces
    the file exactly.
    """
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    stats = BatchStats()
    opt_times: list[float] = []
    inf_times: list[float] = []
    opt_errors: list[float] = []
    for i in range(cfg.n_games):
        record = solve_record(make_game(cfg, i), cfg, i)
        writer.writerow(_csv_row(record, cfg))
        outcome = record.outcome
        if isinstance(outcome, PureEsspm):
            stats.n_pure += 1
        elif isinstance(outcome, MixedEsspm):
            stats.n_optimal += 1
            opt_times.append(record.runtime_ms)
            opt_errors.append(outcome.error)
        elif isinstance(outcome, Infeasible):
            stats.n_infeasible += 1
            inf_times.append(record.runtime_ms)
        else:
            stats.n_limit += 1
    if opt_times:
        stats.mean_runtime_optimal_ms = float(np.mean(opt_times))
        stats.mean_error_optimal = float(np.mean(opt_errors))
    if inf_times:
        stats.mean_runtime_infeasible_ms = float(np.mean(inf_times))
    return stats
