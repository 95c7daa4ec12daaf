"""Branch-and-bound feasibility solver for the linearized stability models.

Depth-first search over the branch indicators y: each node pins a subset of
them and solves the LP relaxation (binaries relaxed to [0, 1]); infeasible
relaxations prune the subtree. When every indicator is integral the node's
pattern S = {j : y_j = 1} is attempted: one more feasibility LP, with the
strategies outside S fixed at zero by their bounds, decides whether the
pattern has a point; the candidate is refined by solving the S-tie system with
the oracle's stacked tie kernel (the one ``enumeration.solve_support``
calls), and the result is accepted only if its payoff gaps
(``analysis.payoff_gaps``) meet the branch conditions at the model's ``eps``
with the exact quadratic value x' A x in place of z. The final
assignment carries secant-interpolated lambdas, so it meets the SOS2
adjacency requirement by construction, and it is re-verified against every
row of the full model.

Every node and leaf LP runs on the x/z/y rows only: the rows of the model
whose columns all lie in x, z or y (the big-M rows, the simplex row and any
user row over those columns), remapped onto 2m+1 columns. The lambda/SOS2
subsystem is never enforced by the search, so its columns and rows would only
enlarge every LP; it serves ``export_lp`` and the final leaf verification.
This loses nothing: at a leaf with no off-pattern mass the ties give
x' A x = sum_{j in S} x_j (A x)_j = z, so the x/z/y rows are exact where a
candidate is accepted, and every point the exact check accepts lies inside the
lambda corridor anyway.

The exactness gate is what keeps the solver sound: z is free in the search
LPs, so their margins may be pure relaxation artifact, and rejecting those at
the leaves means a Feasible verdict always corresponds to a genuine candidate
at the model's strictness margin. Infeasible is returned only after the
pattern tree is exhausted, so remaining false negatives are exactly the games
whose true margins fall below the model's eps.

Node and leaf LPs are warm-started. The root LP is solved cold; every other
LP goes through ``lp_solve`` with ``start=``, the final simplex state of its
parent's feasible solve (a leaf's start is its own node's state). That state
sits on the DFS stack next to the node's fixes, siblings share it, and
``lp_solve`` copies it before changing anything. A child differs from its
parent in a few bounds only, so most restarts take a few pivots or none. The
restart solves exactly the child's system, so an INFEASIBLE child is still
proven infeasible and pruning stays sound; a warm solve that breaks down or
fails the row-residual check is solved again cold inside ``lp_solve``. The
LP point feeds branching, so the vertex a warm solve ends at can change the
order in which the tree is searched, never which patterns it can accept.

A solve owns its node stack and never mutates the model, so independent
solves over shared models may run concurrently.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import payoff_gaps
from .enumeration import _MARGIN_TOL, _TIE_TOL, _solve_ties
from .game import MixedStrategy
from .model import LinearRow, ModelIR, interpolation_assignment, verify_assignment
from .simplex import LPState, SolverError, lp_solve

__all__ = [
    "SolveStatus",
    "SolveLimits",
    "SolveStats",
    "SolveResult",
    "solve",
    "extract_strategy",
    "SolverError",
]

_INT_TOL = 1e-6


class SolveStatus(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    LIMIT_REACHED = "limit_reached"


@dataclass(frozen=True)
class SolveLimits:
    max_nodes: int = 100_000
    max_time_ms: int = 600_000

    def __post_init__(self) -> None:
        if self.max_nodes <= 0 or self.max_time_ms <= 0:
            raise ValueError("solve limits must be positive")


@dataclass
class SolveStats:
    nodes: int = 0
    lp_iterations: int = 0
    wall_ms: float = 0.0


@dataclass
class SolveResult:
    status: SolveStatus
    assignment: dict[str, float] | None
    stats: SolveStats = field(default_factory=SolveStats)


def _search_rows(model: ModelIR) -> tuple[list[LinearRow], np.ndarray]:
    """The x/z/y rows of the model and their bounds, on columns x_0..x_{m-1}, z, y_0..y_{m-1}.

    Rows touching any other column (the lambda/SOS2 subsystem) are left out.
    """
    cols = [*model.x_indices, model.z_index, *model.y_indices]
    pos = {full: i for i, full in enumerate(cols)}
    rows = [
        LinearRow({pos[i]: c for i, c in row.coeffs.items()}, row.rel, row.rhs, row.name)
        for row in model.rows
        if all(i in pos for i in row.coeffs)
    ]
    return rows, model.bounds_array()[cols]


def _pinned(bounds: np.ndarray, fixes: dict[int, int], m: int) -> np.ndarray:
    """Search bounds with y_j pinned to fixes[j]; y_j sits at column m + 1 + j."""
    out = bounds.copy()
    for j, v in fixes.items():
        out[m + 1 + j] = float(v)
    return out


def _refine_pattern(model: ModelIR, pattern: list[int], x_lp: np.ndarray) -> np.ndarray:
    """Sharpen the LP point by solving the tie system of the pattern directly.

    The oracle's kernel solves it, so an accepted leaf is the strategy that
    ``solve_support`` gives on the same support. Falls back to the LP point
    (with off-pattern mass zeroed) if the system is singular or its solution
    leaves the simplex.
    """
    x = np.zeros(model.m)
    rejected, weights = _solve_ties(model.payoffs, np.array([pattern]))
    if not rejected[0]:
        x[pattern] = weights[0]
        return x
    x[pattern] = np.clip(x_lp[pattern], 0.0, None)
    total = x.sum()
    return x / total if total > 0.0 else x


def _exact_candidate_check(model: ModelIR, pattern: list[int], x: np.ndarray) -> bool:
    """Branch conditions evaluated against the true quadratic payoff instead of z.

    Pattern members must tie and lose self-play by at least eps; the others
    must lose by at least eps against the population. This is the original
    (non-linearized) feasibility question, so passing it certifies the
    candidate independently of the approximation corridor.
    """
    d, margin = payoff_gaps(model.payoffs, x)
    tie = np.zeros(model.m, dtype=bool)
    tie[pattern] = True
    ok = np.where(
        tie,
        (np.abs(d) <= _TIE_TOL) & (margin >= model.eps - _MARGIN_TOL),
        d <= _MARGIN_TOL - model.eps,
    )
    return bool(ok.all())


def _attempt_pattern(
    model: ModelIR,
    pattern_set: dict[int, int],
    rows: list[LinearRow],
    base_bounds: np.ndarray,
    stats: SolveStats,
    start: LPState,
) -> dict[str, float] | None:
    """Try to turn a fully pinned indicator pattern into a verified assignment.

    The leaf LP restarts from ``start``, the final state of its node's LP.
    """
    m = model.m
    pattern = sorted(j for j, v in pattern_set.items() if v == 1)
    if not pattern:
        return None  # every strategy strictly worse than the average: impossible
    bounds = _pinned(base_bounds, pattern_set, m)
    bounds[[j for j, v in pattern_set.items() if v == 0]] = 0.0  # x_j = 0 off the pattern
    status, point, iters = lp_solve(rows, bounds, start=start)
    stats.lp_iterations += iters
    if status != "feasible":
        return None
    x = _refine_pattern(model, pattern, point[:m])
    if not _exact_candidate_check(model, pattern, x):
        return None
    y = np.zeros(m)
    y[pattern] = 1.0
    assignment = interpolation_assignment(model, x, y)
    if verify_assignment(model, assignment):
        return None
    return assignment


def solve(model: ModelIR, limits: SolveLimits = SolveLimits()) -> SolveResult:
    """Search the indicator tree for a verified feasible assignment.

    Children of a branch node are ordered so the strict branch (y = 0) is
    explored before the tie branch (y = 1): ties between distinct payoffs are
    rare in generated games, so strict patterns usually resolve faster.
    A model without branch indicators raises ValueError.
    """
    if not isinstance(model, ModelIR):
        raise TypeError(f"expected ModelIR, got {type(model).__name__}")
    if not model.y_indices:
        raise ValueError("model has no branch indicators y; build it with build_model")
    t0 = time.perf_counter()
    stats = SolveStats()

    def elapsed_ms() -> float:
        return (time.perf_counter() - t0) * 1000.0

    def finish(status: SolveStatus, assignment=None) -> SolveResult:
        stats.wall_ms = elapsed_ms()
        return SolveResult(status, assignment, stats)

    m = model.m
    rows, base_bounds = _search_rows(model)
    # (a node's fixes, its parent's final LP state or None at the root)
    stack: list[tuple[dict[int, int], LPState | None]] = [({}, None)]
    while stack:
        if stats.nodes >= limits.max_nodes or elapsed_ms() >= limits.max_time_ms:
            return finish(SolveStatus.LIMIT_REACHED)
        fixes, start = stack.pop()
        stats.nodes += 1

        result = lp_solve(rows, _pinned(base_bounds, fixes, m), start=start)
        status, point, iters = result
        stats.lp_iterations += iters
        if status != "feasible":
            continue
        state = result.state

        yvals = point[m + 1 :]
        unfixed = [j for j in range(m) if j not in fixes]
        fractional = [j for j in unfixed if min(yvals[j], 1.0 - yvals[j]) > _INT_TOL]
        if fractional:
            j = min(fractional, key=lambda jj: (abs(yvals[jj] - 0.5), jj))
            stack.append(({**fixes, j: 1}, state))
            stack.append(({**fixes, j: 0}, state))
            continue

        pattern_set = {
            j: fixes.get(j, int(round(yvals[j]))) for j in range(m)
        }
        assignment = _attempt_pattern(model, pattern_set, rows, base_bounds, stats, state)
        if assignment is not None:
            return finish(SolveStatus.FEASIBLE, assignment)
        if not unfixed:
            continue  # the pattern is refuted and fully pinned: dead end
        j = unfixed[0]
        stack.append(({**fixes, j: 1}, state))
        stack.append(({**fixes, j: 0}, state))

    return finish(SolveStatus.INFEASIBLE)


def extract_strategy(result: SolveResult, m: int) -> MixedStrategy:
    """Read the strategy out of a feasible assignment, clamping solver dust.

    Components below -1e-6 indicate a genuinely broken assignment and raise;
    smaller negative values are clamped to zero before renormalizing.
    """
    if result.status != SolveStatus.FEASIBLE or result.assignment is None:
        raise ValueError(f"cannot extract a strategy from status {result.status}")
    probs = np.empty(m)
    for i in range(m):
        try:
            probs[i] = result.assignment[f"x_{i}"]
        except KeyError:
            raise ValueError(f"assignment lacks component x_{i}") from None
    if probs.min() < -1e-6:
        raise ValueError(f"strategy component {probs.min()!r} below tolerance")
    probs = np.clip(probs, 0.0, None)
    return MixedStrategy(probs / probs.sum())
