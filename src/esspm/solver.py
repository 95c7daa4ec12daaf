"""Branch-and-bound feasibility solver for the stability models.

Depth-first search over the binary indicators y, on the model's rows (2m+1
columns, 4m+1 rows). A node is its bounds array, and y_j is fixed where its
bounds meet. A child that fixes y_j at 0 also fixes x_j at [0, 0]: the
model's support link x_j <= y_j (Sandholm, Gilpin & Conitzer 2005), applied
as a bound on that branch only, so the root LP sees the rows alone. Each
node solves the LP relaxation (binaries relaxed to [0, 1]); infeasible
relaxations prune the subtree. When every indicator is integral the node's
pattern S = {j : y_j = 1} is attempted. The candidate is the strategy that
the oracle's stacked tie kernel, ``enumeration._solve_ties``, returns for
the S-tie system: the same row that ``solve_support`` and the oracle take as
they are. Only when that system is singular or leaves the simplex does one
more feasibility LP run from the blank state, under the model's bounds with
the y's pinned to the pattern and the strategies outside S fixed at zero,
and its point, clamped at 0 and renormalized, becomes the candidate. The
candidate therefore depends on the model and S only, not on the search path.
It is accepted only if its payoff gaps (``analysis.payoff_gaps``) meet the
branch conditions at the model's ``eps`` with the exact quadratic value
x' A x in place of z.
Skipping the leaf LP for a regular tie system loses nothing: a tie point
that passes that exact check satisfies every row of the leaf (the proof
below), so the skipped LP would have been feasible, and a tie point that
fails it is rejected whatever the LP says. The accepted assignment
(``interpolation_assignment``) is the array of the model's column values: x,
z at x' A x and y = 1_S. It is re-verified against every bound, binary,
row and link of the model (``verify_assignment``). The proof below shows
that this never fails after a passed exact check, so a violation is a
fault of the solver and raises SolverError naming it; the exact check
alone decides.
``solve``'s ``MixedEsspm`` verdict holds the assignment's x as the leaf
certified it, bit for bit.

The link rows stay out of the search's LPs: they would enlarge every LP,
the branch bounds apply each link where it binds, and an accepted leaf
satisfies them anyway. Proof that it meets every row and link, for an
accepted leaf with pattern S, strategy x on the simplex, z = x' A x and
y = 1_S, writing d_j = (A x)_j - z and margin_j = (A' x)_j - a_jj, with
payoffs in [0, 1] so that |d_j| <= 1 and a_jj - (A' x)_j <= 1:
  - Big-M rows (M = 1 + eps). strict_j reads d_j - M y_j <= -eps: off S the
    exact check gives d_j <= 1e-9 - eps, on S it reads d_j <= 1. tie_ub_j
    and tie_lb_j read +-d_j + M y_j <= M: on S the check gives
    |d_j| <= 1e-8, off S they read +-d_j <= M. selfplay_j reads
    a_jj - (A' x)_j + M y_j <= M - eps: on S the check gives
    margin_j >= eps - 1e-9, off S it reads a_jj - (A' x)_j <= 1. The tie
    (``_TIE_TOL``, 1e-8) and margin (``_MARGIN_TOL``, 1e-9) tolerances both
    sit below ``LIN_FEAS_TOL`` (1e-7), so every big-M row verifies. The
    simplex row, x in [0, 1], z in [0, 1] inside its bounds [-1, 2] and the
    binary y hold as well.
  - Links. x_j - y_j <= 0 reads x_j <= 1 on S and x_j <= 0 off S, where the
    candidate has no mass.

The x_j = 0 bound of a y_j = 0 child cuts off no pattern the search could
accept. An accepted leaf's candidate has no mass off its pattern S, and the
point (x, x' A x, 1_S) meets every row and link (the proof above) and every
bound a node on the path to S adds: y is fixed at 1_S's values, and x_j is
fixed at zero only where y_j = 0, that is off S, where x_j is zero. So every
node on that path keeps a feasible LP, and an INFEASIBLE verdict is still a
proof that no pattern is acceptable.

Each node is also closed under iterated conditional dominance (Porter,
Nudelman & Shoham 2008, the rule the oracle prunes supports with). Let U be
the strategies whose y is not fixed at 0. A strategy i in U is dominated
when some row j has a_jc - a_ic > theta (``_DOMINANCE_GUARD``, 1e-7) on
every column c of U. A dominated i with y_i fixed at 1 kills the node;
otherwise y_i and x_i are fixed at 0, i leaves U, and the rule repeats until
nothing changes; a node whose U empties is dead. The root is closed this way
before it is pushed, and so is each y_j = 0 child; a y_j = 1 child keeps its
parent's U, which was already closed and in which j was not dominated. A dead
node is never pushed, so it is neither a node nor an LP. No acceptable
pattern is lost. An accepted leaf's pattern S lies in U, and its candidate x
is a distribution on S, so for i in S, d_j - d_i = sum_c x_c (a_jc - a_ic)
> theta. But the leaf check gives |d_i| <= 1e-8 for i in S, and d_j <= 1e-8
whether j is in S (a tie) or not (d_j <= 1e-9 - eps). So d_j - d_i <= 2e-8.
With payoffs in [0, 1], the rounding of the differences and of the sums is a
few ulps per term, far inside theta - 2e-8: no accepted leaf has a dominated
member, and INFEASIBLE stays a proof.

The exactness gate is what keeps the solver sound: z is free in the search
LPs, so their margins may be pure relaxation artifact, and rejecting those at
the leaves means a MixedEsspm verdict always corresponds to a genuine candidate
at the model's strictness margin. Infeasible is returned only after the
pattern tree is exhausted, so remaining false negatives are exactly the games
whose true margins fall below the model's eps.

Every LP is a restart (see ``simplex``). The root LP and the leaf LP restart
from the blank state of the rows; every other node LP passes ``start=``, the
final simplex state of its parent's feasible solve. That state sits on the
DFS stack next to the node's bounds, siblings share it, and ``lp_solve``
copies it before changing anything. A child differs from its parent in a few
bounds only, so most restarts take a few pivots or none. The restart solves
exactly the child's system, so an INFEASIBLE child is still proven
infeasible and pruning stays sound; a solve that breaks down or fails the
row-residual check is solved again from the blank state inside ``lp_solve``.
The LP point feeds branching, so the vertex a parent's state leads to can
change the order in which the tree is searched, never which patterns it can
accept. The leaf LP starts blank so that its strategy does not depend on
that order.

A solve owns its node stack and cannot mutate the model: a ``ModelIR`` is
frozen, and its rows are built from its game and eps. So independent
solves over shared models may run concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import Infeasible, LimitReached, MixedEsspm, payoff_gaps
from .enumeration import _solve_ties, _spared_cells
from .game import MixedStrategy, check_int
from .model import INT_TOL, ModelIR, interpolation_assignment, verify_assignment
from .simplex import LPState, SolverError, lp_solve

__all__ = [
    "SolveLimits",
    "SolveStats",
    "SolveResult",
    "solve",
]


@dataclass(frozen=True)
class SolveLimits:
    max_nodes: int = 100_000
    max_time_ms: int = 600_000

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_time_ms"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))


@dataclass
class SolveStats:
    """``nodes`` counts popped nodes, each of which solves one LP; ``pruned``
    counts the roots and children that dominance killed before any LP."""

    nodes: int = 0
    pruned: int = 0
    lp_iterations: int = 0
    wall_ms: float = 0.0


@dataclass
class SolveResult:
    """``outcome`` is the verdict: ``MixedEsspm`` with the x the leaf certified,
    ``Infeasible`` or ``LimitReached``. ``assignment`` holds the column values
    of a ``MixedEsspm`` result in the model's layout (x, z, y, ...); it is None
    otherwise."""

    outcome: MixedEsspm | Infeasible | LimitReached
    assignment: np.ndarray | None
    stats: SolveStats = field(default_factory=SolveStats)


# The exact leaf check's fixed thresholds; the tie kernel's own sit in enumeration.
_TIE_TOL = 1e-8  # a pattern member's |d| at most this counts as a tie
_MARGIN_TOL = 1e-9  # slack by which a margin may fall short of eps
# A node drops a strategy that some row beats by more than this on every
# column the node still allows; above the leaf check's 2e-8 spread plus rounding.
_DOMINANCE_GUARD = 1e-7


def _spared_masks(payoffs: np.ndarray) -> list[list[int]]:
    """``spared[i][j]`` as a Python int: bit c is set unless a_jc - a_ic > ``_DOMINANCE_GUARD``.

    Strategy i is dominated within a mask U when some ``spared[i][j] & U``
    is 0. Python ints hold any m; the MILP has no cap on it.
    """
    m = len(payoffs)
    packed = np.packbits(_spared_cells(payoffs, _DOMINANCE_GUARD), axis=2, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[2]
    masks = [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]
    return [masks[i * m : (i + 1) * m] for i in range(m)]


def _propagate(spared: list[list[int]], bounds: np.ndarray, model: ModelIR, free: int) -> int:
    """Close a node under iterated conditional dominance, fixing bounds in place.

    ``model`` gives the slices of the x and y columns and ``free`` is the mask
    U of the strategies whose y is not fixed at 0. Each dominated member of U
    gets y = x = 0 and leaves U, until none is left.
    Returns U at that fixpoint, or 0 when the node is dead: a dominated
    strategy has y fixed at 1, or U is empty.
    """
    x, y = bounds[model.xs], bounds[model.ys]
    changed = True
    while changed:
        changed = False
        for i, rows in enumerate(spared):
            bit = 1 << i
            if free & bit and not all(s & free for s in rows):
                if y[i, 0] > 0.0:
                    return 0  # y_i is fixed at 1
                free ^= bit
                x[i] = y[i] = 0.0
                changed = True
    return free


def _attempt_pattern(model: ModelIR, pattern: np.ndarray, stats: SolveStats) -> np.ndarray | None:
    """The certified assignment of a 0/1 indicator pattern, or None when it has none.

    The candidate is the strategy that the oracle's kernel returns for the
    tie system of the support S = {j : pattern[j] = 1}, so an accepted leaf
    is the strategy that ``solve_support`` gives on S. Only when that system
    is singular or its solution leaves the simplex does the leaf LP run: it
    starts blank from the model's bounds, pins every y_j to pattern[j] and
    x_j to zero off S, and its point, clamped and renormalized, is the
    candidate. The candidate thus depends on the model and the pattern only,
    not on the search path that reached the leaf.

    The candidate is accepted only if it meets the branch conditions with
    the true quadratic payoff in place of z: members of S tie and lose
    self-play by at least eps, the others lose by at least eps against the
    population. This is the original question with the exact quadratic, so
    passing it certifies the candidate whatever z the LP point held. An
    accepted candidate's assignment meets every row and link of the model
    (the module docstring proves it), so a violation raises SolverError.
    """
    support = np.flatnonzero(pattern)
    if not support.size:
        return None  # every strategy strictly worse than the average: impossible
    rejected, probs = _solve_ties(model.game.payoffs, support[None, :])
    if rejected[0]:
        leaf = model.bounds.copy()
        leaf[model.ys] = pattern[:, None]
        leaf[model.xs][pattern == 0] = 0.0  # x_j = 0 off the pattern
        status, point, iters = lp_solve(model.rows, leaf)
        stats.lp_iterations += iters
        if status != "feasible":
            return None
        x = np.zeros(model.m)
        x[support] = np.clip(point[support], 0.0, None)
        x /= x.sum()  # positive: the feasible point meets the simplex row
    else:
        x = probs[0]
    d, margin = payoff_gaps(model.game.payoffs, x)
    ok = np.where(
        pattern != 0,
        (np.abs(d) <= _TIE_TOL) & (margin >= model.eps - _MARGIN_TOL),
        d <= _MARGIN_TOL - model.eps,
    )
    if not ok.all():
        return None
    assignment = interpolation_assignment(model, x, pattern)
    violations = verify_assignment(model, assignment)
    if violations:
        raise SolverError(f"certified pattern {support.tolist()} violates the model: {violations[0]}")
    return assignment


def solve(model: ModelIR, limits: SolveLimits = SolveLimits()) -> SolveResult:
    """Search the indicator tree of the model's rows for a verified feasible assignment.

    A node is its bounds array: y_j is fixed where its lower and upper bounds
    meet. Children of a branch node are ordered so the strict branch (y = 0,
    with x_j fixed at zero) is explored before the tie branch (y = 1): ties
    between distinct payoffs are rare in generated games, so strict patterns
    usually resolve faster. The root and each y = 0 child are closed under
    conditional dominance before they are pushed (see the module docstring);
    one that it kills counts in ``stats.pruned`` and never as a node.
    """
    if not isinstance(model, ModelIR):
        raise TypeError(f"expected ModelIR, got {type(model).__name__}")
    t0 = time.perf_counter()
    stats = SolveStats()

    def elapsed_ms() -> float:
        return (time.perf_counter() - t0) * 1000.0

    def finish(outcome: MixedEsspm | Infeasible | LimitReached, assignment=None) -> SolveResult:
        stats.wall_ms = elapsed_ms()
        return SolveResult(outcome, assignment, stats)

    xs, ys = model.xs, model.ys
    spared = _spared_masks(model.game.payoffs)
    # (a node's bounds, its parent's final LP state or None at the root, its mask U)
    stack: list[tuple[np.ndarray, LPState | None, int]] = []

    def push(bounds: np.ndarray, start: LPState | None, free: int) -> None:
        free = _propagate(spared, bounds, model, free)
        if free:
            stack.append((bounds, start, free))
        else:
            stats.pruned += 1

    def children(bounds: np.ndarray, j: int, state: LPState, free: int) -> None:
        child = bounds.copy()
        child[ys][j] = 1.0
        stack.append((child, state, free))  # the parent's U, already closed
        child = bounds.copy()
        child[ys][j] = child[xs][j] = 0.0  # x_j = 0 off the pattern; popped first
        push(child, state, free & ~(1 << j))

    push(model.bounds.copy(), None, (1 << model.m) - 1)  # a ModelIR's every y is free in [0, 1]
    while stack:
        if stats.nodes >= limits.max_nodes or elapsed_ms() >= limits.max_time_ms:
            return finish(LimitReached())
        bounds, start, free = stack.pop()
        stats.nodes += 1

        result = lp_solve(model.rows, bounds, start=start)
        status, point, iters = result
        stats.lp_iterations += iters
        if status != "feasible":
            continue
        state = result.state

        y = point[ys]
        lo, hi = bounds[ys].T
        unfixed = lo < hi
        fractional = unfixed & (np.minimum(y, 1.0 - y) > INT_TOL)
        if fractional.any():
            children(bounds, int(np.argmin(np.where(fractional, np.abs(y - 0.5), np.inf))), state, free)
            continue

        pattern = np.where(unfixed, y > 0.5, lo)
        assignment = _attempt_pattern(model, pattern, stats)
        if assignment is not None:
            return finish(MixedEsspm(MixedStrategy(assignment[xs])), assignment)
        if unfixed.any():  # else the pattern is refuted and fully pinned: dead end
            children(bounds, int(np.argmax(unfixed)), state, free)

    return finish(Infeasible())
