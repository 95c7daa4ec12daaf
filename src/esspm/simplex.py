"""Dense bounded-variable simplex: the feasibility core of the branch-and-bound solver.

Every LP the search asks is a feasibility question, so a caller gives rows and
bounds only. The simplex minimizes the total artificial-variable mass to find
any point of {rows hold, lb <= x <= ub}, or shows that none exists. Variables
may sit nonbasic at either bound, so upper bounds never become explicit rows,
and fixing a variable is a matter of its bounds. Pivoting uses the largest
reduced cost by default and falls back to Bland's smallest-index rule after a
run of degenerate pivots, which guarantees termination. The reduced costs are
row m of the tableau and follow each pivot's rank-1 update, and the bounds of
the basic variables and the set of columns that may enter are kept in step
with the basis, so a pivot recomputes none of them.

Layout. During ``minimize`` the tableau ``T``, the basic values ``xB``, the
column bounds ``lower`` and ``upper``, the ``at_upper`` flags and the ``move``
mask are numpy arrays; the basis and the bounds of the basic variables
(``lowerB``, ``upperB``) are Python lists, and ``minimize`` reads the column
bounds through list copies. The ratio test is one Python pass over
``col_eff.tolist()`` and ``xB.tolist()``; the vector work (the entering scan,
the update of ``xB`` and the rank-1 update of ``T``) stays in numpy. Each
element is the same IEEE double operation in a list as in an array (a limit
is (x - target) / c, the step the smallest limit clamped at 0), so the pivot
choice and its arithmetic do not depend on the layout.

Restart. Every phase 1 is entered by ``restarted(bounds)`` from a state. A
feasible solve hands back its final state (tableau, basis, basic values and
at-upper flags) on ``LPResult.state``, and ``lp_solve(rows, bounds,
start=state)`` restarts from it, as a branch-and-bound child differs from its
parent in a few bounds only. A cold LP restarts from the blank state: the
artificials are the identity basis at the right-hand sides, and every real
column sits at zero. The restart copies the state, applies the new bounds,
fixes every artificial column at [0, 0], and shifts the basic values by
T[:, j] * delta for each nonbasic column whose bound value moved. Each basic
variable then outside its bounds becomes nonbasic at the bound it violates,
and its row gets a fresh artificial column e_i (the row's sign flipped when
the excess is negative), so phase 1 runs over the new artificials only. With
the artificials at zero the system is exactly the LP's, so INFEASIBLE
(artificial mass above ``_FEAS_SUM_TOL`` at the optimum) is a proof; with no
violated row the restart takes no pivot. A solve that breaks down or fails
the row-residual check against the unperturbed rows is retried down one
ladder: the given state, the blank state, then the blank state on right-hand
sides perturbed by about 1e-9.

Sized for the search LPs (at most 4m+1 rows on 2m+1 structural columns for an
m-strategy game); the arrays are dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SolverError", "LPResult", "LPState", "lp_solve"]

_ETOL = 1e-9  # reduced-cost threshold for entering candidates
_PIV_TOL = 1e-9  # smallest usable pivot magnitude
_FEAS_SUM_TOL = 1e-9  # artificial mass at or below which the point counts as feasible
_BOUND_TOL = 1e-9  # a restarted basic value this far outside its bounds opens a row
_ROW_CHECK_TOL = 1e-7  # final row-residual acceptance
_STALL_LIMIT = 64  # degenerate pivots before switching to Bland's rule


class SolverError(RuntimeError):
    """Numerical breakdown the solver could not recover from."""


class LPResult(tuple):
    """``(status, x, iterations)``; ``state`` is the restart point of a feasible solve, else None."""

    def __new__(cls, status: str, x, iterations: int, state: LPState | None = None):
        result = super().__new__(cls, (status, x, iterations))
        result.state = state
        return result


@dataclass(frozen=True)
class _System:
    """Rows in equality form: structural columns, then one slack per inequality."""

    A: np.ndarray  # (rows, n + slacks)
    b: np.ndarray  # right-hand sides as given, unperturbed
    sense: np.ndarray  # slack coefficient of each row: +1 for <=, -1 for >=, 0 for =
    n: int  # structural columns
    rows: list  # the LinearRow list A was built from; a restart must be given this same list

    def residual(self, x: np.ndarray) -> float:
        """Worst violation of the rows by the structural point x."""
        r = self.A[:, : self.n] @ x - self.b
        return float(np.max(np.where(self.sense == 0.0, np.abs(r), self.sense * r), initial=0.0))


def _standardize(rows, n: int) -> _System:
    sense = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[r.rel] for r in rows])
    slack = np.flatnonzero(sense)
    A = np.zeros((len(rows), n + slack.size))
    for ri, row in enumerate(rows):
        for idx, coef in row.coeffs.items():
            if not 0 <= idx < n:
                raise ValueError(f"row {ri} ({row.name or 'unnamed'}) names column {idx}, outside [0, {n})")
            A[ri, idx] = coef
    b = np.array([r.rhs for r in rows], dtype=float)
    bad = np.flatnonzero(~(np.isfinite(A).all(axis=1) & np.isfinite(b)))
    if bad.size:
        ri = int(bad[0])
        raise ValueError(f"row {ri} ({rows[ri].name or 'unnamed'}) has a non-finite coefficient or right-hand side")
    A[slack, n + np.arange(slack.size)] = sense[slack]
    return _System(A, b, sense, n, rows)


class _BoundedSimplex:
    """Phase-1 tableau over [real (structural, slack) | artificial] columns.

    There is one artificial column per row. Rows 0..m-1 of ``T`` are the
    constraint rows in the current basis; row m holds the reduced costs of
    the artificial mass, the sum of the columns in ``cost``. ``move[j]`` is
    +1 for a nonbasic column that may rise from its lower bound, -1 for one
    that may fall from its upper bound, and 0 for a basic or fixed column.
    ``basis`` lists the basic column of each row, and a restarted state's
    ``lowerB`` and ``upperB`` list their bounds.
    """

    def __init__(self, system: _System, b: np.ndarray):
        """The blank state, a start for ``restarted``: the artificials basic at b, real columns at zero."""
        m, n = system.A.shape
        self.m, self.n_real, self.system = m, n, system
        self.T = np.zeros((m + 1, n + m))
        self.T[:m, :n] = system.A
        self.T[:m, n:] = np.eye(m)
        self.xB = np.array(b, dtype=float)
        self.lower = np.zeros(n + m)
        self.upper = np.concatenate([np.zeros(system.n), np.full(n - system.n + m, np.inf)])
        self.basis = list(range(n, n + m))
        self.at_upper = np.zeros(n + m, dtype=bool)

    # -- point bookkeeping ------------------------------------------------

    def values(self) -> np.ndarray:
        x = np.where(self.at_upper, self.upper, self.lower)
        x[~np.isfinite(x)] = 0.0
        x[self.basis] = self.xB
        return x

    # -- restart ------------------------------------------------------------

    def restarted(self, bounds: np.ndarray) -> _BoundedSimplex:
        """A copy of this state under new structural bounds, ready for phase 1.

        Every artificial is fixed at [0, 0]. A row whose basic variable is
        left outside its bounds takes a nonbasic artificial's column slot as
        its fresh artificial e_i: the basic artificials occupy at most the
        other rows, so enough slots are free. The bounds of the basic
        variables and the move mask are then derived once, from the final basis.
        """
        m, nr = self.m, self.n_real
        # A fresh instance, not copy.copy: the pivot loop reads the attributes
        # of a copied instance's dict about three times slower (CPython 3.11).
        sx = object.__new__(_BoundedSimplex)
        sx.m, sx.n_real, sx.system, sx.iterations = m, nr, self.system, 0
        T = sx.T = self.T.copy()
        basis = np.array(self.basis, dtype=np.intp)
        at_upper = sx.at_upper = self.at_upper.copy()
        lower, upper = sx.lower, sx.upper = self.lower.copy(), self.upper.copy()
        old = np.where(at_upper, upper, lower)
        lower[: bounds.shape[0]], upper[: bounds.shape[0]] = bounds[:, 0], bounds[:, 1]
        upper[nr:] = 0.0
        delta = np.where(at_upper, upper, lower) - old
        delta[basis] = 0.0
        xB = sx.xB = self.xB - T[:m] @ delta

        lowerB, upperB = lower[basis], upper[basis]
        excess = xB - np.clip(xB, lowerB, upperB)
        opened = (np.abs(excess) > _BOUND_TOL).nonzero()[0]
        if opened.size:
            excess = excess[opened]
            leaving = basis[opened]
            at_upper[leaving] = excess > 0.0
            in_basis = np.zeros(T.shape[1], dtype=bool)
            in_basis[basis] = True
            in_basis[leaving] = False
            slots = nr + (~in_basis[nr:]).nonzero()[0][: opened.size]
            T[opened] = rows = T[opened] * np.sign(excess)[:, None]
            # Reduced costs of the mass of the new artificials: cost 1 on the
            # slots, less the sum of the rows they are basic in. The sum is
            # taken before the slot columns are written; row m's slot entries
            # are then cleared with the rest of those columns.
            np.negative(rows.sum(axis=0), out=T[m])
            T[:, slots] = 0.0
            T[opened, slots] = 1.0
            at_upper[slots] = False
            upper[slots] = np.inf
            basis[opened] = slots
            xB[opened] = np.abs(excess)
            lowerB[opened], upperB[opened] = 0.0, np.inf
        else:
            T[m] = 0.0
        sx.cost = basis[opened]
        move = sx.move = np.where(at_upper, -1.0, 1.0)
        move[upper <= lower] = 0.0
        move[basis] = 0.0
        sx.basis, sx.lowerB, sx.upperB = basis.tolist(), lowerB.tolist(), upperB.tolist()
        return sx

    # -- pivoting ----------------------------------------------------------

    def _entering(self, r: np.ndarray, bland: bool) -> int | None:
        score = r * self.move  # below -_ETOL exactly where moving the column lowers the mass
        if bland:
            eligible = (score < -_ETOL).nonzero()[0]
            return int(eligible[0]) if eligible.size else None
        j = int(score.argmin())
        return j if score[j] < -_ETOL else None

    def _ratio_test(self, j: int, col_eff: np.ndarray):
        """(step length, blocking row or None) when column j moves by col_eff per unit."""
        xB, lowerB, upperB = self.xB.tolist(), self.lowerB, self.upperB
        rows, limits = [], []
        for i, c in enumerate(col_eff.tolist()):
            if c > _PIV_TOL:
                limits.append((xB[i] - lowerB[i]) / c)
            elif c < -_PIV_TOL:
                limits.append((xB[i] - upperB[i]) / c)
            else:
                continue  # an entry of at most _PIV_TOL never blocks
            rows.append(i)
        t_rows = max(min(limits), 0.0) if limits else math.inf
        t_own = self.upper[j] - self.lower[j]
        if t_own <= t_rows:
            return t_own, None
        # Bland-compatible tie-break: smallest basic variable index.
        window = t_rows + 1e-12
        tied = [i for i, limit in zip(rows, limits) if limit <= window]
        return t_rows, min(tied, key=self.basis.__getitem__)

    def minimize(self, max_iter: int) -> None:
        """Run simplex iterations until no entering column lowers the artificial mass."""
        T, m, xB, move, at_upper = self.T, self.m, self.xB, self.move, self.at_upper
        basis, lowerB, upperB = self.basis, self.lowerB, self.upperB
        lower, upper = self.lower.tolist(), self.upper.tolist()
        stall = 0  # consecutive degenerate pivots
        while True:
            if self.iterations >= max_iter:
                raise SolverError(f"iteration limit {max_iter} exceeded")
            j = self._entering(T[m], bland=stall > _STALL_LIMIT)
            if j is None:
                return
            d = move[j]
            col_eff = d * T[:m, j]
            t, rr = self._ratio_test(j, col_eff)
            if t == math.inf:
                raise SolverError("LP relaxation is unbounded")
            self.iterations += 1
            stall = stall + 1 if t <= 1e-12 else 0
            xB -= t * col_eff
            if rr is None:
                at_upper[j] = not at_upper[j]
                move[j] = -d
                continue
            piv = T[rr, j]
            if abs(piv) < _PIV_TOL:
                raise SolverError("vanishing pivot")
            enter_val = (upper[j] if at_upper[j] else lower[j]) + d * t
            leave = basis[rr]
            leave_upper = bool(col_eff[rr] < 0.0)
            at_upper[leave] = leave_upper
            if upper[leave] > lower[leave]:
                move[leave] = -1.0 if leave_upper else 1.0
            move[j] = 0.0
            basis[rr] = j
            lowerB[rr], upperB[rr] = lower[j], upper[j]
            xB[rr] = enter_val
            # Column j comes out as e_rr with no extra write: row rr holds
            # piv / piv = 1.0 there, and every other row T[i, j] - T[i, j] * 1.0 = +0.0.
            T[rr] /= piv
            colj = T[:, j].copy()
            colj[rr] = 0.0
            T -= colj[:, None] * T[rr]

# The final state of a feasible solve, as ``LPResult.state`` hands it back.
LPState = _BoundedSimplex


def lp_solve(rows, bounds, *, start: LPState | None = None):
    """Feasibility solve of ``LinearRow`` rows over an (n, 2) array of bounds.

    Returns an ``LPResult`` that unpacks as (status, x, iterations), where
    status is 'feasible' or 'infeasible' and x covers the structural
    variables (None when infeasible); its ``state`` is the final state of a
    feasible solve. ``start``, the state of an earlier feasible solve of the
    same rows, makes this a restart from it under ``bounds`` on its rows;
    ``start`` is not modified. ``rows`` must then be the very list object
    that ``start`` was solved on (an identity check, O(1)). A row that names
    a column outside [0, n) or holds a non-finite coefficient or right-hand
    side (checked on cold solves, crossed box or not; a restart reuses its
    start's rows), a
    ``start`` given other rows, a NaN bound, an infinite lower bound, or an n
    other than ``start``'s structural column count raises ValueError. A
    crossed box (some lower bound above its upper bound) returns
    ('infeasible', None, 0); every other solve enters phase 1 through one
    restart. Each phase 1 may take at most 2000 + 40 (rows + tableau columns)
    iterations; going past that counts as a breakdown. A breakdown moves down
    the module docstring's retry ladder; the iterations count the pivots of
    every attempt, and the last attempt's SolverError is raised.
    """
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or (start is not None and len(bounds) != start.system.n):
        raise ValueError(f"bounds must be an (n, 2) array over the structural columns, got {bounds.shape}")
    if start is not None and rows is not start.system.rows:
        raise ValueError("a restart must be given the same rows list as the solve of its start")
    system = start.system if start is not None else _standardize(rows, len(bounds))
    lower, upper = bounds[:, 0], bounds[:, 1]
    if not (np.isfinite(lower) & (lower <= upper)).all():  # one reduction on the hot path
        if np.isnan(upper).any() or not np.isfinite(lower).all():
            raise ValueError("bounds must not be NaN and lower bounds must be finite")
        return LPResult("infeasible", None, 0)  # a crossed box
    wasted = 0
    for origin in _ladder(start, system):
        sx = origin.restarted(bounds)
        try:
            status, x, iterations = result = _finish(sx)
        except SolverError as exc:
            wasted += sx.iterations
            error = exc
            continue
        return LPResult(status, x, iterations + wasted, result.state)
    raise error


def _ladder(start: LPState | None, system: _System):
    """The states a solve restarts from, in order, each made only when reached."""
    if start is not None:
        yield start
    yield _BoundedSimplex(system, system.b)
    yield _BoundedSimplex(system, system.b + 1e-9 * ((np.arange(system.b.size) % 7) + 1) / 7.0)


def _finish(sx: _BoundedSimplex) -> LPResult:
    """Phase 1 to its optimum under the iteration cap, then the row-residual check."""
    sx.minimize(2000 + 40 * (sx.m + sx.T.shape[1]))
    x = sx.values()
    if float(x[sx.cost].sum()) > _FEAS_SUM_TOL:  # the artificial mass
        return LPResult("infeasible", None, sx.iterations)
    x = x[: sx.system.n]
    if sx.system.residual(x) > _ROW_CHECK_TOL:
        raise SolverError("solution failed the row-residual check")
    return LPResult("feasible", x, sx.iterations, sx)
