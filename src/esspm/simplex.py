"""Dense bounded-variable simplex: the feasibility core of the branch-and-bound solver.

Every LP the search asks is a feasibility question, so a caller gives rows and
bounds only. The simplex minimizes the total artificial-variable mass to find
any point of {rows hold, lb <= x <= ub}, or shows that none exists. Variables
may sit nonbasic at either bound, so upper bounds never become explicit rows,
and fixing a variable is a matter of its bounds. Pivoting uses the largest
reduced cost by default and falls back to Bland's smallest-index rule after a
run of degenerate pivots, which guarantees termination.

Sized for the search LPs (at most 4m+1 rows on 2m+1 structural columns for an
m-strategy game); everything is dense numpy.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["SolverError", "lp_solve"]

_ETOL = 1e-9  # reduced-cost threshold for entering candidates
_PIV_TOL = 1e-9  # smallest usable pivot magnitude
_FEAS_SUM_TOL = 1e-9  # artificial mass at or below which the point counts as feasible
_ROW_CHECK_TOL = 1e-7  # final row-residual acceptance
_STALL_LIMIT = 64  # degenerate pivots before switching to Bland's rule


class SolverError(RuntimeError):
    """Numerical breakdown the solver could not recover from."""


def _standardize(rows, bounds):
    """Equality-form data (A, b, lower, upper) with slack columns appended."""
    bounds = np.asarray(bounds, dtype=float)
    n = bounds.shape[0]
    n_slack = sum(1 for r in rows if r.rel != "=")
    m = len(rows)
    A = np.zeros((m, n + n_slack))
    b = np.empty(m)
    lower = np.concatenate([bounds[:, 0], np.zeros(n_slack)])
    upper = np.concatenate([bounds[:, 1], np.full(n_slack, np.inf)])
    si = n
    for ri, row in enumerate(rows):
        for idx, coef in row.coeffs.items():
            A[ri, idx] = coef
        b[ri] = row.rhs
        if row.rel == "<=":
            A[ri, si] = 1.0
            si += 1
        elif row.rel == ">=":
            A[ri, si] = -1.0
            si += 1
    return A, b, lower, upper, n


class _BoundedSimplex:
    def __init__(self, A: np.ndarray, b: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        m, n = A.shape
        if not np.all(np.isfinite(lower)):
            raise ValueError("all lower bounds must be finite")
        self.m, self.n_real = m, n
        # Start every real variable at its lower bound; artificials absorb the
        # residual with +/-1 columns so the initial basis is an identity.
        x0 = lower.copy()
        resid = b - A @ x0
        sign = np.where(resid >= 0.0, 1.0, -1.0)
        self.T = np.hstack([A * sign[:, None], np.eye(m)])
        self.xB = np.abs(resid)
        self.lower = np.concatenate([lower, np.zeros(m)])
        self.upper = np.concatenate([upper, np.full(m, np.inf)])
        self.n = n + m
        self.basis = list(range(n, n + m))
        self.is_basic = np.zeros(self.n, dtype=bool)
        self.is_basic[n:] = True
        self.at_upper = np.zeros(self.n, dtype=bool)
        self.iterations = 0

    # -- point bookkeeping ------------------------------------------------

    def values(self) -> np.ndarray:
        x = np.where(self.at_upper, self.upper, self.lower)
        x[~np.isfinite(x)] = 0.0
        x[self.basis] = self.xB
        return x

    # -- pivoting ----------------------------------------------------------

    def _entering(self, r: np.ndarray, bland: bool) -> int | None:
        free = ~self.is_basic & (self.upper - self.lower > 0.0)
        can_rise = free & ~self.at_upper & (r < -_ETOL)
        can_fall = free & self.at_upper & (r > _ETOL)
        eligible = np.nonzero(can_rise | can_fall)[0]
        if eligible.size == 0:
            return None
        if bland:
            return int(eligible[0])
        return int(eligible[np.argmax(np.abs(r[eligible]))])

    def _ratio_test(self, j: int, col_eff: np.ndarray):
        """(step length, blocking row or None, leaving-at-upper flag)."""
        basis = np.asarray(self.basis)
        lowerB = self.lower[basis]
        upperB = self.upper[basis]
        limits = np.full(self.m, np.inf)
        dec = col_eff > _PIV_TOL
        limits[dec] = (self.xB[dec] - lowerB[dec]) / col_eff[dec]
        inc = col_eff < -_PIV_TOL
        limits[inc] = (upperB[inc] - self.xB[inc]) / (-col_eff[inc])
        np.maximum(limits, 0.0, out=limits)

        t_rows = float(limits.min()) if self.m else np.inf
        t_own = self.upper[j] - self.lower[j]
        if t_own <= t_rows:
            return t_own, None, False
        # Bland-compatible tie-break: smallest basic variable index.
        tied = np.nonzero(limits <= t_rows + 1e-12)[0]
        rr = int(tied[np.argmin(basis[tied])])
        return t_rows, rr, bool(col_eff[rr] < 0.0)

    def minimize(self, c: np.ndarray, max_iter: int) -> float:
        """Run simplex iterations to minimize c over the current system."""
        stall = 0  # consecutive degenerate pivots
        while True:
            if self.iterations >= max_iter:
                raise SolverError(f"iteration limit {max_iter} exceeded")
            r = c - c[self.basis] @ self.T
            j = self._entering(r, bland=stall > _STALL_LIMIT)
            if j is None:
                return float(c @ self.values())
            d = -1.0 if self.at_upper[j] else 1.0
            col_eff = d * self.T[:, j]
            t, rr, leave_upper = self._ratio_test(j, col_eff)
            if not np.isfinite(t):
                raise SolverError("LP relaxation is unbounded")
            self.iterations += 1
            stall = stall + 1 if t <= 1e-12 else 0
            self.xB -= t * col_eff
            if rr is None:
                self.at_upper[j] = ~self.at_upper[j]
                continue
            enter_val = (self.upper[j] if self.at_upper[j] else self.lower[j]) + d * t
            leave = self.basis[rr]
            self.is_basic[leave] = False
            self.at_upper[leave] = leave_upper
            self.basis[rr] = j
            self.is_basic[j] = True
            self.xB[rr] = enter_val
            piv = self.T[rr, j]
            if abs(piv) < _PIV_TOL:
                raise SolverError("vanishing pivot")
            self.T[rr] /= piv
            colj = self.T[:, j].copy()
            colj[rr] = 0.0
            self.T -= np.outer(colj, self.T[rr])
            self.T[:, j] = 0.0
            self.T[rr, j] = 1.0


def _row_residuals(rows, x: np.ndarray) -> float:
    worst = 0.0
    for row in rows:
        lhs = sum(coef * x[idx] for idx, coef in row.coeffs.items())
        resid = lhs - row.rhs
        if row.rel == "<=":
            worst = max(worst, resid)
        elif row.rel == ">=":
            worst = max(worst, -resid)
        else:
            worst = max(worst, abs(resid))
    return worst


def lp_solve(rows, bounds, max_iter: int | None = None):
    """Feasibility solve of ``LinearRow`` rows over an (n, 2) array of finite bounds.

    Returns (status, x, iterations) where status is 'feasible' or 'infeasible'
    and x covers the structural variables (None when infeasible). On numerical
    breakdown the solve is retried once with right-hand sides perturbed by
    about 1e-9; a second failure raises SolverError.
    """
    for attempt in (0, 1):
        use_rows = rows if attempt == 0 else _perturbed(rows)
        try:
            return _lp_solve_once(use_rows, rows, bounds, max_iter)
        except SolverError:
            if attempt == 1:
                raise
    raise SolverError("unreachable")


def _perturbed(rows):
    return [
        dataclasses.replace(row, rhs=row.rhs + 1e-9 * ((i % 7) + 1) / 7.0)
        for i, row in enumerate(rows)
    ]


def _lp_solve_once(rows, orig_rows, bounds, max_iter):
    A, b, lower, upper, n = _standardize(rows, bounds)
    sx = _BoundedSimplex(A, b, lower, upper)
    if max_iter is None:
        max_iter = 2000 + 40 * (sx.m + sx.n)
    c = np.zeros(sx.n)
    c[A.shape[1]:] = 1.0  # artificials; structural and slack columns cost nothing
    if sx.minimize(c, max_iter) > _FEAS_SUM_TOL:
        return "infeasible", None, sx.iterations
    x = sx.values()[:n]
    if _row_residuals(orig_rows, x) > _ROW_CHECK_TOL:
        raise SolverError("solution failed the row-residual check")
    return "feasible", x, sx.iterations
