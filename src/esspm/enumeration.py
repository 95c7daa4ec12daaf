"""Brute-force oracle: enumerate supports, solve each tie system, certify stability.

Supports are taken in stacked chunks: one tie solve and one payoff-gap screen
per chunk, so only the candidates that the screen cannot rule out become
objects and are certified by the scalar spec, ``check_conditions``. Runs
independently of the MILP path so the two can cross-check each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .analysis import Condition, ConditionOutcome, Tolerances, check_conditions, payoff_gaps
from .game import PLAYED_TOL, GameMatrix, MixedStrategy, Support

__all__ = ["EsspmCertificate", "solve_support", "enumerate_esspm", "DEFAULT_SUPPORT_CAP"]

DEFAULT_SUPPORT_CAP = 20


@dataclass(frozen=True)
class EsspmCertificate:
    """A certified stable strategy: every pure mutant satisfies a stability condition."""

    strategy: MixedStrategy
    support: Support
    per_mutation: tuple[ConditionOutcome, ...]

    def min_slack(self) -> float:
        """Smallest margin across mutants; how far the certificate is from failing."""
        return min(outcome.slack for outcome in self.per_mutation)


# The fixed thresholds of a candidate strategy, defined once for the oracle,
# solve_support and the MILP leaves (solver.py imports the last two). Every
# other threshold is a user's delta or eps, or game.PLAYED_TOL, below which a
# support member's weight is not really played.
_RESIDUAL_TOL = 1e-8  # max |mat @ sol - rhs| of a numerically regular tie system
_SIMPLEX_TOL = 1e-9  # components below -this leave the simplex; those in (-this, 0) are clamped
_TIE_TOL = 1e-8  # MILP leaf: a pattern member's |d| at most this counts as a tie
_MARGIN_TOL = 1e-9  # MILP leaf: slack by which a margin may fall short of eps
# Oracle screen guard, per unit of max|a|. The stacked and the scalar products
# sum the same m <= 20 terms in different orders, so their gaps differ by at
# most a few times 20 * 2^-52 * max|a|, about 1e-14 * max|a|. A mutant rules a
# candidate out before certification only when it fails by more than this
# guard, so every candidate that check_conditions would certify survives.
_SCREEN_GUARD = 1e-12

# Supports per stacked solve: large enough to amortize the numpy call overhead,
# small enough that a first-certificate search does not solve far past its stop.
CHUNK = 256


def _solve_ties(payoffs: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the tie systems of a stack of same-size supports, one per row of ``idx``.

    Row k of support ``idx[k] = (i0, ..., i_{s-1})`` has the equations
    payoff(i_r) - payoff(i0) = 0 for r >= 1, plus the probability-sum row.
    Returns ``(rejected, weights)``: ``rejected[k]`` is True when the system
    is singular or its solution leaves the simplex; ``weights`` holds, for
    the other supports in order, the solution clamped at 0 and renormalized.
    """
    n, s = idx.shape
    sub = payoffs[idx[:, :, None], idx[:, None, :]]  # sub[k, r, c] = a[idx[k, r], idx[k, c]]
    mat = np.empty((n, s, s))
    mat[:, :-1] = sub[:, 1:] - sub[:, :1]
    mat[:, -1] = 1.0
    rhs = np.zeros((n, s, 1))
    rhs[:, -1] = 1.0
    solved = np.ones(n, dtype=bool)
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        # Some member is exactly singular; solve the others one by one.
        sol = np.zeros((n, s, 1))
        for k in range(n):
            try:
                sol[k] = np.linalg.solve(mat[k], rhs[k])
            except np.linalg.LinAlgError:
                solved[k] = False
    residual = np.abs(mat @ sol - rhs).max(axis=(1, 2))
    sol = sol[:, :, 0]
    rejected = ~solved | (residual > _RESIDUAL_TOL) | (sol.min(axis=1) < -_SIMPLEX_TOL)
    sol = np.clip(sol, 0.0, None)
    total = sol.sum(axis=1)
    rejected |= total <= 0.0
    kept = ~rejected
    return rejected, sol[kept] / total[kept, None]


def solve_support(game: GameMatrix, support: Support) -> MixedStrategy | None:
    """Solve the tie system on a support: equal payoffs inside, zero outside.

    A one-row call of the stacked kernel that :func:`enumerate_esspm` and the
    MILP leaves use. Returns None when the system is singular (LAPACK fails,
    or the residual exceeds 1e-8) or the solution leaves the simplex (a
    component below -1e-9); components in (-1e-9, 0) are clamped. These
    thresholds are fixed, independent of any ``Tolerances``.
    """
    support.validate_for(game.m)
    rejected, weights = _solve_ties(game.payoffs, np.array([support.indices]))
    if rejected[0]:
        return None
    probs = np.zeros(game.m)
    probs[list(support.indices)] = weights[0]
    return MixedStrategy(probs)


def _certify(
    game: GameMatrix, strategy: MixedStrategy, support: Support, tol: Tolerances
) -> EsspmCertificate | None:
    skip = support.indices[0] if len(support) == 1 else None
    outcomes = []
    for j in range(game.m):
        if j == skip:
            continue
        outcome = check_conditions(game, strategy, j, tol)
        if outcome.tag is Condition.FAILS:
            return None
        outcomes.append(outcome)
    return EsspmCertificate(strategy, support, tuple(outcomes))


def _fails_clearly(d: np.ndarray, margin: np.ndarray, delta: float, guard: float) -> np.ndarray:
    """Rows of a gap stack in which some mutant fails by more than ``guard``.

    A mutant fails clearly when d > delta + guard, or when |d| <= delta - guard
    and margin < -guard: then it fails :func:`check_conditions` whatever the
    last bits of the products, so the row cannot be certified.
    """
    tie_lost = (np.abs(d) <= delta - guard) & (margin < -guard)
    return ((d > delta + guard) | tie_lost).any(axis=1)


def _survivors(game: GameMatrix, delta: float, counts: list[int]):
    """Yield (indices, probs) for each candidate that the chunk screen keeps.

    Supports come in (size, indices) order. Each chunk's tie solutions that
    use their whole support form one (n, m) probability stack, screened with
    one :func:`payoff_gaps` call; rows in which some mutant fails clearly are
    dropped. ``counts`` holds [supports visited, singular skipped] and is
    brought up to date through each support before it is yielded, so it
    stays exact when the caller stops early.
    """
    payoffs = game.payoffs
    guard = _SCREEN_GUARD * float(np.abs(payoffs).max())
    for size in range(1, game.m + 1):
        combos = itertools.combinations(range(game.m), size)
        while chunk := list(itertools.islice(combos, CHUNK)):
            idx = np.array(chunk)
            rejected, weights = _solve_ties(payoffs, idx)
            used = ~np.any(weights <= PLAYED_TOL, axis=1)
            rows = np.flatnonzero(~rejected)[used]
            probs = np.zeros((len(rows), game.m))
            np.put_along_axis(probs, idx[rows], weights[used], axis=1)
            keep = ~_fails_clearly(*payoff_gaps(payoffs, probs), delta, guard)
            done = 0
            for k, p in zip(rows[keep].tolist(), probs[keep]):
                counts[0] += k + 1 - done
                counts[1] += int(np.count_nonzero(rejected[done : k + 1]))
                done = k + 1
                yield chunk[k], p
            counts[0] += len(chunk) - done
            counts[1] += int(np.count_nonzero(rejected[done:]))


def enumerate_esspm(
    game: GameMatrix,
    tol: Tolerances = Tolerances(),
    *,
    limit: int | None = None,
    counters: dict | None = None,
) -> list[EsspmCertificate]:
    """Stable strategies found by exhausting the 2^m - 1 supports.

    Supports are visited in (size, indices) order. Each size's supports are
    taken in chunks of at most ``CHUNK``, whose tie systems are solved as one
    stack. The candidates that use their whole support are screened as one
    stack with :func:`payoff_gaps`: a candidate against which some pure
    mutant fails by more than a rounding guard (``_SCREEN_GUARD`` times
    max|a|) is dropped. Each survivor, in order, is certified against every
    pure mutant by :func:`check_conditions`, so certificates, tags and slacks
    are those of the scalar spec, bit for bit. ``limit`` stops the
    enumeration once that many certificates are found, so ``limit=1``
    returns the first certificate in (size, indices) order,
    ``enumerate_esspm(game)[:1]``.
    The returned list is in that order too. Games with more than
    ``DEFAULT_SUPPORT_CAP`` strategies raise ValueError.

    ``counters`` (optional dict) receives ``supports_visited``, the supports
    examined up to the stop, and ``singular_skipped``, those whose tie
    system is singular or whose solution leaves the simplex. On uniform
    games nearly all of them are of the second kind.
    """
    if game.m > DEFAULT_SUPPORT_CAP:
        raise ValueError(f"m={game.m} exceeds the enumeration cap of {DEFAULT_SUPPORT_CAP}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    counts = [0, 0]  # supports visited, singular skipped
    found: list[EsspmCertificate] = []
    for indices, probs in _survivors(game, tol.delta, counts):
        cert = _certify(game, MixedStrategy(probs), Support(indices), tol)
        if cert is not None:
            found.append(cert)
            if len(found) == limit:
                break
    if counters is not None:
        counters["supports_visited"], counters["singular_skipped"] = counts
    return found
