"""Brute-force oracle: enumerate supports, solve each tie system, certify stability.

Supports are taken in stacked chunks: one tie solve and one payoff-gap screen
per chunk, so only the candidates that the screen cannot rule out become
objects and are certified by the scalar spec, ``check_conditions``. The
MILP leaf shares two kernels with the oracle, the tie solve ``_solve_ties``
and the dominance table ``_spared_cells``, so ``--solver both`` checks the
search and the model but not those two kernels.

Before the tie solve, a chunk drops every support S that has a member i and
a row j with a_jc - a_ic > delta + tau for every column c of S, where
tau = ``_PRUNE_GUARD`` * (1 + max|a|). This is the conditional dominance of
Porter, Nudelman & Shoham (2008, "Simple search methods for finding a Nash
equilibrium"). No candidate on such an S can be certified, because mutant j
fails ``check_conditions`` against it. Take any x that the tie kernel accepts
on S. Its raw solution y misses each tie equation by at most 1e-8
(``_RESIDUAL_TOL``) and has no component below -1e-9 (``_SIMPLEX_TOL``); x is
y clamped at 0 and divided by its sum t >= 1 - 1e-8. Write u_k = (A x)_k.

- The tie equations hold relative to the first member, so any two members'
  payoffs against y differ by at most 2e-8. The clamp moves at most 20
  components by at most 1e-9 each, so it changes such a difference by at most
  4e-8 * max|a|. Dividing by t scales it by at most 1 + 2e-8. The rounding of
  the residual test, of the clamp and of the division adds at most about
  1e-14 * max|a|. So any two members' u_k differ by at most
  sigma < 3e-8 + 5e-8 * max|a|.
- u(x, x) = sum_k x_k u_k is a weighted mean of the members' payoffs, so
  |u_i - u(x, x)| <= sigma.
- u_j - u_i = sum_{c in S} x_c (a_jc - a_ic) > delta + tau, since x is a
  distribution on S. Its float sum misses 1 by less than 1e-14, and the
  dominance test compares rounded differences; together these cost a relative
  1e-14 of delta + tau.

So the exact d_j = u_j - u(x, x) exceeds delta + tau - sigma less that
relative loss, which is more than delta + 4e-8 * (1 + max|a|) for any delta
below 1e6. The scalar and the stacked products compute d_j within about
1e-14 * max|a| of it. Hence ``check_conditions``
finds d_j > delta and tags j FAILS, and the screen, whose guard is
``_SCREEN_GUARD`` * max|a|, would have dropped x as well. Pruning therefore
removes no certificate and no ``check_conditions`` call. The rule needs no
property of the game beyond finite payoffs, and tau is small enough that
integer or one-decimal payoff gaps prune at any delta below them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import Condition, ConditionOutcome, Tolerances, check_conditions, payoff_gaps
from .game import PLAYED_TOL, GameMatrix, MixedStrategy, Support, check_int

__all__ = ["EsspmCertificate", "solve_support", "enumerate_esspm", "DEFAULT_SUPPORT_CAP"]

DEFAULT_SUPPORT_CAP = 20


def check_cap(m: int) -> None:
    """Refuse a game with more than ``DEFAULT_SUPPORT_CAP`` strategies, too many supports to visit."""
    if m > DEFAULT_SUPPORT_CAP:
        raise ValueError(f"m={m} exceeds the enumeration cap of {DEFAULT_SUPPORT_CAP}")


@dataclass(frozen=True)
class EsspmCertificate:
    """A certified stable strategy: every pure mutant satisfies a stability condition."""

    strategy: MixedStrategy
    support: Support
    per_mutation: tuple[ConditionOutcome, ...]

    def min_slack(self) -> float:
        """Smallest margin across mutants; how far the certificate is from failing."""
        return min(outcome.slack for outcome in self.per_mutation)


# The fixed thresholds of the tie kernel, which the oracle, solve_support and
# the MILP leaves share; the leaves' tie and margin thresholds sit in solver.py
# next to their check. Every other threshold is a user's delta or eps, or
# game.PLAYED_TOL, below which a support member's weight is not really played.
_RESIDUAL_TOL = 1e-8  # max |mat @ sol - rhs| of a numerically regular tie system
_SIMPLEX_TOL = 1e-9  # components below -this leave the simplex; those in (-this, 0) are clamped
# Oracle screen guard, per unit of max|a|. The stacked and the scalar products
# sum the same m <= 20 terms in different orders, so their gaps differ by at
# most a few times 20 * 2^-52 * max|a|, about 1e-14 * max|a|. A mutant rules a
# candidate out before certification only when it fails by more than this
# guard, so every candidate that check_conditions would certify survives.
_SCREEN_GUARD = 1e-12
# Oracle prune guard, per unit of 1 + max|a|. A support is skipped before its
# tie solve when one member loses to some row by more than delta plus this
# guard on every column of the support. The guard covers the tie spread of an
# accepted solution, 2 * _RESIDUAL_TOL plus 2 * 20 * _SIMPLEX_TOL * max|a| from
# the clamp, with room for rounding; the module docstring has the argument.
_PRUNE_GUARD = 1e-7

# Supports per stacked solve: large enough to amortize the numpy call overhead,
# small enough that a first-certificate search does not solve far past its stop.
CHUNK = 256

# Bit c of a support mask stands for strategy c; m <= DEFAULT_SUPPORT_CAP fits uint32.
_BITS = np.uint32(1) << np.arange(DEFAULT_SUPPORT_CAP, dtype=np.uint32)


def _solve_ties(payoffs: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the tie systems of a stack of same-size supports, one per row of ``idx``.

    Row k of support ``idx[k] = (i0, ..., i_{s-1})`` has the equations
    payoff(i_r) - payoff(i0) = 0 for r >= 1, plus the probability-sum row.
    Returns ``(rejected, probs)``: ``rejected[k]`` is True when the system
    is singular or its solution leaves the simplex; ``probs`` holds, for the
    other supports in order, one strategy of length m: the solution clamped
    at 0, renormalized and placed on its support. Size-1 supports get their
    solution, 1, in closed form: the rows of the identity, without the solve.
    """
    n, s = idx.shape
    m = len(payoffs)
    if s == 1:
        return np.zeros(n, dtype=bool), np.eye(m)[idx[:, 0]]
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
    probs = np.zeros((np.count_nonzero(kept), m))
    probs[np.arange(len(probs))[:, None], idx[kept]] = sol[kept] / total[kept, None]
    return rejected, probs


def solve_support(game: GameMatrix, support: Support) -> MixedStrategy | None:
    """Solve the tie system on a support: equal payoffs inside, zero outside.

    A one-row call of the stacked kernel that :func:`enumerate_esspm` and the
    MILP leaves use. Returns None when the system is singular (LAPACK fails,
    or the residual exceeds 1e-8) or the solution leaves the simplex (a
    component below -1e-9); components in (-1e-9, 0) are clamped. These
    thresholds are fixed, independent of any ``Tolerances``.
    """
    support.validate_for(game.m)
    rejected, probs = _solve_ties(game.payoffs, np.array([support.indices]))
    return None if rejected[0] else MixedStrategy(probs[0])


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


@functools.cache
def _support_table(m: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every size-``size`` support of ``range(m)`` in index order, built once per process.

    Returns ``(idx, masks)``: ``idx`` holds one support per row (uint8) and
    ``masks[k]`` sets bit c for each member c of row k (uint32). Both are
    read-only. Over all sizes at the cap m = 20 they take 20 * 2^19 bytes of
    indices and 4 * (2^20 - 1) bytes of masks, 14 MiB in all; at m = 13,
    84 KiB.
    """
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), size))
    idx = np.fromiter(flat, dtype=np.uint8, count=math.comb(m, size) * size).reshape(-1, size)
    masks = _BITS[idx].sum(axis=1, dtype=np.uint32)
    idx.setflags(write=False)
    masks.setflags(write=False)
    return idx, masks


def _spared_cells(payoffs: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean table of a game: ``kept[i, j, c]`` is True unless a_jc - a_ic > threshold.

    The comparison behind :func:`_spared` and the MILP's dominance masks.
    """
    return payoffs[None, :, :] - payoffs[:, None, :] <= threshold


def _spared(payoffs: np.ndarray, threshold: float) -> np.ndarray:
    """Bitmask table of a game: bit c of ``spared[i, j]`` is set unless a_jc - a_ic > threshold.

    Row j beats member i on every column of a support with mask M exactly
    when ``spared[i, j] & M == 0``.
    """
    m = len(payoffs)
    return (_spared_cells(payoffs, threshold) * _BITS[:m]).sum(axis=2, dtype=np.uint32)


def _survivors(game: GameMatrix, delta: float):
    """Yield one record per chunk of supports: (chunk, dominated, singular, candidates).

    Supports come in (size, indices) order, in chunks that are slices of the
    cached :func:`_support_table`. A chunk first drops the supports with a
    conditionally dominated member (see the module docstring); only the rest
    are solved by :func:`_solve_ties`, and a chunk with none left solves
    nothing. The strategies that use their whole support form one (n, m)
    stack, screened with one :func:`payoff_gaps` call when it is not empty;
    rows in which some mutant fails clearly are dropped. ``dominated`` and
    ``singular`` are boolean masks over chunk positions; ``candidates``
    yields the screened strategies in order, as (position, probs).
    """
    payoffs = game.payoffs
    scale = float(np.abs(payoffs).max())
    guard = _SCREEN_GUARD * scale
    spared = _spared(payoffs, delta + _PRUNE_GUARD * (1.0 + scale))
    for size in range(1, game.m + 1):
        table, table_masks = _support_table(game.m, size)
        for start in range(0, len(table), CHUNK):
            chunk = table[start : start + CHUNK]
            masks = table_masks[start : start + CHUNK, None, None]
            # A support is live when no (member, row) pair has spared & mask == 0.
            is_live = np.all(np.take(spared, chunk, axis=0) & masks, axis=(1, 2))
            live = np.flatnonzero(is_live)
            singular = np.zeros(len(chunk), dtype=bool)
            if not live.size:
                yield chunk, ~is_live, singular, ()
                continue
            rejected, probs = _solve_ties(payoffs, chunk[live])
            singular[live] = rejected
            used = np.count_nonzero(probs > PLAYED_TOL, axis=1) == size
            positions, probs = live[~rejected][used], probs[used]
            if len(probs):
                keep = ~_fails_clearly(*payoff_gaps(payoffs, probs), delta, guard)
                positions, probs = positions[keep], probs[keep]
            yield chunk, ~is_live, singular, zip(positions.tolist(), probs)


def enumerate_esspm(
    game: GameMatrix,
    tol: Tolerances = Tolerances(),
    *,
    limit: int | None = None,
    counters: dict | None = None,
) -> list[EsspmCertificate]:
    """Stable strategies found by exhausting the 2^m - 1 supports.

    Supports are visited in (size, indices) order. Each size's supports are
    taken in chunks of at most ``CHUNK``. A support with a conditionally
    dominated member (some member loses to some row by more than delta plus
    ``_PRUNE_GUARD`` times 1 + max|a| on every column of the support) is
    skipped, since no candidate on it can pass; the module docstring proves
    it. The other supports' tie systems are solved as one stack, the size-1
    ones in closed form. The candidates that use their whole support are
    screened as one stack with :func:`payoff_gaps`: a candidate against
    which some pure mutant fails by more than a rounding guard
    (``_SCREEN_GUARD`` times max|a|) is dropped. Each survivor, in order, is
    certified against every pure mutant by :func:`check_conditions`, so
    certificates, tags and slacks are those of the scalar spec, bit for bit.
    ``limit`` stops the enumeration once that many certificates are found,
    so ``limit=1`` returns the first certificate in (size, indices) order,
    ``enumerate_esspm(game)[:1]``. The returned list is in that order too. Games with more than
    ``DEFAULT_SUPPORT_CAP`` strategies raise ValueError, as does a ``limit``
    that is not a positive integer.

    ``counters`` (optional dict) receives ``supports_visited``, the supports
    examined up to the stop, pruned ones included; ``singular_skipped``,
    those whose tie system was solved and found singular or leaving the
    simplex (on uniform games nearly all of the second kind); and
    ``dominated_skipped``, those pruned before their tie solve.
    """
    check_cap(game.m)
    if limit is not None:
        limit = check_int("limit", limit, 1)
    visited = singular_skipped = dominated_skipped = 0
    found: list[EsspmCertificate] = []
    for chunk, dominated, singular, candidates in _survivors(game, tol.delta):
        end = len(chunk)  # positions examined: up to the last certificate needed
        for k, probs in candidates:
            cert = _certify(game, MixedStrategy(probs), Support(chunk[k]), tol)
            if cert is not None:
                found.append(cert)
                if len(found) == limit:
                    end = k + 1
                    break
        visited += end
        singular_skipped += int(np.count_nonzero(singular[:end]))
        dominated_skipped += int(np.count_nonzero(dominated[:end]))
        if len(found) == limit:
            break
    if counters is not None:
        counters.update(
            supports_visited=visited, singular_skipped=singular_skipped, dominated_skipped=dominated_skipped
        )
    return found
