"""Stability condition checks, pure-strategy preprocessing, and solution-quality metrics.

A candidate x* resists a mutant x when either the mutant does strictly worse
against the incumbent population, or it ties against the population but does
strictly worse against itself than the incumbent does against it. Exact payoff
equality is unreliable in floating point, so the tie test is softened to a band
of half-width ``delta`` around zero.

The verdict records (``PureEsspm``, ``MixedEsspm``, ``Infeasible``,
``LimitReached``, ``SolveFailed``) live here too, next to the pure scan: the
MILP's ``solve``, the oracle route and the batch all answer with them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .game import GameMatrix, MixedStrategy, check_int, check_positive, utility

__all__ = [
    "PureEsspm",
    "MixedEsspm",
    "Infeasible",
    "LimitReached",
    "SolveFailed",
    "EsspmOutcome",
    "Tolerances",
    "Condition",
    "ConditionOutcome",
    "InvasionResult",
    "check_conditions",
    "find_pure_esspm",
    "find_all_pure_esspm",
    "pure_nash_epsilon",
    "payoff_gaps",
    "invasion_test",
    "approximation_error",
    "nash_epsilon",
]


@dataclass(frozen=True)
class Tolerances:
    """Precision of the stability checks.

    delta: half-width of the payoff-equality band (tie detection). The MILP's
    strictness margin is not here: it is the model's ``eps``.
    """

    delta: float = 1e-7

    def __post_init__(self) -> None:
        check_positive("delta", self.delta)


class Condition(enum.Enum):
    """Which stability condition a pure mutant satisfies against a candidate."""

    FIRST_STRICT = "first_strict"
    SECOND_EQUALITY = "second_equality"
    FAILS = "fails"


@dataclass(frozen=True)
class ConditionOutcome:
    """Condition tag plus the margin of the governing inequality.

    For FIRST_STRICT the slack is u1(x*,x*) - u1(j,x*) > delta. For
    SECOND_EQUALITY it is u1(x*,j) - u1(j,j) > 0. For FAILS it is the
    (nonpositive) margin of whichever inequality was violated.
    """

    tag: Condition
    slack: float

    @property
    def holds(self) -> bool:
        return self.tag is not Condition.FAILS


class InvasionResult(enum.Enum):
    RESISTED = "resisted"
    INVADES = "invades"


def check_conditions(
    game: GameMatrix, xstar: MixedStrategy, j: int, tol: Tolerances = Tolerances()
) -> ConditionOutcome:
    """Classify pure mutant ``j`` against candidate ``xstar``.

    FIRST_STRICT: u1(j,x*) < u1(x*,x*) - delta.
    SECOND_EQUALITY: |u1(j,x*) - u1(x*,x*)| <= delta and u1(j,j) < u1(x*,j).
    FAILS otherwise. At most one of the two stability conditions can hold, so
    testing them in order is exhaustive.
    """
    if not 0 <= check_int("j", j) < game.m:
        raise ValueError(f"mutant index {j} out of range for m={game.m}")
    if xstar.m != game.m:
        raise ValueError("strategy dimension does not match the game")
    against = game.payoffs @ xstar.probs  # against[i] = u1(i, x*)
    d = float(against[j] - xstar.probs @ against)
    if d < -tol.delta:
        return ConditionOutcome(Condition.FIRST_STRICT, -d)
    if d <= tol.delta:
        margin = float(xstar.probs @ game.payoffs[:, j] - game.payoffs[j, j])
        if margin > 0.0:
            return ConditionOutcome(Condition.SECOND_EQUALITY, margin)
        return ConditionOutcome(Condition.FAILS, margin)
    return ConditionOutcome(Condition.FAILS, -d)


def payoff_gaps(payoffs: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both stability quantities of every pure mutant, for one candidate or a stack.

    ``probs`` is a candidate x of shape (m,) or a stack of candidates, one per
    row, of shape (n, m); both results have its shape. For mutant j:
      d[j]      = u1(j, x) - u1(x, x)   the first condition holds when d < -delta;
      margin[j] = u1(x, j) - u1(j, j)   the second when |d| <= delta and margin > 0.
    For one candidate, d takes the products of :func:`check_conditions`.
    """
    against = (payoffs @ probs.T).T  # against[..., i] = u1(i, x)
    # Row-wise x . against as a matmul; for one candidate, the plain dot.
    d = against - (probs[..., None, :] @ against[..., :, None])[..., 0]
    margin = probs @ payoffs - payoffs.diagonal()
    return d, margin


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


def find_pure_esspm(game: GameMatrix, tol: Tolerances = Tolerances()) -> int | None:
    """Preprocessing pass: lowest pure strategy stable against every pure mutant.

    Returns None when no pure strategy qualifies, in which case any solution
    must be properly mixed.
    """
    stable = find_all_pure_esspm(game, tol)
    return stable[0] if stable else None


def find_all_pure_esspm(game: GameMatrix, tol: Tolerances = Tolerances()) -> list[int]:
    """Exhaustive variant of :func:`find_pure_esspm`: all qualifying pure strategies.

    Row i of the gaps holds pure candidate i against every mutant j; a pure
    candidate's gaps are single payoff differences,
      d[i, j]      = a_ji - a_ii,
      margin[i, j] = a_ij - a_jj,
    which are what :func:`payoff_gaps` yields for the unit vectors, so the
    verdicts equal :func:`check_conditions` exactly. The diagonal (a
    candidate against itself) always holds.
    """
    a = game.payoffs
    diag = a.diagonal()
    d = a.T - diag[:, None]
    margin = a - diag
    holds = (d < -tol.delta) | ((d <= tol.delta) & (margin > 0.0))
    np.fill_diagonal(holds, True)
    return np.flatnonzero(holds.all(axis=1)).tolist()


def pure_nash_epsilon(game: GameMatrix, i: int) -> float:
    """:func:`nash_epsilon` of pure strategy ``i``, read from its payoff column.

    The gain of a deviation to j is d[i, j] = a_ji - a_ii of
    :func:`find_all_pure_esspm`, which is what :func:`payoff_gaps` yields for
    the unit vector, so the value is the same double. It is never negative:
    j = i gains 0.
    """
    if not 0 <= check_int("i", i) < game.m:
        raise ValueError(f"pure index {i} out of range for m={game.m}")
    a = game.payoffs
    return float(a[:, i].max() - a[i, i])


def invasion_test(
    game: GameMatrix,
    xstar: MixedStrategy,
    mutant: MixedStrategy,
    tol: Tolerances = Tolerances(),
) -> InvasionResult:
    """Test whether a (possibly mixed) mutant can invade the candidate.

    The mutant must differ from the candidate by more than ``delta`` in some
    component. RESISTED mirrors the pure-mutant conditions with the same
    softened equality.
    """
    if xstar.m != game.m or mutant.m != game.m:
        raise ValueError("strategy dimensions do not match the game")
    if float(np.max(np.abs(mutant.probs - xstar.probs))) <= tol.delta:
        raise ValueError("mutant must differ from the candidate strategy")
    d = utility(game, mutant, xstar) - utility(game, xstar, xstar)
    if d < -tol.delta:
        return InvasionResult.RESISTED
    if d <= tol.delta and utility(game, mutant, mutant) < utility(game, xstar, mutant):
        return InvasionResult.RESISTED
    return InvasionResult.INVADES


def approximation_error(
    game: GameMatrix, xstar: MixedStrategy, tol: Tolerances = Tolerances()
) -> float:
    """Worst per-mutant stability violation of a candidate, in normalized payoff units.

    For each pure mutant i, with d = u1(i,x*) - u1(x*,x*):
      d > delta          -> violation d (mutant strictly gains against the population)
      |d| <= delta       -> violation max(0, u1(i,i) - u1(x*,i)) (tie broken the wrong way)
      d < -delta         -> 0
    The bands are those of :func:`check_conditions`. Returns the maximum over
    mutants. 0 is necessary for stability at this precision, not sufficient:
    a tied mutant whose margin is exactly 0 fails the second condition, yet
    adds 0.
    """
    if not game.is_normalized:
        raise ValueError("approximation_error expects a normalized game; call normalize() first")
    if xstar.m != game.m:
        raise ValueError("strategy dimension does not match the game")
    d, margin = payoff_gaps(game.payoffs, xstar.probs)
    theta = np.where(d > tol.delta, d, np.where(d >= -tol.delta, -margin, 0.0))
    return max(0.0, float(theta.max()))


def nash_epsilon(game: GameMatrix, xstar: MixedStrategy) -> float:
    """Largest unilateral gain from deviating to a pure strategy, clamped at 0.

    Zero exactly when (x*, x*) is a symmetric Nash equilibrium. Both players
    face the same deviation problem in a symmetric profile, so one maximum
    suffices.
    """
    if xstar.m != game.m:
        raise ValueError("strategy dimension does not match the game")
    d, _ = payoff_gaps(game.payoffs, xstar.probs)
    return max(0.0, float(d.max()))
