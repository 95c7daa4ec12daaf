"""Payoff matrices, mixed strategies, and expected utility for two-player symmetric games.

A symmetric game is stored as the row player's m-by-m payoff matrix A; the column
player's payoffs are implicitly A transposed. All objects here are immutable after
construction and every operation is a pure function, so they are safe to share
across threads.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GameMatrix",
    "MixedStrategy",
    "Support",
    "GameParseError",
    "utility",
    "normalize",
    "read_game",
    "write_game",
]

# Largest plain-float sum deviation accepted for a probability vector.
PROB_SUM_TOL = 1e-9
# A pure strategy is played when its probability exceeds this. Supports,
# support sizes and the oracle's whole-support test all use it.
PLAYED_TOL = 1e-9


def check_int(name: str, value, minimum: int | None = None) -> int:
    """A size, count, seed or limit as an int; numpy integers pass, floats, strings and booleans do not."""
    try:
        if isinstance(value, bool):  # an int to operator.index, but never a count
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_positive(name: str, value: float) -> None:
    """Refuse a tolerance that is not a positive, finite real; booleans are refused too."""
    try:
        ok = not isinstance(value, (bool, np.bool_)) and math.isfinite(value) and value > 0.0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class GameParseError(ValueError):
    """Raised when game text cannot be parsed; message includes the offending line."""


@dataclass(frozen=True)
class GameMatrix:
    """Row player's payoff table of a two-player symmetric game.

    ``payoffs[i][j]`` is the payoff to player 1 for playing pure strategy ``i``
    against pure strategy ``j``. The column player's matrix is the transpose.
    """

    payoffs: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.payoffs, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"payoff matrix must be square, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ValueError("a game needs at least 2 pure strategies")
        if not np.isfinite(a).all():
            raise ValueError("payoff entries must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "payoffs", a)

    @property
    def m(self) -> int:
        """Number of pure strategies per player."""
        return self.payoffs.shape[0]

    @property
    def is_normalized(self) -> bool:
        """True when every payoff lies in [0, 1]."""
        return bool(self.payoffs.min() >= 0.0 and self.payoffs.max() <= 1.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameMatrix):
            return NotImplemented
        return self.payoffs.shape == other.payoffs.shape and bool(
            np.array_equal(self.payoffs, other.payoffs)
        )

    def __hash__(self) -> int:
        # + 0.0 folds -0.0 into 0.0, which __eq__ already treats as equal.
        return hash((self.payoffs.shape, (self.payoffs + 0.0).tobytes()))


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over pure strategies.

    Components must be finite, nonnegative and sum to 1 within ``PROB_SUM_TOL``.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("a mixed strategy is a nonempty 1-d probability vector")
        if not np.isfinite(p).all():
            raise ValueError(f"non-finite probability in {p!r}")
        if p.min() < 0.0:
            raise ValueError(f"negative probability {p.min()!r}")
        if abs(p.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @staticmethod
    def pure(i: int, m: int) -> "MixedStrategy":
        """Degenerate strategy putting all weight on pure strategy ``i``.

        Strategies are immutable, so each ``(i, m)`` gets one shared
        instance, built on first use.
        """
        i, m = check_int("i", i), check_int("m", m)
        if not 0 <= i < m:
            raise ValueError(f"pure index {i} out of range for m={m}")
        return _pure_strategy(i, m)

    @property
    def m(self) -> int:
        return self.probs.size

    def support(self) -> "Support":
        """Indices played with probability above ``PLAYED_TOL``."""
        return Support(tuple(int(i) for i in np.nonzero(self.probs > PLAYED_TOL)[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedStrategy):
            return NotImplemented
        return bool(np.array_equal(self.probs, other.probs))

    def __hash__(self) -> int:
        return hash((self.probs + 0.0).tobytes())  # -0.0 hashes as 0.0


@functools.cache
def _pure_strategy(i: int, m: int) -> MixedStrategy:
    p = np.zeros(m)
    p[i] = 1.0
    return MixedStrategy(p)


@dataclass(frozen=True)
class Support:
    """Nonempty, strictly increasing tuple of pure-strategy indices (ints or numpy ints, not booleans)."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            idx = tuple(check_int("index", i) for i in self.indices)
        except (TypeError, ValueError):
            raise ValueError(f"support indices must be integers, got {self.indices!r}") from None
        if not idx:
            raise ValueError("support must be nonempty")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"support indices must be strictly increasing, got {idx}")
        if idx[0] < 0:
            raise ValueError(f"negative support index {idx[0]}")
        object.__setattr__(self, "indices", idx)

    def validate_for(self, m: int) -> None:
        if self.indices[-1] >= m:
            raise ValueError(f"support index {self.indices[-1]} out of range for m={m}")

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


def utility(game: GameMatrix, v: MixedStrategy, w: MixedStrategy) -> float:
    """Expected payoff v' A w to player 1 when row plays v and column plays w.

    Reduces to row selection when v is pure and column selection when w is pure.
    """
    if v.m != game.m or w.m != game.m:
        raise ValueError(
            f"strategy dimensions ({v.m}, {w.m}) do not match game with m={game.m}"
        )
    return float(v.probs @ game.payoffs @ w.probs)


def normalize(game: GameMatrix) -> GameMatrix:
    """Affine rescale of payoffs onto [0, 1].

    Maps a -> (a - min) / (max - min), so the smallest entry becomes 0 and the
    largest 1. Affine maps do not change the strategic structure of the game.
    A constant game maps to all zeros (it is strategically empty either way).
    A range above the largest double is halved first (exact but for
    subnormal results), so a - min cannot overflow.
    """
    a = game.payoffs
    lo, hi = float(a.min()), float(a.max())
    if hi == lo:
        return GameMatrix(np.zeros_like(a))
    if not math.isfinite(hi - lo):
        a, lo, hi = a * 0.5, lo * 0.5, hi * 0.5
    return GameMatrix((a - lo) / (hi - lo))


def read_game(text: str) -> GameMatrix:
    """Parse the plain-text game format.

    Line 1 holds the strategy count m, lines 2..m+1 hold the m rows of A as
    whitespace-separated decimal reals. Lines starting with ``#`` are ignored.
    """
    data_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_lines.append((lineno, stripped))

    if not data_lines:
        raise GameParseError("line 1: empty input, expected strategy count")

    header_no, header = data_lines[0]
    try:
        m = int(header)
    except ValueError:
        raise GameParseError(
            f"line {header_no}: expected integer strategy count, got {header!r}"
        ) from None
    if m < 2:
        raise GameParseError(f"line {header_no}: strategy count must be >= 2, got {m}")

    rows = data_lines[1:]
    if len(rows) != m:
        raise GameParseError(
            f"line {header_no}: expected {m} payoff rows, found {len(rows)}"
        )

    payoffs = np.empty((m, m))
    for r, (lineno, line) in enumerate(rows, start=1):
        tokens = line.split()
        if len(tokens) != m:
            raise GameParseError(
                f"line {lineno}: row {r} has {len(tokens)} of {m} entries"
            )
        for c, tok in enumerate(tokens):
            try:
                payoffs[r - 1, c] = float(tok)
            except ValueError:
                raise GameParseError(
                    f"line {lineno}: row {r} has non-numeric entry {tok!r}"
                ) from None
            if not np.isfinite(payoffs[r - 1, c]):
                raise GameParseError(
                    f"line {lineno}: row {r} has non-finite entry {tok!r}"
                )
    return GameMatrix(payoffs)


def write_game(game: GameMatrix) -> str:
    """Serialize a game to the text format; inverse of :func:`read_game`.

    Values are written with ``repr``, which round-trips doubles exactly, so
    ``read_game(write_game(g)) == g`` and re-serializing is byte-stable.
    """
    lines = [str(game.m)]
    for row in game.payoffs:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
