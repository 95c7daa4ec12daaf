"""Fixed pedagogical games and the randomized game classes used in the experiments.

Randomness is drawn from numpy's Philox counter-based generator keyed directly by
the 64-bit seed, so the same (generator, arguments, seed) triple always yields the
same game. Cross-language ports should match distributions, not bit streams.

Philox output depends only on its (key, counter) pair (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011). So each thread keeps one
generator and every game re-keys it to (seed, 0) with an empty buffer, the
exact state of a fresh ``Philox(key=seed)``, instead of building a new one (a
construction also reads OS entropy for a seed sequence the key then discards).
The generator returned by ``_rng`` is therefore valid only until the next
``_rng`` call in the same thread: every function here draws from it at once.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .game import GameMatrix, check_int

__all__ = [
    "CancerParams",
    "mutation_population",
    "counterexample_game",
    "rock_paper_scissors",
    "uniform_random",
    "chicken",
    "cancer_game",
    "random_cancer_params",
]


_local = threading.local()
_EMPTY = np.zeros(4, dtype=np.uint64)


def _rng(seed: int) -> np.random.Generator:
    """This thread's generator in the state of a fresh ``Philox(key=seed)``; draw before the next call.

    Every generator's seed is checked here: any integer, taken modulo 2^64.
    """
    seed = check_int("seed", seed)
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _EMPTY, "key": np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)},
        "buffer": _EMPTY,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@dataclass(frozen=True)
class CancerParams:
    """Phenotype interaction parameters of the 4x4 cancer game.

    a: cost of producing angiogenesis factors
    b: cost of producing cytotoxin
    c: cost of interaction with cytotoxin
    d: resource benefit when interacting with A+
    e: exploitation benefit for C when cytotoxin damages others
    f: synergistic resource benefit when two A+ cells interact
    g: reproductive advantage of P cells
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    g: float

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not math.isfinite(value):
                raise ValueError(f"cancer parameter {name}={value} must be finite")
            if value < 0.0:
                raise ValueError(f"cancer parameter {name}={value} must be >= 0")
        if self.c > 1.0:
            raise ValueError(f"cytotoxin cost c={self.c} must be <= 1")


def mutation_population() -> GameMatrix:
    """2x2 Dove/Hawk game with rows (4, 2) and (8, 1)."""
    return GameMatrix(np.array([[4.0, 2.0], [8.0, 1.0]]))


def counterexample_game() -> GameMatrix:
    """3x3 game whose pure strategy A resists each pure mutant but not the B/C mix."""
    return GameMatrix(
        np.array(
            [
                [2.0, 1.0, 1.0],
                [2.0, 0.0, 4.0],
                [2.0, 4.0, 0.0],
            ]
        )
    )


def rock_paper_scissors() -> GameMatrix:
    """Rock-paper-scissors with 1 for a win, 0 for a loss, and 2/3 for a tie."""
    t = 2.0 / 3.0
    return GameMatrix(
        np.array(
            [
                [t, 0.0, 1.0],
                [1.0, t, 0.0],
                [0.0, 1.0, t],
            ]
        )
    )


def uniform_random(m: int, seed: int) -> GameMatrix:
    """Game with all m*m payoffs drawn independently from Uniform[0, 1)."""
    m = check_int("m", m, 2)
    return GameMatrix(_rng(seed).random((m, m)))


def chicken(seed: int) -> GameMatrix:
    """Random 2x2 Chicken game satisfying a21 > a11 > a12 > a22.

    Four Uniform[0, 1) draws are sorted and assigned to enforce the strict
    ordering. Exact ties between draws have probability zero; the loop redraws
    just in case.
    """
    rng = _rng(seed)
    while True:
        draws = np.sort(rng.random(4))
        if draws[0] < draws[1] < draws[2] < draws[3]:
            break
    a22, a12, a11, a21 = (float(v) for v in draws)
    return GameMatrix(np.array([[a11, a12], [a21, a22]]))


def cancer_game(p: CancerParams) -> GameMatrix:
    """4x4 cancer phenotype game with strategy order (A-, A+, P, C)."""
    a, b, c, d, e, f, g = p.a, p.b, p.c, p.d, p.e, p.f, p.g
    return GameMatrix(
        np.array(
            [
                [1.0, 1.0 + d, 1.0, 1.0 - c],
                [1.0 - a + d, 1.0 - a + d + f, 1.0 - a + d, 1.0 - c - a + d],
                [1.0 + g, 1.0 + d + g, 1.0 + g, (1.0 + g) * (1.0 - c)],
                [1.0 - b + c, 1.0 - b + d + e, 1.0 - b + e, 1.0 - b],
            ]
        )
    )


def random_cancer_params(seed: int) -> CancerParams:
    """Seven independent Uniform[0, 0.5] draws, in the order a..g.

    Keeping every parameter at most 0.5 ensures all payoffs are nonnegative.
    """
    vals = _rng(seed).uniform(0.0, 0.5, size=7)
    return CancerParams(*(float(v) for v in vals))
