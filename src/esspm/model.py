"""Mixed-integer linear feasibility model for mixed stability candidates.

The candidate x* must satisfy, for every pure strategy x, either a strict
payoff deficit against the population or a payoff tie combined with a strict
self-play deficit. A binary y_x selects the branch via big-M rows over the
population self-payoff z = x*' A x*.

A ``ModelIR`` is built from its normalized game and eps alone, in a fixed
layout: columns x_0..x_{m-1}, then z at m, then y_0..y_{m-1} at m+1..2m;
``rows`` the four big-M rows per pure strategy, then the probability simplex
row; ``links`` the m support-link rows x_j - y_j <= 0 of Sandholm, Gilpin &
Conitzer (2005).

Rows and links together are an exact MILP for an ESSPM at margin eps: the
paper's non-convex constraint z = x' A x needs no approximation. At a
feasible point with binary y, a strategy with y_j = 1 ties at z (its tie
rows) and one with y_j = 0 has x_j = 0 (its link), so
x' A x = sum_j x_j (A x)_j = z sum_j x_j = z, and the big-M rows read as the
branch conditions with the exact quadratic. Conversely, an ESSPM whose
margins meet eps is feasible with z = x' A x and y_j = 1 exactly on its
ties, which include its support.

The branch-and-bound search solves its LPs on ``rows`` alone and applies
each link as a bound on its y_j = 0 branch; its leaves check z = x*' A x*
exactly. ``export_lp`` writes rows and links, so any MILP solver decides the
same question.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .game import GameMatrix, check_int, check_positive

__all__ = [
    "LinearRow",
    "ModelIR",
    "build_model",
    "export_lp",
    "verify_assignment",
    "interpolation_assignment",
    "linearization_error_bound",
]

EPS = 1e-5  # the default strictness margin of the big-M rows
LIN_FEAS_TOL = 1e-7
INT_TOL = 1e-6  # a binary within this of 0 or 1 is integral, in the verify and the search


@dataclass(frozen=True)
class LinearRow:
    """coeffs . vars <rel> rhs with rel one of '<=', '=', '>='.

    ``coeffs`` is kept as a read-only view of a private copy, so a built row
    cannot be edited.
    """

    coeffs: Mapping[int, float]
    rel: str
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.rel not in ("<=", "=", ">="):
            raise ValueError(f"unknown relation {self.rel!r}")
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))


@dataclass(frozen=True)
class ModelIR:
    """Solver-agnostic feasibility program, built from its two inputs.

    ``game`` is the normalized game whose payoffs define the quadratic form
    z stands for and ``eps`` the strictness margin of the big-M rows, so a
    solver can verify candidates against the original quadratic constraints
    at the model's own margin. The model refuses a ``game`` that is not a
    ``GameMatrix`` or not in [0, 1], as the big-M constants assume, and a bad
    ``eps``; it compares and hashes by these two. The other fields are built
    from them, so they can be neither passed nor assigned, and
    ``dataclasses.replace`` rebuilds them. ``variables`` names the columns in
    layout order, ``bounds`` is their read-only (n, 2) array of [lower, upper]
    bounds, ``xs`` slices the strategy block x and ``ys`` the binary block y;
    ``rows`` and ``links`` index the columns.
    """

    game: GameMatrix
    eps: float = EPS
    variables: tuple[str, ...] = field(init=False, repr=False, compare=False)
    bounds: np.ndarray = field(init=False, repr=False, compare=False)
    rows: tuple[LinearRow, ...] = field(init=False, repr=False, compare=False)
    links: tuple[LinearRow, ...] = field(init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        """Pure strategies per player: the size of the game."""
        return self.game.m

    @property
    def xs(self) -> slice:
        """The columns of the strategy block x_0..x_{m-1}."""
        return slice(0, self.m)

    @property
    def ys(self) -> slice:
        """The columns of the binary block y_0..y_{m-1}."""
        return slice(self.m + 1, 2 * self.m + 1)

    def __post_init__(self) -> None:
        if not isinstance(self.game, GameMatrix):
            raise TypeError(f"expected GameMatrix, got {type(self.game).__name__}")
        if not self.game.is_normalized:
            raise ValueError("the model requires payoffs in [0, 1]; the big-M constants assume it")
        check_positive("eps", self.eps)
        names, bounds, rows, links = _big_m_system(self.game.payoffs, self.eps)
        bounds.setflags(write=False)
        for name, value in (("variables", tuple(names)), ("bounds", bounds), ("rows", tuple(rows)),
                            ("links", tuple(links))):
            object.__setattr__(self, name, value)


def linearization_error_bound(game: GameMatrix, k: int) -> float:
    """The paper's a-priori bound on |z - x' A x| for its piecewise-linear z at k segments.

    The paper writes z = sum_i a_ii x_i^2 + sum_{i<j} c_ij x_i x_j with
    c_ij = a_ij + a_ji and x_i x_j = ((x_i + x_j)^2 - (x_i - x_j)^2) / 4, and
    interpolates each square of an s in [lo, hi] over k uniform segments,
    which overshoots s^2 by at most h^2 / 4, h = (hi - lo) / k. x_i and
    x_i + x_j lie in [0, 1] and x_i - x_j in [-1, 1], so the weighted gaps sum
    to (sum_i |a_ii| + 1.25 sum_{i<j} |c_ij|) / (4 k^2). The model needs no
    such approximation (its links make z = x' A x exact); the bound describes
    the paper's formulation at the batch's constant ``BatchConfig.k``.
    """
    k = check_int("k", k, 2)
    a = game.payoffs
    pairs = np.abs(a + a.T)[np.triu_indices(game.m, 1)]
    return float((np.abs(np.diag(a)).sum() + 1.25 * pairs.sum()) / (4 * k * k))


def build_model(game: GameMatrix, eps: float = EPS) -> ModelIR:
    """The feasibility model of a normalized game: ``ModelIR(game, eps)``."""
    return ModelIR(game, eps)


def _big_m_system(
    a: np.ndarray, eps: float
) -> tuple[list[str], np.ndarray, list[LinearRow], list[LinearRow]]:
    """The column names, column bounds, rows and links of payoffs a in [0, 1].

    eps is the margin of both strict row families; every big-M constant is
    1 + eps, the smallest that deactivates a row for payoffs in [0, 1]. The
    column and row orders (the module docstring's layout) are deterministic,
    so exports are byte-stable.
    """
    m = a.shape[0]
    big = 1.0 + eps
    z = m

    names = [f"x_{i}" for i in range(m)] + ["z"] + [f"y_{j}" for j in range(m)]
    bounds = np.zeros((2 * m + 1, 2))
    bounds[:, 1] = 1.0
    bounds[z] = (-1.0, 2.0)

    rows: list[LinearRow] = []
    for j in range(m):
        row_j = {i: float(a[j, i]) for i in range(m)}
        col_j = {i: float(a[i, j]) for i in range(m)}
        yj = m + 1 + j

        # u1(j, x*) <= z - eps + M y_j   (y_j = 0: mutant strictly worse)
        rows.append(LinearRow({**row_j, z: -1.0, yj: -big}, "<=", -eps, name=f"strict_{j}"))

        # u1(j, x*) <= z + M (1 - y_j)    (y_j = 1: payoff tie, upper half)
        rows.append(LinearRow({**row_j, z: -1.0, yj: big}, "<=", big, name=f"tie_ub_{j}"))

        # z <= u1(j, x*) + M (1 - y_j)    (tie, lower half)
        c = {i: -v for i, v in row_j.items()}
        rows.append(LinearRow({**c, z: 1.0, yj: big}, "<=", big, name=f"tie_lb_{j}"))

        # u1(j, j) <= u1(x*, j) - eps + M (1 - y_j)   (self-play deficit)
        c = {i: -v for i, v in col_j.items()}
        rows.append(
            LinearRow({**c, yj: big}, "<=", big - eps - float(a[j, j]), name=f"selfplay_{j}")
        )

    rows.append(LinearRow({i: 1.0 for i in range(m)}, "=", 1.0, name="simplex"))
    # x_j <= y_j: a strategy off the pattern has no mass
    links = [LinearRow({j: 1.0, m + 1 + j: -1.0}, "<=", 0.0, name=f"link_{j}") for j in range(m)]
    return names, bounds, rows, links


def interpolation_assignment(model: ModelIR, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """The assignment at a given strategy: x, z at the exact quadratic x' A x, and y.

    Returns the column values in the model's layout. Used to certify
    feasibility constructively and by the solver to assemble candidate
    leaves. y defaults to all zeros. An x or y that is not one value per
    strategy raises ValueError.
    """
    m = model.m
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise ValueError(f"x has shape {x.shape}, the model has {m} strategies")
    values = np.zeros(len(model.variables))
    values[model.xs] = x
    values[m] = x @ model.game.payoffs @ x
    if y is not None:
        if np.shape(y) != (m,):
            raise ValueError(f"y has shape {np.shape(y)}, the model has {m} strategies")
        values[model.ys] = y
    return values


def verify_assignment(model: ModelIR, values: np.ndarray) -> list[str]:
    """Independent feasibility check of an assignment against the IR.

    ``values`` holds one value per column of the model, in its layout.
    Re-evaluates every bound, binary, row and link from scratch (no solver
    state involved) and returns human-readable violation descriptions; an empty
    list means the assignment is feasible. A ``values`` of the wrong length
    raises ValueError.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(model.variables),):
        raise ValueError(
            f"assignment has shape {values.shape}, the model has {len(model.variables)} columns"
        )
    values = values.tolist()  # Python floats: the same sums, and plain reprs in the messages
    violations: list[str] = []
    binary = range(len(values))[model.ys]
    for i, (name, value, (lb, ub)) in enumerate(zip(model.variables, values, model.bounds.tolist())):
        if value < lb - LIN_FEAS_TOL or value > ub + LIN_FEAS_TOL:
            violations.append(f"{name}={value!r} outside bounds [{lb}, {ub}]")
        if i in binary and min(abs(value), abs(value - 1.0)) > INT_TOL:
            violations.append(f"binary {name}={value!r} not integral")

    for row in model.rows + model.links:
        lhs = sum(coef * values[idx] for idx, coef in row.coeffs.items())
        resid = lhs - row.rhs
        ok = (
            resid <= LIN_FEAS_TOL
            if row.rel == "<="
            else (resid >= -LIN_FEAS_TOL if row.rel == ">=" else abs(resid) <= LIN_FEAS_TOL)
        )
        if not ok:
            violations.append(f"row {row.name} violated by {resid!r}")

    return violations


def export_lp(model: ModelIR) -> str:
    """Serialize the model, rows and links, as LP-format text.

    Includes an empty objective (pure feasibility) and the Subject To /
    Bounds / Binary sections. Output is deterministic for a given model.
    """

    def num(v: float) -> str:
        return repr(float(v))

    def term(coef: float, name: str, first: bool) -> str:
        sign = "-" if coef < 0 else ("" if first else "+")
        return f"{sign}{num(abs(coef))} {name}" if first else f"{sign} {num(abs(coef))} {name}"

    lines = ["Minimize", " obj:", "Subject To"]
    for ri, row in enumerate(model.rows + model.links):
        parts: list[str] = []
        for idx in sorted(row.coeffs):
            coef = row.coeffs[idx]
            if coef == 0.0:
                continue
            parts.append(term(coef, model.variables[idx], not parts))
        rname = row.name or f"c{ri}"
        lines.append(f" {rname}: {' '.join(parts)} {row.rel} {num(row.rhs)}")
    lines.append("Bounds")
    binary = range(len(model.variables))[model.ys]
    for i, (name, (lb, ub)) in enumerate(zip(model.variables, model.bounds.tolist())):
        if i not in binary:
            lines.append(f" {num(lb)} <= {name} <= {num(ub)}")
    lines.append("Binary")
    lines.append(" " + " ".join(model.variables[model.ys]))
    lines.append("End")
    return "\n".join(lines) + "\n"
