"""Mixed-integer linear feasibility model for mixed stability candidates.

The candidate x* must satisfy, for every pure strategy x, either a strict
payoff deficit against the population or a payoff tie combined with a strict
self-play deficit. A binary y_x selects the branch via big-M rows over the
population self-payoff z = x*' A x*.

A ``ModelIR`` is built from its payoffs, eps and k alone. With k None it is
this x/z/y system in a fixed layout: columns x_0..x_{m-1}, then z at m, then
y_0..y_{m-1} at m+1..2m; rows the four big-M rows per pure strategy, then the
probability simplex row. The branch-and-bound search runs on exactly this
system, and its leaves check z = x*' A x* exactly.

A k adds the paper's linearization of z over k breakpoint segments
(``linearize``), for ``export_lp`` and the tests; the search never reads k. Every
product x_i * x_j is written with the squares (x_i + x_j)^2 and
(x_i - x_j)^2, and each square is approximated piecewise linearly with an
SOS2 lambda system over a uniform grid of k + 1 breakpoints. A secant through two grid
points lies above the parabola by at most h^2 / 4 on a grid of spacing h,
and never below it. The model therefore ties z to the lambda system with a
two-sided corridor whose widths are the exact per-term secant-error bounds,
instead of pinning z to the secant value. The corridor keeps every game
whose exact solution sits between grid points feasible (pinning z would cut
those solutions off) and guarantees |z - x*' A x*| stays within the
advertised linearization bound for any feasible assignment.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .game import GameMatrix

__all__ = [
    "Variable",
    "LinearRow",
    "SquareTerm",
    "ModelIR",
    "build_model",
    "linearize",
    "export_lp",
    "verify_assignment",
    "secant_square_value",
    "secant_gap_bound",
    "linearization_error_bound",
]

EPS = 1e-5  # the default strictness margin of the big-M rows
LIN_FEAS_TOL = 1e-7
INT_TOL = 1e-6  # a binary within this of 0 or 1 is integral, in the verify and the search
SOS_NONZERO_TOL = 1e-7


def check_eps(eps: float) -> None:
    """Refuse a strictness margin that is not positive and finite."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive and finite, got {eps}")


def check_k(k: int) -> int:
    """k as an int, refused unless it is an integer of at least 2 breakpoint segments."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < 2:
        raise ValueError(f"breakpoint count k must be >= 2, got {k}")
    return k


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float
    ub: float
    binary: bool = False


@dataclass(frozen=True)
class LinearRow:
    """coeffs . vars <rel> rhs with rel one of '<=', '=', '>='."""

    coeffs: dict[int, float]
    rel: str
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.rel not in ("<=", "=", ">="):
            raise ValueError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class SquareTerm:
    """One linearized square q ~= s^2, s = sum coeffs[i] * x_i over the x columns.

    s is x_i, x_i + x_j or x_i - x_j and ranges over [lo, hi] on the simplex;
    weight is the coefficient of q in the z corridor rows. ``name`` tags the
    term's columns and rows in the linearized model.
    """

    name: str
    coeffs: dict[int, float]
    weight: float
    lo: float
    hi: float


@dataclass(frozen=True)
class ModelIR:
    """Solver-agnostic feasibility program, built from its three inputs.

    ``payoffs`` is the normalized matrix of the quadratic form z stands for
    and ``eps`` the strictness margin of the big-M rows, so a solver can
    verify candidates against the original quadratic constraints at the
    model's own margin. ``k`` is None, or the breakpoint count of
    ``linearize``. The model keeps a read-only copy of ``payoffs`` and
    refuses one that is not square or not in [0, 1], as the big-M constants
    assume, and a bad ``eps`` or ``k``. The other fields are built from these
    three, so they can be neither passed nor assigned, and
    ``dataclasses.replace`` rebuilds them. Rows reference variables by index
    into ``variables``. ``sos2_sets`` are ordered lambda-index tuples (at
    most two members nonzero, and adjacent) and ``squares`` the square-term
    records, one per SOS2 set and in the same order; both are empty when k
    is None.
    """

    payoffs: np.ndarray
    eps: float = EPS
    k: int | None = None
    variables: tuple[Variable, ...] = field(init=False, repr=False)
    rows: tuple[LinearRow, ...] = field(init=False, repr=False)
    sos2_sets: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    squares: tuple[SquareTerm, ...] = field(init=False, repr=False)

    @property
    def m(self) -> int:
        """Pure strategies per player: the size of ``payoffs``."""
        return self.payoffs.shape[0]

    def __post_init__(self) -> None:
        a = np.array(self.payoffs, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"payoffs must be a square matrix, got shape {a.shape}")
        if not (a.min() >= 0.0 and a.max() <= 1.0):
            raise ValueError("the model requires payoffs in [0, 1]; the big-M constants assume it")
        check_eps(self.eps)
        a.setflags(write=False)
        variables, rows = _big_m_system(a, self.eps)
        sos2_sets, squares = (), ()
        if self.k is not None:
            object.__setattr__(self, "k", check_k(self.k))
            sos2_sets, squares = _lambda_system(a, self.k, variables, rows)
        for name, value in (("payoffs", a), ("variables", tuple(variables)), ("rows", tuple(rows)),
                            ("sos2_sets", sos2_sets), ("squares", squares)):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelIR):
            return NotImplemented
        return (self.eps, self.k) == (other.eps, other.k) and bool(np.array_equal(self.payoffs, other.payoffs))

    def __hash__(self) -> int:
        return hash((self.eps, self.k, (self.payoffs + 0.0).tobytes()))  # -0.0 hashes as 0.0

    def bounds_array(self) -> np.ndarray:
        return np.array([[v.lb, v.ub] for v in self.variables])


def secant_square_value(s: float, lo: float, hi: float, k: int) -> float:
    """Value at s of the piecewise-linear interpolant of t^2 on a uniform grid."""
    t = np.linspace(lo, hi, check_k(k) + 1)
    if not lo <= s <= hi:
        raise ValueError(f"s={s} outside [{lo}, {hi}]")
    return float(_interp_lambdas(s, t) @ t**2)


def secant_gap_bound(lo: float, hi: float, k: int) -> float:
    """Worst overestimate of the secant interpolant of t^2: h^2/4 at segment midpoints."""
    h = (hi - lo) / check_k(k)
    return h * h / 4.0


def _interp_lambdas(s: float, breakpoints: np.ndarray) -> np.ndarray:
    """SOS2-feasible lambda weights reproducing s on the grid (two adjacent nonzero)."""
    t = breakpoints
    k = t.size - 1
    r = min(int(np.searchsorted(t, s, side="right")) - 1, k - 1)
    r = max(r, 0)
    lam = np.zeros(t.size)
    w = (s - t[r]) / (t[r + 1] - t[r])
    lam[r] = 1.0 - w
    lam[r + 1] = w
    return lam


def _square_terms(payoffs: np.ndarray) -> list[SquareTerm]:
    """The square terms of z = x' A x, in their canonical order.

    z = sum_i a_ii x_i^2 + sum_{i<j} (a_ij + a_ji) x_i x_j, and each product is
    ((x_i + x_j)^2 - (x_i - x_j)^2) / 4. Simplex membership bounds x_i + x_j in
    [0, 1] and x_i - x_j in [-1, 1].
    """
    m = payoffs.shape[0]
    terms = [SquareTerm(f"diag_{i}", {i: 1.0}, float(payoffs[i, i]), 0.0, 1.0) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            c = float(payoffs[i, j] + payoffs[j, i])
            terms.append(SquareTerm(f"plus_{i}_{j}", {i: 1.0, j: 1.0}, c / 4.0, 0.0, 1.0))
            terms.append(SquareTerm(f"minus_{i}_{j}", {i: 1.0, j: -1.0}, -c / 4.0, -1.0, 1.0))
    return terms


def _envelope(terms: list[SquareTerm], k: int) -> tuple[float, float]:
    """Corridor half-widths (env_plus, env_minus) of the square terms at k segments.

    env_plus sums the secant-gap bounds of the positively weighted squares,
    where the secant combination overshoots x' A x; env_minus those of the
    negatively weighted ones, where it undershoots.
    """
    env_plus = env_minus = 0.0
    for sq in terms:
        gap = sq.weight * secant_gap_bound(sq.lo, sq.hi, k)
        if gap > 0.0:
            env_plus += gap
        else:
            env_minus -= gap
    return env_plus, env_minus


def linearization_error_bound(game_or_payoffs, k: int) -> float:
    """A-priori bound on |z - x' A x| over feasible assignments at k segments."""
    a = game_or_payoffs.payoffs if isinstance(game_or_payoffs, GameMatrix) else np.asarray(game_or_payoffs)
    env_plus, env_minus = _envelope(_square_terms(a), check_k(k))
    return env_plus + env_minus


def build_model(game: GameMatrix, eps: float = EPS) -> ModelIR:
    """The x/z/y feasibility model of a normalized game: ``ModelIR(game.payoffs, eps)``."""
    return ModelIR(game.payoffs, eps)


def _big_m_system(a: np.ndarray, eps: float) -> tuple[list[Variable], list[LinearRow]]:
    """The columns and rows of the x/z/y system of payoffs a in [0, 1].

    eps is the margin of both strict row families; every big-M constant is
    1 + eps, the smallest that deactivates a row for payoffs in [0, 1]. The
    column and row orders (the module docstring's layout) are deterministic,
    so exports are byte-stable; ``linearize`` appends after them.
    """
    m = a.shape[0]
    big = 1.0 + eps
    z = m

    variables = [Variable(f"x_{i}", 0.0, 1.0) for i in range(m)]
    variables.append(Variable("z", -1.0, 2.0))
    variables.extend(Variable(f"y_{j}", 0.0, 1.0, binary=True) for j in range(m))

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
    return variables, rows


def linearize(model: ModelIR, k: int) -> ModelIR:
    """The model with the lambda/SOS2 system at k: ``ModelIR(model.payoffs, model.eps, k)``.

    k is the number of breakpoint segments per square term (k+1 grid points
    t_0..t_k, uniform on [lo, hi]). Each term adds a q column and then its
    k+1 lambda columns after y, which form one SOS2 set, and the rows
    lamsum (sum lam_r = 1), link (sum lam_r t_r = s) and qdef
    (q = sum lam_r t_r^2); the z_upper and z_lower corridor rows come last.
    A linearized model is linearized afresh at the new k.

    These rows hold at any simplex point x with z = x' A x, q and lambdas
    from ``interpolation_assignment``, and any binary y:
      - Lambda rows. Each s lies inside its grid [lo, hi]. The interpolated
        lambdas put 1 - w and w, w in [0, 1], on the two ends
        t_r <= s <= t_r+1 of one segment, so lamsum, link, qdef and SOS2
        adjacency hold by construction, and q lies in [0, max(lo^2, hi^2)].
      - Corridor. q - s^2 = w (1 - w) h^2 is the secant overshoot, in
        [0, h^2/4]. The weighted squares sum to x' A x exactly, so
        z - sum weight * q = -sum weight * (q - s^2). The z_upper row bounds
        this from above by its right-hand side, the sum of |weight| h^2/4
        over the negative weights, and the z_lower row from below by minus
        its right-hand side, the same sum over the positive weights, so both
        corridor rows hold.
    So a leaf that meets the x/z/y rows also meets the linearized model; the
    test suite checks this on a fuzzed deck.
    """
    return ModelIR(model.payoffs, model.eps, k)


def _lambda_system(a: np.ndarray, k: int, variables: list[Variable], rows: list[LinearRow]):
    """Append ``linearize``'s columns and rows at k segments; return (sos2_sets, squares)."""
    m = a.shape[0]
    sos2: list[tuple[int, ...]] = []
    squares = _square_terms(a)
    up, down = {m: 1.0}, {m: -1.0}
    for sq in squares:
        t = np.linspace(sq.lo, sq.hi, k + 1)
        q = len(variables)
        lam = tuple(range(q + 1, q + k + 2))
        variables.append(Variable(f"q_{sq.name}", 0.0, max(sq.lo * sq.lo, sq.hi * sq.hi)))
        variables.extend(Variable(f"lam_{sq.name}_{r}", 0.0, 1.0) for r in range(k + 1))
        sos2.append(lam)
        rows.append(LinearRow(dict.fromkeys(lam, 1.0), "=", 1.0, name=f"lamsum_{sq.name}"))
        link = {li: float(tr) for li, tr in zip(lam, t)}
        link.update({xi: -coef for xi, coef in sq.coeffs.items()})
        rows.append(LinearRow(link, "=", 0.0, name=f"link_{sq.name}"))
        qdef = {li: -float(tr**2) for li, tr in zip(lam, t)}
        qdef[q] = 1.0
        rows.append(LinearRow(qdef, "=", 0.0, name=f"qdef_{sq.name}"))
        up[q] = -sq.weight
        down[q] = sq.weight
    env_plus, env_minus = _envelope(squares, k)
    rows.append(LinearRow(up, "<=", env_minus, name="z_upper"))
    rows.append(LinearRow(down, "<=", env_plus, name="z_lower"))
    return tuple(sos2), tuple(squares)


def interpolation_assignment(model: ModelIR, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Assignment at a given strategy: z at the true quadratic, and on a
    linearized model secant lambdas and q values.

    Returns the column values in the model's layout (x, z, y, then the q and
    lambda columns of each square term). Used to certify feasibility
    constructively and by the solver to assemble candidate leaves. y defaults
    to all zeros.
    """
    m = model.m
    x = np.asarray(x, dtype=float)
    values = np.zeros(len(model.variables))
    values[:m] = x
    values[m] = x @ model.payoffs @ x
    if y is not None:
        values[m + 1 : 2 * m + 1] = y
    for sq, lam in zip(model.squares, model.sos2_sets):
        t = np.linspace(sq.lo, sq.hi, len(lam))
        w = _interp_lambdas(sum(coef * x[i] for i, coef in sq.coeffs.items()), t)
        values[list(lam)] = w
        values[lam[0] - 1] = w @ t**2  # q sits just before its lambdas
    return values


def verify_assignment(model: ModelIR, values: np.ndarray) -> list[str]:
    """Independent feasibility check of an assignment against the IR.

    ``values`` holds one value per column of the model, in its layout.
    Re-evaluates every bound, row, binary, and SOS2 set from scratch (no solver
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
    for i, v in enumerate(model.variables):
        if values[i] < v.lb - LIN_FEAS_TOL or values[i] > v.ub + LIN_FEAS_TOL:
            violations.append(
                f"{v.name}={values[i]!r} outside bounds [{v.lb}, {v.ub}]"
            )
        if v.binary and min(abs(values[i]), abs(values[i] - 1.0)) > INT_TOL:
            violations.append(f"binary {v.name}={values[i]!r} not integral")

    for row in model.rows:
        lhs = sum(coef * values[idx] for idx, coef in row.coeffs.items())
        resid = lhs - row.rhs
        ok = (
            resid <= LIN_FEAS_TOL
            if row.rel == "<="
            else (resid >= -LIN_FEAS_TOL if row.rel == ">=" else abs(resid) <= LIN_FEAS_TOL)
        )
        if not ok:
            violations.append(f"row {row.name} violated by {resid!r}")

    for si, lam_idx in enumerate(model.sos2_sets):
        nz = [pos for pos, idx in enumerate(lam_idx) if abs(values[idx]) > SOS_NONZERO_TOL]
        if len(nz) > 2 or (len(nz) == 2 and nz[1] - nz[0] != 1):
            violations.append(f"sos2 set {si} has nonzeros at positions {nz}")

    return violations


def export_lp(model: ModelIR) -> str:
    """Serialize the model as LP-format text.

    Includes an empty objective (pure feasibility), Subject To / Bounds /
    Binary / SOS sections, and SOS2 weights equal to 1-based breakpoint
    ordinals. Output is deterministic for a given model.
    """

    def num(v: float) -> str:
        return repr(float(v))

    def term(coef: float, name: str, first: bool) -> str:
        sign = "-" if coef < 0 else ("" if first else "+")
        return f"{sign}{num(abs(coef))} {name}" if first else f" {sign} {num(abs(coef))} {name}"

    lines = ["Minimize", " obj:", "Subject To"]
    for ri, row in enumerate(model.rows):
        parts: list[str] = []
        for idx in sorted(row.coeffs):
            coef = row.coeffs[idx]
            if coef == 0.0:
                continue
            parts.append(term(coef, model.variables[idx].name, not parts))
        rname = row.name or f"c{ri}"
        lines.append(f" {rname}: {' '.join(parts)} {row.rel} {num(row.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.binary:
            continue
        lines.append(f" {num(v.lb)} <= {v.name} <= {num(v.ub)}")
    lines.append("Binary")
    lines.append(" " + " ".join(v.name for v in model.variables if v.binary))
    lines.append("SOS")
    for si, lam_idx in enumerate(model.sos2_sets):
        members = " ".join(
            f"{model.variables[idx].name}:{pos + 1}" for pos, idx in enumerate(lam_idx)
        )
        lines.append(f" s{si}: S2 :: {members}")
    lines.append("End")
    return "\n".join(lines) + "\n"
