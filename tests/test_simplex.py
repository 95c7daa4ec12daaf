import dataclasses

import numpy as np
import pytest

from esspm import (
    GameMatrix,
    LinearRow,
    MixedEsspm,
    build_model,
    mutation_population,
    normalize,
    solve,
)
from esspm import simplex
from esspm.simplex import SolverError, lp_solve


def rows_satisfied(rows, x, tol=1e-7):
    for row in rows:
        lhs = sum(c * x[i] for i, c in row.coeffs.items())
        if row.rel == "<=" and lhs > row.rhs + tol:
            return False
        if row.rel == ">=" and lhs < row.rhs - tol:
            return False
        if row.rel == "=" and abs(lhs - row.rhs) > tol:
            return False
    return True


def feasible_point(rows, bounds):
    status, x, _ = lp_solve(rows, bounds)
    assert status == "feasible"
    return x


def is_infeasible(rows, bounds):
    status, x, _ = lp_solve(rows, bounds)
    return status == "infeasible" and x is None


def random_system(rng):
    """A random system of 1..5 rows of each relation over 2..6 bounded variables."""
    n = int(rng.integers(2, 7))
    n_rows = int(rng.integers(1, 6))
    bounds = np.column_stack([rng.uniform(-2, 0, n), rng.uniform(0.1, 2, n)])
    rows = []
    for _ in range(n_rows):
        coefs = rng.normal(size=n)
        rhs = float(rng.normal())
        rel = ["<=", ">=", "="][int(rng.integers(3))]
        rows.append(LinearRow({i: float(c) for i, c in enumerate(coefs)}, rel, rhs))
    return rows, bounds


def highs_feasible(rows, bounds) -> bool:
    """HiGHS's verdict; a test that asks for it is skipped when scipy is missing."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = len(bounds)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in rows:
        coefs = np.zeros(n)
        for i, c in row.coeffs.items():
            coefs[i] = c
        if row.rel == "<=":
            a_ub.append(coefs)
            b_ub.append(row.rhs)
        elif row.rel == ">=":
            a_ub.append(-coefs)
            b_ub.append(-row.rhs)
        else:
            a_eq.append(coefs)
            b_eq.append(row.rhs)
    ref = linprog(
        np.zeros(n),
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=np.asarray(bounds).tolist(),
        method="highs",
    )
    return ref.success


def random_status_agreement(seed=100, trials=120):
    """Feasible/infeasible verdicts of random small systems agree with HiGHS.

    Returns the number of feasible systems, each of whose points satisfies its rows.
    """
    rng = np.random.default_rng(seed)
    agree = 0
    for trial in range(trials):
        rows, bounds = random_system(rng)
        status, ours, _ = lp_solve(rows, bounds)
        assert (status == "feasible") == highs_feasible(rows, bounds), f"trial {trial}"
        if ours is not None:
            assert rows_satisfied(rows, ours)
            agree += 1
    return agree


def tightened(rng, bounds, state):
    """New bounds: a basic structural variable pinned, a bound tightened, or a variable fixed."""
    out = bounds.copy()
    n = len(bounds)
    basic = [int(j) for j in state.basis if j < n]
    kind = int(rng.integers(3))
    if kind == 0 and basic:
        j = basic[int(rng.integers(len(basic)))]
        out[j] = rng.uniform(out[j, 0], out[j, 1])
    elif kind == 1:
        j = int(rng.integers(n))
        cut = rng.uniform(0.2, 0.8) * (out[j, 1] - out[j, 0])
        if rng.random() < 0.5:
            out[j, 0] += cut
        else:
            out[j, 1] -= cut
    else:
        j = int(rng.integers(n))
        out[j] = out[j, int(rng.integers(2))]
    return out


def count_blank_starts(monkeypatch):
    """A list that grows by one for every blank state ``lp_solve`` makes for a cold attempt."""
    blanks = []
    real_init = simplex._BoundedSimplex.__init__

    def counted(self, system, b):
        blanks.append(system)
        real_init(self, system, b)

    monkeypatch.setattr(simplex._BoundedSimplex, "__init__", counted)
    return blanks


def warm_cold_agreement(monkeypatch, seed=200, trials=150, chain=3):
    """Warm restarts along chains of tightened bounds agree with cold solves and HiGHS.

    Returns the number of feasible warm solves, each of whose points meets
    its bounds and rows to 1e-7. No warm solve falls back to a blank start,
    and one that opens no row takes no pivot.
    """
    blanks = count_blank_starts(monkeypatch)

    def warm_solve(rows, bounds, state):
        before = len(blanks)
        result = lp_solve(rows, bounds, start=state)
        assert len(blanks) == before
        return result

    rng = np.random.default_rng(seed)
    warm_feasible = 0
    for trial in range(trials):
        rows, bounds = random_system(rng)
        result = lp_solve(rows, bounds)
        if result[0] != "feasible":
            assert result.state is None
            continue
        again = warm_solve(rows, bounds, result.state)
        assert again[0] == "feasible" and again[2] == 0, f"trial {trial}"
        state = result.state
        for step in range(chain):
            saved = [a.copy() for a in (state.T, state.xB, state.basis, state.at_upper)]
            new_bounds = tightened(rng, bounds, state)
            warm = warm_solve(rows, new_bounds, state)
            cold = lp_solve(rows, new_bounds)
            expected = "feasible" if highs_feasible(rows, new_bounds) else "infeasible"
            assert warm[0] == cold[0] == expected, f"trial {trial} step {step}"
            for a, b in zip(saved, (state.T, state.xB, state.basis, state.at_upper)):
                np.testing.assert_array_equal(a, b)  # siblings may share the start
            if warm[0] != "feasible":
                break
            x = warm[1]
            assert np.all(x >= new_bounds[:, 0] - 1e-7) and np.all(x <= new_bounds[:, 1] + 1e-7)
            assert rows_satisfied(rows, x)
            assert warm[2] == 0 or warm.state.cost.size > 0
            warm_feasible += 1
            state, bounds = warm.state, new_bounds
    return warm_feasible


class TestFeasibility:
    def test_simplex_face(self):
        rows = [LinearRow({0: 1.0, 1: 1.0}, "=", 1.0)]
        x = feasible_point(rows, [[0, 1], [0, 1]])
        assert x[0] + x[1] == pytest.approx(1.0, abs=1e-9)

    def test_overcommitted_sum_infeasible(self):
        rows = [
            LinearRow({0: 1.0}, ">=", 0.6),
            LinearRow({1: 1.0}, ">=", 0.6),
            LinearRow({0: 1.0, 1: 1.0}, "=", 1.0),
        ]
        assert is_infeasible(rows, [[0, 1], [0, 1]])

    def test_mp_root_relaxation_feasible(self):
        model = build_model(normalize(mutation_population()))
        rows = model.rows + model.links  # the exact model's root relaxation
        x = feasible_point(rows, model.bounds)
        assert rows_satisfied(rows, x)

    def test_upper_bounds_respected(self):
        rows = [LinearRow({0: 1.0, 1: 1.0}, ">=", 1.2)]
        x = feasible_point(rows, [[0, 1], [0, 0.4]])
        assert x[1] <= 0.4 + 1e-9
        assert x[0] + x[1] >= 1.2 - 1e-9

    def test_upper_bounds_make_it_infeasible(self):
        rows = [LinearRow({0: 1.0, 1: 1.0}, ">=", 1.5)]
        assert is_infeasible(rows, [[0, 1], [0, 0.4]])

    def test_fixed_variables(self):
        rows = [LinearRow({0: 1.0, 1: 1.0}, "=", 1.0)]
        x = feasible_point(rows, [[0.25, 0.25], [0, 1]])
        assert x[0] == pytest.approx(0.25)
        assert x[1] == pytest.approx(0.75, abs=1e-9)

    def test_negative_lower_bounds(self):
        rows = [LinearRow({0: 1.0, 1: 2.0}, "=", -1.0)]
        x = feasible_point(rows, [[-2, 2], [-2, 2]])
        assert x[0] + 2 * x[1] == pytest.approx(-1.0, abs=1e-9)


class TestAgainstScipy:
    def test_random_feasibility_status_agreement(self):
        # Sanity: the sample contains plenty of feasible systems.
        assert random_status_agreement() > 30


class TestWarmRestart:
    def test_warm_agrees_with_cold_and_highs(self, monkeypatch):
        assert warm_cold_agreement(monkeypatch) > 60

    def test_restart_opens_rows_and_pivots(self):
        rows = [LinearRow({0: 1.0, 1: 1.0}, "=", 1.0)]
        first = lp_solve(rows, [[0, 1], [0, 1]])
        assert first[0] == "feasible"
        basic = int(first.state.basis[0])
        pinned = np.array([[0.0, 1.0], [0.0, 1.0]])
        pinned[basic] = 0.25
        status, x, pivots = lp_solve(rows, pinned, start=first.state)
        assert status == "feasible" and pivots > 0
        np.testing.assert_allclose(x[basic], 0.25)
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        # A small excess opens its row too, and the point meets the new bound.
        pinned[basic] = first[1][basic] + 1e-6
        status, x, pivots = lp_solve(rows, pinned, start=first.state)
        assert status == "feasible" and pivots > 0
        assert x[basic] == pytest.approx(pinned[basic, 0], abs=1e-12)
        pinned[1 - basic] = 0.5
        assert lp_solve(rows, pinned, start=first.state)[:2] == ("infeasible", None)

    @pytest.mark.parametrize("fault", ["residual", "breakdown"])
    def test_broken_warm_solve_falls_back_to_cold(self, monkeypatch, fault):
        rows = [LinearRow({0: 1.0, 1: 2.0}, "<=", 1.5), LinearRow({0: 1.0, 1: 1.0}, ">=", 0.5)]
        first = lp_solve(rows, [[0, 1], [0, 1]])
        real_restarted = simplex._BoundedSimplex.restarted
        real_minimize = simplex._BoundedSimplex.minimize
        restarts = []

        def faulty(self, bounds):
            sx = real_restarted(self, bounds)
            if self is not first.state:
                return sx
            if fault == "residual":
                # The warm point is checked against shifted right-hand sides,
                # so it fails the row-residual check as a drifted tableau would.
                sx.system = dataclasses.replace(sx.system, b=sx.system.b + 1.0)
            restarts.append(sx)
            return sx

        def minimize(self, max_iter):
            if fault == "breakdown" and self in restarts:
                raise SolverError("vanishing pivot")
            return real_minimize(self, max_iter)

        monkeypatch.setattr(simplex._BoundedSimplex, "restarted", faulty)
        monkeypatch.setattr(simplex._BoundedSimplex, "minimize", minimize)
        blanks = count_blank_starts(monkeypatch)
        bounds = np.array([[0.0, 1.0], [0.25, 0.25]])
        status, x, _ = lp_solve(rows, bounds, start=first.state)
        assert len(restarts) == 1 and len(blanks) == 1
        assert blanks[0] is first.state.system  # the fallback reuses the start's rows
        assert status == "feasible"
        assert rows_satisfied(rows, x)
        assert x[1] == 0.25

    def test_every_phase_1_is_one_restart(self, monkeypatch):
        # Cold and warm alike, every LP with an uncrossed box enters phase 1
        # through exactly one restart.
        calls = []
        real_restarted = simplex._BoundedSimplex.restarted

        def spy(self, bounds):
            calls.append(self)
            return real_restarted(self, bounds)

        monkeypatch.setattr(simplex._BoundedSimplex, "restarted", spy)
        rng = np.random.default_rng(400)
        cold = warm = 0
        for _ in range(60):
            rows, bounds = random_system(rng)
            first = lp_solve(rows, bounds)
            assert len(calls) == 1
            cold += len(calls)
            calls.clear()
            if first[0] != "feasible":
                continue
            box = tightened(rng, bounds, first.state)
            lp_solve(rows, box, start=first.state)
            assert calls == [first.state]
            warm += len(calls)
            calls.clear()
        assert cold > 30 and warm > 15

    def test_failed_blank_attempt_pivots_are_counted(self, monkeypatch):
        rows = [LinearRow({0: 1.0, 1: 2.0}, "<=", 1.5), LinearRow({0: 1.0, 1: 1.0}, ">=", 0.5)]
        box = [[0.6, 1.0], [0.0, 1.0]]
        clean = lp_solve(rows, box)
        assert clean[0] == "feasible" and clean[2] > 0
        real_minimize = simplex._BoundedSimplex.minimize
        attempts = []

        def minimize(self, max_iter):
            mass = real_minimize(self, max_iter)
            attempts.append(self.iterations)
            if len(attempts) == 1:
                raise SolverError("vanishing pivot")  # after the first blank's pivots
            return mass

        monkeypatch.setattr(simplex._BoundedSimplex, "minimize", minimize)
        status, x, iterations = lp_solve(rows, box)
        assert status == "feasible" and rows_satisfied(rows, x)
        assert len(attempts) == 2 and attempts[0] == clean[2]
        assert iterations == sum(attempts)


class TestRowColumns:
    """Rows are checked against the structural columns, and a restart against its start's rows."""

    @pytest.mark.parametrize("col", [2, 7, -1])
    def test_column_outside_the_structural_columns_rejected(self, col):
        # Column 2 is the first slack slot, 7 lies past the tableau, and -1
        # would index from the end.
        rows = [LinearRow({0: 1.0, col: 1.0}, "<=", 1.0), LinearRow({0: 1.0, 1: 1.0}, "=", 1.0)]
        with pytest.raises(ValueError, match=rf"row 0 .*column {col}"):
            lp_solve(rows, [[0, 1], [0, 1]])

    def test_nan_right_hand_side_rejected(self):
        rows = [LinearRow({0: 1.0, 1: 1.0}, "=", 1.0), LinearRow({0: 1.0}, "<=", np.nan, name="cap")]
        with pytest.raises(ValueError, match=r"row 1 \(cap\) has a non-finite"):
            lp_solve(rows, [[0, 1], [0, 1]])

    @pytest.mark.parametrize("coef", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficient_rejected(self, coef):
        rows = [LinearRow({0: 1.0, 1: coef}, ">=", 0.5), LinearRow({0: 1.0, 1: 1.0}, "=", 1.0)]
        with pytest.raises(ValueError, match=r"row 0 \(unnamed\) has a non-finite"):
            lp_solve(rows, [[0, 1], [0, 1]])

    def test_rows_checked_before_a_crossed_box(self):
        rows = [LinearRow({0: 1.0}, "<=", np.nan, name="cap"), LinearRow({0: 1.0, 1: 1.0}, "=", 1.0)]
        with pytest.raises(ValueError, match=r"row 0 \(cap\) has a non-finite"):
            lp_solve(rows, [[0.8, 0.2], [0, 1]])

    def test_restart_on_other_rows_rejected(self):
        rows = [LinearRow({0: 1.0, 1: 1.0}, "=", 1.0)]
        start = lp_solve(rows, [[0, 1], [0, 1]]).state
        with pytest.raises(ValueError, match="same rows"):
            lp_solve([LinearRow({0: 1.0}, ">=", 5.0)], [[0, 10], [0, 10]], start=start)
        with pytest.raises(ValueError, match="same rows"):
            lp_solve(list(rows), [[0, 1], [0, 1]], start=start)  # an equal copy is not the list


class TestBoundsBox:
    """The box is checked once on entry, on the cold and the warm path alike."""

    rows = [LinearRow({0: 1.0, 1: 1.0}, "=", 1.0)]

    @pytest.fixture(params=["cold", "warm"])
    def start(self, request):
        return None if request.param == "cold" else lp_solve(self.rows, [[0, 1], [0, 1]]).state

    def test_crossed_box_is_infeasible(self, start):
        assert lp_solve(self.rows, [[0.8, 0.2], [0, 1]], start=start)[:] == ("infeasible", None, 0)

    def test_nan_bound_rejected(self, start):
        with pytest.raises(ValueError, match="NaN"):
            lp_solve(self.rows, [[0, np.nan], [0, 1]], start=start)

    def test_infinite_lower_bound_rejected(self, start):
        with pytest.raises(ValueError, match="finite"):
            lp_solve(self.rows, [[-np.inf, 1], [0, 1]], start=start)

    def test_box_shape_rejected(self, start):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            lp_solve(self.rows, [[0, 1, 2], [0, 1, 2]], start=start)

    def test_box_size_must_match_start(self):
        start = lp_solve(self.rows, [[0, 1], [0, 1]]).state
        with pytest.raises(ValueError, match="structural columns"):
            lp_solve(self.rows, [[0, 1], [0, 1], [0, 1]], start=start)


class TestPhase1Tolerance:
    """Phase 1 calls an LP infeasible exactly when its artificial mass ends above ``_FEAS_SUM_TOL``."""

    def test_unmeetable_box_infeasible_cold_and_warm(self):
        rows = [LinearRow({0: 1.0, 1: 1.0}, "=", 1.0), LinearRow({0: 1.0, 1: -1.0}, ">=", 0.0)]
        first = lp_solve(rows, [[0, 1], [0, 1]])
        assert first[0] == "feasible"
        box = np.array([[0.0, 0.3], [0.0, 0.6]])  # x0 + x1 reaches 0.9 at most
        for start in (None, first.state):
            status, x, _ = lp_solve(rows, box, start=start)
            assert status == "infeasible" and x is None

    def test_gap_against_the_tolerance(self):
        # x0 + x1 reaches 1 at most, so the row misses by the gap.
        box = [[0.0, 0.5], [0.0, 0.5]]
        for gap, status in [(0.5, "feasible"), (2.0, "infeasible")]:
            rows = [LinearRow({0: 1.0, 1: 1.0}, ">=", 1.0 + gap * simplex._FEAS_SUM_TOL)]
            assert lp_solve(rows, box)[0] == status, gap


class TestBlandRule:
    """Bland's smallest-index rule, forced on every pivot by a negative stall limit."""

    @pytest.fixture
    def bland_calls(self, monkeypatch):
        monkeypatch.setattr(simplex, "_STALL_LIMIT", -1)
        calls = []
        real_entering = simplex._BoundedSimplex._entering

        def spy(self, r, bland):
            calls.append(bland)
            return real_entering(self, r, bland)

        monkeypatch.setattr(simplex._BoundedSimplex, "_entering", spy)
        return calls

    def test_smallest_eligible_index_enters(self):
        system = simplex._standardize([LinearRow({0: 1.0, 1: 1.0, 2: 1.0}, "=", 1.0)], 3)
        sx = simplex._BoundedSimplex(system, system.b).restarted(np.array([[0.0, 1.0]] * 3))
        # Column 0 does not improve and column 3, the artificial, is basic.
        r = np.array([0.0, -1e-3, -5.0, -2.0])
        assert sx._entering(r, bland=True) == 1
        assert sx._entering(r, bland=False) == 2

    def test_random_feasibility_status_agreement(self, bland_calls):
        assert random_status_agreement() > 30
        assert bland_calls and all(bland_calls)

    def test_warm_agrees_with_cold_and_highs(self, monkeypatch, bland_calls):
        assert warm_cold_agreement(monkeypatch) > 60
        assert bland_calls and all(bland_calls)

    def test_mutation_population_milp(self, bland_calls):
        norm = normalize(mutation_population())
        res = solve(build_model(norm))
        assert isinstance(res.outcome, MixedEsspm)
        np.testing.assert_allclose(res.outcome.strategy.probs, [0.2, 0.8], atol=1e-12)
        assert bland_calls and all(bland_calls)


class TestRatioTest:
    """``_ratio_test(j, col_eff)``: how far column j may move, and which row leaves.

    ``state`` solves x0 + x1 = 1, x0 - x1 <= 0.5 on [0, 1]^2 and restarts the
    result under a box that keeps its point: x1 = 0.25 is basic in row 0 and
    x0 = 0.75 in row 1, so the later row holds the smaller basic index, and
    column 2, the slack, has an unbounded range.
    """

    rows = [LinearRow({0: 1.0, 1: 1.0}, "=", 1.0), LinearRow({0: 1.0, 1: -1.0}, "<=", 0.5)]

    def state(self, box=((0.0, 1.0), (0.0, 1.0))):
        sx = lp_solve(self.rows, [[0, 1], [0, 1]]).state.restarted(np.array(box))
        assert [int(k) for k in sx.basis] == [1, 0] and sx.cost.size == 0
        return sx

    def test_tie_goes_to_the_smaller_basic_index(self):
        sx = self.state()
        x = sx.values()
        # Row 0 (basic x1) stops at 1, row 1 (basic x0) 4e-13 later: a tie.
        t, row = sx._ratio_test(2, np.array([x[1], x[0] / (1.0 + 4e-13)]))
        assert (t, row) == (1.0, 1)
        # 2e-12 later is past the tie window, so row 0 leaves.
        t, row = sx._ratio_test(2, np.array([x[1], x[0] / (1.0 + 2e-12)]))
        assert (t, row) == (1.0, 0)

    def test_short_own_range_flips_the_bound(self):
        box = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        rows = [LinearRow({0: 1.0, 1: 1.0, 2: 1.0}, "=", 1.0), LinearRow({1: 1.0, 2: 2.0}, "=", 0.8)]
        sx = lp_solve(rows, box).state.restarted(box)
        assert [int(k) for k in sx.basis] == [0, 2]  # x1 is nonbasic with a range of 1
        x = sx.values()
        assert sx._ratio_test(1, np.array([0.1, 0.1]) * x[[0, 2]]) == (1.0, None)
        # A row limit equal to the own range still flips the bound.
        assert sx._ratio_test(1, x[[0, 2]].copy()) == (1.0, None)
        t, row = sx._ratio_test(1, 2.0 * x[[0, 2]])
        assert t == pytest.approx(0.5) and row == 0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tiny_entry_never_blocks(self, sign):
        # x1 sits at the bound its entry moves it toward, so the row would stop
        # a step of 0 if its entry counted.
        box = ((0.0, 1.0), (0.25, 1.0)) if sign > 0 else ((0.0, 1.0), (0.0, 0.25))
        sx = self.state(box)
        x0 = sx.values()[0]
        t, row = sx._ratio_test(2, np.array([sign * simplex._PIV_TOL, x0]))
        assert (t, row) == (1.0, 1)
        assert sx._ratio_test(2, np.array([sign * 2.0 * simplex._PIV_TOL, x0])) == (0.0, 0)

    def test_matches_the_array_formula(self, monkeypatch):
        # Every ratio test of random cold and warm solves and of MILPs on
        # {0, 1, 2} games, whose degenerate vertices tie often, gives the
        # answer of the whole-array formula: the same step and row.
        def reference(sx, j, col_eff):
            limits = np.full(sx.m, np.inf)
            target = np.where(col_eff > 0.0, sx.lowerB, sx.upperB)
            np.divide(sx.xB - target, col_eff, out=limits, where=np.abs(col_eff) > simplex._PIV_TOL)
            t_rows = max(float(limits.min()), 0.0) if sx.m else np.inf
            t_own = sx.upper[j] - sx.lower[j]
            if t_own <= t_rows:
                return t_own, None
            tied = (limits <= t_rows + 1e-12).nonzero()[0]
            return t_rows, int(tied[np.asarray(sx.basis)[tied].argmin()]), tied.size

        calls = ties = 0
        real = simplex._BoundedSimplex._ratio_test

        def checked(self, j, col_eff):
            nonlocal calls, ties
            got, want = real(self, j, col_eff), reference(self, j, col_eff)
            assert got == want[:2]
            calls += 1
            ties += len(want) == 3 and want[2] > 1
            return got

        monkeypatch.setattr(simplex._BoundedSimplex, "_ratio_test", checked)
        warm_cold_agreement(monkeypatch, trials=60)
        rng = np.random.default_rng(5)
        for _ in range(10):
            payoffs = rng.integers(0, 3, (4, 4)).astype(float)
            if payoffs.max() > payoffs.min():
                solve(build_model(normalize(GameMatrix(payoffs))))
        assert calls > 800 and ties > 50

    def test_no_finite_step_is_unbounded(self, monkeypatch):
        sx = self.state()
        assert sx._ratio_test(2, np.zeros(2)) == (np.inf, None)
        monkeypatch.setattr(simplex._BoundedSimplex, "_ratio_test", lambda self, j, col: (np.inf, None))
        with pytest.raises(SolverError, match="LP relaxation is unbounded"):
            lp_solve(self.rows, [[0, 1], [0, 1]])


class TestDegeneracy:
    def test_iteration_cap_raises(self, monkeypatch):
        # A pivot rule that never reaches an optimum: column 0 always enters
        # and flips between its bounds with a zero step. The cap of 2000 + 40
        # (rows + tableau columns) stops phase 1, and the perturbed retry as well.
        monkeypatch.setattr(simplex._BoundedSimplex, "_entering", lambda self, r, bland: 0)
        monkeypatch.setattr(simplex._BoundedSimplex, "_ratio_test", lambda self, j, col: (0.0, None))
        rows = [LinearRow({0: 1.0, 1: 1.0}, "=", 1.0)]
        with pytest.raises(SolverError, match="iteration limit 2160 exceeded"):
            lp_solve(rows, [[0, 1], [0, 1]])
