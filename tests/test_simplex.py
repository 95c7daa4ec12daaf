import numpy as np
import pytest
from scipy.optimize import linprog

from esspm import (
    BuildParams,
    LinearRow,
    SolveStatus,
    build_model,
    extract_strategy,
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


def random_status_agreement(seed=100, trials=120):
    """Feasible/infeasible verdicts of random small systems agree with HiGHS.

    Returns the number of feasible systems, each of whose points satisfies its rows.
    """
    rng = np.random.default_rng(seed)
    agree = 0
    for trial in range(trials):
        n = int(rng.integers(2, 7))
        n_rows = int(rng.integers(1, 6))
        bounds = np.column_stack([rng.uniform(-2, 0, n), rng.uniform(0.1, 2, n)])
        rows = []
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for _ in range(n_rows):
            coefs = rng.normal(size=n)
            rhs = float(rng.normal())
            rel = ["<=", ">=", "="][int(rng.integers(3))]
            rows.append(LinearRow({i: float(c) for i, c in enumerate(coefs)}, rel, rhs))
            if rel == "<=":
                a_ub.append(coefs)
                b_ub.append(rhs)
            elif rel == ">=":
                a_ub.append(-coefs)
                b_ub.append(-rhs)
            else:
                a_eq.append(coefs)
                b_eq.append(rhs)
        ref = linprog(
            np.zeros(n),
            A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds.tolist(),
            method="highs",
        )
        status, ours, _ = lp_solve(rows, bounds)
        assert (status == "feasible") == ref.success, f"trial {trial}"
        if ours is not None:
            assert rows_satisfied(rows, ours)
            agree += 1
    return agree


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
        model = build_model(normalize(mutation_population()), BuildParams(k=20))
        x = feasible_point(model.rows, model.bounds_array())
        assert rows_satisfied(model.rows, x)

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
        sx = simplex._BoundedSimplex(np.ones((1, 3)), np.ones(1), np.zeros(3), np.ones(3))
        # Column 0 does not improve and column 3, the artificial, is basic.
        r = np.array([0.0, -1e-3, -5.0, -2.0])
        assert sx._entering(r, bland=True) == 1
        assert sx._entering(r, bland=False) == 2

    def test_random_feasibility_status_agreement(self, bland_calls):
        assert random_status_agreement() > 30
        assert bland_calls and all(bland_calls)

    def test_mutation_population_milp(self, bland_calls):
        norm = normalize(mutation_population())
        res = solve(build_model(norm, BuildParams(k=20)))
        assert res.status is SolveStatus.FEASIBLE
        np.testing.assert_allclose(extract_strategy(res, norm.m).probs, [0.2, 0.8], atol=1e-12)
        assert bland_calls and all(bland_calls)


class TestDegeneracy:
    def test_iteration_cap_raises(self):
        rows = [LinearRow({0: 1.0, 1: 1.0}, "=", 1.0)]
        with pytest.raises(SolverError, match="iteration limit"):
            lp_solve(rows, [[0, 1], [0, 1]], max_iter=0)
