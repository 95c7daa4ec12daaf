import dataclasses
import hashlib
import re

import numpy as np
import pytest

from esspm import model as model_module
from esspm import (
    BatchConfig,
    GameMatrix,
    LinearRow,
    MixedEsspm,
    build_model,
    cancer_game,
    chicken,
    export_lp,
    linearization_error_bound,
    mutation_population,
    normalize,
    random_cancer_params,
    solve,
    uniform_random,
    verify_assignment,
)
from esspm.model import ModelIR, interpolation_assignment

MP_NORM = normalize(mutation_population())


class TestModelParameters:
    def test_defaults(self):
        eps = 1e-5
        model = build_model(MP_NORM)
        assert model.eps == eps
        for j in range(model.m):
            yj = model.m + 1 + j
            rows = {r.name: r for r in model.rows if r.name.endswith(f"_{j}") and yj in r.coeffs}
            assert set(rows) == {f"strict_{j}", f"tie_ub_{j}", f"tie_lb_{j}", f"selfplay_{j}"}
            assert rows[f"strict_{j}"].rhs == -eps
            assert all(abs(r.coeffs[yj]) == 1.0 + eps for r in rows.values())

    def test_one_eps_default(self):
        assert model_module.EPS == 1e-5
        assert ModelIR(MP_NORM).eps is build_model(MP_NORM).eps is BatchConfig().eps is model_module.EPS

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            build_model(MP_NORM, eps=0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            build_model(MP_NORM, eps=eps)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -1.0])
    def test_model_refuses_a_bad_eps(self, eps):
        # The model owns eps: a replaced one is checked as a built one is.
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            dataclasses.replace(build_model(MP_NORM), eps=eps)

    def test_model_refuses_non_square_payoffs(self):
        # Only a GameMatrix, which checks its own shape, reaches the model.
        for a in (np.zeros((2, 3)), np.zeros(2), np.full((2, 2), 0.5)):
            with pytest.raises(TypeError, match="expected GameMatrix, got ndarray"):
                ModelIR(a)
            with pytest.raises(TypeError, match="expected GameMatrix, got ndarray"):
                dataclasses.replace(build_model(MP_NORM), game=a)
        with pytest.raises(ValueError, match=r"must be square, got shape \(2, 3\)"):
            GameMatrix(np.zeros((2, 3)))

    K_USERS = {
        "linearization_error_bound": lambda k: linearization_error_bound(MP_NORM, k),
    }

    @pytest.mark.parametrize("user", K_USERS)
    @pytest.mark.parametrize("k", [0, 1, -1, 2.5])
    def test_k_is_checked_by_every_user(self, user, k):
        with pytest.raises(ValueError, match="k must be"):
            self.K_USERS[user](k)

    def test_every_user_refuses_k_in_one_message(self):
        messages = set()
        for user in self.K_USERS.values():
            with pytest.raises(ValueError) as info:
                user(1)
            messages.add(str(info.value))
        assert messages == {"k must be >= 2, got 1"}

    @pytest.mark.parametrize("user", K_USERS)
    def test_numpy_integer_k_is_accepted(self, user):
        assert self.K_USERS[user](np.int64(3)) == self.K_USERS[user](3)


class TestModelCounts:
    def test_m2(self):
        model = build_model(MP_NORM)
        assert list(model.variables[model.ys]) == ["y_0", "y_1"]
        assert len(model.variables) == 5
        big_m_rows = [r for r in model.rows if r.name.split("_")[0] in ("strict", "tie", "selfplay")]
        assert len(big_m_rows) == 8
        assert sum(1 for r in model.rows if r.name == "simplex") == 1
        assert [r.name for r in model.links] == ["link_0", "link_1"]

    def test_m3(self):
        g = normalize(uniform_random(3, seed=1))
        model = build_model(g)
        assert list(model.variables[model.ys]) == ["y_0", "y_1", "y_2"]
        big_m_rows = [r for r in model.rows if r.name.split("_")[0] in ("strict", "tie", "selfplay")]
        assert len(big_m_rows) == 12
        assert len(model.links) == 3

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized|\\[0, 1\\]"):
            build_model(mutation_population())


class TestBranchSemantics:
    """y = 0 activates the strict row; y = 1 activates the tie and self-play rows."""

    def test_exact_solution_feasible_on_tie_branch(self):
        model = build_model(MP_NORM)
        assignment = interpolation_assignment(model, np.array([0.2, 0.8]), np.array([1.0, 1.0]))
        assert verify_assignment(model, assignment) == []

    def test_strict_branch_rejects_the_tie_point(self):
        # With y = 0 the strict rows demand a margin the tie point lacks.
        model = build_model(MP_NORM)
        assignment = interpolation_assignment(model, np.array([0.2, 0.8]), np.array([0.0, 0.0]))
        violations = verify_assignment(model, assignment)
        assert any("strict_" in v for v in violations)

    def test_tie_branch_rejects_off_tie_point(self):
        model = build_model(MP_NORM)
        assignment = interpolation_assignment(model, np.array([0.5, 0.5]), np.array([1.0, 1.0]))
        violations = verify_assignment(model, assignment)
        assert any("tie_" in v for v in violations)

    def test_bound_violation_named(self):
        model = build_model(MP_NORM)
        assignment = interpolation_assignment(model, np.array([0.2, 0.8]), np.array([1.0, 1.0]))
        assignment[0] = -0.5
        violations = verify_assignment(model, assignment)
        assert any(v.startswith("x_0=-0.5 outside bounds") for v in violations)

    def test_fractional_binary_named(self):
        model = build_model(MP_NORM)
        assignment = interpolation_assignment(model, np.array([0.2, 0.8]), np.array([1.0, 0.5]))
        violations = verify_assignment(model, assignment)
        assert "binary y_1=0.5 not integral" in violations

    def test_link_violation_named(self):
        # Mass on a strategy whose y is 0 breaks its link row x_1 - y_1 <= 0.
        model = build_model(MP_NORM)
        assignment = interpolation_assignment(model, np.array([0.2, 0.8]), np.array([1.0, 0.0]))
        violations = verify_assignment(model, assignment)
        assert "row link_1 violated by 0.8" in violations
        assert not any("link_0" in v for v in violations)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_length_rejected(self, extra):
        model = build_model(MP_NORM)
        values = interpolation_assignment(model, np.array([0.2, 0.8]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="columns"):
            verify_assignment(model, np.resize(values, len(values) + extra))

    @pytest.mark.parametrize(
        "x, y, name, shape",
        [
            ([0.2, 0.8], [1.0], "y", (1,)),
            ([0.2, 0.8], 1.0, "y", ()),
            ([0.2, 0.8], [1.0, 1.0, 1.0], "y", (3,)),
            ([0.2, 0.8], [[1.0, 1.0]], "y", (1, 2)),
            ([1.0], [1.0, 1.0], "x", (1,)),
            ([0.2, 0.3, 0.5], None, "x", (3,)),
            (0.5, None, "x", ()),
            ([[0.2, 0.8]], None, "x", (1, 2)),
        ],
        ids=["y-short", "y-scalar", "y-long", "y-2d", "x-short", "x-long", "x-scalar", "x-2d"],
    )
    def test_wrong_shape_input_refused(self, x, y, name, shape):
        # A short y was broadcast over the whole y block; a wrong x failed inside numpy.
        message = rf"^{name} has shape {re.escape(str(shape))}, the model has 2 strategies$"
        with pytest.raises(ValueError, match=message):
            interpolation_assignment(build_model(MP_NORM), x, y)

    def test_big_m_deactivates_rows_at_simplex_vertices(self):
        # With the branch indicator at its deactivating value, every big-M row
        # must hold at every pure strategy (big-M validity on [0, 1] payoffs).
        rng = np.random.default_rng(5)
        for m in (2, 3):
            game = normalize(GameMatrix(rng.random((m, m))))
            model = build_model(game)
            a = game.payoffs
            for i in range(m):
                x = np.zeros(m)
                x[i] = 1.0
                for j in range(m):
                    for name, y in (
                        (f"strict_{j}", 1.0),
                        (f"tie_ub_{j}", 0.0),
                        (f"tie_lb_{j}", 0.0),
                        (f"selfplay_{j}", 0.0),
                    ):
                        row = next(r for r in model.rows if r.name == name)
                        values = {idx: 0.0 for idx in range(len(model.variables))}
                        values.update(enumerate(x))
                        values[m] = float(x @ a @ x)
                        values[m + 1 + j] = y
                        lhs = sum(c * values[idx] for idx, c in row.coeffs.items())
                        assert lhs <= row.rhs + 1e-12, (name, i, j)


class TestErrorBound:
    """``linearization_error_bound`` sums the paper's per-term interpolation gaps in closed form."""

    @staticmethod
    def per_term(a, k):
        # z = sum_i a_ii x_i^2 + sum_{i<j} c_ij ((x_i + x_j)^2 - (x_i - x_j)^2) / 4;
        # a square of an s in [lo, hi] interpolated over k segments overshoots by h^2/4.
        def gap(lo, hi):
            h = (hi - lo) / k
            return h * h / 4.0

        m = len(a)
        total = sum(abs(a[i, i]) * gap(0.0, 1.0) for i in range(m))
        for i in range(m):
            for j in range(i + 1, m):
                c = a[i, j] + a[j, i]
                total += abs(c / 4.0) * gap(0.0, 1.0) + abs(-c / 4.0) * gap(-1.0, 1.0)
        return total

    def test_closed_form_matches_the_per_term_sum(self):
        rng = np.random.default_rng(36)
        games = [MP_NORM, normalize(chicken(2)), normalize(cancer_game(random_cancer_params(0)))]
        sizes, seeds = rng.integers(2, 13, 40), rng.integers(0, 10**6, 40)
        games += [normalize(uniform_random(int(m), seed=int(s))) for m, s in zip(sizes, seeds)]
        integer = [rng.integers(0, 3, (m, m)).astype(float) for m in (2, 3, 5, 8) for _ in range(5)]
        games += [normalize(GameMatrix(a)) for a in integer]
        for game in games:
            for k in (2, 3, 7, 20, 1000):
                expected = self.per_term(game.payoffs, k)
                assert linearization_error_bound(game, k) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_mp_value_and_refinement(self):
        # mp normalizes to [[3/7, 1/7], [1, 0]]: (3/7 + 1.25 * 8/7) / 1600 = 1.16e-3 at k = 20.
        expected = (3 / 7 + 1.25 * 8 / 7) / 1600
        assert linearization_error_bound(MP_NORM, 20) == pytest.approx(expected, rel=1e-15)
        for k in (5, 10, 20, 40):
            coarse = linearization_error_bound(MP_NORM, k)
            assert linearization_error_bound(MP_NORM, 2 * k) == pytest.approx(coarse / 4)


class TestExportLp:
    def test_binary_section(self):
        lines = export_lp(build_model(MP_NORM)).splitlines()
        bi = lines.index("Binary")
        assert lines[bi + 1 :] == [" y_0 y_1", "End"]

    def test_link_rows_format(self):
        lines = export_lp(build_model(normalize(uniform_random(3, seed=1)))).splitlines()
        links = [line for line in lines if line.startswith(" link_")]
        assert links == [f" link_{j}: 1.0 x_{j} - 1.0 y_{j} <= 0.0" for j in range(3)]
        assert lines.index(links[-1]) + 1 == lines.index("Bounds")

    def test_deterministic_bytes(self):
        a = export_lp(build_model(MP_NORM))
        b = export_lp(build_model(MP_NORM))
        assert a == b

    def test_sections_present(self):
        text = export_lp(build_model(MP_NORM))
        lines = text.splitlines()
        for section in ("Subject To", "Bounds", "Binary", "End"):
            assert section in lines
        assert not any("SOS" in line or "S2" in line for line in lines)

    def test_golden_bytes(self):
        # sha256 of the exact model's export: the x/z/y rows, then the links.
        golden = {
            "mp": "3438dada309870d920d9c9b7b62668a7a50c52c12806531c86fe9e85a2077501",
            "u3": "b77798b0a0b005d415c07272f3c0706aaabd4fbf78dc3dd704893cd6b4af895e",
            "cancer0": "5fc3edccec8490b5097ebcb36f6a674f758ac54cffd9e44e38106756a3e640b9",
            "u5": "d59364667891879facee9089f3c206384f9b074a46cb40ab1e7bc917ea69ddbe",
            "chicken2": "b5e2b9a2aa83d0515355e55957ad3d7459ecc2991c409bb2bfe31e324d605461",
        }
        games = {
            "mp": MP_NORM,
            "u3": normalize(uniform_random(3, seed=1)),
            "cancer0": normalize(cancer_game(random_cancer_params(0))),
            "u5": normalize(uniform_random(5, seed=3)),
            "chicken2": normalize(chicken(2)),
        }
        for name, game in games.items():
            text = export_lp(build_model(game))
            assert hashlib.sha256(text.encode()).hexdigest() == golden[name], name


class TestLayout:
    """build_model gives the x/z/y rows and, as a field of their own, the m link rows."""

    def test_build_model_is_the_x_z_y_system(self):
        for m in range(2, 6):
            model = build_model(normalize(uniform_random(m, seed=m)))
            names = list(model.variables)
            assert names == [f"x_{i}" for i in range(m)] + ["z"] + [f"y_{j}" for j in range(m)]
            assert len(model.rows) == 4 * m + 1
            assert model.rows[-1].name == "simplex"
            assert not any(row.name.startswith("link_") for row in model.rows)

    def test_links_tie_each_strategy_to_its_binary(self):
        model = build_model(normalize(uniform_random(3, seed=2)))
        assert model.links == tuple(
            LinearRow({j: 1.0, 4 + j: -1.0}, "<=", 0.0, name=f"link_{j}") for j in range(3)
        )
        for row in model.links:
            (x, y) = (model.variables[i] for i in sorted(row.coeffs))
            assert (x[2:], y[2:]) == (row.name[5:], row.name[5:])

    def test_bounds_pin_the_layout(self):
        model = build_model(MP_NORM)
        assert model.bounds.tolist() == [[0.0, 1.0]] * 2 + [[-1.0, 2.0]] + [[0.0, 1.0]] * 2
        assert model.bounds[model.ys].tolist() == [[0.0, 1.0]] * 2
        built = build_model(normalize(uniform_random(3, seed=2)))
        assert built.bounds.shape == (len(built.variables), 2) == (7, 2)

    def test_bounds_are_read_only_and_a_solve_leaves_them(self):
        model = build_model(MP_NORM)
        before = model.bounds.copy()
        with pytest.raises(ValueError, match="read-only"):
            model.bounds[model.ys] = 1.0
        assert isinstance(solve(model).outcome, MixedEsspm)
        assert np.array_equal(model.bounds, before)

    def test_xs_slices_the_strategy_block(self):
        for m in range(2, 6):
            model = build_model(normalize(uniform_random(m, seed=m)))
            assert model.variables[model.xs] == tuple(f"x_{i}" for i in range(m))
            x = np.full(m, 1.0 / m)
            assert interpolation_assignment(model, x)[model.xs].tobytes() == x.tobytes()

    def test_size_is_that_of_the_payoffs(self):
        # m is read from the game, and a replaced game rebuilds the model at its size.
        model = build_model(MP_NORM)
        assert model.m == 2
        model = dataclasses.replace(model, game=normalize(uniform_random(3, seed=1)))
        assert model.m == 3
        assert (len(model.variables), len(model.rows)) == (7, 13)


class TestDerivedModel:
    """A model is built from its game and eps alone, and is frozen."""

    def test_init_fields_are_game_and_eps(self):
        assert [f.name for f in dataclasses.fields(ModelIR) if f.init] == ["game", "eps"]
        assert [f.name for f in dataclasses.fields(ModelIR) if f.compare] == ["game", "eps"]

    def test_replaced_eps_rebuilds_the_rows(self):
        # Built at 1e-3 and replaced to 1e-5, the model answers as one built at 1e-5.
        g = normalize(uniform_random(3, seed=44))
        replaced = dataclasses.replace(build_model(g, 1e-3), eps=1e-5)
        assert replaced.rows == build_model(g, 1e-5).rows
        assert isinstance(solve(replaced).outcome, MixedEsspm)
        assert isinstance(solve(build_model(g, 1e-5)).outcome, MixedEsspm)

    def test_replaced_payoffs_rebuild_the_rows(self):
        g = normalize(uniform_random(3, seed=2))
        replaced = dataclasses.replace(build_model(normalize(uniform_random(3, seed=1))), game=g)
        built = build_model(g)
        assert replaced.rows == built.rows and replaced.variables == built.variables
        assert replaced.links == built.links and len(built.links) == 3

    def test_fields_cannot_be_assigned(self):
        model = build_model(MP_NORM)
        for name, value in (("eps", 1e-3), ("game", normalize(uniform_random(2, seed=3))), ("rows", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, value)
        assert model.eps == 1e-5 and isinstance(solve(model).outcome, MixedEsspm)

    @pytest.mark.parametrize("name", ["variables", "bounds", "rows", "links"])
    def test_built_fields_cannot_be_replaced(self, name):
        with pytest.raises(ValueError, match=f"{name} is declared with init=False"):
            dataclasses.replace(build_model(MP_NORM), **{name: ()})

    @pytest.mark.parametrize("low, high", [(-0.5, 1.0), (0.0, 2.0)])
    def test_replaced_payoffs_outside_the_unit_interval_are_refused(self, low, high):
        game = GameMatrix(np.array([[low, 0.5], [0.5, high]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            dataclasses.replace(build_model(MP_NORM), game=game)

    def test_models_of_equal_inputs_are_equal(self):
        a, b = build_model(MP_NORM), build_model(normalize(mutation_population()))
        assert a == b and hash(a) == hash(b)
        assert a != build_model(MP_NORM, 1e-3)
        assert a != build_model(normalize(uniform_random(2, seed=3)))
        signed = MP_NORM.payoffs.copy()
        signed[signed == 0.0] = -0.0
        assert ModelIR(GameMatrix(signed)) == a and hash(ModelIR(GameMatrix(signed))) == hash(a)

    def test_payoffs_are_a_read_only_copy(self):
        # The game holds the copy; the model keeps the game itself.
        a = np.array([[0.6, 0.2], [1.0, 0.0]])
        model = ModelIR(GameMatrix(a))
        a[0, 0] = 0.0
        assert model.game.payoffs[0, 0] == 0.6
        assert not model.game.payoffs.flags.writeable
        assert build_model(MP_NORM).game is MP_NORM

    def test_row_coefficients_cannot_be_edited(self):
        # Through writable maps this edit would turn the FEASIBLE Dove/Hawk model INFEASIBLE.
        model = build_model(MP_NORM)
        with pytest.raises(TypeError):
            model.rows[0].coeffs[3] = 0.0
        with pytest.raises(TypeError):
            model.rows[4].coeffs[4] = 0.0
        assert isinstance(solve(model).outcome, MixedEsspm)

    def test_row_refuses_an_unknown_relation(self):
        with pytest.raises(ValueError, match="unknown relation '<'"):
            LinearRow({0: 1.0}, "<", 0.0)

    def test_coefficient_maps_are_private_copies(self):
        coeffs = {0: 1.0, 1: 1.0}
        row = LinearRow(coeffs, "=", 1.0)
        coeffs[0] = 0.0
        assert row.coeffs == {0: 1.0, 1: 1.0}
        for link in build_model(MP_NORM).links:
            with pytest.raises(TypeError):
                link.coeffs[0] = 0.0
