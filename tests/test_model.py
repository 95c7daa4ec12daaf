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
    SquareTerm,
    build_model,
    cancer_game,
    chicken,
    export_lp,
    linearization_error_bound,
    linearize,
    mutation_population,
    normalize,
    random_cancer_params,
    solve,
    uniform_random,
    verify_assignment,
)
from esspm.cli import cli_main
from esspm.model import (
    ModelIR,
    interpolation_assignment,
    secant_gap_bound,
    secant_square_value,
)

MP_NORM = normalize(mutation_population())


def full_model(game, k=20):
    return linearize(build_model(game), k)


def random_simplex(rng, m):
    raw = rng.random(m)
    return raw / raw.sum()


def corridor(model):
    """The z corridor half-widths: the right-hand sides of z_lower and z_upper."""
    rhs = {row.name: row.rhs for row in model.rows}
    return rhs["z_lower"], rhs["z_upper"]


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

    def test_rejects_small_k(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            linearize(build_model(MP_NORM), 1)

    def test_export_lp_rejects_small_k(self, tmp_path, capsys):
        out = tmp_path / "mp.lp"
        assert cli_main(["export-lp", "--class", "mp", "--k", "1", "--out", str(out)]) == 2
        assert "k must be >= 2" in capsys.readouterr().err
        assert not out.exists()

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
        "linearize": lambda k: export_lp(linearize(build_model(MP_NORM), k)),
        "linearization_error_bound": lambda k: linearization_error_bound(MP_NORM, k),
        "secant_gap_bound": lambda k: secant_gap_bound(0.0, 1.0, k),
        "secant_square_value": lambda k: secant_square_value(0.5, 0.0, 1.0, k),
        "BatchConfig": lambda k: BatchConfig(k=k),
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
    def test_m2_k20(self):
        model = full_model(MP_NORM, 20)
        assert list(model.variables[model.ys]) == ["y_0", "y_1"]
        assert len(model.variables[model.ys]) == 2
        big_m_rows = [r for r in model.rows if r.name.split("_")[0] in ("strict", "tie", "selfplay")]
        assert len(big_m_rows) == 8
        assert sum(1 for r in model.rows if r.name == "simplex") == 1
        assert len(model.sos2_sets) == 4  # 2 diagonal squares + plus/minus pair
        lams = [name for name in model.variables if name.startswith("lam_")]
        assert len(lams) == 84  # 4 squares, 21 lambdas each
        assert all(len(s) == 21 for s in model.sos2_sets)

    def test_m3_k10(self):
        g = normalize(uniform_random(3, seed=1))
        model = full_model(g, 10)
        assert list(model.variables[model.ys]) == ["y_0", "y_1", "y_2"]
        big_m_rows = [r for r in model.rows if r.name.split("_")[0] in ("strict", "tie", "selfplay")]
        assert len(big_m_rows) == 12
        assert len(model.sos2_sets) == 9  # 3 diagonal + 2 * C(3,2) separable squares
        assert all(len(s) == 11 for s in model.sos2_sets)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized|\\[0, 1\\]"):
            build_model(mutation_population())


class TestBranchSemantics:
    """y = 0 activates the strict row; y = 1 activates the tie and self-play rows."""

    def test_exact_solution_feasible_on_tie_branch(self):
        model = full_model(MP_NORM, 20)
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

    def test_sos2_violation_named(self):
        model = full_model(MP_NORM, 4)
        assignment = interpolation_assignment(model, np.array([0.2, 0.8]), np.array([1.0, 1.0]))
        lam = model.sos2_sets[0]
        assert [pos for pos, idx in enumerate(lam) if assignment[idx] != 0.0] == [0, 1]
        assignment[lam[3]] = 0.1  # a third nonzero, not adjacent to the other two
        assert "sos2 set 0 has nonzeros at positions [0, 1, 3]" in verify_assignment(model, assignment)

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
        for model in (build_model(MP_NORM), full_model(MP_NORM, 4)):
            with pytest.raises(ValueError, match=message):
                interpolation_assignment(model, x, y)

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


class TestSecantInterpolation:
    def test_breakpoint_is_exact(self):
        assert secant_square_value(0.5, 0.0, 1.0, 2) == pytest.approx(0.25, abs=1e-15)

    def test_midpoint_gap_is_quarter_h_squared(self):
        k = 10
        h = 1.0 / k
        s = 3 * h + h / 2.0
        gap = secant_square_value(s, 0.0, 1.0, k) - s * s
        assert gap == pytest.approx(h * h / 4.0, abs=1e-15)

    def test_gap_bounds_hold_everywhere(self):
        rng = np.random.default_rng(21)
        for lo, hi, k in ((0.0, 1.0, 20), (-1.0, 1.0, 20), (0.0, 1.0, 7)):
            bound = secant_gap_bound(lo, hi, k)
            for s in rng.uniform(lo, hi, 2000):
                gap = secant_square_value(float(s), lo, hi, k) - s * s
                assert -1e-12 <= gap <= bound + 1e-12

    def test_point_outside_the_grid_is_refused(self):
        with pytest.raises(ValueError, match=r"s=1.5 outside \[0.0, 1.0\]"):
            secant_square_value(1.5, 0.0, 1.0, 4)

    def test_refinement_quarters_the_gap(self):
        for k in (5, 10, 20, 40):
            assert secant_gap_bound(0.0, 1.0, 2 * k) == pytest.approx(
                secant_gap_bound(0.0, 1.0, k) / 4.0
            )


class TestLinearization:
    def test_interpolated_assignment_feasible_at_any_point(self):
        # Exact solutions with interpolated lambdas must satisfy the whole
        # subsystem, including the z corridor, at any simplex point.
        rng = np.random.default_rng(8)
        for m, k in ((2, 20), (3, 10), (4, 6)):
            game = normalize(GameMatrix(rng.random((m, m))))
            model = full_model(game, k)
            for _ in range(10):
                x = random_simplex(rng, m)
                assignment = interpolation_assignment(model, x)
                violations = [
                    v
                    for v in verify_assignment(model, assignment)
                    if "strict" not in v and "tie" not in v and "selfplay" not in v
                ]
                assert violations == []

    def test_z_tracks_quadratic_within_bound(self):
        # Sampled feasible points keep |z - x'Ax| within m^2 h^2 max|a| / 4.
        rng = np.random.default_rng(9)
        for m, k in ((2, 20), (3, 10)):
            game = normalize(GameMatrix(rng.random((m, m))))
            model = full_model(game, k)
            h = 1.0 / k
            bound = m * m * h * h * float(np.abs(game.payoffs).max()) / 4.0
            combo_bound = sum(corridor(model))
            for _ in range(20):
                x = random_simplex(rng, m)
                assignment = interpolation_assignment(model, x)
                z = assignment[m]
                true = float(x @ game.payoffs @ x)
                assert abs(z - true) <= min(bound, combo_bound) + 1e-12

    def test_error_bound_helper_matches_model(self):
        games = [MP_NORM] + [normalize(uniform_random(m, seed=m)) for m in range(2, 6)]
        for game in games:
            for k in (2, 5, 20):
                model = full_model(game, k)
                assert linearization_error_bound(game, k) == sum(corridor(model))


class TestExportLp:
    def test_binary_section(self):
        text = export_lp(full_model(MP_NORM, 20))
        lines = text.splitlines()
        bi = lines.index("Binary")
        assert lines[bi + 1].strip() == "y_0 y_1"

    def test_sos_section_format(self):
        text = export_lp(full_model(MP_NORM, 3))
        sos_lines = [l for l in text.splitlines() if ": S2 ::" in l]
        assert len(sos_lines) == 4
        assert sos_lines[0].strip().startswith("s0: S2 :: lam_diag_0_0:1 lam_diag_0_1:2")

    def test_deterministic_bytes(self):
        a = export_lp(full_model(MP_NORM, 20))
        b = export_lp(full_model(MP_NORM, 20))
        assert a == b

    def test_sections_present(self):
        text = export_lp(full_model(MP_NORM, 5))
        for section in ("Subject To", "Bounds", "Binary", "SOS", "End"):
            assert section in text

    def test_golden_bytes(self):
        # sha256 of the full lambda model's export, taken when build_model
        # still built that model itself; linearize must reproduce it.
        golden = {
            "mp": "6f118ea86afeada6a146b5604a420d71920284e387a7e73732405689e7f8b273",
            "u3": "b998ce7081fc25555652b274e7456f10bc449bf88f04cf3eb61ca3c3fab21fa5",
        }
        games = {"mp": MP_NORM, "u3": normalize(uniform_random(3, seed=1))}
        for name, game in games.items():
            text = export_lp(full_model(game, 3))
            assert hashlib.sha256(text.encode()).hexdigest() == golden[name], name

        # A cancer, a uniform m=5 and a chicken game at a coarse, a middle
        # and a fine grid.
        golden_k = {
            ("cancer0", 2): "b639c7eedcd2dccb0daab5537d8253c139adfd5680e926dd6d8961b109b050f1",
            ("cancer0", 7): "5602a4de57b1de8b11c8ad0f4582188f4cd2a585e79885f13a56cd21af1f857c",
            ("cancer0", 20): "bcedf7b2cb13b7b31f446419d61ec8bae81909d514c1f9b72991be75537811c3",
            ("u5", 2): "d0516c2c29b2f7fa41f6bda92a4dacfefebb03b231c76982bc88e3fa649af3b6",
            ("u5", 7): "ad1bc853b1778bfbc23aee1ae829cdb17f035565adc1be40f33c9d7da0ae0248",
            ("u5", 20): "2ea45e12722c53da76f48065e5068860591fd0eae72628fd47d2dcf4e816f62d",
            ("chicken2", 2): "c76599ef8e2ffd4caabc6c0cd0cdecbfa448022a6892ade4afcd8f5571e53b0a",
            ("chicken2", 7): "9e78cf9ced0107cc567665d24eb44398109939bc384daa03bb4f0c32452fc0e2",
            ("chicken2", 20): "64934cb78c4dd808d1e1144332dc19e5204a91a1118cff67eba26f923cf05a3d",
        }
        games = {
            "cancer0": normalize(cancer_game(random_cancer_params(0))),
            "u5": normalize(uniform_random(5, seed=3)),
            "chicken2": normalize(chicken(2)),
        }
        for (name, k), digest in golden_k.items():
            text = export_lp(full_model(games[name], k))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, k)


class TestLayout:
    """build_model gives the x/z/y system; linearize appends the lambda system after it."""

    def test_build_model_is_the_x_z_y_system(self):
        for m in range(2, 6):
            model = build_model(normalize(uniform_random(m, seed=m)))
            names = list(model.variables)
            assert names == [f"x_{i}" for i in range(m)] + ["z"] + [f"y_{j}" for j in range(m)]
            assert len(model.rows) == 4 * m + 1
            assert model.rows[-1].name == "simplex"
            assert model.sos2_sets == () and model.squares == ()
            assert not {"z_lower", "z_upper"} & {row.name for row in model.rows}

    def test_linearize_appends_after_y(self):
        model = build_model(normalize(uniform_random(3, seed=2)))
        full = linearize(model, 4)
        assert len(model.variables) == 7 and len(model.rows) == 13  # input untouched
        assert full.variables[:7] == model.variables
        assert (full.bounds[:7] == model.bounds).all()
        assert full.rows[:13] == model.rows
        assert min(i for lam in full.sos2_sets for i in lam) > 7
        assert all(full.variables[lam[0] - 1] == f"q_{sq.name}" for sq, lam in zip(full.squares, full.sos2_sets))
        assert sum(corridor(full)) == linearization_error_bound(model.game, 4)

    def test_bounds_pin_the_layout(self):
        model = build_model(MP_NORM)
        assert model.bounds.tolist() == [[0.0, 1.0]] * 2 + [[-1.0, 2.0]] + [[0.0, 1.0]] * 2
        assert model.bounds[model.ys].tolist() == [[0.0, 1.0]] * 2
        full = linearize(model, 4)
        # After the x/z/y columns, each of the four squares has a q in [0, 1]
        # (s ranges over [0, 1] or [-1, 1]) and then its five lambdas in [0, 1].
        assert full.bounds.tolist() == model.bounds.tolist() + [[0.0, 1.0]] * (4 * 6)
        g = normalize(uniform_random(3, seed=2))
        for built in (build_model(g), linearize(build_model(g), 3)):
            assert built.bounds.shape == (len(built.variables), 2)
            for sq, lam in zip(built.squares, built.sos2_sets):
                assert built.bounds[lam[0] - 1].tolist() == [0.0, max(sq.lo**2, sq.hi**2)]
                assert built.bounds[list(lam)].tolist() == [[0.0, 1.0]] * len(lam)

    def test_bounds_are_read_only_and_a_solve_leaves_them(self):
        for model in (build_model(MP_NORM), linearize(build_model(MP_NORM), 5)):
            before = model.bounds.copy()
            with pytest.raises(ValueError, match="read-only"):
                model.bounds[model.ys] = 1.0
            assert isinstance(solve(model).outcome, MixedEsspm)
            assert np.array_equal(model.bounds, before)

    def test_xs_slices_the_strategy_block(self):
        for m in range(2, 6):
            model = build_model(normalize(uniform_random(m, seed=m)))
            for built in (model, linearize(model, 3)):
                assert built.variables[built.xs] == tuple(f"x_{i}" for i in range(m))
                x = np.full(m, 1.0 / m)
                assert interpolation_assignment(built, x)[built.xs].tobytes() == x.tobytes()

    def test_size_is_that_of_the_payoffs(self):
        # m is read from the game, and a replaced game rebuilds the model at its size.
        model = build_model(MP_NORM)
        assert model.m == 2
        model = dataclasses.replace(model, game=normalize(uniform_random(3, seed=1)))
        assert model.m == 3
        assert (len(model.variables), len(model.rows)) == (7, 13)


class TestDerivedModel:
    """A model is built from its game, eps and k alone, and is frozen."""

    def test_init_fields_are_game_eps_and_k(self):
        assert [f.name for f in dataclasses.fields(ModelIR) if f.init] == ["game", "eps", "k"]
        assert [f.name for f in dataclasses.fields(ModelIR) if f.compare] == ["game", "eps", "k"]

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

    def test_replaced_k_rebuilds_the_lambda_system(self):
        model = linearize(build_model(MP_NORM), 3)
        assert export_lp(dataclasses.replace(model, k=5)) == export_lp(linearize(build_model(MP_NORM), 5))
        assert export_lp(dataclasses.replace(model, k=None)) == export_lp(build_model(MP_NORM))

    def test_fields_cannot_be_assigned(self):
        model = build_model(MP_NORM)
        for name, value in (("eps", 1e-3), ("game", normalize(uniform_random(2, seed=3))), ("rows", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, value)
        assert model.eps == 1e-5 and isinstance(solve(model).outcome, MixedEsspm)

    @pytest.mark.parametrize("name", ["variables", "bounds", "rows", "sos2_sets", "squares"])
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
        assert a != build_model(MP_NORM, 1e-3) and a != linearize(a, 3)
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
        row, term = LinearRow(coeffs, "=", 1.0), SquareTerm("plus_0_1", coeffs, 0.25, 0.0, 1.0)
        coeffs[0] = 0.0
        assert row.coeffs == term.coeffs == {0: 1.0, 1: 1.0}
        for square in linearize(build_model(MP_NORM), 3).squares:
            with pytest.raises(TypeError):
                square.coeffs[0] = 0.0
