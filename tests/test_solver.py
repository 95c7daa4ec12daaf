import types

import numpy as np
import pytest

from esspm import (
    BatchConfig,
    GameMatrix,
    LinearRow,
    MixedEsspm,
    SolveLimits,
    SolveStatus,
    SolverError,
    Tolerances,
    approximation_error,
    build_model,
    cancer_game,
    check_conditions,
    chicken,
    enumerate_esspm,
    extract_strategy,
    find_pure_esspm,
    linearize,
    mutation_population,
    normalize,
    random_cancer_params,
    rock_paper_scissors,
    solve,
    solve_record,
    solve_support,
    uniform_random,
    verify_assignment,
)
from esspm.model import interpolation_assignment, linearization_error_bound
from esspm.enumeration import _solve_ties
from esspm.solver import SolveResult, SolveStats, _attempt_pattern, _propagate, _spared_masks


def solve_game(game, eps=1e-5):
    norm = normalize(game)
    model = build_model(norm, eps)
    return norm, model, solve(model)


def full_violations(model, res, k=20):
    """A FEASIBLE result's x and y, interpolated into the model linearized at k, checked against all of it."""
    full = linearize(model, k)
    m = model.m
    x, y = res.assignment[:m], res.assignment[m + 1 : 2 * m + 1]
    return verify_assignment(full, interpolation_assignment(full, x, y))


class TestKnownGames:
    def test_mp_recovers_the_mixed_solution(self):
        norm, model, res = solve_game(mutation_population())
        assert res.status is SolveStatus.FEASIBLE
        strat = extract_strategy(res, 2)
        assert np.max(np.abs(strat.probs - np.array([0.2, 0.8]))) <= 0.01
        assert approximation_error(norm, strat) <= 1e-3

    def test_rps_is_infeasible(self):
        # Oracle first: exhaustive support enumeration finds nothing, so the
        # model must exhaust its tree and agree.
        norm = normalize(rock_paper_scissors())
        assert enumerate_esspm(norm) == []
        _, _, res = solve_game(rock_paper_scissors())
        assert res.status is SolveStatus.INFEASIBLE

    def test_contradictory_bound_infeasible_at_root(self, monkeypatch):
        # A spy adds x_0 >= 2 to every LP, so the root LP is infeasible and nothing else runs.
        import esspm.solver

        real_lp_solve, calls = esspm.solver.lp_solve, []

        def spy(rows, bounds, start=None):
            calls.append(start)
            return real_lp_solve([*rows, LinearRow({0: 1.0}, ">=", 2.0, name="inject")], bounds)

        monkeypatch.setattr(esspm.solver, "lp_solve", spy)
        res = solve(build_model(normalize(mutation_population())))
        assert res.status is SolveStatus.INFEASIBLE
        assert res.stats.nodes == 1
        assert calls == [None]


class TestSolveMechanics:
    def test_deterministic(self):
        g = chicken(17)
        _, _, res1 = solve_game(g)
        _, _, res2 = solve_game(g)
        assert res1.status == res2.status
        assert res1.assignment.tobytes() == res2.assignment.tobytes()
        assert res1.stats.nodes == res2.stats.nodes

    def test_node_limit(self):
        model = build_model(normalize(mutation_population()))
        res = solve(model, SolveLimits(max_nodes=1, max_time_ms=600_000))
        assert res.status is SolveStatus.LIMIT_REACHED

    @pytest.mark.parametrize("field", ["max_nodes", "max_time_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, 0, -1])
    def test_limits_must_be_positive_integers(self, field, value):
        # A NaN limit would never be reached: stats.nodes >= nan is always False.
        message = "must be positive" if isinstance(value, int) else "must be an integer"
        with pytest.raises(ValueError, match=f"{field} {message}"):
            SolveLimits(**{field: value})

    @pytest.mark.parametrize("field", ["max_nodes", "max_time_ms"])
    def test_numpy_integer_limit_accepted(self, field):
        limits = SolveLimits(**{field: np.int64(5)})
        assert getattr(limits, field) == 5 and type(getattr(limits, field)) is int

    def test_time_limit(self, monkeypatch):
        import esspm.solver

        # A fake clock that stands still until the root LP has run and then
        # jumps a second ahead, so the next node check finds the limit passed.
        clock = [0.0]
        monkeypatch.setattr(esspm.solver, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        real_lp_solve = esspm.solver.lp_solve
        jump = [1.0]

        def lp_then_jump(*args, **kwargs):
            result = real_lp_solve(*args, **kwargs)
            clock[0] += jump[0]
            return result

        monkeypatch.setattr(esspm.solver, "lp_solve", lp_then_jump)
        model = build_model(normalize(mutation_population()))
        limits = SolveLimits(max_nodes=1_000, max_time_ms=1_000)
        res = solve(model, limits)
        assert res.status is SolveStatus.LIMIT_REACHED
        assert res.stats.nodes == 1 and res.stats.wall_ms == 1_000.0
        jump[0] = 0.0  # a clock that never moves: the same search finishes
        assert solve(model, limits).status is SolveStatus.FEASIBLE

    def test_feasible_assignments_reverify(self):
        # Independent re-check of the returned assignment against the IR.
        rng = np.random.default_rng(31)
        checked = 0
        for seed in range(12):
            g = uniform_random(2, seed=seed)
            norm = normalize(g)
            if find_pure_esspm(norm) is not None:
                continue
            model = build_model(norm)
            res = solve(model)
            if res.status is SolveStatus.FEASIBLE:
                assert verify_assignment(model, res.assignment) == []
                assert full_violations(model, res) == []
                checked += 1
        assert checked >= 2

    def test_never_returns_a_pure_strategy(self):
        for seed in range(25):
            norm = normalize(chicken(seed))
            model = build_model(norm)
            res = solve(model)
            assert res.status is SolveStatus.FEASIBLE
            strat = extract_strategy(res, 2)
            assert strat.probs.max() <= 1.0 - 1e-6

    def test_rejects_non_model(self):
        with pytest.raises(TypeError):
            solve({"rows": []})

    def test_large_eps_infeasible_small_eps_feasible(self):
        # Strictness sweep on the same game: wide margins are unsatisfiable,
        # tight ones are fine. Thresholds are solver-specific by design.
        norm = normalize(mutation_population())
        res_big = solve(build_model(norm, eps=1e-1))
        assert res_big.status is SolveStatus.INFEASIBLE
        res_small = solve(build_model(norm, eps=1e-4))
        assert res_small.status is SolveStatus.FEASIBLE


class TestEndToEnd:
    def test_200_random_2x2_mixed_games(self):
        # Games without a pure solution must almost always solve, with small error.
        solved = 0
        total = 0
        seed = 10_000
        while total < 200:
            g = uniform_random(2, seed=seed)
            seed += 1
            norm = normalize(g)
            if find_pure_esspm(norm) is not None:
                continue
            total += 1
            model = build_model(norm)
            res = solve(model)
            if res.status is SolveStatus.FEASIBLE:
                strat = extract_strategy(res, 2)
                assert approximation_error(norm, strat) <= 5e-3
                solved += 1
        assert solved / total >= 0.97

    def test_agreement_with_oracle_3x3(self):
        tol = Tolerances()
        for seed in range(40):
            norm = normalize(uniform_random(3, seed=20_000 + seed))
            if find_pure_esspm(norm) is not None:
                continue
            certs = enumerate_esspm(norm, tol)
            model = build_model(norm)
            res = solve(model)
            if res.status is SolveStatus.FEASIBLE:
                strat = extract_strategy(res, 3)
                assert certs, "solver found a solution the oracle missed"
                dist = min(
                    float(np.max(np.abs(strat.probs - c.strategy.probs))) for c in certs
                )
                assert dist <= 0.02
            elif certs:
                # A miss is only legitimate for margins below the model's eps.
                assert max(c.min_slack() for c in certs) <= 1e-5 + 1e-9


class TestSearchModel:
    @pytest.mark.parametrize("m, seed", [(3, 0), (4, 24)])
    def test_lps_see_only_the_x_z_y_rows(self, monkeypatch, m, seed):
        import esspm.solver

        norm = normalize(uniform_random(m, seed=seed))
        assert find_pure_esspm(norm) is None
        model = build_model(norm)
        full = linearize(model, 10)
        lambda_rows = {
            row.name
            for row in full.rows
            if any(full.variables[i].name.startswith(("q_", "lam_")) for i in row.coeffs)
        }
        assert lambda_rows
        calls = []
        real_lp_solve = esspm.solver.lp_solve

        def spy(rows, bounds, **kwargs):
            calls.append((rows, bounds))
            return real_lp_solve(rows, bounds, **kwargs)

        monkeypatch.setattr(esspm.solver, "lp_solve", spy)
        res = solve(model)
        assert res.status is SolveStatus.FEASIBLE
        assert verify_assignment(model, res.assignment) == []
        assert full_violations(model, res) == []
        assert calls
        for rows, bounds in calls:
            assert len(bounds) == 2 * m + 1
            assert len(rows) == 4 * m + 1
            for row in rows:
                assert row.name not in lambda_rows
                assert all(0 <= i < 2 * m + 1 for i in row.coeffs)


def _planted_full(m, seed):
    """-I + 0.05 N(0, 1), normalized: its only ESSPM has full support."""
    rng = np.random.default_rng(seed)
    return normalize(GameMatrix(-np.eye(m) + 0.05 * rng.normal(size=(m, m))))


def _planted_half(m, seed):
    """A permuted game whose only ESSPM has the m/2 strategies of its planted block.

    The block plays -I + noise among itself and +0.5 against the others, which
    lose about 1.5 against the block. Returns the game and the block's indices.
    """
    rng = np.random.default_rng(seed)
    s = m // 2
    a = 0.05 * rng.normal(size=(m, m))
    a[:s, :s] -= np.eye(s)
    a[s:, :s] -= 1.5
    a[:s, s:] += 0.5
    perm = rng.permutation(m)
    return normalize(GameMatrix(a[np.ix_(perm, perm)])), tuple(np.flatnonzero(perm < s).tolist())


class TestSupportBound:
    """A y_j = 0 child also fixes x_j at zero: x_j <= y_j as a bound, never as a row."""

    def test_every_strict_child_fixes_its_strategy_at_zero(self, monkeypatch):
        import esspm.solver

        calls = []
        real_lp_solve = esspm.solver.lp_solve

        def spy(rows, bounds, **kwargs):
            calls.append(bounds.copy())
            return real_lp_solve(rows, bounds, **kwargs)

        monkeypatch.setattr(esspm.solver, "lp_solve", spy)
        games = [_no_pure((uniform_random(m, seed=700 * m + s) for s in range(400)), 10) for m in (3, 4, 5)]
        games.append([normalize(chicken(s)) for s in range(10)])
        strict = 0
        for norm in (g for group in games for g in group):
            m = norm.m
            calls.clear()
            solve(build_model(norm))
            for bounds in calls:
                y_zero = (bounds[m + 1 : 2 * m + 1] == 0.0).all(axis=1)
                assert (bounds[:m][y_zero] == 0.0).all()
                strict += int(y_zero.sum())
        assert strict > 100

    @pytest.mark.parametrize("m", [10, 12, 14])
    def test_planted_full_support_closes_at_the_root(self, m):
        norm = _planted_full(m, seed=m)
        assert find_pure_esspm(norm) is None
        res = solve(build_model(norm))
        assert res.status is SolveStatus.FEASIBLE
        assert res.stats.nodes == 1
        assert extract_strategy(res, m).support().indices == tuple(range(m))

    def test_planted_half_support_returns_its_block(self):
        norm, block = _planted_half(10, seed=10)
        assert find_pure_esspm(norm) is None
        res = solve(build_model(norm))
        assert res.status is SolveStatus.FEASIBLE
        strategy = extract_strategy(res, norm.m)
        assert strategy.support().indices == block
        assert [c.strategy.support().indices for c in enumerate_esspm(norm, Tolerances())] == [block]


def _no_pure(games, n):
    """The first n normalized games without a pure ESSPM."""
    found = []
    for game in games:
        norm = normalize(game)
        if find_pure_esspm(norm) is None:
            found.append(norm)
            if len(found) == n:
                return found
    raise AssertionError("too few games without a pure ESSPM")


def _integer_games(m, seed, n):
    """n games with payoffs drawn from {0, 1, 2}: ties and duplicated strategies abound."""
    rng = np.random.default_rng(seed)
    while n:
        a = rng.integers(0, 3, (m, m)).astype(float)
        if a.max() > a.min():
            n -= 1
            yield GameMatrix(a)


def _with_dominated(game, seed):
    """The game plus a strategy k = m that earns 0.25 less than strategy 0 against everything."""
    rng = np.random.default_rng(seed)
    m = game.m
    a = np.empty((m + 1, m + 1))
    a[:m, :m] = game.payoffs
    a[:m, m] = rng.random(m)
    a[m] = a[0] - 0.25
    return normalize(GameMatrix(a))


def _cloned(games, seed):
    """Each game with one strategy duplicated: a copy of a random strategy's row and column appended."""
    rng = np.random.default_rng(seed)
    for game in games:
        idx = np.append(np.arange(game.m), rng.integers(game.m))
        yield GameMatrix(game.payoffs[np.ix_(idx, idx)])


class TestDominancePropagation:
    """Nodes are closed under iterated conditional dominance before they are pushed."""

    def test_dominated_strategy_is_never_attempted(self, monkeypatch):
        import esspm.solver

        lp_calls, patterns = [], []
        real_lp_solve, real_attempt = esspm.solver.lp_solve, esspm.solver._attempt_pattern

        def lp_spy(rows, bounds, **kwargs):
            lp_calls.append(("start" in kwargs, bounds.copy()))
            return real_lp_solve(rows, bounds, **kwargs)

        def attempt_spy(model, pattern, stats):
            patterns.append(pattern.copy())
            return real_attempt(model, pattern, stats)

        monkeypatch.setattr(esspm.solver, "lp_solve", lp_spy)
        monkeypatch.setattr(esspm.solver, "_attempt_pattern", attempt_spy)
        games = _no_pure((_with_dominated(uniform_random(4, seed=s), s) for s in range(200)), 12)
        pruned = 0
        for norm in games:
            m = norm.m
            k = m - 1
            lp_calls.clear()
            patterns.clear()
            res = solve(build_model(norm))
            assert res.status is SolveStatus.FEASIBLE
            assert extract_strategy(res, m).probs[k] == 0.0
            assert patterns and all(p[k] == 0 for p in patterns)
            # Node LPs pass start=; the leaf LP does not. Dead children solve none.
            assert sum(node for node, _ in lp_calls) == res.stats.nodes
            assert len(lp_calls) >= res.stats.nodes
            for node, bounds in lp_calls:
                assert not node or (bounds[[k, m + 1 + k]] == 0.0).all()  # x_k = y_k = 0
            pruned += res.stats.pruned
        assert pruned > 0

    def test_dominated_strategy_pinned_in_closes_the_root(self):
        model = build_model(_no_pure((_with_dominated(uniform_random(4, seed=s), s) for s in range(200)), 1)[0])
        m, k = model.m, model.m - 1
        spared, everyone = _spared_masks(model.payoffs), (1 << m) - 1
        bounds = model.bounds_array()
        assert _propagate(spared, bounds.copy(), everyone) & (1 << k) == 0  # k is dominated
        bounds[m + 1 + k] = 1.0  # y_k pinned at 1
        assert _propagate(spared, bounds, everyone) == 0

    def test_tied_games_agree_with_the_oracle(self, monkeypatch):
        # Integer payoffs and cloned strategies make the exact ties that sit
        # closest to the dominance guard. The verdict is held to the oracle
        # under the --solver both rule, and every strategy is re-certified.
        from esspm import pipeline

        stats = []
        real_solve = pipeline.solve

        def solve_spy(model, limits):
            res = real_solve(model, limits)
            stats.append(res.stats)
            return res

        monkeypatch.setattr(pipeline, "solve", solve_spy)
        cfg = BatchConfig(solver="both")
        feasible = 0
        deck = [g for m in range(2, 7) for g in _no_pure(_integer_games(m, 60 + m, 2000), 100)]
        deck += [g for m in range(2, 6) for g in _no_pure(_cloned(_integer_games(m, 70 + m, 2000), m), 125)]
        # Columns 1 and 2 are equal, so the tie system of the MILP's support
        # {0, 1, 2, 4} is singular: the oracle finds no certificate at all.
        twins = [[1, 1, 1, 2, 2], [1, 1, 1, 1, 2], [2, 0, 0, 2, 0], [0, 1, 1, 0, 0], [1, 2, 2, 1, 0]]
        deck.append(normalize(GameMatrix(np.array(twins, dtype=float))))
        for norm in deck:
            record = solve_record(norm, cfg)
            if isinstance(record.outcome, MixedEsspm):
                strategy = record.outcome.strategy
                assert all(check_conditions(norm, strategy, j).holds for j in range(norm.m))
                feasible += 1
                if record.disagreement:
                    # The oracle certifies only a unique tie solution; a MILP
                    # strategy inside a singular system's solution set is
                    # certified above but invisible to it.
                    assert solve_support(norm, strategy.support()) is None
            else:
                assert record.disagreement == 0
        assert feasible >= 300
        assert sum(s.pruned for s in stats) > 500


class TestSearchPins:
    """Exact search counts of a fixed MILP deck.

    A change to the simplex's bookkeeping that keeps every pivot and every
    point keeps these totals; a changed pivot rule, tolerance or start
    shows up as a changed node, prune or pivot count.
    """

    def test_deck_totals(self):
        seeds = range(11, 2011)
        deck = [g for m in (3, 4, 5) for g in _no_pure((uniform_random(m, s) for s in seeds), 40)]
        deck += _no_pure((chicken(s) for s in seeds), 40)
        deck += _no_pure((cancer_game(random_cancer_params(s)) for s in seeds), 40)
        nodes = pruned = pivots = feasible = 0
        for norm in deck:
            res = solve(build_model(norm))
            nodes += res.stats.nodes
            pruned += res.stats.pruned
            pivots += res.stats.lp_iterations
            feasible += res.status is SolveStatus.FEASIBLE
        assert (nodes, pruned, pivots, feasible) == (822, 351, 5513, 190)


class TestLinearizedModel:
    """The x/z/y search, checked against the paper's full lambda/SOS2 model."""

    def test_feasible_results_verify_against_the_lambda_model(self):
        # The solver docstring's proof, as a property: every accepted leaf,
        # interpolated into linearize(model, k), meets every row, bound, binary
        # and SOS2 set of the full model.
        decks = [_no_pure(_integer_games(m, 40 + m, 400), 25) for m in (2, 3, 4)]
        decks += [_no_pure((uniform_random(m, seed=3_000 * m + s) for s in range(400)), 15) for m in (3, 4, 5)]
        decks.append([normalize(chicken(900 + s)) for s in range(15)])
        decks.append(_no_pure((cancer_game(random_cancer_params(900 + s)) for s in range(400)), 15))
        feasible = 0
        for norm in (g for deck in decks for g in deck):
            model = build_model(norm)
            res = solve(model)
            if res.status is SolveStatus.FEASIBLE:
                for k in (3, 20):
                    assert full_violations(model, res, k) == []
                    feasible += 1
        assert feasible >= 180

    @pytest.mark.parametrize(
        "norm",
        [
            normalize(mutation_population()),
            normalize(rock_paper_scissors()),
            normalize(chicken(3)),
            *_no_pure((uniform_random(3, seed=s) for s in range(200)), 3),
            *_no_pure(_integer_games(3, 7, 200), 2),
        ],
        ids=["mp", "rps", "chicken-3", "u3-a", "u3-b", "u3-c", "int3-a", "int3-b"],
    )
    def test_same_verdict_on_the_linearized_model(self, norm):
        model = build_model(norm)
        full = linearize(model, 5)
        compact_res, full_res = solve(model), solve(full)
        assert compact_res.status is full_res.status
        if full_res.status is SolveStatus.FEASIBLE:
            assert verify_assignment(full, full_res.assignment) == []
            assert len(full_res.assignment) == len(full.variables)


def _highs_status(model) -> int:
    """scipy.optimize.milp status on the full lambda model, SOS2 as segment binaries.

    Each SOS2 set of k+1 lambdas gets k segment binaries w with sum w = 1 and
    lam_r <= w_{r-1} + w_r, so only the two lambdas of the chosen segment may
    be nonzero. Status 0 is feasible, 2 infeasible.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(model.variables)
    n_seg = sum(len(lam) - 1 for lam in model.sos2_sets)
    n_rows = len(model.rows) + sum(len(lam) + 1 for lam in model.sos2_sets)
    a = np.zeros((n_rows, n + n_seg))
    lo = np.full(n_rows, -np.inf)
    hi = np.full(n_rows, np.inf)
    for r, row in enumerate(model.rows):
        for i, c in row.coeffs.items():
            a[r, i] = c
        if row.rel != ">=":
            hi[r] = row.rhs
        if row.rel != "<=":
            lo[r] = row.rhs
    r, w0 = len(model.rows), n
    for lam in model.sos2_sets:
        k = len(lam) - 1
        a[r, w0 : w0 + k] = 1.0
        lo[r] = hi[r] = 1.0
        r += 1
        for pos, li in enumerate(lam):
            a[r, li] = 1.0
            a[r, w0 + max(pos - 1, 0) : w0 + min(pos, k - 1) + 1] = -1.0
            hi[r] = 0.0
            r += 1
        w0 += k
    integrality = np.array([int(v.binary) for v in model.variables] + [1] * n_seg)
    bounds = Bounds(
        [v.lb for v in model.variables] + [0.0] * n_seg,
        [v.ub for v in model.variables] + [1.0] * n_seg,
    )
    res = milp(
        np.zeros(n + n_seg),
        constraints=LinearConstraint(a, lo, hi),
        integrality=integrality,
        bounds=bounds,
    )
    assert res.status in (0, 2), res.message
    return res.status


def _case(name, game, k, eps=1e-5):
    return pytest.param(normalize(game), k, eps, id=f"{name}-k{k}-eps{eps:g}")


class TestHighsCrossCheck:
    """The paper's full lambda/SOS2 formulation, solved by HiGHS, against the x/z/y search."""

    @pytest.mark.parametrize(
        "norm, k, eps",
        [
            _case("mp", mutation_population(), 5),
            _case("mp", mutation_population(), 10, eps=1e-1),
            _case("rps", rock_paper_scissors(), 5),
            *[_case(f"u2-{s}", uniform_random(2, seed=s), k) for s in (4, 11) for k in (5, 10)],
            *[_case(f"u3-{s}", uniform_random(3, seed=s), 5) for s in (0, 117)],
            _case("u3-255", uniform_random(3, seed=255), 5, eps=5e-2),
        ],
    )
    def test_agrees_with_compact_search(self, norm, k, eps):
        pytest.importorskip("scipy")
        assert find_pure_esspm(norm) is None
        model = build_model(norm, eps)
        highs_feasible = _highs_status(linearize(model, k)) == 0
        ours = solve(model).status
        assert ours in (SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE)
        if ours is SolveStatus.FEASIBLE:
            assert highs_feasible
        elif highs_feasible:
            # The corridor admits points whose margin is approximation
            # artifact; the miss is excused only below the model's resolution.
            certs = enumerate_esspm(norm, Tolerances())
            best = max((c.min_slack() for c in certs), default=-np.inf)
            assert best <= eps + linearization_error_bound(norm, k)


class TestSharedTieSolve:
    """The MILP leaf and the oracle solve a support's tie system with one kernel."""

    def test_leaf_equals_solve_support_bitwise(self):
        games = [_no_pure((uniform_random(m, seed=500 * m + s) for s in range(400)), 15) for m in range(2, 6)]
        games.append([normalize(chicken(s)) for s in range(40)])
        games.append(_no_pure((cancer_game(random_cancer_params(s)) for s in range(400)), 40))
        feasible = 0
        for norm in (g for group in games for g in group):
            res = solve(build_model(norm))
            if res.status is not SolveStatus.FEASIBLE:
                continue
            strategy = extract_strategy(res, norm.m)
            expected = solve_support(norm, strategy.support())
            assert expected is not None
            assert strategy.probs.tobytes() == expected.probs.tobytes()
            feasible += 1
        assert feasible >= 120

    def test_leaf_depends_only_on_model_and_pattern(self):
        # Integer payoffs make singular tie systems, whose leaves the leaf LP
        # decides; its point must not depend on the search path to the leaf.
        feasible = fallback = 0
        for m in (2, 3, 4):
            for norm in _no_pure(_integer_games(m, 100 + m, 2000), 150):
                model = build_model(norm)
                res = solve(model)
                if res.status is not SolveStatus.FEASIBLE:
                    continue
                pattern = res.assignment[m + 1 : 2 * m + 1]
                support = np.flatnonzero(pattern).tolist()
                x = _attempt_pattern(model, pattern, SolveStats())[:m]
                assert res.assignment[:m].tobytes() == x.tobytes()
                feasible += 1
                fallback += bool(_solve_ties(norm.payoffs, np.array([support]))[0][0])
        assert feasible >= 200
        assert fallback >= 3

    def test_row_violation_after_the_exact_check_raises(self, monkeypatch):
        # The exact check decides; a row it passes but the model rejects is a solver fault.
        import esspm.solver

        monkeypatch.setattr(esspm.solver, "verify_assignment", lambda model, values: ["row tie_0 violated by 1.0"])
        with pytest.raises(SolverError, match="tie_0 violated"):
            solve(build_model(normalize(mutation_population())))


class TestExtractStrategy:
    def _feasible(self, x):
        return SolveResult(SolveStatus.FEASIBLE, x, SolveStats())

    def test_identity(self):
        res = self._feasible(np.array([0.19972, 0.80028]))
        strat = extract_strategy(res, 2)
        np.testing.assert_allclose(strat.probs, [0.19972, 0.80028])

    @pytest.mark.parametrize("m, seed", [(3, 271489), (4, 360061)])
    def test_reports_the_certified_point_bitwise(self, m, seed):
        # No pure ESSPM; renormalizing these leaves' points again moved them by an ulp.
        norm = normalize(uniform_random(m, seed))
        assert find_pure_esspm(norm) is None
        res = solve(build_model(norm))
        assert res.status is SolveStatus.FEASIBLE
        assert extract_strategy(res, m).probs.tobytes() == res.assignment[:m].tobytes()

    def test_tolerance_breach(self):
        res = self._feasible(np.array([-0.01, 1.01]))
        with pytest.raises(ValueError, match="negative probability"):
            extract_strategy(res, 2)

    def test_requires_feasible_status(self):
        res = SolveResult(SolveStatus.INFEASIBLE, None, SolveStats())
        with pytest.raises(ValueError, match="status"):
            extract_strategy(res, 2)
