import types
from itertools import islice

import numpy as np
import pytest

from esspm import (
    BatchConfig,
    GameMatrix,
    Infeasible,
    LimitReached,
    LinearRow,
    MixedEsspm,
    SolveLimits,
    SolverError,
    Tolerances,
    approximation_error,
    build_model,
    cancer_game,
    check_conditions,
    chicken,
    enumerate_esspm,
    export_lp,
    find_pure_esspm,
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
from esspm.enumeration import _solve_ties
from esspm.solver import SolveStats, _attempt_pattern, _propagate, _spared_masks


def solve_game(game, eps=1e-5):
    norm = normalize(game)
    model = build_model(norm, eps)
    return norm, model, solve(model)


class TestKnownGames:
    def test_mp_recovers_the_mixed_solution(self):
        norm, model, res = solve_game(mutation_population())
        assert isinstance(res.outcome, MixedEsspm)
        strat = res.outcome.strategy
        assert np.max(np.abs(strat.probs - np.array([0.2, 0.8]))) <= 0.01
        assert approximation_error(norm, strat) <= 1e-3

    def test_rps_is_infeasible(self):
        # Oracle first: exhaustive support enumeration finds nothing, so the
        # model must exhaust its tree and agree.
        norm = normalize(rock_paper_scissors())
        assert enumerate_esspm(norm) == []
        _, _, res = solve_game(rock_paper_scissors())
        assert isinstance(res.outcome, Infeasible)

    def test_contradictory_bound_infeasible_at_root(self, monkeypatch):
        # A spy adds x_0 >= 2 to every LP, so the root LP is infeasible and nothing else runs.
        import esspm.solver

        real_lp_solve, calls = esspm.solver.lp_solve, []

        def spy(rows, bounds, start=None):
            calls.append(start)
            return real_lp_solve([*rows, LinearRow({0: 1.0}, ">=", 2.0, name="inject")], bounds)

        monkeypatch.setattr(esspm.solver, "lp_solve", spy)
        res = solve(build_model(normalize(mutation_population())))
        assert isinstance(res.outcome, Infeasible)
        assert res.stats.nodes == 1
        assert calls == [None]


class TestSolveMechanics:
    def test_deterministic(self):
        g = chicken(17)
        _, _, res1 = solve_game(g)
        _, _, res2 = solve_game(g)
        assert res1.outcome == res2.outcome
        assert res1.assignment.tobytes() == res2.assignment.tobytes()
        assert res1.stats.nodes == res2.stats.nodes

    def test_node_limit(self):
        model = build_model(normalize(mutation_population()))
        res = solve(model, SolveLimits(max_nodes=1, max_time_ms=600_000))
        assert isinstance(res.outcome, LimitReached)

    @pytest.mark.parametrize("field", ["max_nodes", "max_time_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, 0, -1])
    def test_limits_must_be_positive_integers(self, field, value):
        # A NaN limit would never be reached: stats.nodes >= nan is always False.
        message = "must be >= 1" if isinstance(value, int) else "must be an integer"
        with pytest.raises(ValueError, match=f"{field} {message}"):
            SolveLimits(**{field: value})

    @pytest.mark.parametrize("field", ["max_nodes", "max_time_ms"])
    @pytest.mark.parametrize("value", [True, np.True_])
    def test_boolean_limits_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
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
        assert isinstance(res.outcome, LimitReached)
        assert res.stats.nodes == 1 and res.stats.wall_ms == 1_000.0
        jump[0] = 0.0  # a clock that never moves: the same search finishes
        assert isinstance(solve(model, limits).outcome, MixedEsspm)

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
            if isinstance(res.outcome, MixedEsspm):
                assert verify_assignment(model, res.assignment) == []  # every row and link
                checked += 1
        assert checked >= 2

    def test_never_returns_a_pure_strategy(self):
        for seed in range(25):
            norm = normalize(chicken(seed))
            model = build_model(norm)
            res = solve(model)
            assert isinstance(res.outcome, MixedEsspm)
            strat = res.outcome.strategy
            assert strat.probs.max() <= 1.0 - 1e-6

    def test_rejects_non_model(self):
        with pytest.raises(TypeError):
            solve({"rows": []})

    def test_large_eps_infeasible_small_eps_feasible(self):
        # Strictness sweep on the same game: wide margins are unsatisfiable,
        # tight ones are fine. Thresholds are solver-specific by design.
        norm = normalize(mutation_population())
        res_big = solve(build_model(norm, eps=1e-1))
        assert isinstance(res_big.outcome, Infeasible)
        res_small = solve(build_model(norm, eps=1e-4))
        assert isinstance(res_small.outcome, MixedEsspm)


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
            if isinstance(res.outcome, MixedEsspm):
                strat = res.outcome.strategy
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
            if isinstance(res.outcome, MixedEsspm):
                strat = res.outcome.strategy
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
        # The link rows enter the search as branch bounds only, never as LP rows.
        import esspm.solver

        norm = normalize(uniform_random(m, seed=seed))
        assert find_pure_esspm(norm) is None
        model = build_model(norm)
        calls = []
        real_lp_solve = esspm.solver.lp_solve

        def spy(rows, bounds, **kwargs):
            calls.append((rows, bounds))
            return real_lp_solve(rows, bounds, **kwargs)

        monkeypatch.setattr(esspm.solver, "lp_solve", spy)
        res = solve(model)
        assert isinstance(res.outcome, MixedEsspm)
        assert verify_assignment(model, res.assignment) == []
        assert calls
        for rows, bounds in calls:
            assert len(bounds) == 2 * m + 1
            assert rows is model.rows and len(rows) == 4 * m + 1
            assert not {row.name for row in rows} & {row.name for row in model.links}


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
        assert isinstance(res.outcome, MixedEsspm)
        assert res.stats.nodes == 1
        assert res.outcome.strategy.support().indices == tuple(range(m))

    def test_planted_half_support_returns_its_block(self):
        norm, block = _planted_half(10, seed=10)
        assert find_pure_esspm(norm) is None
        res = solve(build_model(norm))
        assert isinstance(res.outcome, MixedEsspm)
        strategy = res.outcome.strategy
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


# Columns 1 and 2 are equal, so the tie system of the MILP's support
# {0, 1, 2, 4} is singular: the oracle finds no certificate at all.
TWINS = normalize(GameMatrix(np.array(
    [[1, 1, 1, 2, 2], [1, 1, 1, 1, 2], [2, 0, 0, 2, 0], [0, 1, 1, 0, 0], [1, 2, 2, 1, 0]], dtype=float
)))


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
            assert isinstance(res.outcome, MixedEsspm)
            assert res.outcome.strategy.probs[k] == 0.0
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
        spared, everyone = _spared_masks(model.game.payoffs), (1 << m) - 1
        bounds = model.bounds.copy()
        assert _propagate(spared, bounds.copy(), model, everyone) & (1 << k) == 0  # k is dominated
        bounds[model.ys][k] = 1.0  # y_k pinned at 1
        assert _propagate(spared, bounds, model, everyone) == 0

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
        deck.append(TWINS)
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
            feasible += isinstance(res.outcome, MixedEsspm)
        assert (nodes, pruned, pivots, feasible) == (822, 351, 5513, 190)


def _parse_lp(text):
    """The rows, column bounds and binaries of ``export_lp``'s text, read back from the text alone."""
    lines = text.splitlines()
    assert lines[:3] == ["Minimize", " obj:", "Subject To"] and lines[-1] == "End"
    at_bounds, at_binary = lines.index("Bounds"), lines.index("Binary")
    assert at_binary + 2 == len(lines) - 1  # one line of binaries, then End
    rows = []
    for line in lines[3:at_bounds]:
        *terms, rel, rhs = line.split(":", 1)[1].split()
        coeffs, tokens = {}, iter(terms)
        for token in tokens:
            sign = 1.0
            if token in ("+", "-"):
                sign, token = (-1.0 if token == "-" else 1.0), next(tokens)
            coeffs[next(tokens)] = sign * float(token)
        rows.append((coeffs, rel, float(rhs)))
    bounds = {}
    for line in lines[at_bounds + 1 : at_binary]:
        lo, le, name, le2, hi = line.split()
        assert le == le2 == "<="
        bounds[name] = (float(lo), float(hi))
    return rows, bounds, lines[at_binary + 1].split()


def _highs_status(text) -> int:
    """scipy.optimize.milp's status on an exported model: 0 feasible, 2 infeasible."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    rows, bounds, binary = _parse_lp(text)
    names = [*bounds, *binary]
    column = {name: i for i, name in enumerate(names)}
    a = np.zeros((len(rows), len(names)))
    lo, hi = np.full(len(rows), -np.inf), np.full(len(rows), np.inf)
    for r, (coeffs, rel, rhs) in enumerate(rows):
        for name, coef in coeffs.items():
            a[r, column[name]] = coef
        if rel != ">=":
            hi[r] = rhs
        if rel != "<=":
            lo[r] = rhs
    box = np.array([*bounds.values(), *[(0.0, 1.0)] * len(binary)])
    res = milp(
        np.zeros(len(names)),
        constraints=LinearConstraint(a, lo, hi),
        integrality=[0] * len(bounds) + [1] * len(binary),
        bounds=Bounds(box[:, 0], box[:, 1]),
    )
    assert res.status in (0, 2), res.message
    return res.status


def _referee_deck():
    """Named games, then the first 15 no-pure uniform games from seed 0 at each m, then two at m=16."""
    deck = [
        pytest.param(normalize(mutation_population()), 1e-5, id="mp"),
        pytest.param(normalize(mutation_population()), 1e-1, id="mp-eps0.1"),
        pytest.param(normalize(rock_paper_scissors()), 1e-5, id="rps"),
        pytest.param(normalize(uniform_random(3, seed=255)), 5e-2, id="u3-255-eps0.05"),
        pytest.param(TWINS, 1e-5, id="twins"),
    ]
    for m in (3, 4, 5, 6, 8):
        games = ((s, normalize(uniform_random(m, seed=s))) for s in range(10_000))
        no_pure = islice(((s, g) for s, g in games if find_pure_esspm(g) is None), 15)
        deck += [pytest.param(g, 1e-5, id=f"u{m}-{s}") for s, g in no_pure]
    deck += [pytest.param(normalize(uniform_random(16, seed=s)), 1e-5, id=f"u16-{s}") for s in (0, 3)]
    return deck


class TestHighsCrossCheck:
    """HiGHS on the exported exact model, rows and links, referees the search's verdict."""

    @pytest.mark.parametrize("norm, eps", _referee_deck())
    def test_agrees_with_the_search(self, norm, eps):
        pytest.importorskip("scipy")
        assert find_pure_esspm(norm) is None
        model = build_model(norm, eps)
        ours = solve(model).outcome
        assert isinstance(ours, (MixedEsspm, Infeasible))
        assert (_highs_status(export_lp(model)) == 0) == isinstance(ours, MixedEsspm)

    def test_deck_has_both_verdicts(self):
        outcomes = [type(solve(build_model(*p.values)).outcome) for p in _referee_deck()]
        assert outcomes.count(Infeasible) >= 4 and outcomes.count(MixedEsspm) >= 70

    def test_links_are_what_make_the_model_exact(self):
        # Without its link rows, rps's model is feasible: z is then free of x' A x.
        pytest.importorskip("scipy")
        text = export_lp(build_model(normalize(rock_paper_scissors())))
        assert _highs_status(text) == 2
        unlinked = "".join(line for line in text.splitlines(keepends=True) if not line.startswith(" link_"))
        assert _highs_status(unlinked) == 0

    def test_twin_column_disagreement_is_the_oracles(self):
        # MILP and HiGHS agree that the twin-column game has an ESSPM, and it
        # certifies against every pure mutant. The oracle misses it because its
        # support's tie system is singular, so --solver both flags a false
        # disagreement: the oracle's fault, not the MILP's.
        pytest.importorskip("scipy")
        assert _highs_status(export_lp(build_model(TWINS))) == 0
        outcome = solve(build_model(TWINS)).outcome
        assert isinstance(outcome, MixedEsspm)
        strategy = outcome.strategy
        assert strategy.support().indices == (0, 1, 2, 4)
        assert all(check_conditions(TWINS, strategy, j).holds for j in range(TWINS.m))
        assert enumerate_esspm(TWINS, Tolerances()) == []
        assert _solve_ties(TWINS.payoffs, np.array([[0, 1, 2, 4]]))[0][0]  # singular: rejected
        assert solve_support(TWINS, strategy.support()) is None
        assert solve_record(TWINS, BatchConfig(solver="both")).disagreement == 1


class TestSharedTieSolve:
    """The MILP leaf and the oracle solve a support's tie system with one kernel."""

    def test_leaf_equals_solve_support_bitwise(self):
        games = [_no_pure((uniform_random(m, seed=500 * m + s) for s in range(400)), 15) for m in range(2, 6)]
        games.append([normalize(chicken(s)) for s in range(40)])
        games.append(_no_pure((cancer_game(random_cancer_params(s)) for s in range(400)), 40))
        feasible = 0
        for norm in (g for group in games for g in group):
            res = solve(build_model(norm))
            if not isinstance(res.outcome, MixedEsspm):
                continue
            strategy = res.outcome.strategy
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
                if not isinstance(res.outcome, MixedEsspm):
                    continue
                pattern = res.assignment[m + 1 : 2 * m + 1]
                support = np.flatnonzero(pattern).tolist()
                x = _attempt_pattern(model, pattern, SolveStats())[:m]
                assert res.assignment[:m].tobytes() == x.tobytes()
                feasible += 1
                fallback += bool(_solve_ties(norm.payoffs, np.array([support]))[0][0])
        assert feasible >= 200
        assert fallback >= 3

    def test_leaf_with_an_infeasible_fallback_lp_is_refused(self):
        # The all-ones tie system is regular but its solution (-0.549, 0.486,
        # 1.063) leaves the simplex, so the leaf LP decides, and finds no point.
        model = build_model(normalize(uniform_random(3, seed=0)))
        rejected, _ = _solve_ties(model.game.payoffs, np.array([[0, 1, 2]]))
        assert rejected[0]
        stats = SolveStats()
        assert _attempt_pattern(model, np.ones(3), stats) is None
        assert stats.lp_iterations > 0

    def test_row_violation_after_the_exact_check_raises(self, monkeypatch):
        # The exact check decides; a row it passes but the model rejects is a solver fault.
        import esspm.solver

        monkeypatch.setattr(esspm.solver, "verify_assignment", lambda model, values: ["row tie_0 violated by 1.0"])
        with pytest.raises(SolverError, match="tie_0 violated"):
            solve(build_model(normalize(mutation_population())))


class TestExtractStrategy:
    """A MixedEsspm verdict's strategy is the x of its assignment, extracted as the leaf certified it."""

    @pytest.mark.parametrize("m, seed", [(3, 271489), (4, 360061)])
    def test_reports_the_certified_point_bitwise(self, m, seed):
        # No pure ESSPM; renormalizing these leaves' points again moved them by an ulp.
        norm = normalize(uniform_random(m, seed))
        assert find_pure_esspm(norm) is None
        model = build_model(norm)
        res = solve(model)
        assert isinstance(res.outcome, MixedEsspm)
        assert res.outcome.strategy.probs.tobytes() == res.assignment[model.xs].tobytes()


class TestVerdicts:
    """solve answers with the verdict records that the pipeline and the CSV use."""

    def test_solve_answers_with_the_pipeline_verdicts(self):
        import esspm.analysis
        import esspm.pipeline

        mp = solve(build_model(normalize(mutation_population()))).outcome
        assert mp == solve_record(mutation_population(), BatchConfig(game_class="mp")).outcome
        assert isinstance(mp, MixedEsspm) and mp.status == "OPTIMAL"
        rps = build_model(normalize(rock_paper_scissors()))
        assert solve(rps).outcome == Infeasible()
        assert solve(rps, SolveLimits(max_nodes=1)).outcome == LimitReached()
        assert esspm.pipeline.MixedEsspm is esspm.analysis.MixedEsspm
