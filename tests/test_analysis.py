import re

import numpy as np
import pytest

from esspm import (
    Condition,
    ConditionOutcome,
    GameMatrix,
    InvasionResult,
    MixedStrategy,
    Tolerances,
    approximation_error,
    check_conditions,
    counterexample_game,
    enumerate_esspm,
    find_all_pure_esspm,
    find_pure_esspm,
    invasion_test,
    mutation_population,
    nash_epsilon,
    normalize,
    pure_nash_epsilon,
    rock_paper_scissors,
)
from esspm.analysis import payoff_gaps

MP_MIX = MixedStrategy([0.2, 0.8])
RPS_UNIFORM = MixedStrategy([1.0 / 3.0] * 3)


class TestCheckConditions:
    def test_mp_equality_branch(self):
        # Dove against (0.2, 0.8): payoff ties at 2.4 and Dove-vs-Dove (4)
        # loses to the candidate's 0.2*4 + 0.8*8 = 7.2 against Dove.
        out = check_conditions(mutation_population(), MP_MIX, 0)
        assert out.tag is Condition.SECOND_EQUALITY
        assert out.slack == pytest.approx(7.2 - 4.0, abs=1e-12)

    def test_rps_uniform_fails(self):
        # Payoffs tie at 5/9 but rock-vs-rock (2/3) beats the uniform's 5/9.
        out = check_conditions(rock_paper_scissors(), RPS_UNIFORM, 0)
        assert out.tag is Condition.FAILS
        assert out.slack == pytest.approx(5.0 / 9.0 - 2.0 / 3.0, abs=1e-12)

    def test_self_mutation_fails(self):
        rng = np.random.default_rng(4)
        g = GameMatrix(rng.random((3, 3)))
        out = check_conditions(g, MixedStrategy.pure(1, 3), 1)
        assert out.tag is Condition.FAILS

    def test_first_strict(self):
        g = GameMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = check_conditions(g, MixedStrategy.pure(0, 2), 1)
        assert out.tag is Condition.FIRST_STRICT
        assert out.slack == pytest.approx(1.0)

    def test_index_range(self):
        with pytest.raises(ValueError):
            check_conditions(mutation_population(), MP_MIX, 2)

    @pytest.mark.parametrize(
        "j, message",
        [
            (-1, "mutant index -1 out of range for m=2"),
            (2, "mutant index 2 out of range for m=2"),
            (True, "j must be an integer, got True"),
            (np.True_, f"j must be an integer, got {np.True_!r}"),
            (1.0, "j must be an integer, got 1.0"),
        ],
    )
    def test_bad_mutant_index_is_refused(self, j, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_conditions(mutation_population(), MP_MIX, j)

    def test_numpy_integer_mutant_index(self):
        game = mutation_population()
        assert check_conditions(game, MP_MIX, np.int64(1)) == check_conditions(game, MP_MIX, 1)

    @pytest.mark.parametrize("xstar", [RPS_UNIFORM, MixedStrategy([1.0])])
    def test_wrong_size_strategy_is_refused(self, xstar):
        with pytest.raises(ValueError, match="^strategy dimension does not match the game$"):
            check_conditions(mutation_population(), xstar, 0)


class TestPureNashEpsilon:
    @pytest.mark.parametrize(
        "i, message",
        [
            (-1, "pure index -1 out of range for m=2"),
            (2, "pure index 2 out of range for m=2"),
            (True, "i must be an integer, got True"),
            (np.True_, f"i must be an integer, got {np.True_!r}"),
            (1.0, "i must be an integer, got 1.0"),
        ],
    )
    def test_bad_index_is_refused(self, i, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pure_nash_epsilon(mutation_population(), i)

    def test_numpy_integer_index(self):
        game = mutation_population()
        assert pure_nash_epsilon(game, np.int64(1)) == pure_nash_epsilon(game, 1) > 0.0


class TestFindPure:
    def test_counterexample_returns_a(self):
        assert find_pure_esspm(counterexample_game()) == 0

    def test_mp_none(self):
        assert find_pure_esspm(mutation_population()) is None

    def test_dominant_diagonal(self):
        # A strict symmetric equilibrium at index 0 must be found.
        g = GameMatrix(np.array([[0.9, 0.3, 0.2], [0.1, 0.5, 0.9], [0.2, 0.8, 0.1]]))
        assert find_pure_esspm(g) == 0

    def test_exhaustive_variant(self):
        # Two diagonal column maxima give two pure solutions.
        g = GameMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert find_all_pure_esspm(g) == [0, 1]
        assert find_pure_esspm(g) == 0


class TestTolerances:
    @pytest.mark.parametrize("delta", [0.0, -1e-7, float("nan"), float("inf"), float("-inf")])
    def test_delta_must_be_positive_and_finite(self, delta):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            Tolerances(delta=delta)


class TestInvasionTest:
    def test_bc_mix_invades_a(self):
        g = counterexample_game()
        mutant = MixedStrategy([0.0, 0.5, 0.5])
        out = invasion_test(g, MixedStrategy.pure(0, 3), mutant)
        assert out is InvasionResult.INVADES

    def test_pure_b_and_c_resisted(self):
        g = counterexample_game()
        a = MixedStrategy.pure(0, 3)
        for j in (1, 2):
            assert invasion_test(g, a, MixedStrategy.pure(j, 3)) is InvasionResult.RESISTED

    def test_mp_hawk_resisted(self):
        out = invasion_test(mutation_population(), MP_MIX, MixedStrategy.pure(1, 2))
        assert out is InvasionResult.RESISTED

    def test_strict_equilibrium_resists_a_worse_mutant(self):
        # Pure 0 is a strict equilibrium: the mutant loses against it, so the
        # first condition decides, with no payoff tie.
        g = GameMatrix([[1.0, 0.5], [0.0, 1.0]])
        out = invasion_test(g, MixedStrategy.pure(0, 2), MixedStrategy([0.5, 0.5]))
        assert out is InvasionResult.RESISTED

    def test_identical_mutant_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            invasion_test(mutation_population(), MP_MIX, MixedStrategy([0.2, 0.8]))


@pytest.mark.parametrize(
    "check",
    [
        lambda g, x: approximation_error(g, x),
        lambda g, x: nash_epsilon(g, x),
        lambda g, x: invasion_test(g, MP_MIX, x),
        lambda g, x: invasion_test(g, x, MP_MIX),
    ],
    ids=["approximation_error", "nash_epsilon", "invasion_test_mutant", "invasion_test_candidate"],
)
def test_strategy_of_the_wrong_size_is_refused(check):
    with pytest.raises(ValueError, match="dimensions? do(es)? not match the game"):
        check(normalize(mutation_population()), MixedStrategy([0.2, 0.3, 0.5]))


class TestApproximationError:
    def test_exact_solution_is_zero(self):
        assert approximation_error(normalize(mutation_population()), MP_MIX) == 0.0

    def test_paper_scale_solution(self):
        got = approximation_error(
            normalize(mutation_population()), MixedStrategy([0.19972, 0.80028])
        )
        assert got == pytest.approx(1.4e-4, abs=5e-5)

    def test_rps_uniform_error(self):
        # Second-condition violation: 2/3 - 5/9 = 1/9. RPS payoffs already
        # span [0, 1] so normalization leaves them unchanged.
        got = approximation_error(normalize(rock_paper_scissors()), RPS_UNIFORM)
        assert got == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_zero_does_not_certify_a_zero_margin_tie(self):
        # Mutant 1 ties pure 0 (d = 0) with margin exactly 0, so it fails the
        # second condition, yet its violation max(0, -margin) is 0.
        g = GameMatrix([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
        x = MixedStrategy.pure(0, 3)
        assert check_conditions(g, x, 1) == ConditionOutcome(Condition.FAILS, 0.0)
        assert approximation_error(g, x) == 0.0

    def test_requires_normalized(self):
        with pytest.raises(ValueError, match="normalized"):
            approximation_error(mutation_population(), MP_MIX)


class TestNashEpsilon:
    def test_exact_equilibrium_zero(self):
        assert nash_epsilon(mutation_population(), MP_MIX) == 0.0

    def test_raw_mp_perturbed(self):
        # Direct arithmetic on raw payoffs: deviations earn 2.39944 (Dove)
        # and 2.39804 (Hawk) against a candidate whose own value is
        # 0.19972 * 2.39944 + 0.80028 * 2.39804.
        x = np.array([0.19972, 0.80028])
        against = mutation_population().payoffs @ x
        expected = against.max() - x @ against
        got = nash_epsilon(mutation_population(), MixedStrategy(x))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(1.12e-3, abs=5e-5)

    def test_strict_pure_equilibrium_zero(self):
        g = GameMatrix(np.array([[0.9, 0.1], [0.2, 0.3]]))
        assert nash_epsilon(g, MixedStrategy.pure(0, 2)) == 0.0


class TestConsistencyProperties:
    def test_zero_error_iff_all_conditions_hold(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            m = int(rng.integers(2, 5))
            g = normalize(GameMatrix(rng.random((m, m))))
            raw = rng.random(m)
            x = MixedStrategy(raw / raw.sum())
            err = approximation_error(g, x)
            all_hold = all(check_conditions(g, x, j).holds for j in range(m))
            assert (err == 0.0) == all_hold

    def test_nash_epsilon_bounded_by_error(self):
        rng = np.random.default_rng(13)
        tol = Tolerances()
        for _ in range(300):
            m = int(rng.integers(2, 5))
            g = normalize(GameMatrix(rng.random((m, m))))
            raw = rng.random(m)
            x = MixedStrategy(raw / raw.sum())
            assert nash_epsilon(g, x) <= max(approximation_error(g, x), tol.delta) + 1e-15

    def test_tag_matches_direct_inequality_fuzz(self):
        # One million random (game, candidate, mutant) classifications compared
        # against a from-scratch evaluation of the two conditions.
        rng = np.random.default_rng(90)
        delta = 1e-7
        tol = Tolerances(delta=delta)
        pairs_per_game = 2000
        for _ in range(500):
            m = int(rng.integers(2, 6))
            a = rng.random((m, m))
            g = GameMatrix(a)
            raws = rng.random((pairs_per_game, m))
            raws /= raws.sum(axis=1, keepdims=True)
            js = rng.integers(m, size=pairs_per_game)
            for raw, j in zip(raws, js):
                x = MixedStrategy(raw)
                j = int(j)
                out = check_conditions(g, x, j, tol)
                against = a @ raw
                d = against[j] - raw @ against
                if d < -delta:
                    expected = Condition.FIRST_STRICT
                elif d <= delta and a[j, j] < raw @ a[:, j]:
                    expected = Condition.SECOND_EQUALITY
                else:
                    expected = Condition.FAILS
                assert out.tag is expected

    def test_affine_invariance_of_tags(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            m = int(rng.integers(2, 5))
            a = rng.random((m, m))
            alpha = float(rng.uniform(0.1, 10.0))
            beta = float(rng.normal(scale=5.0))
            raw = rng.random(m)
            x = MixedStrategy(raw / raw.sum())
            j = int(rng.integers(m))
            base = check_conditions(GameMatrix(a), x, j)
            scaled = check_conditions(
                GameMatrix(alpha * a + beta), x, j, Tolerances(delta=alpha * 1e-7)
            )
            assert base.tag == scaled.tag
            assert scaled.slack == pytest.approx(alpha * base.slack, rel=1e-9, abs=1e-12)


def loop_approximation_error(game, x, delta):
    """approximation_error as a per-mutant loop; the tie band is check_conditions' -delta <= d <= delta."""
    a = game.payoffs
    against = a @ x
    base = float(x @ against)
    worst = 0.0
    for i in range(game.m):
        d = float(against[i]) - base
        if d > delta:
            theta = d
        elif d >= -delta:
            theta = max(0.0, float(a[i, i] - x @ a[:, i]))
        else:
            theta = 0.0
        worst = max(worst, theta)
    return worst


def fuzzed_gap_games(seed):
    """Integer payoffs in {0,1,2} (exact ties) and uniform payoffs, m=2..7, raw and normalized."""
    rng = np.random.default_rng(seed)
    for m in range(2, 8):
        for _ in range(12):
            for a in (rng.integers(0, 3, (m, m)).astype(float), rng.random((m, m))):
                game = GameMatrix(a)
                yield game
                if a.max() > a.min():
                    yield normalize(game)


def pure_scan_deck(seed):
    """Fuzzed gap games plus cloned strategies and unnormalized rescalings."""
    rng = np.random.default_rng(seed)
    for game in fuzzed_gap_games(seed):
        yield game
        a = game.payoffs
        k = int(rng.integers(a.shape[0]))
        order = np.append(np.arange(a.shape[0]), k)  # strategy k and its clone
        yield GameMatrix(a[np.ix_(order, order)])
        yield GameMatrix(37.0 * a - 11.5)


def random_candidates(rng, m, n):
    """Simplex points on random faces, so some strategies are unplayed."""
    for _ in range(n):
        raw = rng.random(m) * (rng.random(m) < 0.7)
        if raw.sum() == 0.0:
            raw[rng.integers(m)] = 1.0
        yield raw / raw.sum()


class TestPayoffGaps:
    """The vectorized gaps against the scalar check_conditions, the spec."""

    @pytest.mark.parametrize("delta", [1e-7, 1e-3])
    def test_pure_scan_equals_scalar_loop(self, delta):
        tol = Tolerances(delta=delta)
        n_found = 0
        for g in fuzzed_gap_games(60):
            expected = [
                i
                for i in range(g.m)
                if all(
                    check_conditions(g, MixedStrategy.pure(i, g.m), j, tol).holds
                    for j in range(g.m)
                    if j != i
                )
            ]
            assert find_all_pure_esspm(g, tol) == expected
            assert find_pure_esspm(g, tol) == (expected[0] if expected else None)
            n_found += len(expected)
        assert n_found >= 100

    @pytest.mark.parametrize("delta", [1e-7, 1e-3, 0.5, 1.0])
    def test_pure_scan_equals_unit_vector_gaps(self, delta):
        # The reference is the scan through the unit-vector matmuls; integer
        # payoffs put d exactly on -delta and +delta when delta is 1.
        tol = Tolerances(delta=delta)
        n_games = n_found = 0
        for g in pure_scan_deck(65):
            itself = np.eye(g.m, dtype=bool)
            d, margin = payoff_gaps(g.payoffs, itself.astype(float))
            a = g.payoffs
            assert np.array_equal(d, a.T - a.diagonal()[:, None])
            assert np.array_equal(margin, a - a.diagonal())
            holds = (d < -delta) | ((d <= delta) & (margin > 0.0))
            expected = np.flatnonzero((holds | itself).all(axis=1)).tolist()
            assert find_all_pure_esspm(g, tol) == expected
            n_games += 1
            n_found += len(expected)
        assert n_games >= 500 and n_found >= 100

    def test_pure_nash_epsilon_is_the_unit_vector_value(self):
        n_positive = 0
        for g in pure_scan_deck(66):
            for i in range(g.m):
                expected = nash_epsilon(g, MixedStrategy.pure(i, g.m))
                got = pure_nash_epsilon(g, i)
                assert type(got) is float
                assert got == expected and np.signbit(got) == np.signbit(expected), (g.payoffs, i)
                n_positive += got > 0.0
        assert n_positive >= 1000

    @pytest.mark.parametrize("delta", [1e-7, 1e-3])
    def test_mixed_verdicts_agree_off_threshold(self, delta):
        tol = Tolerances(delta=delta)
        rng = np.random.default_rng(61)
        compared = excused = 0
        for g in fuzzed_gap_games(62):
            a = g.payoffs
            candidates = [c.strategy.probs for c in enumerate_esspm(g, tol)]
            candidates += list(random_candidates(rng, g.m, 4))
            for x in candidates:
                d, margin = payoff_gaps(a, x)
                holds = (d < -delta) | ((d <= delta) & (margin > 0.0))
                against = a @ x
                for j in range(g.m):
                    ref_d = against[j] - x @ against
                    ref_margin = x @ a[:, j] - a[j, j]
                    assert d[j] == ref_d  # same products, so nash_epsilon stays byte-stable
                    near = min(abs(ref_d + delta), abs(ref_d - delta)) < 1e-12 or (
                        abs(ref_d) <= delta and abs(ref_margin) < 1e-12
                    )
                    if holds[j] != check_conditions(g, MixedStrategy(x), j, tol).holds:
                        assert near, (a, x, j)
                        excused += 1
                    compared += 1
        assert compared >= 5000
        assert excused <= compared // 1000

    def test_approximation_error_matches_loop(self):
        rng = np.random.default_rng(63)
        n = 0
        for g in fuzzed_gap_games(64):
            if not g.is_normalized:
                continue
            candidates = [c.strategy.probs for c in enumerate_esspm(g)]
            candidates += list(random_candidates(rng, g.m, 4))
            for x in candidates:
                for delta in (1e-7, 1e-3):
                    got = approximation_error(g, MixedStrategy(x), Tolerances(delta=delta))
                    assert abs(got - loop_approximation_error(g, x, delta)) <= 1e-15
                    n += 1
        assert n >= 1000
