import csv
import io
import itertools

import numpy as np
import pytest

from esspm import (
    BatchConfig,
    GameMatrix,
    Support,
    Tolerances,
    approximation_error,
    counterexample_game,
    enumerate_esspm,
    find_pure_esspm,
    mutation_population,
    nash_epsilon,
    normalize,
    rock_paper_scissors,
    run_batch,
    solve_support,
    uniform_random,
)
from esspm import enumeration, pipeline
from esspm.enumeration import _certify
from esspm.pipeline import CSV_COLUMNS


class TestSolveSupport:
    def test_mp_full_support(self):
        strat = solve_support(mutation_population(), Support((0, 1)))
        np.testing.assert_allclose(strat.probs, [0.2, 0.8], atol=1e-12)

    def test_counterexample_bc_support(self):
        # Ties require 4 - 4p = 4p, so p = 1/2 on each of B and C.
        strat = solve_support(counterexample_game(), Support((1, 2)))
        np.testing.assert_allclose(strat.probs, [0.0, 0.5, 0.5], atol=1e-12)

    def test_rps_pair_has_no_solution(self):
        assert solve_support(rock_paper_scissors(), Support((0, 1))) is None

    def test_singleton_support(self):
        strat = solve_support(mutation_population(), Support((1,)))
        np.testing.assert_array_equal(strat.probs, [0.0, 1.0])

    def test_out_of_range_support(self):
        with pytest.raises(ValueError):
            solve_support(mutation_population(), Support((0, 5)))


class TestEnumerate:
    def test_mp_exactly_one_certificate(self):
        certs = enumerate_esspm(mutation_population())
        assert len(certs) == 1
        np.testing.assert_allclose(certs[0].strategy.probs, [0.2, 0.8], atol=1e-12)
        assert certs[0].support.indices == (0, 1)

    def test_rps_empty(self):
        assert enumerate_esspm(rock_paper_scissors()) == []

    def test_counterexample_two_certificates(self):
        certs = enumerate_esspm(counterexample_game())
        assert len(certs) == 2
        assert certs[0].support.indices == (0,)  # pure A first (smaller support)
        assert certs[1].support.indices == (1, 2)
        np.testing.assert_allclose(certs[1].strategy.probs, [0.0, 0.5, 0.5], atol=1e-12)

    def test_visits_every_support(self):
        counters = {}
        enumerate_esspm(uniform_random(4, seed=3), counters=counters)
        assert counters["supports_visited"] == 2**4 - 1

    def test_cap_enforced(self):
        g = uniform_random(21, seed=1)
        with pytest.raises(ValueError, match="cap"):
            enumerate_esspm(g)


class TestCertificates:
    def test_certificates_are_exact_on_normalized_games(self):
        tol = Tolerances()
        rng = np.random.default_rng(40)
        seen = 0
        for _ in range(60):
            m = int(rng.integers(2, 5))
            norm = normalize(GameMatrix(rng.random((m, m))))
            for cert in enumerate_esspm(norm, tol):
                assert approximation_error(norm, cert.strategy, tol) == 0.0
                assert nash_epsilon(norm, cert.strategy) <= 10.0 * tol.delta
                assert all(o.holds for o in cert.per_mutation)
                seen += 1
        assert seen >= 40

    def test_support_matches_nonzero_pattern(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            m = int(rng.integers(2, 5))
            g = GameMatrix(rng.random((m, m)))
            for cert in enumerate_esspm(g):
                assert cert.strategy.support().indices == cert.support.indices

    def test_min_slack_positive(self):
        for cert in enumerate_esspm(mutation_population()):
            assert cert.min_slack() > 0.0


def reference_enumeration(game, tol=Tolerances(), limit=None, prune=True):
    """One support at a time: the dominance rule, solve_support, the degenerate filter, _certify.

    With ``prune``, a support is skipped before its tie solve when some member
    i loses to some row j by more than delta + tau on every column of the
    support, tau = _PRUNE_GUARD * (1 + max|a|); without it, every support is
    solved, as the oracle did before the rule.
    """
    a = game.payoffs
    threshold = tol.delta + enumeration._PRUNE_GUARD * (1.0 + float(np.abs(a).max()))
    found = []
    counters = {"supports_visited": 0, "singular_skipped": 0, "dominated_skipped": 0}
    for size in range(1, game.m + 1):
        for combo in itertools.combinations(range(game.m), size):
            counters["supports_visited"] += 1
            cols = list(combo)
            # gaps[r, j, c] = a[j, c] - a[combo[r], c] over the support's columns c.
            gaps = a[None, :, cols] - a[cols][:, None, cols]
            if prune and (gaps > threshold).all(axis=2).any():
                counters["dominated_skipped"] += 1
                continue
            support = Support(combo)
            strategy = solve_support(game, support)
            if strategy is None:
                counters["singular_skipped"] += 1
                continue
            if np.any(strategy.probs[cols] <= 1e-9):
                continue
            cert = _certify(game, strategy, support, tol)
            if cert is not None:
                found.append(cert)
                if len(found) == limit:
                    return found, counters
    return found, counters


def plain_tie_solve(game, combo):
    """The tie system built row by row and solved alone, with the oracle's filters."""
    a, s = game.payoffs, len(combo)
    mat = np.zeros((s, s))
    rhs = np.zeros(s)
    for r, strat in enumerate(combo[1:]):
        mat[r] = a[strat, list(combo)] - a[combo[0], list(combo)]
    mat[s - 1] = 1.0
    rhs[s - 1] = 1.0
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError:
        return None
    if np.max(np.abs(mat @ sol - rhs)) > 1e-8 or sol.min() < -1e-9:
        return None
    sol = np.clip(sol, 0.0, None)
    if sol.sum() <= 0.0:
        return None
    probs = np.zeros(game.m)
    probs[list(combo)] = sol / sol.sum()
    return probs


def cert_keys(certs):
    return [
        (
            c.support.indices,
            c.strategy.probs.tobytes(),
            tuple((o.tag, o.slack) for o in c.per_mutation),
        )
        for c in certs
    ]


def fuzzed_games(seed, ms, per_m):
    """Integer payoffs in {0,1,2} (ties, exactly singular systems) and uniform payoffs."""
    rng = np.random.default_rng(seed)
    for m in ms:
        for _ in range(per_m):
            yield GameMatrix(rng.integers(0, 3, (m, m)).astype(float))
            yield GameMatrix(rng.random((m, m)))


def chunk_delta_params(chunks):
    """(chunk, delta) pairs; the default delta keeps the bare chunk as its id.

    The integer-{0,1,2} games put exact ties in the SECOND_EQUALITY band at
    every delta; the wider bands add inexact ones (0 < |d| <= delta), so the
    oracle's screen also decides ties whose d is not rounding noise.
    """
    default = Tolerances().delta
    return [
        pytest.param(chunk, delta, id=str(chunk) if delta == default else f"{chunk}-delta{delta:g}")
        for delta in (default, 1e-3, 0.05)
        for chunk in chunks
    ]


class TestStackedKernel:
    @pytest.mark.parametrize("chunk, delta", chunk_delta_params([enumeration.CHUNK, 5]))
    def test_matches_scalar_reference_bitwise(self, monkeypatch, chunk, delta):
        # A 5-support chunk puts chunk boundaries inside every size from m=4 on.
        monkeypatch.setattr(enumeration, "CHUNK", chunk)
        tol = Tolerances(delta=delta)
        n_certs = 0
        for game in fuzzed_games(50, range(2, 10), 4):
            expected, expected_counters = reference_enumeration(game, tol)
            counters = {}
            got = enumerate_esspm(game, tol, counters=counters)
            assert cert_keys(got) == cert_keys(expected)
            assert counters == expected_counters
            n_certs += len(got)
        assert n_certs >= 40

    def test_solve_support_matches_plain_solve_bitwise(self):
        n_solved = 0
        for game in fuzzed_games(51, range(2, 8), 3):
            for size in range(1, game.m + 1):
                for combo in itertools.combinations(range(game.m), size):
                    expected = plain_tie_solve(game, combo)
                    got = solve_support(game, Support(combo))
                    if expected is None:
                        assert got is None
                    else:
                        assert got.probs.tobytes() == expected.tobytes()
                        n_solved += 1
        assert n_solved >= 100

    def test_singular_member_falls_back_per_matrix(self, monkeypatch):
        # Rows 0 and 1 are equal, so every support holding both has an exactly
        # singular tie matrix and the stacked solve of its size must fall back.
        game = GameMatrix(
            [[0.0, 1.0, 2.0, 1.0], [0.0, 1.0, 2.0, 1.0], [2.0, 0.0, 1.0, 0.0], [1.0, 2.0, 0.0, 2.0]]
        )
        solve = np.linalg.solve
        failed_stacks = []

        def spy(mat, rhs):
            try:
                return solve(mat, rhs)
            except np.linalg.LinAlgError:
                if mat.ndim == 3 and len(mat) > 1:
                    failed_stacks.append(len(mat))
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        counters = {}
        got = enumerate_esspm(game, counters=counters)
        expected, expected_counters = reference_enumeration(game)
        assert failed_stacks
        assert cert_keys(got) == cert_keys(expected)
        assert counters == expected_counters
        assert counters["singular_skipped"] >= 2  # (0,1,2), (0,1,2,3)
        # Row 3 beats rows 0 and 1 by 1 on the columns of (0,1) and (0,1,3),
        # so those two singular supports are pruned before the solve.
        assert counters["dominated_skipped"] >= 2


class TestScreen:
    def test_rows_inside_the_guard_survive(self):
        delta = 1e-3
        g = enumeration._SCREEN_GUARD * 2.0  # the guard of a game with max|a| = 2
        # (d, margin) of the one interesting mutant; the other two hold clearly.
        cases = [
            ((delta + g / 2, 1.0), False),  # gain within the guard of the band
            ((delta + 2 * g, 1.0), True),  # clear gain
            ((delta - g / 2, -2 * g), False),  # tie lost, but d within the guard of the band edge
            ((-delta + g / 2, -2 * g), False),
            ((delta - 2 * g, -2 * g), True),  # clear tie, clearly lost
            ((-delta + 2 * g, -2 * g), True),
            ((delta - 2 * g, -g / 2), False),  # clear tie, loss within the guard
            ((-delta - g / 2, -1.0), False),  # first condition within the guard
            ((-delta - 2 * g, -1.0), False),  # first condition holds
        ]
        d = np.full((len(cases), 3), -1.0)
        margin = np.ones((len(cases), 3))
        for row, ((dj, mj), _) in enumerate(cases):
            d[row, 1], margin[row, 1] = dj, mj
        dropped = enumeration._fails_clearly(d, margin, delta, g)
        assert dropped.tolist() == [fails for _, fails in cases]

    @staticmethod
    def stack_sizes(monkeypatch, name):
        """Row counts of each call to ``enumeration.<name>`` over first-certificate
        searches on 20 no-pure uniform m=10 games from seed 300."""
        real = getattr(enumeration, name)
        stacks = []

        def spy(payoffs, rows):
            stacks.append(len(rows))
            return real(payoffs, rows)

        monkeypatch.setattr(enumeration, name, spy)
        games = (normalize(uniform_random(10, seed=seed)) for seed in itertools.count(300))
        for game in itertools.islice((g for g in games if find_pure_esspm(g) is None), 20):
            enumerate_esspm(game, limit=1)
        return stacks

    def test_empty_chunk_is_not_screened(self, monkeypatch):
        # Many chunks keep no candidate after the tie solve; those skip the screen.
        stacks = self.stack_sizes(monkeypatch, "payoff_gaps")
        assert stacks and 0 not in stacks

    def test_dead_chunk_is_not_solved(self, monkeypatch):
        # Some chunks lose every support to the dominance prune; those call no tie solve.
        stacks = self.stack_sizes(monkeypatch, "_solve_ties")
        assert stacks and 0 not in stacks


def prune_fuzz_games(seed, per_kind):
    """Integer {0..3}, one-decimal, and unnormalized uniform payoffs at two scales, m = 2..7."""
    rng = np.random.default_rng(seed)
    for m in range(2, 8):
        for _ in range(per_kind):
            yield GameMatrix(rng.integers(0, 4, (m, m)).astype(float))
            yield GameMatrix(rng.integers(0, 10, (m, m)) / 10.0)
            yield GameMatrix(rng.random((m, m)) * 1e-3)
            yield GameMatrix(rng.random((m, m)) * 1e3)


class TestDominancePrune:
    @pytest.mark.parametrize("limit", [None, 1])
    @pytest.mark.parametrize("chunk", [enumeration.CHUNK, 3])
    @pytest.mark.parametrize("delta", [1e-7, 1e-3])
    def test_pruning_removes_no_certificate(self, monkeypatch, delta, chunk, limit):
        # 8 cases x 384 games: 3,072 games in all.
        monkeypatch.setattr(enumeration, "CHUNK", chunk)
        tol = Tolerances(delta=delta)
        n_certs = n_pruned = n_visited = 0
        for game in prune_fuzz_games(60, 16):
            counters = {}
            got = enumerate_esspm(game, tol, limit=limit, counters=counters)
            expected, expected_counters = reference_enumeration(game, tol, limit)
            unpruned, _ = reference_enumeration(game, tol, limit, prune=False)
            assert cert_keys(got) == cert_keys(expected) == cert_keys(unpruned)
            assert counters == expected_counters
            n_certs += len(got)
            n_pruned += counters["dominated_skipped"]
            n_visited += counters["supports_visited"]
        assert n_certs >= 300
        assert n_pruned >= n_visited // 5  # the rule fires on a real share of supports

    def test_planted_dominated_member(self):
        # The counterexample game plus a strategy that earns 1 less than
        # strategy 0 against everything: every support holding it is pruned,
        # and the pure and the mixed certificate stay, with the unpruned bytes.
        a = counterexample_game().payoffs
        planted = np.zeros((4, 4))
        planted[:3, :3] = a
        planted[:3, 3] = a[:, 0]
        planted[3] = planted[0] - 1.0
        game = GameMatrix(planted)
        counters = {}
        got = enumerate_esspm(game, counters=counters)
        unpruned, _ = reference_enumeration(game, prune=False)
        assert [c.support.indices for c in got] == [(0,), (1, 2)]
        assert cert_keys(got) == cert_keys(unpruned)
        assert counters["dominated_skipped"] >= 2 ** 3  # the 8 supports holding 3
        assert counters == reference_enumeration(game)[1]


class TestLimit:
    @pytest.mark.parametrize("chunk, delta", chunk_delta_params([enumeration.CHUNK, 3]))
    def test_first_certificate_is_prefix_of_full_list(self, monkeypatch, chunk, delta):
        monkeypatch.setattr(enumeration, "CHUNK", chunk)
        tol = Tolerances(delta=delta)
        games = [counterexample_game(), rock_paper_scissors(), mutation_population()]
        games += list(fuzzed_games(52, range(3, 9), 3))
        for game in games:
            counters = {}
            first = enumerate_esspm(game, tol, limit=1, counters=counters)
            assert cert_keys(first) == cert_keys(enumerate_esspm(game, tol)[:1])
            # Counters stop at the support of the first certificate.
            assert counters == reference_enumeration(game, tol, limit=1)[1]

    def test_planted_full_support_is_the_first_certificate(self):
        # -I plus small noise: every proper support loses to a mutant outside
        # it, so limit=1 visits all 2^m - 1 supports and certifies the last.
        m = 12
        rng = np.random.default_rng(12)
        game = normalize(GameMatrix(-np.eye(m) + 0.05 * rng.standard_normal((m, m))))
        counters = {}
        first = enumerate_esspm(game, limit=1, counters=counters)
        expected, expected_counters = reference_enumeration(game, limit=1)
        assert [c.support.indices for c in first] == [tuple(range(m))]
        assert cert_keys(first) == cert_keys(expected)
        assert counters == expected_counters
        assert counters["supports_visited"] == 2**m - 1

    def test_limit_two_on_counterexample(self):
        certs = enumerate_esspm(counterexample_game(), limit=2)
        assert [c.support.indices for c in certs] == [(0,), (1, 2)]

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            enumerate_esspm(uniform_random(3, seed=1), limit=0)

    @pytest.mark.parametrize("limit", [1.5, 1.0, "1"])
    def test_non_integer_limit_rejected(self, limit):
        # A float limit never equals the certificate count, so it used to
        # enumerate every support: 2 certificates here, where limit=1 gives 1.
        game = normalize(uniform_random(6, 3))
        with pytest.raises(ValueError, match="limit must be an integer"):
            enumerate_esspm(game, limit=limit)
        assert len(enumerate_esspm(game, limit=np.int64(1))) == 1

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_enum_batch_csv_matches_full_enumeration(self, monkeypatch, m):
        cfg = BatchConfig(game_class="uniform", m=m, n_games=60, seed=900 + m, solver="enum")
        calls = []

        def csv_rows():
            buf = io.StringIO()
            run_batch(cfg, out=buf)
            runtime = CSV_COLUMNS.index("runtime_ms")
            return [row[:runtime] + row[runtime + 1 :] for row in csv.reader(io.StringIO(buf.getvalue()))]

        def full(game, tol, **kwargs):
            calls.append(kwargs.pop("limit"))
            return enumerate_esspm(game, tol, **kwargs)

        first_only = csv_rows()
        monkeypatch.setattr(pipeline, "enumerate_esspm", full)
        assert csv_rows() == first_only
        assert calls and set(calls) == {1}  # the enum pipeline asks for one certificate
