import sys
import threading

import numpy as np
import pytest

from esspm import (
    CancerParams,
    cancer_game,
    chicken,
    counterexample_game,
    find_pure_esspm,
    mutation_population,
    random_cancer_params,
    rock_paper_scissors,
    uniform_random,
)


class TestFixedGames:
    def test_mutation_population_entries(self):
        mp = mutation_population()
        assert mp.payoffs[0, 0] == 4.0  # Dove vs Dove
        assert mp.payoffs[1, 0] == 8.0  # Hawk vs Dove

    def test_mp_satisfies_chicken_ordering(self):
        a = mutation_population().payoffs
        assert a[1, 0] > a[0, 0] > a[0, 1] > a[1, 1]

    def test_mp_has_no_pure_solution(self):
        assert find_pure_esspm(mutation_population()) is None

    def test_counterexample_entries(self):
        g = counterexample_game()
        assert g.payoffs[1, 0] == 2.0  # B vs A
        assert g.payoffs[1, 2] == 4.0  # B vs C

    def test_counterexample_pure_solution_is_a(self):
        assert find_pure_esspm(counterexample_game()) == 0

    def test_rps_entries(self):
        g = rock_paper_scissors()
        assert g.payoffs[0, 2] == 1.0  # rock beats scissors
        assert g.payoffs[2, 0] == 0.0
        assert g.payoffs[0, 0] == pytest.approx(2.0 / 3.0)

    def test_rps_row_sums(self):
        sums = rock_paper_scissors().payoffs.sum(axis=1)
        np.testing.assert_allclose(sums, 5.0 / 3.0)


class TestUniformRandom:
    def test_entries_in_range(self):
        g = uniform_random(5, seed=42)
        assert g.payoffs.min() >= 0.0 and g.payoffs.max() < 1.0

    def test_deterministic_in_seed(self):
        assert uniform_random(4, seed=9) == uniform_random(4, seed=9)
        assert uniform_random(4, seed=9) != uniform_random(4, seed=10)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            uniform_random(1, seed=0)

    def test_pure_fraction_near_three_quarters(self):
        # A pure solution exists exactly when some diagonal entry is its
        # column maximum; for 2x2 that is 1 - (1/2)^2 = 0.75.
        n = 2000
        hits = sum(
            find_pure_esspm(uniform_random(2, seed=1000 + i)) is not None
            for i in range(n)
        )
        assert hits / n == pytest.approx(0.75, abs=0.03)


class TestChicken:
    def test_ordering_holds_on_ten_thousand(self):
        for seed in range(10_000):
            a = chicken(seed).payoffs
            assert a[1, 0] > a[0, 0] > a[0, 1] > a[1, 1]

    def test_deterministic(self):
        assert chicken(5) == chicken(5)

    def test_never_has_pure_solution(self):
        for seed in range(100):
            assert find_pure_esspm(chicken(seed)) is None


class TestCancer:
    def test_zero_params_all_ones(self):
        g = cancer_game(CancerParams(0, 0, 0, 0, 0, 0, 0))
        np.testing.assert_array_equal(g.payoffs, np.ones((4, 4)))

    def test_half_params_spot_values(self):
        g = cancer_game(CancerParams(*([0.5] * 7)))
        assert g.payoffs[2, 3] == pytest.approx(0.75)  # (1+g)(1-c) = 1.5 * 0.5
        assert g.payoffs[1, 1] == pytest.approx(1.5)  # 1 - a + d + f

    def test_baseline_entry_constant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = CancerParams(*rng.uniform(0, 0.5, 7))
            assert cancer_game(p).payoffs[0, 0] == 1.0

    def test_random_params_in_range_and_deterministic(self):
        p = random_cancer_params(seed=77)
        vals = [p.a, p.b, p.c, p.d, p.e, p.f, p.g]
        assert all(0.0 <= v <= 0.5 for v in vals)
        assert random_cancer_params(seed=77) == p

    def test_payoffs_nonnegative_and_bounded(self):
        # Largest formula is 1 + d + g <= 2 for params in [0, 0.5].
        for seed in range(200):
            g = cancer_game(random_cancer_params(seed))
            assert g.payoffs.min() >= 0.0
            assert g.payoffs.max() <= 2.0

    def test_rejects_negative_param(self):
        with pytest.raises(ValueError):
            CancerParams(-0.1, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", "acg")
    def test_rejects_non_finite_param(self, value, name):
        params = dict.fromkeys("abcdefg", 0.5) | {name: value}
        with pytest.raises(ValueError, match=f"cancer parameter {name}={value} must be finite"):
            CancerParams(**params)


MASK = 0xFFFF_FFFF_FFFF_FFFF
EDGE_SEEDS = [0, 1, 2**63, 2**64 - 1, -1, 2**64 + 5]


def fresh_rng(seed):
    return np.random.Generator(np.random.Philox(key=seed & MASK))


def reference_games(seed):
    """Every randomized class of one seed, drawn from a freshly built generator each."""
    games = [fresh_rng(seed).random((m, m)) for m in range(2, 21)]
    rng = fresh_rng(seed)
    while True:
        draws = np.sort(rng.random(4))
        if draws[0] < draws[1] < draws[2] < draws[3]:
            break
    a22, a12, a11, a21 = draws
    games.append(np.array([[a11, a12], [a21, a22]]))
    games.append(np.array(fresh_rng(seed).uniform(0.0, 0.5, size=7)))
    return games


def module_games(seed):
    p = random_cancer_params(seed)
    return [uniform_random(m, seed).payoffs for m in range(2, 21)] + [
        chicken(seed).payoffs,
        np.array([p.a, p.b, p.c, p.d, p.e, p.f, p.g]),
    ]


def same_bits(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )


class TestPhiloxStreams:
    """A re-keyed generator reproduces a fresh Philox(key=seed) bit for bit."""

    def deck(self):
        return EDGE_SEEDS + [int(s) for s in np.random.default_rng(5).integers(0, 2**63, 300)]

    def test_each_seed_matches_a_fresh_generator(self):
        for seed in self.deck():
            assert same_bits(module_games(seed), reference_games(seed)), seed

    def test_interleaved_seeds_match(self):
        seeds = self.deck()
        want = {s: reference_games(s) for s in seeds}
        rng = np.random.default_rng(6)
        for _ in range(400):
            a, b = (seeds[i] for i in rng.integers(len(seeds), size=2))
            m = int(rng.integers(2, 21))
            assert uniform_random(m, a).payoffs.tobytes() == want[a][m - 2].tobytes()
            assert chicken(b).payoffs.tobytes() == want[b][-2].tobytes()
            assert uniform_random(m, b).payoffs.tobytes() == want[b][m - 2].tobytes()

    def test_a_partly_drawn_generator_is_reset(self):
        # A chicken draw leaves buffered bits behind; the next call must not see them.
        chicken(3)
        random_cancer_params(4)
        assert same_bits(module_games(9), reference_games(9))

    def test_threads_each_reproduce_the_reference(self):
        seeds = EDGE_SEEDS + list(range(100, 130))
        want = {s: reference_games(s) for s in seeds}
        n_threads = 8  # more than the cores of a small CI box, so threads preempt each other
        mismatches = []

        def worker(offset):
            for r in range(6):
                for seed in seeds[offset % len(seeds):] + seeds[: offset % len(seeds)]:
                    if not same_bits(module_games(seed), want[seed]):
                        mismatches.append((offset, r, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(5 * t,)) for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches
