"""Acceptance suite: one test per release criterion, each printing a PASS line.

Everything here is deterministic (fixed seeds), so reruns reproduce the same
counts and statistics exactly.
"""

import time

import numpy as np
import pytest

from esspm import (
    BatchConfig,
    GameMatrix,
    InvasionResult,
    Infeasible,
    MixedEsspm,
    MixedStrategy,
    Tolerances,
    approximation_error,
    build_model,
    cancer_game,
    chicken,
    counterexample_game,
    enumerate_esspm,
    find_pure_esspm,
    invasion_test,
    mutation_population,
    nash_epsilon,
    normalize,
    random_cancer_params,
    rock_paper_scissors,
    solve,
    solve_record,
    uniform_random,
    verify_assignment,
)

DELTA = 1e-7
EPS = 1e-5


def _report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS  {detail}")


def test_criterion_1_mutation_population_solve(capsys):
    """solve --class mp --eps 1e-5 recovers the known mixed solution."""
    from esspm.cli import cli_main

    t0 = time.perf_counter()
    code = cli_main(["solve", "--class", "mp", "--eps", "1e-5"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "status: OPTIMAL" in out
    strategy_line = next(l for l in out.splitlines() if l.startswith("strategy:"))
    probs = np.array([float(p) for p in strategy_line.split()[1].split(";")])
    error = float(next(l for l in out.splitlines() if l.startswith("error:")).split()[1])
    linf = float(np.max(np.abs(probs - np.array([0.2, 0.8]))))
    assert linf <= 0.01
    assert error <= 1e-3
    assert elapsed <= 60.0
    # Same result through the library pipeline.
    record = solve_record(mutation_population(), BatchConfig(game_class="mp", eps=EPS))
    assert isinstance(record.outcome, MixedEsspm)
    assert record.error <= 1e-3
    _report(1, f"strategy off by {linf:.2e} (L-inf), error {error:.2e}, {elapsed:.2f}s")


def test_criterion_2_breakpoint_refinement():
    """Error on the MP game is within the tightest reference ceiling, 5x k=30's.

    The paper refines its piecewise-linear z = x'Ax with more breakpoints k,
    its error falling to 5.5e-5 at k=30. The exact model has no breakpoints
    (z = x'Ax holds at every feasible point), so one solve must already meet
    the ceiling of the finest k.
    """
    record = solve_record(mutation_population(), BatchConfig(game_class="mp", eps=EPS))
    assert isinstance(record.outcome, MixedEsspm)
    assert record.error <= 5 * 5.5e-5
    _report(2, f"exact model error {record.error:.2e} <= {5 * 5.5e-5:.2e} (5x the k=30 reference)")


@pytest.mark.parametrize(
    "m,n_games,center,band",
    [(2, 10_000, 0.750, 0.015), (3, 5_000, 0.704, 0.02), (4, 5_000, 0.684, 0.02), (5, 5_000, 0.672, 0.02)],
)
def test_criterion_3_pure_fractions(m, n_games, center, band):
    """Fraction of uniform games with a pure solution matches 1 - ((m-1)/m)^m."""
    base = m * 1_000_000
    hits = sum(
        find_pure_esspm(uniform_random(m, seed=base + i)) is not None
        for i in range(n_games)
    )
    frac = hits / n_games
    assert abs(frac - center) <= band
    _report(3, f"m={m}: pure fraction {frac:.4f} within {center}+-{band}")


def test_criterion_4_chicken_class():
    """No pure solutions, oracle certifies every game, MILP misses at most 5%."""
    n = 1_000
    tol = Tolerances(delta=DELTA)
    n_pure = 0
    n_certified = 0
    n_milp = 0
    margin_explained = True
    for i in range(n):
        norm = normalize(chicken(7_000_000 + i))
        if find_pure_esspm(norm, tol) is not None:
            n_pure += 1
            continue
        certs = enumerate_esspm(norm, tol)
        if certs:
            n_certified += 1
        res = solve(build_model(norm, EPS))
        if isinstance(res.outcome, MixedEsspm):
            n_milp += 1
        elif certs:
            # A miss must be explainable: the oracle's own margin has to sit
            # at or below the model's strictness eps.
            if max(c.min_slack() for c in certs) > EPS:
                margin_explained = False
    assert n_pure == 0
    assert n_certified == n - n_pure
    false_neg = (n - n_pure - n_milp) / (n - n_pure)
    assert false_neg <= 0.05
    assert margin_explained
    _report(4, f"pure {n_pure}, certified {n_certified}/{n}, false-negative rate {false_neg:.3f}")


def test_criterion_5_oracle_agreement():
    """MILP solutions stay close to oracle certificates on uniform games."""
    tol = Tolerances(delta=DELTA)
    n_solved = 0
    worst_err = 0.0
    worst_dist = 0.0
    for m, count, base in ((2, 500, 40_000_000), (3, 200, 41_000_000)):
        for i in range(count):
            norm = normalize(uniform_random(m, seed=base + i))
            if find_pure_esspm(norm, tol) is not None:
                continue
            model = build_model(norm, EPS)
            res = solve(model)
            certs = enumerate_esspm(norm, tol)
            if isinstance(res.outcome, MixedEsspm):
                assert verify_assignment(model, res.assignment) == []  # every row and link
                strat = res.outcome.strategy
                err = approximation_error(norm, strat, tol)
                assert err <= 5e-3
                assert certs, f"m={m} game {i}: solver found what the oracle did not"
                dist = min(
                    float(np.max(np.abs(strat.probs - c.strategy.probs))) for c in certs
                )
                assert dist <= 0.02
                worst_err = max(worst_err, err)
                worst_dist = max(worst_dist, dist)
                n_solved += 1
            elif certs:
                assert max(c.min_slack() for c in certs) <= EPS, (
                    f"m={m} game {i}: miss with an oracle margin above eps"
                )
    assert n_solved >= 100
    _report(5, f"{n_solved} mixed solves, worst error {worst_err:.2e}, worst L-inf {worst_dist:.2e}")


def test_criterion_6_known_answer_suite():
    """The 3x3 counterexample and rock-paper-scissors behave as published."""
    g = counterexample_game()
    assert find_pure_esspm(g) == 0

    certs = enumerate_esspm(g)
    supports = [c.support.indices for c in certs]
    assert (0,) in supports
    mixed = next(c for c in certs if c.support.indices == (1, 2))
    np.testing.assert_allclose(mixed.strategy.probs, [0.0, 0.5, 0.5], atol=1e-12)

    pure_a = MixedStrategy.pure(0, 3)
    blend = MixedStrategy([0.0, 0.5, 0.5])
    assert invasion_test(g, pure_a, blend) is InvasionResult.INVADES
    assert invasion_test(g, pure_a, MixedStrategy.pure(1, 3)) is InvasionResult.RESISTED
    assert invasion_test(g, pure_a, MixedStrategy.pure(2, 3)) is InvasionResult.RESISTED

    rps = rock_paper_scissors()
    assert find_pure_esspm(rps) is None
    assert enumerate_esspm(normalize(rps)) == []
    res = solve(build_model(normalize(rps), EPS))
    assert isinstance(res.outcome, Infeasible)
    _report(6, "counterexample pure A + mixed (0, 1/2, 1/2); B/C resisted, blend invades; RPS empty on both routes")


def test_criterion_7_cancer_class():
    """Pure fraction near the reference 0.869 and small errors on mixed solves."""
    n = 1_000
    tol = Tolerances(delta=DELTA)
    n_pure = 0
    errors = []
    for seed in range(n):
        norm = normalize(cancer_game(random_cancer_params(seed)))
        if find_pure_esspm(norm, tol) is not None:
            n_pure += 1
            continue
        res = solve(build_model(norm, EPS))
        if isinstance(res.outcome, MixedEsspm):
            strat = res.outcome.strategy
            errors.append(approximation_error(norm, strat, tol))
    frac = n_pure / n
    assert abs(frac - 0.87) <= 0.04
    mean_error = float(np.mean(errors)) if errors else 0.0
    assert mean_error <= 0.02
    _report(7, f"pure fraction {frac:.3f}, {len(errors)} mixed solves, mean error {mean_error:.2e}")


class TestCriterion8PropertySuites:
    def test_theorem_5_nash_epsilon_of_solver_outputs(self):
        """Every solver output is a symmetric equilibrium to within 10 delta."""
        tol = Tolerances(delta=DELTA)
        outputs = 0
        games = (
            [mutation_population()]
            + [chicken(90_000 + i) for i in range(40)]
            + [uniform_random(2, seed=91_000 + i) for i in range(40)]
            + [uniform_random(3, seed=92_000 + i) for i in range(20)]
        )
        for game in games:
            norm = normalize(game)
            pure = find_pure_esspm(norm, tol)
            if pure is not None:
                assert nash_epsilon(norm, MixedStrategy.pure(pure, norm.m)) <= 10 * DELTA
                outputs += 1
                continue
            for cert in enumerate_esspm(norm, tol):
                assert nash_epsilon(norm, cert.strategy) <= 10 * DELTA
                outputs += 1
            res = solve(build_model(norm, EPS))
            if isinstance(res.outcome, MixedEsspm):
                strat = res.outcome.strategy
                assert nash_epsilon(norm, strat) <= 10 * DELTA
                outputs += 1
        assert outputs >= 100
        _report(8, f"theorem-5 nash check on {outputs} solver outputs")

    def test_theorem_6_strict_equilibria_always_found(self):
        """1,000 games with a planted strict symmetric equilibrium."""
        rng = np.random.default_rng(55)
        for _ in range(1_000):
            m = int(rng.integers(2, 6))
            a = rng.random((m, m))
            target = int(rng.integers(m))
            col = np.delete(a[:, target], target)
            a[target, target] = col.max() + float(rng.uniform(0.05, 0.5))
            # Demote every other diagonal entry below its column maximum so the
            # planted index is the unique strict symmetric equilibrium.
            for j in range(m):
                if j == target:
                    continue
                others = np.delete(a[:, j], j)
                if a[j, j] >= others.max():
                    rows = [r for r in range(m) if r != j]
                    best = rows[int(np.argmax(others))]
                    a[j, j], a[best, j] = a[best, j], a[j, j]
            game = GameMatrix(a)
            assert find_pure_esspm(game) == target
        _report(8, "theorem-6 planted strict equilibria found in 1000/1000 trials")

    def test_affine_invariance_trials(self):
        """1,000 random (A, alpha, beta, x*, j) keep the same condition tag."""
        from esspm import check_conditions

        rng = np.random.default_rng(56)
        for _ in range(1_000):
            m = int(rng.integers(2, 6))
            a = rng.random((m, m))
            alpha = float(rng.uniform(0.1, 10.0))
            beta = float(rng.normal(scale=3.0))
            raw = rng.random(m)
            x = MixedStrategy(raw / raw.sum())
            j = int(rng.integers(m))
            base = check_conditions(GameMatrix(a), x, j, Tolerances(delta=DELTA))
            scaled = check_conditions(
                GameMatrix(alpha * a + beta), x, j, Tolerances(delta=alpha * DELTA)
            )
            assert base.tag is scaled.tag
        _report(8, "affine invariance held on 1000/1000 trials")

    def test_simplex_soundness_on_feasible_results(self):
        """Every feasible assignment re-verifies against the IR from scratch."""
        tol = Tolerances(delta=DELTA)
        verified = 0
        for seed in range(60):
            norm = normalize(uniform_random(2, seed=95_000 + seed))
            if find_pure_esspm(norm, tol) is not None:
                continue
            model = build_model(norm, EPS)
            res = solve(model)
            if isinstance(res.outcome, MixedEsspm):
                assert verify_assignment(model, res.assignment) == []  # every row and link
                verified += 1
        assert verified >= 10
        _report(8, f"independent re-verification of {verified} feasible assignments")
