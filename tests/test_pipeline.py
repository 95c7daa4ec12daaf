import csv
import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest

from esspm import (
    BatchConfig,
    GameMatrix,
    Infeasible,
    LimitReached,
    MixedEsspm,
    MixedStrategy,
    PureEsspm,
    SolveLimits,
    SolveResult,
    SolveStats,
    SolverError,
    Tolerances,
    build_model,
    counterexample_game,
    enumerate_esspm,
    find_pure_esspm,
    linearization_error_bound,
    mutation_population,
    nash_epsilon,
    normalize,
    read_game,
    rock_paper_scissors,
    run_batch,
    solve_record,
    uniform_random,
)
from esspm.pipeline import CSV_COLUMNS, GAME_CLASSES, SOLVERS, GameRecord, _csv_row, make_game


def batch_csv(cfg):
    buf = io.StringIO()
    stats = run_batch(cfg, out=buf)
    buf.seek(0)
    return stats, list(csv.reader(buf))


class TestSolveOne:
    def test_counterexample_pure(self):
        out = solve_record(counterexample_game(), BatchConfig(game_class="counterexample")).outcome
        assert out == PureEsspm(0)

    def test_mp_milp(self):
        record = solve_record(mutation_population(), BatchConfig(game_class="mp"))
        out = record.outcome
        assert isinstance(out, MixedEsspm)
        assert np.max(np.abs(out.strategy.probs - np.array([0.2, 0.8]))) <= 0.01
        assert record.error <= 1e-3

    def test_mp_enum(self):
        out = solve_record(
            mutation_population(), BatchConfig(game_class="mp", solver="enum")
        ).outcome
        assert isinstance(out, MixedEsspm)
        np.testing.assert_allclose(out.strategy.probs, [0.2, 0.8], atol=1e-9)

    def test_rps_both_agree_infeasible(self):
        out = solve_record(rock_paper_scissors(), BatchConfig(game_class="rps", solver="both")).outcome
        assert isinstance(out, Infeasible)

    @pytest.mark.parametrize(
        "cls, game", [("mp", mutation_population()), ("rps", rock_paper_scissors())], ids=["mp", "rps"]
    )
    def test_milp_solves_the_compact_model(self, monkeypatch, cls, game):
        # The search runs on build_model's exact model: the x/z/y rows, with
        # the links kept as a field of their own.
        import esspm.pipeline

        models = []
        real_solve = esspm.pipeline.solve

        def spy(model, *args, **kwargs):
            models.append(model)
            return real_solve(model, *args, **kwargs)

        monkeypatch.setattr(esspm.pipeline, "solve", spy)
        solve_record(game, BatchConfig(game_class=cls))
        (model,) = models
        m = game.m
        assert len(model.variables) == 2 * m + 1
        assert len(model.rows) == 4 * m + 1
        assert model == build_model(normalize(game)) and len(model.links) == m


class TestMakeGame:
    def test_seeded_per_index(self):
        cfg = BatchConfig(game_class="uniform", m=3, n_games=5, seed=100)
        assert make_game(cfg, 2) == make_game(
            BatchConfig(game_class="uniform", m=3, seed=102), 0
        )

    def test_file_class(self, tmp_path):
        path = tmp_path / "game.txt"
        path.write_text("2\n4 2\n8 1\n")
        cfg = BatchConfig(game_class="file", game=read_game(path.read_text()))
        assert make_game(cfg, 0) == mutation_population()

    def test_file_class_requires_path(self):
        with pytest.raises(ValueError, match="needs a game"):
            BatchConfig(game_class="file")

    def test_game_only_for_file_class(self):
        with pytest.raises(ValueError, match="no other class takes one"):
            BatchConfig(game_class="uniform", game=mutation_population())

    @pytest.mark.parametrize("solver", ["enum", "both"])
    def test_file_game_over_the_enumeration_cap(self, solver):
        game = uniform_random(21, 4)
        with pytest.raises(ValueError, match="enumeration cap"):
            BatchConfig(game_class="file", game=game, solver=solver)
        assert BatchConfig(game_class="file", game=game).game is game


class TestChoiceTables:
    """Each list of choices is the keys of one table of the code it selects."""

    def test_lists_keep_their_order(self):
        assert GAME_CLASSES == ("uniform", "chicken", "cancer", "mp", "rps", "counterexample", "file")
        assert SOLVERS == ("milp", "enum", "both")
        assert CSV_COLUMNS == [
            "game_id", "class", "m", "k", "eps", "delta", "method", "status", "support_size",
            "strategy", "error", "nash_eps", "runtime_ms", "disagreement",
        ]

    @pytest.mark.parametrize("game_class", [name for name in GAME_CLASSES if name != "file"])
    def test_every_class_makes_a_game_of_its_size(self, game_class):
        cfg = BatchConfig(game_class=game_class, seed=5)
        game = make_game(cfg, 1)
        assert isinstance(game, GameMatrix) and game.m == BatchConfig(game_class=game_class).m

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_every_solver_answers_mp(self, solver):
        record = solve_record(mutation_population(), BatchConfig(game_class="mp", solver=solver))
        assert isinstance(record.outcome, MixedEsspm) and record.disagreement == 0


class TestRunBatch:
    def test_row_count_and_columns(self):
        cfg = BatchConfig(game_class="uniform", m=2, n_games=25, seed=7)
        stats, rows = batch_csv(cfg)
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + cfg.n_games
        assert stats.total == cfg.n_games

    def test_counts_reconcile_with_rows(self):
        cfg = BatchConfig(game_class="uniform", m=2, n_games=30, seed=11, solver="milp")
        stats, rows = batch_csv(cfg)
        status_col = CSV_COLUMNS.index("status")
        by_status = {}
        for row in rows[1:]:
            by_status[row[status_col]] = by_status.get(row[status_col], 0) + 1
        assert by_status.get("PURE", 0) == stats.n_pure
        assert by_status.get("OPTIMAL", 0) == stats.n_optimal
        assert by_status.get("INFEASIBLE", 0) == stats.n_infeasible
        assert by_status.get("LIMIT", 0) == stats.n_limit

    def test_deterministic_apart_from_runtime(self):
        cfg = BatchConfig(game_class="uniform", m=2, n_games=15, seed=3)
        _, rows_a = batch_csv(cfg)
        _, rows_b = batch_csv(cfg)
        rt = CSV_COLUMNS.index("runtime_ms")
        strip = lambda rows: [r[:rt] + r[rt + 1 :] for r in rows]
        assert strip(rows_a) == strip(rows_b)

    def test_uniform_pure_fraction(self):
        cfg = BatchConfig(game_class="uniform", m=2, n_games=400, seed=500)
        stats, _ = batch_csv(cfg)
        assert stats.n_pure / cfg.n_games == pytest.approx(0.75, abs=0.08)

    def test_chicken_all_mixed(self):
        cfg = BatchConfig(game_class="chicken", n_games=30, seed=0)
        stats, rows = batch_csv(cfg)
        assert stats.n_pure == 0
        assert stats.n_optimal == 30
        assert stats.mean_error_optimal <= 5e-3

    def test_both_mode_marks_agreement(self):
        cfg = BatchConfig(game_class="chicken", n_games=8, seed=4, solver="both")
        _, rows = batch_csv(cfg)
        dis = CSV_COLUMNS.index("disagreement")
        assert all(row[dis] == "0" for row in rows[1:])

    def test_strategy_column_format(self):
        cfg = BatchConfig(game_class="mp", n_games=1, seed=0)
        _, rows = batch_csv(cfg)
        strat_col = CSV_COLUMNS.index("strategy")
        parts = rows[1][strat_col].split(";")
        assert len(parts) == 2
        assert float(parts[0]) == pytest.approx(0.2, abs=0.01)

    def test_writes_file(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = BatchConfig(game_class="mp", n_games=2, seed=0)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            run_batch(cfg, fh)
        content = out.read_text()
        assert content.count("\n") == 3  # header + 2 rows


class TestBothExcuse:
    """Under --solver both a MILP miss is excused only when every oracle margin is at most eps."""

    MP = normalize(mutation_population())

    @staticmethod
    def miss_flag(monkeypatch, eps):
        import esspm.pipeline

        infeasible = SolveResult(Infeasible(), None, SolveStats())
        monkeypatch.setattr(esspm.pipeline, "solve", lambda model, limits: infeasible)
        _, rows = batch_csv(BatchConfig(game_class="mp", eps=eps, solver="both"))
        assert rows[1][CSV_COLUMNS.index("status")] == "INFEASIBLE"
        return rows[1][CSV_COLUMNS.index("disagreement")]

    def test_miss_above_eps_is_flagged(self, monkeypatch):
        (cert,) = enumerate_esspm(self.MP)
        slack = cert.min_slack()
        bound = linearization_error_bound(self.MP, 20)
        eps = slack - bound / 2
        # eps + the k = 20 linearization bound would have excused this miss.
        assert eps < slack <= eps + bound
        assert self.miss_flag(monkeypatch, eps) == "1"

    def test_miss_at_or_below_eps_is_excused(self, monkeypatch):
        (cert,) = enumerate_esspm(self.MP)
        assert self.miss_flag(monkeypatch, cert.min_slack()) == "0"


class TestBothOracleCalls:
    """Under --solver both the oracle is asked only what the MILP verdict needs."""

    @pytest.mark.parametrize(
        "cfg, outcome, limits",
        [
            (BatchConfig(game_class="uniform", m=4, seed=1, solver="both", limits=SolveLimits(max_nodes=1)),
             LimitReached, []),
            (BatchConfig(game_class="mp", solver="both"), MixedEsspm, [1]),
            (BatchConfig(game_class="rps", solver="both"), Infeasible, [None]),
        ],
        ids=["limit", "optimal", "infeasible"],
    )
    def test_oracle_limit_per_verdict(self, monkeypatch, cfg, outcome, limits):
        import esspm.pipeline

        real = esspm.pipeline.enumerate_esspm
        seen = []

        def spy(game, tol, *, limit=None):
            seen.append(limit)
            return real(game, tol, limit=limit)

        monkeypatch.setattr(esspm.pipeline, "enumerate_esspm", spy)
        record = solve_record(make_game(cfg, 0), cfg)
        assert isinstance(record.outcome, outcome)
        assert seen == limits and record.disagreement == 0

    def test_optimal_without_certificate_is_flagged(self, monkeypatch):
        import esspm.pipeline

        monkeypatch.setattr(esspm.pipeline, "enumerate_esspm", lambda game, tol, *, limit=None: [])
        cfg = BatchConfig(game_class="mp", solver="both")
        record = solve_record(make_game(cfg, 0), cfg)
        assert isinstance(record.outcome, MixedEsspm) and record.disagreement == 1


class TestErrorRows:
    """A SolverError in one game costs that game an ERROR row, not the batch."""

    def test_breakdown_writes_an_error_row_and_goes_on(self, monkeypatch):
        import esspm.pipeline

        real_solve = esspm.pipeline.solve
        calls = []

        def breaks_on_third(model, limits):
            calls.append(model)
            if len(calls) == 3:
                raise SolverError("vanishing pivot")
            return real_solve(model, limits)

        monkeypatch.setattr(esspm.pipeline, "solve", breaks_on_third)
        cfg = BatchConfig(game_class="chicken", n_games=5, seed=0, solver="milp")
        stats, rows = batch_csv(cfg)
        assert len(calls) == 5 and len(rows) == 6
        col = {name: CSV_COLUMNS.index(name) for name in CSV_COLUMNS}
        failed = rows[3]
        assert failed[col["game_id"]] == "2" and failed[col["status"]] == "ERROR"
        for name in ("support_size", "strategy", "error", "nash_eps"):
            assert failed[col[name]] == "", name
        assert failed[col["disagreement"]] == "0"
        assert float(failed[col["runtime_ms"]]) >= 0.0
        assert [row[col["status"]] for row in rows[1:]].count("OPTIMAL") == 4
        assert (stats.n_error, stats.n_optimal, stats.total) == (1, 4, 5)


class TestNashEpsColumn:
    @staticmethod
    def cell(nash_eps):
        strategy = MixedStrategy(np.array([0.2, 0.8]))
        record = GameRecord(
            game_id=0,
            outcome=MixedEsspm(strategy),
            strategy=strategy,
            error=0.0,
            nash_eps=nash_eps,
            runtime_ms=1.0,
            disagreement=0,
        )
        return _csv_row(record, BatchConfig(game_class="mp"))[CSV_COLUMNS.index("nash_eps")]

    def test_rounding_noise_prints_zero(self):
        assert self.cell(1.1e-16) == "0"
        assert self.cell(0.0) == "0"

    def test_values_above_the_floor_keep_their_format(self):
        assert self.cell(2e-6) == "2e-06"
        assert self.cell(1e-12) == "1e-12"

    def test_missing_value_is_empty(self):
        assert self.cell(None) == ""


class TestPureAnswers:
    """A pure answer's record, read from the scan, is the spec's bit for bit."""

    @staticmethod
    def pure_games():
        rng = np.random.default_rng(29)
        for m in range(2, 9):
            for seed in range(30):
                yield uniform_random(m, seed=1000 * m + seed)
                ties = rng.integers(0, 3, (m, m)).astype(float)
                yield GameMatrix(ties)  # exact ties
                # Near ties inside the delta band: a pure answer gains up to delta.
                yield GameMatrix(ties + 1e-8 * rng.random((m, m)))

    def test_pure_records_match_the_spec(self):
        n_pure = n_positive = 0
        for game in self.pure_games():
            norm = normalize(game)
            i = find_pure_esspm(norm)
            if i is None:
                continue
            record = solve_record(game, BatchConfig(m=game.m, solver="enum"))
            spec = MixedStrategy.pure(i, game.m)
            assert record.outcome == PureEsspm(i)
            assert record.strategy == spec and record.error == 0.0
            assert record.nash_eps == nash_epsilon(norm, spec), (game.payoffs, i)
            n_pure += 1
            n_positive += record.nash_eps > 0.0
        assert n_pure >= 400 and n_positive >= 40


class TestConfigValidation:
    def test_bad_class(self):
        with pytest.raises(ValueError):
            BatchConfig(game_class="poker")

    def test_bad_solver(self):
        with pytest.raises(ValueError):
            BatchConfig(solver="annealing")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            BatchConfig(n_games=0)

    def test_uniform_needs_two_strategies(self):
        with pytest.raises(ValueError, match="m must be >= 2"):
            BatchConfig(game_class="uniform", m=1)
        BatchConfig(game_class="uniform", m=2)
        with pytest.raises(ValueError, match="does not match class chicken"):
            BatchConfig(game_class="chicken", m=1)

    @pytest.mark.parametrize("name", ["eps", "delta"])
    @pytest.mark.parametrize("value", [0.0, -1e-5, float("nan"), float("inf"), "1e-5", True, np.True_])
    def test_tolerances_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            BatchConfig(**{name: value})

    def test_tolerances_are_built_once_from_delta(self):
        cfg = BatchConfig(delta=1e-3)
        assert cfg.tolerances is cfg.tolerances and cfg.tolerances == Tolerances(delta=1e-3)
        assert dataclasses.replace(cfg, delta=1e-4).tolerances == Tolerances(delta=1e-4)
        with pytest.raises(TypeError):
            BatchConfig(tolerances=Tolerances())
        with pytest.raises(ValueError, match="tolerances is declared with init=False"):
            dataclasses.replace(cfg, tolerances=Tolerances())
        assert cfg == BatchConfig(delta=1e-3) and "tolerances" not in repr(cfg)

    @pytest.mark.parametrize("solver", ["enum", "both"])
    def test_oracle_over_the_cap(self, solver):
        with pytest.raises(ValueError, match="enumeration cap"):
            BatchConfig(game_class="uniform", m=21, solver=solver)
        BatchConfig(game_class="uniform", m=20, solver=solver)
        BatchConfig(game_class="uniform", m=21, solver="milp")

    def test_the_cap_has_one_message(self):
        with pytest.raises(ValueError) as config:
            BatchConfig(m=21, solver="enum")
        with pytest.raises(ValueError) as oracle:
            enumerate_esspm(uniform_random(21, 1))
        assert str(config.value) == str(oracle.value) == "m=21 exceeds the enumeration cap of 20"

    def test_configs_share_the_default_limits(self):
        assert BatchConfig().limits is BatchConfig(seed=3).limits == SolveLimits()

    @pytest.mark.parametrize("name", ["m", "n_games", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True, np.True_])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            BatchConfig(**{name: value})

    def test_numpy_integers_are_accepted(self):
        cfg = BatchConfig(m=np.int64(3), n_games=np.int32(2), seed=np.uint8(5))
        assert (cfg.m, cfg.n_games, cfg.seed) == (3, 2, 5)

    def test_k_is_a_constant(self):
        # The paper's breakpoint count, which the CSV echoes; no config sets it.
        assert BatchConfig().k == BatchConfig.k == 20
        assert "k" not in {f.name for f in dataclasses.fields(BatchConfig)}
        with pytest.raises(TypeError):
            BatchConfig(k=20)


FIXED_SIZES = {"chicken": 2, "mp": 2, "rps": 3, "counterexample": 3, "cancer": 4}


class TestGameSize:
    """``BatchConfig.m`` is the size of the config's games, for every class."""

    @pytest.mark.parametrize(("game_class", "size"), {"uniform": 2, **FIXED_SIZES}.items())
    def test_class_defaults_to_its_size(self, game_class, size):
        cfg = BatchConfig(game_class=game_class, seed=9)
        assert cfg.m == size == make_game(cfg, 3).m
        assert BatchConfig(game_class=game_class, m=size).m == size

    def test_file_game_sets_m(self):
        game = uniform_random(5, 1)
        assert BatchConfig(game_class="file", game=game).m == 5
        assert BatchConfig(game_class="file", game=game, m=5).m == 5

    @pytest.mark.parametrize(("game_class", "size"), FIXED_SIZES.items())
    def test_fixed_class_refuses_another_m(self, game_class, size):
        for m in (size - 1, size + 1, 30):
            message = f"m {m} does not match class {game_class}, whose games have m={size}"
            with pytest.raises(ValueError, match=message):
                BatchConfig(game_class=game_class, m=m)

    def test_file_game_refuses_another_m(self):
        with pytest.raises(ValueError, match="m 3 does not match class file, whose games have m=2"):
            BatchConfig(game_class="file", game=mutation_population(), m=3)

    def test_batch_rows_carry_the_config_size(self):
        cfg = BatchConfig(game_class="cancer", n_games=3)
        _, rows = batch_csv(cfg)
        m_col = CSV_COLUMNS.index("m")
        assert cfg.m == 4
        assert [row[m_col] for row in rows[1:]] == ["4"] * 3


GOLDEN_CSV = Path(__file__).parent / "data" / "batch_golden.csv"
GOLDEN_DECK = [("uniform", 2, 40), ("uniform", 3, 40), ("uniform", 4, 40), ("chicken", 2, 40),
               ("cancer", 4, 40), ("mp", 2, 1), ("rps", 3, 1), ("counterexample", 3, 1)]


def golden_deck_csv() -> str:
    """Every batch CSV column but runtime_ms, for each solver over the deck at seed 11."""
    rt = CSV_COLUMNS.index("runtime_ms")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS[:rt] + CSV_COLUMNS[rt + 1 :])
    for solver in ("milp", "enum", "both"):
        for game_class, m, n in GOLDEN_DECK:
            cfg = BatchConfig(game_class=game_class, m=m, n_games=n, seed=11, solver=solver)
            for row in batch_csv(cfg)[1][1:]:
                writer.writerow(row[:rt] + row[rt + 1 :])
    return buf.getvalue()


def test_batch_csv_matches_golden():
    """The deck's CSV bytes, runtime aside, as the recorded file has them.

    Regenerate the file with ``python -c "import test_pipeline as t;
    t.GOLDEN_CSV.write_text(t.golden_deck_csv())"`` from ``tests/``, only for
    a change that means to alter the CSV.
    """
    assert golden_deck_csv() == GOLDEN_CSV.read_text(encoding="utf-8")
