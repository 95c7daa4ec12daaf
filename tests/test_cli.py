import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from esspm import (
    BatchConfig,
    SolverError,
    find_pure_esspm,
    mutation_population,
    normalize,
    read_game,
    uniform_random,
    write_game,
)
from esspm.cli import cli_main


class TestGen:
    def test_writes_parsable_game(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code = cli_main(["gen", "--class", "uniform", "--m", "3", "--seed", "5", "--out", str(out)])
        assert code == 0
        game = read_game(out.read_text())
        assert game.m == 3

    def test_stdout_default(self, capsys):
        code = cli_main(["gen", "--class", "mp"])
        assert code == 0
        assert read_game(capsys.readouterr().out) == mutation_population()


class TestSolve:
    def test_mp_prints_strategy(self, capsys):
        code = cli_main(["solve", "--class", "mp", "--k", "20", "--eps", "1e-5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status: OPTIMAL" in out
        strategy_line = next(l for l in out.splitlines() if l.startswith("strategy:"))
        probs = [float(p) for p in strategy_line.split()[1].split(";")]
        assert abs(probs[0] - 0.2) <= 0.01 and abs(probs[1] - 0.8) <= 0.01

    def test_counterexample_pure(self, capsys):
        code = cli_main(["solve", "--class", "counterexample"])
        assert code == 0
        out = capsys.readouterr().out
        assert "status: PURE" in out
        assert "pure 0" in out

    def test_rps_infeasible(self, capsys):
        code = cli_main(["solve", "--class", "rps", "--solver", "both"])
        assert code == 0
        out = capsys.readouterr().out
        assert "INFEASIBLE" in out
        assert "oracle agreement: yes" in out

    def test_game_file(self, tmp_path, capsys):
        path = tmp_path / "mp.txt"
        path.write_text("2\n4 2\n8 1\n")
        code = cli_main(["solve", "--class", "file", "--game-file", str(path)])
        assert code == 0
        assert "OPTIMAL" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", ["1e307", "1e308"])
    def test_game_file_with_a_huge_range(self, tmp_path, capsys, big):
        # max - min of the 1e308 game is above the largest double; it solves as the 1e307 one does.
        path = tmp_path / "big.txt"
        path.write_text(f"2\n-{big} {big}\n0 1\n")
        assert cli_main(["solve", "--class", "file", "--game-file", str(path)]) == 0
        assert capsys.readouterr().out == "status: OPTIMAL\nstrategy: 0.5;0.5\nerror: 0\n"

    def test_game_file_needs_file_class(self, tmp_path, capsys):
        # The file holds a game with no pure ESSPM; the default uniform 2x2
        # game at seed 0 has one, so solving that instead would print PURE.
        path = tmp_path / "mp.txt"
        path.write_text("2\n4 2\n8 1\n")
        code = cli_main(["solve", "--game-file", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no other class takes one" in captured.err

    def test_file_over_the_cap_exits_before_any_solve(self, tmp_path, capsys, monkeypatch):
        import esspm.pipeline

        game = uniform_random(21, 4)
        assert find_pure_esspm(normalize(game)) is None
        path = tmp_path / "g21.txt"
        path.write_text(write_game(game))
        calls = []

        def spy(model, limits):
            calls.append(model)
            raise SolverError("the MILP should not run")

        monkeypatch.setattr(esspm.pipeline, "solve", spy)
        code = cli_main(["solve", "--class", "file", "--game-file", str(path), "--solver", "both"])
        assert code == 2
        assert calls == []
        assert "enumeration cap" in capsys.readouterr().err

    def test_node_limit(self, capsys):
        code = cli_main(["solve", "--class", "uniform", "--m", "4", "--seed", "1", "--max-nodes", "1"])
        assert code == 1
        assert capsys.readouterr().out == "status: LIMIT\n"

    def test_solver_error_exits_1(self, capsys, monkeypatch):
        import esspm.pipeline

        def breaks(model, limits):
            raise SolverError("vanishing pivot")

        monkeypatch.setattr(esspm.pipeline, "solve", breaks)
        code = cli_main(["solve", "--class", "mp"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solver error: vanishing pivot\n"


class TestBatch:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = cli_main(
            ["batch", "--class", "uniform", "--m", "2", "--n", "20", "--seed", "9",
             "--k", "10", "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 21
        assert "games=20" in capsys.readouterr().out

    def test_file_batch_reads_the_game_once(self, tmp_path, capsys, monkeypatch):
        import esspm.cli
        import esspm.pipeline

        game = tmp_path / "mp.txt"
        game.write_text("2\n4 2\n8 1\n")
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return open(file, *args, **kwargs)

        for module in (esspm.cli, esspm.pipeline):
            monkeypatch.setattr(module, "open", counting_open, raising=False)
        out = tmp_path / "f.csv"
        code = cli_main(["batch", "--class", "file", "--game-file", str(game), "--n", "50",
                         "--out", str(out)])
        assert code == 0
        assert opened.count(str(game)) == 1
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 51 and {row[7] for row in rows[1:]} == {"OPTIMAL"}

    def test_solver_error_exits_1_after_the_full_csv(self, tmp_path, capsys, monkeypatch):
        import esspm.pipeline

        def breaks(model, limits):
            raise SolverError("vanishing pivot")

        monkeypatch.setattr(esspm.pipeline, "solve", breaks)
        out = tmp_path / "r.csv"
        code = cli_main(["batch", "--class", "chicken", "--n", "3", "--out", str(out)])
        assert code == 1
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert [row[7] for row in rows] == ["status", "ERROR", "ERROR", "ERROR"]
        assert "optimal=0 infeasible=0 limit=0 error=3" in capsys.readouterr().out


class TestExportLp:
    def test_writes_lp_file(self, tmp_path, capsys):
        out = tmp_path / "mp.lp"
        code = cli_main(["export-lp", "--class", "mp", "--k", "20", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "Binary" in text and "y_0 y_1" in text
        # The exported model is the linearized one: one SOS2 set per square term.
        assert sum(": S2 ::" in line for line in text.splitlines()) == 4


class TestLibraryDefaults:
    """The CLI states no default of its own: an option left out keeps the library's."""

    OWNED = ("game_class", "m", "seed", "k", "eps", "delta", "solver", "max_nodes", "max_time_ms")
    COMMANDS = {
        "gen": ["gen"],
        "solve": ["solve"],
        "batch": ["batch", "--out", "r.csv"],
        "export-lp": ["export-lp", "--out", "m.lp"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_parser_leaves_library_options_unset(self, command):
        from esspm.cli import _build_parser

        args = vars(_build_parser().parse_args(self.COMMANDS[command]))
        owned = {name: args[name] for name in self.OWNED if name in args}
        assert owned and set(owned.values()) == {None}, owned
        assert args.get("n", 100) == 100  # batch --n is the one CLI default

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bare_command_builds_the_default_config(self, tmp_path, monkeypatch, capsys, command):
        import esspm.cli

        configs = []

        def recording(**kwargs):
            configs.append(BatchConfig(**kwargs))
            return configs[-1]

        monkeypatch.setattr(esspm.cli, "BatchConfig", recording)
        monkeypatch.chdir(tmp_path)
        assert cli_main(self.COMMANDS[command]) == 0
        n_games = 100 if command == "batch" else 1
        assert configs == [BatchConfig(n_games=n_games)]

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [("--k", "1", "k must be >= 2"), ("--eps", "nan", "eps must be positive and finite"),
         ("--eps", "0", "eps must be positive and finite")],
    )
    def test_export_lp_gets_the_config_checks(self, tmp_path, capsys, monkeypatch, flag, value, message):
        import esspm.cli

        built = []
        monkeypatch.setattr(esspm.cli, "build_model", lambda *a: built.append(a))
        out = tmp_path / "bad.lp"
        assert cli_main(["export-lp", "--class", "mp", flag, value, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert built == [] and not out.exists()


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["esspm", "esspm.cli"])
    def test_python_dash_m_solves(self, module):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "solve", "--class", "mp"],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "status: OPTIMAL" in proc.stdout
        assert proc.stdout.count("status:") == 1
        assert proc.stderr == ""  # no runpy warning: the module runs once


class TestNumpyOnlyRuntime:
    def test_solve_and_export_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: with scipy unimportable every
        # package export resolves and the CLI still solves and exports.
        src = str(Path(__file__).resolve().parent.parent / "src")
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            f"sys.path.insert(0, {src!r})\n"
            "import esspm\n"
            "from esspm import *\n"
            "assert all(name in globals() for name in esspm.__all__)\n"
            "from esspm.cli import cli_main\n"
            "assert cli_main(['solve', '--class', 'mp', '--solver', 'both']) == 0\n"
            f"assert cli_main(['export-lp', '--class', 'mp', '--k', '20', '--out', {str(tmp_path / 'm.lp')!r}]) == 0\n"
            "assert not any(name.split('.')[0] == 'scipy' and mod is not None for name, mod in sys.modules.items())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "status: OPTIMAL" in proc.stdout and "oracle agreement: yes" in proc.stdout
        assert (tmp_path / "m.lp").read_text().endswith("End\n")


class TestSizeOption:
    """``--m`` sizes a uniform game; for any other class a given --m must match the game."""

    @pytest.mark.parametrize(
        ("game_class", "m", "size"),
        [("chicken", 25, 2), ("mp", 3, 2), ("rps", 2, 3), ("counterexample", 4, 3), ("cancer", 30, 4)],
    )
    def test_solve_with_a_mismatched_m_exits_2(self, capsys, game_class, m, size):
        code = cli_main(["solve", "--class", game_class, "--m", str(m), "--solver", "enum"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"m {m} does not match class {game_class}, whose games have m={size}" in captured.err

    def test_file_game_checks_m_against_its_header(self, tmp_path, capsys):
        path = tmp_path / "mp.txt"
        path.write_text("2\n4 2\n8 1\n")
        assert cli_main(["solve", "--class", "file", "--game-file", str(path), "--m", "3"]) == 2
        assert "whose games have m=2" in capsys.readouterr().err
        assert cli_main(["solve", "--class", "file", "--game-file", str(path), "--m", "2"]) == 0
        assert "status: OPTIMAL" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["gen", "batch", "export-lp"])
    def test_mismatch_leaves_out_untouched(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_bytes(b"game_id,status\r\n7,OPTIMAL\r\n")
        code = cli_main([command, "--class", "cancer", "--m", "30", "--out", str(out)])
        assert code == 2
        assert out.read_bytes() == b"game_id,status\r\n7,OPTIMAL\r\n"
        assert capsys.readouterr().out == ""

    def test_matching_m_runs(self, tmp_path, capsys):
        assert cli_main(["solve", "--class", "cancer", "--m", "4", "--solver", "both"]) == 0
        assert "status:" in capsys.readouterr().out
        out = tmp_path / "c.csv"
        assert cli_main(["batch", "--class", "cancer", "--m", "4", "--n", "3", "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["m"] for r in rows] == ["4"] * 3

    def test_uniform_defaults_to_two_strategies(self, capsys):
        assert cli_main(["gen", "--class", "uniform"]) == 0
        assert read_game(capsys.readouterr().out).m == 2


class TestErrors:
    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["solve", "--class", "nonsense"]) == 2

    def test_missing_subcommand(self, capsys):
        assert cli_main([]) == 2

    def test_enum_batch_over_the_cap_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = cli_main(
            ["batch", "--class", "uniform", "--m", "21", "--n", "5", "--solver", "enum", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "enumeration cap" in capsys.readouterr().err

    def test_uniform_batch_below_two_strategies_leaves_out_untouched(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        out.write_bytes(b"game_id,status\r\n7,OPTIMAL\r\n")
        code = cli_main(["batch", "--class", "uniform", "--m", "1", "--out", str(out)])
        assert code == 2
        assert out.read_bytes() == b"game_id,status\r\n7,OPTIMAL\r\n"
        assert "m must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("game_text", "solver", "message"),
        [
            (None, "milp", "No such file"),
            ("2\n0 1\n1\n", "milp", "row 2 has 1 of 2 entries"),
            ("21\n" + ("0 " * 21 + "\n") * 21, "enum", "enumeration cap"),
            ("21\n" + ("0 " * 21 + "\n") * 21, "both", "enumeration cap"),
        ],
        ids=["missing", "malformed", "m21-enum", "m21-both"],
    )
    def test_file_batch_bad_game_leaves_out_untouched(self, tmp_path, capsys, game_text, solver, message):
        game = tmp_path / "g.txt"
        if game_text is not None:
            game.write_text(game_text)
        out = tmp_path / "f.csv"
        out.write_bytes(b"game_id,status\r\n7,OPTIMAL\r\n")
        code = cli_main(["batch", "--class", "file", "--game-file", str(game), "--n", "2",
                         "--solver", solver, "--out", str(out)])
        assert code == 2
        assert out.read_bytes() == b"game_id,status\r\n7,OPTIMAL\r\n"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--eps", "--delta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_leaves_out_untouched(self, tmp_path, capsys, flag, value):
        out = tmp_path / "f.csv"
        out.write_bytes(b"game_id,status\r\n7,OPTIMAL\r\n")
        code = cli_main(["batch", "--class", "uniform", "--m", "3", "--n", "5", "--solver", "enum",
                         flag, value, "--out", str(out)])
        assert code == 2
        assert out.read_bytes() == b"game_id,status\r\n7,OPTIMAL\r\n"
        assert f"{flag[2:]} must be positive and finite" in capsys.readouterr().err

    def test_non_finite_eps_rejected_by_solve_and_export(self, tmp_path, capsys):
        lp = tmp_path / "m.lp"
        for command in (["solve"], ["export-lp", "--out", str(lp)]):
            assert cli_main(command + ["--class", "mp", "--eps", "inf"]) == 2
            assert "eps must be positive and finite" in capsys.readouterr().err
        assert not lp.exists()

    def test_unwritable_batch_path(self, capsys):
        code = cli_main(
            ["batch", "--class", "mp", "--n", "1", "--out", "/nonexistent-dir/r.csv"]
        )
        assert code == 2
