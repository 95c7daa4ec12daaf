"""The package's exports are its modules' ``__all__`` lists, each name declared once."""

import subprocess
import sys
from pathlib import Path

import esspm
from esspm import analysis, enumeration, game, generators, model, pipeline, simplex, solver

MODULES = (analysis, enumeration, game, generators, model, pipeline, simplex, solver)

# The package's exports when it still listed them by hand; none may go.
HAND_LISTED = {
    "BatchConfig", "BatchStats", "CancerParams", "Condition", "ConditionOutcome",
    "EsspmCertificate", "EsspmOutcome", "GameMatrix", "GameParseError", "Infeasible",
    "InvasionResult", "LimitReached", "LinearRow", "MixedEsspm", "MixedStrategy", "ModelIR",
    "PureEsspm", "SolveFailed", "SolveLimits", "SolveResult", "SolveStats",
    "SolverError", "Support", "Tolerances", "__version__",
    "approximation_error", "build_model", "cancer_game", "check_conditions", "chicken",
    "counterexample_game", "enumerate_esspm", "export_lp",
    "find_all_pure_esspm", "find_pure_esspm", "invasion_test", "linearization_error_bound",
    "mutation_population", "nash_epsilon", "normalize", "random_cancer_params",
    "read_game", "rock_paper_scissors", "run_batch", "solve", "solve_record", "solve_support",
    "uniform_random", "utility", "verify_assignment", "write_game",
}


def test_each_public_name_is_declared_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(esspm.__all__) == sorted([*names, "__version__"])


def test_every_export_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(esspm, name) is getattr(module, name), (module.__name__, name)
    assert esspm.__version__ == "0.1.0"


def test_no_export_was_dropped():
    assert HAND_LISTED <= set(esspm.__all__)


def test_assignment_api_is_exported():
    # The README lists interpolation_assignment with the assignment API.
    assert "interpolation_assignment" in model.__all__
    assert esspm.interpolation_assignment is model.interpolation_assignment


def test_solver_error_is_declared_in_simplex():
    assert "SolverError" in simplex.__all__ and "SolverError" not in solver.__all__
    assert solver.SolverError is simplex.SolverError is esspm.SolverError


def test_import_leaves_the_cli_unimported():
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = f"import sys; sys.path.insert(0, {src!r}); import esspm; assert 'esspm.cli' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
