"""Evolutionarily stable strategies against pure mutations for symmetric games.

The package offers three routes to a solution: a pure-strategy preprocessing
pass, a mixed-integer feasibility model solved by a built-in branch-and-bound
solver (its piecewise linearization, ``linearize``, serves LP export), and a
support-enumeration oracle that also serves as ground truth in tests and
experiments.
"""

from .analysis import (
    Condition,
    ConditionOutcome,
    InvasionResult,
    Tolerances,
    approximation_error,
    check_conditions,
    find_all_pure_esspm,
    find_pure_esspm,
    invasion_test,
    nash_epsilon,
)
from .enumeration import EsspmCertificate, enumerate_esspm, solve_support
from .game import (
    GameMatrix,
    GameParseError,
    MixedStrategy,
    Support,
    normalize,
    read_game,
    utility,
    write_game,
)
from .generators import (
    CancerParams,
    cancer_game,
    chicken,
    counterexample_game,
    mutation_population,
    random_cancer_params,
    rock_paper_scissors,
    uniform_random,
)
from .model import (
    LinearRow,
    ModelIR,
    SquareTerm,
    Variable,
    build_model,
    export_lp,
    linearization_error_bound,
    linearize,
    verify_assignment,
)
from .pipeline import (
    BatchConfig,
    BatchStats,
    EsspmOutcome,
    Infeasible,
    LimitReached,
    MixedEsspm,
    PureEsspm,
    SolveFailed,
    run_batch,
    solve_record,
)
from .simplex import SolverError
from .solver import (
    SolveLimits,
    SolveResult,
    SolveStats,
    SolveStatus,
    extract_strategy,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Condition",
    "ConditionOutcome",
    "InvasionResult",
    "Tolerances",
    "approximation_error",
    "check_conditions",
    "find_all_pure_esspm",
    "find_pure_esspm",
    "invasion_test",
    "nash_epsilon",
    "EsspmCertificate",
    "enumerate_esspm",
    "solve_support",
    "GameMatrix",
    "GameParseError",
    "MixedStrategy",
    "Support",
    "normalize",
    "read_game",
    "utility",
    "write_game",
    "CancerParams",
    "cancer_game",
    "chicken",
    "counterexample_game",
    "mutation_population",
    "random_cancer_params",
    "rock_paper_scissors",
    "uniform_random",
    "LinearRow",
    "ModelIR",
    "SquareTerm",
    "Variable",
    "build_model",
    "export_lp",
    "linearization_error_bound",
    "linearize",
    "verify_assignment",
    "BatchConfig",
    "BatchStats",
    "EsspmOutcome",
    "Infeasible",
    "LimitReached",
    "MixedEsspm",
    "PureEsspm",
    "SolveFailed",
    "run_batch",
    "solve_record",
    "SolverError",
    "SolveLimits",
    "SolveResult",
    "SolveStats",
    "SolveStatus",
    "extract_strategy",
    "solve",
    "__version__",
]
