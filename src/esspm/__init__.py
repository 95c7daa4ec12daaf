"""Evolutionarily stable strategies against pure mutations for symmetric games.

The package offers three routes to a solution: a pure-strategy preprocessing
pass, an exact mixed-integer linear feasibility model solved by a built-in
branch-and-bound solver (``export_lp`` writes it for any MILP solver), and a
support-enumeration oracle that also serves as ground truth in tests and
experiments.

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them. ``esspm.cli`` is not imported here.
"""

from . import analysis, enumeration, game, generators, model, pipeline, simplex, solver
from .analysis import *  # noqa: F403
from .enumeration import *  # noqa: F403
from .game import *  # noqa: F403
from .generators import *  # noqa: F403
from .model import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .simplex import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analysis, enumeration, game, generators, model, pipeline, simplex, solver)
    for name in module.__all__
] + ["__version__"]
