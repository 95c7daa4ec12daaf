"""Per-layer time and counters, recorded by wrapping esspm functions at their call sites.

Each wrapped function is replaced by name in the module that calls it, so the
package itself runs unchanged. Spans nest: a span's self time is its duration
minus the duration of the wrapped calls made inside it, so the self times of
all layers add up to the time spent inside the outermost traced calls.
Totals are kept in memory as sums per layer, not as individual spans.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module under esspm, attribute, layer). The module is the caller, not the
# definer: e.g. pipeline.solve is the B&B entry as the pipeline calls it.
SITES = (
    ("pipeline", "run_batch", "pipeline"),
    ("pipeline", "solve_record", "pipeline"),
    ("pipeline", "make_game", "generators.make"),
    ("pipeline", "normalize", "game.normalize"),
    ("pipeline", "find_pure_esspm", "analysis.pure_scan"),
    ("pipeline", "approximation_error", "analysis.metrics"),
    ("pipeline", "nash_epsilon", "analysis.metrics"),
    ("pipeline", "build_model", "model.build"),
    ("pipeline", "solve", "solver"),
    ("pipeline", "enumerate_esspm", "enumeration.enum"),
    ("solver", "lp_solve", "simplex.lp"),
    ("solver", "verify_assignment", "model.verify"),
    ("solver", "interpolation_assignment", "model.interp"),
    ("enumeration", "solve_support", "enumeration.tie"),
    ("enumeration", "check_conditions", "enumeration.cert"),
)

# Called inside the pure scan; counted but not timed, so the scan's many
# tiny calls pay no timing overhead.
COUNTED_SITES = (("analysis", "check_conditions"),)

# Layers whose self time is reported, by metric name. Their sum is the time
# inside the outermost traced calls.
TIME_METRICS = {
    "simplex.lp_ms": "simplex.lp",
    "solver.self_ms": "solver",
    "model.build_ms": "model.build",
    "model.verify_ms": "model.verify",
    "model.interp_ms": "model.interp",
    "enumeration.enum_ms": "enumeration.enum",
    "enumeration.tie_ms": "enumeration.tie",
    "enumeration.cert_ms": "enumeration.cert",
    "analysis.pure_scan_ms": "analysis.pure_scan",
    "analysis.metrics_ms": "analysis.metrics",
    "game.normalize_ms": "game.normalize",
    "generators.make_ms": "generators.make",
    "pipeline.self_ms": "pipeline",
}

UNITS = {
    "simplex.lp_calls": "count",
    "simplex.pivots": "count",
    "simplex.pivots_per_lp": "count",
    "simplex.lp_infeasible_ratio": "ratio",
    "simplex.tableau_gflop": "GFLOP-computed",
    "simplex.gflop_per_s": "GFLOP/s-computed",
    "solver.nodes": "count",
    "model.cols_per_model": "count",
    "model.rows_per_model": "count",
    "enumeration.tie_solves": "count",
    "enumeration.supports_visited": "count",
    "enumeration.singular_skipped": "count",
    "enumeration.cert_ratio": "ratio",
    "analysis.pure_hit_ratio": "ratio",
    "analysis.check_calls": "count",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
    "trace.wall_ms": "ms",
    "trace.games": "count",
    **{name: "ms" for name in TIME_METRICS},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Accumulates self time and counters per layer while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[float] = []  # child time accumulated by each open span
        self._saved: list[tuple[object, str, object]] = []

    def install(self, esspm) -> None:
        """Wrap every site in the imported ``esspm`` package until uninstall()."""
        for mod_name, attr, layer in SITES:
            self._patch(getattr(esspm, mod_name), attr, self._timed(layer, attr))
        for mod_name, attr in COUNTED_SITES:
            self._patch(getattr(esspm, mod_name), attr, self._counted("check_calls"))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def _counted(self, key: str):
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _timed(self, layer: str, attr: str):
        observe = getattr(self, f"_observe_{attr}", None)
        open_spans = self._open

        def make(fn):
            def timed(*args, **kwargs):
                if attr == "enumerate_esspm":
                    kwargs.setdefault("counters", {})
                open_spans.append(0.0)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self.self_s[layer] += dt - open_spans.pop()
                    if open_spans:
                        open_spans[-1] += dt
                    else:
                        self.root_s += dt
                if observe is not None:
                    observe(args, kwargs, result)
                return result

            return timed

        return make

    # -- counters read from arguments and results ---------------------------

    def _observe_lp_solve(self, args, kwargs, result) -> None:
        rows, bounds = args[0], args[1]
        status, _, pivots = result
        n_rows = len(rows)
        n_slack = sum(1 for row in rows if row.rel != "=")
        # Tableau width as the simplex builds it: structural, slack and one
        # artificial column per row. Each pivot does a rank-1 update of the
        # whole tableau and a reduced-cost product over it: 2 + 2 flops per entry.
        n_cols = len(bounds) + n_slack + n_rows
        c = self.counts
        c["lp_calls"] += 1
        c["pivots"] += pivots
        c["lp_infeasible"] += status != "feasible"
        c["flop"] += 4.0 * n_rows * n_cols * pivots

    def _observe_build_model(self, args, kwargs, result) -> None:
        self.counts["models"] += 1
        self.counts["model_cols"] += len(result.variables)
        self.counts["model_rows"] += len(result.rows)

    def _observe_solve(self, args, kwargs, result) -> None:
        self.counts["nodes"] += result.stats.nodes

    def _observe_enumerate_esspm(self, args, kwargs, result) -> None:
        counters = kwargs["counters"]
        self.counts["supports"] += counters["supports_visited"]
        self.counts["singular"] += counters["singular_skipped"]
        self.counts["certs"] += len(result)

    def _observe_solve_support(self, args, kwargs, result) -> None:
        self.counts["tie_solves"] += 1

    def _observe_check_conditions(self, args, kwargs, result) -> None:
        self.counts["check_calls"] += 1

    def _observe_find_pure_esspm(self, args, kwargs, result) -> None:
        self.counts["pure_scans"] += 1
        self.counts["pure_hits"] += result is not None

    # -- report --------------------------------------------------------------

    def metrics(self, wall_s: float, untraced_wall_s: float, games: int) -> dict[str, float]:
        c = self.counts
        lp_s = self.self_s["simplex.lp"]
        out = {name: self.self_s[layer] * 1e3 for name, layer in TIME_METRICS.items()}
        out.update(
            {
                "simplex.lp_calls": c["lp_calls"],
                "simplex.pivots": c["pivots"],
                "simplex.pivots_per_lp": _ratio(c["pivots"], c["lp_calls"]),
                "simplex.lp_infeasible_ratio": _ratio(c["lp_infeasible"], c["lp_calls"]),
                "simplex.tableau_gflop": c["flop"] / 1e9,
                "simplex.gflop_per_s": _ratio(c["flop"] / 1e9, lp_s),
                "solver.nodes": c["nodes"],
                "model.cols_per_model": _ratio(c["model_cols"], c["models"]),
                "model.rows_per_model": _ratio(c["model_rows"], c["models"]),
                "enumeration.tie_solves": c["tie_solves"],
                "enumeration.supports_visited": c["supports"],
                "enumeration.singular_skipped": c["singular"],
                "enumeration.cert_ratio": _ratio(c["certs"], c["supports"]),
                "analysis.pure_hit_ratio": _ratio(c["pure_hits"], c["pure_scans"]),
                "analysis.check_calls": c["check_calls"],
                "trace.overhead_frac": wall_s / untraced_wall_s - 1.0,
                "trace.unattributed_frac": (wall_s - self.root_s) / wall_s,
                "trace.wall_ms": wall_s * 1e3,
                "trace.games": games,
            }
        )
        return out
