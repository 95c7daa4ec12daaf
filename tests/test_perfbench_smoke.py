"""The benchmark's runner still works against this package: its tracer contract holds and its pins match.

Each test runs ``perfbench/run.py`` as a subprocess, the way the benchmark
is run, and reads only its last stdout line. Nothing under ``perfbench/`` is
written: bytecode caching is off in the child.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def run_bench(*args):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, proc.stdout
    return report


def test_oracle_large_trace():
    # The tracer wraps pipeline.enumerate_esspm and reads its counters; a
    # renamed call site fails the runner's unattributed-time gate.
    metrics = run_bench("--workload", "oracle_large", "--trace", "1")["metrics"]
    # Seed 1 visits 13,904 supports up to each game's first certificate.
    # Supports pruned as conditionally dominated still count as visited, so a
    # prune that stopped counting what it skips fails here.
    assert metrics["enumeration.supports_visited"]["value"] == 13904
    # The oracle screens each chunk in bulk; only the survivors reach the
    # scalar check_conditions. Certifying every candidate mutant by mutant
    # took 6,597 calls; the pruned supports were never among the 634 left.
    assert metrics["analysis.check_calls"]["value"] == 634


def test_batch_screen_short_run():
    report = run_bench("--workload", "batch_screen", "--seconds", "1")
    assert report["failed"] == 0
    assert report["metrics"]["solved_frac"]["value"] == 1.0


def test_milp_mixed_trace():
    # The MILP path under the gate: its verdict pins for the default seed and
    # the solver-side call sites (solver.lp_solve, verify_assignment,
    # interpolation_assignment) that the tracer wraps.
    metrics = run_bench("--workload", "milp_mixed", "--trace", "1")["metrics"]
    assert metrics["solver.nodes"]["value"] > 0
    assert metrics["simplex.lp_calls"]["value"] > 0
    # Every node solves one LP through solver.lp_solve, warm or cold; an LP
    # that bypassed it would hide its time from simplex.lp_ms. A child that
    # dominance kills is never pushed, so it is no node and needs no LP.
    assert metrics["simplex.lp_calls"]["value"] >= metrics["solver.nodes"]["value"]
    # Each y_j = 0 child also fixes x_j at zero, and every pushed node is
    # closed under conditional dominance. Seed 1 searches 186 nodes; it took
    # 501 with the x_j bound alone and 553 without either.
    assert metrics["solver.nodes"]["value"] <= 200
    # Every phase 1 is a restart, from the parent's state or the blank one;
    # seed 1 takes 1,300 pivots (1,850 without dominance).
    assert metrics["simplex.pivots"]["value"] <= 1350
    assert metrics["model.verify_ms"]["value"] > 0
    # Every milp_mixed game has m <= 5, so the x/z/y model has at most 11
    # columns and 21 rows; more means the link rows, which the search applies
    # as branch bounds, have moved into its LPs.
    assert metrics["model.cols_per_model"]["value"] <= 11
    assert metrics["model.rows_per_model"]["value"] <= 21
