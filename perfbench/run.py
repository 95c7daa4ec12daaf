"""Seeded benchmark of the esspm MILP, oracle and batch-screening paths.

    python3 perfbench/run.py --workload milp_mixed --seed 1 --seconds 35 --trace 0

Runs one workload as a closed loop (one caller, one game at a time, no
threads) in a single process, against the package in ``src/`` of the checkout
that holds this file. With ``--trace 0`` the loop runs for ``--seconds`` and
the end-to-end metrics are reported; with ``--trace 1`` each item of a fixed slice
of the workload runs once untraced and once with every layer wrapped, and
the per-layer metrics are reported. Every verdict is checked outside the timed
loop. The last line of stdout is one JSON object; human-readable notes come
before it. Exits 1 when the correctness gate fails and 2 when the package
cannot be found.
"""

from __future__ import annotations

import os

# Thread counts must be fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import gc
import io
import json
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 5
TAIL_MIN_BEYOND = 10  # samples a tail percentile needs above it
MAX_UNATTRIBUTED = 0.05  # share of traced wall time the layers may leave unexplained
STATUSES = ("PURE", "OPTIMAL", "INFEASIBLE", "LIMIT")


@dataclass(frozen=True)
class Workload:
    """One seeded input set.

    ``round_`` lists the game classes of one round as (class, m) pairs and
    ``extras`` adds (class, m, period, offset) games to every ``period``-th
    round, so each prefix of the loop keeps about the same class mix.
    batch_screen instead runs one ``run_batch`` chunk of ``chunk`` games per
    round. Class shares are set so that the median and the tail percentile
    fall high inside one class's ranks: game times cluster tightly within a
    class, and on a shared machine the CPU can switch between a fast and a
    slow state for seconds at a time, so a quantile low inside a class jumps
    between the two states' modes.
    """

    name: str
    solver: str
    tail_pct: float
    rounds: int  # generated up front; the loop cycles if it runs out
    gate_rounds: int  # leading rounds whose verdict counts are pinned
    trace_rounds: int  # rounds run by a traced run, once untraced and once traced
    round_: tuple = ()
    extras: tuple = ()
    chunk: int = 0

    def items_in(self, rounds: int) -> int:
        if self.chunk:
            return rounds
        extra = sum(1 for r in range(rounds) for *_, period, offset in self.extras if r % period == offset)
        return rounds * len(self.round_) + extra


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's main route; 2x2 chicken (tiny LPs) up to uniform m=5
        # (98x583 tableau), so a simplex change that helps big LPs but costs
        # small ones shows. The median falls in the m=3 games and p90 in the
        # cancer and m=4 games. One m=5 game per 30 s: a single m=5 solve
        # varies several-fold between games, so more would swamp the rest.
        Workload(
            name="milp_mixed",
            solver="milp",
            tail_pct=90.0,
            rounds=60,
            gate_rounds=6,
            trace_rounds=6,
            round_=(
                ("chicken", 2), ("uniform", 3), ("cancer", 4), ("chicken", 2), ("uniform", 3),
                ("uniform", 4), ("chicken", 2), ("uniform", 3), ("cancer", 4), ("uniform", 4),
            ),
            extras=(("uniform", 5, 20, 5),),
        ),
        # The oracle's scaling regime: every game goes to support enumeration
        # at m=10..13 and the MILP never runs. The median falls in the m=11
        # games and p90 in the m=12 games.
        Workload(
            name="oracle_large",
            solver="enum",
            tail_pct=90.0,
            rounds=30,
            gate_rounds=2,
            trace_rounds=3,
            round_=tuple(
                ("uniform", m)
                for m in (12, 11, 10, 12, 11, 12, 11, 10, 12, 13, 12, 11, 10, 12, 11, 12, 11, 10, 12, 11)
            ),
        ),
        # Batch and pure-fraction traffic: most games end in the pure scan and
        # the rest are tiny enumerations, the opposite of oracle_large. The
        # tail is p99, not p99.9: at p99.9 single scheduling stalls decide
        # the value.
        Workload(
            name="batch_screen",
            solver="enum",
            tail_pct=99.0,
            rounds=4000,
            gate_rounds=8,
            trace_rounds=160,
            chunk=100,
        ),
    )
}


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_esspm():
    """Import the package from this checkout's src/, never an installed copy."""
    if not (SRC / "esspm" / "__init__.py").is_file():
        _fail_setup(f"no esspm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import esspm

    if Path(esspm.__file__).resolve().parent != SRC / "esspm":
        _fail_setup(f"imported esspm from {esspm.__file__}, not from {SRC}")
    return esspm


# -- inputs ------------------------------------------------------------------


def _seed_base(seed: int, slot: int) -> int:
    """Disjoint 2^24-wide seed ranges per (run seed, slot): no game is drawn twice."""
    return ((seed & 0xFFFFFFFF) << 32) | (slot << 24)


@dataclass(frozen=True)
class Item:
    cfg: object  # esspm BatchConfig
    game_id: int
    game: object | None = None  # pre-generated game; None for run_batch chunks


def _no_pure_games(pkg, cfg):
    """Game ids of cfg's class with no pure ESSPM, in generation order."""
    pipeline = pkg.pipeline
    gid = 0
    while True:
        game = pipeline.make_game(cfg, gid)
        if pkg.analysis.find_pure_esspm(pipeline.normalize(game), cfg.tolerances) is None:
            yield Item(cfg, gid, game)
        gid += 1


def make_items(pkg, wl: Workload, seed: int) -> list[Item]:
    BatchConfig = pkg.pipeline.BatchConfig
    if wl.chunk:
        # One chunk per m in turn; seed ranges per m keep games independent.
        return [
            Item(
                BatchConfig(
                    game_class="uniform",
                    m=2 + k % 4,
                    n_games=wl.chunk,
                    seed=_seed_base(seed, k % 4) + (k // 4) * wl.chunk,
                    solver=wl.solver,
                ),
                0,
            )
            for k in range(wl.rounds)
        ]
    classes = sorted({(c, m) for c, m in wl.round_} | {(c, m) for c, m, _, _ in wl.extras})
    sources = {
        key: _no_pure_games(
            pkg,
            BatchConfig(game_class=key[0], m=key[1], seed=_seed_base(seed, slot), solver=wl.solver),
        )
        for slot, key in enumerate(classes)
    }
    items = []
    for r in range(wl.rounds):
        keys = list(wl.round_)
        keys += [(c, m) for c, m, period, offset in wl.extras if r % period == offset]
        items.extend(next(sources[key]) for key in keys)
    return items


def warm_up(pkg, wl: Workload) -> None:
    """One solve on a fixed game through the workload's path."""
    pipeline, generators = pkg.pipeline, pkg.generators
    try:
        if wl.chunk:
            pipeline.run_batch(
                pipeline.BatchConfig(game_class="uniform", m=3, n_games=40, solver=wl.solver),
                io.StringIO(),
            )
        elif wl.solver == "milp":
            pipeline.solve_record(generators.mutation_population(), pipeline.BatchConfig(solver="milp"))
        else:
            pipeline.solve_record(generators.rock_paper_scissors(), pipeline.BatchConfig(solver="enum"))
    except pkg.simplex.SolverError as exc:
        print(f"warm-up solve raised SolverError: {exc}")


# -- the loop and the correctness gate ---------------------------------------


def _check_verdict(pkg, wl: Workload, cfg, gid: int, status: str, detail) -> str | None:
    """What is wrong with one game's verdict, or None."""
    pipeline = pkg.pipeline
    if status == "LIMIT":
        return None  # a failure, not a wrong answer
    if status == "PURE" and not wl.chunk:
        return "PURE on a game the deck holds as having no pure ESSPM"
    norm = pipeline.normalize(pipeline.make_game(cfg, gid))
    tol = cfg.tolerances
    strategy = None
    if status == "OPTIMAL":
        strategy = detail
    elif status == "PURE":
        strategy = pkg.game.MixedStrategy.pure(detail, norm.m)
    if strategy is not None:
        support = strategy.support().indices
        skip = support[0] if len(support) == 1 else None
        check = pkg.analysis.check_conditions
        if not all(check(norm, strategy, j, tol).holds for j in range(norm.m) if j != skip):
            return f"{status} strategy fails check_conditions"
    if wl.solver == "milp":
        # The --solver both rule: a MILP miss is excused only when every oracle
        # certificate's margin is within what the linearized model resolves.
        certs = pkg.enumeration.enumerate_esspm(norm, tol)
        resolution = cfg.eps + pkg.model.linearization_error_bound(norm, cfg.k)
        if status == "OPTIMAL" and not certs:
            return "OPTIMAL but the oracle certifies no strategy"
        if status == "INFEASIBLE" and certs and max(c.min_slack() for c in certs) > resolution:
            return "INFEASIBLE but the oracle certifies a strategy above the model's resolution"
    return None


class Ledger:
    """Times every solve_record call from outside and checks each item's verdicts after it.

    Checks run between items with the clock stopped, and only counts are
    kept, so the ledger's memory does not grow with the number of games.
    """

    def __init__(self, pkg, wl: Workload, n_items: int) -> None:
        p = pkg.pipeline
        self.pkg, self.wl, self.n_items = pkg, wl, n_items
        self.n_gate = wl.items_in(wl.gate_rounds)
        self.status_of = {
            p.PureEsspm: "PURE",
            p.MixedEsspm: "OPTIMAL",
            p.Infeasible: "INFEASIBLE",
            p.LimitReached: "LIMIT",
        }
        self.ms = array("d")
        self.games = 0  # solve_record calls that returned or raised
        self.failed = 0  # raised SolverError, ended LIMIT, or failed the gate
        self.problems: list[str] = []
        self.lead_counts = {s: 0 for s in STATUSES}  # verdicts of the leading gate items
        self._pending: list[tuple] = []  # (cfg, game_id, status, strategy or pure index)
        self._codes: dict[int, str] = {}  # first letter of each verdict, per deck item

    def wrap(self, fn):
        solver_error = self.pkg.simplex.SolverError

        def timed(game, cfg, game_id=0):
            t0 = time.perf_counter()
            try:
                record = fn(game, cfg, game_id)
            except solver_error:
                self.games += 1
                self.failed += 1
                raise
            self.ms.append((time.perf_counter() - t0) * 1e3)
            outcome = record.outcome
            detail = getattr(outcome, "strategy", getattr(outcome, "index", None))
            self._pending.append((cfg, game_id, self.status_of[type(outcome)], detail))
            return record

        return timed

    def settle(self, index: int, csv_out: io.StringIO | None) -> None:
        """Check the verdicts of item ``index`` (a loop position; the deck cycles)."""
        results, self._pending = self._pending, []
        self.games += len(results)
        codes = "".join(status[0] for _, _, status, _ in results)
        first_visit = index % self.n_items not in self._codes
        known = self._codes.setdefault(index % self.n_items, codes)
        wrong = 0
        for pos, (cfg, gid, status, detail) in enumerate(results):
            if first_visit:
                problem = _check_verdict(self.pkg, self.wl, cfg, gid, status, detail)
            else:
                problem = None if known[pos : pos + 1] == codes[pos] else "verdict changed on a rerun"
            if problem:
                wrong += 1
                self.problems.append(f"{cfg.game_class} m={cfg.m} seed={cfg.seed} game {gid}: {problem}")
            elif status == "LIMIT":
                wrong += 1
            if first_visit and index < self.n_gate:
                self.lead_counts[status] += 1
        self.failed += wrong
        if csv_out is not None:
            rows = list(csv.reader(io.StringIO(csv_out.getvalue())))
            if rows[0] != self.pkg.pipeline.CSV_COLUMNS:
                self.problems.append("batch CSV header differs from CSV_COLUMNS")
            if "".join(row[7][:1] for row in rows[1:]) != codes:
                self.problems.append(f"batch CSV statuses of seed {results[0][0].seed} differ from the verdicts")


def run_items(pkg, ledger: Ledger, items: list[Item], start: int = 0, seconds: float | None = None,
              count: int | None = None, tracer=None) -> tuple[float, int]:
    """Run items from loop position ``start``, cycling, until ``seconds`` of
    solving pass or ``count`` items are done. Returns (seconds solving, items run).

    A ``tracer`` is installed around each solve only, never around the gate.
    """
    pipeline = pkg.pipeline
    solver_error = pkg.simplex.SolverError
    busy = 0.0
    i = start
    while (count is None or i < start + count) and (seconds is None or busy < seconds):
        item = items[i % len(items)]
        out = io.StringIO() if item.game is None else None
        if tracer is not None:
            tracer.install(pkg)
        t0 = time.perf_counter()
        try:
            if out is None:
                pipeline.solve_record(item.game, item.cfg, item.game_id)
            else:
                pipeline.run_batch(item.cfg, out)
        except solver_error:
            pass  # counted by the ledger; run_batch abandons the rest of its chunk
        finally:
            busy += time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        ledger.settle(i, out)
        i += 1
    return busy, i - start


# -- report ------------------------------------------------------------------


def _percentile(values, pct: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    seed = pins["default_seed"] if args.seed is None else args.seed

    t0 = time.perf_counter()
    pkg = _import_esspm()
    import_s = time.perf_counter() - t0
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = make_items(pkg, wl, seed)
        warm_up(pkg, wl)
        setup_runs.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_runs)

    pipeline = pkg.pipeline
    ledger = Ledger(pkg, wl, len(items))
    pipeline.solve_record = ledger.wrap(pipeline.solve_record)
    gc.collect()
    if args.trace:
        from layers import UNITS, Tracer

        # Each item runs once untraced and once traced, in alternating order,
        # so that drift in the host's speed falls on both sides alike.
        tracer = Tracer()
        untraced_s = loop_s = 0.0
        attempted = failed = 0
        n_items = wl.items_in(wl.trace_rounds)
        for i in range(n_items):
            for traced in (False, True) if i % 2 else (True, False):
                games0, failed0 = ledger.games, ledger.failed
                busy, _ = run_items(pkg, ledger, items, start=i, count=1, tracer=tracer if traced else None)
                if traced:
                    loop_s += busy
                    attempted += ledger.games - games0
                    failed += ledger.failed - failed0
                else:
                    untraced_s += busy
    else:
        loop_s, n_items = run_items(pkg, ledger, items, seconds=args.seconds)
        attempted, failed = ledger.games, ledger.failed
        ms = ledger.ms.tolist()  # before any untimed gate items add to it
    if n_items < ledger.n_gate:
        # The loop stopped before the pinned items: solve the rest untimed.
        run_items(pkg, ledger, items, start=n_items, count=ledger.n_gate - n_items)

    # Peak RSS before the report's own copies of the timings.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pinned = pins["verdicts"].get(wl.name, {}).get(str(seed))
    if pinned is not None and ledger.lead_counts != pinned:
        ledger.problems.append(f"verdict counts {ledger.lead_counts} differ from pinned {pinned}")
    print(f"workload {wl.name} seed {seed}: {attempted} games in {loop_s:.3f} s, {failed} failed")
    print(f"verdicts of the leading {ledger.n_gate} items: {json.dumps(ledger.lead_counts)}"
          + (" (pinned)" if pinned is not None else " (seed not pinned)"))
    if args.trace:
        layer = tracer.metrics(loop_s, untraced_s, attempted)
        if layer["trace.unattributed_frac"] > MAX_UNATTRIBUTED:
            ledger.problems.append(
                f"layers leave {layer['trace.unattributed_frac']:.1%} of traced wall time unattributed"
            )
        metrics = {name: {"value": float(v), "unit": UNITS[name]} for name, v in layer.items()}
    else:
        tail_ms = _percentile(ms, wl.tail_pct)
        beyond = sum(1 for v in ms if v > tail_ms)
        print(f"game_ms_tail is p{wl.tail_pct:g} of {len(ms)} timed games, {beyond} beyond it"
              + ("" if beyond >= TAIL_MIN_BEYOND else f" (fewer than {TAIL_MIN_BEYOND})"))
        metrics = {
            "games_per_s": {"value": (attempted - failed) / loop_s, "unit": "1/s"},
            "game_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
            "game_ms_tail": {"value": tail_ms, "unit": "ms"},
            "solved_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    for problem in ledger.problems:
        print(f"GATE: {problem}")
    print(json.dumps({"correct": not ledger.problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if ledger.problems else 0


if __name__ == "__main__":
    sys.exit(main())
