"""Command-line front end: generate games, solve them, run batches, export models."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .analysis import LimitReached, PureEsspm
from .game import normalize, read_game, write_game
from .model import build_model, export_lp
from .pipeline import (
    BatchConfig,
    GAME_CLASSES,
    SOLVERS,
    make_game,
    run_batch,
    solve_record,
    strategy_cell,
)
from .simplex import SolverError
from .solver import SolveLimits

__all__ = ["cli_main", "main"]

# The options that BatchConfig and SolveLimits own, named as their fields; an
# option left out keeps their default.
_SETTINGS = frozenset(f.name for f in fields(BatchConfig) if f.init)
_LIMITS = frozenset(f.name for f in fields(SolveLimits))


def _add_game_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="game_class", choices=GAME_CLASSES)
    p.add_argument(
        "--m",
        type=int,
        help="pure strategies per player: the size of a uniform game (default 2); "
        "any other class has a fixed size, which a given --m must match",
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--game-file", help="path to a game in the text format (class 'file')")


def _add_solve_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, help="strict-inequality margin")
    p.add_argument("--delta", type=float, help="payoff-equality precision")
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--max-nodes", type=int)
    p.add_argument("--max-time-ms", type=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esspm",
        description="Compute evolutionarily stable strategies against pure mutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a game and write it in the text format")
    gen.set_defaults(handler=_cmd_gen)
    _add_game_source(gen)
    gen.add_argument("--out", help="output path (default: stdout)")

    solve_p = sub.add_parser("solve", help="solve a single game")
    solve_p.set_defaults(handler=_cmd_solve)
    _add_game_source(solve_p)
    _add_solve_params(solve_p)

    batch = sub.add_parser("batch", help="generate and solve many games, writing a CSV")
    batch.set_defaults(handler=_cmd_batch)
    _add_game_source(batch)
    _add_solve_params(batch)
    batch.add_argument("--n", type=int, default=100, help="number of games")
    batch.add_argument("--out", required=True, help="CSV output path")

    export = sub.add_parser("export-lp", help="write the exact feasibility MILP in LP format")
    export.set_defaults(handler=_cmd_export)
    _add_game_source(export)
    export.add_argument("--eps", type=float, help="strict-inequality margin")
    export.add_argument("--out", required=True, help="LP output path")
    return parser


def _config(args: argparse.Namespace, n_games: int = 1) -> BatchConfig:
    """The config of ``args``: each option given, and the library's default for
    each one left out. ``--game-file`` is read here, once."""
    game = None
    if args.game_file is not None:
        with open(args.game_file, encoding="utf-8") as fh:
            game = read_game(fh.read())
    given = {name: value for name, value in vars(args).items() if value is not None}
    settings = {name: value for name, value in given.items() if name in _SETTINGS}
    limits = {name: value for name, value in given.items() if name in _LIMITS}
    return BatchConfig(n_games=n_games, game=game, limits=SolveLimits(**limits), **settings)


def _cmd_gen(args: argparse.Namespace) -> int:
    text = write_game(make_game(_config(args), 0))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _config(args)
    record = solve_record(make_game(cfg, 0), cfg)
    outcome = record.outcome
    print(f"status: {outcome.status}")
    if isinstance(outcome, PureEsspm):
        print(f"strategy: pure {outcome.index}")
    elif record.strategy is not None:
        print("strategy: " + strategy_cell(record.strategy))
        print(f"error: {record.error:.9g}")
    if isinstance(outcome, LimitReached):
        return 1
    if cfg.solver == "both" and not isinstance(outcome, PureEsspm):
        print("oracle agreement: " + ("no" if record.disagreement else "yes"))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    cfg = _config(args, n_games=args.n)  # reads and checks the game before --out is truncated
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        stats = run_batch(cfg, fh)
    print(
        f"games={cfg.n_games} pure={stats.n_pure} optimal={stats.n_optimal} "
        f"infeasible={stats.n_infeasible} limit={stats.n_limit} error={stats.n_error}"
    )
    if stats.n_optimal:
        print(
            f"mean_runtime_optimal_ms={stats.mean_runtime_optimal_ms:.3f} "
            f"mean_error_optimal={stats.mean_error_optimal:.3g}"
        )
    if stats.n_infeasible:
        print(f"mean_runtime_infeasible_ms={stats.mean_runtime_infeasible_ms:.3f}")
    return 1 if stats.n_error else 0


def _cmd_export(args: argparse.Namespace) -> int:
    cfg = _config(args)
    model = build_model(normalize(make_game(cfg, 0)), cfg.eps)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(export_lp(model))
    print(f"wrote {args.out}")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 1 on solver failure, 2 on usage errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
