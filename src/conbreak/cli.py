"""Command-line front end.

Four subcommands: `play` runs one game and streams its transcript as
JSON lines, `sweep` runs a seeded experiment grid to CSV, `verify`
checks a structural property family on a graph file and prints a JSON
report, and `solve` computes the exact winner of a small board.

Relative output paths are resolved against $CONBREAK_OUTDIR when that
variable is set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Sequence

from .breaker import build_bad_set
from .connector import decompose, make_cells
from .engine import CONNECTOR, run_game
from .errors import ConbreakError, ParameterError
from .graph import Graph, gen_gnp, read_edge_list
from .harness import TrialConfig, connector_options, run_trials, summary_csv, threshold_scan
from .solver import GOAL_SPANNING, solve_exact
from .strategies import make_strategy, strategy_ids

OUTDIR_ENV = "CONBREAK_OUTDIR"


def _int_list(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}")


def _float_list(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}")


def resolve_out(path: Optional[str]) -> Optional[str]:
    """Resolve a relative output path against $CONBREAK_OUTDIR if set."""
    if path is None:
        return None
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph:
        # a density the file's board does not have would still reach the
        # paper Connector as its hint
        if args.n is not None or args.p is not None:
            raise ParameterError("give either --graph FILE or --n and --p, not both")
        return read_edge_list(args.graph)
    if args.n is not None and args.p is not None:
        return gen_gnp(args.n, args.p, args.seed)
    raise ParameterError("give --graph FILE, or --n and --p to generate a board")


def _add_graph_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", help="edge-list file (header 'n count', then 'u v' lines)")
    sub.add_argument("--n", type=int, help="vertex count for a generated board")
    sub.add_argument("--p", type=float, help="edge probability for a generated board")


def cmd_play(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    connector = make_strategy(args.connector, **connector_options(args.connector, args.p))
    breaker = make_strategy(args.breaker)
    result = run_game(
        g, connector, breaker, m=args.m, b=args.b, start_vertex=args.start, seed=args.seed
    )
    sys.stdout.write(result.transcript_jsonl())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = TrialConfig(
        ns=tuple(args.ns),
        ps=tuple(args.ps) if args.ps is not None else None,
        eps_list=tuple(args.eps) if args.eps is not None else None,
        trials=args.trials,
        seed_base=args.seed,
        connector_id=args.connector,
        breaker_id=args.breaker,
        m=args.m,
        b=args.b,
        start_vertex=args.start,
        out_csv=resolve_out(args.out),
        out_records=resolve_out(args.records),
        verify_degree_bound=args.verify_degree_bound,
        verify_isolation=args.verify_isolation,
        jobs=args.jobs,
    )
    _, rows = run_trials(cfg)
    sys.stdout.write(summary_csv(rows))
    if args.scan:
        for n, est in sorted(threshold_scan(rows).items()):
            if est is None:
                sys.stdout.write(f"# threshold n={n}: no crossing in range\n")
            else:
                sys.stdout.write(
                    f"# threshold n={n}: p={est['p']:.6g} exponent={est['exponent']:.4f}\n"
                )
    return 0


# verify flags that one family reads; the other family refuses them
_FAMILY_FLAGS = {"b": ("m_set", "exclude"), "d": ("k", "eps")}


def cmd_verify(args: argparse.Namespace) -> int:
    from .verifier import check_b, check_d

    for family, dests in _FAMILY_FLAGS.items():
        given = [d for d in dests if getattr(args, d) is not None]
        if given and family != args.family:
            flag = "--" + given[0].replace("_", "-")
            raise ParameterError(f"{flag} is read by family {family} only, not {args.family}")
    g = _load_graph(args)
    if args.family == "b":
        if args.x is None:
            raise ParameterError("family b needs --x")
        dec = build_bad_set(g, args.x, excluded=tuple(args.exclude or ()))
        m_set = frozenset(args.m_set or ())
        report = check_b(g, dec, m_set)
    else:
        if args.x is None or args.k is None:
            raise ParameterError("family d needs --x and --k")
        if args.eps is not None and not math.isfinite(args.eps):
            raise ParameterError(f"--eps must be finite, got {args.eps}")
        cells = make_cells(g.n, args.x, args.k, seed=args.seed)
        dec = decompose(g, args.x, cells, args.k)
        if dec is None:
            sys.stdout.write('{"family": "D", "decomposed": false}\n')
            return 1
        report = check_d(dec, eps=args.eps)
    sys.stdout.write(report.to_json(indent=2) + "\n")
    return 0 if report.all_passed() else 1


def cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    goal = GOAL_SPANNING
    if args.goal != "spanning":
        if not args.goal.startswith("reach:"):
            raise ParameterError("goal must be 'spanning' or 'reach:<vertex>'")
        try:
            goal = ("reach", int(args.goal.split(":", 1)[1]))
        except ValueError:
            raise ParameterError(f"goal target must be an integer: {args.goal!r}")
    winner = solve_exact(
        g,
        m=args.m,
        b=args.b,
        first=args.first,
        goal=goal,
        start_vertex=args.start,
    )
    sys.stdout.write(winner + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conbreak",
        description="Connectivity game engine, strategies, and experiment harness.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ids = ", ".join(strategy_ids())

    play = subs.add_parser("play", help="play one game, transcript as JSON lines")
    _add_graph_source(play)
    play.add_argument("--connector", default="paper-connector", help=f"one of: {ids}")
    play.add_argument("--breaker", default="paper-breaker", help=f"one of: {ids}")
    play.add_argument("--m", type=int, default=2, help="Connector claims per round")
    play.add_argument("--b", type=int, default=2, help="Breaker claims per round")
    play.add_argument("--start", type=int, default=0, help="Connector start vertex")
    play.add_argument("--seed", type=int, default=0, help="game seed")
    play.set_defaults(func=cmd_play)

    sweep = subs.add_parser("sweep", help="run an experiment grid, summary as CSV")
    sweep.add_argument("--ns", type=_int_list, required=True, help="board sizes, comma-separated")
    sweep.add_argument("--ps", type=_float_list, help="edge probabilities, comma-separated")
    sweep.add_argument(
        "--eps",
        type=_float_list,
        help="density exponents, mapped to p = n^(-2/3+eps) per n",
    )
    sweep.add_argument("--trials", type=int, default=100, help="games per grid cell")
    sweep.add_argument("--seed", type=int, default=0, help="seed base for trial seeds")
    sweep.add_argument("--connector", default="paper-connector", help=f"one of: {ids}")
    sweep.add_argument("--breaker", default="paper-breaker", help=f"one of: {ids}")
    sweep.add_argument("--m", type=int, default=2)
    sweep.add_argument("--b", type=int, default=2)
    sweep.add_argument("--start", type=int, default=0)
    sweep.add_argument("--out", help="summary CSV path")
    sweep.add_argument("--records", help="per-trial JSONL path")
    sweep.add_argument(
        "--verify-degree-bound",
        action="store_true",
        help="flag rounds after which a vertex outside Connector's territory has at least "
        "ln^2(n) Breaker edges",
    )
    sweep.add_argument(
        "--verify-isolation",
        action="store_true",
        help="flag when the defended vertex joined territory and the first uncleared violation",
    )
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes, at most the core count")
    sweep.add_argument(
        "--scan",
        action="store_true",
        help="append threshold-crossing estimates",
    )
    sweep.set_defaults(func=cmd_sweep)

    verify = subs.add_parser("verify", help="check a property family, report as JSON")
    _add_graph_source(verify)
    verify.add_argument(
        "--family", required=True, choices=["b", "d"], help="property family to check"
    )
    verify.add_argument("--x", type=int, help="defended vertex (families b, d)")
    verify.add_argument("--m-set", type=_int_list, help="claimed vertices to avoid (family b)")
    verify.add_argument(
        "--exclude", type=_int_list, help="vertices excluded from the layering (family b)"
    )
    verify.add_argument(
        "--eps", type=float, help="density exponent for D4's degree bound (family d)"
    )
    verify.add_argument("--k", type=int, help="decomposition depth (family d)")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    solve = subs.add_parser("solve", help="exact winner of a small board")
    _add_graph_source(solve)
    solve.add_argument("--m", type=int, default=1)
    solve.add_argument("--b", type=int, default=1)
    solve.add_argument("--first", default=CONNECTOR, choices=["C", "B"])
    solve.add_argument("--goal", default="spanning", help="'spanning' or 'reach:<vertex>'")
    solve.add_argument("--start", type=int, default=None)
    solve.add_argument("--seed", type=int, default=0)
    solve.set_defaults(func=cmd_solve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConbreakError, OSError) as exc:
        sys.stderr.write(f"conbreak: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
