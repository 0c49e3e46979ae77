"""Command line interface.

Four subcommands: `run` drives a multi-seed study suite, `decompose`
classifies a chain from a matrix file, `decay` fits the power-limit
convergence rate, and `weights` computes objective weights from a matrix
and one or more initial distributions. All structured output is JSON;
failures print a one-line JSON error object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .harness import (
    METHODS,
    ExperimentSpec,
    InvalidSpecError,
    decay_diagnostic,
    default_schedule,
    run_suite,
)
from .markov import (
    MarkovError,
    decompose,
    decomposition_report,
    limiting_distribution,
    read_distribution_text,
    read_matrix_text,
)
from .problems import weights_from_chains

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainopt",
        description="Chain-driven incremental subgradient optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a multi-seed study suite")
    run_p.add_argument("--method", required=True, choices=METHODS)
    run_p.add_argument("--test", required=True, type=int, help="noise test, 1..6")
    run_p.add_argument(
        "--schedule",
        choices=["diminishing", "constant"],
        default="diminishing",
        help="stepsize regime (default: diminishing)",
    )
    run_p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="constant stepsize override")
    run_p.add_argument("--a", type=float, default=None, help="diminishing scale override")
    run_p.add_argument("--xi", type=float, default=None, help="diminishing exponent override")
    run_p.add_argument("--budget", type=int, default=100_000, help="iterations per seed")
    run_p.add_argument(
        "--seeds",
        default="0,1,2,3,4,5,6,7,8,9,10",
        help="comma-separated seed list (default: 0..10)",
    )
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.set_defaults(func=_cmd_run)

    dec_p = sub.add_parser("decompose", help="classify a chain from a matrix file")
    dec_p.add_argument("--matrix", required=True, help="plain-text matrix file")
    dec_p.set_defaults(func=_cmd_decompose)

    decay_p = sub.add_parser("decay", help="fit the power-limit convergence rate")
    decay_p.add_argument("--matrix", required=True, help="plain-text matrix file")
    decay_p.add_argument("--kmax", type=int, default=50, help="largest period multiple")
    decay_p.set_defaults(func=_cmd_decay)

    w_p = sub.add_parser("weights", help="objective weights from chain starts")
    w_p.add_argument("--matrix", required=True, help="plain-text matrix file")
    w_p.add_argument(
        "--init",
        action="append",
        required=True,
        help="distribution file, one per chain (repeatable)",
    )
    w_p.set_defaults(func=_cmd_weights)
    return parser


def _parse_seeds(text: str) -> tuple:
    try:
        seeds = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise InvalidSpecError(f"seeds must be a comma-separated integer list, got {text!r}")
    return seeds


def _cmd_run(args) -> int:
    schedule = default_schedule(args.method, args.schedule, a=args.a, xi=args.xi, lam=args.lam)
    spec = ExperimentSpec(
        method=args.method,
        test=args.test,
        seeds=_parse_seeds(args.seeds),
        budget=args.budget,
        schedule=schedule,
        out=args.out,
    )
    summary = run_suite(spec)
    print(
        json.dumps(
            {
                "out": args.out,
                "seeds": len(summary["seeds"]),
                "median_best_f": summary["median_best_f"],
                "first_crossing": summary["first_crossing"],
            }
        )
    )
    return 0


def _cmd_decompose(args) -> int:
    decomp = decompose(read_matrix_text(args.matrix))
    print(json.dumps(decomposition_report(decomp)))
    return 0


def _cmd_decay(args) -> int:
    report = decay_diagnostic(read_matrix_text(args.matrix), args.kmax)
    print(json.dumps(asdict(report)))
    return 0


def _cmd_weights(args) -> int:
    matrix = read_matrix_text(args.matrix)
    dists = [read_distribution_text(path, matrix.m) for path in args.init]
    decomp = decompose(matrix)
    weights = weights_from_chains(dists, decomp)
    per_chain = [limiting_distribution(d, decomp).tolist() for d in dists]
    print(json.dumps({"weights": weights.tolist(), "per_chain": per_chain}))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # every harness error (unknown method or test, bad spec, degenerate
    # fit) is a ValueError
    except (MarkovError, ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
