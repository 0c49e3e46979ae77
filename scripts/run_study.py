"""Run the full method-by-noise study grid and print a summary table.

Each (method, test) cell runs every seed, writes per-seed trace CSVs
and a summary JSON into the output directory, and contributes one row
to the table printed at the end. The defaults reproduce the desk-scale
study (11 seeds, 10^5 iterations); --quick cuts it down to a smoke run.

Examples:
    python3 scripts/run_study.py --quick
    python3 scripts/run_study.py --methods m1 m3 --tests 1 5 --out study_out
"""

import argparse

from chainopt import METHODS, TESTS, ExperimentSpec, run_suite


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--methods", nargs="+", default=list(METHODS), choices=METHODS)
    parser.add_argument("--tests", nargs="+", type=int, default=list(TESTS))
    parser.add_argument("--seeds", type=int, default=11, help="seed count, runs 0..N-1")
    parser.add_argument("--budget", type=int, default=100_000)
    parser.add_argument("--out", default="study_out")
    parser.add_argument(
        "--quick", action="store_true", help="3 seeds, 2e4 iterations, for smoke runs"
    )
    return parser.parse_args()


def main():
    args = parse_args()
    seeds = tuple(range(3 if args.quick else args.seeds))
    budget = 20_000 if args.quick else args.budget
    rows = []
    for method in args.methods:
        for test in args.tests:
            summary = run_suite(
                ExperimentSpec(
                    method=method, test=test, seeds=seeds, budget=budget, out=args.out
                )
            )
            rows.append(summary)
            stats = summary["first_crossing"]["1e-03"]
            print(
                f"done {method} test {test}: median best f "
                f"{summary['median_best_f']:.3e}, 1e-3 crossed by "
                f"{stats['crossed']}/{len(seeds)} seeds"
            )

    header = (
        f"{'method':<7}{'test':<5}{'noise':<18}{'cross 1e-3 (med)':<17}"
        f"{'crossed':<9}{'median best f':<15}{'ns/iter':<9}"
    )
    print()
    print(header)
    print("-" * len(header))
    for summary in rows:
        noise = summary["noise"]
        noise_label = noise["kind"] + (
            f" {noise['scale']:g}" if noise["scale"] else ""
        )
        stats = summary["first_crossing"]["1e-03"]
        median = "never" if stats["median"] is None else f"{stats['median']:.0f}"
        print(
            f"{summary['method']:<7}{summary['test']:<5}{noise_label:<18}"
            f"{median:<17}{stats['crossed']}/{len(summary['seeds']):<7}"
            f"{summary['median_best_f']:<15.3e}"
            f"{summary['ns_per_iteration_mean']:<9.0f}"
        )
    print(f"\ntraces and summaries written to {args.out}/")


if __name__ == "__main__":
    main()
