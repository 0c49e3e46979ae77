"""Sweep constant stepsizes against noise scales and report the floors.

With a constant stepsize the best objective stops improving at a
positive plateau set jointly by the stepsize and the noise magnitude.
This driver runs the chain-driven method on the study problem for each
(stepsize, noise scale) pair, all seeds of a pair as one run_batch, and
reports the median plateau, estimated as the minimum objective over the
last 10% of each run.

Caveat: smaller stepsizes descend proportionally slower, so a pair
whose descent phase exceeds the budget reports its current transient
level, not its eventual floor. The table marks rows still descending
at the end of the run (best objective was set in the final 10%).

Examples:
    python3 scripts/noise_floor.py --quick
    python3 scripts/noise_floor.py --stepsizes 5e-4 5e-5 --scales 0.1 0.01
"""

import argparse
import dataclasses

import numpy as np

from chainopt import ConstantStepsize, NoiseModel, build_experiment, run_batch


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stepsizes", nargs="+", type=float, default=[5e-4, 5e-5])
    parser.add_argument("--scales", nargs="+", type=float, default=[0.1, 0.01])
    parser.add_argument("--seeds", type=int, default=3, help="seed count, runs 0..N-1")
    parser.add_argument("--budget", type=int, default=1_000_000)
    parser.add_argument(
        "--quick", action="store_true", help="1 seed, 2e5 iterations, for smoke runs"
    )
    return parser.parse_args()


def main():
    args = parse_args()
    seeds = range(1 if args.quick else args.seeds)
    budget = 200_000 if args.quick else args.budget

    header = (
        f"{'stepsize':<10}{'noise scale':<13}{'median plateau':<16}"
        f"{'median best f':<15}{'state':<12}"
    )
    print(header)
    print("-" * len(header))
    for lam in args.stepsizes:
        for scale in args.scales:
            plateaus = []
            bests = []
            descending = False
            configs = [
                dataclasses.replace(
                    build_experiment(
                        "m1", 5, seed=seed, schedule=ConstantStepsize(lam), budget=budget
                    ),
                    noise=NoiseModel("normal_scaled", scale),
                )
                for seed in seeds
            ]
            for trace in run_batch(configs):
                tail = trace.f[-(len(trace.f) // 10):]
                plateaus.append(float(tail.min()))
                bests.append(float(trace.best_f[-1]))
                descending |= trace.best_k >= int(0.9 * budget)
            state = "descending" if descending else "plateaued"
            print(
                f"{lam:<10g}{scale:<13g}{float(np.median(plateaus)):<16.3e}"
                f"{float(np.median(bests)):<15.3e}{state:<12}"
            )


if __name__ == "__main__":
    main()
