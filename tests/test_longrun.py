"""Long-horizon convergence checks (under a minute total).

These verify the million-iteration behavior of the study configuration:
diminishing stepsizes drive the best objective through 1e-2 and 1e-4,
and the published constant stepsize crosses 1e-4 well before 5e5
iterations. Each test runs its 11 seeds as one batch that records only
the first and last iterate; the crossings are exact at any stride.
Kept separate from the fast unit modules.
"""

import numpy as np

from chainopt import ConstantStepsize, build_experiment, first_crossings, run_batch

SEEDS = tuple(range(11))


def test_diminishing_hits_deep_thresholds():
    # best-so-far f below 1e-2 by 1e4 and below 1e-4 by 1e6 for at
    # least 9 of 11 seeds
    coarse_hits = 0
    fine_hits = 0
    budget = 1_000_000
    configs = [build_experiment("m1", 1, seed=s, budget=budget, stride=budget) for s in SEEDS]
    for trace in run_batch(configs):
        crossings = first_crossings(trace)
        coarse = crossings["1e-02"]
        fine = crossings["1e-04"]
        coarse_hits += coarse is not None and coarse <= 10_000
        fine_hits += fine is not None
    assert coarse_hits >= 9
    assert fine_hits >= 9


def test_constant_stepsize_crosses_1e4_by_half_million():
    # constant 5e-4, no noise: the 1e-4 threshold falls near iteration
    # 1.7e5, so the median crossing sits far inside the 5e5 budget
    budget = 500_000
    configs = [
        build_experiment(
            "m1", 1, seed=s, schedule=ConstantStepsize(5e-4), budget=budget, stride=budget
        )
        for s in SEEDS
    ]
    crossings = [first_crossings(trace)["1e-04"] for trace in run_batch(configs)]
    crossed = [c for c in crossings if c is not None]
    assert len(crossed) >= 6
    assert float(np.median(crossed)) <= 500_000
