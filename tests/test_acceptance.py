"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single "criterion NN: PASS/FAIL" line (visible with
-s, or in the captured output of a failing test) and then asserts.

Two criteria are expected to fail and are kept failing on purpose:

* Criterion 03: the 3-decimal reference vector for the selection
  weights disagrees with the exactly computed weights by up to ~7.1e-4
  in two entries, where the check demands 5e-4. The computed weights
  are verified two independent ways in test_problems, so the
  discrepancy is recorded here rather than papered over with a looser
  tolerance.
* Criterion 07: dividing a constant stepsize by 10 stretches the
  descent phase past the stated 10^6-iteration budget, so the reduced
  run cannot exhibit its (genuinely lower) noise floor inside the
  budget. See the test docstring for measurements.
"""

import dataclasses
import time

import numpy as np

from chainopt import (
    Box,
    ChainSpec,
    ConstantStepsize,
    DiminishingBlockStepsize,
    NoiseModel,
    RunConfig,
    build_experiment,
    decay_diagnostic,
    decompose,
    first_crossings,
    make_baseline,
    make_l1_problem,
    objective,
    run,
    run_batch,
    study_design,
    study_matrix,
    study_weights,
    validate_stochastic,
    weights_from_chains,
    write_trace_csv,
)
from conftest import NINE_STATE_ROWS, cesaro_limit_oracle, unit_mass

REFERENCE_WEIGHTS = [0.121, 0.129, 0.043, 0.206, 0.213, 0.203, 0.083]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_nine_state_decomposition_exact_and_fast():
    tm = validate_stochastic(NINE_STATE_ROWS)
    decompose(tm)  # warm-up outside the timed region
    best = min(
        (lambda t0: (decompose(tm), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    dec = decompose(tm)
    exact = (
        dec.classes == ((0, 1, 2, 3), (4, 5, 6))
        and dec.periods == (2, 3)
        and dec.transient == (7, 8)
        and dec.delta == 6
    )
    ok = exact and best < 1e-3
    report(1, ok, f"exact={exact}, best runtime {best * 1e6:.0f} us (< 1000 us)")
    assert ok


def test_criterion_02_seven_state_decomposition_exact():
    dec = decompose(study_matrix())
    ok = (
        dec.classes == ((0, 1, 2, 3), (4, 5, 6))
        and dec.periods == (2, 1)
        and dec.transient == ()
        and dec.delta == 2
    )
    report(2, ok, f"classes={dec.classes}, periods={dec.periods}, delta={dec.delta}")
    assert ok


def test_criterion_03_weights_match_reference_vector():
    _, weights = study_weights()
    deviations = np.abs(weights - np.asarray(REFERENCE_WEIGHTS))
    worst = int(np.argmax(deviations))
    ok = bool(np.all(deviations <= 5e-4))
    report(
        3,
        ok,
        f"max |computed - reference| = {deviations[worst]:.2e} at entry {worst + 1} "
        f"(tolerance 5e-4, entries over it: "
        f"{[i + 1 for i in np.flatnonzero(deviations > 5e-4)]})",
    )
    assert ok, (
        "computed weights, cross-checked against an independent stationary "
        "solve in test_problems, differ from the 3-decimal reference vector "
        f"by {deviations[worst]:.2e} at entry {worst + 1}; the reference "
        "appears truncated rather than rounded, so the 5e-4 tolerance is "
        "unattainable and this failure is expected"
    )


def _corpus_matrix(rng: np.random.Generator, index: int) -> np.ndarray:
    """Deterministic mixed corpus: dense, permutation, cycle+transient."""
    m = int(rng.integers(2, 9))
    kind = index % 3
    P = np.zeros((m, m))
    if kind == 0:
        weights = rng.integers(1, 10, size=(m, m)).astype(np.float64)
        P = weights / weights.sum(axis=1, keepdims=True)
    elif kind == 1:
        P[np.arange(m), rng.permutation(m)] = 1.0
    else:
        c = int(rng.integers(1, m + 1))
        for i in range(c):
            P[i, (i + 1) % c] = 1.0
        for i in range(c, m):
            row = rng.integers(1, 10, size=m).astype(np.float64)
            P[i] = row / row.sum()
    return P


def test_criterion_04_cesaro_agrees_with_power_averaging_oracle():
    rng = np.random.default_rng(20260816)
    worst_oracle = 0.0
    worst_fixed = 0.0
    for index in range(50):
        tm = validate_stochastic(_corpus_matrix(rng, index))
        dec = decompose(tm)
        oracle = cesaro_limit_oracle(tm.matrix, 100_000 * dec.delta)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(dec.cesaro - oracle))))
        worst_fixed = max(
            worst_fixed, float(np.max(np.abs(dec.cesaro @ tm.matrix - dec.cesaro)))
        )
    ok = worst_oracle <= 1e-3 and worst_fixed <= 1e-10
    report(
        4,
        ok,
        f"50 matrices: max |cesaro - oracle| = {worst_oracle:.2e} (<= 1e-3), "
        f"max |cesaro P - cesaro| = {worst_fixed:.2e} (<= 1e-10)",
    )
    assert ok


def test_criterion_05_single_chain_cyclic_reduction_is_bitwise():
    A, b, box, _ = study_design()
    _, weights = study_weights()
    m = A.shape[0]
    matrix, init = make_baseline("cyclic", m)
    config = RunConfig(
        problem=make_l1_problem(A, b, box, weights),
        matrix=matrix,
        decomp=decompose(matrix),
        chains=(ChainSpec(init_dist=init, seed=0),),
        schedule=DiminishingBlockStepsize(2.5, 0.667, 1),
        noise=NoiseModel.zero(),
        x0=box.midpoint() + 0.5,
        budget=10_000,
    )

    # reference cyclic incremental subgradient loop: numpy only
    y = box.midpoint() + 0.5
    s = 0
    sched = config.schedule
    reference = [y.copy()]
    fs = [float(weights @ np.abs(A @ y - b))]
    for k in range(config.budget):
        s = (s + 1) % m
        lam = sched.a / float(k // sched.block_len + 1) ** sched.xi
        r = float(A[s] @ y) - b[s]
        if r > 0.0:
            g = A[s]
        elif r < 0.0:
            g = -A[s]
        else:
            g = np.zeros_like(y)
        y = np.clip(y - lam * g, box.lower, box.upper)
        reference.append(y.copy())
        fs.append(float(weights @ np.abs(A @ y - b)))

    trace = run(config)
    same_f = np.array_equal(trace.f, np.asarray(fs))
    # final iterates on both sides of the engine's block edges
    budgets = (1, 511, 512, 513, config.budget)
    same_iterates = all(
        np.array_equal(run(dataclasses.replace(config, budget=k)).final_x, reference[k])
        for k in budgets
    )
    ok = same_iterates and same_f
    report(
        5,
        ok,
        f"final iterates at budgets {budgets} bitwise equal: {same_iterates}, "
        f"run() objective at all 10^4 iterates bitwise equal: {same_f}",
    )
    assert ok


def test_criterion_06_diminishing_median_crossing_under_1e4():
    crossings = []
    walls = []
    for seed in range(11):
        trace = run(build_experiment("m1", 1, seed=seed, budget=100_000))
        crossings.append(first_crossings(trace)["1e-03"])
        walls.append(trace.wall_time_s)
    crossed = [c for c in crossings if c is not None]
    median = float(np.median(crossed)) if len(crossed) == len(crossings) else np.inf
    ok = median <= 10_000 and max(walls) <= 10.0
    report(
        6,
        ok,
        f"median first-crossing of 1e-3 at k = {median:.0f} (<= 10000), "
        f"slowest seed {max(walls):.1f} s (<= 10 s)",
    )
    assert ok


def _plateau(trace) -> float:
    """Noise-floor estimate: minimum objective over the last 10% of a run."""
    tail = trace.f[-(len(trace.f) // 10):]
    return float(tail.min())


def test_criterion_07_constant_stepsize_noise_floor():
    """Expected to fail at the stated budget.

    The first clause holds: with constant stepsize 5e-4 and scale-0.1
    normal noise, the best objective flattens out well above 0. The
    second clause asks the same 10^6-iteration budget to show a lower
    plateau after dividing the stepsize and the noise scale by 10, but
    a 10x smaller constant stepsize stretches the descent phase about
    10x: the reduced run first reaches 1e-4 near iteration 1.7e6 and
    only flattens out (near 7e-7, genuinely below the base plateau) by
    3e6 iterations. Within 10^6 iterations it is still descending
    through ~3e-3, two orders of magnitude above the base plateau, for
    every seed. The comparison is kept at the stated budget rather than
    stretched to one where it would pass.
    """
    # each group of 5 seeds runs as one batch, recorded at every iterate
    # because _plateau reads the last 10% of f
    configs = [
        build_experiment("m1", 5, seed=seed, schedule=ConstantStepsize(5e-4), budget=1_000_000)
        for seed in range(5)
    ]
    base_plateaus = [_plateau(trace) for trace in run_batch(configs)]
    reduced = [
        dataclasses.replace(
            config,
            schedule=ConstantStepsize(5e-5),
            noise=NoiseModel("normal_scaled", 0.01),
        )
        for config in configs
    ]
    reduced_plateaus = [_plateau(trace) for trace in run_batch(reduced)]
    base = float(np.median(base_plateaus))
    lowered = float(np.median(reduced_plateaus))
    ok = min(base_plateaus) > 0.0 and lowered < base
    report(
        7,
        ok,
        f"median plateau {base:.2e} (all > 0: {min(base_plateaus) > 0.0}), "
        f"after stepsize/10 and noise/10 at the same budget: {lowered:.2e} "
        f"(strictly lower: {lowered < base})",
    )
    assert ok, (
        f"the reduced-stepsize rerun is still mid-descent at 10^6 iterations "
        f"(median plateau {lowered:.2e} vs base {base:.2e}); it does reach a "
        f"lower floor (~7e-7) by 3x10^6 iterations, so the floor property "
        f"itself is sound and only the stated budget makes this unattainable"
    )


def test_criterion_08_power_decay_fits_are_geometric():
    seven = decay_diagnostic(study_matrix(), 50)
    nine = decay_diagnostic(validate_stochastic(NINE_STATE_ROWS), 50)
    ok = (
        seven.matrix.beta_hat > 0.0
        and seven.matrix.rmse < 0.5
        and nine.matrix.beta_hat > 0.0
        and nine.matrix.rmse < 0.5
        and nine.transient is not None
        and nine.transient.beta_hat > 0.0
    )
    report(
        8,
        ok,
        f"7-state beta {seven.matrix.beta_hat:.2f} rmse {seven.matrix.rmse:.2f}; "
        f"9-state beta {nine.matrix.beta_hat:.2f} rmse {nine.matrix.rmse:.2f}, "
        f"transient-mass beta {nine.transient.beta_hat:.2f}",
    )
    assert ok


def test_criterion_09_weighted_objective_matches_grid_minimum():
    P = validate_stochastic([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    dec = decompose(P)
    start = unit_mass(3, 0)
    w = weights_from_chains([start], dec)
    assert np.allclose(w, [0.5, 0.5, 0.0], atol=1e-12)

    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, -5.0])
    box = Box(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
    problem = make_l1_problem(A, b, box, w)
    config = RunConfig(
        problem=problem,
        matrix=P,
        decomp=dec,
        chains=(ChainSpec(init_dist=start, seed=3),),
        schedule=DiminishingBlockStepsize(1.0, 0.7, 2),
        noise=NoiseModel.zero(),
        x0=box.midpoint(),
        budget=100_000,
        stride=100,
    )
    trace = run(config)
    best = objective(problem, trace.best_x)

    axis = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
    grid_min = np.inf
    for block in np.array_split(axis, 32):
        x1 = block[:, None]
        x2 = axis[None, :]
        f = w[0] * np.abs(x1 - 1.0) + w[1] * np.abs(x2 - 2.0)
        f += w[2] * np.abs(x1 + x2 + 5.0)
        grid_min = min(grid_min, float(f.min()))
    ok = best <= grid_min + 1e-3
    report(
        9,
        ok,
        f"best objective {best:.2e} vs grid minimum {grid_min:.2e} "
        f"(within 1e-3: {ok})",
    )
    assert ok


def test_criterion_10_trace_csvs_are_bitwise_reproducible(tmp_path):
    config = build_experiment("m1", 5, seed=7, budget=20_000, stride=2)
    other = build_experiment("m1", 5, seed=8, budget=20_000, stride=2)
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv", "d.csv")]
    write_trace_csv(run(config), paths[0])
    write_trace_csv(run(config), paths[1])
    write_trace_csv(run_batch([other, config])[1], paths[2])
    write_trace_csv(run_batch([config, other])[0], paths[3])
    blobs = [p.read_bytes() for p in paths]
    rerun_same = blobs[0] == blobs[1]
    batch_same = blobs[0] == blobs[2] == blobs[3]
    ok = rerun_same and batch_same
    report(
        10,
        ok,
        f"rerun identical: {rerun_same}, alone vs second and first of a batch "
        f"identical: {batch_same} ({len(blobs[0])} bytes)",
    )
    assert ok
