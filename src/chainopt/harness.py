"""Benchmark study builder, suite driver, and decay diagnostics.

Holds the data of the reference study: a 20-dimensional absolute-residual
objective with 7 components, a 7-state selection chain with two recurrent
classes, three baseline selection schemes, the noise test grid, and the
published stepsize parameters. Builds fully-seeded run configurations,
drives multi-seed suites with first-crossing statistics, and fits the
geometric decay of the matrix powers toward their limit.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .markov import TransitionMatrix, _check_count, decompose, power_limit, validate_stochastic
from .optimizer import (
    CROSSING_THRESHOLDS,
    ChainSpec,
    ConstantStepsize,
    DiminishingBlockStepsize,
    RunConfig,
    _write_trace_csvs,
    make_baseline,
    run_batch,
)
from .problems import Box, NoiseModel, make_l1_problem, project, weights_from_chains

__all__ = [
    "UnknownMethodError",
    "UnknownTestError",
    "InvalidSpecError",
    "DegenerateFitError",
    "ExperimentSpec",
    "DecayFit",
    "DecayReport",
    "METHODS",
    "TESTS",
    "study_matrix",
    "study_design",
    "study_weights",
    "study_chain_starts",
    "noise_for_test",
    "default_schedule",
    "build_experiment",
    "run_suite",
    "decay_diagnostic",
    "first_crossings",
]


class UnknownMethodError(ValueError):
    """Method label outside m1..m4."""


class UnknownTestError(ValueError):
    """Noise test number outside 1..6."""


class InvalidSpecError(ValueError):
    """An experiment spec that cannot be run (for example, no seeds)."""


class DegenerateFitError(ValueError):
    """All decay norms sit below measurement precision; nothing to fit."""


METHODS = ("m1", "m2", "m3", "m4")
TESTS = (1, 2, 3, 4, 5, 6)

DIMENSION = 20
COMPONENTS = 7

# Sparse coefficient rows (1-based column, value), one row per component.
COEFFICIENT_ENTRIES = {
    1: [(2, 0.5), (3, 0.1), (4, 0.2), (14, 0.25), (15, 0.1)],
    2: [(6, 0.4), (7, 0.15), (12, 0.3), (16, 0.45), (19, 0.1), (20, 0.2)],
    3: [(13, 0.02), (14, 0.06)],
    4: [
        (1, 0.12),
        (2, 0.21),
        (3, 0.3),
        (7, 0.5),
        (13, 0.4),
        (14, 0.1),
        (15, 0.18),
        (19, 0.1),
        (20, 0.14),
    ],
    5: [
        (1, 0.8),
        (2, 0.4),
        (8, 1.2),
        (9, 1.0),
        (10, 0.85),
        (17, 0.4),
        (18, 0.7),
        (19, 0.1),
    ],
    6: [(2, 0.25), (3, 0.34), (8, 0.45), (9, 0.35), (13, 0.18), (14, 0.22)],
    7: [(13, 0.05), (14, 0.08)],
}

LOWER_BOUNDS = (
    -1.0, -0.5, -1.5, -1.3, 0.0, 0.1, 0.3, -0.2, -1.0, 0.0,
    -0.25, -0.1, 0.3, 0.1, 0.0, -1.1, 0.35, 0.15, 0.0, -0.45,
)
UPPER_BOUNDS = (
    2.0, 1.5, 2.3, 3.0, 2.0, 1.8, 2.25, 1.7, 1.5, 2.0,
    2.8, 1.75, 2.35, 1.95, 2.0, 1.0, 2.5, 1.35, 2.0, 3.0,
)

# 7-state selection chain: two recurrent classes, one periodic.
SELECTION_ROWS = (
    (0.0, 0.0, 0.2, 0.8, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.15, 0.85, 0.0, 0.0, 0.0),
    (0.4, 0.6, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.8, 0.2),
    (0.0, 0.0, 0.0, 0.0, 0.8, 0.0, 0.2),
    (0.0, 0.0, 0.0, 0.0, 0.6, 0.4, 0.0),
)

# Neighbor sets for the equal-probability baseline, 0-based.
NEIGHBOR_SETS = (
    (1, 2),
    (0, 2, 6),
    (0, 1, 5),
    (4, 5),
    (3,),
    (2, 3, 6),
    (1, 5),
)

# Diminishing-schedule parameters (scale a, exponent xi) per method, and
# the constant-regime default stepsizes.
DIMINISHING_PARAMS = {"m1": (2.0, 0.7), "m2": (2.0, 0.7), "m3": (2.5, 0.667), "m4": (2.5, 0.667)}
CONSTANT_LAMBDA = {"m1": 5e-4, "m2": 1e-3, "m3": 1e-3, "m4": 1e-3}
# The chain-driven method decays its stepsize once per chain period; the
# baselines decay every iteration.
SCHEDULE_BLOCK = {"m1": 2, "m2": 1, "m3": 1, "m4": 1}


def _check_method(method: str) -> str:
    key = str(method).lower()
    if key not in METHODS:
        raise UnknownMethodError(f"unknown method {method!r}, expected one of {METHODS}")
    return key


def _check_test(test: int) -> int:
    value = _check_count(test, "noise test", 1, UnknownTestError)
    if value not in TESTS:
        raise UnknownTestError(f"unknown noise test {test!r}, expected one of {TESTS}")
    return value


def study_matrix() -> TransitionMatrix:
    """The study's 7-state selection chain."""
    return validate_stochastic(np.asarray(SELECTION_ROWS))


def study_design():
    """Coefficient matrix, offsets, and box of the study problem.

    The offsets are generated as b = A y with y the box midpoint, so the
    optimal objective value is exactly zero and every run has a known
    target.
    """
    A = np.zeros((COMPONENTS, DIMENSION))
    for i, entries in COEFFICIENT_ENTRIES.items():
        for j, value in entries:
            A[i - 1, j - 1] = value
    box = Box(np.asarray(LOWER_BOUNDS), np.asarray(UPPER_BOUNDS))
    y = box.midpoint()
    # per-row dots, not A @ y: the component oracle computes each residual
    # as a single dot product, and matching its accumulation order makes
    # the objective at y exactly zero instead of a few ulp above it
    b = np.asarray([float(row @ y) for row in A])
    return A, b, box, y


def _unit_mass(m: int, state: int) -> np.ndarray:
    vec = np.zeros(m)
    vec[state] = 1.0
    return vec


def study_chain_starts() -> tuple[np.ndarray, np.ndarray]:
    """Initial distributions of the two parallel chains (states 1 and 5)."""
    return _unit_mass(COMPONENTS, 0), _unit_mass(COMPONENTS, 4)


def study_weights():
    """Decomposition of the selection chain and the objective weights.

    The weights average the two chains' limit distributions and define
    the objective for every method, including the baselines.
    """
    decomp = decompose(study_matrix())
    weights = weights_from_chains(study_chain_starts(), decomp)
    return decomp, weights


def noise_for_test(test: int) -> NoiseModel:
    test = _check_test(test)
    if test == 1:
        return NoiseModel.zero()
    if test == 2:
        return NoiseModel.uniform_decaying()
    if test == 3:
        return NoiseModel.uniform_scaled(0.1)
    if test == 4:
        return NoiseModel.uniform_scaled(0.01)
    if test == 5:
        return NoiseModel.normal_scaled(0.1)
    return NoiseModel.normal_scaled(0.01)


def default_schedule(method: str, kind: str = "diminishing", a=None, xi=None, lam=None):
    """Published stepsize defaults, with optional per-field overrides.

    a and xi apply to the diminishing kind, lam to the constant kind;
    an override for the other kind raises ValueError.
    """
    method = _check_method(method)
    unused = {"diminishing": {"lam": lam}, "constant": {"a": a, "xi": xi}}.get(kind, {})
    for name, value in unused.items():
        if value is not None:
            raise ValueError(f"stepsize override {name}={value!r} does not apply to {kind}")
    if kind == "diminishing":
        base_a, base_xi = DIMINISHING_PARAMS[method]
        return DiminishingBlockStepsize(
            a=base_a if a is None else float(a),
            xi=base_xi if xi is None else float(xi),
            block_len=SCHEDULE_BLOCK[method],
        )
    if kind == "constant":
        value = CONSTANT_LAMBDA[method] if lam is None else float(lam)
        return ConstantStepsize(lam=value)
    raise ValueError(f"unknown schedule kind {kind!r}, expected diminishing or constant")


def build_experiment(
    method: str,
    test: int,
    *,
    seed: int = 0,
    schedule=None,
    budget: int = 100_000,
    stride: int = 1,
) -> RunConfig:
    """Fully-populated run configuration for one method and noise test.

    m1 drives selection with the 7-state chain from two parallel starts.
    m2 (equal-probability), m3 (cyclic), and m4 (uniform) are single
    chain baselines; they visit components without regard to the target
    weights, so their updates rescale each subgradient by the component
    weight while the reported objective stays the same weighted sum.
    """
    method = _check_method(method)
    test = _check_test(test)
    A, b, box, _ = study_design()
    decomp_main, weights = study_weights()
    problem = make_l1_problem(A, b, box, weights)
    scale = None
    if method == "m1":
        matrix = study_matrix()
        decomp = decomp_main
        first, second = study_chain_starts()
        chains = (ChainSpec(first, seed), ChainSpec(second, seed))
    else:
        if method == "m2":
            matrix, _ = make_baseline("equal_probability", COMPONENTS, NEIGHBOR_SETS)
            init = _unit_mass(COMPONENTS, 4)
        elif method == "m3":
            matrix, init = make_baseline("cyclic", COMPONENTS)
        else:
            matrix, init = make_baseline("uniform_random", COMPONENTS)
        decomp = decompose(matrix)
        chains = (ChainSpec(init, seed),)
        scale = weights
    if schedule is None:
        schedule = default_schedule(method)
    x0 = project(box, np.zeros(DIMENSION))
    return RunConfig(
        problem=problem,
        matrix=matrix,
        decomp=decomp,
        chains=chains,
        schedule=schedule,
        noise=noise_for_test(test),
        x0=x0,
        budget=budget,
        stride=stride,
        subgradient_scale=scale,
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """One suite: a method, a noise test, seeds, and an output directory.

    Checked when built: the method (UnknownMethodError) and the noise
    test (UnknownTestError), kept normalised ("M1" becomes "m1"), at
    least one seed, no seed twice, and an integer budget of at least 1
    (InvalidSpecError). seeds is kept as a tuple and budget as an int.
    Each seed is checked when run_suite builds the runs.
    """

    method: str
    test: int
    seeds: tuple
    budget: int = 100_000
    schedule: object = None
    out: str = "study_out"

    def __post_init__(self):
        object.__setattr__(self, "method", _check_method(self.method))
        object.__setattr__(self, "test", _check_test(self.test))
        seeds = tuple(self.seeds)
        if not seeds:
            raise InvalidSpecError("experiment spec needs at least one seed")
        if len(set(seeds)) != len(seeds):
            raise InvalidSpecError(f"experiment spec repeats a seed: {seeds}")
        object.__setattr__(self, "seeds", seeds)
        budget = _check_count(self.budget, "budget", 1, InvalidSpecError)
        object.__setattr__(self, "budget", budget)


def first_crossings(trace) -> dict:
    """trace.crossings, the run's exact record, keyed by threshold ("1e-03")."""
    return {f"{tau:.0e}": k for tau, k in zip(CROSSING_THRESHOLDS, trace.crossings)}


def _quartiles(values):
    finite = [v for v in values if v is not None]
    if not finite:
        return None, None, None
    q25, q50, q75 = np.percentile(np.asarray(finite, dtype=np.float64), [25, 50, 75])
    return float(q25), float(q50), float(q75)


def _schedule_to_json(schedule) -> dict:
    kind = "constant" if isinstance(schedule, ConstantStepsize) else "diminishing_block"
    return {"kind": kind, **asdict(schedule)}


def run_suite(spec: ExperimentSpec) -> dict:
    """Run every seed of the spec, write traces and a summary JSON.

    All seeds run as one run_batch at the CSV stride, about 10^4 rows
    per seed so files stay reviewable. Each seed produces one CSV and
    one entry in the summary, whose first crossings are the engine's
    exact record. The batch's CSVs are written in one pass, which
    formats the k and lambda columns the seeds share once. The summary
    records per-threshold first-crossing iterations with median and
    interquartile range over seeds, best objective values, and
    per-iteration timing. A seed's wall_time_s and ns_per_iteration are
    the batch's wall time divided by the number of seeds.
    """
    method, test = spec.method, spec.test
    csv_stride = max(1, spec.budget // 10_000)
    started = time.perf_counter()
    # built before the output directory, so a bad seed or budget writes nothing
    configs = [
        build_experiment(
            method, test, seed=seed, schedule=spec.schedule, budget=spec.budget, stride=csv_stride
        )
        for seed in spec.seeds
    ]
    seeds = [config.chains[0].seed for config in configs]  # as ints, for the JSON summary
    out_dir = Path(spec.out)
    os.makedirs(out_dir, exist_ok=True)
    traces = run_batch(configs)
    csv_names = [f"{method}_test{test}_seed{seed}.csv" for seed in seeds]
    _write_trace_csvs(traces, [out_dir / name for name in csv_names])
    per_seed = [
        {
            "seed": seed,
            "first_crossing": first_crossings(trace),
            "best_f": float(trace.best_f[-1]),
            "best_k": int(trace.best_k),
            "final_f": float(trace.f[-1]),
            "wall_time_s": trace.wall_time_s,
            "ns_per_iteration": trace.ns_per_iteration,
            "max_subgradient_norm": trace.max_subgradient_norm,
            "trace_csv": csv_name,
        }
        for seed, trace, csv_name in zip(seeds, traces, csv_names)
    ]
    crossing_stats = {}
    for tau in CROSSING_THRESHOLDS:
        key = f"{tau:.0e}"
        values = [entry["first_crossing"][key] for entry in per_seed]
        q25, q50, q75 = _quartiles(values)
        crossing_stats[key] = {
            "crossed": sum(1 for v in values if v is not None),
            "median": q50,
            "iqr": None if q25 is None else [q25, q75],
        }
    config = configs[0]
    summary = {
        "method": method,
        "test": test,
        "budget": spec.budget,
        "chains": len(config.chains),
        "schedule": _schedule_to_json(config.schedule),
        "noise": asdict(config.noise),
        "seeds": list(seeds),
        "csv_stride": csv_stride,
        "per_seed": per_seed,
        "first_crossing": crossing_stats,
        "median_best_f": float(np.median([e["best_f"] for e in per_seed])),
        "ns_per_iteration_mean": float(np.mean([e["ns_per_iteration"] for e in per_seed])),
        "suite_wall_time_s": time.perf_counter() - started,
    }
    with open(out_dir / f"{method}_test{test}_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return summary


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of a decay curve: values ~ alpha * exp(-beta k)."""

    alpha_hat: float
    beta_hat: float
    rmse: float
    k_used: tuple


@dataclass(frozen=True)
class DecayReport:
    """Matrix-power decay fit, plus the transient-mass fit when it exists."""

    matrix: DecayFit
    transient: DecayFit | None


def _fit_decay(ks: np.ndarray, values: np.ndarray, floor: float):
    """Fit log(values) against k, using only points above the rounding floor."""
    mask = values > floor
    if int(mask.sum()) < 2:
        return None
    xs = ks[mask].astype(np.float64)
    ys = np.log(values[mask])
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    rmse = float(np.sqrt(np.mean((ys - predicted) ** 2)))
    return DecayFit(
        alpha_hat=float(np.exp(intercept)),
        beta_hat=float(-slope),
        rmse=rmse,
        k_used=(int(xs[0]), int(xs[-1])),
    )


def decay_diagnostic(P: TransitionMatrix, k_max: int = 50) -> DecayReport:
    """Measure how fast P^(delta k) approaches power_limit(P, delta).

    That limit is the Cesaro limit of P^delta; on an aperiodic chain
    (delta = 1) it is the Cesaro limit decompose returns. Computes the
    induced max-row-sum norm of the difference for k = 1..k_max and
    fits a geometric decay to the points above the rounding floor
    k_max * m * eps: each of the k_max powers of an m-state matrix can
    add about m * eps to a row sum, so smaller values are rounding, not
    decay. When the chain has transient states, the worst-case transient
    occupation mass over all deterministic starts is fitted the same way.
    Raises DegenerateFitError when the matrix decay has nothing to fit
    (the power already equals its limit).
    """
    k_max = _check_count(k_max, "k_max", 5)
    decomp = decompose(P)
    block = np.linalg.matrix_power(P.matrix, decomp.delta)
    # P^1 is P, whose limit decompose has already computed
    limit = decomp.cesaro if decomp.delta == 1 else power_limit(P, decomp.delta)
    t_idx = np.asarray(decomp.transient, dtype=np.int64)
    ks = np.arange(1, k_max + 1)
    norms = np.empty(k_max)
    masses = np.empty(k_max) if t_idx.size else None
    power = block
    for i in range(k_max):
        if i:
            power = power @ block
        norms[i] = float(np.abs(power - limit).sum(axis=1).max())
        if masses is not None:
            masses[i] = float(power[:, t_idx].sum(axis=1).max())
    floor = k_max * P.m * np.finfo(np.float64).eps
    matrix_fit = _fit_decay(ks, norms, floor)
    if matrix_fit is None:
        raise DegenerateFitError(
            f"all decay norms over k = 1..{k_max} sit below the rounding floor "
            f"{floor:.1e}; the power already equals its limit"
        )
    transient_fit = _fit_decay(ks, masses, floor) if masses is not None else None
    return DecayReport(matrix=matrix_fit, transient=transient_fit)
