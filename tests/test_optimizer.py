"""Tests for the averaged-subgradient loop: schedules, updates, determinism."""

import csv
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainopt import (
    CROSSING_THRESHOLDS,
    Box,
    ChainSpec,
    ConvexSumProblem,
    ConstantStepsize,
    DiminishingBlockStepsize,
    InvalidNeighborsError,
    InvalidParametersError,
    L1Component,
    NoiseModel,
    RunConfig,
    UnreachableClassWarning,
    build_experiment,
    decompose,
    make_baseline,
    make_l1_problem,
    objective,
    parse_trace_csv,
    run,
    run_batch,
    stepsize,
    thin_trace,
    validate_stochastic,
    weights_from_chains,
    write_trace_csv,
)
from chainopt.harness import NEIGHBOR_SETS, study_design, study_weights
from chainopt.optimizer import BLOCK, CSV_CHUNK, _stepsizes, _write_trace_csvs

from conftest import PlainAbs, plain_abs_problem, unit_mass


def small_problem():
    """Three absolute-residual components in the plane."""
    A = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.asarray([1.0, 2.0, -5.0])
    box = Box([-3.0, -3.0], [3.0, 3.0])
    return make_l1_problem(A, b, box, [0.5, 0.5, 0.0])


def cyclic_config(problem, budget=200, schedule=None, noise=None, seeds=(0,),
                  scale=None, stride=1):
    m = problem.m
    matrix, init = make_baseline("cyclic", m)
    return RunConfig(
        problem=problem,
        matrix=matrix,
        decomp=decompose(matrix),
        chains=tuple(ChainSpec(init_dist=init, seed=s) for s in seeds),
        schedule=schedule or DiminishingBlockStepsize(1.0, 0.7, 2),
        noise=noise or NoiseModel.zero(),
        x0=problem.feasible.midpoint(),
        budget=budget,
        stride=stride,
        subgradient_scale=scale,
    )


def study_config(budget=400, schedule=None, noise=None, seed=0, stride=1):
    from chainopt.harness import study_chain_starts, study_matrix

    A, b, box, _ = study_design()
    decomp, weights = study_weights()
    problem = make_l1_problem(A, b, box, weights)
    return RunConfig(
        problem=problem,
        matrix=study_matrix(),
        decomp=decomp,
        chains=tuple(
            ChainSpec(init_dist=d, seed=seed) for d in study_chain_starts()
        ),
        schedule=schedule or DiminishingBlockStepsize(2.0, 0.7, 2),
        noise=noise or NoiseModel.normal_scaled(0.1),
        x0=box.midpoint() + 0.5 * (box.upper - box.midpoint()),
        budget=budget,
        stride=stride,
    )


# -------------------------------------------------------------- schedules


class TestStepsize:
    def test_diminishing_block_values(self):
        sched = DiminishingBlockStepsize(2.0, 0.7, 2)
        assert stepsize(sched, 0) == 2.0
        assert stepsize(sched, 1) == 2.0
        assert stepsize(sched, 2) == 2.0 / 2.0 ** 0.7
        assert stepsize(sched, 3) == 2.0 / 2.0 ** 0.7
        assert stepsize(sched, 4) == 2.0 / 3.0 ** 0.7

    def test_harmonic_when_block_one(self):
        sched = DiminishingBlockStepsize(1.0, 1.0, 1)
        for k in range(10):
            assert stepsize(sched, k) == 1.0 / (k + 1)

    def test_constant(self):
        assert stepsize(ConstantStepsize(0.25), 1234) == 0.25

    def test_zero_constant_allowed(self):
        assert stepsize(ConstantStepsize(0.0), 5) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidParametersError):
            DiminishingBlockStepsize(0.0, 0.7, 1)
        with pytest.raises(InvalidParametersError):
            DiminishingBlockStepsize(1.0, 2.0 / 3.0, 1)
        with pytest.raises(InvalidParametersError):
            DiminishingBlockStepsize(1.0, 1.01, 1)
        with pytest.raises(InvalidParametersError):
            DiminishingBlockStepsize(1.0, 0.7, 0)
        with pytest.raises(InvalidParametersError):
            ConstantStepsize(-0.1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParametersError):
                ConstantStepsize(bad)
            with pytest.raises(InvalidParametersError):
                DiminishingBlockStepsize(bad, 0.7, 1)
        for bad in (1.5, True):
            with pytest.raises(InvalidParametersError):
                DiminishingBlockStepsize(1.0, 0.7, bad)

    def test_boundary_exponent_accepted(self):
        DiminishingBlockStepsize(1.0, 1.0, 3)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0.01, 10.0),
        st.floats(0.67, 1.0),
        st.integers(1, 7),
        st.integers(1, 300),
        st.one_of(st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1]), st.integers(0, 3 * BLOCK)),
    )
    def test_array_matches_scalar_bitwise(self, a, xi, block_len, count, start):
        # the engine asks for one engine block of stepsizes at a time
        sched = DiminishingBlockStepsize(a, xi, block_len)
        arr = _stepsizes(sched, start, count)
        assert arr.shape == (count,)
        for t in range(count):
            assert arr[t] == stepsize(sched, start + t)

    def test_array_constant(self):
        arr = _stepsizes(ConstantStepsize(0.5), BLOCK + 1, 7)
        assert np.array_equal(arr, np.full(7, 0.5))

    def test_block_constancy(self):
        sched = DiminishingBlockStepsize(3.0, 0.8, 5)
        arr = _stepsizes(sched, 0, 50)
        for start in range(0, 50, 5):
            block = arr[start : start + 5]
            assert np.all(block == block[0])
        # strictly decreasing across blocks
        firsts = arr[::5]
        assert np.all(np.diff(firsts) < 0)


# ------------------------------------------------------------ single steps


class TestStepOnce:
    """The first steps of run(), checked against reference_run."""

    def test_moves_downhill_from_interior(self):
        config = replace(
            cyclic_config(small_problem(), budget=2, schedule=ConstantStepsize(0.05)),
            x0=[2.0, 2.0],
        )
        # cyclic from state 0 lands on component 1 first: residual
        # x[1] - 2 = 0 puts us at the kink, so only the second step moves,
        # down component 2's residual
        one = run(replace(config, budget=1))
        two = run(config)
        assert np.array_equal(one.final_x, config.x0)
        a, b = config.problem.components[2].a, config.problem.components[2].b
        assert abs(a @ two.final_x - b) < abs(a @ one.final_x - b)
        assert_same_trace(two, reference_run(config))

    def test_result_stays_feasible(self):
        prob = small_problem()
        config = cyclic_config(prob, budget=5, schedule=ConstantStepsize(50.0))
        trace = run(config)
        assert np.all(trace.final_x >= prob.feasible.lower - 0.0)
        assert np.all(trace.final_x <= prob.feasible.upper + 0.0)
        assert_same_trace(trace, reference_run(config))

    def test_identical_chains_average_to_single(self):
        # two deterministic chains in lockstep give exactly the one-chain steps
        prob = small_problem()
        one = run(cyclic_config(prob, seeds=(0,)))
        two = run(cyclic_config(prob, seeds=(0, 1)))
        assert np.array_equal(one.final_x, two.final_x)
        assert np.array_equal(one.f, two.f)

    def test_loop_matches_run_bitwise(self):
        config = study_config(budget=300)
        assert_same_trace(run(config), reference_run(config))

    def test_loop_matches_run_states(self):
        config = study_config(budget=120)
        assert np.array_equal(run(config).states, reference_run(config)["states"])


# ------------------------------------------------------------ full runs


class TestRun:
    def test_rerun_is_bitwise_identical(self):
        config = study_config(budget=500)
        t1 = run(config)
        t2 = run(config)
        assert np.array_equal(t1.f, t2.f)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.final_x, t2.final_x)
        assert np.array_equal(t1.best_x, t2.best_x)
        assert t1.best_k == t2.best_k

    def test_batch_composition_does_not_change_bits(self):
        config = study_config(budget=500)
        other = study_config(budget=500, seed=4)
        t1 = run(config)
        for t2 in (run_batch([other, config])[1], run_batch([config, other])[0]):
            assert np.array_equal(t1.f, t2.f)
            assert np.array_equal(t1.states, t2.states)
            assert np.array_equal(t1.final_x, t2.final_x)

    def test_seed_changes_trajectory(self):
        t1 = run(study_config(budget=200, seed=0))
        t2 = run(study_config(budget=200, seed=1))
        assert not np.array_equal(t1.states, t2.states)

    def test_all_iterates_feasible(self):
        config = study_config(budget=300, schedule=ConstantStepsize(5.0))
        trace = run(config)
        box = config.problem.feasible
        assert np.all(trace.final_x >= box.lower)
        assert np.all(trace.final_x <= box.upper)
        assert np.all(trace.best_x >= box.lower)
        assert np.all(trace.best_x <= box.upper)

    def test_best_f_is_running_minimum(self):
        config = study_config(budget=400)
        trace = run(config)
        assert np.array_equal(trace.best_f, np.minimum.accumulate(trace.f))
        assert trace.best_f[-1] == trace.f.min()

    def test_best_x_matches_best_f(self):
        config = study_config(budget=400)
        trace = run(config)
        assert objective(config.problem, trace.best_x) == pytest.approx(
            float(trace.best_f[-1]), rel=0, abs=1e-12
        )
        assert trace.k[0] == 0 and trace.k[-1] == config.budget

    def test_stride_records_subset(self):
        full = run(study_config(budget=200, stride=1))
        thin = run(study_config(budget=200, stride=50))
        assert thin.k.tolist() == [0, 50, 100, 150, 200]
        keep = np.isin(full.k, thin.k)
        assert np.array_equal(full.f[keep], thin.f)
        assert np.array_equal(full.best_f[keep], thin.best_f)
        # best-so-far still tracked between recorded rows
        assert thin.best_f[-1] == full.best_f[-1]

    def test_zero_stepsize_fixed_point(self):
        config = study_config(budget=50, schedule=ConstantStepsize(0.0))
        trace = run(config)
        assert np.array_equal(trace.final_x, config.x0)
        assert np.all(trace.f == trace.f[0])

    def test_budget_one_zero_stepsize_traces_only_x0(self):
        config = study_config(budget=1, schedule=ConstantStepsize(0.0))
        trace = run(config)
        assert list(trace.k) == [0, 1]
        assert np.array_equal(trace.final_x, config.x0)
        assert np.array_equal(trace.best_x, config.x0)
        assert trace.f[0] == trace.f[1]
        assert trace.best_k == 0

    def test_nan_at_x0_does_not_hold_the_best_iterate(self):
        # f(x0) is NaN and every later f is a number: best_f is the
        # NaN-skipping running minimum, and best_k and best_x name the
        # first iterate that attains its last value
        class NanAtZero:
            def __init__(self, b):
                self.b = b

            def value(self, x):
                return math.nan if x[0] == 0.0 else abs(float(x[0]) - self.b)

            def subgradient(self, x):
                return np.sign(x - self.b)

        matrix = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])
        config = RunConfig(
            problem=ConvexSumProblem(
                n=1, components=(NanAtZero(1.0), NanAtZero(2.0)),
                feasible=Box([-5.0], [5.0]), weights=np.asarray([0.5, 0.5]),
            ),
            matrix=matrix,
            decomp=decompose(matrix),
            chains=(ChainSpec([0.5, 0.5], 0),),
            schedule=ConstantStepsize(0.1),
            noise=NoiseModel.zero(),
            x0=np.zeros(1),
            budget=50,
        )
        trace = run(config)
        assert math.isnan(trace.f[0])
        assert np.array_equal(trace.best_f, np.fmin.accumulate(trace.f), equal_nan=True)
        assert trace.best_f[-1] == 0.5
        assert trace.best_k == np.flatnonzero(trace.f == trace.best_f[-1])[0] == 10
        # iterate 10 is 1 up to rounding, the minimizer
        assert np.array_equal(trace.best_x, run(replace(config, budget=10)).final_x)
        assert trace.best_x[0] == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_max_subgradient_norm_bounds_applied_rows(self):
        config = study_config(budget=300)
        trace = run(config)
        A, _, _, _ = study_design()
        largest = float(np.max(np.linalg.norm(A, axis=1)))
        assert 0.0 < trace.max_subgradient_norm <= largest

    def test_diminishing_lambda_recorded(self):
        sched = DiminishingBlockStepsize(2.0, 0.7, 2)
        trace = run(study_config(budget=100, schedule=sched))
        assert np.array_equal(trace.lam, [stepsize(sched, k) for k in range(101)])

    def test_wall_time_positive(self):
        trace = run(study_config(budget=50))
        assert trace.wall_time_s > 0.0
        assert trace.ns_per_iteration > 0.0

    def test_generic_component_path_matches_l1(self):
        # wrapping the same geometry in non-L1 components must not change
        # the trajectory (oracle kernel vs L1 kernel)
        A = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.asarray([1.0, 2.0, -5.0])
        box = Box([-3.0, -3.0], [3.0, 3.0])
        fast_prob = make_l1_problem(A, b, box, [0.5, 0.25, 0.25])
        slow_prob = ConvexSumProblem(
            n=2,
            components=tuple(PlainAbs(A[i], b[i]) for i in range(3)),
            feasible=box,
            weights=np.asarray([0.5, 0.25, 0.25]),
        )
        noise = NoiseModel.normal_scaled(0.05)
        fast = run(cyclic_config(fast_prob, budget=400, noise=noise))
        slow = run(cyclic_config(slow_prob, budget=400, noise=noise))
        assert np.array_equal(fast.final_x, slow.final_x)
        assert np.allclose(fast.f, slow.f, rtol=0, atol=1e-12)

    def test_converges_on_study_problem(self):
        config = study_config(
            budget=4000, noise=NoiseModel.zero(),
            schedule=DiminishingBlockStepsize(2.0, 0.7, 2),
        )
        trace = run(config)
        assert trace.best_f[-1] < 0.05 * trace.f[0]


class TestRunValidation:
    # A config checks itself when built, so each invalid one fails at its
    # constructor or at dataclasses.replace, before any run.

    def test_component_count_must_match_states(self):
        prob = small_problem()
        matrix, init = make_baseline("cyclic", 4)
        with pytest.raises(ValueError):
            RunConfig(
                problem=prob,
                matrix=matrix,
                decomp=decompose(matrix),
                chains=(ChainSpec(init_dist=init, seed=0),),
                schedule=ConstantStepsize(0.1),
                noise=NoiseModel.zero(),
                x0=prob.feasible.midpoint(),
                budget=10,
            )

    def test_infeasible_x0_rejected(self):
        config = cyclic_config(small_problem())
        with pytest.raises(ValueError):
            RunConfig(
                problem=config.problem,
                matrix=config.matrix,
                decomp=config.decomp,
                chains=config.chains,
                schedule=config.schedule,
                noise=config.noise,
                x0=np.asarray([9.0, 0.0]),
                budget=10,
            )

    @pytest.mark.parametrize("field, value", [("budget", 0), ("budget", 1000.7),
                                              ("stride", 0), ("stride", 2.5)])
    def test_replace_checks_again(self, field, value):
        config = cyclic_config(small_problem())
        with pytest.raises(ValueError, match=f"{field} must be an integer.*got {value!r}"):
            replace(config, **{field: value})

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            cyclic_config(small_problem(), budget=0)

    def test_needs_chains(self):
        config = cyclic_config(small_problem())
        with pytest.raises(ValueError):
            RunConfig(
                problem=config.problem,
                matrix=config.matrix,
                decomp=config.decomp,
                chains=(),
                schedule=config.schedule,
                noise=config.noise,
                x0=config.x0,
                budget=10,
            )

    def test_scale_shape_checked(self):
        with pytest.raises(ValueError):
            cyclic_config(small_problem(), scale=np.ones(2))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -1.0])
    def test_scale_entries_checked(self, entry):
        with pytest.raises(ValueError, match="subgradient scale entries must be finite "
                           "and nonnegative"):
            cyclic_config(small_problem(), scale=[1.0, entry, 1.0])

    def test_x0_shape_checked(self):
        config = cyclic_config(small_problem())
        with pytest.raises(ValueError, match=r"x0 must have shape \(2,\), got \(3,\)"):
            replace(config, x0=np.zeros(3))

    @pytest.mark.parametrize("seed", [-1, 0.5, True], ids=["negative", "fraction", "bool"])
    def test_seed_must_be_nonnegative_integer(self, seed):
        config = cyclic_config(small_problem())
        with pytest.raises(ValueError, match=f"got {seed!r}"):
            replace(config.chains[0], seed=seed)

    def test_chain_start_must_be_distribution_naming_chain(self):
        config = cyclic_config(small_problem())
        with pytest.raises(ValueError, match=r"^chain 0 start: distribution must be a vector "
                           r"of length 3, got shape \(2,\)$"):
            replace(config, chains=(ChainSpec([0.5, 0.5], 0),))
        with pytest.raises(ValueError, match=r"^chain 1 start: distribution sums to 1 "):
            replace(config, chains=(config.chains[0], ChainSpec([0.5, 0.2, 0.2], 1)))

    def test_chain_start_is_frozen_copy(self):
        start = np.array([1.0, 0.0, 0.0])
        spec = ChainSpec(init_dist=start, seed=0)
        start[0] = 0.0
        assert spec.init_dist[0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            spec.init_dist[0] = 0.5

    # stepsize() and the noise draws read these types' fields, so any
    # other value would fail only inside a run
    @pytest.mark.parametrize("field, value", [("schedule", "fast"), ("noise", None)])
    def test_schedule_and_noise_types_checked(self, field, value):
        config = cyclic_config(small_problem())
        with pytest.raises(ValueError, match=f"^{field} must be a .*, got {value!r}$"):
            replace(config, **{field: value})

    def test_decomposition_of_another_matrix_rejected(self):
        # same size, other support: the unreachable-class warning would
        # read the wrong classes
        config = cyclic_config(small_problem())
        other = validate_stochastic(np.eye(3))
        with pytest.raises(ValueError, match="decomposition does not match"):
            replace(config, decomp=decompose(other))

    def test_unreachable_class_warns(self):
        # two absorbing halves, {1, 2} and {3, 4}; the single chain starts
        # in the first, or on a transient state 5 that leads only into
        # it, so the second class can never influence the run
        halves = [[0.0, 1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [0.0, 0.0, 1.0, 0.0]]
        feeder = [row + [0.0] for row in halves] + [[0.5, 0.0, 0.0, 0.0, 0.5]]
        for rows, start in ((halves, 0), (feeder, 4)):
            m = len(rows)
            matrix = validate_stochastic(rows)
            prob = make_l1_problem(
                np.eye(m, 2), np.zeros(m), Box([-1.0, -1.0], [1.0, 1.0]), np.full(m, 1.0 / m)
            )
            config = RunConfig(
                problem=prob,
                matrix=matrix,
                decomp=decompose(matrix),
                chains=(ChainSpec(init_dist=unit_mass(m, start), seed=0),),
                schedule=ConstantStepsize(0.1),
                noise=NoiseModel.zero(),
                x0=np.zeros(2),
                budget=5,
            )
            # both entry points attribute the warning to the caller's line
            with pytest.warns(UnreachableClassWarning, match=r"class \(3, 4\)") as record:
                run(config)
            assert len(record) == 1
            assert record[0].filename == __file__
            with pytest.warns(UnreachableClassWarning) as record:
                run_batch([config])
            assert record[0].filename == __file__

    def test_no_warning_when_all_reachable(self):
        config = study_config(budget=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(config)


# ------------------------------------------------------- reduction check


class TestCyclicReduction:
    def test_single_chain_cyclic_matches_reference(self):
        """M = 1, zero noise, cyclic order: the general machinery must
        reproduce a plainly-written incremental subgradient loop bit for
        bit."""
        A, b, box, _ = study_design()
        _, weights = study_weights()
        m = A.shape[0]
        matrix, init = make_baseline("cyclic", m)
        problem = make_l1_problem(A, b, box, weights)
        sched = DiminishingBlockStepsize(2.5, 0.667, 1)
        config = RunConfig(
            problem=problem,
            matrix=matrix,
            decomp=decompose(matrix),
            chains=(ChainSpec(init_dist=init, seed=0),),
            schedule=sched,
            noise=NoiseModel.zero(),
            x0=box.midpoint() + 0.5,
            budget=2000,
            subgradient_scale=weights,
        )
        trace = run(config)

        # independent reference: no shared helpers beyond numpy
        x = box.midpoint() + 0.5
        s = 0
        fs = [float(weights @ np.abs(A @ x - b))]
        for k in range(config.budget):
            s = (s + 1) % m
            lam = sched.a / float(k // sched.block_len + 1) ** sched.xi
            r = float(A[s] @ x) - b[s]
            if r > 0.0:
                g = A[s] * weights[s]
            elif r < 0.0:
                g = -A[s] * weights[s]
            else:
                g = np.zeros_like(x)
            x = np.clip(x - lam * g, box.lower, box.upper)
            fs.append(float(weights @ np.abs(A @ x - b)))
        assert np.array_equal(trace.final_x, x)
        assert np.array_equal(trace.f, np.asarray(fs))


# ------------------------------------------------------ weighted optimum


# Separable L1 at n = 1: f(x) = sum_i w_i |x - b_i| is minimized at a
# weighted median. States 1-2 are transient and feed the class {3, 4, 5},
# whose stationary law is (9/11, 1/11, 1/11), so the chain's weights put
# the optimum at b_3 = 4 while the uniform median of b is 1.
MEDIAN_CHAIN = [
    [0.5, 0.5, 0.0, 0.0, 0.0],
    [0.0, 0.5, 0.5, 0.0, 0.0],
    [0.0, 0.0, 0.8, 0.1, 0.1],
    [0.0, 0.0, 0.9, 0.1, 0.0],
    [0.0, 0.0, 0.9, 0.0, 0.1],
]
# State 1 is transient and feeds the class {2, 3, 4, 5}, which alternates
# between {2, 5} and {3, 4}: period 2, so P^k does not converge, and the
# Cesaro weights (0, .05, .45, .05, .45) again put the optimum at b_3 = 4.
PERIODIC_CHAIN = [
    [0.5, 0.5, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.9, 0.1, 0.0],
    [0.0, 0.1, 0.0, 0.0, 0.9],
    [0.0, 0.1, 0.0, 0.0, 0.9],
    [0.0, 0.0, 0.9, 0.1, 0.0],
]
# Two closed classes, {1, 2, 3} and {4, 5}, whose stationary laws are
# their rows. One chain starts in each class, so the averaged weights
# (.2, .02, .28, .4, .1) put the optimum at b_1 = 0, while either chain's
# limit alone would put it at -3 or at 4.
TWO_CLASS_CHAIN = [[0.4, 0.04, 0.56, 0.0, 0.0]] * 3 + [[0.0, 0.0, 0.0, 0.8, 0.2]] * 2
# Metropolis-Hastings for the law (.1, .1, .45, .15, .2) on the ring
# 1-2-3-4-5-1 plus the chord 1-3, proposing a uniform neighbour: row i
# moves to neighbour j with probability min(1/d_i, pi_j / (pi_i d_j)) and
# holds otherwise. Detailed balance makes the target the exact
# stationary law, whose weighted median is again b_3 = 4.
METROPOLIS_CHAIN = [
    [0.0, 1 / 3, 1 / 3, 0.0, 1 / 3],
    [1 / 3, 1 / 6, 1 / 2, 0.0, 0.0],
    [2 / 27, 1 / 9, 35 / 54, 1 / 6, 0.0],
    [0.0, 0.0, 1 / 2, 0.0, 1 / 2],
    [1 / 6, 0.0, 0.0, 3 / 8, 11 / 24],
]
METROPOLIS_TARGET = [0.1, 0.1, 0.45, 0.15, 0.2]
MEDIAN_OFFSETS = np.asarray([0.0, 1.0, 4.0, -3.0, 9.0])


def weighted_median(values, weights):
    order = np.argsort(values)
    return float(values[order][np.searchsorted(np.cumsum(weights[order]), 0.5)])


def median_configs(matrix, starts, weights, x0, noise, budget, seeds):
    """One config per seed on the n = 1 problem, one chain per start, recording only the ends."""
    problem = make_l1_problem(np.ones((5, 1)), MEDIAN_OFFSETS, Box([-10.0], [10.0]), weights)
    decomp = decompose(matrix)
    return [
        RunConfig(
            problem=problem,
            matrix=matrix,
            decomp=decomp,
            chains=tuple(ChainSpec(start, seed) for start in starts),
            schedule=DiminishingBlockStepsize(1.0, 0.75, 1),
            noise=noise,
            x0=np.full(1, x0),
            budget=budget,
            stride=budget,
        )
        for seed in seeds
    ]


class TestWeightedOptimum:
    """The iterates reach the minimizer of the chain-weighted objective."""

    SEEDS = range(11)

    def cases(self):
        chain = validate_stochastic(MEDIAN_CHAIN)
        start = unit_mass(5, 0)
        weights = weights_from_chains([start], decompose(chain))
        periodic = validate_stochastic(PERIODIC_CHAIN)
        periodic_weights = weights_from_chains([start], decompose(periodic))
        two_class = validate_stochastic(TWO_CLASS_CHAIN)
        two_starts = (unit_mass(5, 3), start)
        two_class_weights = weights_from_chains(two_starts, decompose(two_class))
        metropolis = validate_stochastic(METROPOLIS_CHAIN)
        metropolis_weights = weights_from_chains([start], decompose(metropolis))
        # doubly stochastic control: every component weighs 1/5
        uniform, uniform_start = make_baseline("uniform_random", 5)
        # (matrix, chain starts, weights, x0); the two-class case starts
        # away from its optimum 0
        return {
            "transient-fed": (chain, (start,), weights, 0.0),
            "periodic": (periodic, (start,), periodic_weights, 0.0),
            "two-class": (two_class, two_starts, two_class_weights, 2.0),
            "metropolis-hastings": (metropolis, (start,), metropolis_weights, 0.0),
            "doubly-stochastic": (uniform, (uniform_start,), np.full(5, 0.2), 0.0),
        }

    def test_chain_weights_are_not_uniform(self):
        weights = self.cases()["transient-fed"][2]
        assert np.allclose(weights, [0, 0, 9 / 11, 1 / 11, 1 / 11], rtol=0, atol=1e-15)
        assert weighted_median(MEDIAN_OFFSETS, weights) == 4.0
        assert weighted_median(MEDIAN_OFFSETS, np.full(5, 0.2)) == 1.0

    def test_periodic_class_weights_are_the_cesaro_limit(self):
        chain, _, weights, _ = self.cases()["periodic"]
        assert decompose(chain).periods == (2,)
        powers = np.linalg.matrix_power(chain.matrix, 1000)
        # P^1001 and P^1000 differ by 0.9: the powers keep alternating, so
        # only the averaged limit exists
        assert np.abs(powers @ chain.matrix - powers).max() > 0.8
        assert np.allclose(weights, [0, 0.05, 0.45, 0.05, 0.45], rtol=0, atol=1e-15)
        assert weighted_median(MEDIAN_OFFSETS, weights) == 4.0

    def test_two_classes_weigh_each_chain_limit(self):
        chain, starts, weights, _ = self.cases()["two-class"]
        decomp = decompose(chain)
        assert decomp.classes == ((0, 1, 2), (3, 4)) and decomp.transient == ()
        assert np.allclose(weights, [0.2, 0.02, 0.28, 0.4, 0.1], rtol=0, atol=1e-15)
        assert weighted_median(MEDIAN_OFFSETS, weights) == 0.0
        assert weighted_median(MEDIAN_OFFSETS, np.full(5, 0.2)) == 1.0
        alone = [weights_from_chains([start], decomp) for start in starts]
        assert [weighted_median(MEDIAN_OFFSETS, w) for w in alone] == [-3.0, 4.0]

    def test_metropolis_hastings_weights_are_its_target(self):
        weights = self.cases()["metropolis-hastings"][2]
        assert np.allclose(weights, METROPOLIS_TARGET, rtol=0, atol=1e-15)
        assert weighted_median(MEDIAN_OFFSETS, weights) == 4.0
        assert weighted_median(MEDIAN_OFFSETS, np.full(5, 0.2)) == 1.0

    # at 5e4 iterations the last stepsize is 3e-4; the measured worst
    # seeds are 4.5e-4 (transient-fed), 5.6e-4 (periodic), 9.0e-4
    # (two-class) and 2.9e-3 (Metropolis-Hastings), both over seeds 0-43,
    # and 4.2e-3 (control) from the optimum
    @pytest.mark.parametrize(
        "case, tol",
        [("transient-fed", 1e-3), ("periodic", 1e-3), ("two-class", 2e-3),
         ("metropolis-hastings", 1e-2), ("doubly-stochastic", 1e-2)],
    )
    @pytest.mark.parametrize(
        "noise", [NoiseModel.zero(), NoiseModel.normal_scaled(0.1)], ids=lambda n: n.kind
    )
    def test_final_iterate_is_weighted_median(self, case, tol, noise):
        matrix, starts, weights, x0 = self.cases()[case]
        configs = median_configs(matrix, starts, weights, x0, noise, 50_000, self.SEEDS)
        final = np.array([trace.final_x[0] for trace in run_batch(configs)])
        assert np.abs(final - weighted_median(MEDIAN_OFFSETS, weights)).max() < tol, final

    @pytest.mark.parametrize(
        "case",
        ["transient-fed", "periodic", "two-class", "metropolis-hastings", "doubly-stochastic"],
    )
    @pytest.mark.parametrize(
        "noise", [NoiseModel.zero(), NoiseModel.normal_scaled(0.1)], ids=lambda n: n.kind
    )
    def test_oracle_kernel_reaches_the_same_iterate(self, case, noise):
        configs = median_configs(*self.cases()[case], noise, 2_000, (0, 1, 2))
        problem = plain_abs_problem(configs[0].problem)
        oracle = run_batch([replace(config, problem=problem) for config in configs])
        for trace, expected in zip(oracle, run_batch(configs)):
            assert np.array_equal(trace.final_x, expected.final_x)


# ------------------------------------------------------------- batched runs


def reference_run(config):
    """Plain-numpy loop over one config's documented semantics.

    Each chain's two streams come from SeedSequence(seed, spawn_key=
    (chain index,)).spawn(2); the first picks the start state and every
    transition by inverse CDF, the second draws one noise row per
    iteration. Only numpy and the config's data are used. Covers all
    four noise kinds and both schedules.
    """
    comps = config.problem.components
    A = np.vstack([c.a for c in comps])
    b = np.asarray([c.b for c in comps])
    w = config.problem.weights
    lo, hi = config.problem.feasible.lower, config.problem.feasible.upper
    m, n = A.shape
    scale = np.ones(m) if config.subgradient_scale is None else config.subgradient_scale
    applied_norms = np.linalg.norm(A, axis=1) * scale
    cum = np.cumsum(config.matrix.matrix, axis=1)
    cum[:, -1] = 1.0
    walkers, noises, current = [], [], []
    for index, spec in enumerate(config.chains):
        walk_seq, noise_seq = np.random.SeedSequence(
            entropy=spec.seed, spawn_key=(index,)
        ).spawn(2)
        walker = np.random.default_rng(walk_seq)
        start = np.cumsum(spec.init_dist)
        start[-1] = 1.0
        current.append(int(np.searchsorted(start, walker.random(), side="right")))
        walkers.append(walker)
        noises.append(np.random.default_rng(noise_seq))
    sched = config.schedule

    def step_size(k):
        if isinstance(sched, ConstantStepsize):
            return sched.lam
        return sched.a / float(k // sched.block_len + 1) ** sched.xi

    x = np.array(config.x0)
    fs = [float(w @ np.abs(A @ x - b))]
    lams = []
    states = [list(current)]
    best_f, best_x, best_k, max_norm = fs[0], x.copy(), 0, 0.0
    for k in range(config.budget):
        lam = step_size(k)
        lams.append(lam)
        subs = []
        for c in range(len(current)):
            s = int(np.searchsorted(cum[current[c]], walkers[c].random(), side="right"))
            current[c] = s
            r = float(A[s] @ x) - b[s]
            if r > 0.0:
                g = A[s] * scale[s]
            elif r < 0.0:
                g = -A[s] * scale[s]
            else:
                g = np.zeros(n)
            if r != 0.0:
                max_norm = max(max_norm, float(applied_norms[s]))
            if config.noise.kind == "uniform_decaying":
                g = g + noises[c].random(n) * (1.0 / (k + 1))
            elif config.noise.kind == "uniform_scaled":
                g = g + noises[c].random(n) * config.noise.scale
            elif config.noise.kind == "normal_scaled":
                g = g + noises[c].standard_normal(n) * config.noise.scale
            subs.append(x - lam * g)
        x = np.clip(np.mean(subs, axis=0), lo, hi)
        f = float(w @ np.abs(A @ x - b))
        fs.append(f)
        states.append(list(current))
        if f < best_f:
            best_f, best_x, best_k = f, x.copy(), k + 1
    lams.append(step_size(config.budget))
    keep = sorted(set(range(0, config.budget + 1, config.stride)) | {config.budget})
    running = np.minimum.accumulate(np.asarray(fs))
    crossings = []
    for tau in CROSSING_THRESHOLDS:
        below = np.flatnonzero(running < tau)
        crossings.append(int(below[0]) if below.size else None)
    return {
        "k": np.asarray(keep),
        "f": np.asarray(fs)[keep],
        "best_f": running[keep],
        "lam": np.asarray(lams)[keep],
        "states": np.asarray(states)[keep],
        "final_x": x,
        "best_x": best_x,
        "best_k": best_k,
        "max_subgradient_norm": max_norm,
        "crossings": tuple(crossings),
    }


TRACE_FIELDS = (
    "k", "f", "best_f", "lam", "states", "final_x", "best_x", "best_k",
    "max_subgradient_norm", "crossings",
)


def assert_same_trace(trace, expected):
    for field in TRACE_FIELDS:
        want = expected[field] if isinstance(expected, dict) else getattr(expected, field)
        assert np.array_equal(getattr(trace, field), want), field


def assert_oracle_trace(trace, expected):
    for field in TRACE_FIELDS:
        got, want = getattr(trace, field), expected[field]
        if field in ("f", "best_f", "max_subgradient_norm"):
            assert np.allclose(got, want, rtol=0, atol=1e-12), field
        else:
            assert np.array_equal(got, want), field


def scaled_noisy_config(budget=300, seed=0, noise=None, chains=2):
    """Normal noise (or the given one), a subgradient scale and stride 3.

    Two chains are the study's; one is a chain from the uniform start,
    which reaches every class; three are the study's two plus that one.
    """
    config = study_config(
        budget=budget, seed=seed, noise=noise or NoiseModel.normal_scaled(0.1), stride=3
    )
    uniform = ChainSpec(np.full(config.matrix.m, 1.0 / config.matrix.m), seed)
    specs = {1: (uniform,), 2: config.chains, 3: config.chains + (uniform,)}[chains]
    return replace(
        config, chains=specs, subgradient_scale=np.linspace(0.5, 1.5, config.problem.m)
    )


class TestRunBatch:
    def test_matches_reference_loop(self):
        config = scaled_noisy_config(budget=300)
        assert len(config.chains) == 2
        assert_same_trace(run_batch([config])[0], reference_run(config))

    @pytest.mark.parametrize(
        "noise",
        [NoiseModel.zero(), NoiseModel.uniform_decaying(), NoiseModel.uniform_scaled(0.1)],
        ids=lambda noise: noise.kind,
    )
    def test_noise_kinds_match_reference_loop(self, noise):
        config = scaled_noisy_config(budget=300, noise=noise)
        assert_same_trace(run_batch([config])[0], reference_run(config))

    # one chain steps straight into the iterate; two chains are summed
    # by one add and three by a chain of adds, each checked against
    # np.clip(np.mean(...)) in the reference (the two-chain cases are
    # named by their budget alone)
    @pytest.mark.parametrize(
        "budget, chains",
        [
            pytest.param(budget, chains, id=str(budget) if chains == 2 else f"{budget}-chains{chains}")
            for budget in (1, 511, 513, 4097)
            for chains in (1, 2, 3)
        ],
    )
    def test_block_edges_match_reference_loop(self, budget, chains):
        configs = [scaled_noisy_config(budget=budget, seed=s, chains=chains) for s in (0, 1)]
        for trace, config in zip(run_batch(configs), configs):
            assert_same_trace(trace, reference_run(config))

    # user components take the oracle kernel; their objective sums
    # component by component, so f, best_f and the norms may differ from
    # the reference's dot in the last bits, and the rest must not
    @pytest.mark.parametrize(
        "budget, chains, noise",
        [(budget, chains, None) for budget in (1, 511, 513, 1100) for chains in (1, 2, 3)]
        + [(513, 2, NoiseModel.zero()), (513, 2, NoiseModel.uniform_decaying())],
        ids=lambda value: value.kind if isinstance(value, NoiseModel) else str(value),
    )
    def test_oracle_kernel_matches_reference_loop(self, budget, chains, noise):
        configs = [
            scaled_noisy_config(budget=budget, seed=s, noise=noise, chains=chains) for s in (0, 1)
        ]
        # one problem object: the batch compares user components by identity
        problem = plain_abs_problem(configs[0].problem)
        configs = [replace(config, problem=problem) for config in configs]
        for trace, config in zip(run_batch(configs), configs):
            assert_oracle_trace(trace, reference_run(config))

    def test_mixed_components_take_the_oracle_kernel(self, monkeypatch):
        config = scaled_noisy_config(budget=600)
        config = replace(config, problem=plain_abs_problem(config.problem, wrapped=(0, 3)))
        calls = []
        oracle = L1Component.subgradient

        def counted(component, x):
            calls.append(component)
            return oracle(component, x)

        monkeypatch.setattr(L1Component, "subgradient", counted)
        assert_oracle_trace(run(config), reference_run(config))
        assert calls

    @pytest.mark.parametrize("method", ["m1", "m2", "m3", "m4"])
    @pytest.mark.parametrize("test", [1, 2, 5])
    def test_three_seed_batch_equals_single_runs(self, method, test):
        configs = [build_experiment(method, test, seed=s, budget=600) for s in (0, 1, 2)]
        for trace, config in zip(run_batch(configs), configs):
            assert_same_trace(trace, run(config))

    def test_wall_time_is_shared(self):
        traces = run_batch([study_config(budget=50, seed=s) for s in (0, 1)])
        assert traces[0].wall_time_s == traces[1].wall_time_s > 0.0

    @pytest.mark.parametrize(
        "field, change",
        [
            ("problem", lambda c: replace(c, problem=make_l1_problem(
                np.vstack([comp.a for comp in c.problem.components]),
                np.asarray([comp.b + 1.0 for comp in c.problem.components]),
                c.problem.feasible, c.problem.weights))),
            ("matrix", lambda c: replace(
                c, matrix=(m := make_baseline("uniform_random", 7)[0]), decomp=decompose(m))),
            ("schedule", lambda c: replace(c, schedule=ConstantStepsize(0.1))),
            ("noise", lambda c: replace(c, noise=NoiseModel.zero())),
            ("budget", lambda c: replace(c, budget=c.budget + 1)),
            ("stride", lambda c: replace(c, stride=2)),
            ("subgradient_scale", lambda c: replace(c, subgradient_scale=np.ones(7))),
            ("chain count", lambda c: replace(c, chains=c.chains[:1])),
        ],
    )
    def test_configs_must_share_fields(self, field, change):
        config = study_config(budget=20)
        with pytest.raises(ValueError, match=field):
            run_batch([config, change(config)])

    # the engine reads the box and the schedule from config 0, so a sign
    # that config 1 alone carries would be lost in the batch: its solo run
    # ends at -0.0 (the step overshoots onto the bound) or records -0.0
    # stepsizes
    @pytest.mark.parametrize(
        "field, ours, theirs, signed",
        [
            ("problem", {"lower": 0.0}, {"lower": -0.0}, lambda trace: trace.final_x),
            ("schedule", {"lam": 0.0}, {"lam": -0.0}, lambda trace: trace.lam),
        ],
        ids=["box-lower", "constant-lam"],
    )
    def test_signed_zero_is_not_shared(self, field, ours, theirs, signed):
        matrix = validate_stochastic([[0.5, 0.5], [0.5, 0.5]])

        def config(lower=0.0, lam=0.5):
            box = Box([lower], [1.0])
            return RunConfig(
                problem=make_l1_problem([[1.0], [1.0]], [-1.0, -2.0], box, [0.5, 0.5]),
                matrix=matrix,
                decomp=decompose(matrix),
                chains=(ChainSpec([0.5, 0.5], 0),),
                schedule=ConstantStepsize(lam),
                noise=NoiseModel.zero(),
                x0=np.zeros(1),
                budget=5,
            )

        assert np.all(np.signbit(signed(run(config(**theirs)))))
        assert not np.any(np.signbit(signed(run(config(**ours)))))
        with pytest.raises(ValueError, match=f"must share {field!r}: config 1 differs"):
            run_batch([config(**ours), config(**theirs)])

    # parameters are kept as floats, so an int and the equal float give
    # one schedule or noise model, bit for bit
    @pytest.mark.parametrize(
        "change",
        [
            lambda c, v: replace(c, schedule=ConstantStepsize(v)),
            lambda c, v: replace(c, schedule=DiminishingBlockStepsize(v, v, 2)),
            lambda c, v: replace(c, noise=NoiseModel("normal_scaled", v)),
        ],
        ids=["constant", "diminishing", "noise"],
    )
    def test_integer_and_float_parameters_share_a_batch(self, change):
        configs = [change(build_experiment("m3", 1, seed=s, budget=50), v)
                   for s, v in ((0, 1), (1, 1.0))]
        for trace, config in zip(run_batch(configs), configs):
            assert_same_trace(trace, run(config))

    @pytest.mark.parametrize("kind", ["zero", "uniform_decaying"])
    def test_negative_zero_scale_shares_a_batch(self, kind):
        configs = [replace(build_experiment("m3", 1, seed=s, budget=50), noise=noise)
                   for s, noise in ((0, NoiseModel(kind, -0.0)), (1, NoiseModel(kind)))]
        for trace, config in zip(run_batch(configs), configs):
            assert_same_trace(trace, run(config))

    def test_user_components_are_shared_by_identity(self):
        config = study_config(budget=20)
        twins = [replace(config, problem=plain_abs_problem(config.problem)) for _ in range(2)]
        with pytest.raises(ValueError, match="must share 'problem'"):
            run_batch(twins)
        run_batch([twins[0], replace(twins[1], problem=twins[0].problem)])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            run_batch([])

    def test_memory_does_not_grow_with_budget(self):
        # only the recorded rows may grow with the budget; recording just
        # the first and last iterate, the peak must stay flat
        run(build_experiment("m1", 5, seed=0, budget=10))
        peaks = []
        for budget in (5_000, 25_000):
            config = replace(build_experiment("m1", 5, seed=0, budget=budget), stride=budget)
            tracemalloc.start()
            try:
                run(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 16_384, peaks


# ---------------------------------------------------------------- baselines


class TestMakeBaseline:
    def test_cyclic_structure(self):
        matrix, init = make_baseline("cyclic", 7)
        dec = decompose(matrix)
        assert list(dec.periods) == [7]
        assert len(dec.classes[0]) == 7
        assert np.array_equal(init, unit_mass(7, 0))

    def test_uniform_random_structure(self):
        matrix, init = make_baseline("uniform_random", 5)
        dec = decompose(matrix)
        assert dec.delta == 1
        assert len(dec.classes) == 1
        assert np.allclose(matrix.matrix, 0.2)
        assert np.allclose(init, 0.2)
        assert np.allclose(dec.cesaro, 0.2, atol=1e-12)

    def test_equal_probability_structure(self):
        matrix, init = make_baseline("equal_probability", 7, NEIGHBOR_SETS)
        dec = decompose(matrix)
        assert dec.delta == 1
        assert len(dec.classes) == 1
        assert list(dec.transient) == []
        assert np.allclose(init, 1.0 / 7.0)
        # declared neighbors get exactly 1/m
        for i, group in enumerate(NEIGHBOR_SETS):
            for j in group:
                assert matrix.matrix[i, j] == 1.0 / 7.0
            assert matrix.matrix[i, i] == pytest.approx(
                1.0 - len(group) / 7.0, abs=1e-15
            )

    def test_equal_probability_needs_neighbors(self):
        with pytest.raises(InvalidNeighborsError):
            make_baseline("equal_probability", 3)

    def test_equal_probability_rejects_self(self):
        with pytest.raises(InvalidNeighborsError):
            make_baseline("equal_probability", 3, ((1,), (0, 1), (0,)))

    def test_equal_probability_rejects_wrong_count(self):
        with pytest.raises(InvalidNeighborsError):
            make_baseline("equal_probability", 3, ((1,), (0,)))

    def test_equal_probability_rejects_out_of_range(self):
        with pytest.raises(InvalidNeighborsError):
            make_baseline("equal_probability", 3, ((1,), (0,), (5,)))

    def test_equal_probability_rejects_oversized_set(self):
        with pytest.raises(InvalidNeighborsError):
            make_baseline("equal_probability", 3, ((4, 5, 6), (0,), (0,)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_baseline("zigzag", 3)

    @pytest.mark.parametrize("kind, m, neighbors",
                             [("cyclic", 3, [[5], [7], [9]]), ("uniform_random", 2, "junk"),
                              ("cyclic", 3, ((1,), (2,), (0,)))],
                             ids=["cyclic-out-of-range", "uniform-junk", "cyclic-valid-sets"])
    def test_other_kinds_refuse_neighbors(self, kind, m, neighbors):
        with pytest.raises(InvalidNeighborsError, match=f"{kind} reads no neighbor sets"):
            make_baseline(kind, m, neighbors=neighbors)


# ------------------------------------------------------------------- traces


def write_reference_csv(trace, path):
    """The trace CSV as csv.writer writes it, one repr per float."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "f", "best_f", "lambda", "states"])
        for i in range(len(trace)):
            writer.writerow(
                [
                    int(trace.k[i]),
                    repr(float(trace.f[i])),
                    repr(float(trace.best_f[i])),
                    repr(float(trace.lam[i])),
                    "|".join(str(int(s) + 1) for s in trace.states[i]),
                ]
            )


def assert_batch_bytes(tmp_path, traces):
    """One _write_trace_csvs call writes, per trace, write_trace_csv's bytes and the reference's."""
    paths = [tmp_path / f"batch{i}.csv" for i in range(len(traces))]
    _write_trace_csvs(traces, paths)
    for trace, path in zip(traces, paths):
        write_trace_csv(trace, tmp_path / "single.csv")
        write_reference_csv(trace, tmp_path / "reference.csv")
        assert path.read_bytes() == (tmp_path / "single.csv").read_bytes()
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestTraceIO:
    def test_csv_round_trip_lossless(self, tmp_path):
        trace = run(study_config(budget=150, stride=10))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = parse_trace_csv(path)
        assert np.array_equal(back["k"], trace.k)
        assert np.array_equal(back["f"], trace.f)
        assert np.array_equal(back["best_f"], trace.best_f)
        assert np.array_equal(back["lam"], trace.lam)
        assert np.array_equal(back["states"], trace.states)

    def test_csv_header_and_state_labels(self, tmp_path):
        trace = run(study_config(budget=20))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,f,best_f,lambda,states"
        first = lines[1].split(",")
        assert first[0] == "0"
        labels = [int(tok) for tok in first[4].split("|")]
        assert all(1 <= lab <= 7 for lab in labels)

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        trace = run(study_config(budget=150, stride=10))
        assert trace.states.shape[1] == 2
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        reference = tmp_path / "reference.csv"
        write_reference_csv(trace, reference)
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("chains", [1, 2, 3])
    def test_batch_csvs_match_single_writer(self, tmp_path, chains, stride):
        noise = NoiseModel.normal_scaled(0.1)
        configs = [
            cyclic_config(
                small_problem(), budget=1500 * stride, noise=noise, seeds=range(s, s + chains), stride=stride
            )
            for s in (0, 10, 20)
        ]
        traces = run_batch(configs)
        assert traces[0].k is traces[1].k and traces[0].lam is traces[2].lam
        assert len(traces[0]) > CSV_CHUNK
        assert_batch_bytes(tmp_path, traces)

    def test_batch_csvs_with_one_best_f_run(self, tmp_path):
        # a zero stepsize never moves the iterate: best_f is one run
        configs = [
            cyclic_config(small_problem(), budget=2500, schedule=ConstantStepsize(0.0), seeds=(s, s + 1))
            for s in (0, 1)
        ]
        traces = run_batch(configs)
        assert np.unique(traces[0].best_f).size == 1
        assert_batch_bytes(tmp_path, traces)

    def test_csvs_of_traces_that_share_no_arrays(self, tmp_path):
        traces = [
            run(cyclic_config(small_problem(), budget=1500, seeds=(0,))),
            run(study_config(budget=2500, stride=3)),
            run(cyclic_config(small_problem(), budget=40, seeds=(0, 1, 2), stride=7)),
        ]
        assert traces[0].k is not traces[1].k
        assert_batch_bytes(tmp_path, traces)

    def test_parse_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_trace_csv(path)

    def test_parse_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty.csv"):
            parse_trace_csv(path)

    @pytest.mark.parametrize(
        "row, line",
        [("0,1.0", 2), ("0,1.0,1.0,0.5,1|5\r\n1,x,1.0,0.5,1|5", 3), ("0,1,1,1,1,extra", 2)],
        ids=["short-row", "non-numeric", "extra-field"],
    )
    def test_parse_rejects_bad_row_naming_line(self, tmp_path, row, line):
        path = tmp_path / "bad.csv"
        path.write_text(f"k,f,best_f,lambda,states\r\n{row}\r\n", newline="")
        with pytest.raises(ValueError, match=f"bad.csv, line {line}:"):
            parse_trace_csv(path)

    def test_thin_trace(self):
        trace = run(study_config(budget=100))
        thin = thin_trace(trace, 30)
        assert thin.k.tolist() == [0, 30, 60, 90, 100]
        assert thin.best_f[-1] == trace.best_f[-1]
        assert thin.crossings == trace.crossings
        for bad in (0, 2.5):
            with pytest.raises(ValueError):
                thin_trace(trace, bad)
