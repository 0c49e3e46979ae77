"""Tests for the experiment harness: configs, suites, decay diagnostics."""

import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from chainopt import (
    CROSSING_THRESHOLDS,
    ConstantStepsize,
    DegenerateFitError,
    DiminishingBlockStepsize,
    ExperimentSpec,
    InvalidSpecError,
    NoiseModel,
    UnknownMethodError,
    UnknownTestError,
    build_experiment,
    decay_diagnostic,
    default_schedule,
    first_crossings,
    noise_for_test,
    objective,
    parse_trace_csv,
    run,
    run_batch,
    run_suite,
    study_matrix,
    study_weights,
    validate_stochastic,
)
from chainopt.harness import SCHEDULE_BLOCK, study_design

from conftest import NINE_STATE_ROWS, coupled_blocks


# ------------------------------------------------------------ experiments


class TestBuildExperiment:
    def test_m1_uses_two_chains_on_study_matrix(self):
        config = build_experiment("m1", 1, seed=3, budget=500)
        assert len(config.chains) == 2
        assert np.array_equal(config.matrix.matrix, study_matrix().matrix)
        assert config.noise.kind == "zero"
        assert config.subgradient_scale is None
        assert config.budget == 500
        assert all(spec.seed == 3 for spec in config.chains)
        starts = [np.flatnonzero(spec.init_dist)[0] for spec in config.chains]
        assert starts == [0, 4]

    def test_m1_default_schedule(self):
        config = build_experiment("m1", 1)
        sched = config.schedule
        assert isinstance(sched, DiminishingBlockStepsize)
        assert (sched.a, sched.xi, sched.block_len) == (2.0, 0.7, 2)

    def test_m3_is_single_cyclic_chain_with_scaled_updates(self):
        config = build_experiment("m3", 1, budget=100)
        assert len(config.chains) == 1
        _, weights = study_weights()
        assert np.array_equal(config.subgradient_scale, weights)
        sched = config.schedule
        assert (sched.a, sched.xi, sched.block_len) == (2.5, 0.667, 1)
        # pure cyclic structure
        assert np.allclose(config.matrix.matrix.sum(axis=1), 1.0)
        assert np.all(np.diag(config.matrix.matrix) == 0.0)

    def test_m2_starts_at_state_five(self):
        config = build_experiment("m2", 1)
        assert np.flatnonzero(config.chains[0].init_dist).tolist() == [4]
        assert config.subgradient_scale is not None

    def test_m4_uniform_matrix(self):
        config = build_experiment("m4", 2)
        assert np.allclose(config.matrix.matrix, 1.0 / 7.0)
        assert config.noise.kind == "uniform_decaying"

    def test_objective_weights_shared_across_methods(self):
        _, weights = study_weights()
        for method in ("m1", "m2", "m3", "m4"):
            config = build_experiment(method, 1)
            assert np.array_equal(config.problem.weights, weights)

    def test_x0_is_projected_origin(self):
        config = build_experiment("m1", 1)
        box = config.problem.feasible
        assert np.array_equal(
            config.x0, np.clip(np.zeros(20), box.lower, box.upper)
        )
        assert objective(config.problem, config.x0) > 0.0

    def test_schedule_override(self):
        sched = ConstantStepsize(1e-3)
        config = build_experiment("m1", 5, schedule=sched, budget=50)
        assert config.schedule is sched
        assert config.noise.kind == "normal_scaled"
        assert config.noise.scale == 0.1

    def test_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            build_experiment("m9", 1)

    def test_unknown_test(self):
        with pytest.raises(UnknownTestError):
            build_experiment("m1", 7)
        with pytest.raises(UnknownTestError):
            build_experiment("m1", 0)
        # bools and non-integral numbers are not test numbers
        for test in (1.9, True, 5.5, 5.0):
            with pytest.raises(UnknownTestError):
                build_experiment("m1", test)
            with pytest.raises(UnknownTestError):
                noise_for_test(test)

    @pytest.mark.parametrize("field, value", [("budget", 1000.7), ("stride", 2.5)])
    def test_fractional_count_rejected(self, field, value):
        # rejected, not truncated to 1000 or 2
        with pytest.raises(ValueError, match=f"{field} must be an integer.*got {value!r}"):
            build_experiment("m1", 1, **{field: value})


class TestNoiseForTest:
    def test_mapping(self):
        assert noise_for_test(1).kind == "zero"
        assert noise_for_test(2).kind == "uniform_decaying"
        assert noise_for_test(3) == NoiseModel.uniform_scaled(0.1)
        assert noise_for_test(4) == NoiseModel.uniform_scaled(0.01)
        assert noise_for_test(5) == NoiseModel.normal_scaled(0.1)
        assert noise_for_test(6) == NoiseModel.normal_scaled(0.01)


class TestDefaultSchedule:
    def test_diminishing_defaults(self):
        for method, block in SCHEDULE_BLOCK.items():
            sched = default_schedule(method)
            assert sched.block_len == block

    def test_field_overrides(self):
        sched = default_schedule("m1", a=4.0)
        assert (sched.a, sched.xi) == (4.0, 0.7)
        sched = default_schedule("m3", xi=0.8)
        assert (sched.a, sched.xi) == (2.5, 0.8)

    def test_constant_kind(self):
        assert default_schedule("m1", kind="constant").lam == 5e-4
        assert default_schedule("m2", kind="constant").lam == 1e-3
        assert default_schedule("m4", kind="constant", lam=2e-3).lam == 2e-3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            default_schedule("m1", kind="warmup")

    @pytest.mark.parametrize(
        "kind, override",
        [("constant", {"a": 3.0}), ("constant", {"xi": 0.8}), ("diminishing", {"lam": 1e-3})],
    )
    def test_override_for_other_kind_rejected(self, kind, override):
        (name,) = override
        with pytest.raises(ValueError, match=f"override {name}="):
            default_schedule("m1", kind=kind, **override)


# -------------------------------------------------------------- crossings


class TestFirstCrossings:
    @pytest.mark.parametrize("stride", [1, 7, 512, 3000])
    def test_matches_manual_scan(self, stride):
        # the record is exact at any stride: a scan of every iterate's
        # best_f, from a stride-1 run, is the reference
        full = run(build_experiment("m3", 1, seed=0, budget=3000))
        trace = run(build_experiment("m3", 1, seed=0, budget=3000, stride=stride))
        crossings = first_crossings(trace)
        assert set(crossings) == {"1e-02", "1e-03", "1e-04", "1e-06"}
        for tau in CROSSING_THRESHOLDS:
            below = np.flatnonzero(full.best_f < tau)
            want = int(full.k[below[0]]) if below.size else None
            assert crossings[f"{tau:.0e}"] == want
        if stride > 1:
            # at least one crossing falls between recorded rows
            assert any(v is not None and v % stride for v in crossings.values())

    def test_start_at_optimum_crosses_at_zero(self):
        # f(y) = 0 at the study optimum, so every threshold is crossed at k = 0
        _, _, _, y = study_design()
        config = replace(build_experiment("m1", 1, seed=0, budget=600), x0=y)
        assert objective(config.problem, y) == 0.0
        assert set(first_crossings(run(config)).values()) == {0}

    def test_never_crossed_is_none(self):
        trace = run(build_experiment("m1", 1, seed=0, budget=20))
        assert first_crossings(trace)["1e-06"] is None

    def test_crossings_are_monotone(self):
        trace = run(build_experiment("m1", 1, seed=1, budget=4000))
        crossings = first_crossings(trace)
        seen = [v for v in (crossings["1e-02"], crossings["1e-03"]) if v is not None]
        assert seen == sorted(seen)


# ------------------------------------------------------------------ suites


class TestRunSuite:
    def test_files_and_summary(self, tmp_path):
        spec = ExperimentSpec(
            method="m3", test=1, seeds=(0, 1, 2), budget=600, out=str(tmp_path)
        )
        summary = run_suite(spec)
        for seed in (0, 1, 2):
            assert (tmp_path / f"m3_test1_seed{seed}.csv").exists()
        written = json.loads((tmp_path / "m3_test1_summary.json").read_text())
        assert written == summary
        assert summary["method"] == "m3"
        assert summary["chains"] == 1
        assert summary["csv_stride"] == 1
        assert summary["seeds"] == [0, 1, 2]
        assert len(summary["per_seed"]) == 3
        best = [entry["best_f"] for entry in summary["per_seed"]]
        assert summary["median_best_f"] == float(np.median(best))

    def test_summary_crossings_match_traces(self, tmp_path):
        spec = ExperimentSpec(
            method="m3", test=1, seeds=(0, 4), budget=800, out=str(tmp_path)
        )
        summary = run_suite(spec)
        for entry in summary["per_seed"]:
            config = build_experiment("m3", 1, seed=entry["seed"], budget=800)
            trace = run(config)
            assert entry["first_crossing"] == first_crossings(trace)
            assert entry["best_f"] == float(trace.best_f[-1])
            parsed = parse_trace_csv(tmp_path / entry["trace_csv"])
            assert parsed["best_f"][-1] == entry["best_f"]

    def test_csv_thinning_on_long_runs(self, tmp_path):
        spec = ExperimentSpec(
            method="m3", test=1, seeds=(0,), budget=25_000, out=str(tmp_path)
        )
        summary = run_suite(spec)
        assert summary["csv_stride"] == 2
        parsed = parse_trace_csv(tmp_path / "m3_test1_seed0.csv")
        assert parsed["k"].size <= 25_000 // 2 + 2
        assert parsed["k"][-1] == 25_000

    def test_memory_does_not_grow_with_budget(self, tmp_path):
        # run_suite records at its CSV stride, about 10^4 rows per seed at
        # any budget, so its peak must stay flat from 2e4 to 1e5
        run_suite(ExperimentSpec("m3", 1, (0,), 200, out=str(tmp_path / "warm")))
        peaks = []
        for budget in (20_000, 100_000):
            spec = ExperimentSpec("m3", 1, (0,), budget, out=str(tmp_path / str(budget)))
            tracemalloc.start()
            try:
                run_suite(spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 65_536, peaks

    def test_m1_summary_reports_two_chains(self, tmp_path):
        spec = ExperimentSpec(
            method="m1", test=1, seeds=(0,), budget=200, out=str(tmp_path)
        )
        assert run_suite(spec)["chains"] == 2

    # a spec checks its method, test, seeds and budget when built
    def test_empty_seeds_rejected(self, tmp_path):
        with pytest.raises(InvalidSpecError):
            ExperimentSpec(method="m3", test=1, seeds=(), budget=100, out=str(tmp_path))

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(InvalidSpecError, match="repeats a seed"):
            ExperimentSpec(method="m3", test=1, seeds=(0, 0, 1), budget=100, out=str(tmp_path))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", [-1, 0.5], ids=["negative", "fraction"])
    def test_bad_seed_rejected_before_writing(self, tmp_path, seed):
        out = tmp_path / "out"
        spec = ExperimentSpec(method="m3", test=1, seeds=(0, seed), budget=100, out=str(out))
        with pytest.raises(ValueError, match=f"got {seed!r}"):
            run_suite(spec)
        assert not out.exists()

    def test_fractional_budget_rejected_before_writing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(InvalidSpecError, match="got 1000.7"):
            ExperimentSpec(method="m3", test=1, seeds=(0,), budget=1000.7, out=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("budget", [2.5, True], ids=["fraction", "bool"])
    def test_non_integer_budget_rejected_when_built(self, tmp_path, budget):
        with pytest.raises(InvalidSpecError, match="^budget must be an integer of at least 1"):
            ExperimentSpec("m3", 1, (0,), budget=budget, out=str(tmp_path))

    def test_numpy_integer_budget_writes_a_complete_summary(self, tmp_path):
        spec = ExperimentSpec("m3", 1, (0,), budget=np.int64(100), out=str(tmp_path))
        assert type(spec.budget) is int
        summary = run_suite(spec)
        with open(tmp_path / "m3_test1_summary.json", encoding="utf-8") as fh:
            written = json.load(fh)
        assert written["budget"] == 100
        assert written["per_seed"] == summary["per_seed"]

    def test_unknown_schedule_rejected_before_writing(self, tmp_path):
        out = tmp_path / "out"
        spec = ExperimentSpec(method="m3", test=1, seeds=(0,), budget=10, schedule="fast",
                              out=str(out))
        with pytest.raises(ValueError, match="^schedule must be a .*, got 'fast'$"):
            run_suite(spec)
        assert not out.exists()

    def test_zero_budget_rejected(self, tmp_path):
        with pytest.raises(InvalidSpecError):
            ExperimentSpec(method="m3", test=1, seeds=(0,), budget=0, out=str(tmp_path))

    @pytest.mark.parametrize(
        "method, test, error",
        [
            ("m9", 7, UnknownMethodError),
            ("", 1, UnknownMethodError),
            ("m3", 7, UnknownTestError),
            ("m3", 0, UnknownTestError),
            ("m3", 5.0, UnknownTestError),
        ],
        ids=["method-m9", "method-empty", "test-7", "test-0", "test-float"],
    )
    def test_bad_method_or_test_rejected_when_built(self, tmp_path, method, test, error):
        with pytest.raises(error):
            ExperimentSpec(method, test, (0,), budget=10, out=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_method_and_test_kept_normalised(self, tmp_path):
        spec = ExperimentSpec("M3", np.int64(1), (0,), budget=10, out=str(tmp_path))
        assert (spec.method, spec.test) == ("m3", 1)
        assert type(spec.test) is int
        assert run_suite(spec)["method"] == "m3"
        assert (tmp_path / "m3_test1_seed0.csv").exists()

    def test_noise_severity_orders_median_crossings(self):
        """Intended mild stochastic ordering: the median first-crossing
        of 1e-3 should satisfy test 1 <= test 6 <= test 5 over the same
        seeds.

        Known to fail: with the zero-vector subgradient convention at
        exact kinks, small noise dithers iterates off kinks and the
        zero-noise runs cross LATER at the median (measured medians over
        seeds 0..10: test 1 -> 2389, test 6 -> 1858, test 5 -> 2371).
        The statement is kept as written rather than weakened so the
        discrepancy stays visible.
        """
        medians = {}
        for test in (1, 5, 6):
            configs = [
                build_experiment("m1", test, seed=s, budget=20_000, stride=20_000)
                for s in range(11)
            ]
            crossings = [first_crossings(trace)["1e-03"] for trace in run_batch(configs)]
            assert all(v is not None for v in crossings)
            medians[test] = float(np.median(crossings))
        assert medians[1] <= medians[6] <= medians[5]

    def test_noise_misses_transition_streams(self):
        # transition and noise streams are separate, so changing the
        # noise test leaves every chain trajectory untouched while the
        # objective path moves; all runs still converge below 1e-2 here
        traces = {
            test: run(build_experiment("m1", test, seed=0, budget=4000))
            for test in (1, 5, 6)
        }
        assert np.array_equal(traces[1].states, traces[5].states)
        assert np.array_equal(traces[5].states, traces[6].states)
        assert not np.array_equal(traces[1].f, traces[5].f)
        assert not np.array_equal(traces[5].f, traces[6].f)
        for trace in traces.values():
            assert trace.best_f[-1] < 1e-2


# ------------------------------------------------------------------ decay


class TestDecayDiagnostic:
    def test_seven_state(self):
        report = decay_diagnostic(study_matrix())
        assert report.transient is None
        fit = report.matrix
        assert fit.beta_hat > 0.0
        assert fit.rmse < 0.5
        assert fit.k_used[0] == 1

    def test_nine_state(self):
        report = decay_diagnostic(validate_stochastic(np.asarray(NINE_STATE_ROWS)))
        assert report.matrix.beta_hat > 0.0
        assert report.matrix.rmse < 0.5
        assert report.transient is not None
        assert report.transient.beta_hat > 0.0
        assert report.transient.rmse < 0.5

    def test_nine_state_frozen_rate(self):
        # geometric rate of the 9-state chain, frozen from a separate
        # eigenvalue computation: second-largest |eigenvalue| of P^6 is
        # about exp(-2.1), so beta_hat lands near 2.1
        report = decay_diagnostic(validate_stochastic(np.asarray(NINE_STATE_ROWS)))
        assert 1.5 < report.matrix.beta_hat < 2.8

    def test_report_dict_shape(self):
        report = decay_diagnostic(study_matrix(), k_max=30)
        payload = asdict(report)
        assert set(payload) == {"matrix", "transient"}
        assert set(payload["matrix"]) == {"alpha_hat", "beta_hat", "rmse", "k_used"}
        assert payload["transient"] is None

    def test_fit_stops_at_rounding_floor(self):
        # two uniform 50-state blocks coupled by e decay exactly as
        # (1 - 2e)^k; past k = 32 the norms are rounding, near 5e-13, and
        # fitting them drags beta_hat down to about 0.71
        e = 0.288
        report = decay_diagnostic(validate_stochastic(coupled_blocks(e, 50)), k_max=50)
        exact = -np.log(1.0 - 2.0 * e)
        assert report.matrix.beta_hat == pytest.approx(exact, rel=0.01)

    @pytest.mark.parametrize("e, block", [(1e-4, 1), (1e-6, 50)], ids=["pair-1e-4", "blocks-1e-6"])
    def test_weakly_coupled_rate_is_exact(self, e, block):
        # P^k approaches the uniform limit exactly as (1 - 2e)^k
        report = decay_diagnostic(validate_stochastic(coupled_blocks(e, block)))
        assert report.matrix.beta_hat == pytest.approx(-np.log1p(-2.0 * e), rel=1e-6)

    def test_identity_degenerate(self):
        with pytest.raises(DegenerateFitError):
            decay_diagnostic(validate_stochastic(np.eye(3)))

    def test_pure_cycle_degenerate(self):
        with pytest.raises(DegenerateFitError):
            decay_diagnostic(validate_stochastic([[0.0, 1.0], [1.0, 0.0]]))

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            decay_diagnostic(study_matrix(), k_max=3)
        with pytest.raises(ValueError, match="got 7.5"):
            decay_diagnostic(study_matrix(), k_max=7.5)
