"""Tests for the problem layer: box, components, objective, noise, weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chainopt import (
    Box,
    ConvexSumProblem,
    InvalidDistributionError,
    L1Component,
    NoiseModel,
    decompose,
    make_l1_problem,
    objective,
    project,
    sample_noise_block,
    validate_stochastic,
    weights_from_chains,
)
from chainopt.harness import study_chain_starts, study_matrix, study_weights

from conftest import NINE_STATE_ROWS, NINE_STATE_STARTS, unit_mass

# frozen oracle: two-chain average of the selection chain's limit
# distributions, recomputed independently in test_weights_exact below
EXPECTED_WEIGHTS = [
    0.12064676616915422,
    0.12935323383084577,
    0.04353233830845771,
    0.20646766169154227,
    23.0 / 108.0,
    11.0 / 54.0,
    1.0 / 12.0,
]

# the study's printed weight vector, rounded to three decimals
PRINTED_WEIGHTS = [0.121, 0.129, 0.043, 0.206, 0.213, 0.203, 0.083]


def finite_vectors(n, low=-50.0, high=50.0):
    return hnp.arrays(
        np.float64,
        (n,),
        elements=st.floats(low, high, allow_nan=False, allow_infinity=False),
    )


# ------------------------------------------------------------------- box


class TestBox:
    def test_midpoint(self):
        box = Box([0.0, -2.0], [4.0, 2.0])
        assert np.array_equal(box.midpoint(), [2.0, 0.0])
        assert box.dim == 2

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            Box([0.0, 1.0], [1.0, 0.5])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Box([0.0], [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Box([0.0, np.inf], [1.0, 2.0])

    def test_degenerate_box_allowed(self):
        box = Box([1.0], [1.0])
        assert np.array_equal(project(box, [5.0]), [1.0])


class TestProject:
    def test_clips_outside_point(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        assert np.array_equal(project(box, [2.0, -1.0]), [1.0, 0.0])

    def test_keeps_inside_point(self):
        box = Box([0.0, 0.0], [1.0, 1.0])
        assert np.array_equal(project(box, [0.25, 0.75]), [0.25, 0.75])

    @settings(max_examples=50, deadline=None)
    @given(finite_vectors(4), finite_vectors(4))
    def test_idempotent_and_nonexpansive(self, x, y):
        box = Box(np.full(4, -3.0), np.full(4, 3.0))
        px, py = project(box, x), project(box, y)
        assert np.array_equal(project(box, px), px)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


# ------------------------------------------------------------- components


class TestL1Component:
    def test_value(self):
        comp = L1Component(np.asarray([2.0, -1.0]), 3.0)
        assert comp.value([1.0, 1.0]) == 2.0
        assert comp.value([2.0, 1.0]) == 0.0

    def test_subgradient_signs(self):
        comp = L1Component(np.asarray([2.0, -1.0]), 3.0)
        assert np.array_equal(comp.subgradient([5.0, 0.0]), [2.0, -1.0])
        assert np.array_equal(comp.subgradient([0.0, 0.0]), [-2.0, 1.0])

    def test_subgradient_at_kink_is_zero(self):
        comp = L1Component(np.asarray([2.0, -1.0]), 3.0)
        assert np.array_equal(comp.subgradient([2.0, 1.0]), [0.0, 0.0])

    def test_rejects_matrix_coefficients(self):
        with pytest.raises(ValueError):
            L1Component(np.ones((2, 2)), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(finite_vectors(3), finite_vectors(3), finite_vectors(3, -5, 5),
           st.floats(-10, 10))
    def test_subgradient_inequality(self, x, y, a, b):
        comp = L1Component(a, b)
        gx = comp.subgradient(x)
        assert comp.value(y) >= comp.value(x) + float(gx @ (y - x)) - 1e-7


# -------------------------------------------------------------- objective


class TestObjective:
    def test_single_component(self):
        box = Box([-5.0], [5.0])
        prob = make_l1_problem([[1.0]], [2.0], box, [1.0])
        assert objective(prob, [0.0]) == 2.0

    def test_study_midpoint_is_exactly_zero(self):
        from chainopt.harness import study_design

        A, b, box, _ = study_design()
        _, weights = study_weights()
        prob = make_l1_problem(A, b, box, weights)
        assert objective(prob, box.midpoint()) == 0.0

    def test_weighted_mix(self):
        box = Box([-5.0, -5.0], [5.0, 5.0])
        prob = make_l1_problem(
            [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], box, [0.25, 0.75]
        )
        assert objective(prob, [4.0, 4.0]) == pytest.approx(4.0, abs=1e-14)
        assert objective(prob, [2.0, 0.0]) == 0.5

    @settings(max_examples=40, deadline=None)
    @given(finite_vectors(3), st.integers(0, 2 ** 32 - 1))
    def test_matches_flat_reimplementation(self, x, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        w = rng.random(4) + 0.1
        w = w / w.sum()
        box = Box(np.full(3, -60.0), np.full(3, 60.0))
        prob = make_l1_problem(A, b, box, w)
        flat = float(w @ np.abs(A @ np.asarray(x) - b))
        assert objective(prob, x) == pytest.approx(flat, rel=1e-12, abs=1e-12)


class TestProblemValidation:
    def box(self, n=2):
        return Box(np.full(n, -1.0), np.full(n, 1.0))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            make_l1_problem([[1.0, 0.0]], [0.0], self.box(), [0.5])

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            make_l1_problem(
                [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], self.box(), [1.5, -0.5]
            )

    def test_weights_must_be_finite(self):
        with pytest.raises(ValueError, match="weights"):
            make_l1_problem(np.eye(2), np.zeros(2), self.box(), [np.nan, 1.0])

    @pytest.mark.parametrize("a, b", [([np.nan, 0.0], 0.0), ([np.inf, 0.0], 0.0),
                                      ([1.0, 0.0], np.nan), ([1.0, 0.0], -np.inf)],
                             ids=["a-nan", "a-inf", "b-nan", "b-inf"])
    def test_l1_coefficients_must_be_finite(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            L1Component(a, b)

    def test_weights_length_checked(self):
        with pytest.raises(ValueError):
            make_l1_problem([[1.0, 0.0]], [0.0], self.box(), [0.5, 0.5])

    def test_box_dimension_checked(self):
        with pytest.raises(ValueError):
            make_l1_problem([[1.0, 0.0]], [0.0], self.box(3), [1.0])

    def test_needs_components(self):
        with pytest.raises(ValueError):
            ConvexSumProblem(
                n=1, components=(), feasible=self.box(1), weights=np.ones(0)
            )

    def test_offset_count_checked(self):
        with pytest.raises(ValueError):
            make_l1_problem([[1.0, 0.0]], [0.0, 1.0], self.box(), [1.0])


# ------------------------------------------------------------------ noise


class TestNoiseModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel("pink")

    def test_scaled_kinds_need_scale(self):
        with pytest.raises(ValueError):
            NoiseModel("uniform_scaled", 0.0)
        with pytest.raises(ValueError):
            NoiseModel("normal_scaled", -0.1)
        for kind in ("uniform_scaled", "normal_scaled"):
            for scale in (np.inf, np.nan):
                with pytest.raises(ValueError):
                    NoiseModel(kind, scale)

    @pytest.mark.parametrize("kind", ["zero", "uniform_decaying"])
    @pytest.mark.parametrize("scale", [5, np.nan, None, -3.0, np.inf])
    def test_unscaled_kinds_refuse_a_scale(self, kind, scale):
        with pytest.raises(ValueError, match=f"noise kind {kind!r} reads no scale"):
            NoiseModel(kind, scale)

    @pytest.mark.parametrize("kind", ["zero", "uniform_decaying"])
    def test_unscaled_kinds_keep_positive_zero(self, kind):
        scale = NoiseModel(kind, -0.0).scale
        assert type(scale) is float and scale == 0.0 and not np.signbit(scale)

    def test_decaying_needs_positive_k(self):
        with pytest.raises(ValueError):
            sample_noise_block(NoiseModel.uniform_decaying(), 0, 1, np.random.default_rng(0), 2)

    def test_zero_consumes_no_draws(self):
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        out = sample_noise_block(NoiseModel.zero(), 5, 3, rng_a, 6)
        assert np.array_equal(out, np.zeros((3, 6)))
        # stream untouched: next draws agree with a fresh twin
        assert rng_a.random() == rng_b.random()

    def test_decaying_range(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 10, 1000):
            draw = sample_noise_block(NoiseModel.uniform_decaying(), k, 1, rng, 1000)
            assert draw.min() >= 0.0
            assert draw.max() <= 1.0 / k

    def test_uniform_scaled_mean(self):
        rng = np.random.default_rng(4)
        draw = sample_noise_block(NoiseModel.uniform_scaled(0.1), 1, 1, rng, 100000)
        assert abs(draw.mean() - 0.05) <= 0.005

    def test_normal_scaled_moments(self):
        rng = np.random.default_rng(5)
        draw = sample_noise_block(NoiseModel.normal_scaled(0.1), 1, 1, rng, 100000)
        assert abs(draw.mean()) <= 0.002
        assert abs(draw.std() - 0.1) <= 0.002

    def test_second_moment_bounded_by_nu(self):
        # E|e|^2 <= n * nu_k^2 for every kind, within sampling error, with
        # nu_k = 1/k for the decaying kind and the scale for the others
        rng = np.random.default_rng(6)
        n, reps = 8, 4000
        for model, k, nu in [
            (NoiseModel.uniform_decaying(), 3, 1.0 / 3),
            (NoiseModel.uniform_scaled(0.2), 1, 0.2),
            (NoiseModel.normal_scaled(0.05), 1, 0.05),
        ]:
            sq = [
                float(np.sum(sample_noise_block(model, k, 1, rng, n) ** 2))
                for _ in range(reps)
            ]
            bound = n * nu ** 2
            margin = 3.0 * np.std(sq) / np.sqrt(reps)
            assert np.mean(sq) <= bound + margin

    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel.zero(),
            NoiseModel.uniform_decaying(),
            NoiseModel.uniform_scaled(0.1),
            NoiseModel.normal_scaled(0.01),
        ],
        ids=lambda m: m.kind,
    )
    def test_block_matches_sequential_bitwise(self, model):
        seq_rng = np.random.default_rng(42)
        blk_rng = np.random.default_rng(42)
        first_k, count, n = 7, 33, 5

        def row(k):
            # one iteration's draw, taken alone from the stream
            if model.kind == "zero":
                return np.zeros(n)
            if model.kind == "uniform_decaying":
                return seq_rng.random(n) * (1.0 / k)
            if model.kind == "uniform_scaled":
                return seq_rng.random(n) * model.scale
            return seq_rng.standard_normal(n) * model.scale

        seq = np.stack([row(k) for k in range(first_k, first_k + count)])
        blk = sample_noise_block(model, first_k, count, blk_rng, n)
        assert np.array_equal(seq, blk)
        # streams remain aligned afterwards
        assert seq_rng.random() == blk_rng.random()


# ---------------------------------------------------------------- weights


class TestWeights:
    def test_study_weights_match_independent_solve(self):
        tm = study_matrix()
        dec = decompose(tm)
        _, weights = study_weights()
        # independent oracle: stationary vectors by direct solve, then
        # absorption-free average of the two starting distributions
        mat = tm.matrix
        expect = np.zeros(7)
        for start in (0, 4):
            row = np.zeros(7)
            for cls in dec.classes:
                if start in cls:
                    idx = np.asarray(sorted(cls))
                    sub = mat[np.ix_(idx, idx)]
                    lhs = sub.T - np.eye(len(idx))
                    lhs[-1] = 1.0
                    rhs = np.zeros(len(idx))
                    rhs[-1] = 1.0
                    row[idx] = np.linalg.solve(lhs, rhs)
            expect += 0.5 * row
        assert np.max(np.abs(weights - expect)) <= 1e-12

    def test_study_weights_frozen_values(self):
        _, weights = study_weights()
        assert np.max(np.abs(weights - np.asarray(EXPECTED_WEIGHTS))) <= 1e-9

    def test_study_weights_near_printed_vector(self):
        _, weights = study_weights()
        assert np.max(np.abs(weights - np.asarray(PRINTED_WEIGHTS))) <= 1e-3

    def test_weights_sum_to_one(self):
        _, weights = study_weights()
        assert abs(float(weights.sum()) - 1.0) <= 1e-12

    def test_absorbing_start_is_point_mass(self):
        mat = validate_stochastic([[0.5, 0.5], [0.0, 1.0]])
        dec = decompose(mat)
        w = weights_from_chains([unit_mass(2, 1)], dec)
        assert np.allclose(w, [0.0, 1.0], atol=1e-14)

    def test_nine_state_transients_get_no_weight(self):
        dec = decompose(validate_stochastic(np.asarray(NINE_STATE_ROWS)))
        w = weights_from_chains(NINE_STATE_STARTS, dec)
        assert abs(float(w.sum()) - 1.0) <= 1e-12
        assert np.allclose(w[7:], 0.0, atol=1e-14)
        assert w[:7].min() > 0.0

    def test_empty_chain_list_rejected(self):
        dec = decompose(np.eye(2))
        with pytest.raises(InvalidDistributionError):
            weights_from_chains([], dec)
