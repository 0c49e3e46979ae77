"""Tests for finite-chain analysis: validation, decomposition, limits, sampling."""

import contextlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainopt import (
    ChainDecomposition,
    ChainState,
    InvalidDistributionError,
    NegativeEntryError,
    RowSumError,
    SingularSolveError,
    cesaro_limit,
    decompose,
    decomposition_report,
    limiting_distribution,
    make_chain,
    power_limit,
    read_distribution_text,
    read_matrix_text,
    validate_stochastic,
    walk,
    weights_from_chains,
    write_matrix_text,
)
from conftest import (
    NINE_STATE_ROWS,
    cesaro_limit_oracle,
    coupled_blocks,
    stochastic_matrices,
    structured_matrices,
    unit_mass,
)

from chainopt import cli, markov
from chainopt.harness import study_matrix


def brute_recurrent(mat):
    """Reachability oracle: a state is recurrent iff every state it can
    reach can reach it back."""
    m = mat.shape[0]
    reach = mat > 0
    reach = reach | np.eye(m, dtype=bool)
    for _ in range(m):
        reach = reach | (reach @ reach)
    recurrent = []
    for i in range(m):
        if all(reach[j, i] for j in range(m) if reach[i, j]):
            recurrent.append(i)
    return reach, recurrent


def simple_cycles_through(mat, max_len=8):
    """Yield lengths of simple cycles in the support digraph, tagged by
    their starting state. Exponential, so only for small matrices."""
    m = mat.shape[0]
    adj = [list(np.flatnonzero(mat[i] > 0)) for i in range(m)]
    out = []

    def extend(origin, node, visited, length):
        if length > max_len:
            return
        for nxt in adj[node]:
            if nxt == origin:
                out.append((origin, length))
            elif nxt > origin and nxt not in visited:
                extend(origin, nxt, visited | {nxt}, length + 1)

    for origin in range(m):
        extend(origin, origin, {origin}, 1)
    return out


# ----------------------------------------------------------------- validation


class TestValidation:
    def test_accepts_identity(self):
        tm = validate_stochastic(np.eye(3))
        assert tm.m == 3
        assert np.array_equal(tm.matrix, np.eye(3))

    def test_accepts_list_input(self):
        tm = validate_stochastic([[0.5, 0.5], [0.25, 0.75]])
        assert tm.m == 2

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError) as info:
            validate_stochastic([[1.5, -0.5], [0.0, 1.0]])
        assert info.value.row == 1
        assert info.value.col == 2
        assert info.value.value == -0.5

    def test_row_sum_violation(self):
        with pytest.raises(RowSumError) as info:
            validate_stochastic([[0.5, 0.6], [0.0, 1.0]])
        assert info.value.row == 1
        assert abs(info.value.deviation - 0.1) < 1e-12

    def test_row_sum_deficit(self):
        with pytest.raises(RowSumError) as info:
            validate_stochastic([[0.5, 0.4], [0.0, 1.0]])
        assert info.value.row == 1
        assert abs(info.value.deviation + 0.1) < 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            validate_stochastic(np.ones((2, 3)) / 3.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_stochastic(np.zeros((0, 0)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            validate_stochastic([[np.nan, 1.0], [0.5, 0.5]])

    def test_tolerates_rounding_noise(self):
        third = 1.0 / 3.0
        tm = validate_stochastic([[third, third, third]] * 3)
        assert tm.m == 3

    def test_distribution_validation(self):
        tm = validate_stochastic(np.eye(2))
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidDistributionError):
            make_chain(tm, [0.7, 0.7], rng)
        with pytest.raises(InvalidDistributionError):
            make_chain(tm, [-0.1, 1.1], rng)
        with pytest.raises(InvalidDistributionError):
            make_chain(tm, [1.0, 0.0, 0.0], rng)


# -------------------------------------------------------------- decomposition


class TestDecompose:
    def test_nine_state(self, nine_state):
        dec = decompose(nine_state)
        assert [sorted(c) for c in dec.classes] == [[0, 1, 2, 3], [4, 5, 6]]
        assert list(dec.periods) == [2, 3]
        assert sorted(dec.transient) == [7, 8]
        assert dec.delta == 6

    def test_seven_state(self):
        dec = decompose(study_matrix())
        assert [sorted(c) for c in dec.classes] == [[0, 1, 2, 3], [4, 5, 6]]
        assert list(dec.periods) == [2, 1]
        assert list(dec.transient) == []
        assert dec.delta == 2

    def test_identity(self):
        dec = decompose(np.eye(3))
        assert [sorted(c) for c in dec.classes] == [[0], [1], [2]]
        assert list(dec.periods) == [1, 1, 1]
        assert list(dec.transient) == []
        assert dec.delta == 1

    def test_two_cycle(self):
        dec = decompose(np.asarray([[0.0, 1.0], [1.0, 0.0]]))
        assert [sorted(c) for c in dec.classes] == [[0, 1]]
        assert list(dec.periods) == [2]
        assert dec.delta == 2

    def test_single_absorbing_chain(self):
        mat = np.asarray([[0.5, 0.5], [0.0, 1.0]])
        dec = decompose(mat)
        assert [sorted(c) for c in dec.classes] == [[1]]
        assert list(dec.periods) == [1]
        assert list(dec.transient) == [0]

    def test_weakly_coupled_pair_needs_no_power_limit(self):
        # squaring this chain's powers drifts off the simplex long before
        # they settle; its class, period and weights must not depend on that
        e = 1e-4
        dec = decompose(np.asarray([[1.0 - e, e], [e, 1.0 - e]]))
        assert dec.classes == ((0, 1),)
        assert dec.periods == (1,)
        weights = weights_from_chains([[1.0, 0.0]], dec)
        assert np.max(np.abs(weights - 0.5)) <= 1e-12

    def test_accepts_raw_array(self):
        dec = decompose(np.eye(2))
        assert isinstance(dec, ChainDecomposition)
        assert np.array_equal(dec.matrix.matrix, np.eye(2))

    def test_keeps_the_validated_matrix(self, nine_state):
        assert decompose(nine_state).matrix is nine_state

    def test_solves_nothing_until_cesaro_is_read(self, monkeypatch, tmp_path, nine_state):
        calls = []

        def counting(*args):
            calls.append(args)
            return cesaro_limit(*args)

        monkeypatch.setattr(markov, "cesaro_limit", counting)
        dec = decompose(nine_state)
        path = tmp_path / "nine.txt"
        write_matrix_text(nine_state, path)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["decompose", "--matrix", str(path)]) == 0
        assert json.loads(out.getvalue())["delta"] == 6
        assert calls == []
        first = dec.cesaro
        assert len(calls) == 1
        assert dec.cesaro is first
        assert len(calls) == 1
        assert np.array_equal(first, cesaro_limit(nine_state, dec.classes, dec.transient))

    def test_failed_solve_raises_on_first_read(self):
        # claiming both states of the identity form one class makes the
        # stationary solve singular; building the decomposition does not
        dec = ChainDecomposition(
            matrix=validate_stochastic(np.eye(2)),
            classes=((0, 1),),
            periods=(1,),
            transient=(),
            delta=1,
        )
        with pytest.raises(SingularSolveError):
            dec.cesaro

    @settings(max_examples=60, deadline=None)
    @given(structured_matrices())
    def test_structured_exact(self, case):
        mat, classes, periods, transient = case
        dec = decompose(mat)
        got = {frozenset(c): p for c, p in zip(dec.classes, dec.periods)}
        want = {frozenset(c): p for c, p in zip(classes, periods)}
        assert got == want
        assert sorted(dec.transient) == sorted(transient)
        assert dec.delta == math.lcm(*periods)

    @settings(max_examples=80, deadline=None)
    @given(stochastic_matrices())
    def test_partition_and_closure(self, mat):
        dec = decompose(mat)
        m = mat.shape[0]
        seen = sorted(s for c in dec.classes for s in c) + sorted(dec.transient)
        assert sorted(seen) == list(range(m))
        reach, recurrent = brute_recurrent(mat)
        assert sorted(s for c in dec.classes for s in c) == recurrent
        for cls in dec.classes:
            members = set(cls)
            # closed: one step stays inside
            for i in cls:
                assert set(np.flatnonzero(mat[i] > 0)) <= members
            # strongly connected within the class
            for i in cls:
                for j in cls:
                    assert reach[i, j]

    @settings(max_examples=40, deadline=None)
    @given(stochastic_matrices(max_m=6))
    def test_period_divides_cycles(self, mat):
        dec = decompose(mat)
        period_of = {}
        for cls, p in zip(dec.classes, dec.periods):
            for s in cls:
                period_of[s] = p
        for origin, length in simple_cycles_through(mat):
            if origin in period_of:
                assert length % period_of[origin] == 0

    @settings(max_examples=40, deadline=None)
    @given(stochastic_matrices(max_m=6), st.randoms(use_true_random=False))
    def test_relabeling_equivariance(self, mat, rng):
        m = mat.shape[0]
        sigma = list(range(m))
        rng.shuffle(sigma)
        sigma = np.asarray(sigma)
        relabeled = mat[np.ix_(sigma, sigma)]
        dec = decompose(mat)
        dec2 = decompose(relabeled)
        inv = np.argsort(sigma)
        want = {frozenset(inv[s] for s in c): p
                for c, p in zip(dec.classes, dec.periods)}
        got = {frozenset(c): p for c, p in zip(dec2.classes, dec2.periods)}
        assert got == want
        assert sorted(dec2.transient) == sorted(inv[s] for s in dec.transient)
        assert np.allclose(
            dec2.cesaro, dec.cesaro[np.ix_(sigma, sigma)], atol=1e-12
        )


# ------------------------------------------------------------- cesaro limits


def eye_construction_cesaro(mat, classes, transient):
    """The Cesaro limit built with explicit identities: sub.T - I and I - P_TT."""
    m = mat.shape[0]
    out = np.zeros((m, m))
    stationaries = []
    for cls in classes:
        idx = np.asarray(cls)
        sub = mat[np.ix_(idx, idx)]
        lhs = sub.T - np.eye(len(cls))
        lhs[-1, :] = 1.0
        rhs = np.zeros(len(cls))
        rhs[-1] = 1.0
        pi = np.linalg.solve(lhs, rhs)
        stationaries.append(pi)
        out[np.ix_(idx, idx)] = pi[np.newaxis, :]
    if transient:
        t_idx = np.asarray(transient)
        lhs = np.eye(len(transient)) - mat[np.ix_(t_idx, t_idx)]
        for cls, pi in zip(classes, stationaries):
            c_idx = np.asarray(cls)
            absorb = np.linalg.solve(lhs, mat[np.ix_(t_idx, c_idx)].sum(axis=1))
            out[np.ix_(t_idx, c_idx)] = absorb[:, np.newaxis] * pi[np.newaxis, :]
    return out


class TestCesaroLimit:
    def test_two_cycle_halves(self):
        mat = np.asarray([[0.0, 1.0], [1.0, 0.0]])
        dec = decompose(mat)
        assert np.allclose(dec.cesaro, 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_identity_is_identity(self):
        dec = decompose(np.eye(4))
        assert np.allclose(dec.cesaro, np.eye(4), atol=1e-14)

    def test_seven_state_against_oracle(self):
        mat = study_matrix()
        dec = decompose(mat)
        oracle = cesaro_limit_oracle(mat.matrix, 200000)
        assert np.max(np.abs(dec.cesaro - oracle)) <= 1e-3

    def test_nine_state_against_oracle(self, nine_state):
        dec = decompose(nine_state)
        oracle = cesaro_limit_oracle(nine_state.matrix, 600000)
        assert np.max(np.abs(dec.cesaro - oracle)) <= 1e-3

    def test_transient_columns_vanish(self, nine_state):
        dec = decompose(nine_state)
        assert np.allclose(dec.cesaro[:, [7, 8]], 0.0, atol=1e-14)

    def test_rows_within_class_agree(self, nine_state):
        dec = decompose(nine_state)
        for cls in dec.classes:
            rows = dec.cesaro[sorted(cls)]
            assert np.allclose(rows, rows[0], atol=1e-12)

    def test_oracle_matches_literal_average(self):
        mat = study_matrix().matrix
        horizon = 37
        powers = np.eye(mat.shape[0])
        total = np.zeros_like(mat)
        for _ in range(horizon):
            total += powers
            powers = powers @ mat
        literal = total / horizon
        assert np.allclose(cesaro_limit_oracle(mat, horizon), literal, atol=1e-12)

    def test_oracle_horizon_one(self):
        mat = study_matrix().matrix
        assert np.allclose(cesaro_limit_oracle(mat, 1), np.eye(7), atol=0)

    def test_singular_when_classes_wrong(self):
        # claiming both states of the identity form one class makes the
        # stationary solve singular
        with pytest.raises(SingularSolveError):
            cesaro_limit(np.eye(2), [(0, 1)], [])

    @settings(max_examples=50, deadline=None)
    @given(stochastic_matrices())
    def test_fixed_point_invariants(self, mat):
        dec = decompose(mat)
        c = dec.cesaro
        assert np.max(np.abs(c @ mat - c)) <= 1e-10
        assert np.max(np.abs(mat @ c - c)) <= 1e-10
        assert np.max(np.abs(c @ c - c)) <= 1e-10
        assert np.max(np.abs(c.sum(axis=1) - 1.0)) <= 1e-10
        assert c.min() >= -1e-14

    @settings(max_examples=30, deadline=None)
    @given(stochastic_matrices(max_m=6))
    def test_agrees_with_long_average(self, mat):
        dec = decompose(mat)
        oracle = cesaro_limit_oracle(mat, 100000 * dec.delta)
        assert np.max(np.abs(dec.cesaro - oracle)) <= 1e-3

    # the nine-state chain has transient states and several classes, so
    # both kinds of solve run
    @settings(max_examples=50, deadline=None)
    @given(stochastic_matrices())
    @example(np.asarray(NINE_STATE_ROWS))
    def test_bits_match_the_eye_construction(self, mat):
        dec = decompose(mat)
        expected = eye_construction_cesaro(dec.matrix.matrix, dec.classes, dec.transient)
        assert np.array_equal(dec.cesaro.view(np.int64), expected.view(np.int64))

    def test_cached_limit_is_read_only(self):
        # an edit to the kept limit would move every later result on the
        # decomposition: here the weights from state 1, (2/7, 5/7)
        dec = decompose([[0.5, 0.5], [0.2, 0.8]])
        weights = weights_from_chains([unit_mass(2, 0)], dec)
        for limit in (dec.cesaro, power_limit(dec.matrix, 1)):
            with pytest.raises(ValueError, match="read-only"):
                limit[0, 0] = 0.9
        assert np.array_equal(weights_from_chains([unit_mass(2, 0)], dec), weights)

    def test_peak_memory_is_about_one_matrix(self):
        # each system is one gathered copy of its block; LAPACK's own copy
        # is not traced
        dec = decompose(ring_matrix(300))
        tracemalloc.start()
        try:
            dec.cesaro
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = dec.matrix.matrix.nbytes
        assert peak <= 1.5 * nbytes, peak / nbytes


# --------------------------------------------------------------- power limit


class TestPowerLimit:
    def test_identity(self):
        dec = decompose(np.eye(3))
        assert np.allclose(power_limit(np.eye(3), dec.delta), np.eye(3), atol=1e-14)

    def test_two_cycle_even_steps(self):
        mat = np.asarray([[0.0, 1.0], [1.0, 0.0]])
        dec = decompose(mat)
        assert dec.delta == 2
        assert np.allclose(power_limit(mat, dec.delta), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("delta", [0, 2.0, True])
    def test_delta_must_be_positive_integer(self, delta):
        with pytest.raises(ValueError, match=f"got {delta!r}"):
            power_limit(np.eye(2), delta)

    def test_seven_state_residual(self):
        mat = study_matrix()
        dec = decompose(mat)
        p2 = np.linalg.matrix_power(mat.matrix, dec.delta)
        limit = power_limit(mat, dec.delta)
        assert np.max(np.abs(limit @ p2 - limit)) <= 1e-10

    def test_matches_large_power(self, nine_state):
        dec = decompose(nine_state)
        big = np.linalg.matrix_power(nine_state.matrix, dec.delta * 4096)
        assert np.max(np.abs(power_limit(nine_state, dec.delta) - big)) <= 1e-9

    @pytest.mark.parametrize("e, block, tol", [(1e-4, 1, 1e-12), (1e-6, 50, 1e-9)],
                             ids=["pair-1e-4", "blocks-1e-6"])
    def test_weakly_coupled_limit_is_uniform(self, e, block, tol):
        # the squares of these chains drift off the simplex and overflow
        # long before they settle; the limit comes from the structure instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            limit = power_limit(coupled_blocks(e, block), 1)
        assert np.max(np.abs(limit - 0.5 / block)) <= tol

    def test_row_slack_does_not_grow_past_validation(self):
        # each row is 9e-13 over 1, inside validation's slack; the rows of
        # P^2 are 1.8e-12 over, outside it
        mat = np.asarray([[0.0, 1.0 + 9e-13], [1.0 + 9e-13, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            limit = power_limit(mat, 2)
        assert np.max(np.abs(limit - np.eye(2))) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(stochastic_matrices())
    def test_idempotent_under_sampled_chain(self, mat):
        dec = decompose(mat)
        p_delta = np.linalg.matrix_power(mat, dec.delta)
        limit = power_limit(mat, dec.delta)
        assert np.max(np.abs(limit @ p_delta - limit)) <= 1e-10
        assert np.max(np.abs(limit.sum(axis=1) - 1.0)) <= 1e-10


# ------------------------------------------------- limiting distributions


class TestLimitingDistribution:
    def test_absorbing_point_mass(self):
        mat = np.asarray([[0.5, 0.5], [0.0, 1.0]])
        dec = decompose(mat)
        out = limiting_distribution(unit_mass(2, 0), dec)
        assert np.allclose(out, [0.0, 1.0], atol=1e-12)

    def test_seven_state_from_aperiodic_class(self):
        mat = study_matrix()
        dec = decompose(mat)
        out = limiting_distribution(unit_mass(7, 4), dec)
        # independent stationary solve on the aperiodic block
        sub = mat.matrix[np.ix_([4, 5, 6], [4, 5, 6])]
        lhs = (sub.T - np.eye(3))
        lhs[-1] = 1.0
        rhs = np.zeros(3)
        rhs[-1] = 1.0
        pi = np.linalg.solve(lhs, rhs)
        assert np.allclose(out[4:], pi, atol=1e-12)
        assert np.allclose(out[:4], 0.0, atol=1e-14)

    def test_mass_stays_in_reachable_classes(self, nine_state):
        dec = decompose(nine_state)
        out = limiting_distribution(unit_mass(9, 0), dec)
        assert abs(out.sum() - 1.0) <= 1e-12
        assert np.allclose(out[4:], 0.0, atol=1e-14)

    def test_rejects_bad_distribution(self, nine_state):
        dec = decompose(nine_state)
        with pytest.raises(InvalidDistributionError):
            limiting_distribution(np.full(9, 0.5), dec)


# ------------------------------------------------------------------ sampling

# Rows whose positive entries sum below 1.0, then a zero entry, each
# with a draw u past its last positive entry: the first sums to
# 1 - 2^-53, the second to 1 - 1e-13, inside ROW_SUM_TOL.
GAP_ROWS = [
    ([0.20381898702851367, 0.7463113329614236, 0.049869680010062596, 0.0],
     1.0 - 2.0 ** -53),
    ([0.5, 0.5 - 1e-13, 0.0, 0.0], 1.0 - 2.0 ** -50),
]


class FixedDraws:
    """Stands in for a Generator whose every uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


class TestSampling:
    def test_cyclic_walk_deterministic(self):
        mat = np.zeros((3, 3))
        mat[0, 1] = mat[1, 2] = mat[2, 0] = 1.0
        tm = validate_stochastic(mat)
        chain = make_chain(tm, unit_mass(3, 0), np.random.default_rng(123))
        assert chain.current == 0
        path = walk(chain, tm, 7)
        assert path.tolist() == [1, 2, 0, 1, 2, 0, 1]

    def test_absorbing_stays_put(self):
        tm = validate_stochastic([[0.0, 1.0], [0.0, 1.0]])
        chain = make_chain(tm, unit_mass(2, 0), np.random.default_rng(5))
        path = walk(chain, tm, 10)
        assert path.tolist() == [1] * 10

    def test_point_mass_start_ignores_seed(self):
        tm = validate_stochastic(np.eye(2))
        for seed in range(5):
            chain = make_chain(tm, unit_mass(2, 1), np.random.default_rng(seed))
            assert chain.current == 1

    def test_random_start_hits_both(self):
        tm = validate_stochastic(np.eye(2))
        states = {
            make_chain(tm, [0.5, 0.5], np.random.default_rng(seed)).current
            for seed in range(20)
        }
        assert states == {0, 1}

    def test_walk_equals_step_loop(self):
        tm = study_matrix()
        a = make_chain(tm, unit_mass(7, 0), np.random.default_rng(42))
        b = make_chain(tm, unit_mass(7, 0), np.random.default_rng(42))
        cum = np.cumsum(tm.matrix, axis=1)
        cum[:, -1] = 1.0

        def step():
            # one inverse-CDF transition on b's row
            b.current = int(np.searchsorted(cum[b.current], b.rng.random(), side="right"))
            return b.current

        path = walk(a, tm, 500)
        singles = np.asarray([step() for _ in range(500)])
        assert np.array_equal(path, singles)
        # the generators stay in lockstep afterwards
        assert walk(a, tm, 1)[0] == step()
        assert a.rng.random() == b.rng.random()

    def test_sampling_table_built_on_first_walk(self):
        tm = validate_stochastic(study_matrix().matrix)
        decompose(tm)
        support = tm.__dict__["_support"]
        assert "_cumulative" not in tm.__dict__
        chain = make_chain(tm, unit_mass(7, 0), np.random.default_rng(1))
        assert "_cumulative" not in tm.__dict__
        walk(chain, tm, 3)
        table = tm.__dict__["_cumulative"]
        walk(chain, tm, 3)
        assert tm.__dict__["_cumulative"] is table
        # the walk reads the support decompose built
        assert tm.__dict__["_support"] is support

    @pytest.mark.parametrize("row,u", GAP_ROWS, ids=["sum-1-2^-53", "sum-1-1e-13"])
    def test_walk_never_takes_a_zero_probability_step(self, row, u):
        mat = np.eye(4)
        mat[0] = row
        chain = ChainState(current=0, rng=FixedDraws(u))
        assert walk(chain, validate_stochastic(mat), 1).tolist() == [np.flatnonzero(row)[-1]]

    @pytest.mark.parametrize("row,u", GAP_ROWS, ids=["sum-1-2^-53", "sum-1-1e-13"])
    def test_start_never_has_zero_probability(self, row, u):
        chain = make_chain(validate_stochastic(np.eye(4)), row, FixedDraws(u))
        assert chain.current == np.flatnonzero(row)[-1]

    def test_first_walk_memory_scales_with_support(self):
        # a 2000-state ring with offsets 1 and 2: a dense table of Python
        # floats would hold 4 million entries, the support holds 8000
        m = 2000
        mat = np.zeros((m, m))
        i = np.arange(m)
        for d in (-2, -1, 1, 2):
            mat[i, (i + d) % m] = 0.25
        tm = validate_stochastic(mat)
        tracemalloc.start()
        try:
            chain = make_chain(tm, unit_mass(m, 0), np.random.default_rng(0))
            path = walk(chain, tm, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert np.all(np.isin(np.diff(path) % m, [1, 2, m - 2, m - 1]))

    def test_visit_frequencies_match_limit(self):
        tm = study_matrix()
        dec = decompose(tm)
        pi0 = unit_mass(7, 4)
        target = limiting_distribution(pi0, dec)
        chain = make_chain(tm, pi0, np.random.default_rng(7))
        path = walk(chain, tm, 1000000)
        freq = np.bincount(path, minlength=7) / path.size
        assert np.max(np.abs(freq - target)) <= 5e-3

    def test_reseeding_reproduces(self):
        tm = study_matrix()
        p1 = walk(make_chain(tm, unit_mass(7, 2), np.random.default_rng(99)), tm, 1000)
        p2 = walk(make_chain(tm, unit_mass(7, 2), np.random.default_rng(99)), tm, 1000)
        assert np.array_equal(p1, p2)


# --------------------------------------------------------------------- io


def ring_matrix(m):
    """A ring of m states stepping -2..2 (weights 0.1, 0.2, 0.4, 0.2, 0.1)."""
    mat = np.zeros((m, m))
    i = np.arange(m)
    for d, w in zip(range(-2, 3), (0.1, 0.2, 0.4, 0.2, 0.1)):
        mat[i, (i + d) % m] = w
    return validate_stochastic(mat)


class TestTextIO:
    def test_matrix_round_trip(self, tmp_path, nine_state):
        path = tmp_path / "mat.txt"
        write_matrix_text(nine_state, path)
        back = read_matrix_text(path)
        assert np.array_equal(back.matrix, nine_state.matrix)

    def test_read_counted_format(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("2\n0.5 0.5\n0 1\n")
        back = read_matrix_text(path)
        assert np.array_equal(back.matrix, [[0.5, 0.5], [0.0, 1.0]])

    def test_read_distribution(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("0.25 0.75\n")
        assert np.array_equal(read_distribution_text(path), [0.25, 0.75])

    @pytest.mark.parametrize("m", [None, 2])
    def test_read_empty_distribution_names_file(self, tmp_path, m):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(InvalidDistributionError, match="empty.txt: distribution is empty"):
            read_distribution_text(path, m)

    @pytest.mark.parametrize("text", ["0.5 0.25 0.25\n", "1.5 -0.5\n", "0.5 0.4\n"],
                             ids=["length", "negative", "sum"])
    def test_invalid_distribution_names_file(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InvalidDistributionError, match="bad.txt"):
            read_distribution_text(path, 2)

    def test_non_numeric_distribution_names_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5 x\n")
        with pytest.raises(ValueError, match=r"^distribution file .*bad\.txt: could not "
                           r"convert string to float: 'x'$"):
            read_distribution_text(path, 2)

    def test_read_distribution_multiline(self, tmp_path):
        path = tmp_path / "dist.txt"
        path.write_text("0.25\n0.75\n")
        assert np.array_equal(read_distribution_text(path), [0.25, 0.75])

    def test_entry_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("2\n0.5 0.5\n1\n")
        with pytest.raises(ValueError):
            read_matrix_text(path)

    def test_empty_matrix_rejected(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            read_matrix_text(path)

    def test_round_trip_survives_tiny_values(self, tmp_path):
        mat = validate_stochastic([[1.0 - 1e-13, 1e-13], [0.3, 0.7]])
        path = tmp_path / "mat.txt"
        write_matrix_text(mat, path)
        assert np.array_equal(read_matrix_text(path).matrix, mat.matrix)

    @pytest.mark.parametrize(
        "which",
        ["nine", "tiny", "ring-300", "dense-blocks", "edge-columns", "negative-zero", "subnormal"],
    )
    def test_writer_bytes_match_per_entry_repr(self, tmp_path, nine_state, which):
        if which == "nine":
            mat = nine_state
        elif which == "tiny":
            mat = validate_stochastic(
                [[1.0 - 1e-13, 1e-13, 5e-324], [-0.0, 0.25, 0.75], [0.0, 0.0, 1.0]]
            )
        elif which == "ring-300":
            mat = ring_matrix(300)
        elif which == "dense-blocks":
            mat = validate_stochastic(coupled_blocks(0.1, 20))
        elif which == "edge-columns":
            # rows whose one positive entry sits in the first or the last column
            mat = validate_stochastic(
                [[1, 0, 0, 0], [0, 0, 0, 1], [0.5, 0, 0, 0.5], [0, 1, 0, 0]]
            )
        elif which == "negative-zero":
            mat = validate_stochastic(
                [[-0.0, 0.5, -0.0, 0.5, -0.0], [0.2, -0.0, 0.0, 0.3, 0.5],
                 [-0.0, -0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -0.0, -0.0],
                 [1.0, 0.0, -0.0, 0.0, -0.0]]
            )
        else:
            mat = validate_stochastic([[1.0 - 5e-324, 5e-324, 0.0], [5e-324, 0.0, 1.0], [0.0, 0.0, 1.0]])
        path = tmp_path / "mat.txt"
        write_matrix_text(mat, path)
        expected = "\n".join(
            [str(mat.m)] + [" ".join(repr(float(v)) for v in row) for row in mat.matrix]
        ) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        back = read_matrix_text(path).matrix
        assert back.tobytes() == mat.matrix.tobytes()

    def test_write_peak_memory_is_below_the_matrix(self, tmp_path):
        # the +0.0 runs are slices of one string: no object per cell
        mat = ring_matrix(2000)
        tracemalloc.start()
        try:
            write_matrix_text(mat, tmp_path / "ring.txt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mat.matrix.nbytes / 4, peak / mat.matrix.nbytes

    @pytest.mark.parametrize(
        "text",
        [
            "2\n# a comment\n0.5 0.5\n0 1\n",
            "2\n0.5 0.5\n0 1 0\n",
            "2 0.5 0.5\n0 1\n",
            "2\n0.5 half\n0 1\n",
            "2\n0.5 0.5 0 1\n",
            "2\n",
        ],
        ids=["comment", "ragged", "data-on-header", "non-numeric", "split-row", "no-rows"],
    )
    def test_rejected_layout_names_file(self, tmp_path, text):
        path = tmp_path / "mat.txt"
        path.write_text(text)
        # the ValueError is the whole report: no warning goes to stderr
        with warnings.catch_warnings(), pytest.raises(ValueError) as info:
            warnings.simplefilter("error")
            read_matrix_text(path)
        assert str(path) in str(info.value)

    def test_read_peak_memory_is_a_few_matrices(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.random((300, 300))
        mat = validate_stochastic(raw / raw.sum(axis=1, keepdims=True))
        path = tmp_path / "mat.txt"
        write_matrix_text(mat, path)
        tracemalloc.start()
        try:
            back = read_matrix_text(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.matrix, mat.matrix)
        assert peak < 3 * mat.matrix.nbytes, peak / mat.matrix.nbytes


class TestReport:
    def test_report_is_one_based(self, nine_state):
        rep = decomposition_report(decompose(nine_state))
        assert rep["classes"] == [[1, 2, 3, 4], [5, 6, 7]]
        assert rep["periods"] == [2, 3]
        assert rep["transient"] == [8, 9]
        assert rep["delta"] == 6

    def test_report_no_transients(self):
        rep = decomposition_report(decompose(study_matrix()))
        assert rep["transient"] == []
        assert rep["delta"] == 2
