"""Shared fixtures and matrix generators for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from chainopt import ConvexSumProblem, validate_stochastic

# 9-state reference chain: a period-2 class, a period-3 class, and two
# transient states feeding both.
NINE_STATE_ROWS = [
    [0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.3, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.2, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.1, 0.0, 0.0, 0.2, 0.0, 0.7, 0.0],
    [0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.9, 0.0],
]

# Valid starting distributions for the 9-state chain used in weight tests.
NINE_STATE_STARTS = [
    [0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
]


@pytest.fixture
def nine_state():
    return validate_stochastic(np.asarray(NINE_STATE_ROWS))


def unit_mass(m, state):
    vec = np.zeros(m)
    vec[state] = 1.0
    return vec


class PlainAbs:
    """|a . x - b| as a user component: value and subgradient only.

    The same geometry as an L1Component, but not one, so a problem built
    from these takes the optimizer's oracle path.
    """

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = float(b)

    def value(self, x):
        return abs(float(self.a @ x) - self.b)

    def subgradient(self, x):
        r = float(self.a @ x) - self.b
        if r > 0.0:
            return self.a
        if r < 0.0:
            return -self.a
        return np.zeros_like(self.a)


def plain_abs_problem(problem, wrapped=None):
    """The L1 problem with its components at `wrapped` (all by default) as PlainAbs."""
    wrapped = range(problem.m) if wrapped is None else wrapped
    return ConvexSumProblem(
        n=problem.n,
        components=tuple(
            PlainAbs(c.a, c.b) if i in wrapped else c for i, c in enumerate(problem.components)
        ),
        feasible=problem.feasible,
        weights=problem.weights,
    )


def coupled_blocks(e, block):
    """Two uniform blocks of `block` states, each leaking e to the other.

    P^k approaches the uniform matrix exactly as (1 - 2e)^k; one-state
    blocks give the pair [[1-e, e], [e, 1-e]].
    """
    mat = np.full((2 * block, 2 * block), e / block)
    mat[:block, :block] = (1.0 - e) / block
    mat[block:, block:] = (1.0 - e) / block
    return mat


def cesaro_limit_oracle(mat, horizon: int) -> np.ndarray:
    """Average of the first `horizon` powers of mat, starting at the identity.

    An independent check on cesaro_limit: it touches no class structure
    and no linear solves, only matrix products. The partial sums
    S(n) = I + P + ... + P^(n-1) follow S(2t) = S(t) + P^t S(t) and
    S(2t+1) = I + P S(2t), so the cost is logarithmic in the horizon.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    mat = np.asarray(mat, dtype=np.float64)
    eye = np.eye(mat.shape[0])

    def partial(n: int) -> tuple[np.ndarray, np.ndarray]:
        if n == 1:
            return eye.copy(), mat.copy()
        half, half_pow = partial(n // 2)
        total = half + half_pow @ half
        total_pow = half_pow @ half_pow
        if n % 2:
            total = eye + mat @ total
            total_pow = mat @ total_pow
        return total, total_pow

    total, _ = partial(horizon)
    return total / horizon


@st.composite
def stochastic_matrices(draw, max_m=8):
    """Dense-ish random row-stochastic matrices from small integer weights."""
    m = draw(st.integers(1, max_m))
    rows = []
    for _ in range(m):
        weights = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m))
        if sum(weights) == 0:
            weights[draw(st.integers(0, m - 1))] = 1
        rows.append(weights)
    mat = np.asarray(rows, dtype=np.float64)
    mat /= mat.sum(axis=1, keepdims=True)
    return mat


@st.composite
def structured_matrices(draw, max_m=8):
    """Matrices with a known decomposition, built from cyclic blocks.

    Each recurrent class is a pure directed cycle (period equal to its
    size); remaining states are transient rows spreading uniformly over
    all states. Returns (matrix, expected classes, expected periods,
    expected transient states).
    """
    m = draw(st.integers(2, max_m))
    sizes = []
    remaining = m
    while remaining > 0 and len(sizes) < 3:
        take = draw(st.integers(1, remaining))
        sizes.append(take)
        remaining -= take
        if remaining and draw(st.booleans()):
            break
    transient_count = remaining
    mat = np.zeros((m, m))
    classes = []
    start = 0
    for size in sizes:
        members = list(range(start, start + size))
        for pos, state in enumerate(members):
            mat[state, members[(pos + 1) % size]] = 1.0
        classes.append(tuple(members))
        start += size
    for state in range(start, m):
        mat[state, :] = 1.0 / m
    return mat, classes, [len(c) for c in classes], list(range(start, m))
