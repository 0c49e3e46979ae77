"""Chain-driven incremental subgradient iteration with string averaging.

Each iteration advances every selection chain one transition, takes one
noisy subgradient step per chain from the shared iterate using the
component the chain landed on, averages the per-chain results, and
projects the average back onto the box. run_batch advances S runs that
share the problem and schedule as one (S, n) stack of iterates, and
run(config) is a batch of one. Runs are bitwise reproducible: every
chain owns two random streams derived from (chain index, seed), one for
transitions and one for noise, so neither batch composition nor batch
order can shift a draw.

run_batch is a block driver over one of two step kernels. Once per block
of BLOCK iterations it walks the chains, draws the noise and stepsizes,
averages and clips the steps the kernel yields, and evaluates and records
the block. The L1 kernel looks all-L1 steps up in a table built per
block; the oracle kernel calls each component's subgradient.
"""

from __future__ import annotations

import csv
import itertools
import sys
import time
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace

import numpy as np

from . import markov
from .markov import ChainDecomposition, ChainState, TransitionMatrix
from .problems import (
    Box,
    ConvexSumProblem,
    L1Component,
    NoiseModel,
    _frozen_copy,
    objective,
    project,
    sample_noise_block,
)

__all__ = [
    "InvalidParametersError",
    "InvalidNeighborsError",
    "UnreachableClassWarning",
    "CROSSING_THRESHOLDS",
    "DiminishingBlockStepsize",
    "ConstantStepsize",
    "ChainSpec",
    "RunConfig",
    "Trace",
    "stepsize",
    "start_chains",
    "run_batch",
    "run",
    "make_baseline",
    "thin_trace",
    "write_trace_csv",
    "parse_trace_csv",
]

# Iterations per block: chain walks, noise draws, objective values and
# recording run once per block, which bounds the engine's buffers.
BLOCK = 512
# Noise rows are drawn per block; perfbench replays the draws in chunks of
# this size.
NOISE_BLOCK = BLOCK
# Rows per slice when writing a trace CSV.
CSV_CHUNK = 1024
# Each run records the first iterate whose best-so-far f is below each.
CROSSING_THRESHOLDS = (1e-2, 1e-3, 1e-4, 1e-6)


class InvalidParametersError(ValueError):
    """A stepsize schedule was built with out-of-range parameters."""


class InvalidNeighborsError(ValueError):
    """A neighbor structure for the equal-probability scheme is malformed."""


class UnreachableClassWarning(UserWarning):
    """Some recurrent class cannot be reached from any chain's start."""


@dataclass(frozen=True)
class DiminishingBlockStepsize:
    """a / (t+1)^xi where t indexes blocks of block_len iterations.

    The stepsize is constant inside each block and decays across blocks;
    the exponent must lie in (2/3, 1] for the diminishing-stepsize
    convergence guarantee to apply. a and xi are kept as floats.
    """

    a: float
    xi: float
    block_len: int

    def __post_init__(self):
        if not (markov._is_number(self.a) and 0.0 < self.a < np.inf):
            raise InvalidParametersError(f"scale a must be positive and finite, got {self.a!r}")
        if not (markov._is_number(self.xi) and 2.0 / 3.0 < self.xi <= 1.0):
            raise InvalidParametersError(f"exponent xi must lie in (2/3, 1], got {self.xi!r}")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "xi", float(self.xi))
        block_len = markov._check_count(self.block_len, "block_len", 1, InvalidParametersError)
        object.__setattr__(self, "block_len", block_len)


@dataclass(frozen=True)
class ConstantStepsize:
    """Fixed stepsize, kept as a float. Zero is allowed for fixed-point checks."""

    lam: float

    def __post_init__(self):
        if not (markov._is_number(self.lam) and 0.0 <= self.lam < np.inf):
            raise InvalidParametersError(f"stepsize must be finite and >= 0, got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))


def stepsize(schedule, k: int) -> float:
    """Stepsize applied when producing iterate k+1 from iterate k."""
    if isinstance(schedule, ConstantStepsize):
        return schedule.lam
    block = k // schedule.block_len
    return schedule.a / float(block + 1) ** schedule.xi


def _stepsizes(schedule, start: int, count: int) -> np.ndarray:
    """Stepsizes for k = start .. start + count - 1, bitwise stepsize()."""
    if isinstance(schedule, ConstantStepsize):
        return np.full(count, schedule.lam)
    first = start // schedule.block_len
    last = (start + count - 1) // schedule.block_len
    values = [schedule.a / float(t + 1) ** schedule.xi for t in range(first, last + 1)]
    skip = start - first * schedule.block_len
    return np.repeat(np.asarray(values), schedule.block_len)[skip : skip + count]


def _bits(value):
    """A key for value that == compares bit for bit, as the engine reads it.

    Arrays give their dtype, shape and bytes and floats their float64
    bytes, so -0.0 is not +0.0; integers, strings and None stay as they
    are; tuples and chainopt's data types give their elements' or fields'
    keys; anything else, such as a user component, is compared by identity.
    """
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if value is None or isinstance(value, (int, np.integer, str)):
        return value
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    if isinstance(value, (ConvexSumProblem, Box, L1Component, TransitionMatrix, NoiseModel,
                          ConstantStepsize, DiminishingBlockStepsize)):
        return type(value), tuple(_bits(getattr(value, f.name)) for f in fields(value))
    return type(value), id(value)


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """Initial distribution and seed for one selection chain.

    Checked when built: seed must be an integer >= 0 (not a bool), and
    init_dist is kept as a read-only float copy. RunConfig checks that
    it is a distribution over its chain's states.
    """

    init_dist: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "init_dist", _frozen_copy(self.init_dist))
        object.__setattr__(self, "seed", markov._check_count(self.seed, "seed", 0))


@dataclass
class ChainRuntime:
    """Live chain state plus its private noise stream."""

    state: ChainState
    noise_rng: np.random.Generator


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything one reproducible run needs.

    subgradient_scale, when set, multiplies the subgradient of component
    i by scale[i] inside the update. Baseline methods that visit
    components uniformly use it to target the weighted objective; the
    reported objective always uses problem.weights either way. decomp
    must be a decomposition of matrix or of a matrix with the same bits
    (-0.0 is not +0.0).

    Checked when built, and again by dataclasses.replace, so every
    RunConfig is valid: one problem component per chain state, a
    ConstantStepsize or DiminishingBlockStepsize schedule, a NoiseModel,
    at least one chain, each start a distribution over the states,
    integer budget and stride of at least 1, x0 of shape (n,) inside the
    box, and a finite, nonnegative scale of shape (m,). x0 and the scale
    are kept as read-only float copies.
    """

    problem: ConvexSumProblem
    matrix: TransitionMatrix
    decomp: ChainDecomposition
    chains: tuple
    schedule: ConstantStepsize | DiminishingBlockStepsize
    noise: NoiseModel
    x0: np.ndarray
    budget: int
    stride: int = 1
    subgradient_scale: np.ndarray | None = None

    def __post_init__(self):
        m, n = self.matrix.m, self.problem.n
        if self.problem.m != m:
            raise ValueError(
                f"problem has {self.problem.m} components but the chain has {m} states"
            )
        if not isinstance(self.schedule, (ConstantStepsize, DiminishingBlockStepsize)):
            raise ValueError(
                "schedule must be a ConstantStepsize or a DiminishingBlockStepsize, "
                f"got {self.schedule!r}"
            )
        if not isinstance(self.noise, NoiseModel):
            raise ValueError(f"noise must be a NoiseModel, got {self.noise!r}")
        object.__setattr__(self, "chains", tuple(self.chains))
        if not self.chains:
            raise ValueError("need at least one chain")
        object.__setattr__(self, "budget", markov._check_count(self.budget, "budget", 1))
        object.__setattr__(self, "stride", markov._check_count(self.stride, "stride", 1))
        object.__setattr__(self, "x0", _frozen_copy(self.x0))
        if self.x0.shape != (n,):
            raise ValueError(f"x0 must have shape ({n},), got {self.x0.shape}")
        if not np.array_equal(project(self.problem.feasible, self.x0), self.x0):
            raise ValueError("x0 must lie inside the feasible box")
        for index, spec in enumerate(self.chains):
            try:
                markov._check_distribution(spec.init_dist, m)
            except markov.InvalidDistributionError as exc:
                raise ValueError(f"chain {index} start: {exc}") from None
        if self.subgradient_scale is not None:
            scale = _frozen_copy(self.subgradient_scale)
            if scale.shape != (m,):
                raise ValueError(f"subgradient scale must have shape ({m},), got {scale.shape}")
            if not np.all(np.isfinite(scale)) or float(scale.min()) < 0.0:
                raise ValueError("subgradient scale entries must be finite and nonnegative")
            object.__setattr__(self, "subgradient_scale", scale)
        decomposed = self.decomp.matrix
        if decomposed is not self.matrix and _bits(decomposed) != _bits(self.matrix):
            raise ValueError("decomposition does not match the transition matrix")


def _warn_unreachable(config: RunConfig) -> None:
    """Warn when a recurrent class is invisible to every chain.

    Components in such a class never influence the iterate, which
    usually signals a modeling mistake, but the run itself is still well
    defined, so this stays a warning.
    """
    # attribute the warning to the first frame outside this module, so
    # that run and run_batch both name their caller's line
    frame, stacklevel = sys._getframe(1), 2
    while frame.f_code.co_filename == __file__:
        frame, stacklevel = frame.f_back, stacklevel + 1
    starts = {s for spec in config.chains for s in np.flatnonzero(spec.init_dist).tolist()}
    reachable = markov._reachable(config.matrix._support, starts)
    for cls in config.decomp.classes:
        if not any(s in reachable for s in cls):
            labels = tuple(s + 1 for s in cls)
            warnings.warn(
                f"recurrent class {labels} is unreachable from every chain start; "
                "its components will never update the iterate",
                UnreachableClassWarning,
                stacklevel=stacklevel,
            )


def start_chains(config: RunConfig) -> list[ChainRuntime]:
    """Create the per-chain runtimes with their derived random streams.

    Chain index ell and the chain's seed fully determine both streams,
    so the same configuration always walks the same trajectory no matter
    how many chains run or in what order they are serviced.
    """
    runtimes = []
    for index, spec in enumerate(config.chains):
        root = np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,))
        transition_seq, noise_seq = root.spawn(2)
        transition_rng = np.random.default_rng(transition_seq)
        state = markov.make_chain(config.matrix, spec.init_dist, transition_rng)
        runtimes.append(
            ChainRuntime(state=state, noise_rng=np.random.default_rng(noise_seq))
        )
    return runtimes


@dataclass
class Trace:
    """Recorded run history in columnar form.

    k holds the recorded iterate indices; f, best_f, and lam line up
    with it; states holds the 0-based chain states at each recorded
    iterate, one column per chain. best_f is tracked on every iteration
    even when the recording stride skips some: it is the running minimum
    of f that skips NaN (np.fmin.accumulate), NaN until some f is a
    number. Once it is a number, best_k is the first iterate whose f
    equals the last best_f and best_x is that iterate; while every f is
    NaN they are 0 and x0. crossings holds the first iterate (or
    None) whose best_f is below each of CROSSING_THRESHOLDS, exact at
    any stride. max_subgradient_norm is the largest scaled subgradient
    norm applied during the run. wall_time_s is the run's wall time; for
    a run_batch of S configs it is the batch's wall time divided by S.
    The traces of one batch share their k and lam arrays, which are
    read-only.
    """

    k: np.ndarray
    f: np.ndarray
    best_f: np.ndarray
    lam: np.ndarray
    states: np.ndarray
    final_x: np.ndarray
    best_x: np.ndarray
    best_k: int
    wall_time_s: float
    max_subgradient_norm: float
    crossings: tuple[int | None, ...]

    def __len__(self) -> int:
        return int(self.k.shape[0])

    @property
    def ns_per_iteration(self) -> float:
        iterations = int(self.k[-1]) if len(self) else 0
        return self.wall_time_s / iterations * 1e9 if iterations else 0.0


# Fields the engine reads from config 0 alone, so every config of one
# batch must share them bit for bit.
_SHARED = ("problem", "matrix", "schedule", "noise", "budget", "stride", "subgradient_scale")


def _check_shared(configs: list[RunConfig]) -> None:
    first = configs[0]
    for index, config in enumerate(configs[1:], start=1):
        for field in _SHARED:
            ours, theirs = getattr(first, field), getattr(config, field)
            if ours is not theirs and _bits(ours) != _bits(theirs):
                raise ValueError(
                    f"run_batch configs must share {field!r}: config {index} differs "
                    "from config 0"
                )
        if len(config.chains) != len(first.chains):
            raise ValueError(
                f"run_batch configs must share the chain count: config {index} has "
                f"{len(config.chains)} chains, config 0 has {len(first.chains)}"
            )


class _L1Kernel:
    """Steps of all-L1 problems, looked up in a candidate table per block.

    signed, of shape (m, 3, n), holds [-a, 0, +a] for each component,
    already multiplied by its subgradient scale, so entry [i, 1 +
    sign(r)] is the applied subgradient of component i at residual r.
    Once per block, cand[j] gets lam_j * (signed + noise_j) of the
    component each pair (s, c) visits at step j, in (S M 3, n) rows, so
    the pair's step is row base[s, c] + sign(residual) of cand[j].
    """

    def __init__(self, config: RunConfig, X: np.ndarray):
        _, S, n = X.shape
        M = len(config.chains)
        # a scale of ones multiplies exactly, signed zeros included
        scale = config.subgradient_scale
        scale = np.ones(config.problem.m) if scale is None else scale
        self.weights = config.problem.weights
        self.rows = np.vstack([c.a for c in config.problem.components])
        self.offsets = np.array([c.b for c in config.problem.components])
        signed = np.stack([-self.rows, np.zeros_like(self.rows), self.rows], axis=1)
        self.signed = signed * scale[:, np.newaxis, np.newaxis]
        self.norm_table = np.linalg.norm(self.rows, axis=1) * scale
        self.cand = np.empty((BLOCK, S * M * 3, n))
        self.block_rows = np.empty((BLOCK, S, M, 1, n))
        self.block_offsets = np.empty((BLOCK, S, M))
        # int8: the sign of a NaN residual casts to 0, the zero row
        self.signs = np.empty((BLOCK, S, M), dtype=np.int8)
        # each iteration's operands are viewed once per run: its rows,
        # iterate column, offsets, signs and candidates
        views = min(BLOCK, config.budget)
        self.views = list(zip(
            self.block_rows[:views], X[:views, :, np.newaxis, :, np.newaxis],
            self.block_offsets[:views], self.signs[:views], self.cand[:views],
        ))

    def objectives(self, points: np.ndarray) -> np.ndarray:
        """Objective at each row of points (P, n).

        One stacked matrix-vector product and one stacked dot, which run
        the same BLAS routines on the same vectors as a per-point
        `weights @ abs(rows @ x - offsets)`, so each value is bitwise
        what the per-point evaluation gives.
        """
        residuals = np.matmul(self.rows, points[:, :, np.newaxis])[:, :, 0]
        np.subtract(residuals, self.offsets, out=residuals)
        np.abs(residuals, out=residuals)
        return np.matmul(residuals[:, np.newaxis, :], self.weights)[:, 0]

    def steps(self, states, noise, lams, max_norm):
        count, S, M = states.shape
        # the walks' states are in range, so clip mode only skips the
        # bounds pass and take's copy of out
        np.take(self.rows, states, axis=0, out=self.block_rows[:count, :, :, 0], mode="clip")
        np.take(self.offsets, states, out=self.block_offsets[:count], mode="clip")
        cand = self.cand[:count].reshape(count, S, M, 3, -1)
        np.take(self.signed, states, axis=0, out=cand, mode="clip")
        if noise is not None:
            np.add(cand, noise[:count, :, :, np.newaxis, :], out=cand)
        np.multiply(cand, lams[:count, np.newaxis, np.newaxis, np.newaxis, np.newaxis], out=cand)
        residual = np.empty((S, M, 1, 1))
        flat_residual = residual.reshape(S, M)
        base = (3 * np.arange(S * M) + 1).reshape(S, M)
        index = np.empty((S, M), dtype=np.intp)
        step = np.empty((S, M, self.rows.shape[1]))
        for rows, x, offsets, signs, table in self.views[:count]:
            np.matmul(rows, x, out=residual)
            np.subtract(flat_residual, offsets, out=flat_residual)
            np.sign(flat_residual, out=signs, casting="unsafe")
            np.add(signs, base, out=index)
            table.take(index, axis=0, out=step, mode="clip")
            yield step
        norms = np.multiply(self.signs[:count] != 0, self.norm_table[states])
        np.fmax(max_norm, np.fmax.reduce(norms, axis=(0, 2)), out=max_norm)


class _OracleKernel:
    """Steps of any other problem, from each visited component's subgradient."""

    def __init__(self, config: RunConfig, X: np.ndarray):
        self.problem, self.scale, self.X = config.problem, config.subgradient_scale, X

    def objectives(self, points: np.ndarray) -> np.ndarray:
        return np.array([objective(self.problem, point) for point in points])

    def steps(self, states, noise, lams, max_norm):
        components, scale = self.problem.components, self.scale
        # the block's scaled subgradients, kept for their norms
        grads = np.empty((*states.shape, self.problem.n))
        step = np.empty(grads.shape[1:])
        for j, (x, visits, lam, g) in enumerate(zip(self.X, states.tolist(), lams.tolist(), grads)):
            for s, visited in enumerate(visits):
                for c, i in enumerate(visited):
                    oracle = components[i].subgradient(x[s])
                    g[s, c] = oracle if scale is None else oracle * scale[i]
            if noise is not None:
                g = np.add(g, noise[j], out=step)
            yield np.multiply(g, lam, out=step)
        # stacked g @ g: bitwise the dot inside np.linalg.norm(g)
        norms = np.sqrt(np.matmul(grads[..., np.newaxis, :], grads[..., np.newaxis])[..., 0, 0])
        np.fmax(max_norm, np.fmax.reduce(norms, axis=(0, 2)), out=max_norm)


def run_batch(configs) -> list[Trace]:
    """Run several configs at once; returns one Trace per config, in order.

    The configs must share the problem, transition matrix, schedule,
    noise model, budget, stride, subgradient scale and chain count;
    anything else, such as the chains' seeds and starts or x0, may
    differ. The engine reads the shared fields from config 0, so they are
    compared bit for bit (-0.0 is not +0.0), and user components by
    identity. Each config keeps its own chains and random streams,
    and the engine advances all of their iterates as one (S, n) stack, so
    every Trace is bitwise identical to what the config gives alone or in
    any other batch, in any position.

    A block driver over a step kernel picked by the component types:
    _L1Kernel for all-L1 problems, _OracleKernel for any other. Once per
    block of BLOCK iterations the driver walks the chains and draws the
    noise and stepsizes, and kernel.steps(states, noise, lams, max_norm)
    yields each iteration's (S, M, n) step, which the driver subtracts
    from the iterate, averages over the chains and clips; after its last
    step the kernel folds the block's applied subgradient norms into
    max_norm. Row j of the block's buffers is iterate k0 + j, from the
    block's first iterate (x0 in the first block) at j = 0 to its last at
    j = count: kernel.objectives(points) evaluates them all, and
    best-so-far tracking, first crossings and recording read them by that
    one index. A block's first iterate is the previous block's last, so
    it is evaluated twice. Memory grows with the recorded rows, not with
    the budget.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("run_batch needs at least one config")
    _check_shared(configs)
    for config in configs:
        _warn_unreachable(config)
    first = configs[0]
    problem = first.problem
    n = problem.n
    K = first.budget
    S = len(configs)
    M = len(first.chains)
    noisy = first.noise.kind != "zero"
    # the tail's operands all have the shape of an iterate stack seen
    # across the chains: a ufunc call with a broadcast (n,) operand costs
    # about twice a same-shape one
    lower = np.ascontiguousarray(np.broadcast_to(problem.feasible.lower, (S, 1, n)))
    upper = np.ascontiguousarray(np.broadcast_to(problem.feasible.upper, (S, 1, n)))
    chain_count = np.full((S, 1, n), float(M))

    started = time.perf_counter()
    runtimes = [start_chains(config) for config in configs]
    rec_k = np.arange(0, K + 1, first.stride, dtype=np.int64)
    if rec_k[-1] != K:
        rec_k = np.append(rec_k, K)
    rec_lam = np.empty(len(rec_k))
    # one row per run, so each Trace takes its row without a copy
    rec_f = np.empty((S, len(rec_k)))
    rec_best = np.empty((S, len(rec_k)))
    rec_states = np.empty((S, len(rec_k), M), dtype=np.int64)

    # row j of X (the iterate stack) and walked (its chain states) is iterate k0 + j
    X = np.empty((BLOCK + 1, S, n))
    X[0] = [config.x0 for config in configs]
    walked = np.empty((BLOCK + 1, S, M), dtype=np.int64)
    walked[0] = [[rt.state.current for rt in chains] for chains in runtimes]
    all_l1 = all(isinstance(c, L1Component) for c in problem.components)
    kernel = (_L1Kernel if all_l1 else _OracleKernel)(first, X)
    # best_f starts NaN: fmin skips it, and any f that is a number improves on it
    best_f = np.full(S, np.nan)
    best_x = X[0].copy()
    best_k = np.zeros(S, dtype=np.int64)
    # crossed[s, t]: first k with best-so-far f below threshold t, or -1
    crossed = np.full((S, len(CROSSING_THRESHOLDS)), -1)
    max_norm = np.zeros(S)

    noise_rows = np.empty((BLOCK, S, M, n)) if noisy else None
    sub = np.empty((S, M, n))
    # X_row[j] is X[j] seen across the chains, (S, 1, n), made once per
    # run; sub_cols[c] is chain c's candidate iterate in that shape
    X_row = [x[:, np.newaxis, :] for x in X[: min(BLOCK, K) + 1]]
    sub_cols = [sub[:, c : c + 1] for c in range(M)]
    later_cols = sub_cols[2:]

    for k0 in range(0, K, BLOCK):
        count = min(BLOCK, K - k0)
        for s, chains in enumerate(runtimes):
            for c, runtime in enumerate(chains):
                walked[1 : count + 1, s, c] = markov.walk(runtime.state, first.matrix, count)
                if noisy:
                    noise_rows[:count, s, c] = sample_noise_block(
                        first.noise, k0 + 1, count, runtime.noise_rng, n
                    )
        # stepsizes for k0 .. k0 + count: the last is recorded, not applied
        lams = _stepsizes(first.schedule, k0, count + 1)
        states = walked[1 : count + 1]
        for j, step in enumerate(kernel.steps(states, noise_rows, lams, max_norm)):
            x_next = X_row[j + 1]
            # adding the chains' columns in order, then dividing, is
            # np.mean (one chain's step is its own mean); maximum then
            # minimum is np.clip, signed zeros and NaN included
            if M == 1:
                np.subtract(X_row[j], step, out=x_next)
            else:
                np.subtract(X_row[j], step, out=sub)
                np.add(sub_cols[0], sub_cols[1], out=x_next)
                for column in later_cols:
                    np.add(x_next, column, out=x_next)
                np.divide(x_next, chain_count, out=x_next)
            np.maximum(x_next, lower, out=x_next)
            np.minimum(x_next, upper, out=x_next)

        f = kernel.objectives(X[: count + 1].reshape(-1, n)).reshape(count + 1, S)
        running = np.fmin.accumulate(f, axis=0)
        np.fmin(running, best_f, out=running)
        improved = (running[-1] < best_f) | (np.isnan(best_f) & ~np.isnan(running[-1]))
        for s in np.flatnonzero(improved):
            j = int(np.flatnonzero(f[:, s] == running[-1, s])[0])
            best_k[s] = k0 + j
            best_x[s] = X[j, s]
        best_f = running[-1].copy()
        # running never rises, so the rows not below a threshold come first
        pending = (crossed < 0) & (best_f[:, np.newaxis] < CROSSING_THRESHOLDS)
        below = (running[:, :, np.newaxis] < CROSSING_THRESHOLDS).sum(axis=0)
        crossed[pending] = k0 + count + 1 - below[pending]
        lo = np.searchsorted(rec_k, k0)
        hi = np.searchsorted(rec_k, k0 + count, side="right")
        local = rec_k[lo:hi] - k0
        rec_f[:, lo:hi] = f[local].T
        rec_best[:, lo:hi] = running[local].T
        rec_states[:, lo:hi] = walked[local].swapaxes(0, 1)
        rec_lam[lo:hi] = lams[local]
        X[0] = X[count]
        walked[0] = walked[count]
    wall = (time.perf_counter() - started) / S

    rec_k.flags.writeable = False
    rec_lam.flags.writeable = False
    return [
        Trace(
            k=rec_k,
            f=rec_f[s],
            best_f=rec_best[s],
            lam=rec_lam,
            states=rec_states[s],
            final_x=X[0, s].copy(),
            best_x=best_x[s].copy(),
            best_k=int(best_k[s]),
            wall_time_s=wall,
            max_subgradient_norm=float(max_norm[s]),
            crossings=tuple(None if k < 0 else k for k in crossed[s].tolist()),
        )
        for s in range(S)
    ]


def run(config: RunConfig) -> Trace:
    """Execute the configured number of iterations and record a Trace.

    A batch of one: run(config) is run_batch([config])[0].
    """
    return run_batch([config])[0]


def make_baseline(kind: str, m: int, neighbors=None):
    """Reference selection schemes: returns (matrix, initial distribution).

    "cyclic" visits components in fixed order starting after state 1;
    "uniform_random" jumps anywhere with probability 1/m from a uniform
    start; "equal_probability" moves to each declared neighbor with
    probability 1/m and holds otherwise (neighbor sets are 0-based,
    irreflexive, at most m-1 entries each). Only "equal_probability"
    reads neighbor sets; the other kinds refuse them.
    """
    if neighbors is not None and kind in ("cyclic", "uniform_random"):
        raise InvalidNeighborsError(f"{kind} reads no neighbor sets")
    if kind == "cyclic":
        mat = np.zeros((m, m))
        mat[np.arange(m - 1), np.arange(1, m)] = 1.0
        mat[m - 1, 0] = 1.0
        init = np.zeros(m)
        init[0] = 1.0
    elif kind == "uniform_random":
        mat = np.full((m, m), 1.0 / m)
        init = np.full(m, 1.0 / m)
    elif kind == "equal_probability":
        if neighbors is None:
            raise InvalidNeighborsError("equal_probability needs neighbor sets")
        sets = [sorted(set(int(v) for v in group)) for group in neighbors]
        if len(sets) != m:
            raise InvalidNeighborsError(
                f"need one neighbor set per state, got {len(sets)} for m = {m}"
            )
        mat = np.zeros((m, m))
        for i, group in enumerate(sets):
            if i in group:
                raise InvalidNeighborsError(f"state {i + 1} lists itself as a neighbor")
            if any(j < 0 or j >= m for j in group):
                raise InvalidNeighborsError(f"state {i + 1} lists an out-of-range neighbor")
            for j in group:
                mat[i, j] = 1.0 / m
            mat[i, i] = 1.0 - len(group) / m
        init = np.full(m, 1.0 / m)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return markov.validate_stochastic(mat), init


def thin_trace(trace: Trace, stride: int) -> Trace:
    """Keep every stride-th recorded row plus the first and last."""
    stride = markov._check_count(stride, "stride", 1)
    keep = (trace.k % stride == 0) | (trace.k == trace.k[-1])
    idx = np.flatnonzero(keep)
    return replace(
        trace,
        k=trace.k[idx],
        f=trace.f[idx],
        best_f=trace.best_f[idx],
        lam=trace.lam[idx],
        states=trace.states[idx],
    )


def write_trace_csv(trace: Trace, path) -> None:
    """Emit the recorded rows; floats use repr so parsing is lossless.

    The bytes are what csv.writer writes for these rows (no field needs
    quoting, and lines end in CRLF). A one-trace call of the writer that
    run_suite calls once per batch.
    """
    _write_trace_csvs([trace], [path])


def _repr_runs(values: np.ndarray, prefix: str, suffix: str) -> list[str]:
    """prefix + repr + suffix of each value, formatted once per run of equal bits."""
    bits = values.view(np.int64)
    starts = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    texts = [f"{prefix}{v!r}{suffix}" for v in values[starts].tolist()]
    return [texts[i] for i in (np.cumsum(starts) - 1).tolist()]


def _write_trace_csvs(traces, paths) -> None:
    """Write each trace to its path, as write_trace_csv does, in one pass.

    The files are written side by side in slices of CSV_CHUNK rows, so
    memory stays flat for long traces. Traces that share their k and
    lam arrays, as the traces of one batch do, share the formatted text
    of those columns. Each run of equal best_f (and lam) values is
    formatted once, and state labels are looked up in a table of m
    strings, one per state.
    """
    m = max((int(t.states.max()) + 1 for t in traces if t.states.size), default=0)
    # a row's label: a `mid` entry for each chain but the last, whose `last` entry ends the row
    mid = [f"{s}|" for s in range(1, m + 1)]
    last = [f"{s}\r\n" for s in range(1, m + 1)]
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="utf-8", newline="")) for p in paths]
        for fh in files:
            fh.write("k,f,best_f,lambda,states\r\n")
        for start in range(0, max(map(len, traces), default=0), CSV_CHUNK):
            rows = slice(start, start + CSV_CHUNK)
            shared = {}
            for trace, fh in zip(traces, files):
                key = (id(trace.k), id(trace.lam))
                if key not in shared:
                    shared[key] = (
                        [f"{k}," for k in trace.k[rows].tolist()],
                        _repr_runs(trace.lam[rows], ",", ","),
                    )
                ks, lams = shared[key]
                *heads, tail = trace.states[rows].T.tolist()
                columns = [map(mid.__getitem__, col) for col in heads]
                fh.write(
                    "".join(
                        itertools.chain.from_iterable(
                            zip(
                                ks,
                                map(repr, trace.f[rows].tolist()),
                                _repr_runs(trace.best_f[rows], ",", ""),
                                lams,
                                *columns,
                                map(last.__getitem__, tail),
                            )
                        )
                    )
                )


def parse_trace_csv(path) -> dict:
    """Read a trace CSV back into columnar arrays (states 0-based again).

    A malformed row raises ValueError naming the file and the line.
    """
    ks, fs, bests, lams, states = [], [], [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != ["k", "f", "best_f", "lambda", "states"]:
            raise ValueError(f"trace file {path}: unexpected header {header!r}")
        for row in reader:
            try:
                k, f, best_f, lam, labels = row
                ks.append(int(k))
                fs.append(float(f))
                bests.append(float(best_f))
                lams.append(float(lam))
                states.append([int(tok) - 1 for tok in labels.split("|")])
            except ValueError as exc:
                raise ValueError(f"trace file {path}, line {reader.line_num}: {exc}") from None
    return {
        "k": np.asarray(ks, dtype=np.int64),
        "f": np.asarray(fs),
        "best_f": np.asarray(bests),
        "lam": np.asarray(lams),
        "states": np.asarray(states, dtype=np.int64),
    }
