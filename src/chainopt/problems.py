"""Convex-sum problem definitions.

A problem is a weighted sum of convex component oracles over a box.
Components expose value(x) and subgradient(x); the absolute-residual
component |a.x - b| ships built in, and anything obeying that small
interface plugs into the optimizer. Also holds the stochastic error
models used to perturb subgradients and the computation of objective
weights from chain limit distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import (
    ChainDecomposition,
    InvalidDistributionError,
    _check_distribution,
    limiting_distribution,
)

__all__ = [
    "Box",
    "L1Component",
    "ConvexSumProblem",
    "NoiseModel",
    "project",
    "objective",
    "sample_noise_block",
    "weights_from_chains",
    "make_l1_problem",
]


def _frozen_copy(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lower <= x <= upper}, the feasible set."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _frozen_copy(self.lower)
        hi = _frozen_copy(self.upper)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(
                f"bounds must be matching vectors, got {lo.shape} and {hi.shape}"
            )
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if (lo > hi).any():
            j = int(np.flatnonzero(lo > hi)[0])
            raise ValueError(
                f"lower bound exceeds upper bound at coordinate {j + 1}: "
                f"{float(lo[j])!r} > {float(hi[j])!r}"
            )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def midpoint(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0


def project(box: Box, x) -> np.ndarray:
    """Euclidean projection onto the box: a componentwise clamp."""
    return np.clip(x, box.lower, box.upper)


@dataclass(frozen=True, eq=False)
class L1Component:
    """Absolute residual |a.x - b| with the sign-based subgradient rule.

    subgradient returns a when the residual is positive, -a when
    negative, and the zero vector at an exact kink. The three results
    are shared read-only arrays, so callers must not mutate them.
    """

    a: np.ndarray
    b: float

    def __post_init__(self):
        vec, b = _frozen_copy(self.a), float(self.b)
        if vec.ndim != 1:
            raise ValueError(f"coefficient row must be a vector, got shape {vec.shape}")
        if not (np.all(np.isfinite(vec)) and np.isfinite(b)):
            raise ValueError(f"coefficient row and offset must be finite, got b = {b!r}")
        object.__setattr__(self, "a", vec)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_neg", _frozen_copy(-vec))
        object.__setattr__(self, "_zero", _frozen_copy(np.zeros_like(vec)))

    def value(self, x) -> float:
        return abs(float(self.a @ x) - self.b)

    def subgradient(self, x) -> np.ndarray:
        residual = float(self.a @ x) - self.b
        if residual > 0.0:
            return self.a
        if residual < 0.0:
            return self._neg
        return self._zero


@dataclass(frozen=True, eq=False)
class ConvexSumProblem:
    """Weighted sum of component oracles over a box.

    weights must form a probability vector; they enter the reported
    objective, while the incremental updates use the raw component
    subgradients (optionally rescaled by the run configuration).
    """

    n: int
    components: tuple
    feasible: Box
    weights: np.ndarray

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("problem needs at least one component")
        object.__setattr__(self, "components", comps)
        try:
            w = _frozen_copy(_check_distribution(self.weights, len(comps)))
        except InvalidDistributionError as exc:
            raise ValueError(f"weights: {exc}") from None
        object.__setattr__(self, "weights", w)
        if self.feasible.dim != self.n:
            raise ValueError(
                f"box dimension {self.feasible.dim} does not match n = {self.n}"
            )

    @property
    def m(self) -> int:
        return len(self.components)


def objective(problem: ConvexSumProblem, x) -> float:
    """Weighted objective sum, accumulated component by component.

    This is the reference evaluation, which the optimizer's oracle
    kernel uses; its L1 kernel's stacked evaluation is tested against it.
    """
    total = 0.0
    for w, comp in zip(problem.weights.tolist(), problem.components):
        total += w * comp.value(x)
    return total


_NOISE_KINDS = ("zero", "uniform_decaying", "uniform_scaled", "normal_scaled")


@dataclass(frozen=True)
class NoiseModel:
    """Per-coordinate i.i.d. subgradient error model.

    kind "zero" adds nothing; "uniform_decaying" draws from U(0, 1/k) at
    iteration k; "uniform_scaled" from scale * U(0, 1); "normal_scaled"
    from scale * N(0, 1). Each coordinate's second moment is at most
    nu_k^2, with nu_k = 0, 1/k, scale and scale for the four kinds; the
    stepsize times nu_k is summable under a diminishing stepsize only
    for the first two. The scaled kinds need a positive finite scale,
    kept as a float; the other two read none and accept only the default
    0.0, kept as +0.0.
    """

    kind: str
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected {_NOISE_KINDS}")
        scaled = self.kind in ("uniform_scaled", "normal_scaled")
        if scaled and not 0.0 < self.scale < np.inf:
            raise ValueError(f"noise kind {self.kind!r} needs a positive finite scale")
        if not scaled and self.scale != 0.0:
            raise ValueError(f"noise kind {self.kind!r} reads no scale, got {self.scale!r}")
        object.__setattr__(self, "scale", float(self.scale) if scaled else 0.0)

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls("zero")

    @classmethod
    def uniform_decaying(cls) -> "NoiseModel":
        return cls("uniform_decaying")

    @classmethod
    def uniform_scaled(cls, scale: float) -> "NoiseModel":
        return cls("uniform_scaled", scale)

    @classmethod
    def normal_scaled(cls, scale: float) -> "NoiseModel":
        return cls("normal_scaled", scale)


def sample_noise_block(
    model: NoiseModel, first_k: int, count: int, rng: np.random.Generator, n: int
) -> np.ndarray:
    """n-vector error draws for iterations first_k .. first_k + count - 1.

    Row t is iteration first_k + t's draw, scaled by 1/k or the model's
    scale. A Generator's batched draws equal its sequential draws, so
    blocks of any size give the same rows bit for bit. The zero model
    consumes no draws, so it never shifts the stream.
    """
    if model.kind == "zero":
        return np.zeros((count, n))
    if model.kind == "uniform_decaying":
        if first_k < 1:
            raise ValueError("uniform_decaying noise needs iteration k >= 1")
        draws = rng.random((count, n))
        inverse_k = 1.0 / np.arange(first_k, first_k + count, dtype=np.float64)
        return draws * inverse_k[:, np.newaxis]
    if model.kind == "uniform_scaled":
        return rng.random((count, n)) * model.scale
    return rng.standard_normal((count, n)) * model.scale


def weights_from_chains(initial_dists, decomp: ChainDecomposition) -> np.ndarray:
    """Objective weights: the average of the chains' limit distributions.

    Each initial distribution is pushed through the Cesaro limit and the
    results are averaged, so transient states carry zero weight and the
    output sums to one.
    """
    dists = list(initial_dists)
    if not dists:
        raise InvalidDistributionError("need at least one chain initial distribution")
    acc = np.zeros(decomp.matrix.m)
    for dist in dists:
        acc += limiting_distribution(dist, decomp)
    return acc / len(dists)


def make_l1_problem(A, b, box: Box, weights) -> ConvexSumProblem:
    """Assemble an absolute-residual problem from a dense coefficient matrix."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError(
            f"need one offset per row, got A shape {A.shape} and b shape {b.shape}"
        )
    comps = tuple(L1Component(A[i], float(b[i])) for i in range(A.shape[0]))
    return ConvexSumProblem(n=A.shape[1], components=comps, feasible=box, weights=weights)
