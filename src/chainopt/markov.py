"""Finite Markov chain structure analysis and limit computation.

Decomposes a row-stochastic transition matrix into recurrent classes,
transient states, and class periods. The Cesaro (time-averaged) limit
of the matrix powers, which drives chain-weighted optimization, is
solved on the first read of a decomposition's cesaro, and a failed solve
raises SingularSolveError there. Each dense solve holds one copy of its
class (or transient) block beside the matrix, plus LAPACK's own copy
while it factors. The power limit along multiples of the
global period, a mixing diagnostic, is the Cesaro limit of P^delta,
computed only on request. Also provides seeded trajectory sampling and
the plain-text matrix format: a line holding the state count m, then m
rows of m entries, parsed by numpy in C and written without per-entry
float conversions.

A matrix works out its support (each row's positive columns) once, and
classification, class periods, reachability and sampling all read it.
Sampling bisects a uniform draw in a row's cumulative probabilities over
that support, the last pinned to 1.0, so no step has probability zero.

States are 0-based throughout the in-memory API. Text files, JSON
reports, and error messages use 1-based state labels.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MarkovError",
    "NegativeEntryError",
    "RowSumError",
    "SingularSolveError",
    "NoConvergenceError",
    "InvalidDistributionError",
    "TransitionMatrix",
    "ChainDecomposition",
    "ChainState",
    "validate_stochastic",
    "decompose",
    "cesaro_limit",
    "power_limit",
    "limiting_distribution",
    "make_chain",
    "walk",
    "decomposition_report",
    "read_matrix_text",
    "write_matrix_text",
    "read_distribution_text",
    "ROW_SUM_TOL",
    "SOLVE_RESIDUAL_TOL",
]

ROW_SUM_TOL = 1e-12
SOLVE_RESIDUAL_TOL = 1e-10


class MarkovError(Exception):
    """Base class for chain analysis failures."""


class NegativeEntryError(MarkovError):
    """A transition probability is negative."""

    def __init__(self, row: int, col: int, value: float):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"entry ({row}, {col}) is negative: {value!r}")


class RowSumError(MarkovError):
    """A row of the transition matrix does not sum to one."""

    def __init__(self, row: int, deviation: float):
        self.row = row
        self.deviation = deviation
        super().__init__(f"row {row} sums to 1 {deviation:+.6e}")


class SingularSolveError(MarkovError):
    """A stationary or absorption system is numerically singular."""


class NoConvergenceError(MarkovError):
    """No longer raised: power_limit has no iteration to cap.

    Kept, with its place under MarkovError, for callers that catch it.
    """


class InvalidDistributionError(MarkovError):
    """A vector claimed to be a probability distribution is not one."""


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Validated row-stochastic matrix with support-sized tables built on first use.

    Construct through validate_stochastic; direct construction runs the
    same checks. _support lists each row's positive columns, and every
    graph computation reads it. _cumulative holds each row's cumulative
    probabilities over those columns, the last pinned to 1.0; only walk()
    builds it. Both take memory in proportion to the positive entries.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.float64, order="C")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {mat.shape}")
        if mat.shape[0] < 1:
            raise ValueError("transition matrix must have at least one state")
        if not np.all(np.isfinite(mat)):
            raise ValueError("transition matrix entries must be finite")
        if (mat < 0.0).any():
            i, j = np.argwhere(mat < 0.0)[0]
            raise NegativeEntryError(int(i) + 1, int(j) + 1, float(mat[i, j]))
        deviations = mat.sum(axis=1) - 1.0
        bad = np.flatnonzero(np.abs(deviations) > ROW_SUM_TOL)
        if bad.size:
            raise RowSumError(int(bad[0]) + 1, float(deviations[bad[0]]))
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def _support(self) -> list[list[int]]:
        return [np.flatnonzero(row > 0.0).tolist() for row in self.matrix]

    @cached_property
    def _cumulative(self) -> list[list[float]]:
        return [_cumsum_pinned(row, cols) for row, cols in zip(self.matrix, self._support)]

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def validate_stochastic(raw) -> TransitionMatrix:
    """Check nonnegativity and unit row sums, returning the wrapped matrix.

    Raises NegativeEntryError or RowSumError with 1-based row labels and
    the signed deviation from 1.
    """
    return TransitionMatrix(np.asarray(raw, dtype=np.float64))


def _as_transition(P) -> TransitionMatrix:
    """Accept either a TransitionMatrix or anything validate_stochastic takes."""
    if isinstance(P, TransitionMatrix):
        return P
    return validate_stochastic(P)


def _cumsum_pinned(probs: np.ndarray, cols: list[int]) -> list[float]:
    """Cumulative sums of probs over cols, its positive entries, the last pinned to 1.0.

    A zero entry adds nothing to a running sum, so each value is the full
    vector's cumulative sum at its column. Pinning the last positive entry
    leaves no gap below 1.0 in which a draw could pick a zero entry.
    """
    cum = np.cumsum(probs[cols]).tolist()
    cum[-1] = 1.0
    return cum


@dataclass(frozen=True, eq=False)
class ChainDecomposition:
    """Recurrent classes, periods, transient states, and the Cesaro limit.

    matrix is the validated matrix decomposed. classes are 0-based, each
    sorted ascending, ordered by smallest member. delta is the least
    common multiple of the class periods. cesaro, the limit of averaged
    powers, is solved on first read (raising SingularSolveError if a
    solve fails) and kept read-only. power_limit(P, delta) gives the
    limit of P^delta.
    """

    matrix: TransitionMatrix
    classes: tuple[tuple[int, ...], ...]
    periods: tuple[int, ...]
    transient: tuple[int, ...]
    delta: int

    @cached_property
    def cesaro(self) -> np.ndarray:
        return cesaro_limit(self.matrix, self.classes, self.transient)


def _strongly_connected_components(adj: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan over an adjacency-list digraph."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            row = adj[v]
            for j in range(ei, len(row)):
                w = row[j]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comps


def _levels(adj: list[list[int]], starts) -> dict[int, int]:
    """Breadth-first distance from the nearest start to every state reachable from starts."""
    level = dict.fromkeys(starts, 0)
    frontier = list(level)
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in level:
                    level[w] = level[v] + 1
                    nxt.append(w)
        frontier = nxt
    return level


def _class_period(adj: list[list[int]], members: tuple[int, ...]) -> int:
    """Period of one recurrent class via breadth-first level labels.

    The class is closed, so the search from its first member stays in
    it. The gcd of level(i) + 1 - level(j) over the class's edges equals
    the gcd of its cycle lengths; no cycle enumeration needed.
    """
    level = _levels(adj, members[:1])
    g = 0
    for v in members:
        for w in adj[v]:
            g = math.gcd(g, level[v] + 1 - level[w])
    return g


def decompose(P: TransitionMatrix) -> ChainDecomposition:
    """Classify states: recurrent classes, their periods, transient states.

    A strongly connected component of the support graph is a recurrent
    class exactly when it is closed (no edge leaves it); every other
    state is transient. Class order is deterministic: sorted by smallest
    member state. Nothing is solved: a failed Cesaro solve raises
    SingularSolveError at the first read of the result's cesaro.
    """
    P = _as_transition(P)
    adj = P._support
    classes = []
    transient: list[int] = []
    for comp in _strongly_connected_components(adj):
        member_set = set(comp)
        closed = all(w in member_set for v in comp for w in adj[v])
        if closed:
            classes.append(tuple(sorted(comp)))
        else:
            transient.extend(comp)
    classes.sort(key=lambda c: c[0])
    periods = tuple(_class_period(adj, cls) for cls in classes)
    delta = 1
    for p in periods:
        delta = math.lcm(delta, p)
    return ChainDecomposition(
        matrix=P,
        classes=tuple(classes),
        periods=periods,
        transient=tuple(sorted(transient)),
        delta=delta,
    )


def _stationary_distribution(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 on the recurrent class idx of mat (dense LU).

    The system P_CC^T - I, its last row replaced by ones, is built in one
    gathered copy of the class block; LAPACK takes a second during the
    solve. Once both are freed, the block is gathered again for the residual.
    """
    r = idx.shape[0]
    lhs = mat[np.ix_(idx, idx)].T
    lhs[np.diag_indices(r)] -= 1.0
    lhs[-1, :] = 1.0
    rhs = np.zeros(r)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSolveError(f"stationary system is singular: {exc}") from exc
    del lhs
    sub = mat[np.ix_(idx, idx)]
    residual = float(np.max(np.abs(pi @ sub - pi)))
    if residual > SOLVE_RESIDUAL_TOL or float(pi.min()) < -SOLVE_RESIDUAL_TOL:
        raise SingularSolveError(
            f"stationary solve failed validation (residual {residual:.3e}, "
            f"min mass {float(pi.min()):.3e})"
        )
    return pi


def cesaro_limit(
    P: TransitionMatrix,
    classes: tuple[tuple[int, ...], ...],
    transient: tuple[int, ...],
) -> np.ndarray:
    """Exact limit of averaged matrix powers, built classwise.

    Every row belonging to a recurrent class carries that class's
    stationary distribution. A transient row mixes the class stationary
    distributions with the absorption probabilities obtained from the
    transient-block linear system. Transient columns are zero.

    Each system exists once in memory, beside LAPACK's copy during its
    solve: a class's stationary system is one gathered copy of its block,
    and out is allocated only after those solves. I - P_TT is one gathered
    copy of P_TT, made 0.0 - x off the diagonal and 1.0 - x on it, the
    bits np.eye(t) - P_TT gives (a negation would turn +0.0 into -0.0).
    The result is read-only, as ChainDecomposition keeps it.
    """
    P = _as_transition(P)
    mat = P.matrix
    m = P.m
    stationaries = [_stationary_distribution(mat, np.asarray(cls)) for cls in classes]
    out = np.zeros((m, m))
    for cls, pi in zip(classes, stationaries):
        idx = np.asarray(cls)
        out[np.ix_(idx, idx)] = pi[np.newaxis, :]
    if transient:
        t_idx = np.asarray(transient)
        lhs = mat[np.ix_(t_idx, t_idx)]
        diagonal = 1.0 - lhs.diagonal()
        np.subtract(0.0, lhs, out=lhs)
        np.fill_diagonal(lhs, diagonal)
        for cls, pi in zip(classes, stationaries):
            c_idx = np.asarray(cls)
            hit = mat[np.ix_(t_idx, c_idx)].sum(axis=1)
            try:
                absorb = np.linalg.solve(lhs, hit)
            except np.linalg.LinAlgError as exc:
                raise SingularSolveError(f"absorption system is singular: {exc}") from exc
            residual = float(np.max(np.abs(lhs @ absorb - hit)))
            if residual > SOLVE_RESIDUAL_TOL:
                raise SingularSolveError(
                    f"absorption solve failed validation (residual {residual:.3e})"
                )
            out[np.ix_(t_idx, c_idx)] = absorb[:, np.newaxis] * pi[np.newaxis, :]
    out.flags.writeable = False
    return out


def power_limit(P: TransitionMatrix, delta: int) -> np.ndarray:
    """Limit of P^(delta k) as k grows: the Cesaro limit of P^delta.

    delta must be a multiple of every class period (decompose's delta
    is the least such). P^delta then has the same transient states as
    P, and its recurrent classes are the cyclic subclasses of P's, all
    aperiodic, so its powers converge to its Cesaro limit, which
    cesaro_limit computes exactly. The rows of P^delta are divided by their
    sums first: P's rows may be 1e-12 off, and that slack grows with
    delta past what validation accepts.
    """
    delta = _check_count(delta, "delta", 1)
    block = np.linalg.matrix_power(_as_transition(P).matrix, delta)
    block = block / block.sum(axis=1, keepdims=True)
    return decompose(block).cesaro


def _check_distribution(dist, m: int) -> np.ndarray:
    vec = np.asarray(dist, dtype=np.float64)
    if vec.size == 0:
        raise InvalidDistributionError("distribution is empty")
    if vec.ndim != 1 or vec.shape[0] != m:
        raise InvalidDistributionError(
            f"distribution must be a vector of length {m}, got shape {vec.shape}"
        )
    if not np.all(np.isfinite(vec)):
        raise InvalidDistributionError("distribution entries must be finite")
    if float(vec.min()) < 0.0:
        raise InvalidDistributionError(
            f"distribution has a negative entry: {float(vec.min())!r}"
        )
    dev = float(vec.sum()) - 1.0
    if abs(dev) > ROW_SUM_TOL:
        raise InvalidDistributionError(f"distribution sums to 1 {dev:+.6e}")
    return vec


def _check_count(value, name: str, minimum: int, error=ValueError) -> int:
    """value as an int, if it is an integer (not a bool) of at least minimum; else error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        rule = "a non-negative integer" if minimum == 0 else f"an integer of at least {minimum}"
        raise error(f"{name} must be {rule}, got {value!r}")
    return int(value)


def limiting_distribution(pi0, decomp: ChainDecomposition) -> np.ndarray:
    """Propagate an initial distribution through the Cesaro limit.

    The result is again a probability vector and puts zero mass on every
    transient state.
    """
    vec = _check_distribution(pi0, decomp.matrix.m)
    return vec @ decomp.cesaro


@dataclass
class ChainState:
    """Current state plus the chain's own random stream; walk() advances it."""

    current: int
    rng: np.random.Generator


def make_chain(P: TransitionMatrix, init_dist, rng: np.random.Generator) -> ChainState:
    """Draw the starting state from init_dist using the chain's stream.

    The draw is bisected in init_dist's cumulative probabilities over its
    positive entries, the last pinned to 1.0, as walk() does for a row.
    """
    vec = _check_distribution(init_dist, P.m)
    cols = np.flatnonzero(vec > 0.0).tolist()
    u = rng.random()
    return ChainState(current=cols[bisect_right(_cumsum_pinned(vec, cols), u)], rng=rng)


def walk(chain: ChainState, P: TransitionMatrix, steps: int) -> np.ndarray:
    """Advance `steps` transitions, returning every visited state.

    Each transition bisects one uniform draw in the current row's
    cumulative probabilities over its positive columns, the last pinned
    to 1.0, so no step has probability zero. The draws are taken as one
    batch, which a Generator makes bitwise equal to sequential draws.
    """
    draws = chain.rng.random(steps).tolist()
    cols, cum = P._support, P._cumulative
    s = chain.current
    visited = [s := cols[s][bisect_right(cum[s], u)] for u in draws]
    chain.current = s
    return np.array(visited, dtype=np.int64)


def decomposition_report(decomp: ChainDecomposition) -> dict:
    """JSON-ready decomposition summary with 1-based state labels."""
    return {
        "classes": [[s + 1 for s in cls] for cls in decomp.classes],
        "periods": list(decomp.periods),
        "transient": [s + 1 for s in decomp.transient],
        "delta": decomp.delta,
    }


def read_matrix_text(path) -> TransitionMatrix:
    """Parse the plain-text matrix format: a line with m, then m rows.

    The first line holds the state count m and nothing else. Each of the
    next m lines holds one row: m floats separated by whitespace. Blank
    lines are skipped; comments are not allowed. numpy parses the rows
    in C, without a Python object per entry. Any other
    layout (data on the first line, ragged or missing rows, a `#` or any
    other non-numeric token) raises ValueError naming the file; the
    matrix then goes through validate_stochastic.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        try:
            m = int(header)
        except ValueError:
            raise ValueError(
                f"matrix file {path}: the first line must hold only the state "
                f"count m, got {header.strip()!r}"
            ) from None
        try:
            with warnings.catch_warnings():
                # a file without rows warns; the shape check below rejects it
                warnings.simplefilter("ignore", UserWarning)
                mat = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"matrix file {path}: {exc}") from None
    if mat.shape != (m, m):
        raise ValueError(
            f"matrix file {path} holds {mat.size} entries in {mat.shape[0]} rows, "
            f"expected {m} rows of {m}"
        )
    return validate_stochastic(mat)


def write_matrix_text(P: TransitionMatrix, path) -> None:
    """Write the plain-text matrix format with full round-trip precision.

    Each entry is written as Python's repr of the float, so each +0.0 is
    `0.0`. The cost follows the distinct values, not the cells: every
    run of +0.0 entries is a slice of one "0.0 " * m string, and repr
    runs once per distinct bit pattern among the other entries (the
    positive ones and any -0.0). Apart from the text of one row, the
    temporaries hold a few numbers per such entry.
    """
    m = P.m
    bits = P.matrix.reshape(-1).view(np.int64)
    # +0.0 is the one float whose bits are all zero; -0.0 has the sign bit
    flat = np.flatnonzero(bits)
    patterns, codes = np.unique(bits[flat], return_inverse=True)
    texts = [repr(v) for v in patterns.view(np.float64).tolist()]
    rows, cols = np.divmod(flat, m)
    # every row of a stochastic matrix holds a positive entry, so none is empty
    bounds = np.searchsorted(rows, np.arange(m + 1))
    prev = np.empty_like(cols)
    prev[1:] = cols[:-1]
    prev[bounds[:-1]] = -1
    # characters of "0.0 " * m before each entry, and of " 0.0" * m after a row's last
    gaps = (4 * (cols - prev - 1)).tolist()
    tails = (4 * (m - 1 - cols[bounds[1:] - 1])).tolist()
    codes = codes.tolist()
    bounds = bounds.tolist()
    zeros, trailing = "0.0 " * m, " 0.0" * m
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m}\n")
        fh.writelines(
            " ".join([zeros[:g] + texts[c] for g, c in zip(gaps[a:b], codes[a:b])])
            + trailing[:t]
            + "\n"
            for a, b, t in zip(bounds[:-1], bounds[1:], tails)
        )


def read_distribution_text(path, m: int | None = None) -> np.ndarray:
    """Parse a probability vector of length m (any if None); errors name the file."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        vec = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"distribution file {path}: {exc}") from None
    try:
        return _check_distribution(vec, vec.shape[0] if m is None else m)
    except InvalidDistributionError as exc:
        raise InvalidDistributionError(f"distribution file {path}: {exc}") from None
