"""Timing, tracing and process helpers shared by the workloads."""

from __future__ import annotations

import contextlib
import io
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from chainopt import cli, markov, optimizer, problems

PROBE_STEPS = 10_000


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


class Tracer:
    """Spans recorded from the benchmark's side of each call into chainopt.

    A span is (name, start, end). Spans stay in memory; each traced
    round folds its own spans into totals per name.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called `name`, from span index `since` on."""
        return sum(end - start for n, start, end in self.spans[since:] if n == name)

    def last(self) -> float:
        _, start, end = self.spans[-1]
        return end - start


def host_probe_s() -> float:
    """Time a fixed kernel that calls nothing in chainopt.

    It has the shape of the study's inner loop (a Python loop over small
    numpy products, a sign and a clip), so a change of host speed moves
    it as it moves the workloads. Between two sets of runs of identical
    code it moves only with the host; a comparison in which it moves by
    more than a metric's bound cannot resolve that metric.
    """
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 20))
    b = A @ rng.uniform(-0.5, 0.5, 20)
    x = np.zeros(20)
    start = time.perf_counter()
    for _ in range(PROBE_STEPS):
        g = A.T @ np.sign(A @ x - b)
        x = np.clip(x - 1e-3 * g, -1.0, 1.0)
    return time.perf_counter() - start


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def run_cli(argv):
    """Call `chainopt.cli.main` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def trace_bytes(trace) -> int:
    """Bytes held by the arrays of a returned Trace."""
    arrays = (trace.k, trace.f, trace.best_f, trace.lam, trace.states, trace.final_x, trace.best_x)
    return int(sum(a.nbytes for a in arrays))


def replay_analysis(tracer: Tracer, config) -> None:
    """The chain analysis build_experiment does: decompose (and its two limits), weights."""
    decomp = tracer.call("markov.decompose", markov.decompose, config.matrix)
    tracer.call("markov.cesaro_limit", markov.cesaro_limit, config.matrix, decomp.classes, decomp.transient)
    tracer.call("markov.power_limit", markov.power_limit, config.matrix, decomp.delta)
    tracer.count("markov.states_analysed", config.matrix.m)
    tracer.call(
        "problems.weights_from_chains",
        problems.weights_from_chains, [c.init_dist for c in config.chains], decomp,
    )


def replay_walk(tracer: Tracer, config, cell: str) -> None:
    """Walk every chain of `config` for its budget, as run() does up front."""
    for runtime in optimizer.start_chains(config):
        tracer.call("markov.walk", markov.walk, runtime.state, config.matrix, config.budget)
        tracer.count("markov.chain_steps", config.budget)
        tracer.count(f"walk_noise_s.{cell}", tracer.last())


def replay_noise(tracer: Tracer, config, cell: str) -> None:
    """Draw every noise block of `config`, as run() does, from fresh streams."""
    if config.noise.kind == "zero":
        return
    K, n = config.budget, config.problem.n
    for runtime in optimizer.start_chains(config):
        for first in range(0, K, optimizer.NOISE_BLOCK):
            count = min(optimizer.NOISE_BLOCK, K - first)
            tracer.call(
                "problems.noise_block",
                problems.sample_noise_block, config.noise, first + 1, count, runtime.noise_rng, n,
            )
            tracer.count("problems.noise_rows", count)
            tracer.count(f"walk_noise_s.{cell}", tracer.last())


def run_traced(tracer: Tracer | None, config, cell: str):
    """run(config), with a span and an iteration count when traced."""
    if tracer is None:
        return optimizer.run(config)
    trace = tracer.call(f"optimizer.run.{cell}", optimizer.run, config)
    tracer.count(f"optimizer.iters.{cell}", config.budget)
    tracer.count("optimizer.trace_bytes", trace_bytes(trace))
    return trace


@dataclass
class RoundResult:
    """One pass over a workload's operations."""

    body_s: float  # wall time of the whole pass, checks excluded
    ops: dict  # seconds of each timed call into chainopt, by a name stable across rounds
    optimizer_ops: tuple  # the names in `ops` that run the optimizer
    iterations: int
    attempted: int
    failed: int
    errors: list = field(default_factory=list)  # failures no known fault explains


class Clock:
    """Wall time of each operation of one round."""

    def __init__(self):
        self.ops: dict[str, float] = {}

    @contextlib.contextmanager
    def op(self, name: str, tracer: Tracer | None = None, optimizer: bool = False):
        """Time one call; a traced call into the optimizer also records its peak-RSS growth."""
        rss = maxrss_mb()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops[name] = time.perf_counter() - start
            if tracer is not None and optimizer:
                tracer.count("optimizer.run_rss_delta_mb", maxrss_mb() - rss)
