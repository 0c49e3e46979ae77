"""study-suite: `harness.run_suite` over every method with a quiet and a noisy test.

One operation is one (cell, seed): run_suite runs each seed of a cell,
writes its trace CSV, and then the cell's summary JSON.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from chainopt import harness, optimizer

import checks
from common import Clock, RoundResult, Tracer, replay_analysis, replay_noise, replay_walk, run_traced

METHODS = ("m1", "m2", "m3", "m4")
TESTS = (1, 5)  # zero noise, and normal noise of scale 0.1
CELLS = tuple(f"{m}_t{t}" for m in METHODS for t in TESTS)
# As `scripts/run_study.py --quick`: 3 seeds of 2e4 iterations per cell,
# written to CSV at run_suite's stride of 2.
SEEDS_PER_CELL = 3
BUDGET = 20_000


def study_reference():
    """Problem data, independently computed weights, x0 and f(x0)."""
    A, b, box, _ = harness.study_design()
    P = np.asarray(harness.SELECTION_ROWS, dtype=np.float64)
    first, second = (int(np.argmax(v)) for v in harness.study_chain_starts())
    weights = 0.5 * (checks.start_law(P, first) + checks.start_law(P, second))
    x0 = np.clip(np.zeros(A.shape[1]), box.lower, box.upper)
    return A, b, box, weights, x0


class StudySuite:
    def __init__(self, seed: int, out: Path):
        self.seeds = tuple(SEEDS_PER_CELL * seed + i for i in range(SEEDS_PER_CELL))
        self.out = out / "study"
        self.replay_out = out / "study-replay"
        self.replay_out.mkdir(parents=True, exist_ok=True)
        self.A, self.b, self.box, self.weights, self.x0 = study_reference()
        self.f_x0 = checks.abs_objective(self.A, self.b, self.weights, self.x0)
        uniform = np.full(harness.COMPONENTS, 1.0 / harness.COMPONENTS)
        self.visit_law = {m: (self.weights if m == "m1" else uniform) for m in METHODS}
        self.mixing = {
            m: checks.mixing_factor(harness.build_experiment(m, 1, budget=1).matrix.matrix) for m in METHODS
        }

    def warm_up(self) -> None:
        for method in METHODS:
            harness.run_suite(harness.ExperimentSpec(method, 5, (0,), 200, out=str(self.out / "warm")))

    def spec(self, cell: str) -> harness.ExperimentSpec:
        method, test = cell.split("_t")
        return harness.ExperimentSpec(method, int(test), self.seeds, BUDGET, out=str(self.out / cell))

    def round(self, tracer: Tracer | None) -> RoundResult:
        clock = Clock()
        failed = set()  # (cell, seed) whose checks fail
        errors = []
        start = time.perf_counter()
        for cell in CELLS:
            spec = self.spec(cell)
            since = len(tracer.spans) if tracer else 0
            with clock.op(cell, tracer, optimizer=True):
                if tracer is None:
                    harness.run_suite(spec)
                else:
                    tracer.call(f"harness.run_suite.{cell}", harness.run_suite, spec)
            if tracer is not None:
                errors += self.replay(tracer, cell, since, failed)
        body = time.perf_counter() - start
        for cell in CELLS:
            try:
                self.check_cell(cell)
            except checks.CheckError as exc:
                errors.append(str(exc))
                failed.update((cell, seed) for seed in self.seeds)
        ops = len(CELLS) * len(self.seeds)
        return RoundResult(body, clock.ops, CELLS, ops * BUDGET, ops, len(failed), errors)

    def replay(self, tracer: Tracer, cell: str, since: int, failed: set) -> list:
        """Repeat, one public call at a time, what run_suite did for `cell`."""
        errors = []
        spec = self.spec(cell)
        csv_stride = max(1, spec.budget // 10_000)
        method, test = spec.method, spec.test
        for seed in spec.seeds:
            config = tracer.call(
                "harness.build_experiment", harness.build_experiment, method, test, seed=seed, budget=spec.budget
            )
            replay_analysis(tracer, config)
            trace = run_traced(tracer, config, cell)
            replay_walk(tracer, config, cell)
            replay_noise(tracer, config, cell)
            tracer.call("harness.first_crossings", harness.first_crossings, trace)
            thin = tracer.call("optimizer.thin_trace", optimizer.thin_trace, trace, csv_stride)
            path = self.replay_out / f"{cell}_seed{seed}.csv"
            tracer.call("optimizer.write_trace_csv", optimizer.write_trace_csv, thin, path)
            tracer.count("optimizer.csv_bytes", path.stat().st_size)
            try:
                self.check_trace(cell, seed, trace)
            except checks.CheckError as exc:
                errors.append(str(exc))
                failed.add((cell, seed))
        suite = tracer.total(f"harness.run_suite.{cell}", since)
        parts = ("harness.build_experiment", f"optimizer.run.{cell}", "harness.first_crossings",
                 "optimizer.thin_trace", "optimizer.write_trace_csv")
        tracer.count("harness.suite_overhead_s", suite - sum(tracer.total(p, since) for p in parts))
        return errors

    def summary(self, cell: str) -> dict:
        method, test = cell.split("_t")
        with open(self.out / cell / f"{method}_test{test}_summary.json", encoding="utf-8") as fh:
            return json.load(fh)

    def check_cell(self, cell: str) -> None:
        """Summary JSON and trace CSVs written by run_suite, read back from disk."""
        out = self.out / cell
        summary = self.summary(cell)
        checks.require(summary["seeds"] == list(self.seeds), f"{cell}: summary seeds {summary['seeds']}")
        for entry in summary["per_seed"]:
            name = f"{cell} seed {entry['seed']}"
            rows = checks.read_csv_rows(out / entry["trace_csv"])
            best = [r[2] for r in rows]
            checks.require(rows[-1][0] == BUDGET, f"{name}: CSV ends at k = {rows[-1][0]}")
            checks.require(entry["best_f"] == best[-1], f"{name}: summary best_f {entry['best_f']!r} != CSV {best[-1]!r}")
            checks.check_best_series(name, best, self.f_x0)
        median = float(np.median([e["best_f"] for e in summary["per_seed"]]))
        checks.require(summary["median_best_f"] == median, f"{cell}: median_best_f is not the seeds' median")

    def check_trace(self, cell: str, seed: int, trace) -> None:
        """A rerun of one seed at full resolution, against what run_suite reported for it.

        Its best_f and best_k equal the suite's bit for bit, f at best_k is
        best_f, best_x recomputes to best_f and lies in the box, and the
        visits of every recorded state match the benchmark's own limit law
        (the CSV's even stride sees only one side of m1's period-2 class).
        """
        name = f"{cell} seed {seed}"
        entry = next(e for e in self.summary(cell)["per_seed"] if e["seed"] == seed)
        best_f = float(trace.best_f[-1])
        checks.require(best_f == entry["best_f"], f"{name}: rerun best_f differs from the suite's")
        checks.require(trace.best_k == entry["best_k"], f"{name}: rerun best_k differs from the suite's")
        checks.require(float(trace.f[trace.best_k]) == best_f, f"{name}: f at best_k is not best_f")
        checks.check_value(f"{name} best_f", best_f, checks.abs_objective(self.A, self.b, self.weights, trace.best_x))
        checks.check_in_box(f"{name} best_x", trace.best_x, self.box.lower, self.box.upper)
        method = cell.split("_t")[0]
        checks.check_visits(name, trace.states[1:], self.visit_law[method], self.mixing[method])

    def verify(self) -> list:
        """Rerun every (cell, seed) once after timing, for the checks that need best_x."""
        errors = []
        for cell in CELLS:
            method, test = cell.split("_t")
            for seed in self.seeds:
                config = harness.build_experiment(method, int(test), seed=seed, budget=BUDGET)
                try:
                    self.check_trace(cell, seed, optimizer.run(config))
                except checks.CheckError as exc:
                    errors.append(str(exc))
        return errors
