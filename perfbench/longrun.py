"""long-horizon: one m1 run with a constant stepsize and normal noise.

As in scripts/noise_floor.py: the chain-driven method on the study
problem, test 5 noise, the method's constant stepsize, a long budget
recorded at a stride above 1, then thinned and written to CSV. One
operation is the whole run.
"""

from __future__ import annotations

import time
from pathlib import Path

from chainopt import harness, optimizer

import checks
from common import Clock, RoundResult, Tracer, replay_analysis, replay_noise, replay_walk, run_traced
from study import study_reference

BUDGET = 100_000
STRIDE = 10
CSV_STRIDE = 100
TEST = 5
CELL = "long"


class LongHorizon:
    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.csv = out / "long.csv"
        out.mkdir(parents=True, exist_ok=True)
        self.A, self.b, self.box, self.weights, self.x0 = study_reference()
        self.f_x0 = self.f(self.x0)
        self.schedule = optimizer.ConstantStepsize(harness.CONSTANT_LAMBDA["m1"])

    def config(self, budget: int | None = None):
        return harness.build_experiment(
            "m1", TEST, seed=self.seed, schedule=self.schedule, budget=budget or BUDGET, stride=STRIDE
        )

    def warm_up(self) -> None:
        trace = optimizer.run(self.config(2_000))
        optimizer.write_trace_csv(optimizer.thin_trace(trace, CSV_STRIDE), self.csv)

    def round(self, tracer: Tracer | None) -> RoundResult:
        clock = Clock()
        start = time.perf_counter()
        if tracer is None:
            with clock.op("build"):
                config = self.config()
            with clock.op("run"):
                trace = optimizer.run(config)
            with clock.op("write"):
                optimizer.write_trace_csv(optimizer.thin_trace(trace, CSV_STRIDE), self.csv)
        else:
            config = tracer.call("harness.build_experiment", self.config)
            with clock.op("run", tracer, optimizer=True):
                trace = run_traced(tracer, config, CELL)
            thin = tracer.call("optimizer.thin_trace", optimizer.thin_trace, trace, CSV_STRIDE)
            tracer.call("optimizer.write_trace_csv", optimizer.write_trace_csv, thin, self.csv)
            tracer.count("optimizer.csv_bytes", self.csv.stat().st_size)
            replay_analysis(tracer, config)
            replay_walk(tracer, config, CELL)
            replay_noise(tracer, config, CELL)
        body = time.perf_counter() - start
        try:
            self.check(trace)
            errors = []
        except checks.CheckError as exc:
            errors = [str(exc)]
        return RoundResult(body, clock.ops, ("run",), BUDGET, 1, len(errors), errors)

    def f(self, x) -> float:
        return checks.abs_objective(self.A, self.b, self.weights, x)

    def check(self, trace) -> None:
        checks.require(int(trace.k[-1]) == BUDGET and int(trace.k[1]) == STRIDE, "long: recorded rows misplaced")
        checks.check_value("long final f", float(trace.f[-1]), self.f(trace.final_x))
        checks.check_value("long best_f", float(trace.best_f[-1]), self.f(trace.best_x))
        checks.check_in_box("long final_x", trace.final_x, self.box.lower, self.box.upper)
        checks.check_in_box("long best_x", trace.best_x, self.box.lower, self.box.upper)
        checks.check_best_series("long", trace.best_f, self.f_x0)
        rows = checks.read_csv_rows(self.csv)
        checks.require(rows[-1][2] == float(trace.best_f[-1]), "long: CSV best_f differs from the trace")
