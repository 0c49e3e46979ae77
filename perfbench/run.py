"""Benchmark of chainopt: three workloads, end-to-end metrics or a traced pass.

    python3 perfbench/run.py --workload study-suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: chainopt is imported from
./src, never from an installed copy. The workload's inputs are made
from --seed. Whole rounds of the workload's operations are repeated
until --seconds have passed; every output is checked against values
computed apart from chainopt. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates traced and untraced rounds and reports the
per-layer metrics from the traced ones, plus the tracing overhead.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: with two, decompose on 300-900 states spreads twice as
# wide from run to run on a 2-core host. Must be set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path.cwd()
SETUP_REPEATS = 3
# per-operation medians need more than one round; --trace 1 needs a traced and an untraced one
MIN_ROUNDS = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="chainopt benchmark")
    parser.add_argument("--workload", required=True, choices=["study-suite", "long-horizon", "network-walk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_chainopt():
    """Put ./src first on the path and import the workloads from it."""
    src = ROOT / "src"
    if not (src / "chainopt" / "__init__.py").is_file():
        sys.exit(f"error: no chainopt sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import chainopt
    import longrun
    import network
    import study

    if Path(chainopt.__file__).resolve().parent != (src / "chainopt").resolve():
        sys.exit(f"error: chainopt imported from {chainopt.__file__}, not from {src}")
    return {
        "study-suite": study.StudySuite,
        "long-horizon": longrun.LongHorizon,
        "network-walk": network.NetworkWalk,
    }


def per_layer(tracer, study_cells) -> dict:
    """The per-layer metrics of one traced round, as {name: (value, unit)}."""
    cells = study_cells + ("long", "network")
    t, c = tracer.total, tracer.counts

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    walk_noise = {cell: c.get(f"walk_noise_s.{cell}", 0.0) for cell in cells}
    out = {
        "markov.walk_ns_per_step": (per(t("markov.walk"), c["markov.chain_steps"], 1e9), "ns"),
        "markov.chain_steps": (c["markov.chain_steps"], "count"),
        "markov.decompose_s": (t("markov.decompose"), "s"),
        "markov.cesaro_limit_s": (t("markov.cesaro_limit"), "s"),
        "markov.power_limit_s": (t("markov.power_limit"), "s"),
        "markov.read_matrix_text_s": (t("markov.read_matrix_text"), "s"),
        "markov.states_analysed": (c["markov.states_analysed"], "count"),
        "problems.noise_block_ns_per_row": (per(t("problems.noise_block"), c["problems.noise_rows"], 1e9), "ns"),
        "problems.objective_us": (per(t("problems.objective"), c["problems.objective_calls"], 1e6), "us"),
        "problems.subgradient_ns": (per(t("problems.subgradient"), c["problems.subgradient_calls"], 1e9), "ns"),
        "problems.project_ns": (per(t("problems.project"), c["problems.project_calls"], 1e9), "ns"),
        "problems.weights_from_chains_s": (t("problems.weights_from_chains"), "s"),
    }
    for cell in cells:
        run_s, iters = t(f"optimizer.run.{cell}"), c[f"optimizer.iters.{cell}"]
        out[f"optimizer.run_ns_per_iter.{cell}"] = (per(run_s, iters, 1e9), "ns")
        out[f"optimizer.loop_ns_per_iter.{cell}"] = (per(run_s - walk_noise[cell], iters, 1e9), "ns")
    out.update({
        "optimizer.run_rss_delta_mb": (c["optimizer.run_rss_delta_mb"], "MB"),
        "optimizer.trace_bytes": (c["optimizer.trace_bytes"], "bytes"),
        "optimizer.write_trace_csv_s": (t("optimizer.write_trace_csv"), "s"),
        "optimizer.csv_bytes": (c["optimizer.csv_bytes"], "bytes"),
        "harness.build_experiment_s": (t("harness.build_experiment"), "s"),
    })
    for cell in study_cells:
        out[f"harness.run_suite_s.{cell}"] = (t(f"harness.run_suite.{cell}"), "s")
    cli_s = t("cli.decompose") + t("cli.weights") + t("cli.decay")
    out.update({
        "harness.suite_overhead_s": (c["harness.suite_overhead_s"], "s"),
        "harness.decay_diagnostic_s": (t("harness.decay_diagnostic"), "s"),
        "cli.decompose_s": (t("cli.decompose"), "s"),
        "cli.weights_s": (t("cli.weights"), "s"),
        "cli.decay_s": (t("cli.decay"), "s"),
        "cli.overhead_s": (cli_s - c["cli.library_s"], "s"),
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_chainopt()
    from common import Tracer, host_probe_s, maxrss_mb, median
    from study import CELLS

    imports_s = time.perf_counter() - STARTED
    out = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = workloads[args.workload](args.seed, out)
            workload.warm_up()
            setups.append(time.perf_counter() - start)

        rounds = []  # (traced, RoundResult, Tracer or None)
        probes = []
        start = time.perf_counter()
        while True:
            tracer = Tracer() if args.trace and len(rounds) % 2 == 0 else None
            rounds.append((tracer is not None, workload.round(tracer), tracer))
            if len(rounds) == 1:
                # Later rounds add allocator fragmentation that depends on how
                # many rounds fit in --seconds; one pass over every operation
                # is the peak a user of the workload sees.
                peak_rss = maxrss_mb()
            probes.append(host_probe_s())
            elapsed = time.perf_counter() - start
            # Stop before a round that would end past --seconds: a study-suite
            # round takes about a third of a run.
            if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        errors = [e for _, r, _ in rounds for e in r.errors]
        if not args.trace:
            # a traced round already reruns and checks every operation
            errors += getattr(workload, "verify", list)()
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if out.parent.is_dir() and not any(out.parent.iterdir()):
            out.parent.rmdir()

    plain = [r for traced, r, _ in rounds if not traced]
    if args.trace:
        layers = [per_layer(tr, CELLS) for traced, _, tr in rounds if traced]
        metrics = {}
        for name, (_, unit) in layers[0].items():
            values = [layer[name][0] for layer in layers]
            # peak RSS only grows in the first traced round; later ones read 0
            value = max(values) if name == "optimizer.run_rss_delta_mb" else median(values)
            metrics[name] = {"value": value, "unit": unit}
        traced_wall = median([r.body_s for traced, r, _ in rounds if traced])
        plain_wall = median([r.body_s for r in plain])
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_wall / plain_wall - 1.0), "unit": "%"}
        metrics["host.probe_ms"] = {"value": 1e3 * median(probes), "unit": "ms"}
    else:
        # Each operation's median over the rounds, summed: a burst of load
        # on the host moves one operation in one round, not the result.
        op_s = {name: median([r.ops[name] for r in plain]) for name in plain[0].ops}
        optimizer_s = sum(op_s[name] for name in plain[0].optimizer_ops)
        metrics = {
            "setup_s": {"value": imports_s + median(setups), "unit": "s"},
            "wall_s": {"value": sum(op_s.values()), "unit": "s"},
            "iters_per_s": {"value": plain[0].iterations / optimizer_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    print(f"host probe: {1e3 * median(probes):.1f} ms, median of {len(probes)} rounds", file=sys.stderr)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for _, r, _ in rounds),
        "failed": sum(r.failed for _, r, _ in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
