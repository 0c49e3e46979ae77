"""Record, or check, SHA-256 digests of chainopt's results, bit for bit.

Writes GOLDEN.json at the repository root: one digest per case, plus the
build that produced them (numpy, its BLAS, the CPU features numpy
dispatches on, the machine and Python). The cases are

- every Trace field (wall time aside) of m1-m4 x tests 1-6 x seeds 0-2
  at 4097 iterations, at strides 1, 7 and the budget, of m1 and m3 x
  tests 1, 2 and 5 x seeds 0-2 at stride 7 with the study problem's
  components wrapped as user components (tests/conftest.py's PlainAbs),
  and of network-walk's two runs with user components (seed 7);
- the 24 trace CSVs and 8 summaries of run_suite (seeds 0-2, 2e4
  iterations; timing fields dropped from the summaries);
- the bytes write_matrix_text writes for network-walk's 11 chains
  (seed 7), and the CLI's decompose, weights and decay output on them,
  and three `chainopt run` summaries;
- decompose, the Cesaro limit, weights_from_chains, power_limit and
  decay_diagnostic on the 7- and 9-state fixtures and on 300 random
  1-8-state chains with zero entries;
- make_chain starts and walk draws on the study chain, the three
  baselines, ring-100 and the 300 random chains.

`--check` recomputes every case and names each one whose digest
differs. Digests are only comparable within one build: BLAS kernels may
round differently by library and CPU, so on another build the check
reports "not comparable" and exits 2, never a pass. Runs in well under
a minute with one BLAS thread, which the script sets itself.

    python3 scripts/golden.py            # write GOLDEN.json
    python3 scripts/golden.py --check    # exit 0 clean, 1 differs, 2 not comparable
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "GOLDEN.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from chainopt import harness, markov, optimizer  # noqa: E402
from chainopt.problems import weights_from_chains  # noqa: E402

import network  # noqa: E402  (perfbench's generated chains)
from common import run_cli  # noqa: E402
from conftest import NINE_STATE_ROWS, NINE_STATE_STARTS, plain_abs_problem  # noqa: E402

TRACE_BUDGET = 4097
SUITE_BUDGET = 20_000
SEEDS = (0, 1, 2)
RANDOM_CHAINS = 300
WALK_STEPS = 20_000
STARTS = 2_000
# summary fields that hold timings, dropped before hashing
TIMING_FIELDS = ("wall_time_s", "ns_per_iteration", "ns_per_iteration_mean", "suite_wall_time_s")


def build() -> dict:
    """What the digests depend on besides the code: numpy, BLAS, CPU, Python."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        features = sorted(k for k, on in __cpu_features__.items() if on)
    except ImportError:
        features = None
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip(),
        "cpu_features": features,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def digest(*parts) -> str:
    """SHA-256 over each part: arrays by dtype, shape and bytes, the rest by repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def outcome(fn, *args):
    """fn(*args), or the name and message of the MarkovError or ValueError it raises."""
    try:
        return fn(*args)
    except (markov.MarkovError, ValueError) as exc:
        return f"raises {type(exc).__name__}: {exc}"


def trace_digest(trace) -> str:
    return digest(
        trace.k, trace.f, trace.best_f, trace.lam, trace.states, trace.final_x,
        trace.best_x, trace.best_k, trace.max_subgradient_norm, trace.crossings,
    )


def trace_cases(cases: dict) -> None:
    for method in harness.METHODS:
        for test in harness.TESTS:
            for stride in (1, 7, TRACE_BUDGET):
                configs = [
                    harness.build_experiment(method, test, seed=s, budget=TRACE_BUDGET, stride=stride)
                    for s in SEEDS
                ]
                for seed, trace in zip(SEEDS, optimizer.run_batch(configs)):
                    cases[f"trace/{method}/test{test}/seed{seed}/stride{stride}"] = trace_digest(trace)


def oracle_cases(cases: dict) -> None:
    """The study problem through the oracle path: noise, a subgradient scale and S = 3."""
    for method in ("m1", "m3"):
        for test in (1, 2, 5):
            configs = [
                harness.build_experiment(method, test, seed=s, budget=TRACE_BUDGET, stride=7)
                for s in SEEDS
            ]
            problem = plain_abs_problem(configs[0].problem)
            configs = [replace(config, problem=problem) for config in configs]
            for seed, trace in zip(SEEDS, optimizer.run_batch(configs)):
                cases[f"trace/oracle/{method}/test{test}/seed{seed}"] = trace_digest(trace)


def suite_cases(cases: dict, out: Path) -> None:
    for method in harness.METHODS:
        for test in (1, 5):
            summary = harness.run_suite(
                harness.ExperimentSpec(method, test, SEEDS, budget=SUITE_BUDGET, out=str(out))
            )
            for entry in summary["per_seed"]:
                name = entry["trace_csv"]
                cases[f"suite/{name}"] = digest((out / name).read_bytes())
            cases[f"suite/{method}_test{test}_summary"] = digest(json.dumps(untimed(summary), sort_keys=True))


def untimed(value):
    if isinstance(value, dict):
        return {k: untimed(v) for k, v in value.items() if k not in TIMING_FIELDS}
    if isinstance(value, list):
        return [untimed(v) for v in value]
    return value


def network_cases(cases: dict, work: Path) -> list:
    """Matrix files, CLI output and user-component runs on network-walk's chains; returns the chains."""
    nw = network.NetworkWalk(7, work)
    for net in nw.nets:
        cases[f"file/{net.name}"] = digest(Path(nw.files[net.name][0]).read_bytes())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for net in nw.nets:
            for command, argv in nw.commands(net):
                code, out, err = run_cli(argv)
                cases[f"cli/{net.name}/{command}"] = digest(code, out, err.replace(str(work), "<dir>"))
    for name, case in nw.runs.items():
        cases[f"trace/network/{name}"] = trace_digest(optimizer.run(case.config))
    for label, extra in (
        ("m1-test1", ["--method", "m1", "--test", "1"]),
        ("m2-test5", ["--method", "m2", "--test", "5", "--schedule", "constant"]),
        ("m3-test3", ["--method", "m3", "--test", "3", "--a", "1.5"]),
    ):
        out = work / f"run-{label}"
        code, stdout, _ = run_cli(["run", *extra, "--budget", "3000", "--seeds", "0,1", "--out", str(out)])
        report = json.loads(stdout)
        del report["out"]  # the temporary directory
        cases[f"cli/run/{label}"] = digest(code, json.dumps(report, sort_keys=True))
        summary = next(out.glob("*_summary.json"))
        cases[f"cli/run/{label}/summary"] = digest(
            json.dumps(untimed(json.loads(summary.read_text())), sort_keys=True)
        )
    return nw.nets


def random_chains():
    rng = np.random.default_rng(20210)
    for _ in range(RANDOM_CHAINS):
        m = int(rng.integers(1, 9))
        weights = rng.integers(0, 10, (m, m)) * (rng.random((m, m)) < 0.6)
        for i in np.flatnonzero(weights.sum(axis=1) == 0):
            weights[i, rng.integers(m)] = 1
        yield weights / weights.sum(axis=1, keepdims=True)


def analysis_digest(P, inits) -> str:
    decomp = markov.decompose(P)
    return digest(
        json.dumps(markov.decomposition_report(decomp), sort_keys=True),
        outcome(lambda: decomp.cesaro),
        outcome(weights_from_chains, inits, decomp),
        outcome(markov.power_limit, P, decomp.delta),
        outcome(lambda: json.dumps(asdict(harness.decay_diagnostic(P)), sort_keys=True)),
    )


def draws_digest(P, init, seed: int) -> str:
    """STARTS make_chain draws from one stream, then a walk from the last start."""
    rng = np.random.default_rng(seed)
    starts = np.array([markov.make_chain(P, init, rng).current for _ in range(STARTS)])
    chain = markov.make_chain(P, init, rng)
    return digest(starts, markov.walk(chain, P, WALK_STEPS), chain.current)


def chain_cases(cases: dict, nets: list) -> None:
    fixtures = {
        "study-7": (harness.study_matrix(), list(harness.study_chain_starts())),
        "nine-state": (markov.validate_stochastic(NINE_STATE_ROWS), NINE_STATE_STARTS),
    }
    for name, (P, inits) in fixtures.items():
        cases[f"limits/{name}"] = analysis_digest(P, inits)
    for i, mat in enumerate(random_chains()):
        P = markov.validate_stochastic(mat)
        uniform = np.full(P.m, 1.0 / P.m)
        cases[f"limits/random-{i:03d}"] = analysis_digest(P, [uniform, np.eye(P.m)[0]])
        cases[f"draws/random-{i:03d}"] = draws_digest(P, uniform, i)
    cases["draws/study-7"] = draws_digest(harness.study_matrix(), np.full(7, 1.0 / 7), 1)
    for kind, neighbors in (
        ("equal_probability", harness.NEIGHBOR_SETS),
        ("cyclic", None),
        ("uniform_random", None),
    ):
        P, init = optimizer.make_baseline(kind, 7, neighbors)
        cases[f"draws/{kind}"] = draws_digest(P, init, 2)
    ring = next(net for net in nets if net.name == "ring-100")
    cases["draws/ring-100"] = draws_digest(markov.validate_stochastic(ring.matrix), ring.inits[0], 3)


def compute() -> dict:
    cases: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trace_cases(cases)
        oracle_cases(cases)
        suite_cases(cases, work / "suite")
        nets = network_cases(cases, work / "network")
    chain_cases(cases, nets)
    return dict(sorted(cases.items()))


def check() -> int:
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = build()
    if recorded["build"] != here:
        for key in here:
            if recorded["build"].get(key) != here[key]:
                print(f"{key}: recorded {recorded['build'].get(key)!r}, here {here[key]!r}")
        print("not comparable: GOLDEN.json was written by another build; regenerate it at the parent commit")
        return 2
    cases = compute()
    bad = 0
    for name in sorted(set(recorded["cases"]) | set(cases)):
        want, got = recorded["cases"].get(name), cases.get(name)
        if want != got:
            bad += 1
            print(f"differs: {name}" if want and got else f"{'missing' if want else 'new'}: {name}")
    if bad:
        print(f"{bad} of {len(recorded['cases'])} cases differ")
        return 1
    print(f"clean: all {len(cases)} cases match")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare against GOLDEN.json")
    args = parser.parse_args()
    if args.check:
        return check()
    cases = compute()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"build": build(), "cases": cases}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
