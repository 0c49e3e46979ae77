"""Self-test: every correctness check passes the program's real output and
trips on a wrong answer.

    python3 perfbench/selftest.py

Run from the root of a checkout. Takes about 12 seconds; writes only
under .perfbench_out/ and removes it. Exits 1 if any check fails to
trip (or trips on a right answer).
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import warnings
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

run.import_chainopt()

import numpy as np  # noqa: E402

from chainopt import harness, optimizer  # noqa: E402

import checks  # noqa: E402
import longrun  # noqa: E402
import network  # noqa: E402
import study  # noqa: E402
from common import run_cli  # noqa: E402

RESULTS = []


def expect(label: str, check, should_pass: bool) -> None:
    try:
        check()
        passed, why = True, ""
    except checks.CheckError as exc:
        passed, why = False, f" ({exc})"
    ok = passed == should_pass
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {'passes' if passed else 'trips'}{why}")


def study_checks(out: Path) -> None:
    suite = study.StudySuite(0, out)
    cell = "m1_t5"
    harness.run_suite(suite.spec(cell))
    expect("study summary and CSVs as written", lambda: suite.check_cell(cell), True)
    summary_path = out / "study" / cell / "m1_test5_summary.json"
    original = summary_path.read_text()
    shifted = json.loads(original)
    shifted["per_seed"][0]["best_f"] *= 1.0 + 1e-12
    summary_path.write_text(json.dumps(shifted))
    expect("study summary with a shifted best_f", lambda: suite.check_cell(cell), False)
    summary_path.write_text(original)

    csv_path = out / "study" / cell / shifted["per_seed"][1]["trace_csv"]
    lines = csv_path.read_text().splitlines()
    k, f, best, lam, states = lines[-1].split(",")
    lines[-1] = ",".join([k, f, repr(float(best) * 2.0), lam, states])
    csv_path.write_text("\n".join(lines) + "\n")
    expect("study CSV whose best_f rises at the end", lambda: suite.check_cell(cell), False)

    seed = suite.seeds[0]
    trace = optimizer.run(harness.build_experiment("m1", 5, seed=seed, budget=study.BUDGET))
    harness.run_suite(suite.spec(cell))
    expect("study rerun at best_x", lambda: suite.check_trace(cell, seed, trace), True)
    moved = copy.copy(trace)
    moved.best_x = trace.best_x + 1e-6
    expect("study best_x moved by 1e-6", lambda: suite.check_trace(cell, seed, moved), False)
    outside = copy.copy(trace)
    outside.best_x = trace.best_x.copy()
    outside.best_x[0] = suite.box.upper[0] + 1.0
    expect("study best_x outside the box", lambda: suite.check_trace(cell, seed, outside), False)
    one_side = copy.copy(trace)
    one_side.states = trace.states[::2]  # what an even CSV stride shows of m1's period-2 class
    expect("study visits at an even stride", lambda: suite.check_trace(cell, seed, one_side), False)

def long_checks(out: Path) -> None:
    longrun.BUDGET = 2_000
    case = longrun.LongHorizon(0, out)
    trace = optimizer.run(case.config())
    optimizer.write_trace_csv(optimizer.thin_trace(trace, longrun.CSV_STRIDE), case.csv)
    expect("long run as returned", lambda: case.check(trace), True)
    wrong = copy.copy(trace)
    wrong.f = trace.f.copy()
    wrong.f[-1] *= 1.0 + 1e-6
    expect("long run with f(final_x) off by 1e-6", lambda: case.check(wrong), False)


def network_checks(out: Path) -> None:
    walk = network.NetworkWalk(0, out)
    nets = {net.name: net for net in walk.nets}
    for name in ("classes-700", "bipartite-100", "blocks-100"):
        net = nets[name]
        for command, argv in walk.commands(net):
            output = run_cli(argv)
            expect(f"{name} {command} as printed", lambda: network.check_cli(net, command, output), True)
            code, text, err = output
            report = json.loads(text)
            if command == "weights":
                report["per_chain"][0][net.classes[0][0]] += 1e-6  # a perturbed Cesaro row
            elif command == "decompose":
                report["periods"][-1] += 1
            else:
                report["matrix"]["beta_hat"] *= 1.0 + 1e-4
            bad = (code, json.dumps(report), err)
            expect(f"{name} {command} with a wrong answer", lambda: network.check_cli(net, command, bad), False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name in ("weak-two-1e-4", "weak-blocks-1e-6", "weak-blocks-1e-12"):
            net = nets[name]
            _, argv = list(walk.commands(net))[1]
            output = run_cli(argv)
            known = (name, "weights") in network.KNOWN_FAULTS
            expect(f"{name} weights ({'known fault' if known else 'right today'})",
                   lambda: network.check_cli(net, "weights", output), not known)
        result = walk.round(None)
    expect(f"network round fails exactly the known faults ({result.failed} of {result.attempted})",
           lambda: checks.require(result.failed == len(network.KNOWN_FAULTS) and not result.errors, "count"), True)

    case = walk.runs["ring-100"]
    trace = optimizer.run(case.config)
    expect("network run as returned", lambda: case.check(trace), True)
    shifted = copy.copy(trace)
    shifted.best_f = trace.best_f.copy()
    shifted.best_f[-1] *= 1.0 - 1e-6
    expect("network run with a shifted best_f", lambda: case.check(shifted), False)
    half = np.zeros(case.law.size)
    half[: half.size // 2] = 2.0 / half.size
    expect("network visits against a law on half the states",
           lambda: checks.check_visits("half", trace.states[1:], half), False)


def law_checks() -> None:
    P = np.asarray(harness.SELECTION_ROWS)
    law = checks.start_law(P, 0)
    expect("own stationary law solves pi P = pi", lambda: checks.require(np.allclose(law @ P, law), "pi P != pi"), True)
    rng = np.random.default_rng(0)
    draws = rng.choice(P.shape[0], 20_000, p=law)
    expect("iid visits against their law", lambda: checks.check_visits("iid", draws, law), True)
    tilted = law.copy()
    tilted[0] += 0.1
    tilted[1] -= 0.1
    expect("iid visits against a tilted law", lambda: checks.check_visits("iid", draws, tilted), False)


def main() -> int:
    out = run.ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    try:
        law_checks()
        study_checks(out)
        long_checks(out)
        network_checks(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if out.parent.is_dir() and not any(out.parent.iterdir()):
            out.parent.rmdir()
    print(f"{sum(RESULTS)}/{len(RESULTS)} as expected")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
