"""Correctness checks computed apart from chainopt.

Each check raises `CheckError` on a wrong answer. The reference values
come from plain numpy on the problem data (objective values), from the
benchmark's own chain analysis (reachability closure plus an eigenvector
per class, or the exact laws the generators in `chains` fix), or from
properties every correct run has (a best value that never rises, an
iterate inside the box).
"""

from __future__ import annotations

import csv
import math

import numpy as np

from common import CheckError, require

# Weights and limit laws of well-conditioned chains come out of exact
# solves; 1e-9 is far above their rounding error and far below any
# structural mistake.
LAW_TOL = 1e-9
# Relative agreement demanded of a recomputed objective value.
OBJECTIVE_RTOL = 1e-9
# Visit frequencies from N samples on m states may sit this many
# sqrt(m tau / N) away from the limit law in total variation, where tau
# is the chain's `mixing_factor` (1 for independent draws).
VISIT_TV_SCALE = 3.0
BETA_RTOL = 1e-6


def abs_objective(A, b, w, x) -> float:
    return float(np.dot(w, np.abs(A @ x - b)))


def squared_objective(A, b, w, x) -> float:
    r = A @ x - b
    return float(np.dot(w, 0.5 * r * r))


def check_value(name: str, got: float, want: float) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= OBJECTIVE_RTOL * abs(want) + 1e-15,
        f"{name}: program reports {got!r}, recomputed {want!r}",
    )


def check_best_series(name: str, best_f, f_x0: float) -> None:
    """best-so-far values never rise, stay nonnegative and end below f(x0)."""
    best_f = np.asarray(best_f, dtype=np.float64)
    require(bool(np.all(np.diff(best_f) <= 0.0)), f"{name}: best_f rises")
    require(float(best_f.min()) >= 0.0, f"{name}: best_f is negative")
    require(float(best_f[-1]) < f_x0, f"{name}: best_f {best_f[-1]!r} not below f(x0) {f_x0!r}")


def check_in_box(name: str, x, lower, upper) -> None:
    x = np.asarray(x)
    require(bool(np.all((x >= lower) & (x <= upper))), f"{name}: iterate leaves the box")


def visit_tolerance(m: int, samples: int, mixing: float = 1.0) -> float:
    return VISIT_TV_SCALE * math.sqrt(m * mixing / samples)


def mixing_factor(P) -> float:
    """(1 + l) / (1 - l) for the largest real part l among P's eigenvalues other than 1.

    A visit frequency along a reversible chain has up to this many times
    the variance it would have from independent draws. m2's walk on the
    study's neighbour sets has l = 0.944 (factor 35): over 300 seeds of
    2e4 steps its total variation reached 0.99 of the plain 3 sqrt(m / N).
    """
    values = np.linalg.eigvals(np.asarray(P, dtype=np.float64))
    rest = values.real[np.abs(values - 1.0) > 1e-9]
    lam = float(rest.max()) if rest.size else 0.0
    return max(1.0, (1.0 + lam) / (1.0 - lam))


def check_visits(name: str, states, law, mixing: float = 1.0) -> None:
    """Empirical visit frequencies of the recorded states against a limit law."""
    states = np.asarray(states).ravel()
    law = np.asarray(law, dtype=np.float64)
    freq = np.bincount(states, minlength=law.size) / states.size
    tv = 0.5 * float(np.abs(freq - law).sum())
    tol = visit_tolerance(law.size, states.size, mixing)
    require(tv <= tol, f"{name}: visit frequencies are {tv:.4f} from the limit law (tolerance {tol:.4f})")


def read_csv_rows(path):
    """Trace CSV rows parsed with the csv module: (k, f, best_f, states 0-based)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        require(header == ["k", "f", "best_f", "lambda", "states"], f"{path}: header {header!r}")
        rows = [(int(r[0]), float(r[1]), float(r[2]), [int(s) - 1 for s in r[4].split("|")]) for r in reader]
    require(bool(rows), f"{path}: no rows")
    return rows


def check_laws(name: str, got, want) -> None:
    err = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want))))
    require(err <= LAW_TOL, f"{name}: limit law off by {err:.3e}")


def check_decomposition(name: str, report: dict, classes, periods, transient) -> None:
    want = {
        "classes": [[s + 1 for s in cls] for cls in classes],
        "periods": list(periods),
        "transient": [s + 1 for s in transient],
    }
    for key, value in want.items():
        require(report.get(key) == value, f"{name}: {key} differ from the generator's")


def check_decay(name: str, beta_hat: float, beta: float) -> None:
    require(
        abs(beta_hat - beta) <= BETA_RTOL * beta + 1e-12,
        f"{name}: decay rate {beta_hat!r}, exact {beta!r}",
    )


def closed_classes(P) -> list:
    """Recurrent classes from the boolean reachability closure of P."""
    m = P.shape[0]
    reach = (P > 0.0) | np.eye(m, dtype=bool)
    while True:
        nxt = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    classes = []
    for i in range(m):
        members = np.flatnonzero(reach[i] & reach[:, i])
        closed = np.array_equal(np.flatnonzero(reach[i]), members)
        if closed and members[0] == i:
            classes.append(members.tolist())
    return classes


def stationary_law(P, members) -> np.ndarray:
    """Stationary law of one class: the eigenvector of P^T for eigenvalue 1."""
    sub = P[np.ix_(members, members)]
    values, vectors = np.linalg.eig(sub.T)
    vec = np.real(vectors[:, int(np.argmin(np.abs(values - 1.0)))])
    out = np.zeros(P.shape[0])
    out[members] = vec / vec.sum()
    return out


def start_law(P, start: int) -> np.ndarray:
    """Limit law of a chain started in a recurrent state."""
    for members in closed_classes(P):
        if start in members:
            return stationary_law(P, members)
    raise CheckError(f"state {start} is not recurrent")

