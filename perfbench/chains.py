"""Chains with a structure known by construction, and their exact laws.

Every generator returns a `Network`: the transition matrix together with
what its construction fixes (recurrent classes, periods, transient
states, the Cesaro limit law of each start) computed here without any
call into `chainopt.markov`. Random walks on undirected graphs have a
stationary law proportional to degree; transient states are wired as a
DAG so that absorption probabilities follow by back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Network:
    name: str
    matrix: np.ndarray
    classes: list  # sorted 0-based member lists, ordered by smallest member
    periods: list
    transient: list
    inits: list  # initial distributions handed to `weights --init`
    laws: list  # exact Cesaro limit law of each init
    decay_beta: float | None = None  # -log(lambda_2) when the decay is exactly geometric
    decay: bool = False  # also analysed with `decay`
    run: bool = False  # also optimized over with one component per state

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def ring_graph(m: int, offsets, shortcuts: int) -> np.ndarray:
    """Ring lattice joining i and i + d for each offset d, plus shortcuts.

    Shortcut j joins vertex j * (m // shortcuts) to the vertex an odd
    half-ring away, so vertex degrees differ while the spectrum, and
    with it the cost of every limit computation, depends on m alone;
    the generators vary only the labels and the starts by seed. With an
    offset pair such as (1, 2) the graph has triangles, so the walk is
    aperiodic. With odd offsets and an even m every edge joins the two
    parity sides, so the walk has period 2.
    """
    adj = np.zeros((m, m), dtype=bool)
    i = np.arange(m)
    for d in offsets:
        adj[i, (i + d) % m] = True
        adj[(i + d) % m, i] = True
    half = (m // 2) | 1
    ends = np.arange(shortcuts) * (m // shortcuts)
    adj[ends, (ends + half) % m] = True
    adj[(ends + half) % m, ends] = True
    return adj


def walk_matrix(adj: np.ndarray) -> np.ndarray:
    deg = adj.sum(axis=1)
    return adj / deg[:, np.newaxis]


def degree_law(adj: np.ndarray) -> np.ndarray:
    deg = adj.sum(axis=1).astype(np.float64)
    return deg / deg.sum()


def random_dist(m: int, support, rng) -> np.ndarray:
    vec = np.zeros(m)
    vec[np.asarray(support)] = rng.dirichlet(np.ones(len(support)))
    return vec


def _permuted(net: Network, rng) -> Network:
    """Relabel states at random so no structure hides in the state order."""
    m = net.m
    perm = rng.permutation(m)  # new label of old state s is perm[s]
    inv = np.argsort(perm)

    def relabel(states):
        return sorted(int(perm[s]) for s in states)

    pairs = sorted(zip((relabel(c) for c in net.classes), net.periods), key=lambda p: p[0][0])
    net.matrix = np.ascontiguousarray(net.matrix[np.ix_(inv, inv)])
    net.classes = [c for c, _ in pairs]
    net.periods = [p for _, p in pairs]
    net.transient = relabel(net.transient)
    net.inits = [v[inv] for v in net.inits]
    net.laws = [v[inv] for v in net.laws]
    return net


def graph_walk(name: str, m: int, shortcuts: int, rng, bipartite: bool = False, **flags) -> Network:
    """Random walk on a connected sparse graph: one class, law proportional to degree."""
    offsets = (1, 3) if bipartite else (1, 2)
    adj = ring_graph(m, offsets, shortcuts)
    law = degree_law(adj)
    inits = [random_dist(m, rng.choice(m, 3, replace=False), rng) for _ in range(2)]
    net = Network(
        name=name,
        matrix=walk_matrix(adj),
        classes=[list(range(m))],
        periods=[2 if bipartite else 1],
        transient=[],
        inits=inits,
        laws=[law, law],
        **flags,
    )
    return _permuted(net, rng)


def multi_class(name: str, class_sizes, n_transient: int, rng) -> Network:
    """Several recurrent classes fed by a DAG of transient states.

    Each class is a graph walk (the last one bipartite, so the chain's
    global period is 2). Transient state t moves to up to three later
    transient states and to one or two class states, so every transient
    state is absorbed and the absorption probabilities H[t, c] follow
    from a single backward sweep.
    """
    blocks, laws, periods, classes = [], [], [], []
    start = 0
    for c, size in enumerate(class_sizes):
        periodic = c == len(class_sizes) - 1
        offsets = (1, 3) if periodic else (1, 2)
        adj = ring_graph(size, offsets, size // 4)
        blocks.append(walk_matrix(adj))
        laws.append(degree_law(adj))
        periods.append(2 if periodic else 1)
        classes.append(list(range(start, start + size)))
        start += size
    n_rec = start
    m = n_rec + n_transient
    mat = np.zeros((m, m))
    for cls, block in zip(classes, blocks):
        mat[np.ix_(cls, cls)] = block
    owner = np.concatenate([np.full(len(cls), c) for c, cls in enumerate(classes)])
    H = np.zeros((n_transient, len(classes)))
    for t in reversed(range(n_transient)):
        row = n_rec + t
        later = np.arange(t + 1, n_transient)
        succ = rng.choice(later, min(3, later.size), replace=False) if later.size else []
        hits = rng.choice(n_rec, int(rng.integers(1, 3)), replace=False)
        targets = [n_rec + int(s) for s in succ] + [int(h) for h in hits]
        probs = rng.dirichlet(np.ones(len(targets)))
        for target, p in zip(targets, probs):
            mat[row, target] += p
        for s, p in zip(succ, probs[: len(succ)]):
            H[t] += p * H[int(s)]
        for h, p in zip(hits, probs[len(succ):]):
            H[t, owner[int(h)]] += p
    transient = list(range(n_rec, m))

    def law_of(dist):
        out = np.zeros(m)
        mass = dist[n_rec:] @ H
        for c, (cls, law) in enumerate(zip(classes, laws)):
            out[cls] = (mass[c] + dist[cls].sum()) * law
        return out

    inits = [
        random_dist(m, rng.choice(transient, 4, replace=False), rng),
        random_dist(m, [int(rng.integers(0, n_rec)), int(rng.choice(transient))], rng),
    ]
    net = Network(
        name=name,
        matrix=mat,
        classes=classes,
        periods=periods,
        transient=transient,
        inits=inits,
        laws=[law_of(v) for v in inits],
    )
    return _permuted(net, rng)


def coupled_blocks(name: str, eps: float, block: int, **flags) -> Network:
    """Two uniform blocks of `block` states, each leaking `eps` to the other.

    The spectrum is {1, 1 - 2 eps, 0, ...}, so P^k minus the uniform limit
    is (1 - 2 eps)^k times a matrix of max-row-sum norm 1: the decay is
    exactly geometric with rate -log(1 - 2 eps). A single 1-state block
    gives the 2-state chain [[1-eps, eps], [eps, 1-eps]].
    """
    m = 2 * block
    mat = np.full((m, m), eps / block)
    mat[:block, :block] = (1.0 - eps) / block
    mat[block:, block:] = (1.0 - eps) / block
    uniform = np.full(m, 1.0 / m)
    first = np.zeros(m)
    first[0] = 1.0
    return Network(
        name=name,
        matrix=mat,
        classes=[list(range(m))],
        periods=[1],
        transient=[],
        inits=[first, uniform],
        laws=[uniform, uniform],
        decay_beta=float(-np.log1p(-2.0 * eps)),
        decay=True,
        **flags,
    )
