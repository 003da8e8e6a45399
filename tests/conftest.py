import itertools
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from gcb.bethe import minimize_bethe
from gcb.covers import PseudoMarginals
from gcb.gibbs import valid_tuples
from gcb.nfg import Factor, Nfg, parity_table


HALF = Fraction(1, 2)

# Valid configurations of the five-parity-factor graph, edge order e1..e8.
FIG1_CONFIGS = [
    (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 1, 1, 0, 0),
    (0, 0, 1, 0, 0, 1, 1, 1),
    (0, 1, 1, 0, 1, 0, 1, 1),
    (1, 0, 0, 1, 1, 0, 1, 1),
    (1, 1, 0, 1, 0, 1, 1, 1),
    (1, 0, 1, 1, 1, 1, 0, 0),
    (1, 1, 1, 1, 0, 0, 0, 0),
]


def make_fig1() -> Nfg:
    factors = [
        Factor("f1", ("e1", "e2", "e5"), parity_table(3)),
        Factor("f2", ("e2", "e3", "e6"), parity_table(3)),
        Factor("f3", ("e3", "e4", "e7"), parity_table(3)),
        Factor("f4", ("e5", "e6", "e8"), parity_table(3)),
        Factor("f5", ("e7", "e8"), parity_table(2)),
    ]
    return Nfg({f"e{i}": 2 for i in range(1, 9)}, ["e1", "e4"], factors)


def make_dumbbell() -> Nfg:
    factors = [
        Factor("fA", ("e1", "e3"), parity_table(2)),
        Factor("fB", ("e1", "e2"), parity_table(2)),
        Factor("fC", ("e2", "e3", "e7"), parity_table(3)),
        Factor("fD", ("e4", "e6", "e7"), parity_table(3)),
        Factor("fE", ("e4", "e5"), parity_table(2)),
        Factor("fF", ("e5", "e6"), parity_table(2)),
    ]
    return Nfg({f"e{i}": 2 for i in range(1, 8)}, [], factors)


def fig5_beta() -> PseudoMarginals:
    """The degree-2 lift-realizable vector exhibited on the twisted 2-cover."""
    factor_dists = {
        "f1": {(0, 0, 0): 1},
        "f2": {(0, 0, 0): HALF, (0, 1, 1): HALF},
        "f3": {(0, 1, 1): HALF, (1, 1, 0): HALF},
        "f4": {(0, 0, 0): HALF, (0, 1, 1): HALF},
        "f5": {(0, 0): HALF, (1, 1): HALF},
    }
    ones = {"e1": 0, "e2": 0, "e3": HALF, "e4": 1, "e5": 0, "e6": HALF, "e7": HALF, "e8": HALF}
    edge_dists = {e: {0: 1 - w, 1: w} for e, w in ones.items()}
    return PseudoMarginals(factor_dists, edge_dists)


def random_table(rng, arity, low=0.3, high=1.7):
    return {
        key: float(rng.uniform(low, high))
        for key in itertools.product((0, 1), repeat=arity)
    }


def make_random_tree(rng, n_internal=3) -> Nfg:
    """Random positive-table tree: a chain of internal factors with leaf half-edges."""
    sizes = {}
    half = []
    factors = []
    prev_link = None
    for i in range(n_internal):
        edges = []
        if prev_link is not None:
            edges.append(prev_link)
        leaf = f"h{i}"
        sizes[leaf] = 2
        half.append(leaf)
        edges.append(leaf)
        if i < n_internal - 1:
            link = f"t{i}"
            sizes[link] = 2
            edges.append(link)
            prev_link = link
        factors.append(Factor(f"g{i}", tuple(edges), random_table(rng, len(edges))))
    return Nfg(sizes, half, factors)


def make_loopy_positive(rng) -> Nfg:
    """Strictly positive tables on the fig1 topology."""
    factors = [
        Factor("f1", ("e1", "e2", "e5"), random_table(rng, 3, 0.5, 1.5)),
        Factor("f2", ("e2", "e3", "e6"), random_table(rng, 3, 0.5, 1.5)),
        Factor("f3", ("e3", "e4", "e7"), random_table(rng, 3, 0.5, 1.5)),
        Factor("f4", ("e5", "e6", "e8"), random_table(rng, 3, 0.5, 1.5)),
        Factor("f5", ("e7", "e8"), random_table(rng, 2, 0.5, 1.5)),
    ]
    return Nfg({f"e{i}": 2 for i in range(1, 9)}, ["e1", "e4"], factors)


def make_frustrated_k4() -> Nfg:
    """A K4 Ising spin glass on which sum-product converges from neither
    the uniform start's undamped nor its damped run.  Node factor v<i>
    repeats spin i over its edges with value exp(h_i) on 0 and exp(-h_i)
    on 1; pair factor p<i><j> is exp(J) on equal spins, exp(-J) otherwise."""
    couplings = dict(zip(itertools.combinations(range(4), 2), (-4.5, -0.5, -5.7, 2.3, -4.0, -2.2)))
    fields = (0.0, -0.3, -0.5, -0.2)
    sizes, factors = {}, []
    node_edges = {i: [] for i in range(4)}
    for (i, j), coupling in couplings.items():
        a, b = f"e{i}{j}a", f"e{i}{j}b"
        sizes[a] = sizes[b] = 2
        node_edges[i].append(a)
        node_edges[j].append(b)
        table = {(s, t): math.exp(coupling if s == t else -coupling) for s in (0, 1) for t in (0, 1)}
        factors.append(Factor(f"p{i}{j}", (a, b), table))
    for i, edges in node_edges.items():
        k = len(edges)
        factors.append(Factor(f"v{i}", tuple(edges), {(0,) * k: math.exp(fields[i]), (1,) * k: math.exp(-fields[i])}))
    return Nfg(sizes, [], factors)


def make_mixed_arity() -> Nfg:
    """Arities 1, 2 and 3, alphabets 2 and 3 and a half-edge, with
    rational tables that hold zeros."""
    rng = random.Random(17)
    sizes = {"a": 2, "b": 3, "c": 2, "d": 2, "h": 3}

    def table(edges):
        keys = np.ndindex(*(sizes[e] for e in edges))
        return {k: rng.choice([0, Fraction(rng.randint(1, 9), rng.randint(1, 9))]) for k in keys}

    return Nfg(
        sizes,
        ["h"],
        [
            Factor("u", ("a",), {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}),
            Factor("q", ("a", "b", "c"), table(("a", "b", "c"))),
            Factor("r", ("b", "d"), table(("b", "d"))),
            Factor("s", ("c", "d", "h"), table(("c", "d", "h"))),
        ],
    )


def make_interleaved() -> Nfg:
    """Message blocks in factor order of sizes 2 3 5, 2 3 5, 2 3 3 and 3 2,
    and h a half-edge: the size-grouped numbering is not factor order."""
    rng = random.Random(23)
    sizes = {"a": 2, "b": 3, "c": 5, "d": 2, "e": 3, "h": 3}

    def table(edges):
        keys = np.ndindex(*(sizes[e] for e in edges))
        return {k: rng.choice([0.0, rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)]) for k in keys}

    edges = {"f": ("a", "b", "c"), "g": ("d", "e", "c"), "k": ("a", "e", "h"), "l": ("b", "d")}
    return Nfg(sizes, ["h"], [Factor(fid, es, table(es)) for fid, es in edges.items()])


EXAMPLE3_ROWS = [
    [0, 0, 1, 1, 1, 0, 1, 1, 1, 0],
    [0, 1, 1, 1, 0, 1, 0, 0, 1, 1],
    [1, 1, 1, 0, 0, 1, 1, 1, 0, 0],
    [1, 0, 0, 1, 1, 0, 0, 1, 1, 1],
    [1, 1, 0, 0, 1, 1, 1, 0, 0, 1],
]


@pytest.fixture
def fig1():
    return make_fig1()


@pytest.fixture
def dumbbell():
    return make_dumbbell()


def twin(nfg: Nfg) -> Nfg:
    """The same graph with nothing derived or shared yet: a structure of
    its own (``Nfg.shared``), with no index, layout or walk."""
    return Nfg(nfg.alphabet_sizes, nfg.half_edges, nfg.factors)


def list_oracle(dec):
    """bmapd, smapd and bgcd from ``valid_tuples(dec.nfg)``, the decoding
    graph's own walk, each as (decisions, tie, objective, beliefs, n_optima);
    bgcd minimizes on a ``twin``, with its own ``_BetaIndex``.  Float values
    within a relative 1e-12 of the best count as optimal."""
    nfg = dec.nfg
    configs = valid_tuples(nfg)
    tol = 1e-12 if any(isinstance(v, float) for _, v in configs) else 0

    def argmax(dist):
        best = max(dist.values())
        winners = [s for s in sorted(dist) if dist[s] >= best * (1 - tol)]
        return winners[0], len(winners) > 1

    def decide(beta, tie, objective, n_optima=None):
        symbols = [argmax(beta.edge_dists[e]) for e in dec.symbol_edges]
        tie = tie or any(t for _, t in symbols)
        return tuple(s for s, _ in symbols), tie, objective, beta, n_optima

    best, optima = None, []
    for tup, v in configs:
        if best is None or v > best * (1 + tol):
            best, optima = v, [tup]
        elif v >= best * (1 - tol):
            optima.append(tup)
    winner = min(optima)
    point = PseudoMarginals(
        {f: {nfg.local_assignment(f, winner): Fraction(1)} for f in nfg.factors},
        {e: {winner[nfg.edge_index(e)]: Fraction(1)} for e in nfg.edge_order},
    )
    b = decide(point, len(optima) > 1, -math.log(float(best)), len(optima))
    z = Fraction(0)
    factor_acc, edge_acc = {f: {} for f in nfg.factors}, {e: {} for e in nfg.edge_order}
    for tup, v in configs:
        z += v
        for f in nfg.factors:
            key = nfg.local_assignment(f, tup)
            factor_acc[f][key] = factor_acc[f].get(key, 0) + v
        for e in nfg.edge_order:
            s = tup[nfg.edge_index(e)]
            edge_acc[e][s] = edge_acc[e].get(s, 0) + v
    beta = PseudoMarginals(
        {f: {k: v / z for k, v in d.items()} for f, d in factor_acc.items()},
        {e: {k: v / z for k, v in d.items()} for e, d in edge_acc.items()},
    )
    s = decide(beta, False, -math.log(float(z)))
    res = minimize_bethe(twin(nfg), 0)
    return {"bmapd": b, "smapd": s, "bgcd": decide(res.beta, res.tie, res.f_min)}
