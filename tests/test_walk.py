"""The plan walk against per-cover oracles.

Every cover loop in gcb walks the base plan with index-remapped copies
(``Walk.configs`` with a permutation map).  The oracles here build each
cover as its own graph with ``build_cover_with_map`` and enumerate it with
``valid_tuples``, on seeded random graphs with a ternary edge, half-edges,
two full edges joining the same pair of factors, and (every other seed) a
second component.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import gcb._kernels as kernels
from gcb import _kernels
from gcb._kernels import build_plan, cover_sweep, perm_tables
from gcb._kernels.pyref import Walk, lcm_scaled
from gcb.bethe import zbethe_m_enumeration, zbethe_m_typesum
from gcb.coding import (
    Channel,
    DecodingNfg,
    ParityCheckMatrix,
    _symbol_argmax,
    attach_channel,
    bgcd,
    bmapd,
    nfg_from_parity_check,
    sgcd,
    smapd,
)
from gcb.covers import (
    CoverSpec,
    PreimageCensus,
    PseudoMarginals,
    _compositions,
    _frequencies,
    _multinomial,
    build_cover,
    build_cover_with_map,
    cotree_edges,
    count_covers,
    cover_perm_inv,
    eliminate,
    enumerate_covers,
    gauge_fixed_perm_invs,
    lift_realizable_set,
    _phi_of_tuple,
    random_cover,
    type_graph,
)
from gcb.errors import CapExceeded
from gcb.gibbs import config_cap, enumerate_configurations, gibbs_partition, valid_tuples
from gcb.nfg import Factor, Nfg, parity_table

from conftest import EXAMPLE3_ROWS, make_dumbbell, make_fig1

SEEDS = range(8)


def random_graph(seed, rational=True, extra=False):
    """A chain f0 - f1 - ... with a doubled f0 = f1 edge, a ternary full edge
    closing the chain into a cycle, half-edges at both ends, and for odd
    seeds a second component (g0 - g1 with a half-edge on g1).  ``extra``
    adds a third f0 = f1 edge (circuit rank 3) and an isolated factor z
    carrying only a half-edge."""
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    sizes, half, edges = {}, [], {}

    def add(name, size, *ends):
        sizes[name] = size
        for f in ends:
            edges.setdefault(f, []).append(name)
        if len(ends) == 1:
            half.append(name)

    add("a", 2, "f0", "f1")
    add("b", 2, "f0", "f1")
    for i in range(1, n - 1):
        add(f"c{i}", 2, f"f{i}", f"f{i + 1}")
    add("t", 3, "f0", f"f{n - 1}")
    add("h0", 2, "f0")
    add("h1", 2, f"f{n - 1}")
    if seed % 2:
        add("d", 2, "g0", "g1")
        add("hg", 2, "g1")
    if extra:
        add("x", 2, "f1", "f0")
        add("hz", 2, "z")
    values = [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)]
    factors = []
    for fid in sorted(edges):
        es = edges[fid]
        table = {}
        for key in itertools.product(*(range(sizes[e]) for e in es)):
            if rng.random() < 0.35:
                v = rng.choice(values)
                table[key] = v if rational else float(v) * rng.uniform(0.5, 1.5)
        table.setdefault(tuple(0 for _ in es), Fraction(1) if rational else 1.0)
        factors.append(Factor(fid, es, table))
    return Nfg(sizes, half, factors)


def coprime_graph(float_table=False):
    """A triangle f0 - f1 - f2 closed by a ternary edge, with a half-edge on
    f0 and f2.  Its tables mix the coprime denominators 3, 7 and 11 with int
    entries, so the exact walk scales f0 and f2 by 231 and f1 by 33; with
    ``float_table``, f1's table is float and no table is scaled."""
    third, two7, five11 = Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)
    f1 = {(0, 0): 2, (1, 1): five11, (1, 0): third}
    if float_table:
        f1 = {key: float(v) * 1.1 for key, v in f1.items()}
    factors = [
        Factor("f0", ("a", "t", "h0"), {(0, 0, 0): third, (1, 1, 0): two7, (0, 2, 1): five11,
                                        (1, 0, 1): 1, (0, 1, 1): two7}),
        Factor("f1", ("a", "b"), f1),
        Factor("f2", ("b", "t", "h2"), {(0, 0, 0): two7, (1, 1, 1): third, (0, 2, 0): 3,
                                        (1, 0, 1): five11, (1, 2, 1): Fraction(1)}),
    ]
    return Nfg({"a": 2, "b": 2, "t": 3, "h0": 2, "h2": 2}, ["h0", "h2"], factors)


COPRIME = "coprime"  # a parameter value selecting coprime_graph() over a seed


def oracle_covers(nfg, m):
    """(spec, cover, maps, sorted valid tuples) for every M-cover."""
    for spec in enumerate_covers(nfg, m):
        cover, maps = build_cover_with_map(spec)
        yield spec, cover, maps, valid_tuples(cover)


# The type-sum's oracle: it lists the degree-M types one by one on the plan's
# walk, where ``zbethe_m_typesum`` sums the type graph by elimination.


class TypeWalk:
    """The degree-M types of a graph, walked on its plan.

    A type gives each factor a count vector over its support rows summing
    to M, that is M times its block of a beta whose support lies inside the
    tables.  The plan's walk runs over types as it runs over
    configurations: step i chooses a count vector for plan factor i, and
    the "symbols" it puts on the factor's edges are the edge marginals
    (counts per symbol), so at a bound edge only the count vectors agreeing
    with the marginal chosen at the other endpoint remain.  Each leaf is a
    point of the local marginal polytope with M*beta integral and support
    in the tables: a lift-realizable beta.

    The value of a leaf is g(beta)^{M/T} times the closed-form average
    pre-image count.  Each count vector c contributes prod_row
    table[row]^{c_row/T} times multinomial(M; c), divided by
    multinomial(M; marginal) for each full edge free at that factor (its
    first endpoint in plan order).  ``inv_t=None`` gives scaled ints: with
    table[row] = a/b and L the LCM of the factor's b, multinomial(M; c)
    prod_row (a L / b)^{c_row} prod_symbol marginal!, so the walk's values
    times ``unit``, 1 / prod L^M M!^{free full edges}, are the leaf values.
    A float ``inv_t`` gives exp(inv_t * sum c_row log table[row]) times the
    multinomial ratio, and ``unit`` is 1.0.
    """

    def __init__(self, nfg: Nfg, m: int, inv_t=None):
        self.nfg = nfg
        self.m = m
        self.counts = []  # counts[row_id]: {support row: nonzero count} behind walk.rows[row_id]
        factors = []
        scale = 1
        for fp in _kernels.build_plan(nfg).factors:
            edges = nfg.factors[fp.fid].edges
            sizes = [nfg.alphabet_sizes[e] for e in edges]
            free_full = [p for p in fp.free_sel if edges[p] not in nfg.half_edges]
            table = fp.weights
            if inv_t is None:
                table, lcm = lcm_scaled(table)
                scale *= lcm**m * math.factorial(m) ** len(free_full)
            support, weights = [], []
            for c in _compositions(m, len(fp.support)):
                used = [(row, g, n) for row, g, n in zip(fp.support, table, c) if n]
                margs = [[0] * size for size in sizes]
                for row, _, n in used:
                    for p, s in enumerate(row):
                        margs[p][s] += n
                margs = tuple(map(tuple, margs))
                num = _multinomial(m, c)
                if inv_t is None:
                    w = num * math.prod(g**n for _, g, n in used)
                    w *= math.prod(math.factorial(n) for p in free_full for n in margs[p])
                else:
                    den = math.prod(_multinomial(m, margs[p]) for p in free_full)
                    w = math.exp(inv_t * sum(n * math.log(g) for _, g, n in used)) * (num / den)
                support.append(margs)
                weights.append(w)
                self.counts.append({row: n for row, _, n in used})
            factors.append(SimpleNamespace(fid=fp.fid, edge_idx=fp.edge_idx, twist=fp.twist,
                                           bound_sel=fp.bound_sel, free_sel=fp.free_sel,
                                           support=support, weights=weights))
        plan = SimpleNamespace(sizes=[0] * len(nfg.edge_order), factors=factors)
        self.walk = Walk(plan, 1, exact=inv_t is None)
        self.unit = self.walk.unit / scale

    def beta(self, rows) -> PseudoMarginals:
        """The pseudo-marginal of a leaf's chosen row ids."""
        factor_counts = {}
        edge_counts = {}
        for row_id in rows:
            fid, margs = self.walk.rows[row_id]
            factor_counts[fid] = self.counts[row_id]
            for e, marg in zip(self.nfg.factors[fid].edges, margs):
                edge_counts[e] = dict(enumerate(marg))
        return _frequencies(self.m, factor_counts, edge_counts)


# -- base-graph walk ------------------------------------------------------------


@pytest.mark.parametrize("seed", [*SEEDS, COPRIME])
def test_valid_tuples_match_brute_force_product(seed):
    nfg = coprime_graph() if seed == COPRIME else random_graph(seed)
    want = []
    for t in itertools.product(*(range(nfg.alphabet_sizes[e]) for e in nfg.edge_order)):
        value = Fraction(1)
        for fid, f in nfg.factors.items():
            value *= f.value(nfg.local_assignment(fid, t))
        if value:
            want.append((t, value))
    assert valid_tuples(nfg) == want


def test_valid_tuples_accepts_alphabet_200():
    sizes = {"a": 200, "b": 200}
    factors = [
        Factor("f1", ("a", "b"), {(s, s): Fraction(1) for s in range(200)}),
        Factor("f2", ("b",), {(s,): Fraction(s + 1, 7) for s in range(200)}),
    ]
    nfg = Nfg(sizes, ["a"], factors)
    found = valid_tuples(nfg)
    assert found == [((s, s), Fraction(s + 1, 7)) for s in range(200)]
    assert gibbs_partition(nfg) == Fraction(200 * 201 // 2, 7)
    exact = zbethe_m_enumeration(nfg, 2).pre_root
    assert zbethe_m_enumeration(nfg, 2, exact=False).pre_root == pytest.approx(float(exact), rel=1e-12)


def test_valid_tuples_21_bound_edges():
    # f2 meets all 21 edges already bound by f1: 2^21 possible bound keys.
    sizes = {f"e{i}": 2 for i in range(21)}
    es = tuple(sizes)
    factors = [Factor("f1", es, {(0,) * 21: 1}), Factor("f2", es, {(0,) * 21: 1})]
    assert valid_tuples(Nfg(sizes, [], factors)) == [((0,) * 21, 1)]


def rescanning_plan_order(nfg):
    """The plan's greedy factor order, rescanning every remaining factor
    for its bound edges at each step: most bound edges first, then the
    smallest table, then the smallest id."""
    remaining = set(nfg.factors)
    bound_edges = set()
    order = []
    while remaining:
        def score(fid):
            f = nfg.factors[fid]
            shared = sum(1 for e in f.edges if e in bound_edges)
            return (-shared, len(f.table), fid)

        fid = min(remaining, key=score)
        remaining.discard(fid)
        bound_edges.update(nfg.factors[fid].edges)
        order.append(fid)
    return order


def test_plan_order_matches_rescanning_greedy():
    graphs = [random_graph(seed, extra=extra) for seed in SEEDS for extra in (False, True)]
    graphs += [coprime_graph(), pair_graph(1), make_fig1(), make_dumbbell()]
    graphs += [dec.nfg for dec in decoding_cases()]
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    rng = random.Random(1)
    for _ in range(40):
        word = "".join(rng.choice("01") for _ in range(10))
        graphs.append(attach_channel(code, Channel.bsc(Fraction(1, rng.choice([5, 10, 20]))), word).nfg)
    for nfg in graphs:
        assert [fp.fid for fp in build_plan(nfg).factors] == rescanning_plan_order(nfg)


# -- cover walks ----------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_cover_configurations_match_per_cover_oracle(seed):
    nfg = random_graph(seed)
    for m in (2, 3) if seed == 2 else (2,):
        walk = Walk(build_plan(nfg), m)
        total = Fraction(0)
        for spec, cover, (_, edge_map), tuples in oracle_covers(nfg, m):
            order = [nfg.edge_index(e) * m + k for e, k in map(edge_map.get, cover.edge_order)]
            got = [(tuple(slots[s] for s in order), v * walk.unit)
                   for v, slots, _ in walk.configs(cover_perm_inv(spec))]
            assert sorted(got) == tuples
            total += sum((v for _, v in tuples), Fraction(0))
        pre_root = zbethe_m_enumeration(nfg, m, exact=True).pre_root
        assert isinstance(pre_root, Fraction)
        assert pre_root == total / count_covers(nfg, m)


@pytest.mark.parametrize("seed", [*SEEDS[:4], COPRIME])
def test_monte_carlo_matches_per_cover_oracle(seed):
    # the coprime graph's walk is exact and scaled, so each global value is
    # value * unit before it is raised to 1/T
    nfg = coprime_graph() if seed == COPRIME else random_graph(seed, rational=False)
    seed = 0 if seed == COPRIME else seed
    res = zbethe_m_enumeration(nfg, 2, temperature=0.7, samples=5, seed=seed)
    rng = random.Random(seed)
    vals = [float(gibbs_partition(build_cover(random_cover(nfg, 2, rng.getrandbits(48))), 0.7))
            for _ in range(5)]
    assert res.pre_root == pytest.approx(float(np.mean(vals)), rel=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_census_tally_matches_per_cover_oracle(seed):
    nfg = random_graph(seed)
    tally = {}
    total = 0
    for _, cover, (factor_map, edge_map), tuples in oracle_covers(nfg, 2):
        for tup, _ in tuples:
            key = _phi_of_tuple(nfg, 2, cover, factor_map, edge_map, tup).canonical_key()
            tally[key] = tally.get(key, 0) + 1
            total += 1
    census = PreimageCensus(nfg, 2)
    assert census._tally == tally
    assert census.total_valid == total
    assert {b.canonical_key() for b in census.realizable()} == set(tally)


def pair_graph(seed):
    """Two factors joined by a binary and a ternary full edge, each with a
    half-edge: 576 labeled 4-covers."""
    rng = random.Random(seed)
    sizes = {"a": 2, "t": 3, "h0": 2, "h1": 2}
    factors = []
    for fid, es in (("f0", ("a", "t", "h0")), ("f1", ("t", "a", "h1"))):
        table = {key: rng.choice([Fraction(1), Fraction(1, 2), Fraction(3)])
                 for key in itertools.product(*(range(sizes[e]) for e in es)) if rng.random() < 0.25}
        table.setdefault((0, 0, 0), Fraction(1))
        factors.append(Factor(fid, es, table))
    return Nfg(sizes, ["h0", "h1"], factors)


# Small enough for the oracle, which builds and walks every labeled cover:
# circuit rank 3 with an isolated factor (seed 3 also has a tree component)
# at M = 2, rank 2 at M = 3, and the two-factor pair at M = 3 and 4.
GAUGE_CASES = (
    [("rank3", seed, 2) for seed in (0, 2, 3, 6)]
    + [("rank2", 2, 3)]
    + [("pair", seed, m) for seed in (1, 4) for m in (3, 4)]
    + [(COPRIME, 0, m) for m in (2, 3)]
)


@pytest.mark.parametrize("kind, seed, m", GAUGE_CASES)
def test_gauge_fixed_paths_and_typesum_match_labeled_oracle(kind, seed, m):
    """Every cover average over the gauge-fixed covers, and the direct
    type-sum, against one pass over every labeled cover."""
    if kind == COPRIME:
        nfg = coprime_graph()
    else:
        nfg = pair_graph(seed) if kind == "pair" else random_graph(seed, extra=kind == "rank3")
    total, total_t, tally = Fraction(0), 0.0, {}
    for _, cover, (factor_map, edge_map), tuples in oracle_covers(nfg, m):
        total += sum((v for _, v in tuples), Fraction(0))
        total_t += float(gibbs_partition(cover, 0.7))
        for tup, _ in tuples:
            key = _phi_of_tuple(nfg, m, cover, factor_map, edge_map, tup).canonical_key()
            tally[key] = tally.get(key, 0) + 1
    n = count_covers(nfg, m)
    for res in (zbethe_m_enumeration(nfg, m, exact=True), zbethe_m_typesum(nfg, m, exact=True)):
        assert isinstance(res.pre_root, Fraction)
        assert res.pre_root == total / n
        assert res.n_covers == n
    for path in (zbethe_m_enumeration, zbethe_m_typesum):
        assert path(nfg, m, exact=False).pre_root == pytest.approx(float(total / n), rel=1e-12)
        assert path(nfg, m, temperature=0.7).pre_root == pytest.approx(total_t / n, rel=1e-12)

    census = PreimageCensus(nfg, m)
    assert census._tally == tally
    assert census.total_valid == sum(tally.values())
    types = TypeWalk(nfg, m)
    assert sum(value for value, _, _ in types.walk.configs()) * types.unit == total / n
    points = [types.beta(rows).canonical_key() for _, _, rows in types.walk.configs()]
    assert len(points) == len(set(points))
    assert set(points) == set(tally) == {b.canonical_key() for b in lift_realizable_set(nfg, m)}

    dec = DecodingNfg(nfg, nfg.half_edge_order, Fraction(1), [], None)
    factor_want, edge_want = oracle_sgcd_beta(dec, m)
    beliefs = sgcd(dec, degree=m).beliefs
    assert {(f, k): v for f, d in beliefs.factor_dists.items() for k, v in d.items()} == factor_want
    assert {(e, s): v for e, d in beliefs.edge_dists.items() for s, v in d.items()} == edge_want


def test_gauge_fixed_covers_count_the_cotree():
    nfg = random_graph(3, extra=True)  # rank 3, three components
    cotree = cotree_edges(nfg)
    assert len(cotree) == nfg.circuit_rank() == 3
    maps = list(gauge_fixed_perm_invs(nfg, 3))
    assert len(maps) == 6**3
    assert all(sorted(p) == [nfg.edge_index(e) for e in cotree] for p in maps)
    assert count_covers(nfg, 3) == len(maps) * 6 ** (len(nfg.factors) - nfg.n_components())
    tree = Nfg({"a": 2, "h": 2}, ["h"], [Factor("f", ("a", "h"), {(0, 0): 1}), Factor("g", ("a",), {(0,): 1})])
    assert cotree_edges(tree) == [] and list(gauge_fixed_perm_invs(tree, 3)) == [{}]


@pytest.mark.parametrize("seed", [*SEEDS, COPRIME])
def test_pure_cover_sweep_matches_per_cover_oracle(seed):
    rational = seed == COPRIME or seed % 2 == 0
    nfg = coprime_graph() if seed == COPRIME else random_graph(seed, rational=rational)
    plan = build_plan(nfg)
    maps = [cover_perm_inv(spec) for spec in enumerate_covers(nfg, 2)]
    n = len(maps)
    count = sum(len(t) for *_, t in oracle_covers(nfg, 2))
    cases = [(Walk(plan, 2, exact=False), temperature, False) for temperature in (1.0, 0.7)]
    if rational:
        cases.append((Walk(plan, 2), 1, True))
    for walk, temperature, exact in cases:
        inv_t = 1 if temperature == 1 else 1.0 / temperature
        zsum, found, visited = cover_sweep(walk, maps, inv_t, 10**6)
        want = sum(gibbs_partition(cover, temperature) for _, cover, _, _ in oracle_covers(nfg, 2))
        if exact:
            assert isinstance(zsum, Fraction) and zsum == want
        else:
            assert isinstance(zsum, float) and zsum == pytest.approx(float(want), rel=1e-12)
        assert found == count
        assert visited == n
        parts = [cover_sweep(walk, maps[a:b], inv_t, 10**6) for a, b in ((0, n // 3), (n // 3, n))]
        assert sum(p[1] for p in parts) == count
        assert sum(p[2] for p in parts) == n
        assert sum(p[0] for p in parts) == pytest.approx(zsum, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2])
def test_exact_walk_multiplies_scaled_ints(m):
    """An exact walk yields ints: each rational table is scaled by the LCM
    of its denominators, and ``unit`` undoes the scaling once per sum.  A
    float table leaves every table unscaled, and the values are floats."""
    nfg = coprime_graph()
    walk = Walk(build_plan(nfg), m)
    assert walk.unit == Fraction(1, (231 * 33 * 231) ** m)
    values = [value for value, _, _ in walk.configs()]
    assert values and all(type(value) is int for value in values)
    tables, unit = type_graph(nfg, m)
    assert unit == Fraction(1, (231 * 33 * 231) ** m * math.factorial(m) ** 3)
    assert all(type(value) is int for _, table in tables for value in table.values())
    assert eliminate(tables, 10**6) * unit == zbethe_m_enumeration(nfg, m).pre_root

    mixed = Walk(build_plan(coprime_graph(float_table=True)), m)
    assert mixed.unit == 1
    assert all(type(value) is float for value, _, _ in mixed.configs())


def test_walk_mixes_float_and_rational_tables():
    """With one float table among rational ones, the exact walk's values are
    floats, and every consumer matches its oracle on the same tables in
    exact rationals, to float rounding."""
    nfg = coprime_graph(float_table=True)
    twin = Nfg(nfg.alphabet_sizes, nfg.half_edges,
               [Factor(f.id, f.edges, {k: Fraction(v) for k, v in f.table.items()}) for f in nfg.factors.values()])
    got, want = valid_tuples(nfg), valid_tuples(twin)
    assert [t for t, _ in got] == [t for t, _ in want]
    assert [v for _, v in got] == pytest.approx([float(v) for _, v in want], rel=1e-12)

    m = 2
    maps = [cover_perm_inv(spec) for spec in enumerate_covers(nfg, m)]
    zsum, _, _ = cover_sweep(Walk(build_plan(nfg), m), maps, 1, 10**6)
    assert type(zsum) is float
    assert zsum == pytest.approx(float(sum(gibbs_partition(cover) for _, cover, _, _ in oracle_covers(twin, m))),
                                 rel=1e-12)
    res = zbethe_m_enumeration(nfg, m, temperature=0.7, samples=4, seed=5)
    rng = random.Random(5)
    vals = [float(gibbs_partition(build_cover(random_cover(twin, m, rng.getrandbits(48))), 0.7))
            for _ in range(4)]
    assert res.pre_root == pytest.approx(float(np.mean(vals)), rel=1e-12)

    dec = DecodingNfg(nfg, nfg.half_edge_order, Fraction(1), [], None)
    twin_dec = DecodingNfg(twin, twin.half_edge_order, Fraction(1), [], None)
    decisions, n_optima, tie, beta, objective = oracle_bgcd(twin_dec, m)
    res = bgcd(dec, degree=m)
    assert (res.decisions, res.diagnostics["n_optima"], res.tie, res.beliefs) == (decisions, n_optima, tie, beta)
    assert res.objective == pytest.approx(objective, rel=1e-12)
    factor_want, edge_want = oracle_sgcd_beta(twin_dec, m)
    beliefs = sgcd(dec, degree=m).beliefs
    got_f = {(f, k): v for f, d in beliefs.factor_dists.items() for k, v in d.items()}
    got_e = {(e, s): v for e, d in beliefs.edge_dists.items() for s, v in d.items()}
    assert got_f.keys() == factor_want.keys() and got_e.keys() == edge_want.keys()
    assert [got_f[k] for k in factor_want] == pytest.approx([float(v) for v in factor_want.values()], rel=1e-12)
    assert [got_e[k] for k in edge_want] == pytest.approx([float(v) for v in edge_want.values()], rel=1e-12)


def test_mixed_walk_scales_no_table():
    """Scaled per table, 120 factors of 999/1000 would reach 999**120 > 1e308
    before the float factor, and the int cannot become a float."""
    factors = [Factor(f"f{i:03d}", (f"h{i:03d}",), {(0,): Fraction(999, 1000)}) for i in range(120)]
    factors.append(Factor("z", ("hz",), {(0,): 0.5}))
    nfg = Nfg({f.edges[0]: 1 for f in factors}, [f.edges[0] for f in factors], factors)
    ((_, value),) = valid_tuples(nfg)
    assert value == pytest.approx(0.999**120 * 0.5, rel=1e-12)


def test_perm_tables_lehmer_order():
    perms, inv = perm_tables(3)
    assert [tuple(p) for p in perms] == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]
    for p, q in zip(perms, inv):
        assert all(q[p[i]] == i for i in range(3))


@pytest.mark.parametrize("exact", [True, False])
def test_enumeration_sums_through_one_cover_sweep(monkeypatch, exact):
    # perfbench's traced run reads kernels.cover_sweep.* and kernels.covers_swept
    # from gcb._kernels.cover_sweep; renaming or bypassing it must fail here.
    nfg = random_graph(3, extra=True)
    calls = []
    sweep = kernels.cover_sweep

    def counting(*args, **kwargs):
        result = sweep(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(kernels, "cover_sweep", counting)
    zbethe_m_enumeration(nfg, 2, exact=exact)
    assert len(calls) == 1
    assert calls[0][2] == len(list(gauge_fixed_perm_invs(nfg, 2))) == 2 ** nfg.circuit_rank()


# -- degree-M decoders ----------------------------------------------------------


def oracle_bgcd(dec, m):
    """The literal rule as one loop over every labeled, built cover: of the
    optimal configurations' frequency maps, the one with the smallest
    ``type_key`` wins, and more than one of them is a tie."""
    nfg = dec.nfg
    best, n_optima, betas = None, 0, set()
    for _, cover, (factor_map, edge_map), tuples in oracle_covers(nfg, m):
        for tup, value in tuples:
            if best is None or value > best:
                best, n_optima, betas = value, 0, set()
            if value == best:
                n_optima += 1
                betas.add(_phi_of_tuple(nfg, m, cover, factor_map, edge_map, tup))
    beta = min(betas, key=lambda b: type_key(nfg, m, b))
    symbols = [_symbol_argmax(beta.edge_dists[e]) for e in dec.symbol_edges]
    tie = len(betas) > 1 or any(t for _, t in symbols)
    return tuple(s for s, _ in symbols), n_optima, tie, beta, -math.log(float(best)) / m


def type_key(nfg, m, beta):
    """The symbols of each edge's M copies in edge order, then the
    (factor id, row) pairs of the factor copies, sorted, read off M*beta."""
    def copies(dist):
        return [k for k in sorted(dist) for _ in range(int(m * dist[k]))]

    edges = tuple(s for e in nfg.edge_order for s in copies(beta.edge_dists[e]))
    rows = tuple((f, row) for f in sorted(nfg.factors) for row in copies(beta.factor_dists[f]))
    return edges, rows


def oracle_sgcd_beta(dec, m):
    """Copy-0 marginals weighted by the cover global value."""
    z = Fraction(0)
    factor_acc, edge_acc = {}, {}
    for _, cover, (factor_map, edge_map), tuples in oracle_covers(dec.nfg, m):
        for tup, value in tuples:
            z += value
            for cf, (f, k) in factor_map.items():
                if k == 0:
                    key = (f, cover.local_assignment(cf, tup))
                    factor_acc[key] = factor_acc.get(key, 0) + value
            for ce, (e, k) in edge_map.items():
                if k == 0:
                    key = (e, tup[cover.edge_index(ce)])
                    edge_acc[key] = edge_acc.get(key, 0) + value
    return ({k: v / z for k, v in factor_acc.items()}, {k: v / z for k, v in edge_acc.items()})


def decoding_cases():
    for seed in SEEDS:
        nfg = random_graph(seed)
        yield DecodingNfg(nfg, nfg.half_edge_order, Fraction(1), [], None)
    # Cover labels sort e10@* before e1@*, but the tie-break runs in edge
    # order (e1 before e10), so the copies take row (0, 1), not (1, 0).
    nfg = Nfg({"e1": 2, "e10": 2}, ["e1", "e10"], [Factor("f", ("e1", "e10"), {(0, 1): 1, (1, 0): 1})])
    yield DecodingNfg(nfg, nfg.half_edge_order, Fraction(1), [], None)
    code = nfg_from_parity_check(ParityCheckMatrix([[1, 1, 0], [0, 1, 1]]))
    for p, y in ((Fraction(1, 10), "010"), (Fraction(1, 4), "110"), (Fraction(1, 5), "000")):
        yield attach_channel(code, Channel.bsc(p), y)
    # A first-optimal-cover rule would take the identity cover and, in it,
    # the lift of the all-ones configuration (decisions 11).  A twisted
    # cover reaches the same value with every edge half 0 and half 1, a type
    # with a smaller key, so the decisions are 00.
    nfg = random_graph(36)
    yield DecodingNfg(nfg, nfg.half_edge_order, Fraction(1), [], None)
    nfg = coprime_graph()
    yield DecodingNfg(nfg, nfg.half_edge_order, Fraction(1), [], None)


N_DECODING_CASES = len(SEEDS) + 6


@pytest.mark.parametrize("case", range(N_DECODING_CASES))
def test_degree2_decoders_match_per_cover_oracle(case):
    dec = list(decoding_cases())[case]
    res = bgcd(dec, degree=2)
    decisions, n_optima, tie, beta, objective = oracle_bgcd(dec, 2)
    assert tuple(res.decisions) == decisions
    assert res.diagnostics["n_optima"] == n_optima
    assert res.tie == tie
    assert res.beliefs == beta
    assert res.objective == objective

    factor_want, edge_want = oracle_sgcd_beta(dec, 2)
    beliefs = sgcd(dec, degree=2).beliefs
    assert {(f, k): v for f, d in beliefs.factor_dists.items() for k, v in d.items()} == factor_want
    assert {(e, s): v for e, d in beliefs.edge_dists.items() for s, v in d.items()} == edge_want


def test_degree3_repetition_code_counts_every_labeled_cover():
    """y = 001 on the 3-bit repetition code over BSC(1/10): each of the
    (3!)^7 labeled 3-covers has one optimum, the lift of 000.  They are
    counted, not walked, and one optimal type is no tie."""
    code = nfg_from_parity_check(ParityCheckMatrix([[1, 1, 0], [0, 1, 1]]))
    dec = attach_channel(code, Channel.bsc(Fraction(1, 10)), "001")
    start = time.perf_counter()
    res = bgcd(dec, degree=3)
    assert time.perf_counter() - start < 1.0
    assert res.decisions == (0, 0, 0)
    assert res.diagnostics["n_optima"] == count_covers(dec.nfg, 3) == 6**7
    assert res.tie is False
    assert res.beliefs == bmapd(dec).beliefs


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("case", range(N_DECODING_CASES))
def test_symbolwise_objective_is_minus_log_zbethe_m(case, m):
    dec = list(decoding_cases())[case]
    res = sgcd(dec, degree=m)
    pre_root = zbethe_m_enumeration(dec.nfg, m).pre_root
    assert res.objective == -math.log(float(pre_root)) / m
    if m == 1:
        assert pre_root == gibbs_partition(dec.nfg)
        assert res.objective == smapd(dec).objective


# -- caps -----------------------------------------------------------------------


def test_caps_still_raise(monkeypatch):
    dumbbell = make_dumbbell()  # 128 two-covers, each with 8 or 16 configurations
    dec = DecodingNfg(dumbbell, dumbbell.edge_order, Fraction(1), [], None)
    with pytest.raises(CapExceeded):
        zbethe_m_enumeration(dumbbell, 2, cap=100)
    for temperature, exact in ((1, True), (1, False), (0.7, False)):
        with pytest.raises(CapExceeded):
            zbethe_m_enumeration(dumbbell, 2, temperature, exact=exact, config_cap=10)
    with pytest.raises(CapExceeded):
        zbethe_m_enumeration(dumbbell, 2, samples=3, seed=1, config_cap=7)
    with pytest.raises(CapExceeded):
        PreimageCensus(dumbbell, 2, cap=100)
    with pytest.raises(CapExceeded):
        PreimageCensus(dumbbell, 2, config_cap=10)
    with pytest.raises(CapExceeded):
        bgcd(dec, degree=2, cap=100)
    with pytest.raises(CapExceeded):
        sgcd(dec, degree=2, cap=100)
    monkeypatch.setenv("GCB_CONFIG_CAP", "10")
    with pytest.raises(CapExceeded):
        bgcd(dec, degree=2)
    with pytest.raises(CapExceeded):
        sgcd(dec, degree=2)


def test_walk_limit_raises_on_the_next_configuration():
    fig1 = make_fig1()
    walk = Walk(build_plan(fig1))
    assert len(list(walk.configs(limit=8))) == 8
    configs = walk.configs(limit=7)
    assert len([next(configs) for _ in range(7)]) == 7
    with pytest.raises(CapExceeded, match="^more than 7 valid configurations$"):
        next(configs)
    with pytest.raises(CapExceeded, match="^more than 0 valid configurations$"):
        next(walk.configs(limit=0))


def test_config_cap_boundary_at_each_use():
    """A cap equal to the largest count passes and one less raises the same
    message, for the base enumeration, the cover sweep, the pre-image census
    and the degree-2 decoders."""
    fig1, dumbbell = make_fig1(), make_dumbbell()
    dec = DecodingNfg(dumbbell, dumbbell.edge_order, Fraction(1), [], None)
    walk = Walk(build_plan(dumbbell), 2)
    perm_invs = list(gauge_fixed_perm_invs(dumbbell, 2))
    n = max(sum(1 for _ in walk.configs(p)) for p in perm_invs)  # the largest cover's count
    assert n == 16
    assert len(valid_tuples(fig1, cap=8)) == 8
    z_sum, _, n_fixed = cover_sweep(walk, perm_invs, 1, n)
    assert z_sum / n_fixed == 10
    assert PreimageCensus(dumbbell, 2, config_cap=n).total_valid == PreimageCensus(dumbbell, 2).total_valid
    assert bgcd(dec, degree=2, config_cap=n).beliefs == bgcd(dec, degree=2).beliefs
    assert sgcd(dec, degree=2, config_cap=n).beliefs == sgcd(dec, degree=2).beliefs
    with pytest.raises(CapExceeded, match="^more than 7 valid configurations$"):
        valid_tuples(fig1, cap=7)
    calls = [
        lambda: cover_sweep(walk, perm_invs, 1, n - 1),
        lambda: cover_sweep(walk, perm_invs, 0.7, n - 1),
        lambda: PreimageCensus(dumbbell, 2, config_cap=n - 1),
        lambda: bgcd(dec, degree=2, config_cap=n - 1),
        lambda: sgcd(dec, degree=2, config_cap=n - 1),
    ]
    for call in calls:
        with pytest.raises(CapExceeded, match=f"^more than {n - 1} valid configurations$"):
            call()


def test_enumeration_ignores_the_raw_product_space():
    """A parity ring of 28 edges has 2^28 assignments but 2 valid
    configurations, so it enumerates under the default cap of 2^26."""
    edges = [f"e{i:02d}" for i in range(28)]
    factors = [Factor(f"f{i:02d}", (edges[i - 1], edges[i]), parity_table(2)) for i in range(28)]
    ring = Nfg({e: 2 for e in edges}, [], factors)
    assert ring.configuration_space_size() == 2**28 > config_cap()
    configs = enumerate_configurations(ring)
    assert [value for _, value in configs] == [1, 1]
    assert [set(config.values()) for config, _ in configs] == [{0}, {1}]
    with pytest.raises(CapExceeded, match="^more than 1 valid configurations$"):
        enumerate_configurations(ring, cap=1)


def test_typesum_caps():
    dumbbell = make_dumbbell()  # 10 types at M = 2 and 20 at M = 3
    assert zbethe_m_typesum(dumbbell, 2, config_cap=10).pre_root == 10
    with pytest.raises(CapExceeded):
        zbethe_m_typesum(dumbbell, 2, config_cap=9)
    # fC and fD have four support rows each: C(3+3, 3) = 20 count vectors at M = 3
    assert zbethe_m_typesum(dumbbell, 3, config_cap=20).pre_root == zbethe_m_enumeration(dumbbell, 3).pre_root
    with pytest.raises(CapExceeded, match="fC: 20 count vectors exceed cap 19"):
        zbethe_m_typesum(dumbbell, 3, config_cap=19)
    with pytest.raises(CapExceeded, match="fC: 35 count vectors exceed cap 34"):
        zbethe_m_typesum(dumbbell, 4, config_cap=34)


def test_typesum_cap_bounds_intermediate_tables():
    """fig1 at M = 3: at most 20 count vectors per factor, and the
    elimination's largest table holds 64 entries.  Its 200 types are summed,
    not counted, so a cap of 64 is enough."""
    fig1 = make_fig1()
    tables, _ = type_graph(fig1, 3)
    eliminate(tables, 64)
    with pytest.raises(CapExceeded, match="intermediate table has more than 63 entries"):
        eliminate(tables, 63)
    with pytest.raises(CapExceeded, match="intermediate table has more than 63 entries"):
        zbethe_m_typesum(fig1, 3, config_cap=63)
    with pytest.raises(CapExceeded, match="intermediate table has more than 50 entries"):
        zbethe_m_typesum(fig1, 3, config_cap=50)
    full = zbethe_m_typesum(fig1, 3).pre_root
    assert isinstance(full, Fraction)
    for cap in (64, 100, 200):
        assert zbethe_m_typesum(fig1, 3, config_cap=cap).pre_root == full


@pytest.mark.parametrize("batch", range(4))
def test_typesum_matches_type_walk_oracle(batch):
    """120 seeded graphs with a ternary full edge and half-edges, at M = 2,
    3 and 4 (a third of them, at M = 2 and 3, with circuit rank 3 and an
    isolated factor): the elimination's exact Fraction equals the oracle's
    sum over listed types, and both float paths agree with the oracle's
    floats to 1e-12."""
    for seed in range(30 * batch, 30 * batch + 30):
        nfg = random_graph(seed, extra=seed % 6 < 2)
        m = 2 + seed % 3
        types = TypeWalk(nfg, m)
        want = sum(value for value, _, _ in types.walk.configs()) * types.unit
        got = zbethe_m_typesum(nfg, m, exact=True).pre_root
        assert isinstance(got, Fraction) and got == want
        for temperature in (1, 0.7):
            types = TypeWalk(nfg, m, 1.0 / temperature)
            want = sum(value for value, _, _ in types.walk.configs())
            got = zbethe_m_typesum(nfg, m, temperature, exact=False).pre_root
            assert isinstance(got, float) and got == pytest.approx(want, rel=1e-12)


def test_typesum_fig1_m16_is_fast():
    """Listing the types one by one took 1.43 s on a 2-vCPU VM."""
    start = time.perf_counter()
    res = zbethe_m_typesum(make_fig1(), 16)
    assert time.perf_counter() - start < 0.5
    assert res.pre_root == 8**16


def parity_cover_count(spec):
    """Valid configurations of a cover of an all-parity graph:
    2 ** (edges - rank of its checks over GF(2))."""
    cover = build_cover(spec)
    pivots = {}
    for f in cover.factors.values():
        row = sum(1 << cover.edge_index(e) for e in f.edges)
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return 2 ** (len(cover.edge_order) - len(pivots))


def test_typesum_m4_runs_at_defaults():
    """The type-sum visits no cover, so no cover cap stops it: (4!)^7 and
    (4!)^6 labeled covers exceed the default cap of 2^24 on both graphs.  The
    dumbbell is checked against the exact enumeration; fig1 (576 gauge-fixed
    4-covers of about 4096 configurations each, minutes of enumeration) is
    checked against each gauge-fixed cover's count from GF(2) rank."""
    dumbbell = make_dumbbell()
    with pytest.raises(CapExceeded):
        zbethe_m_enumeration(dumbbell, 4)
    want = zbethe_m_enumeration(dumbbell, 4, cap=count_covers(dumbbell, 4)).pre_root
    assert zbethe_m_typesum(dumbbell, 4).pre_root == want == Fraction(128, 3)

    fig1 = make_fig1()
    assert count_covers(fig1, 4) > 1 << 24
    cotree = cotree_edges(fig1)
    identity = {e: tuple(range(4)) for e in fig1.full_edges if e not in cotree}
    counts = [parity_cover_count(CoverSpec(fig1, 4, {**identity, **dict(zip(cotree, perms))}))
              for perms in itertools.product(itertools.permutations(range(4)), repeat=len(cotree))]
    assert zbethe_m_typesum(fig1, 4).pre_root == Fraction(sum(counts), len(counts))
