"""Degree-M graph covers: construction, enumeration, pre-image counting.

A cover is specified by one permutation of [M] per full edge; half-edges
are copied without permutation, so there are (M!)^{|full edges|} labeled
covers.  Relabeling the M copies of a factor node changes neither a
cover's partition sum nor the values and frequency-map images of its
configurations, so every loop over covers (cover averages, pre-image
tallies, degree-M decoding) walks only the gauge-fixed covers
(``gauge_fixed_perm_invs``): the identity on a spanning forest of the full
edges, each standing for (M!)^{|F| - components} labeled covers;
``enumerate_covers`` lists every labeled cover.  Loops walk the base
graph's plan with index-remapped copies (``Walk.configs`` with a
permutation map, bounded by the configuration cap) and map a
configuration down through its support rows (``phi_of_rows``);
``build_cover`` makes a cover a graph of its own only for single-cover
uses.  The type-sum's weight factorizes over the graph, so it is the
partition function of a type graph whose full edges carry marginal counts
(``type_graph``), summed by bucket elimination (``eliminate``); its
``config_cap`` bounds each factor's count vectors and every table the
elimination builds.  The frequency map is exact rational arithmetic
throughout, and ``check_local_consistency`` is the one membership check of
the local marginal polytope (exact at tol=0), which the pre-image closed
forms also use.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Mapping

from .errors import (
    CapExceeded,
    InconsistentBeta,
    InvalidConfiguration,
    NonIntegralType,
    ParseError,
    ShapeMismatch,
)
from . import _kernels
from ._kernels.pyref import Walk, lcm_scaled
from .gibbs import config_cap as default_config_cap
from .gibbs import valid_tuples  # noqa: F401  (benchmark self-tests read gcb.covers.valid_tuples)
from .nfg import Factor, Nfg

DEFAULT_COVER_CAP = 1 << 24


def cover_cap(override=None) -> int:
    if override is not None:
        return int(override)
    return int(os.environ.get("GCB_COVER_CAP", DEFAULT_COVER_CAP))


# -- pseudo-marginals ---------------------------------------------------------


class PseudoMarginals:
    """Per-factor and per-edge distributions satisfying edge consistency.

    ``factor_dists[f]`` maps local codewords (tuples over the factor's edge
    order) to weights; ``edge_dists[e]`` maps symbols to weights.  Zero
    entries may be omitted.
    """

    __slots__ = ("factor_dists", "edge_dists")

    def __init__(self, factor_dists: Mapping, edge_dists: Mapping):
        self.factor_dists = {
            f: {tuple(k): v for k, v in d.items() if v != 0}
            for f, d in factor_dists.items()
        }
        self.edge_dists = {
            e: {int(k): v for k, v in d.items() if v != 0}
            for e, d in edge_dists.items()
        }

    def canonical_key(self):
        """Hashable exact identity, used to deduplicate lift images."""
        fk = tuple(
            (f, tuple(sorted(self.factor_dists[f].items())))
            for f in sorted(self.factor_dists)
        )
        ek = tuple(
            (e, tuple(sorted(self.edge_dists[e].items())))
            for e in sorted(self.edge_dists)
        )
        return (fk, ek)

    def __eq__(self, other):
        return isinstance(other, PseudoMarginals) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def is_exact(self) -> bool:
        values = itertools.chain(
            (v for d in self.factor_dists.values() for v in d.values()),
            (v for d in self.edge_dists.values() for v in d.values()),
        )
        return all(isinstance(v, (Fraction, int)) for v in values)

    def denominator(self) -> int:
        den = 1
        for d in self.factor_dists.values():
            for v in d.values():
                den = den * Fraction(v).denominator // math.gcd(den, Fraction(v).denominator)
        return den

    def factor_weight(self, f, key):
        return self.factor_dists[f].get(tuple(key), Fraction(0))

    def edge_weight(self, e, sym):
        return self.edge_dists[e].get(int(sym), Fraction(0))


def check_shape(nfg: Nfg, beta: PseudoMarginals):
    if set(beta.factor_dists) != set(nfg.factors):
        raise ShapeMismatch("factor blocks do not match the graph's factors")
    if set(beta.edge_dists) != set(nfg.alphabet_sizes):
        raise ShapeMismatch("edge blocks do not match the graph's edges")
    for f, d in beta.factor_dists.items():
        sizes = [nfg.alphabet_sizes[e] for e in nfg.factors[f].edges]
        for key in d:
            if len(key) != len(sizes):
                raise ShapeMismatch(f"factor {f}: assignment {key} has wrong arity")
            if not all(0 <= s < size for s, size in zip(key, sizes)):
                raise ShapeMismatch(f"factor {f}: assignment {key} has a symbol outside its edge's alphabet")
    for e, d in beta.edge_dists.items():
        size = nfg.alphabet_sizes[e]
        for sym in d:
            if not 0 <= sym < size:
                raise ShapeMismatch(f"edge {e}: symbol {sym} outside alphabet")


def check_local_consistency(nfg: Nfg, beta: PseudoMarginals, tol: float = 1e-9):
    """(ok, violations): simplex and edge-consistency constraints within tol.

    Exact pseudo-marginals with tol=0 are checked in rational arithmetic.
    Each violation names the spot: ('factor-sum', f), ('edge-sum', e),
    ('negative', block, key), or ('consistency', f, e, symbol).
    """
    check_shape(nfg, beta)
    exact = beta.is_exact() and tol == 0
    violations = []

    def bad(diff):
        if exact:
            return diff != 0
        return abs(float(diff)) > tol

    for f in sorted(nfg.factors):
        d = beta.factor_dists[f]
        for key, v in d.items():
            if (v < 0) if exact else (float(v) < -tol):
                violations.append(("negative", f, key))
        if bad(sum(d.values()) - 1):
            violations.append(("factor-sum", f))
    for e in nfg.edge_order:
        d = beta.edge_dists[e]
        for s, v in d.items():
            if (v < 0) if exact else (float(v) < -tol):
                violations.append(("negative", e, s))
        if bad(sum(d.values()) - 1):
            violations.append(("edge-sum", e))
    for f in sorted(nfg.factors):
        edges = nfg.factors[f].edges
        margs = [[0] * nfg.alphabet_sizes[e] for e in edges]
        for key, v in beta.factor_dists[f].items():
            for marg, s in zip(margs, key):
                marg[s] += v
        for e, marg in zip(edges, margs):
            for s, m in enumerate(marg):
                if bad(m - beta.edge_weight(e, s)):
                    violations.append(("consistency", f, e, s))
    return (not violations), violations


def beta_from_configuration(nfg: Nfg, config) -> PseudoMarginals:
    """Vertex pseudo-marginals of a single valid base configuration."""
    tup = config if isinstance(config, tuple) else nfg.config_tuple(config)
    factor_dists = {
        f: {nfg.local_assignment(f, tup): Fraction(1)} for f in nfg.factors
    }
    edge_dists = {
        e: {tup[nfg.edge_index(e)]: Fraction(1)} for e in nfg.alphabet_sizes
    }
    return PseudoMarginals(factor_dists, edge_dists)


# -- cover specification ------------------------------------------------------


class CoverSpec:
    """Degree and one 0-indexed permutation tuple per full edge."""

    __slots__ = ("nfg", "m", "perms")

    def __init__(self, nfg: Nfg, m: int, perms: Mapping[str, tuple]):
        self.nfg = nfg
        self.m = int(m)
        if set(perms) != set(nfg.full_edges):
            raise ShapeMismatch("need exactly one permutation per full edge")
        self.perms = {}
        for e, p in perms.items():
            p = tuple(int(x) for x in p)
            if sorted(p) != list(range(self.m)):
                raise ShapeMismatch(f"edge {e}: not a permutation of [{self.m}]")
            self.perms[e] = p

    def copy_label(self, m: int) -> str:
        width = len(str(self.m))
        return f"{m + 1:0{width}d}"


def count_covers(nfg: Nfg, m: int) -> int:
    return math.factorial(m) ** len(nfg.full_edges)


def cover_spec_at_index(nfg: Nfg, m: int, index: int) -> CoverSpec:
    """Decode an odometer index into a spec; last full edge moves fastest."""
    perms = list(itertools.permutations(range(m)))
    edges = [e for e in nfg.edge_order if e not in nfg.half_edges]
    digits = {}
    rem = index
    for e in reversed(edges):
        digits[e] = perms[rem % len(perms)]
        rem //= len(perms)
    if rem:
        raise IndexError("cover index out of range")
    return CoverSpec(nfg, m, digits)


def _check_cover_cap(nfg: Nfg, m: int, cap):
    total = count_covers(nfg, m)
    limit = cover_cap(cap)
    if total > limit:
        raise CapExceeded(f"{total} covers exceed cap {limit}")


def enumerate_covers(nfg: Nfg, m: int, cap=None) -> Iterator[CoverSpec]:
    """All labeled M-covers in odometer order over per-edge permutations,
    the order of ``cover_spec_at_index``."""
    _check_cover_cap(nfg, m, cap)
    edges = nfg.full_edge_order
    perms = itertools.permutations(range(m))
    for digits in itertools.product(perms, repeat=len(edges)):
        yield CoverSpec(nfg, m, dict(zip(edges, digits)))


def cotree_edges(nfg: Nfg) -> list:
    """The full edges outside a spanning forest of the factor graph.

    The forest is built by union-find over ``full_edge_order``: an edge
    joining two trees enters it, one closing a cycle does not.  There are
    circuit-rank many co-tree edges.
    """
    parent = {f: f for f in nfg.factors}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for e in nfg.full_edge_order:
        a, b = (find(f) for f in nfg.incidence[e])
        if a == b:
            out.append(e)
        else:
            parent[a] = b
    return out


def gauge_fixed_perm_invs(nfg: Nfg, m: int, cap=None):
    """The gauge-fixed M-covers, as ``Walk.configs`` permutation maps.

    Forest edges (see ``cotree_edges``) carry the identity and are left out
    of the maps; the co-tree edges run through all permutations, in
    odometer order with the last edge's digit moving fastest.  Relabeling
    the copies of every factor other than one root per component maps each
    labeled cover to exactly one gauge-fixed cover, with the same partition
    sum and frequency-map images, and each gauge-fixed cover stands for
    (M!)^{|F| - components} labeled ones.  So any average over labeled
    covers equals the average over these.  The cover cap applies to the
    labeled count, as in ``enumerate_covers``.
    """
    _check_cover_cap(nfg, m, cap)
    cotree = [nfg.edge_index(e) for e in cotree_edges(nfg)]
    _, inv = _kernels.perm_tables(m)
    for digits in itertools.product(inv, repeat=len(cotree)):
        yield dict(zip(cotree, digits))


def random_cover(nfg: Nfg, m: int, seed) -> CoverSpec:
    """Uniform spec from a seeded generator; one shuffle per full edge."""
    rng = random.Random(seed)
    perms = {}
    for e in sorted(nfg.full_edges):
        p = list(range(m))
        rng.shuffle(p)
        perms[e] = tuple(p)
    return CoverSpec(nfg, m, perms)


def build_cover(spec: CoverSpec) -> Nfg:
    cover, _ = build_cover_with_map(spec)
    return cover


def build_cover_with_map(spec: CoverSpec):
    """The cover graph plus the projection maps back to the base.

    Copy m of full edge e joins copy m of its lexicographically smaller
    endpoint to copy sigma_e(m) of the larger one.  Returns (cover,
    (factor_map, edge_map)) where the maps send cover ids to (base id,
    copy index) pairs.
    """
    base = spec.nfg
    m = spec.m
    label = spec.copy_label

    alphabet_sizes = {}
    half_edges = []
    edge_map = {}
    for e in base.edge_order:
        for k in range(m):
            ce = f"{e}@{label(k)}"
            alphabet_sizes[ce] = base.alphabet_sizes[e]
            edge_map[ce] = (e, k)
            if e in base.half_edges:
                half_edges.append(ce)

    factor_map = {}
    factors = []
    for fid in sorted(base.factors):
        f = base.factors[fid]
        for k in range(m):
            cf = f"{fid}@{label(k)}"
            factor_map[cf] = (fid, k)
            edges = []
            for e in f.edges:
                if e in base.half_edges:
                    edges.append(f"{e}@{label(k)}")
                else:
                    lo, hi = base.incidence[e]
                    if fid == lo:
                        edges.append(f"{e}@{label(k)}")
                    else:
                        inv = spec.perms[e].index(k)
                        edges.append(f"{e}@{label(inv)}")
            factors.append(Factor(cf, edges, f.table))
    cover = Nfg(alphabet_sizes, half_edges, factors)
    return cover, (factor_map, edge_map)


def phi_m(spec: CoverSpec, cover_config) -> PseudoMarginals:
    """Frequency map from a valid cover configuration to base pseudo-marginals."""
    cover, (factor_map, edge_map) = build_cover_with_map(spec)
    tup = cover_config if isinstance(cover_config, tuple) else cover.config_tuple(cover_config)
    for cf in cover.factors:
        if cover.factors[cf].value(cover.local_assignment(cf, tup)) == 0:
            raise InvalidConfiguration(f"invalid at cover factor {cf}")
    return _phi_of_tuple(spec.nfg, spec.m, cover, factor_map, edge_map, tup)


def _phi_of_tuple(base: Nfg, m: int, cover: Nfg, factor_map, edge_map, tup) -> PseudoMarginals:
    factor_counts: dict = {f: {} for f in base.factors}
    for cf, (f, _) in factor_map.items():
        key = cover.local_assignment(cf, tup)
        d = factor_counts[f]
        d[key] = d.get(key, 0) + 1
    edge_counts: dict = {e: {} for e in base.alphabet_sizes}
    for ce, (e, _) in edge_map.items():
        sym = tup[cover.edge_index(ce)]
        d = edge_counts[e]
        d[sym] = d.get(sym, 0) + 1
    return _frequencies(m, factor_counts, edge_counts)


def phi_of_rows(nfg: Nfg, walk: Walk, rows) -> PseudoMarginals:
    """Frequency map of a walked cover configuration, from the support-row
    ids ``walk.configs`` reports for it; each edge copy is read at its
    smaller endpoint, the only one of a half-edge."""
    factor_counts: dict = {f: {} for f in nfg.factors}
    edge_counts: dict = {e: {} for e in nfg.alphabet_sizes}
    for row_id in rows:
        fid, row = walk.rows[row_id]
        d = factor_counts[fid]
        d[row] = d.get(row, 0) + 1
        for e, sym in zip(nfg.factors[fid].edges, row):
            if nfg.incidence[e][0] == fid:
                d = edge_counts[e]
                d[sym] = d.get(sym, 0) + 1
    return _frequencies(walk.m, factor_counts, edge_counts)


def _frequencies(m: int, factor_counts, edge_counts) -> PseudoMarginals:
    return PseudoMarginals(
        {f: {k: Fraction(n, m) for k, n in d.items()} for f, d in factor_counts.items()},
        {e: {s: Fraction(n, m) for s, n in d.items()} for e, d in edge_counts.items()},
    )


def cover_perm_inv(spec: CoverSpec) -> dict:
    """The spec as a ``Walk.configs`` permutation map: sigma_e^{-1} keyed by
    the plan index of each full edge, so the walk visits the valid
    configurations of ``build_cover(spec)``."""
    nfg = spec.nfg
    return {nfg.edge_index(e): [p.index(k) for k in range(spec.m)] for e, p in spec.perms.items()}


# -- pre-image counting -------------------------------------------------------


class PreimageCensus:
    """Tally of phi pre-image counts over every M-cover of a base graph.

    One sweep walks the gauge-fixed covers and all their valid
    configurations, keyed by the multiset of support rows chosen for the
    (factor, copy) pairs; each distinct key becomes a pseudo-marginal once.
    Tallies and ``total_valid`` are scaled by the number of labeled covers
    each gauge-fixed one stands for, so they count over all labeled covers.
    The tally then answers exact pre-image queries for any beta.
    """

    def __init__(self, nfg: Nfg, m: int, cap=None, config_cap=None):
        self.nfg = nfg
        self.m = m
        self.n_covers = count_covers(nfg, m)
        walk = Walk(_kernels.build_plan(nfg), m)
        limit = default_config_cap(config_cap)
        by_rows: dict = {}
        n_fixed = 0
        for perm_inv in gauge_fixed_perm_invs(nfg, m, cap=cap):
            for _, _, rows in walk.configs(perm_inv, limit):
                key = tuple(sorted(rows))
                by_rows[key] = by_rows.get(key, 0) + 1
            n_fixed += 1
        multiplicity = self.n_covers // n_fixed
        self.total_valid = multiplicity * sum(by_rows.values())
        self._tally: dict = {}
        self._betas: dict = {}
        for rows, n in by_rows.items():
            beta = phi_of_rows(nfg, walk, rows)
            key = beta.canonical_key()
            self._tally[key] = multiplicity * n
            self._betas[key] = beta

    def count(self, beta: PseudoMarginals) -> Fraction:
        return Fraction(self._tally.get(beta.canonical_key(), 0), self.n_covers)

    def realizable(self) -> set:
        return set(self._betas.values())


def preimage_count_bruteforce(nfg: Nfg, m: int, beta: PseudoMarginals, cap=None, config_cap=None) -> Fraction:
    """Average pre-image count of beta over all M-covers, by full sweep."""
    check_shape(nfg, beta)
    return PreimageCensus(nfg, m, cap=cap, config_cap=config_cap).count(beta)


def lift_realizable_set(nfg: Nfg, m: int, cap=None, config_cap=None) -> set:
    """The image of the degree-M frequency map, deduplicated exactly."""
    return PreimageCensus(nfg, m, cap=cap, config_cap=config_cap).realizable()


def _require_integral(beta: PseudoMarginals, m: int):
    for d in itertools.chain(beta.factor_dists.values(), beta.edge_dists.values()):
        for v in d.values():
            fv = Fraction(v)
            if (fv * m).denominator != 1:
                raise NonIntegralType(f"M * beta not integral: {v} at M={m}")


def _exact_type(nfg: Nfg, beta: PseudoMarginals, m: int) -> bool:
    """Checks that beta is a degree-m type of the local marginal polytope
    (shape, M*beta integral, exact consistency); returns whether its
    support lies inside the tables."""
    check_shape(nfg, beta)
    _require_integral(beta, m)
    ok, violations = check_local_consistency(nfg, beta, tol=0)
    if not ok:
        raise InconsistentBeta(f"beta outside the local marginal polytope: {violations[0]}")
    return all(key in nfg.factors[f].table for f, d in beta.factor_dists.items() for key in d)


def _multinomial(m: int, counts) -> int:
    n = math.factorial(m)
    for c in counts:
        n //= math.factorial(c)
    return n


def preimage_count_closedform(nfg: Nfg, m: int, beta: PseudoMarginals) -> Fraction:
    """Average pre-image count as a ratio of exact multinomials.

    Numerator: one multinomial per factor; denominator: one per full edge.
    Returns 0 when a factor block puts weight outside the factor's support.
    """
    if not _exact_type(nfg, beta, m):
        return Fraction(0)
    num = 1
    for f in nfg.factors:
        counts = [int(Fraction(v) * m) for v in beta.factor_dists[f].values()]
        num *= _multinomial(m, counts)
    den = 1
    for e in nfg.full_edges:
        counts = [int(Fraction(v) * m) for v in beta.edge_dists[e].values()]
        den *= _multinomial(m, counts)
    return Fraction(num, den)


def _compositions(m: int, n: int):
    """Every n-tuple of non-negative integers summing to m (none for n = 0)."""
    if n:
        for cuts in itertools.combinations(range(m + n - 1), n - 1):
            yield tuple(b - a - 1 for a, b in zip((-1,) + cuts, cuts + (m + n - 1,)))


def type_graph(nfg: Nfg, m: int, inv_t=None):
    """(tables, unit): the degree-M type-sum is ``eliminate(tables) * unit``.

    Full edges carry their marginals n, coded sum_{s>=1} n_s (M+1)^(s-1).
    A factor's table is the M-th power of its row polynomial
    sum_row g_row x^row grouped by full-edge marginals (half-edges drop
    out): multinomial(M; c) prod_row g_row^(c_row) summed over its count
    vectors c.  The first endpoint of each full edge carries prod_s n_s!,
    and ``unit`` 1/M! per full edge.  ``inv_t=None`` gives ints, each
    factor's g scaled by the LCM L of its denominators (``unit`` also holds
    1/prod L^M); a float ``inv_t`` gives floats g^inv_t, with the 1/M! in
    the edge weights.
    """
    base, scale, tables = m + 1, 1, []
    for fid in sorted(nfg.factors):
        f = nfg.factors[fid]
        full = [p for p, e in enumerate(f.edges) if e not in nfg.half_edges]
        places = [1]
        for p in full:
            places.append(places[-1] * base ** (nfg.alphabet_sizes[f.edges[p]] - 1))
        spans = list(zip(places, places[1:]))
        rows = sorted(f.table)
        values = [f.table[row] for row in rows]
        if inv_t is not None:
            values = [float(v) ** inv_t for v in values]
        else:
            values, lcm = lcm_scaled(values)
            scale *= lcm**m
        offsets = [sum(place * base ** (row[p] - 1) for p, place in zip(full, places) if row[p]) for row in rows]
        weighed = [(j, nfg.alphabet_sizes[f.edges[p]]) for j, p in enumerate(full)
                   if nfg.incidence[f.edges[p]][0] == fid]
        table = {}
        for code, w in _power(m, zip(offsets, values)).items():
            key = tuple([code % hi // lo for lo, hi in spans])
            for j, size in weighed:
                w *= _edge_weight(m, size, key[j], inv_t is None)
            table[key] = w
        tables.append((tuple(f.edges[p] for p in full), table))
    return tables, (Fraction(1, scale * math.factorial(m) ** len(nfg.full_edges)) if inv_t is None else 1.0)


@functools.lru_cache(maxsize=1 << 12)
def _edge_weight(m: int, size: int, code: int, exact: bool):
    """prod_s n_s! for the marginal n coded by ``code``; over M! unless exact."""
    counts = [code // (m + 1) ** s % (m + 1) for s in range(size - 1)]
    w = math.prod(map(math.factorial, counts)) * math.factorial(m - sum(counts))
    return w if exact else w / math.factorial(m)


def _power(m: int, terms) -> dict:
    """{sum_i c_i offset_i: multinomial(M; c) prod_i g_i^(c_i), summed} over
    the count vectors c summing to M of the (offset, g) terms.  Terms join
    one at a time, on keys code * (M+1) + count."""
    base = m + 1
    states = {0: 1}
    terms = list(terms)
    for i, (offset, g) in enumerate(terms):
        last = i == len(terms) - 1  # the last term fills the count up to M
        step = offset * base + 1
        grown: dict = {}
        for code, w in states.items():
            t = code % base
            for k in (m - t,) if last else range(base - t):
                v = w * math.comb(t + k, k) * g**k
                grown[code + k * step] = grown.get(code + k * step, 0) + v
        states = grown
    return {code // base: w for code, w in states.items() if code % base == m}


def eliminate(tables, limit: int):
    """Sum over all edges of the product of sparse (scope, {key: value}) tables.

    Bucket elimination: the edge leaving the smallest scope goes first, ties
    to the smaller name; its tables are joined and it is summed out.  Raises
    CapExceeded when a table built has more than ``limit`` entries.
    """
    tables = list(tables)
    edges = {e for scope, _ in tables for e in scope}
    while edges:
        e = min(edges, key=lambda e: (len(set().union(*(s for s, _ in tables if e in s))), e))
        edges.discard(e)
        acc, *rest = [t for t in tables if e in t[0]]
        tables = [t for t in tables if e not in t[0]]
        for t in rest[:-1]:
            acc = _join(acc, t, None, limit)
        tables.append(_join(acc, rest[-1] if rest else ((), {(): 1}), e, limit))
    return math.prod(table.get((), 0) for _, table in tables)


def _join(a, b, drop, limit):
    """The product of tables a and b, summed over their edge ``drop`` if any."""
    (sa, ta), (sb, tb) = a, b
    shared = [e for e in sa if e in sb]
    keep, rest = [e for e in sa if e != drop], [e for e in sb if e not in sa]
    shared_a, keep_a = _getter([sa.index(e) for e in shared]), _getter([sa.index(e) for e in keep])
    shared_b, rest_b = _getter([sb.index(e) for e in shared]), _getter([sb.index(e) for e in rest])
    groups: dict = {}
    for key, w in tb.items():
        groups.setdefault(shared_b(key), []).append((rest_b(key), w))
    out: dict = {}
    for key, w in ta.items():
        head = keep_a(key)
        for tail, v in groups.get(shared_a(key), ()):
            out[head + tail] = out.get(head + tail, 0) + w * v
        if len(out) > limit:
            raise CapExceeded(f"an intermediate table has more than {limit} entries")
    return tuple(keep + rest), out


def _getter(idx):
    """key -> tuple(key[i] for i in idx), through ``itemgetter`` where it gives one."""
    if len(idx) == 1:
        return lambda key, i=idx[0]: (key[i],)
    return itemgetter(*idx) if idx else (lambda key: ())


def entropy_rate_estimate(nfg: Nfg, beta: PseudoMarginals, m: int) -> float:
    """(1/M) log of the closed-form pre-image count, in log-gamma arithmetic.

    Feasible for M up to about 10^6; requires M to be a multiple of beta's
    denominator.
    """
    if not _exact_type(nfg, beta, m):
        return float("-inf")

    def log_multinomial(counts):
        return math.lgamma(m + 1) - sum(math.lgamma(c + 1) for c in counts)

    total = 0.0
    for f in nfg.factors:
        total += log_multinomial([int(Fraction(v) * m) for v in beta.factor_dists[f].values()])
    for e in nfg.full_edge_order:
        total -= log_multinomial([int(Fraction(v) * m) for v in beta.edge_dists[e].values()])
    return total / m


# -- spec serialization -------------------------------------------------------


def emit_cover_spec(spec: CoverSpec) -> str:
    lines = [f"cover M={spec.m}"]
    for e in sorted(spec.perms):
        images = " ".join(str(x + 1) for x in spec.perms[e])
        lines.append(f"perm {e} {images}")
    return "\n".join(lines) + "\n"


def parse_cover_spec(nfg: Nfg, text: str) -> CoverSpec:
    m = None
    perms = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "cover":
            if len(parts) != 2 or not parts[1].startswith("M="):
                raise ParseError("expected 'cover M=<m>'", ln)
            m = int(parts[1][2:])
        elif parts[0] == "perm":
            if m is None:
                raise ParseError("perm before cover header", ln)
            edge = parts[1]
            images = [int(x) - 1 for x in parts[2:]]
            if len(images) != m:
                raise ParseError(f"perm {edge}: expected {m} images", ln)
            perms[edge] = tuple(images)
        else:
            raise ParseError(f"unknown keyword {parts[0]!r}", ln)
    if m is None:
        raise ParseError("missing cover header")
    try:
        return CoverSpec(nfg, m, perms)
    except ShapeMismatch as exc:
        raise ParseError(str(exc)) from None
