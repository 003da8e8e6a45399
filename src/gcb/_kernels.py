"""The kernel layer: the evaluation plan, its walk and the cover sweep.

``build_plan`` gives each graph one plan: factors in a greedy order (the
factor sharing the most already-bound edges first, then the smallest
support), each factor's edges split into bound ones, assigned by earlier
factors, and free ones, assigned when one of its support rows is chosen,
and support rows sorted by their bound symbols, so rows agreeing on the
bound edges are contiguous.  A cover's edge and factor copies are
index-remapped copies of the base ones, so boundness and row order carry
over unchanged.  ``Walk`` follows the plan: it is gcb's one walk over
valid configurations, exact or float, on a graph or its degree-M covers,
and enumeration, cover sums, pre-image counting and the decoding rules,
MAP decoding included, all run on it.  Exact walks on rational tables
multiply scaled ints, each factor's one exact reading (``exact_reading``),
times ``Walk.unit`` once per sum; float walks never read it.  The ``limit``
of ``Walk.configs`` is the one configuration cap.  ``cover_sweep`` is the
one sum over covers, for both precisions, and the Gibbs partition sum is
its sweep of the base graph.  It sums each cover as the product of its
parts (``Walk.parts``: one base component with one orbit of copies), and
walks each class of parts that differ only by a relabelling of copies
once per call, so the trivial M-cover costs one walk of the base graph.
The cap still bounds each whole cover's valid configurations, the
product of its parts' counts.  Both are plain Python; ``BACKEND`` names
that backend in benchmark records.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter

from .errors import CapExceeded

BACKEND = "pure"


class FactorPlan:
    """One factor's place in the walk.

    ``edge_idx`` holds the plan edge index of each incident edge and
    ``twist`` is 1 where the factor is the larger endpoint of a full edge,
    whose copy k meets edge copy sigma_e^{-1}(k) in a cover.  ``support``
    and ``weights`` are the table's rows and own values in walk order.
    """

    __slots__ = ("fid", "edge_idx", "twist", "bound_sel", "free_sel", "support", "weights")


class Plan:
    __slots__ = ("sizes", "factors", "nfg")

    def __init__(self, nfg):
        self.nfg = nfg
        self.sizes = [nfg.alphabet_sizes[e] for e in nfg.edge_order]
        shared = dict.fromkeys(nfg.factors, 0)  # bound edges of each factor not yet placed
        bound_edges: set[str] = set()
        self.factors = []
        while shared:
            fid = min(shared, key=lambda g: (-shared[g], len(nfg.factors[g].table), g))
            del shared[fid]
            f = nfg.factors[fid]
            fp = FactorPlan()
            fp.fid = fid
            fp.edge_idx = [nfg.edge_index(e) for e in f.edges]
            fp.twist = [int(e not in nfg.half_edges and nfg.incidence[e][1] == fid) for e in f.edges]
            fp.bound_sel = [p for p, e in enumerate(f.edges) if e in bound_edges]
            fp.free_sel = [p for p, e in enumerate(f.edges) if e not in bound_edges]
            fp.support = sorted(f.table)
            fp.support.sort(key=lambda row: [row[p] for p in fp.bound_sel])
            fp.weights = [f.table[row] for row in fp.support]
            for e in f.edges:
                if e not in bound_edges:
                    bound_edges.add(e)
                    for g in nfg.incidence[e]:
                        if g in shared:
                            shared[g] += 1
            self.factors.append(fp)

    def exact_weights(self):
        """``exact_weights`` of the plan's graph, in walk order."""
        return exact_weights(self.nfg, [(fp.fid, row_order(fp.support)) for fp in self.factors])


def build_plan(nfg) -> Plan:
    return Plan(nfg)


def perm_tables(m: int):
    """All permutations of range(m) in lexicographic order, plus inverses."""
    perms = list(itertools.permutations(range(m)))
    return perms, [[p.index(k) for k in range(m)] for p in perms]


def lcm_scaled(values):
    """(ints, L): rational ``values`` times L, the LCM of their denominators."""
    lcm = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (lcm // v.denominator) for v in values], lcm


def exact_reading(f):
    """(ints, L): f's values in sorted row order times L, the LCM of their
    denominators; None when a value is a float.  Kept by ``Nfg.per_factor``."""
    values = [f.table[row] for row in sorted(f.table)]
    return None if any(isinstance(v, float) for v in values) else lcm_scaled(values)


def row_order(support):
    """The number of each row of ``support`` in sorted row order."""
    number = {row: i for i, row in enumerate(sorted(support))}
    return [number[row] for row in support]


def exact_weights(nfg, orders):
    """(weights, scale) that exact products multiply: per (factor id, order)
    of ``orders``, its exact reading's ints taken in ``order`` (``row_order``),
    and scale = prod L; with a float table, the tables' own values and scale
    1, since an int product past 1e308 cannot meet a float."""
    readings = nfg.per_factor(exact_reading, exact_reading)
    picked = [readings[fid] for fid, _ in orders]
    if None in picked:
        picked = [([t[row] for row in sorted(t)], 1) for t in (nfg.factors[fid].table for fid, _ in orders)]
    weights = [[ints[i] for i in order] for (ints, _), (_, order) in zip(picked, orders)]
    return weights, math.prod(lcm for _, lcm in picked)


class Walk:
    """Depth-first walk over the valid configurations of a graph or its M-covers.

    Slot e*M + k holds copy k of plan edge e.  Step i*M + k chooses a
    support row for copy k of plan factor i, looked up by the symbols
    already on its bound edges; its free edges then take the row's
    symbols.  A chosen row is reported as its index into ``rows``, the list
    of (factor id, row) pairs over the plan's factors in order.  Values
    multiply the rows' weights (the plan's ``exact_weights``, or with
    ``exact=False`` its factors' ``weights`` as floats) left to right, and
    ``value * unit`` is the global value: ``unit`` = 1 / scale^M, a
    Fraction, in exact mode, and 1.0 with ``exact=False``.  The plan
    places a factor with no bound edge only when no factor left shares an
    edge with a placed one, so each connected component of the base graph
    is one run of plan factors, opened by a factor with no bound edge;
    ``parts`` splits a cover along these runs.
    """

    def __init__(self, plan: Plan, m: int = 1, exact: bool = True):
        self.m = m
        self.n_slots = len(plan.sizes) * m
        self.one = 1 if exact else 1.0
        self.rows = []
        self._factors = []
        weights, scale = plan.exact_weights() if exact else ([[float(w) for w in fp.weights] for fp in plan.factors], 1)
        for fp, fp_weights in zip(plan.factors, weights):
            key = itemgetter(*fp.bound_sel) if fp.bound_sel else (lambda row: ())
            groups: dict = {}
            for row, w in zip(fp.support, fp_weights):
                free = tuple(row[p] for p in fp.free_sel)
                groups.setdefault(key(row), []).append((free, w, len(self.rows)))
                self.rows.append((fp.fid, row))
            bound = [(fp.edge_idx[p], fp.twist[p]) for p in fp.bound_sel]
            free_edges = [(fp.edge_idx[p], fp.twist[p]) for p in fp.free_sel]
            self._factors.append((bound, free_edges, groups))
        self.unit = Fraction(1, scale**m) if exact else 1.0
        # (plan factors, full edges) of each component: a full edge is bound
        # at the one of its two ends that the plan places second
        starts = [i for i, (bound, _, _) in enumerate(self._factors) if not bound]
        self._components = [(range(a, b), [e for bound, _, _ in self._factors[a:b] for e, _ in bound])
                            for a, b in zip(starts, [*starts[1:], len(self._factors)])]

    def configs(self, perm_inv=None, limit=None, part=None):
        """Yield (value, slots, rows) at each valid configuration.

        ``perm_inv`` maps the plan index of a full edge to sigma_e^{-1}; a
        full edge it leaves out carries the identity, so None walks the base
        graph (M = 1) or the cover whose permutations are all the identity.
        With ``part`` = (plan factors, copies) from ``parts``, only that
        part's steps are walked, and ``value`` multiplies its rows alone.
        ``slots`` and ``rows`` are lists reused from one configuration to
        the next.  With ``limit`` set, CapExceeded is raised on reaching
        valid configuration ``limit`` + 1; this is gcb's one bound on the
        configurations of a graph or cover.
        """
        m = self.m
        perm_inv = perm_inv or {}
        factors, copies = part or (range(len(self._factors)), range(m))
        budget = -1 if limit is None else limit  # configurations left to yield

        def slot(e, twisted, k):
            return e * m + (perm_inv[e][k] if twisted and e in perm_inv else k)

        steps = []
        for i in factors:
            bound, free, groups = self._factors[i]
            for k in copies:
                bslots = [slot(e, t, k) for e, t in bound]
                getter = itemgetter(*bslots) if bslots else (lambda slots: ())
                steps.append((getter, [slot(e, t, k) for e, t in free], groups))

        slots = [0] * self.n_slots
        rows = [0] * len(steps)
        if not steps:
            if budget == 0:
                raise CapExceeded(f"more than {limit} valid configurations")
            yield self.one, slots, rows
            return
        last = len(steps) - 1
        prods = [self.one] * len(steps)  # prods[d]: product over steps before d
        iters = [None] * len(steps)
        getter, _, groups = steps[0]
        iters[0] = iter(groups.get(getter(slots), ()))
        d = 0
        while d >= 0:
            free = steps[d][1]
            for symbols, w, row in iters[d]:
                for s, x in zip(free, symbols):
                    slots[s] = x
                rows[d] = row
                value = prods[d] * w
                if d == last:
                    if budget == 0:
                        raise CapExceeded(f"more than {limit} valid configurations")
                    budget -= 1
                    yield value, slots, rows
                    continue
                d += 1
                prods[d] = value
                getter, _, groups = steps[d]
                iters[d] = iter(groups.get(getter(slots), ()))
                break
            else:
                d -= 1

    def parts(self, perm_inv=None):
        """Yield (key, part) for each part of the cover that ``perm_inv``
        maps, as in ``configs``.  A part is one base component C with one
        orbit O of copy indices under the group that the permutations of
        C's full edges generate; its (factor, copy) steps for f in C and k
        in O meet no others, so the cover's Z is the product of its parts'.
        ``part`` = (C's plan factors, O) is what ``configs`` takes, and
        ``key`` = (C, C's edges in ``perm_inv``, canonical permutations) is
        equal for two parts exactly when relabelling copies maps one onto
        the other.  The canonical permutations are the least, over start
        copies in O, of the permutations relabelled from that start
        (``_relabelled``).
        """
        perm_inv = perm_inv or {}
        for c, (factors, edges) in enumerate(self._components):
            edges = tuple([e for e in edges if e in perm_inv])
            perms = [perm_inv[e] for e in edges]
            left = set(range(self.m))
            for k in range(self.m):
                if k in left:
                    orbit, form = _relabelled(perms, k)
                    left.difference_update(orbit)
                    if len(perms) > 1:  # a cycle of one permutation relabels alike from every start
                        form = min(_relabelled(perms, s)[1] for s in orbit)
                    yield (c, edges, form), (factors, orbit)


def _relabelled(perms, start):
    """(order, form): the copies that ``perms`` reach from ``start`` in
    breadth-first order, each copy's images taken in the order of
    ``perms``, and ``perms`` on those copies with copy order[i] renamed i."""
    order, label = [start], {start: 0}
    for k in order:
        for p in perms:
            j = p[k]
            if j not in label:
                label[j] = len(order)
                order.append(j)
    return order, tuple([tuple([label[p[k]] for k in order]) for p in perms])


def cover_sweep(walk: Walk, perm_invs, inv_t, limit: int):
    """Sum the partition functions of the covers given by ``perm_invs``.

    Each item of ``perm_invs`` is a ``Walk.configs`` permutation map.  A
    cover's Z is the product of its parts' sums (``Walk.parts``), and one
    memo per call walks each part key once, so the trivial cover costs one
    walk of each component, not of the M copies together.  A part sums
    ``value`` (``value ** inv_t`` unless inv_t == 1) over its valid
    configurations in the walk's own arithmetic, the covers' Z are added
    in the order listed, and the total is multiplied once by ``walk.unit``
    (``walk.unit ** inv_t``).  Returns (sum over covers of Z, number of
    valid configurations, number of covers), a cover's configurations
    being the product of its parts'.  CapExceeded is raised once one
    cover has more than ``limit`` valid configurations: a part past the
    cap raises unless another part of its cover has none, which makes
    that cover's Z and count 0.
    """
    zero = 0 * walk.one
    sums = {}  # part key -> (Z, valid configurations), limit + 1 past the cap
    total = zero
    n_configs = n_covers = 0
    for perm_inv in perm_invs:
        z, n = walk.one, 1
        for key, part in walk.parts(perm_inv):
            if key not in sums:
                sums[key] = _part_sum(walk.configs(perm_inv, limit, part), inv_t, zero, limit)
            z_part, n_part = sums[key]
            if not n_part:
                z, n = zero, 0
                break
            z *= z_part
            n *= n_part
        if n > limit:
            raise CapExceeded(f"more than {limit} valid configurations")
        total += z
        n_configs += n
        n_covers += 1
    return total * (walk.unit if inv_t == 1 else walk.unit**inv_t), n_configs, n_covers


def _part_sum(configs, inv_t, zero, limit):
    """(Z, valid configurations) of one part's ``configs``; (0, limit + 1)
    once they pass the cap."""
    z = zero
    n = 0
    try:
        for n, (value, _, _) in enumerate(configs, 1):
            z += value if inv_t == 1 else value**inv_t
    except CapExceeded:
        return zero, limit + 1
    return z, n
