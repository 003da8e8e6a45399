"""Pure-Python kernels: the configuration walk and the float cover sweep.

``Walk`` is the only walk over valid configurations in gcb; enumeration,
exact and float cover sums, pre-image counting and the degree-M decoders
all run on it.  ``cover_sweep`` has a compiled twin in ``_fast.pyx`` with
the same semantics; the kernel equivalence tests hold the two to identical
counts and matching sums.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter

from .plan import Plan, perm_tables

IS_COMPILED = False


class Walk:
    """Depth-first walk over the valid configurations of a graph or its M-covers.

    Slot e*M + k holds copy k of plan edge e.  Step i*M + k chooses a
    support row for copy k of plan factor i, looked up by the symbols
    already on its bound edges; its free edges then take the row's
    symbols.  A chosen row is reported as its index into ``rows``, the list
    of (factor id, row) pairs over the plan's factors in order.  Values
    multiply the tables' own values left to right from Fraction(1), so
    rational tables give Fractions; with ``exact=False`` the tables'
    floats multiply from 1.0.
    """

    def __init__(self, plan: Plan, m: int = 1, exact: bool = True):
        self.m = m
        self.n_slots = len(plan.sizes) * m
        self.one = Fraction(1) if exact else 1.0
        self.rows = []
        self._factors = []
        for fp in plan.factors:
            key = itemgetter(*fp.bound_sel) if fp.bound_sel else (lambda row: ())
            groups: dict = {}
            for row, w in zip(fp.support, fp.weights):
                free = tuple(row[p] for p in fp.free_sel)
                groups.setdefault(key(row), []).append((free, w if exact else float(w), len(self.rows)))
                self.rows.append((fp.fid, row))
            bound = [(fp.edge_idx[p], fp.twist[p]) for p in fp.bound_sel]
            free_edges = [(fp.edge_idx[p], fp.twist[p]) for p in fp.free_sel]
            self._factors.append((bound, free_edges, groups))

    def configs(self, perm_inv=None):
        """Yield (value, slots, rows) at each valid configuration.

        ``perm_inv`` maps the plan index of a full edge to sigma_e^{-1}; a
        full edge it leaves out carries the identity, so None walks the base
        graph (M = 1) or the cover whose permutations are all the identity.
        ``slots`` and ``rows`` are lists reused from one configuration to
        the next.
        """
        m = self.m
        perm_inv = perm_inv or {}

        def slot(e, twisted, k):
            return e * m + (perm_inv[e][k] if twisted and e in perm_inv else k)

        steps = []
        for bound, free, groups in self._factors:
            for k in range(m):
                bslots = [slot(e, t, k) for e, t in bound]
                getter = itemgetter(*bslots) if bslots else (lambda slots: ())
                steps.append((getter, [slot(e, t, k) for e, t in free], groups))

        slots = [0] * self.n_slots
        rows = [0] * len(steps)
        if not steps:
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
                    yield value, slots, rows
                    continue
                d += 1
                prods[d] = value
                getter, _, groups = steps[d]
                iters[d] = iter(groups.get(getter(slots), ()))
                break
            else:
                d -= 1


def cover_sweep(plan: Plan, full_edge_idx, m: int, inv_t: float, start: int, stop: int):
    """Sweep covers [start, stop) in odometer order over the permutations of
    the full edges listed in ``full_edge_idx``; full edges not listed keep
    the identity.

    Returns (sum over covers of Z, sum over covers of |valid configs|,
    number of covers visited).  Z is the sum of global value ** inv_t of the
    cover, in floats; permutation digits use lexicographic (Lehmer) order
    with the last listed edge's digit moving fastest.
    """
    _, inv = perm_tables(m)
    walk = Walk(plan, m, exact=False)
    full = [int(e) for e in full_edge_idx]
    zsum_total = 0.0
    count_total = 0
    n = 0
    for digits in itertools.islice(itertools.product(inv.tolist(), repeat=len(full)), start, stop):
        zsum = 0.0
        for value, _, _ in walk.configs(dict(zip(full, digits))):
            count_total += 1
            zsum += value if inv_t == 1.0 else value**inv_t
        zsum_total += zsum
        n += 1
    return zsum_total, count_total, n
