"""Pure-Python kernels: the configuration walk and the cover sweep.

``Walk`` is the only walk over valid configurations in gcb; enumeration,
exact and float cover sums, pre-image counting and the decoding rules, MAP
decoding included, all run on it; exact walks on rational tables multiply
scaled ints, times ``Walk.unit`` once per sum, and the ``limit`` of
``Walk.configs`` is the one configuration cap they check.  ``cover_sweep``
is the one sum over covers, for both precisions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from ..errors import CapExceeded
from .plan import Plan


def lcm_scaled(values):
    """(ints, L): rational ``values`` times L, the LCM of their denominators."""
    lcm = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (lcm // v.denominator) for v in values], lcm


class Walk:
    """Depth-first walk over the valid configurations of a graph or its M-covers.

    Slot e*M + k holds copy k of plan edge e.  Step i*M + k chooses a
    support row for copy k of plan factor i, looked up by the symbols
    already on its bound edges; its free edges then take the row's
    symbols.  A chosen row is reported as its index into ``rows``, the list
    of (factor id, row) pairs over the plan's factors in order.  Values
    multiply the rows' ``weights`` left to right, and ``value * unit`` is
    the global value.  When every table is rational, exact mode scales each
    to ints by the LCM L of its denominators (``unit`` = 1 / prod L^M, a
    Fraction); with a float table it keeps the tables' own values (``unit``
    = 1), since an int product past 1e308 cannot meet a float.  With
    ``exact=False`` all are floats and ``unit`` is 1.0.
    """

    def __init__(self, plan: Plan, m: int = 1, exact: bool = True):
        self.m = m
        self.n_slots = len(plan.sizes) * m
        self.one = 1 if exact else 1.0
        self.rows = []
        self.weights = []
        self._factors = []
        rational = exact and all(isinstance(w, (int, Fraction)) for fp in plan.factors for w in fp.weights)
        scale = 1
        for fp in plan.factors:
            weights = fp.weights if exact else [float(w) for w in fp.weights]
            if rational:
                weights, lcm = lcm_scaled(weights)
                scale *= lcm
            key = itemgetter(*fp.bound_sel) if fp.bound_sel else (lambda row: ())
            groups: dict = {}
            for row, w in zip(fp.support, weights):
                free = tuple(row[p] for p in fp.free_sel)
                groups.setdefault(key(row), []).append((free, w, len(self.rows)))
                self.rows.append((fp.fid, row))
                self.weights.append(w)
            bound = [(fp.edge_idx[p], fp.twist[p]) for p in fp.bound_sel]
            free_edges = [(fp.edge_idx[p], fp.twist[p]) for p in fp.free_sel]
            self._factors.append((bound, free_edges, groups))
        self.unit = Fraction(1, scale**m) if exact else 1.0

    def configs(self, perm_inv=None, limit=None):
        """Yield (value, slots, rows) at each valid configuration.

        ``perm_inv`` maps the plan index of a full edge to sigma_e^{-1}; a
        full edge it leaves out carries the identity, so None walks the base
        graph (M = 1) or the cover whose permutations are all the identity.
        ``slots`` and ``rows`` are lists reused from one configuration to
        the next.  With ``limit`` set, CapExceeded is raised on reaching
        valid configuration ``limit`` + 1; this is gcb's one bound on the
        configurations of a graph or cover.
        """
        m = self.m
        perm_inv = perm_inv or {}
        budget = -1 if limit is None else limit  # configurations left to yield

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


def cover_sweep(walk: Walk, perm_invs, inv_t, limit: int):
    """Sum the partition functions of the covers given by ``perm_invs``.

    Each item of ``perm_invs`` is a ``Walk.configs`` permutation map.  A
    cover's Z sums ``value`` (``(value * unit) ** inv_t`` unless inv_t == 1)
    over its valid configurations in the walk's own arithmetic, the covers'
    Z are added in the order listed, and at inv_t == 1 the total is
    multiplied by ``walk.unit`` once.  Returns (sum over covers of Z, number
    of valid configurations, number of covers); the walk raises CapExceeded
    once one cover has more than ``limit`` valid configurations.
    """
    unit = walk.unit
    zero = 0 * walk.one
    total = zero
    n_configs = n_covers = 0
    for perm_inv in perm_invs:
        z = zero
        n = 0
        for n, (value, _, _) in enumerate(walk.configs(perm_inv, limit), 1):
            z += value if inv_t == 1 else (value * unit) ** inv_t
        total += z
        n_configs += n
        n_covers += 1
    return (total * unit if inv_t == 1 else total), n_configs, n_covers
