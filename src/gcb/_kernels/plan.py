"""The evaluation plan: one factor order and support layout per graph.

Every walk over valid configurations in gcb follows this plan, exact or
float, on the base graph or on one of its degree-M covers.  Factors are
visited in a greedy order (smallest support first, then the factor sharing
the most already-bound edges); each factor's edges split into bound ones,
assigned by earlier factors, and free ones, assigned when one of its
support rows is chosen.  Support rows are sorted by their bound symbols, so
rows agreeing on the bound edges are contiguous.  A cover's edge and factor
copies are index-remapped copies of the base ones, so boundness and row
order carry over unchanged.

``kernel_arrays`` packs a plan into the contiguous arrays the compiled
cover sweep reads.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np

MAX_GROUP_TABLE = 1 << 20


class FactorPlan:
    """One factor's place in the walk.

    ``edge_idx`` holds the plan edge index of each incident edge and
    ``twist`` is 1 where the factor is the larger endpoint of a full edge,
    whose copy k meets edge copy sigma_e^{-1}(k) in a cover.  ``support``
    and ``weights`` are the table's rows and own values in walk order.
    """

    __slots__ = ("fid", "edge_idx", "twist", "bound_sel", "free_sel", "support", "weights")


class Plan:
    __slots__ = ("sizes", "factors")

    def __init__(self, nfg):
        self.sizes = [nfg.alphabet_sizes[e] for e in nfg.edge_order]
        remaining = set(nfg.factors)
        bound_edges: set[str] = set()
        self.factors = []
        while remaining:
            def score(fid):
                f = nfg.factors[fid]
                shared = sum(1 for e in f.edges if e in bound_edges)
                return (-shared, len(f.table), fid)

            fid = min(remaining, key=score)
            remaining.discard(fid)
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
            bound_edges.update(f.edges)
            self.factors.append(fp)


def build_plan(nfg) -> Plan:
    return Plan(nfg)


def kernel_arrays(plan: Plan):
    """The plan as int64/int8/float64 arrays, or None past the C limits.

    The compiled sweep holds symbols in signed bytes, a factor's slots on a
    64-entry stack array, and one dense offset table per factor indexed by
    the mixed-radix value of its bound symbols: so alphabets up to 127,
    arity up to 64, and group tables up to MAX_GROUP_TABLE entries.
    """
    if max(plan.sizes, default=0) > 127:
        return None
    factors = []
    for fp in plan.factors:
        arity = len(fp.edge_idx)
        bound_sizes = [plan.sizes[fp.edge_idx[p]] for p in fp.bound_sel]
        n_groups = math.prod(bound_sizes)
        if arity > 64 or n_groups > MAX_GROUP_TABLE:
            return None
        kf = SimpleNamespace(
            **{name: np.array(getattr(fp, name), dtype=np.int64)
               for name in ("edge_idx", "twist", "bound_sel", "free_sel")},
            bound_radix=np.array(
                [math.prod(bound_sizes[j + 1:]) for j in range(len(bound_sizes))], dtype=np.int64),
            rows=np.array(fp.support, dtype=np.int8).reshape(len(fp.support), arity),
            values=np.array([float(v) for v in fp.weights], dtype=np.float64),
            n_groups=n_groups,
        )
        keys = kf.rows[:, kf.bound_sel].astype(np.int64) @ kf.bound_radix
        offset = np.zeros(n_groups + 1, dtype=np.int64)
        np.add.at(offset, keys + 1, 1)
        kf.group_offset = np.cumsum(offset)
        factors.append(kf)
    return SimpleNamespace(sizes=np.array(plan.sizes, dtype=np.int64), factors=factors)


def perm_tables(m: int):
    """All permutations of range(m) in lexicographic order, plus inverses."""
    perms = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    inv = np.empty_like(perms)
    for i, p in enumerate(perms):
        inv[i, p] = np.arange(m, dtype=np.int64)
    return perms, inv
