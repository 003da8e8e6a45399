"""The evaluation plan: one factor order and support layout per graph.

Every walk over valid configurations in gcb follows this plan, exact or
float, on the base graph or on one of its degree-M covers.  Factors are
visited in a greedy order (the factor sharing the most already-bound edges
first, then the smallest support); each factor's edges split into bound
ones, assigned by earlier factors, and free ones, assigned when one of its
support rows is chosen.  Support rows are sorted by their bound symbols, so
rows agreeing on the bound edges are contiguous.  A cover's edge and factor
copies are index-remapped copies of the base ones, so boundness and row
order carry over unchanged.
"""

from __future__ import annotations

import itertools


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


def build_plan(nfg) -> Plan:
    return Plan(nfg)


def perm_tables(m: int):
    """All permutations of range(m) in lexicographic order, plus inverses."""
    perms = list(itertools.permutations(range(m)))
    return perms, [[p.index(k) for k in range(m)] for p in perms]
