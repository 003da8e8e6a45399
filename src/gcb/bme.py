"""Max-entropy completion of half-edge marginals to full pseudo-marginals.

For parity-check-shaped code graphs the completion decouples: every full
edge touches a repetition factor whose block is pinned by the half-edge
marginal, so the remaining entropy maximization splits into one
exponential-family tilt per check factor.  The tilts of one completion are
solved together, one stacked Newton solve (``bethe.tilt_factor_block``)
per group of equal-shape check blocks, and written straight into the flat
coordinates of the graph's ``bethe._BetaIndex``, the one description of
the local marginal polytope: its constraint rows guard the completion and
its entropy coefficients score it.  What depends on the graph alone (the
pinned slots, each check's rows and log weights) is one ``_Plan``, built
on first use and kept on the graph beside its index (``Nfg.derived``).
The induced entropy of the half-edge marginal vector is the Bethe entropy
of the completed vector.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .bethe import _BetaIndex, tilt_factor_block
from .errors import GcbError, InconsistentBeta, InfeasibleOmega, NonBinaryAlphabet, ShapeMismatch
from .nfg import Nfg


class BmeResult:
    """Completed pseudo-marginals plus the solve diagnostics."""

    __slots__ = ("beta", "h_induced", "check_duals", "iterations")

    def __init__(self, beta, h_induced, check_duals, iterations):
        self.beta = beta
        self.h_induced = h_induced
        self.check_duals = check_duals
        self.iterations = iterations


def _split_variable_check(nfg: Nfg):
    """Variable factors pin their edges; every full edge must touch one."""
    variable = {}
    for e in nfg.half_edges:
        (fid,) = nfg.incidence[e]
        fac = nfg.factors[fid]
        arity = len(fac.edges)
        want = {(0,) * arity, (1,) * arity}
        if set(fac.table) != want or not fac.is_indicator():
            raise GcbError(
                f"factor {fid} on half-edge {e} is not a repetition indicator; "
                "max-entropy completion needs parity-check form"
            )
        variable[fid] = e
    checks = [f for f in sorted(nfg.factors) if f not in variable]
    for f in checks:
        for e in nfg.factors[f].edges:
            ends = nfg.incidence[e]
            if len(ends) != 2 or not any(x in variable for x in ends):
                raise GcbError(
                    f"check factor {f}: edge {e} is not pinned by a repetition factor"
                )
    return variable, checks


class _Check:
    """One check factor in the index's coordinates: the slots of its support
    rows, the rows as 0/1 features (one column per edge), their log
    weights, and the half-edge marginal pinning each edge."""

    __slots__ = ("fid", "edges", "slots", "features", "log_w", "pins")

    def __init__(self, nfg: Nfg, fid, slot_of: dict, pin: dict):
        fac = nfg.factors[fid]
        support = fac.support
        self.fid = fid
        self.edges = fac.edges
        self.slots = np.array([slot_of["f", fid, key] for key in support])
        self.features = np.array(support, dtype=float)
        self.log_w = np.array([math.log(fac.table[key]) for key in support])
        self.pins = np.array([pin[e] for e in fac.edges])


class _Plan:
    """What a completion needs of the graph alone.

    ``half`` orders the half-edge marginals w; slot ``one[i]`` of the index
    holds w[pinned_by[i]] and slot ``zero[i]`` its complement (the
    repetition rows and the edge symbols); ``checks`` are the check factors
    in sorted order.
    """

    def __init__(self, nfg: Nfg):
        for e in nfg.alphabet_sizes:
            if nfg.alphabet_sizes[e] != 2:
                raise NonBinaryAlphabet(f"edge {e} has alphabet size {nfg.alphabet_sizes[e]}")
        variable, checks = _split_variable_check(nfg)
        self.idx = _BetaIndex.of(nfg)
        slot_of = self.idx.slot_of
        self.half = nfg.half_edge_order
        where = {e: i for i, e in enumerate(self.half)}
        pin = {}
        zero, one, pinned_by = [], [], []
        for fid, e in variable.items():
            edges = nfg.factors[fid].edges
            zero.append(slot_of["f", fid, (0,) * len(edges)])
            one.append(slot_of["f", fid, (1,) * len(edges)])
            pinned_by.append(where[e])
            pin.update(dict.fromkeys(edges, where[e]))
        for e in nfg.edge_order:
            zero.append(slot_of["e", e, 0])
            one.append(slot_of["e", e, 1])
            pinned_by.append(pin[e])
        self.zero, self.one, self.pinned_by = np.array(zero), np.array(one), np.array(pinned_by)
        self.checks = [_Check(nfg, fid, slot_of, pin) for fid in checks]


def bme_completion(nfg: Nfg, omega: Mapping[str, object]) -> BmeResult:
    """argmax of the Bethe entropy over completions matching the half-edge marginals.

    ``omega`` maps each half-edge to its probability of symbol one.  An edge
    whose marginal is 0 or 1 forces its symbol, keeping the matching rows of
    each check and dropping the edge from its tilt.  The remaining check
    blocks are grouped by shape and each group is solved by one call of
    the stacked damped Newton ``tilt_factor_block``; an unmatchable
    marginal vector raises InfeasibleOmega.  The completion is written into
    the index's slot vector, must lie in the local marginal polytope to
    1e-8 (InconsistentBeta otherwise), and its Bethe entropy is
    ``h_induced``.  ``iterations`` is the most Newton iterations any check
    took.  The graph keeps its plan (``Nfg.derived``); a graph that fails
    to plan keeps nothing and raises on every call.
    """
    plan = nfg.derived(_Plan, _Plan)
    if set(omega) != set(nfg.half_edges):
        raise ShapeMismatch("omega must assign exactly the half-edges")
    for e, w in omega.items():
        if not 0 <= float(w) <= 1:
            raise InfeasibleOmega(f"omega[{e}] = {w} outside [0, 1]")
    w = np.array([float(omega[e]) for e in plan.half])
    idx = plan.idx
    x = np.zeros(idx.n)
    x[plan.zero] = 1 - w[plan.pinned_by]
    x[plan.one] = w[plan.pinned_by]

    duals = {}
    groups = {}  # block shape -> [(check id, slots, features, log_w, targets, free edges)]
    for c in plan.checks:
        t = w[c.pins]
        forced0, forced1 = t == 0.0, t == 1.0
        free = ~(forced0 | forced1)
        if free.all():
            block = (c.fid, c.slots, c.features, c.log_w, t, c.edges)
        else:
            rows = ~c.features[:, forced0].any(axis=1) & c.features[:, forced1].all(axis=1)
            if not rows.any():
                raise InfeasibleOmega(f"check {c.fid}: no support row matches the forced symbols")
            if not free.any():
                x[c.slots[rows]] = 1.0  # support rows are distinct: exactly one matches
                duals[c.fid] = {}
                continue
            edges = [e for e, keep in zip(c.edges, free) if keep]
            block = (c.fid, c.slots[rows], c.features[rows][:, free], c.log_w[rows], t[free], edges)
        groups.setdefault(block[2].shape, []).append(block)

    iterations = 0
    failed = []
    for blocks in groups.values():
        fids, slots, features, log_w, targets, edges = zip(*blocks)
        res = tilt_factor_block(np.stack(features), np.stack(log_w), np.stack(targets))
        iterations = max(iterations, int(res.steps.max()))
        for b, fid in enumerate(fids):
            x[slots[b]] = res.dist[b]
            duals[fid] = dict(zip(edges[b], res.duals[b]))
        failed += [fid for fid, ok in zip(fids, res.converged) if not ok]
    if failed:
        raise InfeasibleOmega(
            f"check {min(failed)}: marginal matching did not converge; omega is outside "
            "the fundamental polytope or at its boundary"
        )
    if not idx.feasible(x, 1e-8):
        raise InconsistentBeta("completion outside the local marginal polytope")
    check_duals = {c.fid: duals[c.fid] for c in plan.checks}
    return BmeResult(idx.to_beta(x), idx.entropy(x), check_duals, iterations)


def induced_bethe_entropy(nfg: Nfg, omega: Mapping[str, object]) -> float:
    return bme_completion(nfg, omega).h_induced
