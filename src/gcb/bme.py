"""Max-entropy completion of half-edge marginals to full pseudo-marginals.

For parity-check-shaped code graphs the completion decouples: every full
edge touches a repetition factor whose block is pinned by the half-edge
marginal, so the remaining entropy maximization splits into one
exponential-family tilt per check factor.  The tilts of one completion are
solved together, one stacked Newton solve (``bethe.tilt_factor_block``)
per group of equal-shape check blocks, each started at the independent-bit
duals log(w / (1 - w)) of its edges, and written straight into the flat
coordinates of the graph's ``bethe._BetaIndex``, the one description of
the local marginal polytope: its constraint rows guard the completion and
its entropy coefficients score it.  What depends on the graph alone (the
pinned slots, and the checks' rows and log weights stacked by block
shape) is one ``_Plan``, built on first use and kept on the graph beside
its index weights (``Nfg.derived``); every group goes to the solve as the
plan stacked it, with the edges that a marginal of 0 or 1 forces masked.
The induced entropy of the half-edge marginal vector is the Bethe entropy
of the completed vector.
"""

from __future__ import annotations

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


def _span_projector(features, live):
    """Orthogonal projector (blocks, edges, edges) onto the span of each
    block's centred features, the differences between its ``live`` rows.
    Duals that differ along the complement give the same distribution, so
    the projected duals are the minimum-norm ones."""
    ref = features[np.arange(len(features)), live.argmax(axis=1)]
    centred = (features - ref[:, None, :]) * live[:, :, None]
    return np.linalg.pinv(centred) @ centred


class _Group:
    """The check factors of one block shape, stacked in sorted order: their
    ids and edges, the slots of their support rows (checks, rows), the rows
    as 0/1 features (checks, rows, edges), their log weights (checks,
    rows; minus the index's energy at their slots), the half-edge marginal pinning each edge (checks, edges), and
    the projector of each all-free block's duals (``_span_projector``).  A
    completion masks the forced edges in this stack and hands it to the
    tilt as one call."""

    __slots__ = ("fids", "edges", "slots", "features", "log_w", "pins", "proj")

    def __init__(self, nfg: Nfg, fids: list, idx: _BetaIndex, energy: np.ndarray, pin: dict):
        factors = [nfg.factors[f] for f in fids]
        supports = [fac.support for fac in factors]
        self.fids = fids
        self.edges = [fac.edges for fac in factors]
        self.slots = np.array([[idx.slot_of["f", f, key] for key in rows] for f, rows in zip(fids, supports)])
        self.features = np.array(supports, dtype=float)
        self.log_w = -energy[self.slots]
        self.pins = np.array([[pin[e] for e in fac.edges] for fac in factors])
        self.proj = _span_projector(self.features, np.ones(self.log_w.shape, dtype=bool))


class _Plan:
    """What a completion needs of the graph alone.

    ``half`` orders the half-edge marginals w; slot ``one[i]`` of the index
    holds w[pinned_by[i]] and slot ``zero[i]`` its complement (the
    repetition rows and the edge symbols); ``checks`` are the check factors
    in sorted order, and ``groups`` stack them by block shape.
    """

    def __init__(self, nfg: Nfg):
        for e in nfg.alphabet_sizes:
            if nfg.alphabet_sizes[e] != 2:
                raise NonBinaryAlphabet(f"edge {e} has alphabet size {nfg.alphabet_sizes[e]}")
        variable, checks = _split_variable_check(nfg)
        self.idx, _, energy = _BetaIndex.weighed_on(nfg)
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
        self.checks = checks
        by_shape = {}
        for fid in checks:
            fac = nfg.factors[fid]
            by_shape.setdefault((len(fac.table), len(fac.edges)), []).append(fid)
        self.groups = [_Group(nfg, fids, self.idx, energy, pin) for fids in by_shape.values()]


def bme_completion(nfg: Nfg, omega: Mapping[str, object]) -> BmeResult:
    """argmax of the Bethe entropy over completions matching the half-edge marginals.

    ``omega`` maps each half-edge to its probability of symbol one.  An edge
    whose marginal is 0 or 1 forces its symbol: in its check's block its
    feature column and target are held at 0, so its Newton step is 0, and
    each row that disagrees with the symbol gets log weight -inf, so
    probability 0.  Each plan group is then one call of the stacked damped
    Newton ``tilt_factor_block``.  A check that no row matches raises
    InfeasibleOmega, naming the smallest such check, before any tilt runs;
    so does a tilt that does not converge.  ``check_duals`` holds the
    duals of the free edges only, the minimum-norm ones where a block's
    live rows leave them a flat direction (``_span_projector``).  The
    completion is written into the index's slot vector, must lie in the
    local marginal polytope to 1e-8 (InconsistentBeta otherwise), and its
    Bethe entropy is ``h_induced``.  ``iterations`` is the most Newton
    iterations any check with a free edge took (0 when every edge is
    forced).  The graph keeps its plan (``Nfg.derived``); a graph that
    fails to plan keeps nothing and raises on every call.
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

    stacks, unmatched = [], []
    for g in plan.groups:
        targets = w[g.pins]
        free = (targets != 0.0) & (targets != 1.0)
        if free.all():
            stacks.append((g, g.features, g.log_w, targets, free, g.proj))
            continue
        miss = ((g.features != targets[:, None, :]) & ~free[:, None, :]).any(axis=2)
        unmatched += [fid for fid, bad in zip(g.fids, miss.all(axis=1)) if bad]
        features, forced = g.features * free[:, None, :], ~free.all(axis=1)
        proj = g.proj.copy()
        proj[forced] = _span_projector(features[forced], ~miss[forced])
        stacks.append((g, features, np.where(miss, -np.inf, g.log_w), targets * free, free, proj))
    if unmatched:
        raise InfeasibleOmega(f"check {min(unmatched)}: no support row matches the forced symbols")

    duals, iterations, failed = {}, 0, []
    for g, features, log_w, targets, free, proj in stacks:
        res = tilt_factor_block(features, log_w, targets)
        iterations = max(iterations, int(res.steps.max(initial=0, where=free.any(axis=1))))
        x[g.slots] = res.dist
        lams = (proj @ res.duals[:, :, None])[:, :, 0]
        for fid, edges, lam, keep in zip(g.fids, g.edges, lams, free):
            duals[fid] = {e: d for e, d, k in zip(edges, lam, keep) if k}
        failed += [fid for fid, ok in zip(g.fids, res.converged) if not ok]
    if failed:
        raise InfeasibleOmega(
            f"check {min(failed)}: marginal matching did not converge; omega is outside "
            "the fundamental polytope or at its boundary"
        )
    if not idx.feasible(x, 1e-8):
        raise InconsistentBeta("completion outside the local marginal polytope")
    check_duals = {fid: duals[fid] for fid in plan.checks}
    return BmeResult(idx.to_beta(x), idx.entropy(x), check_duals, iterations)


def induced_bethe_entropy(nfg: Nfg, omega: Mapping[str, object]) -> float:
    return bme_completion(nfg, omega).h_induced
