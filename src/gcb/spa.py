"""Sum-product algorithm on normal factor graphs, flooding schedule.

Messages live on (factor, edge) pairs and are normalized to sum to one
after every sweep, so fixed points are well defined.  At temperature T the
local values are raised to 1/T first; fixed points then correspond to
stationary points of the Bethe free energy at that temperature.

A run works on flat numpy arrays (``_FlatLayout``): all directed messages
in one vector, and one row of gather/scatter indices per non-zero table
row, so a sweep is a fixed handful of array operations with no Python loop
over rows, and the beliefs are read off the same arrays.  The arithmetic
is the per-row loop's, in the same order, so results are bit-identical to
that loop (kept in ``tests/test_spa.py`` as the oracle).  A
``collect_trace`` run reads its free energy off ``bethe._BetaIndex``, the
one description of the local marginal polytope.  ``SpaState.messages``
hands out the final messages as a dict keyed by (factor, edge), each a
view into the flat vector.
"""

from __future__ import annotations

import numpy as np

from .covers import PseudoMarginals
from .nfg import Nfg


class SpaState:
    """Messages plus convergence bookkeeping for one run."""

    __slots__ = ("messages", "iterations", "damping", "residual", "converged", "trace")

    def __init__(self, messages, iterations, damping, residual, converged, trace=None):
        self.messages = messages
        self.iterations = iterations
        self.damping = damping
        self.residual = residual
        self.converged = converged
        self.trace = trace

    def trace_csv(self) -> str:
        lines = ["iteration,residual,f_bethe"]
        for it, res, f in self.trace or []:
            lines.append(f"{it},{res:.12g},{f:.12g}")
        return "\n".join(lines) + "\n"


def _factor_weights(nfg: Nfg, temperature: float):
    inv_t = 1.0 / float(temperature)
    weights = {}
    for fid, f in nfg.factors.items():
        rows = sorted(f.table)
        vals = np.array([float(f.table[k]) for k in rows], dtype=float)
        if inv_t != 1.0:
            vals = vals**inv_t
        weights[fid] = (rows, vals)
    return weights


def _initial_messages(nfg: Nfg, rng=None):
    msgs = {}
    for fid, f in nfg.factors.items():
        for e in f.edges:
            size = nfg.alphabet_sizes[e]
            if rng is None:
                v = np.full(size, 1.0 / size)
            else:
                v = rng.uniform(0.2, 1.0, size)
                v /= v.sum()
            msgs[(fid, e)] = v
    return msgs


class _FlatLayout:
    """Index arrays of one flat message vector, built once per run.

    Every directed message (factor, edge), in ``nfg.factors`` / ``f.edges``
    order, owns the block ``start .. start + |alphabet|`` of one float
    vector; its last entry, index ``one``, is a constant 1.0 that stands in
    for the incoming message on a half-edge and pads short rows.  Each
    support row with a non-zero weight is one row of ``gather`` (incoming
    message index per position) and ``scatter`` (outgoing message index
    per position; padding goes to ``one``, whose sum is discarded).
    ``factor_rows`` holds each factor's kept rows, in ``gather`` order, and
    ``row_factor`` the factor number of each ``gather`` row; ``edge_blocks``
    holds each edge's alphabet size and the starts of its directed messages.
    """

    def __init__(self, nfg: Nfg, weights):
        sizes = nfg.alphabet_sizes
        self.blocks = []
        start = {}
        n = 0
        for fid, f in nfg.factors.items():
            for e in f.edges:
                start[(fid, e)] = n
                self.blocks.append(((fid, e), n, n + sizes[e]))
                n += sizes[e]
        self.one = n
        arity = max((len(f.edges) for f in nfg.factors.values()), default=0)
        empty = np.zeros((0, arity), dtype=np.intp)
        gathers, scatters, ws = [empty], [empty], [np.zeros(0)]
        self.factor_rows = []
        for fid, f in nfg.factors.items():
            rows, vals = weights[fid]
            keep = vals != 0.0
            self.factor_rows.append((fid, [row for row, k in zip(rows, keep) if k]))
            sym = np.array(rows, dtype=np.intp).reshape(len(rows), len(f.edges))[keep]
            ins = []
            for e in f.edges:
                ends = nfg.incidence[e]
                if len(ends) == 1:
                    ins.append(-1)
                else:
                    other = ends[0] if ends[1] == fid else ends[1]
                    ins.append(start[(other, e)])
            ins = np.array(ins, dtype=np.intp)
            outs = np.array([start[(fid, e)] for e in f.edges], dtype=np.intp)
            pad = np.full((len(sym), arity - len(f.edges)), n, dtype=np.intp)
            gathers.append(np.hstack([np.where(ins < 0, n, ins + sym), pad]))
            scatters.append(np.hstack([outs + sym, pad]))
            ws.append(vals[keep])
        self.gather = np.vstack(gathers)
        self.scatter = np.vstack(scatters).ravel()
        self.weights = np.concatenate(ws)
        self.row_factor = np.repeat(np.arange(len(self.factor_rows)), [len(r) for _, r in self.factor_rows])
        self.edge_blocks = [
            (e, sizes[e], [start[(fid, e)] for fid in nfg.incidence[e]]) for e in nfg.edge_order
        ]
        # blocks of equal size, normalised together with a row sum per block
        by_size = {}
        for _, lo, hi in self.blocks:
            by_size.setdefault(hi - lo, []).append(lo)
        self.groups = [
            (np.array(los, dtype=np.intp)[:, None] + np.arange(size), size)
            for size, los in by_size.items()
        ]

    def vector(self, msgs):
        return np.concatenate([msgs[key] for key, _, _ in self.blocks] + [np.ones(1)])

    def messages(self, vec):
        return {key: vec[lo:hi] for key, lo, hi in self.blocks}

    def beliefs(self, vec) -> PseudoMarginals:
        """Factor and edge beliefs of a message vector: a row's weight times
        its gathered incoming entries, left to right, over its factor's
        ``bincount`` row sum, and an edge's product of its directed messages
        over their sum."""
        scores = np.cumprod(np.hstack([self.weights[:, None], vec[self.gather]]), axis=1)[:, -1]
        totals = np.bincount(self.row_factor, scores, minlength=len(self.factor_rows))
        parts = np.split(scores, np.cumsum([len(rows) for _, rows in self.factor_rows])[:-1])
        factor_dists = {
            fid: _normalised(rows, part, total)
            for (fid, rows), part, total in zip(self.factor_rows, parts, totals)
        }
        edge_dists = {}
        for e, size, starts in self.edge_blocks:
            v = np.prod([vec[lo:lo + size] for lo in starts], axis=0)
            edge_dists[e] = _normalised(range(size), v, v.sum())
        return PseudoMarginals(factor_dists, edge_dists)


def _normalised(keys, values, total) -> dict:
    """value / total for each positive value, or uniform on keys when total is 0."""
    if total > 0:
        return {key: v / total for key, v in zip(keys, values) if v > 0}
    return {key: 1.0 / len(keys) for key in keys}


def sum_product(
    nfg: Nfg,
    max_iters: int = 1000,
    damping: float = 0.0,
    tol: float = 1e-12,
    temperature: float = 1.0,
    init_rng=None,
    collect_trace: bool = False,
):
    """Run flooding sum-product; returns (SpaState, beliefs).

    Beliefs are read off the final message vector (``_FlatLayout.beliefs``);
    edge beliefs use the product of the two directed messages on full
    edges.  Non-convergence is reported in the state, never raised.
    ``collect_trace`` records (iteration, residual, free energy) per sweep
    for convergence studies; the free energy is ``_BetaIndex.free_energy``
    of that sweep's beliefs, which are support rows with entries in [0, 1]
    but only approximately consistent mid-run.

    One sweep works on the flat message vector of ``_FlatLayout``: a row's
    product is the left-to-right ``cumprod`` of its weight and incoming
    entries, each position receives product / entry (or, where the entry is
    zero, the product with that entry left out), ``bincount`` adds the
    contributions in row order, and each block is divided by its row sum
    (a pairwise sum from 8 entries on, exactly as ``ndarray.sum``).  So the
    messages, residuals and sweep counts are bit-identical to the plain
    per-row loop kept in the tests as ``reference_sum_product``.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    lay = _FlatLayout(nfg, _factor_weights(nfg, temperature))
    msgs = lay.vector(_initial_messages(nfg, init_rng))
    n = lay.one
    terms = np.empty((len(lay.weights), lay.gather.shape[1] + 1))  # [w, p0, p1, ...]
    terms[:, 0] = lay.weights
    residual = float("inf")
    iterations = 0
    trace = None
    if collect_trace:
        from .bethe import _BetaIndex

        trace, index = [], _BetaIndex(nfg)
    for iterations in range(1, max_iters + 1):
        prods = msgs[lay.gather]
        terms[:, 1:] = prods
        total = np.cumprod(terms, axis=1)[:, -1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = total / prods
        r, c = np.nonzero(~(prods > 0.0))
        if len(r):
            rest = terms[r]
            rest[np.arange(len(r)), c + 1] = 1.0
            contrib[r, c] = np.cumprod(rest, axis=1)[:, -1]
        sums = np.bincount(lay.scatter, contrib.ravel(), minlength=n + 1)
        new = np.empty(n + 1)
        new[n] = 1.0
        for idx, size in lay.groups:
            v = sums[idx]
            norm = v.sum(axis=1, keepdims=True)
            pos = norm > 0
            new[idx] = np.where(pos, v / np.where(pos, norm, 1.0), 1.0 / size)
        residual = float(np.max(np.abs(new[:n] - msgs[:n]), initial=0.0))
        if damping > 0.0:
            new[:n] = (1.0 - damping) * new[:n] + damping * msgs[:n]
        msgs = new
        if trace is not None:
            trace.append((iterations, residual, index.free_energy(index.to_vector(lay.beliefs(msgs)), temperature)))
        if residual <= tol:
            break
    state = SpaState(lay.messages(msgs), iterations, damping, residual, residual <= tol, trace)
    return state, lay.beliefs(msgs)
