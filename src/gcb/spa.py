"""Sum-product algorithm on normal factor graphs, flooding schedule.

Messages live on (factor, edge) pairs and are normalized to sum to one
after every sweep, so fixed points are well defined.  At temperature T the
local values are raised to 1/T first; fixed points then correspond to
stationary points of the Bethe free energy at that temperature.

A run works on one flat float vector (``_FlatLayout``) laid over the
graph's ``bethe._BetaIndex``, the one description of the local marginal
polytope: the directed messages, one entry per marginal row of the index
in its row order (the log messages are those rows' multipliers, see
``_BetaIndex.gap``), a constant 1.0, then the weight of each index factor
row whose weight ** (1/T) is not 0.  The index numbers the entries and
pairs each with the entry at the edge's other end (``partner``); the
layout reads both off it.  The layout holds only structure, and the one of
every row is kept on the index (``_BetaIndex.layout``), one per graph
structure, so ``minimize_bethe``'s starts and a code's decoding graphs
share it; a run supplies its own weights (``_BetaIndex.weighed_on``).
``gather`` is one contiguous (arity + 1, rows) index array, so row r's
terms, its weight and then its incoming entries, are
``vec[gather[:, r]]``, and all row products are one ``multiply.reduce``
down the short axis: the weight times the first entry, then times each
later entry in turn, the order of the per-row loop that
``tests/test_spa.py`` keeps as the oracle.  Each step does the loop's
arithmetic in the loop's order, so every result is bit-identical to it:

- the arity-wise product above, which the beliefs reuse;
- product / entry at each position while every message is positive (an
  entry is a message or the constant 1.0), and the product with the entry
  left out (under ``errstate``) only at the entries that are not (a zero
  message, or a NaN);
- ``bincount`` sums in row order, each message block receiving only its
  own factor's rows, in sorted order, and a division of each block by its
  sum (one column add at size 2, else ``np.add.reduce``, as
  ``ndarray.sum``), with the uniform message only on blocks whose sum is
  not positive; the blocks of one alphabet size are contiguous, so a size
  class is one (blocks, size) view of the vector, and its output view is
  built once per run;
- the beliefs placed in the index's coordinates (``_FlatLayout.x``), read
  back as pseudo-marginals by the index and, in a ``collect_trace`` run,
  scored by its free energy after each sweep.

``SpaState.messages`` hands out the final messages as a dict keyed by
(factor, edge) in ``nfg.factors`` / ``f.edges`` order, each a view into the
flat vector.
"""

from __future__ import annotations

import itertools

import numpy as np

from .gibbs import inverse_temperature
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


class _FlatLayout:
    """Index arrays of one flat vector over a ``bethe._BetaIndex`` and a
    set of kept rows, read off the index alone; the one of every row is
    kept on the index (``_BetaIndex.layout``).

    The vector's first entries are the index's marginal rows: the message
    (factor, edge) at symbol s sits at ``marginal_row[factor, edge] + s -
    n_sums``, so the blocks of one alphabet size are contiguous and the
    message into a row sits at its ``partner``.  ``blocks`` lists (key,
    start, end) in the index's ``pairs`` order, and ``groups``
    (start, end, size) per size.  Then, at index ``one``, a constant 1.0
    that stands in for the incoming message on a half-edge and pads short
    rows; then the weights of the kept rows: the index's factor slots
    whose ``weights`` ** (1/T) are not 0, with ``slots`` their slot
    numbers.

    ``gather[0, r]`` indexes row r's weight and ``gather[1 + k, r]`` its
    incoming entry at position k; ``scatter`` holds, in the order of
    ``gather[1:].ravel()``, the outgoing message index of each position
    (padding goes to ``one``, whose sum is discarded).  ``row_factor``
    holds each row's factor number, and ``edge_ends`` the two message
    entries whose product is each edge symbol's score (``one`` for the
    missing end of a half-edge), and ``edge_groups`` the index array of
    the edge symbols of each alphabet size, one row per edge.  The layout
    holds no graph, index or weights.
    """

    def __init__(self, index, slots):
        sizes = index.sizes
        n_f, n_sums = len(index.factor_slots), index.n_sums
        self.n_index, self.n_factor_slots = index.n, n_f
        n = self.one = len(index.rhs) - n_sums
        start = {key: row - n_sums for key, row in index.marginal_row.items()}
        self.blocks = [(key, start[key], start[key] + sizes[key[1]]) for key in index.pairs]
        groups: dict = {}
        for (_, e), lo in start.items():
            groups.setdefault(sizes[e], []).append(lo)
        self.groups = [(los[0], los[-1] + size, size) for size, los in groups.items()]

        def into(rows):  # the entry of the message into each row: its partner's, or `one`
            other = index.partner[rows]
            return np.where(other != rows, other - n_sums, n)

        # the kept rows in slot order, each with its marginal rows, one per
        # edge of its factor, padded to `arity` with `one`.  A block receives
        # only its own factor's rows, in sorted order, so every sum adds the
        # same terms in the same order whatever the factor order.
        self.slots = slots
        self.row_factor = index.rows[:n_f][slots]
        entry_slot, entry_row = index.entries
        rows = entry_row[np.isin(entry_slot, slots)]
        arities = np.bincount(entry_slot, minlength=n_f)[slots]
        arity = int(arities.max(initial=0))
        real = np.arange(arity) < arities[:, None]
        out, incoming = np.full((2, len(slots), arity), n, dtype=np.intp)
        out[real], incoming[real] = rows - n_sums, into(rows)
        self.gather = np.empty((arity + 1, len(slots)), dtype=np.intp)
        self.gather[0] = np.arange(n + 1, n + 1 + len(slots))
        self.gather[1:] = incoming.T
        self.scatter = out.T.ravel()
        self.row_uniform = 1.0 / np.bincount(self.row_factor)[self.row_factor]

        # edge symbols, edge_order then symbol order: each one's message at
        # its first endpoint, and the message into that row
        self.edge_ends = np.array([index.edge_row - n_sums, into(index.edge_row)])
        edge_sizes = np.array([sizes[e] for e in index.edge_order], dtype=np.intp)
        edge_starts = np.cumsum(edge_sizes) - edge_sizes
        self.edge_uniform = 1.0 / np.repeat(edge_sizes, edge_sizes)
        self.edge_groups = [edge_starts[edge_sizes == size][:, None] + np.arange(size)
                            for size in np.unique(edge_sizes).tolist()]

    def vector(self, weights, rng=None):
        """The starting vector for the kept rows' ``weights``: uniform
        messages, or with ``rng`` each block drawn from U(0.2, 1) in
        ``blocks`` order and divided by its sum."""
        n = self.one
        vec = np.empty(n + 1 + len(weights))
        vec[n] = 1.0
        vec[n + 1:] = weights
        if rng is None:
            vec[:n] = 1.0  # ones over their sum: 1 / |alphabet|
        else:
            placed = itertools.chain.from_iterable(range(lo, hi) for _, lo, hi in self.blocks)
            vec[np.fromiter(placed, np.intp, n)] = rng.uniform(0.2, 1.0, n)
        for lo, hi, size in self.groups:
            v = vec[lo:hi].reshape(-1, size)
            v /= np.add.reduce(v, axis=1, keepdims=True)
        return vec

    def messages(self, vec):
        return {key: vec[lo:hi] for key, lo, hi in self.blocks}

    def products(self, vec, terms=None, total=None):
        """(terms, products): each kept row's weight and incoming entries,
        and their product, multiplied left to right, into ``terms`` and
        ``total`` when given."""
        terms = vec.take(self.gather, out=terms, mode="clip")  # in range: no buffer
        return terms, np.multiply.reduce(terms, axis=0, out=total)

    def belief_arrays(self, vec):
        """Row and edge-symbol beliefs of a vector: each row's product over
        its factor's ``bincount`` sum, and each edge symbol's product of its
        two messages over its edge's sum, or uniform on the factor's kept
        rows or the edge's symbols where that sum is not positive."""
        scores = self.products(vec)[1]
        totals = np.bincount(self.row_factor, scores)
        edge_v = vec[self.edge_ends[0]] * vec[self.edge_ends[1]]
        edge_totals = np.empty_like(edge_v)
        for idx in self.edge_groups:
            edge_totals[idx] = np.add.reduce(edge_v.take(idx), axis=1, keepdims=True)
        return (
            _over(scores, totals[self.row_factor], self.row_uniform),
            _over(edge_v, edge_totals, self.edge_uniform),
        )

    def x(self, vec) -> np.ndarray:
        """``belief_arrays`` in the index's coordinates: each kept row's
        belief at its slot, 0 at the dropped rows, then the edge symbols."""
        row_b, edge_b = self.belief_arrays(vec)
        x = np.zeros(self.n_index)
        x[self.slots] = row_b
        x[self.n_factor_slots:] = edge_b
        return x


def layout(index, weights) -> _FlatLayout:
    """The layout of the rows whose ``weights`` are not 0: when that is
    every row, the index's own (``_BetaIndex.layout``), else
    (``weights ** (1/T)`` underflowed) a new one."""
    slots = np.flatnonzero(weights)
    return _FlatLayout(index, slots) if len(slots) < len(weights) else index.layout


def _over(values, totals, uniform, out=None):
    """values / totals, or ``uniform`` where the total is not positive;
    written into ``out`` when given."""
    if np.minimum.reduce(totals, axis=None, initial=1.0) > 0.0:
        return np.divide(values, totals, out=out)
    pos = totals > 0
    out = np.divide(values, np.where(pos, totals, 1.0), out=out)
    np.copyto(out, uniform, where=~pos)
    return out


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

    The run's layout (``layout``) reads its rows off the graph's
    ``_BetaIndex``, and the beliefs are ``_BetaIndex.to_beta`` of the final vector's
    ``_FlatLayout.x``; edge beliefs use the product of the two directed
    messages on full edges.  Non-convergence is reported in the state,
    never raised; a T outside (0, inf) or a negative ``max_iters`` or
    ``tol`` raises ValueError.  ``collect_trace`` records (iteration,
    residual, free energy) per sweep for convergence studies: the free
    energy is ``_BetaIndex.free_energy`` of that sweep's x, whose factor
    rows are in [0, 1] but only approximately consistent mid-run.

    One sweep gathers each kept row's weight and incoming entries as one
    (arity + 1, rows) array and multiplies down its short axis, left to
    right.  When every message is positive, so is every entry (a message
    or the constant 1.0), and each position receives product / entry;
    otherwise, under ``errstate``, the entries that are not positive (zero
    or NaN) receive the product with that entry left out.
    ``bincount`` adds the contributions in row order, and each block is
    divided by its sum (one column add at size 2, and a pairwise sum from
    8 entries on, exactly as ``ndarray.sum``), one contiguous (blocks,
    size) view per alphabet size, directly when every block sum of that
    size is positive, else (``_over``) with the uniform message on the
    blocks whose sum is not.
    The sweep writes into arrays and views made once per run.  So the
    messages, residuals, sweep counts, beliefs and trace are bit-identical
    to the plain per-row loop kept in the tests as ``reference_sum_product``.
    """
    from .bethe import _BetaIndex  # bethe imports this module

    inv_t = inverse_temperature(temperature)
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")
    if not tol >= 0.0:
        raise ValueError("tol must be non-negative")
    index, weights, energy = _BetaIndex.weighed_on(nfg)
    weights = weights if inv_t == 1 else weights**inv_t
    lay = layout(index, weights)
    vec = lay.vector(weights[lay.slots], init_rng)
    n = lay.one
    old = vec[:n]
    terms, total = np.empty(lay.gather.shape), np.empty(lay.gather.shape[1])
    contrib, new, diff = np.empty_like(terms[1:]), np.empty(n), np.empty(n)
    outs = [(lo, hi, new[lo:hi].reshape(-1, size)) for lo, hi, size in lay.groups]
    entries = terms[1:]
    residual = float("inf")
    iterations = 0
    trace = [] if collect_trace else None
    for iterations in range(1, max_iters + 1):
        lay.products(vec, terms, total)
        if np.minimum.reduce(old, initial=1.0) > 0.0:  # each entry is a message or 1.0
            np.divide(total, entries, out=contrib)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(total, entries, out=contrib)
            k, r = np.nonzero(~(entries > 0.0))
            rest = terms[:, r]
            rest[k + 1, np.arange(len(r))] = 1.0
            contrib[k, r] = np.multiply.reduce(rest, axis=0)
        sums = np.bincount(lay.scatter, contrib.ravel(), minlength=n + 1)
        for lo, hi, out in outs:
            v = sums[lo:hi].reshape(out.shape)
            if out.shape[1] == 2:  # one column add, as ndarray.sum adds two entries
                block_sums = (v[:, 0] + v[:, 1])[:, None]
            else:
                block_sums = np.add.reduce(v, axis=1, keepdims=True)
            if np.minimum.reduce(block_sums, axis=None) > 0.0:
                np.divide(v, block_sums, out=out)
            else:
                _over(v, block_sums, 1.0 / out.shape[1], out)
        np.absolute(np.subtract(new, old, out=diff), out=diff)
        residual = float(np.maximum.reduce(diff, initial=0.0))
        if damping > 0.0:
            np.add(np.multiply(new, 1.0 - damping, out=new), np.multiply(old, damping, out=diff), out=old)
        else:
            old[...] = new
        if trace is not None:
            trace.append((iterations, residual, index.free_energy(lay.x(vec), energy, temperature)))
        if residual <= tol:
            break
    state = SpaState(lay.messages(vec), iterations, damping, residual, residual <= tol, trace)
    return state, index.to_beta(lay.x(vec))
