"""Channel-coding layer: code graphs, channels, and the decoders.

Parity-check matrices become graphs with one repetition factor per column
(carrying the observable half-edge) and one parity factor per row.
Attaching a channel converts each half-edge into a full edge terminated by
a unary likelihood factor.  Decoding then has two rules, both read off
the degree-M covers of the decoding graph, their configurations counted
by type (``covers.TypeTally``): the blockwise rule (argmax of the global
value over cover configurations) and the symbolwise rule (cover marginals
weighted by the global value).  The only degree-1 cover is the graph
itself, so at M = 1 they are blockwise and symbolwise MAP decoding
(``bmapd``, ``smapd``); ``bgcd`` and ``sgcd`` run them at a given degree,
or by default minimize the Bethe free energy at temperatures zero and
one, the M -> infinity limit of the rules.  M = 1 is an ordinary degree:
every graph's degree-1 configurations come from its own structure's
tally, whose types run in the sorted order of their slots (the order of
``gibbs.valid_tuples``).  What a graph alone determines is kept on it
(``Nfg.derived``).  A code graph keeps its code words, read off its
M = 1 tally by ``attach_channel``'s t_N = 1 check, and one decoding
structure: a decoding graph for the last set of channel-factor supports
seen.  Each word's graph is that structure reweighed (``Nfg.reweighed``),
so the words with those supports share what the structure alone
determines (``Nfg.shared``: the ``_BetaIndex``, which keeps the LP's
A_eq, the diffusion's colours and the sum-product layout, and the type
tally per degree, which the rules and ``bgcd``'s tie check read).  A
decoding graph keeps its index weights and energy
(``_BetaIndex.weighed_on``) and its type values per degree, and both
read each factor's numbers once per factor object (``Nfg.per_factor``),
so a word pays only for its channel factors.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Mapping, Sequence

from .bethe import minimize_bethe
from .covers import PseudoMarginals, TypeTally, phi_of_rows
from .errors import (
    GcbError,
    LengthMismatch,
    NonBinaryAlphabet,
    NotCycleCode,
    ParseError,
)
from .nfg import Factor, Nfg, parity_table, parse_number, read_lines, repetition_table


# -- parity-check matrices ----------------------------------------------------


class ParityCheckMatrix:
    """Dense binary matrix with row index set J and column index set I."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.h = [tuple(int(x) for x in row) for row in rows]
        if not self.h:
            raise GcbError("empty parity-check matrix")
        width = len(self.h[0])
        for row in self.h:
            if len(row) != width:
                raise GcbError("ragged parity-check matrix")
            if any(x not in (0, 1) for x in row):
                raise GcbError("entries must be 0 or 1")
        for i in range(width):
            if all(row[i] == 0 for row in self.h):
                raise GcbError(f"column {i} is all-zero")
        self.n_rows = len(self.h)
        self.n_cols = width

    def column_weight(self, i: int) -> int:
        return sum(row[i] for row in self.h)

    def row_weight(self, j: int) -> int:
        return sum(self.h[j])

    def regularity(self):
        """(d_L, d_R) when column and row weights are constant, else None."""
        d_l = {self.column_weight(i) for i in range(self.n_cols)}
        d_r = {self.row_weight(j) for j in range(self.n_rows)}
        if len(d_l) == 1 and len(d_r) == 1:
            return d_l.pop(), d_r.pop()
        return None

    def codewords(self):
        """All codewords by direct enumeration; desk scale only."""
        return [x for x in itertools.product((0, 1), repeat=self.n_cols)
                if all(sum(h * s for h, s in zip(row, x)) % 2 == 0 for row in self.h)]

    @classmethod
    def from_dense_text(cls, text: str) -> "ParityCheckMatrix":
        rows = []
        read_lines(text, lambda tokens: rows.append([int(t) for t in tokens]))
        return cls(rows)

    @classmethod
    def from_alist_text(cls, text: str) -> "ParityCheckMatrix":
        """H from alist text: n m, the max degrees, the column and row
        degrees, then each column's row indices and each row's column
        indices, a 0 entry being padding.  The lists are read as the
        layout that pads every list with 0 to the max degree when the list
        tokens number n max_col + m max_row and that differs from the sum of
        the degrees; otherwise each list has as many entries as its degree.
        The row section must restate the columns: a row's degree at least
        its weight, and its non-zero entries exactly its columns."""
        tokens = text.split()
        if len(tokens) < 4:
            raise ParseError("alist too short")
        it = iter(tokens)
        try:
            n = int(next(it))
            m = int(next(it))
            max_col, max_row = int(next(it)), int(next(it))
            col_deg = [int(next(it)) for _ in range(n)]
            row_deg = [int(next(it)) for _ in range(m)]
            n_lists = len(tokens) - 4 - n - m
            padded = n_lists == n * max_col + m * max_row != sum(col_deg) + sum(row_deg)
            col_len, row_len = ([max_col] * n, [max_row] * m) if padded else (col_deg, row_deg)
            h = [[0] * n for _ in range(m)]
            for i in range(n):
                for _ in range(col_len[i]):
                    j = int(next(it))
                    if not 0 <= j <= m:
                        raise ParseError(f"alist column {i + 1}: row index {j} outside 1..{m}")
                    if j > 0:
                        h[j - 1][i] = 1
            for j in range(m):
                cols = [i + 1 for i in range(n) if h[j][i]]
                if row_deg[j] < len(cols):
                    raise ParseError(f"alist row {j + 1}: degree {row_deg[j]} below its {len(cols)} columns")
                listed = sorted(i for i in [int(next(it)) for _ in range(row_len[j])] if i != 0)
                if listed != cols:
                    raise ParseError(f"alist row {j + 1}: columns {listed}, but the column lists give {cols}")
        except StopIteration:
            raise ParseError("alist truncated") from None
        return cls(h)


def _pad(i: int, total: int) -> str:
    return f"{i:0{len(str(total))}d}"


def nfg_from_parity_check(h: ParityCheckMatrix) -> Nfg:
    """Code graph: repetition factor per column, parity factor per row.

    Half-edges are the n symbol positions; each one-entry h_{j,i}
    contributes a full edge between variable factor i and check factor j.
    """
    n, m = h.n_cols, h.n_rows
    alphabet = {}
    half = []
    factors = []
    for i in range(n):
        xi = f"x{_pad(i + 1, n)}"
        alphabet[xi] = 2
        half.append(xi)
    edge_of = {}
    for j in range(m):
        for i in range(n):
            if h.h[j][i]:
                name = f"x{_pad(i + 1, n)}_c{_pad(j + 1, m)}"
                alphabet[name] = 2
                edge_of[(j, i)] = name
    for i in range(n):
        edges = [f"x{_pad(i + 1, n)}"] + [
            edge_of[(j, i)] for j in range(m) if h.h[j][i]
        ]
        factors.append(Factor(f"v{_pad(i + 1, n)}", edges, repetition_table(len(edges))))
    for j in range(m):
        edges = [edge_of[(j, i)] for i in range(n) if h.h[j][i]]
        factors.append(Factor(f"c{_pad(j + 1, m)}", edges, parity_table(len(edges))))
    return Nfg(alphabet, half, factors)


def _fiber_sizes(nfg: Nfg, tally: TypeTally) -> Counter:
    """Number of valid configurations over each half-edge word, from nfg's
    M = 1 tally, the words in its type order."""
    positions = [nfg.edge_index(e) for e in nfg.half_edge_order]
    return Counter(tuple(slots[p] for p in positions) for _, _, slots in tally.types)


def check_represents_code(nfg: Nfg, code, cap=None):
    """Verify the four code-representation conditions.

    Returns (ok, t_N, reason): all factors are indicators, half-edge
    alphabets agree, the half-edge projection equals the code, and every
    codeword has the same number t_N of full-behavior pre-images.
    """
    code = {tuple(int(s) for s in x) for x in code}
    for fid, f in nfg.factors.items():
        if not f.is_indicator():
            return False, None, f"factor {fid} is not an indicator"
    half = nfg.half_edge_order
    sizes = {nfg.alphabet_sizes[e] for e in half}
    if len(sizes) > 1:
        return False, None, "half-edge alphabets differ"
    fibers = _fiber_sizes(nfg, TypeTally.of(nfg, 1, None, cap))
    if set(fibers) != code:
        return False, None, "half-edge projection differs from the code"
    t_values = set(fibers.values())
    if len(t_values) != 1:
        return False, None, f"fiber sizes vary: {sorted(t_values)}"
    return True, t_values.pop(), ""


# -- channels -----------------------------------------------------------------


class Channel:
    """Discrete memoryless channel: likelihood table W(y|x) over finite alphabets."""

    def __init__(self, input_size: int, w: Mapping[tuple, object]):
        self.input_size = int(input_size)
        self.w = {(str(y), int(x)): v for (y, x), v in w.items()}
        for y, x in self.w:
            if not 0 <= x < self.input_size:
                raise GcbError(f"channel input {x} for output {y!r} outside 0..{self.input_size - 1}")
        self.output_symbols = sorted({y for y, _ in self.w})
        for x in range(self.input_size):
            total = sum(float(v) for (y, xx), v in self.w.items() if xx == x)
            if abs(total - 1.0) > 1e-12:
                raise GcbError(f"channel row for input {x} sums to {total}")
            for (y, xx), v in self.w.items():
                if xx == x and float(v) < 0:
                    raise GcbError("negative channel likelihood")

    def likelihood(self, y, x) -> object:
        return self.w.get((str(y), int(x)), Fraction(0))

    @classmethod
    def bsc(cls, p) -> "Channel":
        p = Fraction(p) if not isinstance(p, float) else p
        q = 1 - p
        return cls(2, {("0", 0): q, ("1", 0): p, ("0", 1): p, ("1", 1): q})

    @classmethod
    def from_table_text(cls, text: str) -> "Channel":
        """A binary-input channel from its ``W <y> <x> <prob>`` lines."""
        w = {}

        def read(parts):
            if len(parts) != 4 or parts[0] != "W":
                raise ParseError("expected 'W <y> <x> <prob>'")
            w[(parts[1], int(parts[2]))] = parse_number(parts[3])
            return f"W {parts[1]} {int(parts[2])}"

        read_lines(text, read)
        return cls(2, w)


class DecodingNfg:
    """A code graph with a received vector attached.

    ``symbol_edges`` are the former half-edges carrying the code symbols,
    in position order; ``gamma`` is the constant relating the global
    function to the joint input/output probability.  The decoders read
    ``nfg``'s configurations off its structure's tally (``TypeTally.of``),
    at M = 1 as at any degree.
    """

    __slots__ = ("nfg", "symbol_edges", "gamma", "y")

    def __init__(self, nfg, symbol_edges, gamma, y):
        self.nfg = nfg
        self.symbol_edges = tuple(symbol_edges)
        self.gamma = gamma
        self.y = tuple(y)


def attach_channel(
    nfg_code: Nfg,
    channel: Channel,
    y: Sequence,
    prior: Sequence | None = None,
    cap=None,
) -> DecodingNfg:
    """Terminate each half-edge with a unary likelihood factor for y_i.

    Requires a single-pre-image representation (t_N = 1), read from the
    code graph's own M = 1 tally (``_code_words``, bounded by ``cap``).
    With the default uniform codeword prior the global function equals
    |code| times the joint probability of (x, y); a per-symbol product
    prior is absorbed into the channel factors, and ``gamma`` is computed
    in the prior's own arithmetic.  The word's graph is the code
    graph's one kept decoding structure (``Nfg.derived``), reweighed with
    its channel factors (``Nfg.reweighed``); a word with other channel
    supports first builds a structure that replaces the kept one, so a
    channel whose zeros follow the word keeps one, not one per pattern.
    """
    half = nfg_code.half_edge_order
    if len(y) != len(half):
        raise LengthMismatch(f"received vector length {len(y)}, code length {len(half)}")
    words = _code_words(nfg_code, cap)

    channel_factors = []
    for i, e in enumerate(half):
        size = nfg_code.alphabet_sizes[e]
        table = {}
        for x in range(size):
            v = channel.likelihood(y[i], x)
            if prior is not None:
                v = v * prior[i][x]
            if v != 0:
                table[(x,)] = v
        if not table:
            raise GcbError(f"received symbol {y[i]!r} has zero likelihood everywhere")
        channel_factors.append(Factor(f"ch_{e}", (e,), table))
    kept = nfg_code.derived(attach_channel, lambda _: [])  # the last structure built
    structure = kept[0] if kept else None
    if structure is None or any(structure.factors[f.id].table.keys() != f.table.keys() for f in channel_factors):
        structure = Nfg(nfg_code.alphabet_sizes, [], [*nfg_code.factors.values(), *channel_factors])
        kept[:] = [structure]

    if prior is None:
        gamma = Fraction(len(words))
    else:
        kappa = sum(math.prod(prior[i][x[i]] for i in range(len(half))) for x in words)
        gamma = 1 / kappa
    return DecodingNfg(structure.reweighed(channel_factors), half, gamma, [str(v) for v in y])


def _code_words(nfg: Nfg, cap=None) -> list:
    """The half-edge words of the code's valid configurations, in the order
    of its M = 1 tally (``TypeTally.of``, which raises CapExceeded past
    ``cap`` on every call), kept on the graph (``Nfg.derived``).  Raises
    GcbError unless each word has one pre-image (t_N = 1)."""
    tally = TypeTally.of(nfg, 1, None, cap)

    def words(g):
        fibers = _fiber_sizes(g, tally)
        if not fibers:
            raise GcbError("code graph has no valid configurations")
        t_values = set(fibers.values())
        if t_values != {1}:
            raise GcbError(f"attach_channel requires t_N = 1, found fiber sizes {sorted(t_values)}")
        return list(fibers)

    return nfg.derived(_code_words, words)


# -- decoders -----------------------------------------------------------------


class DecodeResult:
    __slots__ = ("decisions", "beliefs", "symbol_beliefs", "tie", "objective", "diagnostics")

    def __init__(self, decisions, beliefs, symbol_beliefs, tie, objective, diagnostics=None):
        self.decisions = tuple(decisions)
        self.beliefs = beliefs
        self.symbol_beliefs = symbol_beliefs
        self.tie = tie
        self.objective = objective
        self.diagnostics = diagnostics or {}


def _symbol_argmax(dist: Mapping[int, object]):
    """Lexicographic tie-break: the smallest maximizing symbol wins.  Float
    values within a relative 1e-12 of the best tie; exact ones must be equal."""
    best = max(dist.values())
    within = best * (1 - 1e-12) if isinstance(best, float) else best
    winners = sorted(s for s, v in dist.items() if v >= within)
    return winners[0], len(winners) > 1


def _decide(dec: DecodingNfg, beta: PseudoMarginals, tie, objective, diagnostics=None) -> DecodeResult:
    """Per-symbol argmax of beta; a symbol tie also flags the result as tied."""
    decisions = []
    for e in dec.symbol_edges:
        s, t = _symbol_argmax(beta.edge_dists[e])
        decisions.append(s)
        tie = tie or t
    symbol_beliefs = {e: dict(beta.edge_dists[e]) for e in dec.symbol_edges}
    return DecodeResult(decisions, beta, symbol_beliefs, tie, objective, diagnostics)


def _blockwise(dec: DecodingNfg, m: int, cap, config_cap) -> DecodeResult:
    """The blockwise rule at degree m (see ``bgcd``), on the types of the
    gauge-fixed covers' configurations; the winner's frequency map is read
    off its support rows.  Float values within a relative 1e-12 of the best
    count as optimal, as in ``_symbol_argmax``; exact values must be equal.
    Of tied optima the one smallest in ``_type_key`` wins: at M = 1, where
    the types run in order of their slots, their keys, the first."""
    nfg = dec.nfg
    tally, types, unit = TypeTally.weighed_on(nfg, m, cap, config_cap)
    best = None
    for count, value, rows, slots in types:
        if best is None or value > above:
            best, n_best, tie = value, count, False
            win_rows, win_slots, win_key = rows, slots, None
            above = within = best
            if isinstance(best, float):  # equal products round differently
                above, within = best * (1 + 1e-12), best * (1 - 1e-12)
        elif value >= within:
            n_best, tie = n_best + count, True
            if m == 1:
                continue
            win_key = win_key or _type_key(tally, win_slots, win_rows)
            key = _type_key(tally, slots, rows)
            if key < win_key:
                win_rows, win_slots, win_key = rows, slots, key
    if best is None or best == 0:
        raise GcbError("no valid configuration with positive value")
    beta = phi_of_rows(nfg, tally, win_rows)
    return _decide(dec, beta, tie, -math.log(float(best * unit)) / m,
                   {"n_optima": n_best * tally.multiplicity, "degree": m})


def _type_key(tally: TypeTally, slots, rows) -> tuple:
    """Tie-break key of a type, blind to copy labels: the sorted symbols of
    each edge's M copies in ``edge_order``, then the sorted (factor id, row)
    pairs of all factor copies; at M = 1, the slots."""
    m = tally.m
    edges = tuple(s for i in range(0, len(slots), m) for s in sorted(slots[i:i + m]))
    return edges, tuple(sorted(tally.rows[r] for r in rows))


def _symbolwise(dec: DecodingNfg, m: int, cap, config_cap) -> DecodeResult:
    """The symbolwise rule at degree m (see ``sgcd``), on the types of the
    gauge-fixed covers' configurations: a type adds count times its value,
    so the objective is -log Z_{B,M} from the same tally.  Each belief sums
    the weights of the types on its row's or symbol's list
    (``TypeTally.incidence``) left to right from 0, the order of a loop over
    the types (``reduce``: from Python 3.12 on, ``sum`` compensates floats),
    once per distinct list."""
    tally, types, unit = TypeTally.weighed_on(dec.nfg, m, cap, config_cap)
    ws = [count * value for count, value, _, _ in types]
    z_total = reduce(add, ws, 0)
    if z_total == 0:
        raise GcbError("zero partition sum")
    exact = type(z_total) is int  # rational weights: int sums, and unit cancels
    norm = m * z_total if exact else m * z_total * unit
    share = (lambda v: Fraction(v, norm)) if exact else (lambda v: v * unit / norm)
    factor_dists, edge_dists = {f: {} for f in dec.nfg.factors}, {e: {} for e in dec.nfg.edge_order}

    rows, symbols, lists = tally.incidence
    shares = [share(reduce(add, map(ws.__getitem__, ids), 0)) for ids in lists]

    def put(dist, key, i):
        if shares[i]:  # only a float underflow gives 0
            dist[key] = shares[i]

    for (f, row), i in rows.items():
        put(factor_dists[f], row, i)
    for (j, s), i in symbols.items():
        put(edge_dists[dec.nfg.edge_order[j]], s, i)
    beta = PseudoMarginals.of_dicts(factor_dists, edge_dists)
    return _decide(dec, beta, False, -math.log(float(z_total * unit / tally.n_fixed)) / m, {"degree": m})


def bmapd(dec: DecodingNfg, cap=None) -> DecodeResult:
    """Blockwise MAP: argmax of the global function over valid configurations.

    This is ``bgcd`` at degree 1, with ``cap`` bounding the decoding graph's
    valid configurations, walked once per decoding structure
    (``TypeTally.weighed_on``); ties go to the configuration smallest in
    ``edge_order``.
    """
    return _blockwise(dec, 1, None, cap)


def smapd(dec: DecodingNfg, cap=None) -> DecodeResult:
    """Symbolwise MAP: per-symbol posterior marginals, decisions by argmax.

    This is ``sgcd`` at degree 1, with ``cap`` as in ``bmapd``; its sums
    add the configurations in ``valid_tuples`` order.  The decision vector
    need not be a codeword.  The attached pseudo-marginals are the exact
    marginals of the posterior, so they are globally realizable by
    construction.
    """
    return _symbolwise(dec, 1, None, cap)


def bgcd(dec: DecodingNfg, degree: int | None = None, cap=None, config_cap=None) -> DecodeResult:
    """Blockwise graph-cover decoding: Bethe energy minimization at T = 0.

    ``degree`` switches to the literal degree-M rule: exhaustive argmax of
    the global value over all M-covers and their configurations, with the
    frequency map of the winner returned, ``cap`` as the cover cap and
    ``config_cap`` as each cover's configuration cap.  Relabeling copies
    keeps a configuration's value and type (its frequency map), so only the
    gauge-fixed covers are walked, once per decoding structure and degree
    (``TypeTally.of``); ``n_optima`` still counts the optimal
    configurations over all labeled covers, and ``tie`` means more than one
    optimal type.  Ties go to the type smallest in ``_type_key`` order.  At
    M = 1 this is ``bmapd``.  Without ``degree``, ``minimize_bethe`` at
    T = 0 first runs max-sum diffusion: a word whose optimum it pins
    (unique and integral) is decoded with ``tie`` False, no LP and no
    configuration value read.  Any other word goes to the LP, whose tie
    check reads the values of ``bmapd``'s types, weighed only then.  Either
    way the decoding graph's valid configurations are held to
    ``config_cap`` (the environment's or default configuration cap when
    None), CapExceeded past it.  ``diagnostics`` carry ``certified`` (diffusion pinned the
    optimum), ``sweeps`` (the diffusion sweeps run) and ``bound`` (their dual bound).
    """
    if degree is not None:
        return _blockwise(dec, degree, cap, config_cap)
    res = minimize_bethe(dec.nfg, 0, config_cap=config_cap)
    diagnostics = {"certified": res.certified, "sweeps": res.sweeps, "bound": res.bound}
    return _decide(dec, res.beta, res.tie, res.f_min, diagnostics)


def sgcd(dec: DecodingNfg, degree: int | None = None, cap=None, config_cap=None, **minimize_kwargs) -> DecodeResult:
    """Symbolwise graph-cover decoding: Bethe minimization at T = 1.

    ``degree`` switches to the literal degree-M rule, with ``cap`` and
    ``config_cap`` as in ``bgcd``: the partition-sum weighted average of
    cover marginals.  By the copy symmetry of the cover ensemble the
    marginals are independent of the copy index; they are averaged over all
    M copies, which makes them invariant under relabeling, so only the
    gauge-fixed covers are walked.  The objective is -log Z_{B,M}.  At
    M = 1 this is ``smapd``.  Without ``degree``, NonConvergence is raised
    when no sum-product start reaches a fixed point (``minimize_bethe``).
    """
    if degree is not None:
        return _symbolwise(dec, degree, cap, config_cap)
    res = minimize_bethe(dec.nfg, 1.0, **minimize_kwargs)
    return _decide(dec, res.beta, res.tie, res.f_min, {"converged": res.converged})


def fundamental_projection(nfg: Nfg, beta: PseudoMarginals) -> dict:
    """Half-edge marginals of symbol one: the pseudo-codeword of beta."""
    out = {}
    for e in nfg.half_edge_order:
        if nfg.alphabet_sizes[e] != 2:
            raise NonBinaryAlphabet(f"half-edge {e} has alphabet size {nfg.alphabet_sizes[e]}")
        out[e] = beta.edge_weight(e, 1)
    return out


def cycle_code_zgibbs(nfg: Nfg) -> int:
    """2 ** circuit rank, by component counting; no enumeration.

    Applies to all-parity, half-edge-free binary graphs, whose valid
    configurations are exactly the edge-disjoint unions of cycles.
    """
    if nfg.half_edges:
        raise NotCycleCode("graph has half-edges")
    for e, size in nfg.alphabet_sizes.items():
        if size != 2:
            raise NotCycleCode(f"edge {e} is not binary")
    for fid, f in nfg.factors.items():
        if f.table != parity_table(len(f.edges)):
            raise NotCycleCode(f"factor {fid} is not a parity indicator")
    return 2 ** nfg.circuit_rank()
