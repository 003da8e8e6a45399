"""Channel-coding layer: code graphs, channels, and the decoders.

Parity-check matrices become graphs with one repetition factor per column
(carrying the observable half-edge) and one parity factor per row.
Attaching a channel converts each half-edge into a full edge terminated by
a unary likelihood factor.  Decoding then has two rules, both walked on
the degree-M covers of the decoding graph: the blockwise rule (argmax of
the global value over cover configurations) and the symbolwise rule
(cover marginals weighted by the global value).  The only degree-1 cover
is the graph itself, so at M = 1 they are blockwise and symbolwise MAP
decoding (``bmapd``, ``smapd``); ``bgcd`` and ``sgcd`` run them at a given
degree, or by default minimize the Bethe free energy at temperatures zero
and one, the M -> infinity limit of the rules.  A code graph's valid
configurations are walked once and kept with the graph; ``attach_channel``,
the rules' M = 1 walk and ``bgcd``'s T = 0 tie check all read that list.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

from . import _kernels
from ._kernels.pyref import Walk
from .bethe import minimize_bethe
from .covers import (
    PseudoMarginals,
    count_covers,
    gauge_fixed_perm_invs,
    phi_of_rows,
)
from .errors import (
    CapExceeded,
    GcbError,
    LengthMismatch,
    NonBinaryAlphabet,
    NotCycleCode,
    ParseError,
)
from .gibbs import config_cap as default_config_cap
from .gibbs import valid_tuples
from .nfg import Factor, Nfg, parity_table, parse_number, repetition_table


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
        out = []
        for x in itertools.product((0, 1), repeat=self.n_cols):
            if all(sum(h * s for h, s in zip(row, x)) % 2 == 0 for row in self.h):
                out.append(x)
        return out

    @classmethod
    def from_dense_text(cls, text: str) -> "ParityCheckMatrix":
        rows = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([int(t) for t in line.split()])
            except ValueError:
                raise ParseError(f"bad matrix row {line!r}", ln) from None
        return cls(rows)

    @classmethod
    def from_alist_text(cls, text: str) -> "ParityCheckMatrix":
        tokens = text.split()
        if len(tokens) < 4:
            raise ParseError("alist too short")
        it = iter(tokens)
        try:
            n = int(next(it))
            m = int(next(it))
            next(it), next(it)  # max degrees
            col_deg = [int(next(it)) for _ in range(n)]
            [int(next(it)) for _ in range(m)]
            h = [[0] * n for _ in range(m)]
            for i in range(n):
                for _ in range(col_deg[i]):
                    j = int(next(it))
                    if j > 0:
                        h[j - 1][i] = 1
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


_VALID: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _valid_configs(nfg: Nfg, cap=None) -> list:
    """``valid_tuples(nfg, cap)``, walked once per (immutable) graph and kept
    while it lives; every call raises CapExceeded past the cap."""
    if nfg not in _VALID:
        _VALID[nfg] = valid_tuples(nfg, cap=cap)
    elif len(_VALID[nfg]) > default_config_cap(cap):
        raise CapExceeded(f"more than {default_config_cap(cap)} valid configurations")
    return _VALID[nfg]


def _fiber_sizes(nfg: Nfg, configs) -> Counter:
    """Number of valid configurations over each half-edge word."""
    positions = [nfg.edge_index(e) for e in nfg.half_edge_order]
    return Counter(tuple(t[p] for p in positions) for t, _ in configs)


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
    fibers = _fiber_sizes(nfg, _valid_configs(nfg, cap))
    if set(fibers) != code:
        return False, None, "half-edge projection differs from the code"
    t_values = set(fibers.values())
    if len(t_values) != 1:
        return False, None, f"fiber sizes vary: {sorted(t_values)}"
    return True, t_values.pop(), ""


# -- channels -----------------------------------------------------------------


class Channel:
    """Discrete memoryless channel: likelihood table W(y|x) over finite alphabets."""

    def __init__(self, input_size: int, w: Mapping[tuple, object], tol: float = 1e-12):
        self.input_size = int(input_size)
        self.w = {(str(y), int(x)): v for (y, x), v in w.items()}
        self.output_symbols = sorted({y for y, _ in self.w})
        for x in range(self.input_size):
            total = sum(float(v) for (y, xx), v in self.w.items() if xx == x)
            if abs(total - 1.0) > tol:
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
    def from_table_text(cls, text: str, input_size: int = 2) -> "Channel":
        w = {}
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4 or parts[0] != "W":
                raise ParseError("expected 'W <y> <x> <prob>'", ln)
            w[(parts[1], int(parts[2]))] = parse_number(parts[3])
        return cls(input_size, w)


class DecodingNfg:
    """A code graph with a received vector attached.

    ``symbol_edges`` are the former half-edges carrying the code symbols,
    in position order; ``gamma`` is the constant relating the global
    function to the joint input/output probability.  ``code_nfg``, on the
    same edges, is the code graph whose configuration list the M = 1 walk
    reads (``nfg``'s own when None).
    """

    __slots__ = ("nfg", "symbol_edges", "gamma", "y", "code_nfg")

    def __init__(self, nfg, symbol_edges, gamma, y, code_nfg):
        self.nfg = nfg
        self.symbol_edges = tuple(symbol_edges)
        self.gamma = gamma
        self.y = tuple(y)
        self.code_nfg = code_nfg


def attach_channel(
    nfg_code: Nfg,
    channel: Channel,
    y: Sequence,
    prior: Sequence | None = None,
    cap=None,
) -> DecodingNfg:
    """Terminate each half-edge with a unary likelihood factor for y_i.

    Requires a single-pre-image representation (t_N = 1), read from the
    code's list of valid configurations (``_valid_configs``, bounded by
    ``cap``).  With the default uniform codeword prior the global function
    equals |code| times the joint probability of (x, y); a per-symbol
    product prior is absorbed into the channel factors, and ``gamma`` is
    computed in the prior's own arithmetic.
    """
    half = nfg_code.half_edge_order
    if len(y) != len(half):
        raise LengthMismatch(f"received vector length {len(y)}, code length {len(half)}")
    fibers = _fiber_sizes(nfg_code, _valid_configs(nfg_code, cap))
    if not fibers:
        raise GcbError("code graph has no valid configurations")
    t_values = set(fibers.values())
    if t_values != {1}:
        raise GcbError(
            f"attach_channel requires t_N = 1, found fiber sizes {sorted(t_values)}"
        )

    factors = list(nfg_code.factors.values())
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
        factors.append(Factor(f"ch_{e}", (e,), table))
    nfg_y = Nfg(nfg_code.alphabet_sizes, [], factors)

    if prior is None:
        gamma = Fraction(len(fibers))
    else:
        kappa = sum(math.prod(prior[i][x[i]] for i in range(len(half))) for x in fibers)
        gamma = 1 / kappa
    return DecodingNfg(nfg_y, half, gamma, [str(v) for v in y], nfg_code)


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


_WALKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _rule_walk(dec: DecodingNfg, m: int, cap, config_cap):
    """(walk, unit, covers): the walk of ``dec.nfg`` at degree m, kept with
    the graph for every decoder, and one iterable of (value, slots, rows)
    per gauge-fixed cover, as ``Walk.configs`` yields them within
    ``config_cap``, with ``value * unit`` the global value.  At M = 1 the
    one cover is ``dec.nfg``, read off its code's list (``_valid_configs``,
    bounded by ``config_cap``) less the configurations a table does not
    support, times the walk's weights.  Raises ValueError for m < 1."""
    if m < 1:
        raise ValueError("degree M must be at least 1")
    nfg = dec.nfg
    walks = _WALKS.setdefault(nfg, {})
    if m not in walks:
        walks[m] = Walk(_kernels.build_plan(nfg), m)
    walk = walks[m]
    if m != 1:
        perm_invs = gauge_fixed_perm_invs(nfg, m, cap=cap)
        limit = default_config_cap(config_cap)
        return walk, walk.unit, (walk.configs(p, limit) for p in perm_invs)
    tables: dict = {}  # per factor, in walk order: {row: (row id, weight)}
    for row_id, ((fid, row), w) in enumerate(zip(walk.rows, walk.weights)):
        tables.setdefault(fid, {})[row] = (row_id, w)
    steps = [([nfg.edge_index(e) for e in nfg.factors[fid].edges], table) for fid, table in tables.items()]

    def configs():
        for slots, _ in _valid_configs(dec.code_nfg or nfg, config_cap):
            hits = [table.get(tuple([slots[e] for e in edges])) for edges, table in steps]
            if None not in hits:
                yield math.prod(w for _, w in hits), slots, [i for i, _ in hits]

    return walk, walk.unit, [configs()]


def _blockwise(dec: DecodingNfg, m: int, cap, config_cap) -> DecodeResult:
    """The blockwise rule at degree m (see ``bgcd``), on the gauge-fixed
    covers; the winner's frequency map is read off its support rows.  Float
    values within a relative 1e-12 of the best count as optimal, as in
    ``_symbol_argmax``; exact values must be equal."""
    nfg = dec.nfg
    walk, unit, covers = _rule_walk(dec, m, cap, config_cap)
    best = None
    n_fixed = 0
    for configs in covers:
        n_fixed += 1
        for value, slots, rows in configs:
            if best is None or value > above:
                best, n_best, tie = value, 1, False
                win_type, win_slots, win_key = sorted(rows), tuple(slots), None
                above = within = best
                if isinstance(best, float):  # equal products round differently
                    above, within = best * (1 + 1e-12), best * (1 - 1e-12)
            elif value >= within:
                n_best += 1
                rows_type = sorted(rows)
                if rows_type != win_type:
                    tie = True
                    win_key = win_key or _type_key(walk, win_slots, win_type)
                    key = _type_key(walk, slots, rows)
                    if key < win_key:
                        win_type, win_slots, win_key = rows_type, tuple(slots), key
    if best is None or best == 0:
        raise GcbError("no valid configuration with positive value")
    n_optima = n_best * (count_covers(nfg, m) // n_fixed)
    beta = phi_of_rows(nfg, walk, win_type)
    return _decide(dec, beta, tie, -math.log(float(best * unit)) / m,
                   {"n_optima": n_optima, "degree": m})


def _type_key(walk: Walk, slots, rows) -> tuple:
    """Tie-break key of a configuration's type, blind to copy labels: the
    sorted symbols of each edge's M copies in ``edge_order``, then the sorted
    (factor id, row) pairs of all factor copies; at M = 1, the slots."""
    m = walk.m
    edges = tuple(s for i in range(0, len(slots), m) for s in sorted(slots[i:i + m]))
    return edges, tuple(sorted(walk.rows[r] for r in rows))


def _symbolwise(dec: DecodingNfg, m: int, cap, config_cap) -> DecodeResult:
    """The symbolwise rule at degree m (see ``sgcd``).  Partition sums add
    cover by cover, as in ``bethe.zbethe_m_enumeration``, so the objective
    is -log Z_{B,M} from the same walk."""
    nfg = dec.nfg
    walk, unit, covers = _rule_walk(dec, m, cap, config_cap)
    z_total = 0 * walk.one
    n_covers = 0
    factor_acc: dict = {f: {} for f in nfg.factors}
    edge_acc: dict = {e: {} for e in nfg.edge_order}
    slot_edges = [e for e in nfg.edge_order for _ in range(m)]
    for configs in covers:
        z = 0 * walk.one
        for value, slots, rows in configs:
            z += value
            for row_id in rows:
                f, key = walk.rows[row_id]
                factor_acc[f][key] = factor_acc[f].get(key, 0) + value
            for e, s in zip(slot_edges, slots):
                edge_acc[e][s] = edge_acc[e].get(s, 0) + value
        z_total += z
        n_covers += 1
    if z_total == 0:
        raise GcbError("zero partition sum")
    norm = m * z_total * unit
    beta = PseudoMarginals(
        {f: {k: v * unit / norm for k, v in d.items()} for f, d in factor_acc.items()},
        {e: {s: v * unit / norm for s, v in d.items()} for e, d in edge_acc.items()},
    )
    return _decide(dec, beta, False, -math.log(float(z_total * unit / n_covers)) / m, {"degree": m})


def bmapd(dec: DecodingNfg, cap=None) -> DecodeResult:
    """Blockwise MAP: argmax of the global function over valid configurations.

    This is ``bgcd`` at degree 1, with ``cap`` bounding the code's list of
    valid configurations (``_rule_walk``); ties go to the configuration
    smallest in ``edge_order``.
    """
    return _blockwise(dec, 1, None, cap)


def smapd(dec: DecodingNfg, cap=None) -> DecodeResult:
    """Symbolwise MAP: per-symbol posterior marginals, decisions by argmax.

    This is ``sgcd`` at degree 1, with ``cap`` bounding the code's list of
    valid configurations (``_rule_walk``).  The decision vector need not be
    a codeword.  The attached pseudo-marginals are the exact marginals of
    the posterior, so they are globally realizable by construction.
    """
    return _symbolwise(dec, 1, None, cap)


def bgcd(dec: DecodingNfg, degree: int | None = None, cap=None, config_cap=None, **minimize_kwargs) -> DecodeResult:
    """Blockwise graph-cover decoding: Bethe energy minimization at T = 0.

    ``degree`` switches to the literal degree-M rule: exhaustive argmax of
    the global value over all M-covers and their configurations, with the
    frequency map of the winner returned, ``cap`` as the cover cap and
    ``config_cap`` as each cover's configuration cap.  Relabeling copies
    keeps a configuration's value and type (its frequency map), so only the
    gauge-fixed covers are walked; ``n_optima`` still counts the optimal
    configurations over all labeled covers, and ``tie`` means more than one
    optimal type.  Ties go to the type smallest in ``_type_key`` order.  At
    M = 1 this is ``bmapd``.  Without ``degree``, the tie check reads the
    values of ``bmapd``'s walk and raises CapExceeded past ``config_cap``
    (the environment's or default configuration cap when None).
    """
    if degree is not None:
        return _blockwise(dec, degree, cap, config_cap)
    _, unit, (configs,) = _rule_walk(dec, 1, None, config_cap)
    values = (value * unit for value, _, _ in configs)
    res = minimize_bethe(dec.nfg, 0, values=values, **minimize_kwargs)
    return _decide(dec, res.beta, res.tie, res.f_min)


def sgcd(dec: DecodingNfg, degree: int | None = None, cap=None, config_cap=None, **minimize_kwargs) -> DecodeResult:
    """Symbolwise graph-cover decoding: Bethe minimization at T = 1.

    ``degree`` switches to the literal degree-M rule, with ``cap`` and
    ``config_cap`` as in ``bgcd``: the partition-sum weighted average of
    cover marginals.  By the copy symmetry of the cover ensemble the
    marginals are independent of the copy index; they are averaged over all
    M copies, which makes them invariant under relabeling, so only the
    gauge-fixed covers are walked.  The objective is -log Z_{B,M}.  At
    M = 1 this is ``smapd``.
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
