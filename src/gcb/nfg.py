"""Normal factor graph data model and its line-oriented text format.

Variables live on edges: a half-edge is incident on exactly one function
node, a full edge on exactly two.  Local function tables keep only their
support (assignments with value zero are dropped), so a factor's support
doubles as its local constraint code.  All types here are immutable after
construction and safe to share across threads.  What gcb derives from a
graph alone (its polytope weights and energy and its type values; on a
code graph, its words and the decoding structure its decoding graphs are
reweighed from) is built on first use and kept on the graph
(``Nfg.derived``), and what its structure alone determines (its polytope
index, which keeps what it derives, and its type tallies) is kept with
the structure (``Nfg.shared``), which every graph reweighed from it
shares, as is what one factor's table determines, beside that factor
(``Nfg.per_factor``).  Two threads that ask at once may each build a
value, and one of the equal results is kept.

``read_lines`` holds the line syntax of gcb's text formats other than alist:
comments, blank lines, tokens, repeated keys and the line an error names.
"""

from __future__ import annotations

import copy
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import GcbError, OutOfAlphabet, ParseError, UnknownEdge

Number = object  # Fraction or float; kept duck-typed on purpose


def parity_table(arity: int) -> dict:
    """0/1 indicator of the even-weight (single parity-check) code."""
    table = {}
    for a in itertools.product((0, 1), repeat=arity):
        if sum(a) % 2 == 0:
            table[a] = Fraction(1)
    return table


def repetition_table(arity: int) -> dict:
    """0/1 indicator of the all-equal (repetition) code over {0,1}."""
    return {(0,) * arity: Fraction(1), (1,) * arity: Fraction(1)}


class Factor:
    """A function node: ordered incident edges plus the support of its table."""

    __slots__ = ("id", "edges", "table")

    def __init__(self, fid: str, edges: Sequence[str], table: Mapping[tuple, Number]):
        self.id = fid
        self.edges = tuple(edges)
        support = {}
        for key, value in table.items():
            key = tuple(int(s) for s in key)
            if len(key) != len(self.edges):
                raise GcbError(
                    f"factor {fid}: assignment {key} has arity {len(key)}, "
                    f"expected {len(self.edges)}"
                )
            if isinstance(value, float):
                if not 0 <= value < math.inf:
                    raise GcbError(f"factor {fid}: negative, infinite or NaN value at {key}")
            else:
                value = Fraction(value)
                if value < 0:
                    raise GcbError(f"factor {fid}: negative value at {key}")
            if value != 0:
                support[key] = value
        self.table = support

    def value(self, local: tuple) -> Number:
        return self.table.get(tuple(local), Fraction(0))

    @property
    def support(self):
        """Local constraint code: assignments with nonzero value, sorted."""
        return sorted(self.table)

    def is_indicator(self) -> bool:
        return all(v == 1 for v in self.table.values())


class Nfg:
    """A normal factor graph over finite edge alphabets.

    Construction validates the structural invariants: every full edge
    appears in exactly two factor incidence lists, every half-edge in
    exactly one, and every table key stays inside the Cartesian product of
    its incident alphabets.
    """

    def __init__(
        self,
        alphabet_sizes: Mapping[str, int],
        half_edges: Iterable[str],
        factors: Mapping[str, Factor] | Sequence[Factor],
    ):
        self.alphabet_sizes = dict(alphabet_sizes)
        self.half_edges = frozenset(half_edges)
        if isinstance(factors, Mapping):
            self.factors = dict(factors)
        else:
            self.factors = {f.id: f for f in factors}

        for e, size in self.alphabet_sizes.items():
            if size < 1:
                raise GcbError(f"edge {e}: alphabet size must be >= 1")
        unknown = self.half_edges - self.alphabet_sizes.keys()
        if unknown:
            raise GcbError(f"half-edges without alphabets: {sorted(unknown)}")

        incidence: dict[str, list[str]] = {e: [] for e in self.alphabet_sizes}
        for f in self.factors.values():
            seen = set()
            for e in f.edges:
                if e not in self.alphabet_sizes:
                    raise GcbError(f"factor {f.id}: unknown edge {e}")
                if e in seen:
                    raise GcbError(f"factor {f.id}: edge {e} repeated")
                seen.add(e)
                incidence[e].append(f.id)
            sizes = tuple(self.alphabet_sizes[e] for e in f.edges)
            for key in f.table:
                for s, size in zip(key, sizes):
                    if not 0 <= s < size:
                        raise GcbError(
                            f"factor {f.id}: symbol {s} outside alphabet in {key}"
                        )
        for e, incident in incidence.items():
            want = 1 if e in self.half_edges else 2
            if len(incident) != want:
                kind = "half-edge" if want == 1 else "full edge"
                raise GcbError(
                    f"{kind} {e} is incident on {len(incident)} factors, expected {want}"
                )
        self.incidence = {e: tuple(sorted(v)) for e, v in incidence.items()}
        self.edge_order = tuple(sorted(self.alphabet_sizes))
        self.full_edges = frozenset(self.alphabet_sizes) - self.half_edges
        self._edge_index = {e: i for i, e in enumerate(self.edge_order)}
        self._derived: dict = {}
        self._shared: dict = {}

    def derived(self, key, build):
        """``build(self)``, built on first use and kept with the graph under
        ``key`` (by convention the function or class that owns the value);
        a build that raises keeps nothing, so it raises on every call."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def shared(self, key, build):
        """As ``derived``, but kept with the structure and shared by every
        graph reweighed from it (``reweighed``): ``build`` may read only the
        structure, and its value must hold no graph."""
        if key not in self._shared:
            self._shared[key] = build(self)
        return self._shared[key]

    def per_factor(self, key, build) -> dict:
        """{factor id: build(factor)} in ``factors`` order.  Each value is
        kept with the structure (as ``shared``, under ``key``) beside the
        factor object it was read from, and read again only where the
        graph's factor under that id is another object: a graph reweighed
        from the structure pays only for the factors it swapped in."""
        kept = self.shared((Nfg.per_factor, key), lambda _: {})
        out = {}
        for fid, f in self.factors.items():
            entry = kept.get(fid)
            if entry is None or entry[0] is not f:
                entry = kept[fid] = (f, build(f))
            out[fid] = entry[1]
        return out

    def reweighed(self, factors: Iterable[Factor]) -> "Nfg":
        """This graph with ``factors`` in place of those of the same ids, each
        keeping its id's edges and support (else GcbError), so nothing else
        is validated again.  It shares ``shared`` and starts its own ``derived``."""
        graph = copy.copy(self)
        graph.factors = dict(self.factors)
        for f in factors:
            old = self.factors.get(f.id)
            if old is None or f.edges != old.edges or f.table.keys() != old.table.keys():
                raise GcbError(f"factor {f.id}: no factor of the graph has its id, edges and support")
            graph.factors[f.id] = f
        graph._derived = {}
        return graph

    # -- basic structure ----------------------------------------------------

    @property
    def half_edge_order(self) -> tuple:
        return tuple(e for e in self.edge_order if e in self.half_edges)

    @property
    def full_edge_order(self) -> tuple:
        return tuple(e for e in self.edge_order if e not in self.half_edges)

    def cotree_edges(self) -> list:
        """The full edges outside a spanning forest of the factor graph.

        The forest is built by union-find over ``full_edge_order``: an edge
        joining two trees enters it, one closing a cycle does not.  There
        are circuit-rank many co-tree edges.
        """
        parent = {f: f for f in self.factors}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        out = []
        for e in self.full_edge_order:
            a, b = (find(f) for f in self.incidence[e])
            if a == b:
                out.append(e)
            else:
                parent[a] = b
        return out

    def n_components(self) -> int:
        """Connected components of the underlying graph (isolated factors
        count): each full edge outside the co-tree joins two trees."""
        return len(self.factors) - len(self.full_edges) + len(self.cotree_edges())

    def circuit_rank(self) -> int:
        return len(self.cotree_edges())

    # -- configurations -----------------------------------------------------

    def config_tuple(self, config: Mapping[str, int]) -> tuple:
        """Canonical tuple form of a configuration, symbols in edge-id-sorted order."""
        missing = self.alphabet_sizes.keys() - config.keys()
        if missing:
            raise UnknownEdge(f"configuration misses edges {sorted(missing)}")
        extra = config.keys() - self.alphabet_sizes.keys()
        if extra:
            raise UnknownEdge(f"configuration has unknown edges {sorted(extra)}")
        out = []
        for e in self.edge_order:
            s = config[e]
            if not 0 <= s < self.alphabet_sizes[e]:
                raise OutOfAlphabet(f"edge {e}: symbol {s} outside alphabet")
            out.append(int(s))
        return tuple(out)

    def config_dict(self, config: Sequence[int]) -> dict:
        if len(config) != len(self.edge_order):
            raise UnknownEdge(
                f"expected {len(self.edge_order)} symbols, got {len(config)}"
            )
        return dict(zip(self.edge_order, config))

    def local_assignment(self, factor_id: str, config: Sequence[int]) -> tuple:
        """Restriction of a canonical configuration tuple to a factor's edges."""
        f = self.factors[factor_id]
        return tuple(config[self._edge_index[e]] for e in f.edges)

    def edge_index(self, edge: str) -> int:
        return self._edge_index[edge]


# -- text format -------------------------------------------------------------
#
#   alphabet <edge> <size>
#   halfedge <edge>
#   fulledge <edge> <factorA> <factorB>
#   factor <id> <edges...>
#   row <assignment...> <value>        (rows of the preceding factor)
#   parity | repetition                (0/1 indicator shorthands)
#
# Values are decimals or p/q rationals.  '#' starts a comment.  Each edge,
# factor and factor row is declared once, and a factor has rows or one
# shorthand.  A line of a fixed form has exactly the form's tokens.

_FIXED_LINES = {f.split()[0]: f for f in ("alphabet <edge> <size>", "halfedge <edge>",
                                          "fulledge <edge> <factorA> <factorB>", "parity", "repetition")}


def parse_number(token: str) -> Number:
    """A p/q or integer token as a Fraction, a decimal as a finite float."""
    if "/" in token:
        num, den = (int(part) for part in token.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {token!r}")
        return Fraction(num, den)
    if any(c in token for c in ".eE") and not token.lstrip("+-").isdigit():
        value = float(token)
        if not math.isfinite(value):
            raise ValueError(f"{token!r} is outside the float range")
        return value
    return Fraction(int(token))


def format_number(value: Number) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return repr(float(value))


def read_lines(text: str, read) -> None:
    """Call ``read(tokens)`` on each line of ``text``: '#' starts a comment,
    blank lines are skipped, and tokens are split on white space.  ``read``
    returns the line's key, a short name of what the line sets, or None; a
    key an earlier line returned is a ParseError.  A ValueError or
    IndexError from ``read`` becomes ``ParseError("cannot parse '<line>':
    ...")``, and that and every ParseError ``read`` raises name the line."""
    first_line = {}
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key = read(line.split())
        except ParseError as exc:
            raise ParseError(str(exc), n) from None
        except (IndexError, ValueError) as exc:
            raise ParseError(f"cannot parse {line!r}: {exc}", n) from None
        if key in first_line:
            raise ParseError(f"repeated {key} (first on line {first_line[key]})", n)
        if key is not None:
            first_line[key] = n


def parse_nfg_text(text: str) -> Nfg:
    alphabet_sizes: dict[str, int] = {}
    half_edges: list[str] = []
    full_decl: dict[str, tuple] = {}
    factor_edges: dict[str, list[str]] = {}
    factor_rows: dict[str, dict] = {}
    factor_kind: dict[str, str] = {}
    current: str | None = None

    def read(parts):
        nonlocal current
        kw = parts[0]
        if kw in _FIXED_LINES and len(parts) != len(_FIXED_LINES[kw].split()):
            raise ParseError(f"expected {_FIXED_LINES[kw]!r}")
        if kw == "alphabet":
            edge, size = parts[1], int(parts[2])
            alphabet_sizes[edge] = size
            return f"alphabet {edge}"
        if kw == "halfedge":
            half_edges.append(parts[1])
            return f"edge {parts[1]}"
        if kw == "fulledge":
            full_decl[parts[1]] = (parts[2], parts[3])
            return f"edge {parts[1]}"
        if kw == "factor":
            current = parts[1]
            factor_edges[current] = parts[2:]
            factor_rows[current] = {}
            factor_kind[current] = "rows"
            return f"factor {current}"
        if kw not in ("row", "parity", "repetition"):
            raise ParseError(f"unknown keyword {kw!r}")
        if current is None:
            raise ParseError(f"{kw} before any factor")
        if factor_kind[current] != "rows" or (kw != "row" and factor_rows[current]):
            raise ParseError(f"factor {current}: {kw} after its {factor_kind[current]}")
        if kw == "row":
            *sym, val = parts[1:]
            key = tuple(int(s) for s in sym)
            factor_rows[current][key] = parse_number(val)
            return f"row {' '.join(map(str, key))} of factor {current}"
        factor_kind[current] = kw

    read_lines(text, read)
    if not factor_edges:
        raise ParseError("no factors declared")
    for edge in half_edges:
        if edge not in alphabet_sizes:
            raise ParseError(f"half-edge {edge} has no alphabet")
    factors = []
    for fid, edges in factor_edges.items():
        kind = factor_kind[fid]
        if kind == "parity":
            table = parity_table(len(edges))
        elif kind == "repetition":
            table = repetition_table(len(edges))
        else:
            table = factor_rows[fid]
            if not table:
                raise ParseError(f"factor {fid} has no rows")
        factors.append(Factor(fid, edges, table))

    for edge, (fa, fb) in full_decl.items():
        for fid in (fa, fb):
            if fid not in factor_edges or edge not in factor_edges[fid]:
                raise ParseError(f"fulledge {edge}: factor {fid} does not carry it")

    try:
        return Nfg(alphabet_sizes, half_edges, factors)
    except GcbError as exc:
        raise ParseError(str(exc)) from None


def parse_nfg(path) -> Nfg:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_nfg_text(fh.read())


def emit_nfg_text(nfg: Nfg) -> str:
    lines = []
    for e in nfg.edge_order:
        lines.append(f"alphabet {e} {nfg.alphabet_sizes[e]}")
    for e in nfg.edge_order:
        if e in nfg.half_edges:
            lines.append(f"halfedge {e}")
        else:
            fa, fb = nfg.incidence[e]
            lines.append(f"fulledge {e} {fa} {fb}")
    for fid in sorted(nfg.factors):
        f = nfg.factors[fid]
        lines.append(f"factor {fid} {' '.join(f.edges)}")
        arity = len(f.edges)
        if f.table == parity_table(arity):
            lines.append("parity")
        elif f.table == repetition_table(arity):
            lines.append("repetition")
        else:
            for key in sorted(f.table):
                sym = " ".join(str(s) for s in key)
                lines.append(f"row {sym} {format_number(f.table[key])}")
    return "\n".join(lines) + "\n"
