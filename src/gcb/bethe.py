"""Bethe-side analytics over the local marginal polytope.

Includes the energy/entropy/free-energy split (membership checking,
``check_local_consistency``, lives in ``covers`` and is re-exported here),
the degree-M partition function computed two ways (enumeration of the
gauge-fixed covers, and the type-sum over the lift-realizable
pseudo-marginals by elimination; an exact identity in rational
arithmetic), and free-energy minimization at zero and positive
temperature, certified at T = 0 by max-sum diffusion on the dual where it
pins a unique integral optimum, and at T > 0 by the Frank-Wolfe gap.  The
polytope is described once per graph structure, in ``_BetaIndex``, which
holds no graph and no table value (``Nfg.shared``).  A graph's row
weights and energy vector are read off its tables once
(``_BetaIndex.weighed_on``) and go with the index to what needs them:
``bethe_terms`` and the ``sum_product`` trace score the free energy with
the energy and the index's entropy; the T = 0 problem is one linear
program over its factor slots (``_BetaIndex.lp``), whose dual
``_BetaIndex.diffuse`` reparametrizes along its marginal rows; the
Frank-Wolfe gap is read off its rows with the log messages as
multipliers (``_BetaIndex.gap``); and the max-entropy completion (``bme``)
is guarded by its rows and scored by its entropy.  Its check blocks are
solved together by the stacked Newton tilt ``tilt_factor_block``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from . import _kernels
from .covers import (
    PseudoMarginals,
    TypeTally,
    _phi_of_tuple,
    build_cover_with_map,
    check_degree,
    check_local_consistency,
    count_covers,
    cover_perm_inv,
    eliminate,
    gauge_fixed_perm_invs,
    random_cover,
    type_graph,
)
from .errors import (
    CapExceeded,
    InconsistentBeta,
    LpFailure,
    NonConvergence,
    ParseError,
    SupportOnZeroFactor,
    ZeroGlobalValue,
)
from .gibbs import config_cap as default_config_cap
from .gibbs import inverse_temperature
from .nfg import Factor, Nfg, parse_number, format_number, read_lines
from .spa import _FlatLayout, sum_product

GAP_TOL = 1e-9  # Frank-Wolfe gap that certifies a T > 0 minimizer
SPA_ITERS = 4000  # sweeps per sum-product start in minimize_bethe
SPA_TOL = 1e-13
SPA_DAMPING = 0.5  # the one damping of those starts
TILT_TOL = 1e-12  # marginal-matching gradient at which a tilt block is solved
TILT_ITERS = 200  # Newton iterations per tilt block
DIFFUSION_SWEEPS = 10  # max-sum diffusion sweeps before the T = 0 program goes to the LP
PIN_MARGIN = 1e-9  # least factor cost over its runner-up that pins a T = 0 optimum


# -- evaluation ---------------------------------------------------------------


class BetheEvaluation:
    __slots__ = ("u_bethe", "h_bethe", "f_bethe", "temperature")

    def __init__(self, u, h, temperature):
        self.u_bethe = u
        self.h_bethe = h
        self.temperature = temperature
        self.f_bethe = u - temperature * h

    def __repr__(self):
        return (
            f"BetheEvaluation(u={self.u_bethe:.12g}, h={self.h_bethe:.12g}, "
            f"f={self.f_bethe:.12g}, T={self.temperature})"
        )


def bethe_terms(nfg: Nfg, beta: PseudoMarginals, temperature: float = 1.0, tol: float = 1e-9) -> BetheEvaluation:
    """Average energy, entropy, and free energy of a pseudo-marginal vector.

    Read off the graph's ``_BetaIndex``: the energy vector and the entropy
    of beta's flat coordinates, so half-edge entropy terms carry
    coefficient zero.  Raises InconsistentBeta outside the local marginal
    polytope (within ``tol``) and SupportOnZeroFactor at the first non-zero
    weight, in ``nfg.factors`` order, on a row outside its factor's support.
    """
    ok, violations = check_local_consistency(nfg, beta, tol=tol)
    if not ok:
        raise InconsistentBeta(f"beta outside the local marginal polytope: {violations[:3]}")
    for f, fac in nfg.factors.items():
        d = beta.factor_dists[f]
        stray = [key for key in d.keys() - fac.table.keys() if float(d[key]) != 0.0]
        if stray:
            key = next(key for key in d if key in stray)
            raise SupportOnZeroFactor(f"beta weight on zero-valued row {key} of {f}")
    idx, _, energy = _BetaIndex.weighed_on(nfg)
    x = idx.to_vector(beta)
    return BetheEvaluation(float(energy @ x), idx.entropy(x), float(temperature))


def bethe_energy_from_cover(spec, cover_config) -> float:
    """-(1/M) log of the cover's global value; equals the energy of its image.

    Asserts agreement with the frequency-mapped evaluation to 1e-12.
    """
    cover, (factor_map, edge_map) = build_cover_with_map(spec)
    tup = cover_config if isinstance(cover_config, tuple) else cover.config_tuple(cover_config)
    logg = 0.0
    for cf in cover.factors:
        v = cover.factors[cf].value(cover.local_assignment(cf, tup))
        if v == 0:
            raise ZeroGlobalValue(f"configuration invalid at {cf}")
        logg += math.log(v)
    energy = -logg / spec.m
    beta = _phi_of_tuple(spec.nfg, spec.m, cover, factor_map, edge_map, tup)
    via_beta = bethe_terms(spec.nfg, beta, tol=0).u_bethe
    if abs(energy - via_beta) > 1e-12 * max(1.0, abs(energy)):
        raise AssertionError(
            f"cover energy {energy!r} disagrees with pseudo-marginal energy {via_beta!r}"
        )
    return energy


# -- degree-M Bethe partition function ----------------------------------------


class ZBetheM:
    """Value of the degree-M partition function plus its pre-root average."""

    __slots__ = ("value", "pre_root", "m", "n_covers", "samples", "stderr")

    def __init__(self, value, pre_root, m, n_covers, samples=None, stderr=None):
        self.value = value
        self.pre_root = pre_root
        self.m = m
        self.n_covers = n_covers
        self.samples = samples
        self.stderr = stderr


def _rational_tables(nfg: Nfg) -> bool:
    return all(
        isinstance(v, (Fraction, int))
        for f in nfg.factors.values()
        for v in f.table.values()
    )


def _exact_mode(nfg: Nfg, m: int, temperature, exact) -> bool:
    """Whether a degree-M sum runs exact: ``exact`` itself, or when None,
    T = 1 with rational tables.  Raises ValueError for M < 1, a T outside
    (0, inf) or an exact mode the graph cannot have."""
    check_degree(m)
    inverse_temperature(temperature)
    if exact is None:
        return temperature == 1 and _rational_tables(nfg)
    if exact and (temperature != 1 or not _rational_tables(nfg)):
        raise ValueError("exact mode needs T = 1 and rational tables")
    return exact


def zbethe_m_enumeration(
    nfg: Nfg,
    m: int,
    temperature: float = 1,
    exact: bool | None = None,
    cap=None,
    config_cap=None,
    samples: int | None = None,
    seed: int | None = None,
    threads: int = 1,
) -> ZBetheM:
    """M-th root of the average Gibbs partition function over all M-covers.

    The average runs over the gauge-fixed covers (identity permutations on
    a spanning forest, see ``covers.gauge_fixed_perm_invs``), which equals
    the average over all labeled covers; ``n_covers`` is still the labeled
    count, and the cover cap applies to it.  Exact mode (T = 1, rational
    tables) averages in rational arithmetic, float mode in floats, both
    through one ``_kernels.cover_sweep``, which takes each cover's Z as
    the product of its parts' sums (a base component with one orbit of
    copies) and walks each class of parts equal up to relabelling copies
    once, the trivial cover's M copies among them; ``config_cap`` bounds
    each whole cover's valid configurations, the product of its parts'
    counts.  With ``samples`` set, a seeded Monte
    Carlo over ``samples`` >= 1 labeled cover specs replaces the
    enumeration on the same walk, so it sums each cover in the same mode,
    and a standard error accompanies the estimate (nan for one sample).
    ``threads`` is accepted and ignored (the sweep is one pure-Python
    loop); it is kept only for callers that still pass it.
    """
    exact = _exact_mode(nfg, m, temperature, exact)
    max_configs = default_config_cap(config_cap)
    walk = _kernels.Walk(_kernels.build_plan(nfg), m, exact=exact)
    inv_t = 1 if exact else 1.0 / float(temperature)
    if samples is not None:
        if seed is None:
            raise ValueError("Monte Carlo mode requires a seed")
        if samples < 1:
            raise ValueError("Monte Carlo mode needs at least one sample")
        rng = random.Random(seed)
        vals = []
        for _ in range(samples):
            perm_inv = cover_perm_inv(random_cover(nfg, m, rng.getrandbits(48)))
            z, _, _ = _kernels.cover_sweep(walk, [perm_inv], inv_t, max_configs)
            vals.append(float(z))
        mean = float(np.mean(vals))
        # one sample gives no spread estimate
        stderr = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else math.nan
        return ZBetheM(mean ** (1.0 / m), mean, m, count_covers(nfg, m), samples, stderr)

    perm_invs = gauge_fixed_perm_invs(nfg, m, cap=cap)
    zsum, _, n_fixed = _kernels.cover_sweep(walk, perm_invs, inv_t, max_configs)
    pre_root = zsum / n_fixed
    return ZBetheM(_root(pre_root, m), pre_root, m, count_covers(nfg, m))


def zbethe_m_typesum(
    nfg: Nfg,
    m: int,
    temperature: float = 1,
    exact: bool | None = None,
    config_cap=None,
) -> ZBetheM:
    """Same quantity via the type-sum over degree-M lift-realizable vectors.

    The pre-root value sums, over the types beta (points of the local
    marginal polytope with M*beta integral and support in the tables),
    g(beta)^{M/T} times the closed-form average pre-image count.  That
    weight factorizes over the graph, so the sum is the partition function
    of a graph on the same full edges, each carrying its marginal counts
    (``covers.type_graph``), summed by variable elimination
    (``covers.eliminate``); no cover and no single type is visited, so no
    cover cap applies.  In rational arithmetic this is an identity with the
    enumeration path, not an approximation.  The float weight is
    exp(-(M/T) U_Bethe(beta)) times the count.  ``config_cap`` bounds the
    tables built, not the types summed: CapExceeded is raised when one
    factor with r support rows has more than that many count vectors,
    C(M+r-1, r-1), and when a table the elimination builds has more
    entries.
    """
    exact = _exact_mode(nfg, m, temperature, exact)
    limit = default_config_cap(config_cap)
    for f in nfg.factors.values():
        n_vectors = math.comb(m + len(f.table) - 1, m)
        if n_vectors > limit:
            raise CapExceeded(f"factor {f.id}: {n_vectors} count vectors exceed cap {limit}")
    tables, unit = type_graph(nfg, m, None if exact else 1.0 / float(temperature))
    total = eliminate(tables, limit) * unit
    return ZBetheM(_root(total, m), total, m, count_covers(nfg, m))


# the range _root takes through a float, as exact Fractions: a Fraction
# compared with a float converts the float to a Fraction on every call
_ROOT_LOW, _ROOT_HIGH = Fraction(1e-300), Fraction(1e300)


def _root(pre_root, m: int) -> float:
    """pre_root^(1/M) as a float; a Fraction past the float range goes
    through logs, which take ints of any size."""
    if isinstance(pre_root, Fraction) and pre_root and not _ROOT_LOW < pre_root < _ROOT_HIGH:
        return math.exp((math.log(pre_root.numerator) - math.log(pre_root.denominator)) / m)
    return float(pre_root) ** (1.0 / m)


# -- the local marginal polytope in flat coordinates ---------------------------


class _BetaIndex:
    """The local marginal polytope of a graph structure, described once, in
    flat coordinates.

    Slots are the factor support rows (factors in sorted id order, rows in
    support order), then the edge symbols (``edge_order``).  The index
    holds the entropy coefficients (+1 on factor rows, -1 on full-edge
    symbols, 0 on half-edge symbols) and A x = b as sparse ``rows``,
    ``cols``, ``vals``: factor sums, edge sums, then one consistency row
    per factor, incident edge and symbol (the factor's marginal minus the
    edge's weight).  Those marginal rows come in blocks, (factor, edge) at
    ``marginal_row``, ordered by alphabet size, then factor, then edge in
    ``f.edges`` order, so the blocks of one size are contiguous.
    ``partner`` maps each marginal row to the row of the same edge symbol
    at the edge's other end, and a half-edge row (or a sum row) to itself,
    ``edge_row`` holds each edge symbol's row at the edge's first
    endpoint, and ``entries`` the (factor slot, marginal row) of each 1 in
    a marginal row.  The sum-product vector is these rows' messages,
    message (f, e) at symbol s at ``marginal_row[f, e] + s - n_sums``.
    The entropy and the free energy are read from these; the T = 0 problem
    is one linear program over the factor slots (``lp``), and the
    Frank-Wolfe gap is A x - b weighed by the log messages (``gap``).

    It also records what its dependents read of the structure: the
    ``factor_ids`` and (factor, edge) ``pairs`` in graph order,
    ``edge_order``, the alphabet ``sizes``, and per full edge
    (``full_edges``) its two factors' numbers, marginal rows and size.  It
    holds no graph and no table value: a structure has one index (``of``),
    a graph's weights and energy are derived from its tables
    (``weighed_on``), and the LP's rows, the diffusion's colours and the
    layout of every row are built on first use and kept on the index.
    """

    def __init__(self, nfg: Nfg):
        sizes = self.sizes = nfg.alphabet_sizes
        self.factor_ids = tuple(nfg.factors)
        self.pairs = [(fid, e) for fid, f in nfg.factors.items() for e in f.edges]
        self.edge_order = nfg.edge_order
        factors = sorted(nfg.factors)
        supports = [nfg.factors[f].support for f in factors]
        self._factors = factors
        self.factor_slots = [(f, key) for f, support in zip(factors, supports) for key in support]
        self.edge_slots = [(e, s) for e in nfg.edge_order for s in range(sizes[e])]
        n_f = len(self.factor_slots)
        self.n = n_f + len(self.edge_slots)
        edge_sizes = [sizes[e] for e in nfg.edge_order]
        edge_start = dict(zip(nfg.edge_order, np.cumsum([n_f] + edge_sizes).tolist()))

        # rows: factor sums, edge sums, then one block per (factor, edge)
        # pair with a row per symbol: the factor's marginal minus the edge's
        # weight.  The blocks run by alphabet size, then factor, then edge
        # in f.edges order, so the blocks of one size are contiguous.
        n_sums = self.n_sums = len(factors) + len(edge_sizes)
        keys = sorted(((f, e) for f in factors for e in nfg.factors[f].edges), key=lambda key: sizes[key[1]])
        bounds = np.cumsum([n_sums] + [sizes[e] for _, e in keys]).tolist()
        self.marginal_row = dict(zip(keys, bounds))
        r = bounds[-1]
        self.partner = np.arange(r)  # a row with no other end is its own partner
        number = {f: i for i, f in enumerate(factors)}
        self.full_edges = []
        for e in nfg.full_edge_order:
            f1, f2 = nfg.incidence[e]
            r1, r2, k = self.marginal_row[f1, e], self.marginal_row[f2, e], sizes[e]
            self.partner[r1:r1 + k], self.partner[r2:r2 + k] = range(r2, r2 + k), range(r1, r1 + k)
            self.full_edges.append((number[f1], number[f2], r1, r2, k))
        symbols, starts, arity = [], [], []
        for f, support in zip(factors, supports):
            first = [self.marginal_row[f, e] for e in nfg.factors[f].edges]
            symbols += itertools.chain.from_iterable(support)
            starts += first * len(support)
            arity.append(len(first))
        # A in coordinates: every slot has a 1 in its sum row, a factor slot
        # a 1 in one marginal row per edge of the factor, and an edge slot a
        # -1 in the marginal rows of its endpoints
        counts = [len(support) for support in supports]
        slots = np.arange(self.n)
        marginal_rows = np.array(symbols, dtype=np.intp) + np.array(starts, dtype=np.intp)
        self.rows = np.concatenate(
            [np.repeat(np.arange(n_sums), counts + edge_sizes), marginal_rows, np.arange(n_sums, r)]
        )
        factor_of = np.repeat(slots[:n_f], np.repeat(arity, counts))
        edge_slot = itertools.chain.from_iterable(range(edge_start[e], edge_start[e] + sizes[e]) for _, e in keys)
        edge_slot = np.fromiter(edge_slot, np.intp, r - n_sums)
        self.cols = np.concatenate([slots, factor_of, edge_slot])
        self.entries = (factor_of, marginal_rows)  # each 1 in a marginal row, in slot order
        edge_row = (self.marginal_row[nfg.incidence[e][0], e] + s for e, s in self.edge_slots)
        self.edge_row = np.fromiter(edge_row, np.intp, len(self.edge_slots))  # at the first endpoint
        self.vals = np.repeat([1.0, -1.0], [self.n + len(marginal_rows), r - n_sums])
        self.rhs = np.repeat([1.0, 0.0], [n_sums, r - n_sums])
        half = [0.0 if e in nfg.half_edges else -1.0 for e, _ in self.edge_slots]
        self.entropy_coef = np.array([1.0] * n_f + half)

    @classmethod
    def of(cls, nfg: Nfg) -> "_BetaIndex":
        """nfg's index: its structure's, built on first use (``Nfg.shared``)."""
        return nfg.shared(cls, cls)

    @classmethod
    def weighed_on(cls, nfg: Nfg):
        """(index, weights, energy): nfg's index (``of``) and its tables
        read into the index's coordinates (``weighed``), once per graph
        (``Nfg.derived``)."""
        index = cls.of(nfg)
        weights, energy = nfg.derived(cls, index.weighed)
        return index, weights, energy

    def weighed(self, nfg: Nfg):
        """(weights, energy) on the tables of nfg, a graph of the index's
        structure: each factor slot's table value as a float, which the
        sum-product layout raises to 1/T, and the energy vector, -log of
        each weight, then 0 on every edge symbol.  Each factor's values are
        read once per factor object (``Nfg.per_factor``)."""
        tables = nfg.per_factor(_BetaIndex, _row_weights)
        tables = [tables[f] for f in self._factors]
        weights = np.array([w for weights, _ in tables for w in weights])
        energy = np.array([u for _, energy in tables for u in energy] + [0.0] * len(self.edge_slots))
        return weights, energy

    @functools.cached_property
    def slot_of(self) -> dict:
        """("f", factor, row) or ("e", edge, symbol) -> slot."""
        keys = [("f",) + slot for slot in self.factor_slots] + [("e",) + slot for slot in self.edge_slots]
        return dict(zip(keys, range(self.n)))

    def to_vector(self, beta: PseudoMarginals) -> np.ndarray:
        fd, ed = beta.factor_dists, beta.edge_dists
        return np.array(
            [float(fd[f].get(key, 0)) for f, key in self.factor_slots]
            + [float(ed[e].get(s, 0)) for e, s in self.edge_slots]
        )

    def to_beta(self, x: np.ndarray) -> PseudoMarginals:
        """The pseudo-marginals of x's non-zero entries (``np.flatnonzero``),
        each a numpy float keyed by its slot, in slot order."""
        factor_dists: dict = {f: {} for f in self.factor_ids}
        edge_dists: dict = {e: {} for e in self.edge_order}
        n_f = len(self.factor_slots)
        nonzero = np.flatnonzero(x)
        for i, v in zip(nonzero.tolist(), x[nonzero]):
            if i < n_f:
                f, key = self.factor_slots[i]
                factor_dists[f][key] = v
            else:
                e, s = self.edge_slots[i - n_f]
                edge_dists[e][s] = v
        return PseudoMarginals.of_dicts(factor_dists, edge_dists)

    def residual(self, x: np.ndarray) -> np.ndarray:
        """A x - b, with A x summed from the sparse ``rows``/``cols``/``vals``."""
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=len(self.rhs)) - self.rhs

    def feasible(self, x: np.ndarray, tol: float) -> bool:
        """Every entry at least -tol and every row of A x = b within tol."""
        return bool(np.all(x >= -tol) and np.all(np.abs(self.residual(x)) <= tol))

    @functools.cached_property
    def lp_rows(self):
        """(A_eq, b_eq) of the T = 0 problem over the factor slots alone.

        The rows are the factor sums, then, for each full edge (f1, f2) and
        each symbol but the last, f1's marginal minus f2's: the consistency
        rows with the edge's own weight eliminated.  A_eq is a sparse CSR
        matrix read off ``rows``/``cols``.
        """
        from scipy.sparse import csr_array

        n_factors = len(self.factor_ids)
        first = [r1 + s for _, _, r1, _, k in self.full_edges for s in range(k - 1)]
        second = [r2 + s for _, _, _, r2, k in self.full_edges for s in range(k - 1)]
        n_lp = n_factors + len(first)
        lp_row = np.full(len(self.rhs), -1)  # row of A -> row of A_eq
        lp_row[:n_factors] = np.arange(n_factors)
        lp_row[first] = lp_row[second] = np.arange(n_factors, n_lp)
        sign = np.ones(len(self.rhs))
        sign[second] = -1.0
        n_f = len(self.factor_slots)
        keep = (self.cols < n_f) & (lp_row[self.rows] >= 0)
        rows = self.rows[keep]
        # factor slots carry +1 in A, and no slot twice in one row of A_eq
        a_eq = csr_array((sign[rows], (lp_row[rows], self.cols[keep])), shape=(n_lp, n_f))
        return a_eq, np.repeat([1.0, 0.0], [n_factors, len(first)])

    @functools.cached_property
    def diffusion(self) -> "_Diffusion":
        return _Diffusion(self)

    @functools.cached_property
    def layout(self) -> _FlatLayout:
        """The sum-product layout of every factor row (``spa.layout``)."""
        return _FlatLayout(self, np.arange(len(self.factor_slots)))

    def entropy(self, x: np.ndarray) -> float:
        """Bethe entropy -sum_i coef_i x_i log x_i, with 0 log 0 = 0."""
        return float(-(self.entropy_coef @ (x * np.log(np.where(x > 0, x, 1.0)))))

    def free_energy(self, x: np.ndarray, energy: np.ndarray, temperature: float) -> float:
        """<energy, x> - T * entropy(x)."""
        return float(energy @ x - float(temperature) * self.entropy(x))

    def gap(self, x: np.ndarray, messages: dict, temperature: float) -> float:
        """|Frank-Wolfe gap| of x, the beliefs of the sum-product
        ``messages`` (``SpaState.messages``) at T, with no solver.

        With lambda on marginal row (f, e, s) T log of the message into f on
        e at s (the other end's message; 1 on a half-edge), the gradient of
        the free energy at x is A^T lambda plus one constant per sum row
        (Yedidia, Freeman & Weiss 2005).  So <g, v> is the same on the whole
        polytope, and the gap <g, x> - min <g, v> is lambda . (A x - b) on
        the marginal rows (``residual``), 0 at a fixed point.  The messages
        laid out in row order are the sum-product vector, so each row reads
        its incoming message at its ``partner``.  A row whose incoming
        message is 0 holds only zero beliefs and adds 0."""
        sent = np.concatenate([np.ones(self.n_sums), *(messages[key] for key in self.marginal_row)])
        incoming = np.where(self.partner != np.arange(len(self.partner)), sent[self.partner], 1.0)
        live = incoming > 0
        return abs(float(temperature) * float(np.log(incoming[live]) @ self.residual(x)[live]))

    def diffuse(self, energy: np.ndarray):
        """(pinned, sweeps, bound): at most ``DIFFUSION_SWEEPS`` sweeps of
        max-sum diffusion on the dual of the T = 0 program (``lp``) with the
        factor slots' ``energy``, over the index's colours (``diffusion``).

        The dual reparametrizes the factor costs theta (the energy of each
        factor slot) by moving cost between the two ends of each full edge,
        symbol by symbol; any such move keeps <theta, x> on the polytope,
        so bound = sum over factors of min theta is at most the LP optimum.
        One sweep visits the colours of ``_Diffusion`` in turn; in a colour,
        each edge symbol's two min-marginals (the least cost of an
        endpoint's rows that carry the symbol) are set to their mean.
        ``pinned`` is the 0/1 factor-slot vector of the configuration that
        pins the optimum, once every factor's least cost beats its
        runner-up by more than ``PIN_MARGIN`` and those minimizers agree on
        every full edge: that point mass then attains the bound and every
        other point of the polytope costs more, so the optimum is unique
        and integral.  ``pinned`` is None when no sweep pinned it."""
        dif = self.diffusion
        if not dif.feasible:
            return None, 0, math.inf
        theta = np.where(dif.live, energy[:len(self.factor_slots)], np.inf)
        for sweep in range(1, DIFFUSION_SWEEPS + 1):
            for slots, starts, segment, partner in dif.colours:
                cost = theta[slots]
                mu = np.minimum.reduceat(cost, starts)
                theta[slots] = cost + 0.5 * (mu[partner] - mu)[segment]
            least = np.minimum.reduceat(theta, dif.factor_starts)
            near = theta <= least[dif.factor_of] + PIN_MARGIN
            if np.count_nonzero(near) == len(least) and dif.agree(near):
                return near.astype(float), sweep, float(least.sum())
        return None, DIFFUSION_SWEEPS, float(least.sum())

    def lp(self, energy: np.ndarray):
        """(minimizer's factor slots, minimum) of the T = 0 program: the
        factor slots' ``energy`` minimized on the rows ``lp_rows``.  Raises
        LpFailure when the LP fails."""
        from scipy.optimize import linprog

        a_eq, b_eq = self.lp_rows
        res = linprog(energy[:len(self.factor_slots)], A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
        if not res.success:
            raise LpFailure(f"linear program failed: {res.message}")
        return res.x, float(res.fun)


def _row_weights(f: Factor):
    """(weights, energies) of f's support rows in support order: each table
    value as a float, and its -log."""
    # a Fraction's float is numerator / denominator; dividing here skips the
    # slow generic conversion, with the same rounding
    weights = [v if type(v) is float else v.numerator / v.denominator for v in map(f.table.get, f.support)]
    return weights, [-math.log(w) for w in weights]


class _Diffusion:
    """The structure of ``_BetaIndex.diffuse``, read off the index's
    ``entries``, ``partner`` and ``full_edges``; it holds no graph and no
    weights.

    ``live`` marks the factor slots a point of the polytope can weigh: a
    slot dies when one of its edge symbols has no live row at the edge's
    other end (arc consistency, to a fixed point), and the diffusion keeps
    a dead slot's cost at +inf and never moves it, so a symbol that one
    end does not support never makes inf - inf.  ``feasible`` is False when
    a factor has no live slot (the program is then infeasible).  The full
    edges are coloured greedily so that no two edges of a colour share a
    factor; each colour holds its live (slot, marginal row) entries sorted
    by row, as (``slots``, ``starts`` of each row's segment, ``segment`` of
    each entry, ``partner``: the segment of the row's ``partner``).
    ``agree`` checks that one slot per factor meets every full edge with
    one symbol.
    """

    def __init__(self, idx: _BetaIndex):
        n_f, n_rows = len(idx.factor_slots), len(idx.rhs)
        slot, row = self.entry_slot, self.entry_row = idx.entries
        partner = idx.partner
        self.factor_of = idx.rows[:n_f]  # a factor slot's sum row is its factor's number
        self.factor_starts = np.flatnonzero(np.diff(self.factor_of, prepend=-1))
        row_colour = np.full(n_rows, -1)
        used = [set() for _ in idx.factor_ids]
        for f1, f2, r1, r2, k in idx.full_edges:
            colour = next(c for c in itertools.count() if c not in used[f1] | used[f2])
            used[f1].add(colour)
            used[f2].add(colour)
            row_colour[r1:r1 + k] = row_colour[r2:r2 + k] = colour
        self.live = np.ones(n_f, dtype=bool)
        while True:
            supported = np.zeros(n_rows, dtype=bool)
            supported[row[self.live[slot]]] = True
            dead = slot[self.live[slot] & ~supported[partner[row]]]
            if not dead.size:
                break
            self.live[dead] = False
        live_per_factor = np.bincount(self.factor_of, weights=self.live, minlength=len(idx.factor_ids))
        self.feasible = bool(np.all(live_per_factor > 0))
        self.full_rows = np.flatnonzero(partner != np.arange(n_rows))
        self.full_partner = partner[self.full_rows]
        self.n_rows = n_rows
        self.colours = []
        for colour in range(int(row_colour.max(initial=-1)) + 1):
            pick = np.flatnonzero((row_colour[row] == colour) & self.live[slot])
            pick = pick[np.argsort(row[pick], kind="stable")]
            rows_c = row[pick]
            first = np.diff(rows_c, prepend=-1) != 0
            starts, segment = np.flatnonzero(first), np.cumsum(first) - 1
            segment_of = np.full(n_rows, -1)
            segment_of[rows_c[starts]] = np.arange(len(starts))
            self.colours.append((slot[pick], starts, segment, segment_of[partner[rows_c[starts]]]))

    def agree(self, near: np.ndarray) -> bool:
        """Whether the slots ``near`` marks, one per factor, carry one symbol
        at both ends of every full edge."""
        hit = np.zeros(self.n_rows, dtype=bool)
        hit[self.entry_row[near[self.entry_slot]]] = True
        return bool(np.array_equal(hit[self.full_rows], hit[self.full_partner]))


# -- entropy-regularized factor tilt ------------------------------------------


class TiltResult:
    """Per-block solutions of a stacked tilt: ``dist`` (blocks, rows),
    ``duals`` (blocks, edges), ``steps`` and ``converged`` per block, and
    ``iterations``, the Newton iterations summed over the blocks."""

    __slots__ = ("dist", "duals", "steps", "converged", "iterations")

    def __init__(self, dist, duals, steps, converged):
        self.dist = dist
        self.duals = duals
        self.steps = steps
        self.converged = converged
        self.iterations = int(steps.sum())


def _newton_steps(cov, grad):
    try:
        return np.linalg.solve(cov, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    steps = grad.copy()  # a singular block steps along its gradient
    for b in range(len(grad)):
        try:
            steps[b] = np.linalg.solve(cov[b], grad[b])
        except np.linalg.LinAlgError:
            pass
    return steps


def _tilt(features, log_w, targets, lam):
    """(dist, dual) of a stack of duals ``lam``: each block's tilted
    distribution, proportional to w exp(features @ lam), and its dual
    objective lam . targets - log Z."""
    s = log_w + (features @ lam[:, :, None])[:, :, 0]
    top = s.max(axis=1)
    p = np.exp(s - top[:, None])
    z = p.sum(axis=1)
    p /= z[:, None]
    return p, np.einsum("bv,bv->b", lam, targets) - (top + np.log(z))


def tilt_factor_block(features, log_w, targets) -> TiltResult:
    """Minimize <(-log w), beta> - H(beta) over the simplex with marginal
    targets, for a stack of equal-shape binary blocks at once.

    ``features`` (blocks, rows, edges) holds each block's support rows as
    0/1 symbols, ``log_w`` (blocks, rows) their log weights, and ``targets``
    (blocks, edges) each edge's target probability of symbol one.  The
    optimum is an exponential-family tilt beta(a) ∝ w(a) exp(sum_e
    lambda_e a_e); the duals are found by damped Newton on the
    marginal-matching conditions, all blocks in one batched solve.  Newton
    starts at the independent-bit duals lambda_e = log(t_e / (1 - t_e)),
    the optimum when a block's rows are all of {0,1}^edges with equal
    weights, on each edge whose target t_e lies in (0, 1), and at 0 on the
    others (a masked edge has target 0 and a zero feature column).  Every
    block stays in the stack for the whole solve: one pass per iteration
    scores it (``_tilt``), and the distribution, marginals, covariance
    and each block's own backtracking line search, which narrows its
    ``search`` mask, read off it.  The ``live`` mask picks the blocks to
    record and step.  A block freezes, keeping that iteration's
    distribution and duals, which are not written again, once its gradient
    is at most ``TILT_TOL``; ``converged`` marks the blocks that froze
    within ``TILT_ITERS`` iterations, and the others keep the distribution
    at their duals after the last step.
    """
    features = np.asarray(features, dtype=float)
    log_w = np.asarray(log_w, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n_blocks, n_rows, n_vars = features.shape
    dist, steps = np.empty((n_blocks, n_rows)), np.empty(n_blocks, dtype=int)
    live, converged = np.ones(n_blocks, dtype=bool), np.zeros(n_blocks, dtype=bool)
    ridge = 1e-12 * np.eye(n_vars)
    start = np.where((targets > 0) & (targets < 1), targets, 0.5)  # 0.5 starts at 0
    lam = np.log(start / (1 - start))
    ft = features.transpose(0, 2, 1)  # (blocks, edges, rows)
    for it in range(1, TILT_ITERS + 2):
        p, base = _tilt(features, log_w, targets, lam)
        marg = (ft @ p[:, :, None])[:, :, 0]
        grad = targets - marg
        gmax = np.abs(grad).max(axis=1)
        last = it > TILT_ITERS  # after the last step: read the distribution off only
        out = live & ((gmax <= TILT_TOL) | last)
        dist[out], steps[out], converged[out] = p[out], it - last, not last
        live &= ~out
        if not live.any():
            break
        cov = (ft * p[:, None, :]) @ features - marg[:, :, None] * marg[:, None, :] + ridge
        step = _newton_steps(cov, grad)
        # in the quadratic convergence zone the dual's gain is below float
        # rounding, so backtracking would stall; those blocks take the full step
        search = live & (gmax > 1e-6)
        t, scale = np.ones(n_blocks), 1.0
        for _ in range(60):
            if not search.any():
                break
            search &= ~(_tilt(features, log_w, targets, lam + scale * step)[1] > base - 1e-18)
            scale *= 0.5
            t[search] = scale
        step *= t[:, None]
        np.add(lam, step, out=lam, where=live[:, None])
    return TiltResult(dist, lam, steps, converged)


# -- minimization -------------------------------------------------------------


class MinimizeResult:
    """``certified`` is True when max-sum diffusion pinned a T = 0 optimum
    (``_BetaIndex.diffuse``) and no LP was solved; ``sweeps`` counts the
    diffusion sweeps run (0 at T > 0)."""

    __slots__ = ("beta", "f_min", "z_bethe", "converged", "tie", "certified", "sweeps")

    def __init__(self, beta, f_min, z_bethe, converged, tie, certified=False, sweeps=0):
        self.beta = beta
        self.f_min = f_min
        self.z_bethe = z_bethe
        self.converged = converged
        self.tie = tie
        self.certified = certified
        self.sweeps = sweeps


def _minimize_energy(nfg: Nfg, config_cap) -> MinimizeResult:
    """Exact T=0 problem: the energy is linear and B is a polytope.  The
    graph's M = 1 tally is held to ``config_cap`` first, so the cap binds
    every word.  A word that diffusion pins (``_BetaIndex.diffuse``) is its
    point mass, with the energy of its rows summed in slot order and no
    tie; any other goes to ``_BetaIndex.lp``, whose rows at most 1e-12 are
    dropped and factors renormalized, and ``_zero_temp_tie`` decides its
    tie.  Each edge's marginal is read off its first endpoint."""
    TypeTally.of(nfg, 1, None, config_cap)
    idx, _, energy = _BetaIndex.weighed_on(nfg)
    y, sweeps, _ = idx.diffuse(energy)
    certified = y is not None
    if certified:
        f_min = sum(energy[:len(y)][y > 0].tolist())
    else:
        y, f_min = idx.lp(energy)
    factor = idx.rows[:len(y)]  # a factor slot's sum row is its factor's number
    y = np.where(y > 1e-12, y, 0.0)
    y = y / np.bincount(factor, weights=y)[factor]
    slot, row = idx.entries
    x = np.concatenate([y, np.bincount(row, weights=y[slot], minlength=len(idx.rhs))[idx.edge_row]])
    beta = idx.to_beta(x)
    tie = not certified and _zero_temp_tie(nfg, x, f_min, config_cap)
    return MinimizeResult(beta, f_min, None, True, tie, certified, sweeps)


def minimize_bethe(
    nfg: Nfg,
    temperature: float = 1.0,
    n_starts: int = 8,
    seed: int = 0,
    config_cap=None,
) -> MinimizeResult:
    """Minimize the Bethe free energy over the local marginal polytope.

    The graph's ``_BetaIndex`` describes the polytope and the free energy.
    T = 0 is an exact linear program over its factor slots (the energy is
    linear).  At most ``DIFFUSION_SWEEPS`` sweeps of max-sum diffusion on
    its dual run first (``_BetaIndex.diffuse``); when they pin the optimum,
    it is unique and integral, the point mass of one configuration, and
    is returned with ``certified`` True, ``tie`` False, no LP solved and no
    configuration value read.  A pin proves the optimum one integral point;
    the converse is not guaranteed, though on the bundled code's seeded
    words every such optimum was pinned.  A fractional optimum, several
    optimal configurations, one optimal configuration with an equally good
    fractional point beside it, or an optimum the sweeps did not pin go to
    the LP.  There ``tie`` means a fractional optimum or
    several optimal configurations, read from the values of the graph's
    M = 1 type tally (``covers.TypeTally``), walked once per structure.
    Every T = 0 call, pinned or not, holds that tally to ``config_cap``
    (the environment's or default configuration cap when None) and raises
    CapExceeded past it; T > 0 reads no tally.

    For T > 0 the starts run in order (the uniform start, then seeded
    random messages), one sum-product run each at damping ``SPA_DAMPING``,
    at most ``n_starts`` starts, so at most ``n_starts`` * ``SPA_ITERS``
    sweeps.  Only converged fixed points in the polytope (entries at least
    -1e-6, every equality within 1e-6) are kept, and the first whose
    Frank-Wolfe gap, read off its messages with no solver
    (``_BetaIndex.gap``), is at most ``GAP_TOL`` is returned with
    ``converged`` True.  Where the free energy is not convex a certified
    point is stationary, not necessarily the global minimum.
    When no fixed point certifies, the lowest kept one is returned with
    ``converged`` False; when none is kept, NonConvergence is raised.
    ``tie`` is always False at T > 0.
    """
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be non-negative and finite, got {temperature}")
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    if temperature == 0:
        return _minimize_energy(nfg, config_cap)

    idx, _, energy = _BetaIndex.weighed_on(nfg)
    t = float(temperature)
    best = None  # (free energy, beliefs) of the lowest uncertified fixed point
    rng = np.random.default_rng(seed)
    inits = [None] + [np.random.default_rng(rng.integers(2**32)) for _ in range(n_starts - 1)]
    for init in inits:
        state, beliefs = sum_product(
            nfg, max_iters=SPA_ITERS, damping=SPA_DAMPING, tol=SPA_TOL, temperature=t, init_rng=init,
        )
        if not state.converged:
            continue
        x = idx.to_vector(beliefs)
        if not idx.feasible(x, 1e-6):
            continue
        value = idx.free_energy(x, energy, t)
        if idx.gap(x, state.messages, t) <= GAP_TOL:
            return MinimizeResult(beliefs, value, math.exp(-value / t), True, False)
        if best is None or value < best[0]:
            best = (value, beliefs)
    if best is None:
        raise NonConvergence(
            f"no sum-product start of {n_starts} reached a fixed point in the local marginal polytope"
        )
    f_min, beta = best
    return MinimizeResult(beta, f_min, math.exp(-f_min / t), False, False)


def _zero_temp_tie(nfg: Nfg, x: np.ndarray, f_min: float, config_cap):
    """Tie when the optimum, the slot vector ``x``, is fractional or several
    configurations attain it; the graph's M = 1 types
    (``TypeTally.weighed_on``) are weighed for an integral optimum only."""
    if np.max(np.abs(x - np.round(x))) > 1e-6:
        return True
    _, types, unit = TypeTally.weighed_on(nfg, 1, None, config_cap)
    return sum(abs(-math.log(value * unit) - f_min) <= 1e-9 for _, value, _, _ in types) > 1


# -- beta serialization --------------------------------------------------------


def emit_beta(beta: PseudoMarginals) -> str:
    lines = []
    for f in sorted(beta.factor_dists):
        for key in sorted(beta.factor_dists[f]):
            sym = ",".join(str(s) for s in key)
            lines.append(f"beta {f} {sym} {format_number(beta.factor_dists[f][key])}")
    for e in sorted(beta.edge_dists):
        for s in sorted(beta.edge_dists[e]):
            lines.append(f"beta {e} {s} {format_number(beta.edge_dists[e][s])}")
    return "\n".join(lines) + "\n"


def parse_beta(nfg: Nfg, text: str) -> PseudoMarginals:
    factor_dists: dict = {f: {} for f in nfg.factors}
    edge_dists: dict = {e: {} for e in nfg.edge_order}

    def read(parts):
        if parts[0] != "beta" or len(parts) != 4:
            raise ParseError("expected 'beta <id> <assignment> <value>'")
        _, ident, assignment, value = parts
        if ident not in nfg.factors and ident not in nfg.alphabet_sizes:
            raise ParseError(f"unknown factor or edge {ident!r}")
        v = parse_number(value)
        if ident in nfg.factors:
            key = tuple(int(s) for s in assignment.split(","))
            factor_dists[ident][key] = v
        else:
            key = int(assignment)
            edge_dists[ident][key] = v
        return f"beta {ident} {key}"

    read_lines(text, read)
    return PseudoMarginals(factor_dists, edge_dists)
