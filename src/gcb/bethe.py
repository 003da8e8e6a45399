"""Bethe-side analytics over the local marginal polytope.

Includes the energy/entropy/free-energy split (membership checking,
``check_local_consistency``, lives in ``covers`` and is re-exported here),
the degree-M partition function computed two ways (enumeration of the
gauge-fixed covers, and the type-sum over the lift-realizable
pseudo-marginals by elimination; an exact identity in rational
arithmetic), free-energy minimization at zero and positive temperature,
and the constrained-stationarity residual used to confirm sum-product
fixed points.  The minimization half describes the polytope once, in
``_BetaIndex``: the T = 0 linear program, the projected descent, the
residual and the minimizer's candidates all read its slots, constraint
rows, free energy, gradient and tangent projection, and the max-entropy
completion (``bme``) is guarded by its rows and scored by its entropy.
The completion's check blocks are solved together by the stacked Newton
tilt ``tilt_factor_block``.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np

from . import _kernels
from ._kernels.pyref import Walk
from .covers import (
    PseudoMarginals,
    build_cover,
    check_local_consistency,
    check_shape,
    count_covers,
    cover_cap,
    cover_perm_inv,
    eliminate,
    gauge_fixed_perm_invs,
    phi_m,
    random_cover,
    type_graph,
)
from .errors import (
    BoundaryBeta,
    CapExceeded,
    InconsistentBeta,
    LpFailure,
    SupportOnZeroFactor,
    ZeroGlobalValue,
)
from .gibbs import config_cap as default_config_cap
from .gibbs import valid_tuples
from .nfg import Nfg, parse_number, format_number
from .spa import sum_product

INTERIOR_EPS = 1e-12


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


def _entropy(values) -> float:
    h = 0.0
    for v in values:
        v = float(v)
        if v > 0:
            h -= v * math.log(v)
    return h


def bethe_terms(nfg: Nfg, beta: PseudoMarginals, temperature: float = 1.0, tol: float = 1e-9) -> BetheEvaluation:
    """Average energy, entropy, and free energy of a pseudo-marginal vector.

    Half-edge entropy terms carry coefficient zero and are omitted.
    """
    ok, violations = check_local_consistency(nfg, beta, tol=tol)
    if not ok:
        raise InconsistentBeta(f"beta outside the local marginal polytope: {violations[:3]}")
    u = 0.0
    h = 0.0
    for f in nfg.factors:
        table = nfg.factors[f].table
        d = beta.factor_dists[f]
        for key, w in d.items():
            w = float(w)
            if w == 0.0:
                continue
            g = table.get(key)
            if g is None:
                raise SupportOnZeroFactor(f"beta weight on zero-valued row {key} of {f}")
            u -= w * math.log(g)
        h += _entropy(d.values())
    for e in nfg.full_edge_order:
        h -= _entropy(beta.edge_dists[e].values())
    return BetheEvaluation(u, h, float(temperature))


def bethe_energy_from_cover(spec, cover_config) -> float:
    """-(1/M) log of the cover's global value; equals the energy of its image.

    Asserts agreement with the frequency-mapped evaluation to 1e-12.
    """
    cover = build_cover(spec)
    tup = cover_config if isinstance(cover_config, tuple) else cover.config_tuple(cover_config)
    logg = 0.0
    for cf in cover.factors:
        v = cover.factors[cf].value(cover.local_assignment(cf, tup))
        if v == 0:
            raise ZeroGlobalValue(f"configuration invalid at {cf}")
        logg += math.log(v)
    energy = -logg / spec.m
    beta = phi_m(spec, tup)
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
    T = 1 with rational tables.  Raises ValueError for M < 1, T <= 0 or an
    exact mode the graph cannot have."""
    if m < 1:
        raise ValueError("degree M must be at least 1")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
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
    through one ``_kernels.cover_sweep``; ``config_cap`` bounds each
    cover's valid configurations.  With ``samples`` set, a seeded Monte
    Carlo over ``samples`` >= 1 labeled cover specs replaces the
    enumeration and a standard error accompanies the estimate.  ``threads``
    is accepted and ignored (the sweep is one pure-Python loop); it is kept
    only for callers that still pass it.
    """
    exact = _exact_mode(nfg, m, temperature, exact)
    max_configs = default_config_cap(config_cap)
    if samples is not None:
        if seed is None:
            raise ValueError("Monte Carlo mode requires a seed")
        if samples < 1:
            raise ValueError("Monte Carlo mode needs at least one sample")
        rng = random.Random(seed)
        walk = Walk(_kernels.build_plan(nfg), m)
        t_inv = 1 if temperature == 1 else 1.0 / float(temperature)
        vals = []
        for _ in range(samples):
            perm_inv = cover_perm_inv(random_cover(nfg, m, rng.getrandbits(48)))
            z, _, _ = _kernels.cover_sweep(walk, [perm_inv], t_inv, max_configs)
            vals.append(float(z))
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
        return ZBetheM(mean ** (1.0 / m), mean, m, count_covers(nfg, m), samples, stderr)

    n_covers = count_covers(nfg, m)
    limit = cover_cap(cap)
    if n_covers > limit:
        raise CapExceeded(
            f"{n_covers} covers exceed cap {limit}; use Monte Carlo mode (samples=...)"
        )
    walk = Walk(_kernels.build_plan(nfg), m, exact=exact)
    inv_t = 1 if exact else 1.0 / float(temperature)
    perm_invs = gauge_fixed_perm_invs(nfg, m, cap=cap)
    zsum, _, n_fixed = _kernels.cover_sweep(walk, perm_invs, inv_t, max_configs)
    pre_root = zsum / n_fixed
    return ZBetheM(_root(pre_root, m), pre_root, m, n_covers)


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


def _root(pre_root, m: int) -> float:
    """pre_root^(1/M) as a float; a Fraction past the float range goes
    through logs, which take ints of any size."""
    if isinstance(pre_root, Fraction) and pre_root and not 1e-300 < pre_root < 1e300:
        return math.exp((math.log(pre_root.numerator) - math.log(pre_root.denominator)) / m)
    return float(pre_root) ** (1.0 / m)


# -- the local marginal polytope in flat coordinates ---------------------------


class _BetaIndex:
    """The local marginal polytope of a graph, described once, in flat
    coordinates.

    Slots are the factor support rows (factors in sorted id order, rows in
    support order), then the edge symbols (``edge_order``).  The index
    holds the energy vector (-log of each row's table value), the entropy
    coefficients (+1 on factor rows, -1 on full-edge symbols, 0 on
    half-edge symbols) and the equality constraints A x = b: factor sums,
    edge sums, then one consistency row per factor, incident edge and
    symbol (the factor's marginal minus the edge's weight).  The entropy,
    the free energy, its gradient, the tangent projection and the T = 0
    linear program are all read from these.  The index holds its graph
    weakly, so a cache of indexes keyed by their graphs lets the graphs go;
    whoever uses an index holds its graph.
    """

    def __init__(self, nfg: Nfg):
        self._graph = weakref.ref(nfg)
        sizes = nfg.alphabet_sizes
        factors = sorted(nfg.factors)
        supports = [nfg.factors[f].support for f in factors]
        self.factor_slots = [(f, key) for f, support in zip(factors, supports) for key in support]
        self.edge_slots = [(e, s) for e in nfg.edge_order for s in range(sizes[e])]
        n_f = len(self.factor_slots)
        self.n = n_f + len(self.edge_slots)
        edge_sizes = [sizes[e] for e in nfg.edge_order]
        edge_start = dict(zip(nfg.edge_order, np.cumsum([n_f] + edge_sizes).tolist()))

        # rows: factor sums, edge sums, then one block per (factor, edge)
        # pair with a row per symbol: the factor's marginal minus the edge's
        # weight
        n_sums = len(factors) + len(edge_sizes)
        self.marginal_row = {}
        energy, symbols, starts, arity, edge_slot = [], [], [], [], []
        r = n_sums
        for f, support in zip(factors, supports):
            fac = nfg.factors[f]
            first = []
            for e in fac.edges:
                self.marginal_row[f, e] = r
                first.append(r)
                edge_slot += range(edge_start[e], edge_start[e] + sizes[e])
                r += sizes[e]
            # a Fraction's float is numerator / denominator; dividing here
            # skips the slow generic conversion, with the same rounding
            values = [fac.table[key] for key in support]
            energy += [-math.log(v if type(v) is float else v.numerator / v.denominator) for v in values]
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
        self.cols = np.concatenate(
            [slots, np.repeat(slots[:n_f], np.repeat(arity, counts)), np.array(edge_slot, dtype=np.intp)]
        )
        self.vals = np.repeat([1.0, -1.0], [self.n + len(marginal_rows), r - n_sums])
        self.rhs = np.repeat([1.0, 0.0], [n_sums, r - n_sums])
        self._energy = np.array(energy + [0.0] * len(self.edge_slots))
        half = [0.0 if e in nfg.half_edges else -1.0 for e, _ in self.edge_slots]
        self.entropy_coef = np.array([1.0] * n_f + half)

    @property
    def nfg(self) -> Nfg:
        return self._graph()

    @functools.cached_property
    def a_mat(self) -> np.ndarray:
        """A as a dense array, built on first use (the T = 0 path needs
        only ``energy_lp``)."""
        a = np.zeros((len(self.rhs), self.n))
        a[self.rows, self.cols] = self.vals
        return a

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
        factor_dists: dict = {f: {} for f in self.nfg.factors}
        edge_dists: dict = {e: {} for e in self.nfg.edge_order}
        for (f, key), v in zip(self.factor_slots, x):
            if v != 0:
                factor_dists[f][key] = v
        for (e, s), v in zip(self.edge_slots, x[len(self.factor_slots):]):
            if v != 0:
                edge_dists[e][s] = v
        return PseudoMarginals(factor_dists, edge_dists)

    def equality_matrix(self):
        """(A, b): factor sums, edge sums, and per-(f, e, symbol) consistency."""
        return self.a_mat, self.rhs

    def feasible(self, x: np.ndarray, tol: float) -> bool:
        """Every entry at least -tol and every row of A x = b within tol."""
        return bool(np.all(x >= -tol) and np.all(np.abs(self.a_mat @ x - self.rhs) <= tol))

    def energy_vector(self) -> np.ndarray:
        return self._energy

    def energy_lp(self):
        """(c, A_eq, b_eq) of the T = 0 problem over the factor slots alone.

        The rows are the factor sums, then, for each full edge (f1, f2) and
        each symbol but the last, f1's marginal minus f2's: the consistency
        rows with the edge's own weight eliminated.
        """
        n_f = len(self.factor_slots)
        n_factors = len(self.nfg.factors)
        first, second = [], []
        for e in self.nfg.full_edge_order:
            f1, f2 = self.nfg.incidence[e]
            for s in range(self.nfg.alphabet_sizes[e] - 1):
                first.append(self.marginal_row[f1, e] + s)
                second.append(self.marginal_row[f2, e] + s)
        n_lp = n_factors + len(first)
        lp_row = np.full(len(self.rhs), -1)  # row of A -> row of A_eq
        lp_row[:n_factors] = np.arange(n_factors)
        lp_row[first] = lp_row[second] = np.arange(n_factors, n_lp)
        sign = np.ones(len(self.rhs))
        sign[second] = -1.0
        keep = (self.cols < n_f) & (lp_row[self.rows] >= 0)
        rows = self.rows[keep]
        a_eq = np.zeros((n_lp, n_f))
        a_eq[lp_row[rows], self.cols[keep]] = sign[rows]  # factor slots carry +1 in A
        return self._energy[:n_f], a_eq, np.repeat([1.0, 0.0], [n_factors, len(first)])

    def entropy(self, x: np.ndarray) -> float:
        """Bethe entropy -sum_i coef_i x_i log x_i, with 0 log 0 = 0."""
        return float(-(self.entropy_coef @ (x * np.log(np.where(x > 0, x, 1.0)))))

    def free_energy(self, x: np.ndarray, temperature: float) -> float:
        """<energy, x> - T * entropy(x)."""
        return float(self._energy @ x - float(temperature) * self.entropy(x))

    def gradient(self, x: np.ndarray, temperature: float) -> np.ndarray:
        """Gradient of ``free_energy``, with x clamped to the interiority epsilon."""
        t = float(temperature) * self.entropy_coef
        return self._energy + t * (np.log(np.maximum(x, INTERIOR_EPS)) + 1.0)

    def project(self, g: np.ndarray) -> np.ndarray:
        """g minus its least-squares fit by the rows of A: the projection onto
        the tangent space of the constraints."""
        y, *_ = np.linalg.lstsq(self.a_mat.T, g, rcond=None)
        return g - self.a_mat.T @ y


def stationarity_residual(nfg: Nfg, beta: PseudoMarginals, temperature: float = 1.0) -> float:
    """Norm of the free-energy gradient projected onto the constraint tangent space.

    Zero exactly at stationary points of the constrained problem; requires
    beta strictly interior (all support coordinates above 1e-12).
    """
    check_shape(nfg, beta)
    idx = _BetaIndex(nfg)
    x = idx.to_vector(beta)
    if np.any(x <= INTERIOR_EPS):
        raise BoundaryBeta("beta has entries at or below the interiority epsilon")
    return float(np.linalg.norm(idx.project(idx.gradient(x, temperature))))


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


def _tilt_scores(features, log_w, lam):
    return log_w + (features @ lam[:, :, None])[:, :, 0]


def _tilt_dist(features, log_w, lam):
    scores = _tilt_scores(features, log_w, lam)
    p = np.exp(scores - scores.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def _tilt_dual(features, log_w, targets, lam):
    scores = _tilt_scores(features, log_w, lam)
    mx = scores.max(axis=1)
    return np.einsum("bv,bv->b", lam, targets) - (mx + np.log(np.exp(scores - mx[:, None]).sum(axis=1)))


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


def tilt_factor_block(features, log_w, targets, tol: float = 1e-12, max_iters: int = 200) -> TiltResult:
    """Minimize <(-log w), beta> - H(beta) over the simplex with marginal
    targets, for a stack of equal-shape binary blocks at once.

    ``features`` (blocks, rows, edges) holds each block's support rows as
    0/1 symbols, ``log_w`` (blocks, rows) their log weights, and ``targets``
    (blocks, edges) each edge's target probability of symbol one.  The
    optimum is an exponential-family tilt beta(a) ∝ w(a) exp(sum_e
    lambda_e a_e); the duals are found by damped Newton on the
    marginal-matching conditions, all blocks in one batched solve.  Each
    block keeps its own backtracking line search and is frozen once its
    gradient is at most ``tol``; ``converged`` marks the blocks that got
    there within ``max_iters``.
    """
    features = np.asarray(features, dtype=float)
    log_w = np.asarray(log_w, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n_blocks, _, n_vars = features.shape
    lam = np.zeros((n_blocks, n_vars))
    steps = np.zeros(n_blocks, dtype=int)
    converged = np.zeros(n_blocks, dtype=bool)
    ridge = 1e-12 * np.eye(n_vars)
    live = np.arange(n_blocks)
    for it in range(1, max_iters + 1):
        f, lw, tg, lm = features[live], log_w[live], targets[live], lam[live]
        p = _tilt_dist(f, lw, lm)
        marg = np.einsum("brv,br->bv", f, p)
        grad = tg - marg
        gmax = np.max(np.abs(grad), axis=1)
        steps[live] = it
        done = gmax <= tol
        converged[live[done]] = True
        if done.all():
            break
        if done.any():
            keep = ~done
            live, f, lw, tg, lm, p, marg, grad, gmax = (
                a[keep] for a in (live, f, lw, tg, lm, p, marg, grad, gmax)
            )
        cov = np.einsum("brv,brw->bvw", f * p[:, :, None], f) - marg[:, :, None] * marg[:, None, :] + ridge
        step = _newton_steps(cov, grad)
        # in the quadratic convergence zone the dual's gain is below float
        # rounding, so backtracking would stall; those blocks take the full step
        t = np.ones(len(live))
        search = np.flatnonzero(gmax > 1e-6)
        if search.size:
            base = _tilt_dual(f[search], lw[search], tg[search], lm[search])
            for _ in range(60):
                cand = lm[search] + t[search, None] * step[search]
                ok = _tilt_dual(f[search], lw[search], tg[search], cand) > base - 1e-18
                search, base = search[~ok], base[~ok]
                if not search.size:
                    break
                t[search] *= 0.5
        lam[live] = lm + t[:, None] * step
    return TiltResult(_tilt_dist(features, log_w, lam), lam, steps, converged)


# -- minimization -------------------------------------------------------------


class MinimizeResult:
    __slots__ = ("beta", "f_min", "z_bethe", "converged", "minimizers", "tie", "message")

    def __init__(self, beta, f_min, z_bethe, converged, minimizers, tie, message=""):
        self.beta = beta
        self.f_min = f_min
        self.z_bethe = z_bethe
        self.converged = converged
        self.minimizers = minimizers
        self.tie = tie
        self.message = message


def _lp_minimize_energy(idx: _BetaIndex):
    """Exact T=0 problem: the energy is linear and B is a polytope, so one
    linear program over the factor slots solves it (``_BetaIndex.energy_lp``);
    each edge's marginal is then read off its first endpoint."""
    from scipy.optimize import linprog

    c, a_eq, b_eq = idx.energy_lp()
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, 1)] * len(c), method="highs")
    if not res.success:
        raise LpFailure(f"linear program failed: {res.message}")

    nfg = idx.nfg
    factor_dists: dict = {f: {} for f in sorted(nfg.factors)}
    for (f, key), v in zip(idx.factor_slots, res.x):
        if v > 1e-12:
            factor_dists[f][key] = v
    for f, d in factor_dists.items():
        total = sum(d.values())
        factor_dists[f] = {k: v / total for k, v in d.items()}
    edge_dists: dict = {}
    for e in nfg.edge_order:
        f1 = nfg.incidence[e][0]
        p1 = nfg.factors[f1].edges.index(e)
        d: dict = {}
        for key, v in factor_dists[f1].items():
            d[key[p1]] = d.get(key[p1], 0.0) + v
        edge_dists[e] = d
    beta = PseudoMarginals(factor_dists, edge_dists)
    return beta, float(res.fun)


class _ProjectedDescent:
    """Projected-gradient descent on the local marginal polytope.

    Works in the flat coordinates of its ``_BetaIndex`` (``idx``), with the
    index's free energy: gradient steps are projected onto the tangent space
    of the equality constraints (so affine feasibility is preserved) and the
    line search caps the step to keep strict positivity.
    """

    FLOOR = 1e-13

    def __init__(self, nfg: Nfg, temperature: float):
        self.t = float(temperature)
        self.idx = _BetaIndex(nfg)

    def repair(self, x: np.ndarray) -> np.ndarray:
        """Minimum-norm correction onto the equality constraints."""
        a_mat, rhs = self.idx.equality_matrix()
        delta, *_ = np.linalg.lstsq(a_mat, a_mat @ x - rhs, rcond=None)
        return x - delta

    def interior_point(self):
        """Max-min-slack point of B via a linear program; None when B has
        no strictly positive point in these coordinates."""
        from scipy.optimize import linprog

        a_mat, rhs = self.idx.equality_matrix()
        n = self.idx.n
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_eq = np.hstack([a_mat, np.zeros((a_mat.shape[0], 1))])
        a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
        res = linprog(
            c,
            A_eq=a_eq,
            b_eq=rhs,
            A_ub=a_ub,
            b_ub=np.zeros(n),
            bounds=[(0, 1)] * n + [(0, 1)],
            method="highs",
        )
        if not res.success or res.x[-1] < 1e-9:
            return None
        return res.x[:-1]

    def run(self, x0: np.ndarray, max_iters: int = 500, grad_tol: float = 1e-9):
        """Returns (x, value, projected gradient norm)."""
        x = np.maximum(x0, 0.0)
        value = self.idx.free_energy(x, self.t)
        step = 1.0
        norm = float("inf")
        for _ in range(max_iters):
            d = -self.idx.project(self.idx.gradient(x, self.t))
            norm = float(np.linalg.norm(d))
            if norm <= grad_tol:
                break
            shrinking = d < 0
            if np.any(shrinking):
                limit = np.min((x[shrinking] - self.FLOOR) / -d[shrinking])
                limit = max(limit, 0.0)
            else:
                limit = np.inf
            s = min(step, 0.9 * limit)
            improved = False
            while s > 1e-14:
                cand = x + s * d
                cand_value = self.idx.free_energy(cand, self.t)
                if cand_value < value - 1e-15:
                    x, value = cand, cand_value
                    step = min(2.0 * s, 1.0)
                    improved = True
                    break
                s *= 0.5
            if not improved:
                break
        return x, value, norm


def minimize_bethe(
    nfg: Nfg,
    temperature: float = 1.0,
    n_starts: int = 8,
    seed: int = 0,
    spa_iters: int = 4000,
    spa_tol: float = 1e-13,
    descent_iters: int = 300,
    tie_tol: float = 1e-9,
    values=None,
) -> MinimizeResult:
    """Minimize the Bethe free energy over the local marginal polytope.

    One ``_BetaIndex`` per call describes the polytope and the free energy.
    T = 0 is an exact linear program over its factor slots (the energy is
    linear).  For T > 0 the search combines multi-start damped sum-product
    (fixed points are stationary points) with projected-gradient descent in
    the index's flat coordinates (``_ProjectedDescent``): gradient steps
    projected onto the tangent space of the equality constraints, with a
    line search that keeps every entry positive.  A converged fixed point
    is a candidate when its entries are at least -1e-6 and it meets every
    equality constraint within 1e-6.  The descent polishes the best
    fixed point, or starts from a max-slack interior point when no fixed
    point is found.  Every candidate is valued by the index's
    ``free_energy``.  Distinct minimizers within ``tie_tol`` of the best
    value are reported and flagged as ties.  At T = 0, ``_zero_temp_tie``
    reads ``values``, the global values of the valid configurations, or
    enumerates them when None; CapExceeded propagates past the cap.
    """
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0:
        idx = _BetaIndex(nfg)
        beta, f_min = _lp_minimize_energy(idx)
        tie = _zero_temp_tie(idx, beta, f_min, values)
        return MinimizeResult(beta, f_min, None, True, [beta], tie)

    problem = _ProjectedDescent(nfg, temperature)
    idx = problem.idx
    candidates = []  # (free energy, beta, flat x, converged)
    rng = np.random.default_rng(seed)
    inits = [None] + [np.random.default_rng(rng.integers(2**32)) for _ in range(max(0, n_starts - 1))]
    for init in inits:
        for damping in (0.0, 0.5):
            state, beliefs = sum_product(
                nfg,
                max_iters=spa_iters,
                damping=damping,
                tol=spa_tol,
                temperature=temperature,
                init_rng=init,
            )
            if state.converged:
                x = idx.to_vector(beliefs)
                if idx.feasible(x, 1e-6):
                    candidates.append((idx.free_energy(x, temperature), beliefs, x, True))

    if candidates:
        # polish the best fixed point; its repair stays interior
        x0 = problem.repair(min(candidates, key=lambda c: c[0])[2])
    else:
        # no fixed point found: descend from the max-slack interior point
        x0 = problem.interior_point()
    if x0 is not None and not np.any(x0 < 0):
        x, value, grad_norm = problem.run(x0, max_iters=descent_iters)
        candidates.append((value, idx.to_beta(x), x, grad_norm <= 1e-6))

    if not candidates:
        raise LpFailure("no candidate minimizer found")
    candidates.sort(key=lambda c: c[0])
    f_min, beta, x_min, _ = candidates[0]
    # the minimum counts as certified when any candidate at that value
    # reached its own convergence criterion
    converged = any(flag for value, _, _, flag in candidates if value - f_min <= tie_tol)
    minimizers = [beta]
    xs = [x_min]
    for value, cand, xv, _ in candidates[1:]:
        if value - f_min > tie_tol:
            break
        if all(np.max(np.abs(xv - x0)) > 1e-6 for x0 in xs):
            minimizers.append(cand)
            xs.append(xv)
    z = math.exp(-f_min / float(temperature))
    return MinimizeResult(beta, f_min, z, converged, minimizers, len(minimizers) > 1)


def _zero_temp_tie(idx: _BetaIndex, beta: PseudoMarginals, f_min: float, values=None):
    """Tie when the optimum is fractional or several configurations attain
    it; ``values`` are read for an integral optimum only, and when None the
    enumeration raises CapExceeded past the configuration cap."""
    x = idx.to_vector(beta)
    if np.max(np.abs(x - np.round(x))) > 1e-6:
        return True
    if values is None:
        values = (value for _, value in valid_tuples(idx.nfg))
    return sum(abs(-math.log(value) - f_min) <= 1e-9 for value in values) > 1


def bethe_partition(nfg: Nfg, temperature: float = 1.0, **kwargs) -> float:
    return minimize_bethe(nfg, temperature, **kwargs).z_bethe


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
    from .errors import ParseError

    factor_dists: dict = {f: {} for f in nfg.factors}
    edge_dists: dict = {e: {} for e in nfg.edge_order}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "beta" or len(parts) != 4:
            raise ParseError(f"expected 'beta <id> <assignment> <value>'", ln)
        _, ident, assignment, value = parts
        v = parse_number(value)
        if ident in nfg.factors:
            key = tuple(int(s) for s in assignment.split(","))
            factor_dists[ident][key] = v
        elif ident in nfg.alphabet_sizes:
            edge_dists[ident][int(assignment)] = v
        else:
            raise ParseError(f"unknown factor or edge {ident!r}", ln)
    return PseudoMarginals(factor_dists, edge_dists)
