"""Bethe-side analytics over the local marginal polytope.

Includes membership checking, the energy/entropy/free-energy split, the
degree-M partition function computed two ways (enumeration of the
gauge-fixed covers, and the type-sum walked directly over the
lift-realizable pseudo-marginals; an exact identity in rational
arithmetic), free-energy minimization at zero and positive
temperature, and the constrained-stationarity residual used to confirm
sum-product fixed points.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import _kernels
from ._kernels.pyref import Walk
from .covers import (
    PseudoMarginals,
    TypeWalk,
    build_cover,
    check_shape,
    count_covers,
    cover_cap,
    cover_perm_inv,
    gauge_fixed_perm_invs,
    phi_m,
    random_cover,
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


# -- membership ---------------------------------------------------------------


def check_local_consistency(nfg: Nfg, beta: PseudoMarginals, tol: float = 1e-9):
    """(ok, violations): simplex and edge-consistency constraints within tol.

    Exact pseudo-marginals with tol=0 are checked in rational arithmetic.
    Each violation names the spot: ('factor-sum', f), ('edge-sum', e),
    ('negative', block, key), or ('consistency', f, e, symbol).
    """
    check_shape(nfg, beta)
    exact = beta.is_exact() and tol == 0
    violations = []

    def bad(diff):
        if exact:
            return diff != 0
        return abs(float(diff)) > tol

    for f in sorted(nfg.factors):
        d = beta.factor_dists[f]
        for key, v in d.items():
            if (v < 0) if exact else (float(v) < -tol):
                violations.append(("negative", f, key))
        if bad(sum(d.values()) - 1):
            violations.append(("factor-sum", f))
    for e in nfg.edge_order:
        d = beta.edge_dists[e]
        for s, v in d.items():
            if (v < 0) if exact else (float(v) < -tol):
                violations.append(("negative", e, s))
        if bad(sum(d.values()) - 1):
            violations.append(("edge-sum", e))
    for f in sorted(nfg.factors):
        fac = nfg.factors[f]
        for pos, e in enumerate(fac.edges):
            for s in range(nfg.alphabet_sizes[e]):
                marg = sum(v for k, v in beta.factor_dists[f].items() if k[pos] == s)
                if bad(marg - beta.edge_weight(e, s)):
                    violations.append(("consistency", f, e, s))
    return (not violations), violations


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
    Carlo over labeled cover specs replaces the enumeration and a standard
    error accompanies the estimate.  ``threads`` is accepted and ignored
    (the sweep is one pure-Python loop); it is kept only for callers that
    still pass it.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    max_configs = default_config_cap(config_cap)
    if samples is not None:
        if seed is None:
            raise ValueError("Monte Carlo mode requires a seed")
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
    if exact is None:
        exact = temperature == 1 and _rational_tables(nfg)
    if exact and (temperature != 1 or not _rational_tables(nfg)):
        raise ValueError("exact mode needs T = 1 and rational tables")
    walk = Walk(_kernels.build_plan(nfg), m, exact=exact)
    inv_t = 1 if exact else 1.0 / float(temperature)
    perm_invs = gauge_fixed_perm_invs(nfg, m, cap=cap)
    zsum, _, n_fixed = _kernels.cover_sweep(walk, perm_invs, inv_t, max_configs)
    pre_root = zsum / n_fixed
    return ZBetheM(float(pre_root) ** (1.0 / m), pre_root, m, n_covers)


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
    g(beta)^{M/T} times the closed-form average pre-image count; the types
    are walked directly (``covers.TypeWalk``), no cover is visited, so no
    cover cap applies.  In rational arithmetic this is an identity with the
    enumeration path, not an approximation.  The float weight is
    exp(-(M/T) U_Bethe(beta)) times the count.  ``config_cap`` bounds the
    work: CapExceeded is raised when one factor with r support rows has more
    than that many count vectors, C(M+r-1, r-1), or past that many types.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if exact is None:
        exact = temperature == 1 and _rational_tables(nfg)
    if exact and (temperature != 1 or not _rational_tables(nfg)):
        raise ValueError("exact mode needs T = 1 and rational tables")
    limit = default_config_cap(config_cap)
    for f in nfg.factors.values():
        n_vectors = math.comb(m + len(f.table) - 1, m)
        if n_vectors > limit:
            raise CapExceeded(f"factor {f.id}: {n_vectors} count vectors exceed cap {limit}")
    types = TypeWalk(nfg, m, None if exact else 1.0 / float(temperature))
    total = Fraction(0) if exact else 0.0
    for n, (value, _, _) in enumerate(types.walk.configs(), 1):
        if n > limit:
            raise CapExceeded(f"more than {limit} types")
        total += value
    return ZBetheM(float(total) ** (1.0 / m), total, m, count_covers(nfg, m))


# -- vectorized view of beta for gradients ------------------------------------


class _BetaIndex:
    """Flat coordinates: factor support blocks then edge blocks, sorted ids."""

    def __init__(self, nfg: Nfg):
        self.nfg = nfg
        self.factor_slots = []
        self.edge_slots = []
        self.slot_of = {}
        i = 0
        for f in sorted(nfg.factors):
            for key in nfg.factors[f].support:
                self.slot_of[("f", f, key)] = i
                self.factor_slots.append((f, key))
                i += 1
        for e in nfg.edge_order:
            for s in range(nfg.alphabet_sizes[e]):
                self.slot_of[("e", e, s)] = i
                self.edge_slots.append((e, s))
                i += 1
        self.n = i

    def to_vector(self, beta: PseudoMarginals) -> np.ndarray:
        x = np.zeros(self.n)
        for f, key in self.factor_slots:
            x[self.slot_of[("f", f, key)]] = float(beta.factor_weight(f, key))
        for e, s in self.edge_slots:
            x[self.slot_of[("e", e, s)]] = float(beta.edge_weight(e, s))
        return x

    def to_beta(self, x: np.ndarray) -> PseudoMarginals:
        factor_dists: dict = {f: {} for f in self.nfg.factors}
        edge_dists: dict = {e: {} for e in self.nfg.edge_order}
        for f, key in self.factor_slots:
            v = x[self.slot_of[("f", f, key)]]
            if v != 0:
                factor_dists[f][key] = v
        for e, s in self.edge_slots:
            v = x[self.slot_of[("e", e, s)]]
            if v != 0:
                edge_dists[e][s] = v
        return PseudoMarginals(factor_dists, edge_dists)

    def equality_matrix(self):
        """Rows: factor sums, edge sums, and per-(f, e, symbol) consistency."""
        rows = []
        rhs = []
        for f in sorted(self.nfg.factors):
            row = np.zeros(self.n)
            for key in self.nfg.factors[f].support:
                row[self.slot_of[("f", f, key)]] = 1.0
            rows.append(row)
            rhs.append(1.0)
        for e in self.nfg.edge_order:
            row = np.zeros(self.n)
            for s in range(self.nfg.alphabet_sizes[e]):
                row[self.slot_of[("e", e, s)]] = 1.0
            rows.append(row)
            rhs.append(1.0)
        for f in sorted(self.nfg.factors):
            fac = self.nfg.factors[f]
            for pos, e in enumerate(fac.edges):
                for s in range(self.nfg.alphabet_sizes[e]):
                    row = np.zeros(self.n)
                    for key in fac.support:
                        if key[pos] == s:
                            row[self.slot_of[("f", f, key)]] = 1.0
                    row[self.slot_of[("e", e, s)]] -= 1.0
                    rows.append(row)
                    rhs.append(0.0)
        return np.array(rows), np.array(rhs)

    def energy_vector(self) -> np.ndarray:
        c = np.zeros(self.n)
        for f, key in self.factor_slots:
            c[self.slot_of[("f", f, key)]] = -math.log(self.nfg.factors[f].table[key])
        return c

    def gradient(self, x: np.ndarray, temperature: float) -> np.ndarray:
        g = self.energy_vector()
        t = float(temperature)
        clamped = np.maximum(x, INTERIOR_EPS)
        for f, key in self.factor_slots:
            i = self.slot_of[("f", f, key)]
            g[i] += t * (math.log(clamped[i]) + 1.0)
        for e, s in self.edge_slots:
            if e in self.nfg.half_edges:
                continue
            i = self.slot_of[("e", e, s)]
            g[i] -= t * (math.log(clamped[i]) + 1.0)
        return g


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
    grad = idx.gradient(x, temperature)
    a, _ = idx.equality_matrix()
    y, *_ = np.linalg.lstsq(a.T, grad, rcond=None)
    r = grad - a.T @ y
    return float(np.linalg.norm(r))


# -- entropy-regularized factor tilt ------------------------------------------


class TiltResult:
    __slots__ = ("dist", "duals", "value", "iterations", "converged")

    def __init__(self, dist, duals, value, iterations, converged):
        self.dist = dist
        self.duals = duals
        self.value = value
        self.iterations = iterations
        self.converged = converged


def tilt_factor_block(
    rows,
    log_w,
    edge_positions,
    targets,
    tol: float = 1e-12,
    max_iters: int = 200,
):
    """Minimize <(-log w), beta> - H(beta) over the simplex with marginal targets.

    ``rows`` are the factor's support assignments, ``log_w`` their log
    weights, ``edge_positions`` maps edge -> position, and ``targets`` maps
    edge -> target distribution (array over the edge's alphabet).  The
    optimum is an exponential-family tilt beta(a) ∝ w(a) exp(sum_e
    lambda_{e, a_e}); the duals are found by damped Newton on the
    marginal-matching conditions (symbol 0 of each edge is gauge-fixed).

    Returns a TiltResult with dist over rows, duals per (edge, symbol), the
    optimal objective value, and a convergence flag.
    """
    rows = list(rows)
    n_rows = len(rows)
    edges = sorted(edge_positions)
    var_index = {}
    for e in edges:
        size = len(targets[e])
        for s in range(1, size):
            var_index[(e, s)] = len(var_index)
    n_vars = len(var_index)
    log_w = np.asarray(log_w, dtype=float)

    features = np.zeros((n_rows, n_vars))
    for r, row in enumerate(rows):
        for e in edges:
            s = row[edge_positions[e]]
            if s != 0:
                features[r, var_index[(e, s)]] = 1.0
    target_vec = np.zeros(n_vars)
    for (e, s), j in var_index.items():
        target_vec[j] = float(targets[e][s])

    lam = np.zeros(n_vars)

    def dist_of(lam):
        scores = log_w + features @ lam
        scores -= scores.max()
        p = np.exp(scores)
        p /= p.sum()
        return p

    def dual_value(lam):
        scores = log_w + features @ lam
        mx = scores.max()
        return float(lam @ target_vec - (mx + math.log(np.exp(scores - mx).sum())))

    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        p = dist_of(lam)
        marg = features.T @ p
        grad = target_vec - marg
        if np.max(np.abs(grad)) <= tol:
            converged = True
            break
        cov = features.T @ (features * p[:, None]) - np.outer(marg, marg)
        cov += 1e-12 * np.eye(n_vars)
        try:
            step = np.linalg.solve(cov, grad)
        except np.linalg.LinAlgError:
            step = grad
        if np.max(np.abs(grad)) <= 1e-6:
            # quadratic convergence zone: the dual's gain is below float
            # rounding, so backtracking would stall; take the full step
            lam = lam + step
            continue
        base = dual_value(lam)
        t = 1.0
        for _ in range(60):
            cand = lam + t * step
            if dual_value(cand) > base - 1e-18:
                break
            t *= 0.5
        lam = lam + t * step

    p = dist_of(lam)
    duals = {key: lam[j] for key, j in var_index.items()}
    for e in edges:
        duals.setdefault((e, 0), 0.0)
    value = float(-np.sum(p * log_w) + np.sum(p[p > 0] * np.log(p[p > 0])))
    return TiltResult({tuple(r): p[i] for i, r in enumerate(rows)}, duals, value, iterations, converged)


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


def _lp_minimize_energy(nfg: Nfg):
    """Exact T=0 problem: the energy is linear and B is a polytope."""
    from scipy.optimize import linprog

    blocks = []
    offsets = {}
    n = 0
    for f in sorted(nfg.factors):
        support = nfg.factors[f].support
        offsets[f] = n
        blocks.append((f, support))
        n += len(support)

    c = np.zeros(n)
    for f, support in blocks:
        table = nfg.factors[f].table
        for i, key in enumerate(support):
            c[offsets[f] + i] = -math.log(table[key])

    rows = []
    rhs = []
    for f, support in blocks:
        row = np.zeros(n)
        row[offsets[f] : offsets[f] + len(support)] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for e in nfg.full_edge_order:
        f1, f2 = nfg.incidence[e]
        p1 = nfg.factors[f1].edges.index(e)
        p2 = nfg.factors[f2].edges.index(e)
        for s in range(nfg.alphabet_sizes[e] - 1):
            row = np.zeros(n)
            for i, key in enumerate(nfg.factors[f1].support):
                if key[p1] == s:
                    row[offsets[f1] + i] += 1.0
            for i, key in enumerate(nfg.factors[f2].support):
                if key[p2] == s:
                    row[offsets[f2] + i] -= 1.0
            rows.append(row)
            rhs.append(0.0)

    res = linprog(
        c,
        A_eq=np.array(rows),
        b_eq=np.array(rhs),
        bounds=[(0, 1)] * n,
        method="highs",
    )
    if not res.success:
        raise LpFailure(f"linear program failed: {res.message}")

    factor_dists: dict = {}
    for f, support in blocks:
        x = res.x[offsets[f] : offsets[f] + len(support)]
        factor_dists[f] = {key: max(v, 0.0) for key, v in zip(support, x) if v > 1e-12}
        total = sum(factor_dists[f].values())
        factor_dists[f] = {k: v / total for k, v in factor_dists[f].items()}
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

    Works directly in the flat beta coordinates: gradient steps are
    projected onto the null space of the equality constraints (so affine
    feasibility is preserved exactly) and the line search caps the step to
    keep strict positivity.
    """

    FLOOR = 1e-13

    def __init__(self, nfg: Nfg, temperature: float):
        self.nfg = nfg
        self.t = float(temperature)
        self.idx = _BetaIndex(nfg)
        self.a_mat, self.rhs = self.idx.equality_matrix()

    def free_energy(self, x: np.ndarray) -> float:
        total = float(self.idx.energy_vector() @ x)
        for f, key in self.idx.factor_slots:
            v = x[self.idx.slot_of[("f", f, key)]]
            if v > 0:
                total += self.t * v * math.log(v)
        for e, s in self.idx.edge_slots:
            if e in self.nfg.half_edges:
                continue
            v = x[self.idx.slot_of[("e", e, s)]]
            if v > 0:
                total -= self.t * v * math.log(v)
        return total

    def repair(self, x: np.ndarray) -> np.ndarray:
        """Minimum-norm correction onto the equality constraints."""
        residual = self.a_mat @ x - self.rhs
        delta, *_ = np.linalg.lstsq(self.a_mat, residual, rcond=None)
        return x - delta

    def interior_point(self):
        """Max-min-slack point of B via a linear program; None when B has
        no strictly positive point in these coordinates."""
        from scipy.optimize import linprog

        n = self.idx.n
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_eq = np.hstack([self.a_mat, np.zeros((self.a_mat.shape[0], 1))])
        a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
        res = linprog(
            c,
            A_eq=a_eq,
            b_eq=self.rhs,
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
        value = self.free_energy(x)
        step = 1.0
        norm = float("inf")
        for _ in range(max_iters):
            grad = self.idx.gradient(x, self.t)
            y, *_ = np.linalg.lstsq(self.a_mat.T, grad, rcond=None)
            d = -(grad - self.a_mat.T @ y)
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
                cand_value = self.free_energy(cand)
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
) -> MinimizeResult:
    """Minimize the Bethe free energy over the local marginal polytope.

    T = 0 is an exact linear program (the energy is linear).  For T > 0 the
    search combines multi-start damped sum-product (fixed points are
    stationary points) with projected-gradient descent in the flat beta
    coordinates (``_ProjectedDescent``): gradient steps projected onto the
    equality constraints, with a line search that keeps every entry
    positive.  The descent polishes the best fixed point, or starts from a
    max-slack interior point when no fixed point is found.  Distinct
    minimizers within ``tie_tol`` of the best value are reported and
    flagged as ties.
    """
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0:
        beta, f_min = _lp_minimize_energy(nfg)
        tie = _zero_temp_tie(nfg, beta, f_min)
        return MinimizeResult(beta, f_min, None, True, [beta], tie)

    candidates = []
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
                try:
                    value = bethe_terms(nfg, beliefs, temperature, tol=1e-6).f_bethe
                except (InconsistentBeta, SupportOnZeroFactor):
                    continue
                candidates.append((value, beliefs, True))

    problem = _ProjectedDescent(nfg, temperature)
    seeds = []
    if candidates:
        # polish the best fixed point; its repair stays interior
        best = min(candidates, key=lambda c: c[0])
        seeds.append(problem.repair(problem.idx.to_vector(best[1])))
    else:
        # no fixed point found: descend from the max-slack interior point
        center = problem.interior_point()
        if center is not None:
            seeds.append(center)
    for x0 in seeds:
        if np.any(x0 < 0):
            continue
        x, value, grad_norm = problem.run(x0, max_iters=descent_iters)
        candidates.append((value, problem.idx.to_beta(x), grad_norm <= 1e-6))

    if not candidates:
        raise LpFailure("no candidate minimizer found")
    candidates.sort(key=lambda c: c[0])
    f_min, beta, _ = candidates[0]
    # the minimum counts as certified when any candidate at that value
    # reached its own convergence criterion
    converged = any(flag for value, _, flag in candidates if value - f_min <= tie_tol)
    minimizers = [beta]
    idx = _BetaIndex(nfg)
    xs = [idx.to_vector(beta)]
    for value, cand, _ in candidates[1:]:
        if value - f_min > tie_tol:
            break
        xv = idx.to_vector(cand)
        if all(np.max(np.abs(xv - x0)) > 1e-6 for x0 in xs):
            minimizers.append(cand)
            xs.append(xv)
    z = math.exp(-f_min / float(temperature))
    return MinimizeResult(beta, f_min, z, converged, minimizers, len(minimizers) > 1)


def _zero_temp_tie(nfg: Nfg, beta: PseudoMarginals, f_min: float):
    """Tie when the optimum is fractional or several configurations attain it."""
    idx = _BetaIndex(nfg)
    x = idx.to_vector(beta)
    if np.max(np.abs(x - np.round(x))) > 1e-6:
        return True
    try:
        hits = 0
        for _, value in valid_tuples(nfg):
            if abs(-math.log(value) - f_min) <= 1e-9:
                hits += 1
                if hits >= 2:
                    return True
    except CapExceeded:
        return False
    return False


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
