import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from gcb.bethe import (
    bethe_terms,
    bethe_energy_from_cover,
    check_local_consistency,
    emit_beta,
    minimize_bethe,
    parse_beta,
    stationarity_residual,
    zbethe_m_enumeration,
    zbethe_m_typesum,
)
from gcb.coding import DecodingNfg, bgcd, sgcd
from gcb.covers import (
    PseudoMarginals,
    beta_from_configuration,
    build_cover,
    entropy_rate_estimate,
    phi_m,
    random_cover,
)
from gcb.errors import BoundaryBeta, InconsistentBeta, SupportOnZeroFactor
from gcb.gibbs import gibbs_partition, valid_tuples
from gcb.nfg import Factor, Nfg, parity_table

import gcb

from conftest import EXAMPLE3_ROWS, fig5_beta, make_fig1, make_random_tree


HALF = Fraction(1, 2)


def uniform_beta(nfg) -> PseudoMarginals:
    factor_dists = {
        f: {k: Fraction(1, len(nfg.factors[f].table)) for k in nfg.factors[f].table}
        for f in nfg.factors
    }
    edge_dists = {
        e: {s: Fraction(1, nfg.alphabet_sizes[e]) for s in range(nfg.alphabet_sizes[e])}
        for e in nfg.edge_order
    }
    return PseudoMarginals(factor_dists, edge_dists)


def realizable_beta(nfg, p) -> PseudoMarginals:
    factor_dists = {f: {} for f in nfg.factors}
    edge_dists = {e: {} for e in nfg.edge_order}
    for tup, w in p.items():
        for f in nfg.factors:
            key = nfg.local_assignment(f, tup)
            factor_dists[f][key] = factor_dists[f].get(key, 0) + w
        for e in nfg.edge_order:
            s = tup[nfg.edge_index(e)]
            edge_dists[e][s] = edge_dists[e].get(s, 0) + w
    return PseudoMarginals(factor_dists, edge_dists)


# -- consistency ---------------------------------------------------------------


def test_phi_output_consistent_exact(fig1):
    spec = random_cover(fig1, 2, seed=3)
    cover = build_cover(spec)
    tup = valid_tuples(cover)[1][0]
    beta = phi_m(spec, cover.config_dict(tup))
    ok, violations = check_local_consistency(fig1, beta, tol=0)
    assert ok and not violations


def test_uniform_beta_consistent_fig1(fig1):
    ok, _ = check_local_consistency(fig1, uniform_beta(fig1), tol=0)
    assert ok  # parity symmetry gives marginal 1/2 on every binary edge


def test_perturbed_beta_reports_location(fig1):
    beta = uniform_beta(fig1)
    d = dict(beta.factor_dists["f2"])
    d[(0, 0, 0)] = d[(0, 0, 0)] + Fraction(1, 100)
    d[(0, 1, 1)] = d[(0, 1, 1)] - Fraction(1, 100)
    beta = PseudoMarginals({**beta.factor_dists, "f2": d}, beta.edge_dists)
    ok, violations = check_local_consistency(fig1, beta, tol=0)
    assert not ok
    spots = {v[:3] for v in violations if v[0] == "consistency"}
    assert ("consistency", "f2", "e2") in spots or ("consistency", "f2", "e3") in spots


# -- terms ----------------------------------------------------------------------


def test_vertex_beta_zero_terms(fig1):
    tup = valid_tuples(fig1)[0][0]
    ev = bethe_terms(fig1, beta_from_configuration(fig1, tup), tol=0)
    assert ev.u_bethe == 0
    assert ev.h_bethe == 0
    assert ev.f_bethe == 0


def test_energy_on_zero_row_rejected(fig1):
    beta = uniform_beta(fig1)
    bad = {(0, 0, 1): HALF, (0, 0, 0): HALF}
    beta = PseudoMarginals({**beta.factor_dists, "f1": bad}, beta.edge_dists)
    with pytest.raises((SupportOnZeroFactor, InconsistentBeta)):
        bethe_terms(fig1, beta, tol=0)


def test_realizable_energy_matches_gibbs():
    rng = random.Random(5)
    nfg = make_fig1()
    # random positive tables so the energy is non-trivial
    factors = []
    for fid, f in nfg.factors.items():
        table = {k: Fraction(rng.randrange(1, 9), rng.randrange(1, 9)) for k in f.table}
        factors.append(Factor(fid, f.edges, table))
    nfg = Nfg(nfg.alphabet_sizes, nfg.half_edges, factors)
    keys = [t for t, _ in valid_tuples(nfg)]
    for trial in range(5):
        w = [Fraction(rng.randrange(1, 10)) for _ in keys]
        total = sum(w)
        p = {k: x / total for k, x in zip(keys, w)}
        beta = realizable_beta(nfg, p)
        u_g = -sum(
            float(v) * math.log(gibbs_partition_value(nfg, k)) for k, v in p.items()
        )
        ev = bethe_terms(nfg, beta, tol=0)
        assert ev.u_bethe == pytest.approx(u_g, abs=1e-10)


def gibbs_partition_value(nfg, tup):
    from gcb.gibbs import global_function

    return float(global_function(nfg, nfg.config_dict(tup)))


def test_dumbbell_midpoint_entropy_matches_rate(dumbbell):
    tuples = [t for t, _ in valid_tuples(dumbbell)]
    # the two single-triangle configurations
    singles = [t for t in tuples if sum(t) == 3]
    beta = realizable_beta(dumbbell, {singles[0]: HALF, singles[1]: HALF})
    ev = bethe_terms(dumbbell, beta, tol=0)
    rate = entropy_rate_estimate(dumbbell, beta, 2**14)
    assert rate == pytest.approx(ev.h_bethe, abs=2e-3)


def test_f_equals_u_minus_th(fig1):
    beta = uniform_beta(fig1)
    for t in (0.0, 0.5, 1.0, 2.0):
        ev = bethe_terms(fig1, beta, temperature=t, tol=0)
        assert ev.f_bethe == pytest.approx(ev.u_bethe - t * ev.h_bethe, abs=1e-12)


# -- cover energy ----------------------------------------------------------------


def test_cover_energy_indicator_zero(fig1):
    spec = random_cover(fig1, 2, seed=11)
    cover = build_cover(spec)
    tup = valid_tuples(cover)[2][0]
    assert bethe_energy_from_cover(spec, tup) == 0.0


def test_cover_energy_identity_cover():
    rng = random.Random(2)
    tree = make_random_tree(rng)
    from gcb.covers import CoverSpec
    from gcb.gibbs import global_function

    spec = CoverSpec(tree, 2, {e: (0, 1) for e in tree.full_edges})
    base_tup = valid_tuples(tree)[3][0]
    lifted = {}
    for e, s in tree.config_dict(base_tup).items():
        lifted[f"{e}@1"] = s
        lifted[f"{e}@2"] = s
    want = -math.log(global_function(tree, tree.config_dict(base_tup)))
    assert bethe_energy_from_cover(spec, lifted) == pytest.approx(want, abs=1e-12)


def test_cover_energy_doubled_factor():
    # one factor with value 2 on its support row; both copies active
    n = Nfg(
        {"a": 2, "m": 2},
        ["a"],
        [
            Factor("f1", ("a", "m"), {(0, 0): Fraction(2), (1, 1): Fraction(2)}),
            Factor("f2", ("m",), {(0,): Fraction(1), (1,): Fraction(1)}),
        ],
    )
    from gcb.covers import CoverSpec

    spec = CoverSpec(n, 2, {"m": (0, 1)})
    config = {"a@1": 0, "a@2": 0, "m@1": 0, "m@2": 0}
    assert bethe_energy_from_cover(spec, config) == pytest.approx(-0.5 * math.log(4), abs=1e-12)


# -- degree-M partition function --------------------------------------------------


def test_dumbbell_zbethe2_sqrt10(dumbbell):
    res = zbethe_m_enumeration(dumbbell, 2)
    assert res.pre_root == Fraction(10)
    assert res.value == pytest.approx(math.sqrt(10), abs=1e-12)


def test_zbethe_m1_equals_zgibbs(fig1, dumbbell):
    for nfg in (fig1, dumbbell):
        res = zbethe_m_enumeration(nfg, 1)
        assert res.pre_root == gibbs_partition(nfg)


def test_typesum_identity_exact(fig1, dumbbell):
    for nfg, m in ((dumbbell, 2), (fig1, 2)):
        a = zbethe_m_enumeration(nfg, m)
        b = zbethe_m_typesum(nfg, m)
        assert a.pre_root == b.pre_root  # exact rational identity


def test_typesum_identity_toy_m3():
    factors = [
        Factor("fa", ("h1", "m"), parity_table(2)),
        Factor("fb", ("m", "h2"), parity_table(2)),
    ]
    toy = Nfg({"h1": 2, "m": 2, "h2": 2}, ["h1", "h2"], factors)
    a = zbethe_m_enumeration(toy, 3)
    b = zbethe_m_typesum(toy, 3)
    assert a.pre_root == b.pre_root


def test_typesum_identity_with_rational_weights():
    """Exact identity with non-indicator tables: weights enter as g^(M beta)."""
    table_a = {(0, 0): Fraction(2, 3), (0, 1): Fraction(1, 5), (1, 1): Fraction(7, 4)}
    table_b = {(0, 0): Fraction(1, 2), (1, 0): Fraction(3), (1, 1): Fraction(5, 6)}
    toy = Nfg(
        {"h1": 2, "m": 2, "h2": 2},
        ["h1", "h2"],
        [Factor("fa", ("h1", "m"), table_a), Factor("fb", ("m", "h2"), table_b)],
    )
    for m in (2, 3):
        a = zbethe_m_enumeration(toy, m)
        b = zbethe_m_typesum(toy, m)
        assert isinstance(a.pre_root, Fraction)
        assert a.pre_root == b.pre_root


def test_typesum_float_path_matches_exact(dumbbell):
    exact = zbethe_m_typesum(dumbbell, 2, exact=True)
    floaty = zbethe_m_typesum(dumbbell, 2, exact=False)
    assert floaty.pre_root == pytest.approx(float(exact.pre_root), rel=1e-12)


def test_tree_zbethe_m_equals_zgibbs():
    rng = random.Random(3)
    tree = make_random_tree(rng)
    z = float(gibbs_partition(tree))
    res = zbethe_m_enumeration(tree, 2, exact=False)
    assert res.value == pytest.approx(z, rel=1e-9)


def test_monte_carlo_mode_matches_full(dumbbell):
    full = zbethe_m_enumeration(dumbbell, 2)
    mc = zbethe_m_enumeration(dumbbell, 2, samples=4000, seed=1)
    assert mc.stderr is not None
    assert abs(mc.pre_root - float(full.pre_root)) <= 4 * mc.stderr
    again = zbethe_m_enumeration(dumbbell, 2, samples=4000, seed=1)
    assert again.pre_root == mc.pre_root  # seeded determinism


def test_monte_carlo_requires_seed(dumbbell):
    with pytest.raises(ValueError):
        zbethe_m_enumeration(dumbbell, 2, samples=10)


@pytest.mark.parametrize("samples", [0, -3])
def test_monte_carlo_needs_a_sample(dumbbell, samples):
    with pytest.raises(ValueError, match="at least one sample"):
        zbethe_m_enumeration(dumbbell, 2, samples=samples, seed=1)


@pytest.mark.parametrize("m", [0, -1])
def test_degree_below_one_rejected(dumbbell, m):
    dec = DecodingNfg(dumbbell, dumbbell.edge_order, Fraction(1), [], None)
    calls = [
        lambda: zbethe_m_enumeration(dumbbell, m),
        lambda: zbethe_m_enumeration(dumbbell, m, samples=3, seed=1),
        lambda: zbethe_m_typesum(dumbbell, m),
        lambda: bgcd(dec, degree=m),
        lambda: sgcd(dec, degree=m),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="degree M must be at least 1"):
            call()


@pytest.mark.parametrize("zbethe_m", [zbethe_m_enumeration, zbethe_m_typesum])
def test_zbethe_m_paths_share_the_mode_rule(dumbbell, zbethe_m):
    with pytest.raises(ValueError, match="temperature must be positive"):
        zbethe_m(dumbbell, 2, temperature=0)
    with pytest.raises(ValueError, match="exact mode needs T = 1"):
        zbethe_m(dumbbell, 2, temperature=0.7, exact=True)
    assert isinstance(zbethe_m(dumbbell, 2).pre_root, Fraction)
    assert isinstance(zbethe_m(dumbbell, 2, exact=False).pre_root, float)


# -- combinatorial free energy bridge ---------------------------------------------


def test_combinatorial_free_energy_rate(fig1):
    """g^{1/T} * Cbar_M approximates exp(-(M/T) F_B) to o(M) accuracy."""
    m = 512
    for temperature, beta in ((1.0, fig5_beta()), (1.0, uniform_beta(fig1)), (0.5, uniform_beta(fig1))):
        ev = bethe_terms(fig1, beta, temperature=temperature, tol=0)
        # (1/M) log of g^{1/T} Cbar_M; the cover energy equals U_B exactly
        lhs = -ev.u_bethe / temperature + entropy_rate_estimate(fig1, beta, m)
        assert abs(lhs + ev.f_bethe / temperature) <= 0.06


def test_entropy_rate_converges_to_bethe_entropy(fig1):
    beta = fig5_beta()
    h = bethe_terms(fig1, beta, tol=0).h_bethe
    gaps = []
    m = 2
    while m <= 512:
        gaps.append(abs(entropy_rate_estimate(fig1, beta, m) - h))
        m *= 2
    assert gaps[-1] <= 0.05
    tail = gaps[3:]  # from M=16 on
    assert all(a >= b for a, b in zip(tail, tail[1:]))


# -- sandwich for cycle codes ------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
def test_circuit_rank_sandwich(dumbbell, m):
    z_g = 4.0
    res = zbethe_m_enumeration(dumbbell, m, exact=True)
    val = float(res.value)
    if m == 3:
        assert res.pre_root == Fraction(64, 3)
        assert zbethe_m_typesum(dumbbell, 3).pre_root == res.pre_root
    assert 2 ** (-(m - 1) / m) * z_g <= val <= z_g


# -- minimization ------------------------------------------------------------------


def test_minimize_tree_equals_gibbs():
    rng = random.Random(17)
    for _ in range(5):
        tree = make_random_tree(rng)
        z = float(gibbs_partition(tree))
        res = minimize_bethe(tree, 1.0, n_starts=2)
        assert res.converged
        assert abs(res.f_min + math.log(z)) <= 1e-9


def test_minimize_dumbbell_interval(dumbbell):
    res = minimize_bethe(dumbbell, 1.0, n_starts=3)
    # cycle-code bounds: 2^{-#components} Z_G <= Z_B <= Z_G
    assert 2.0 - 1e-9 <= res.z_bethe <= 4.0 + 1e-9
    assert res.z_bethe == pytest.approx(2.0, abs=1e-6)


def test_minimize_t0_matches_vertex_scan():
    rng = random.Random(23)
    tree = make_random_tree(rng)
    res = minimize_bethe(tree, 0)
    best = min(-math.log(v) for _, v in valid_tuples(tree))
    assert res.f_min <= best + 1e-9
    # T=0 on a tree: LP optimum equals the best configuration energy
    assert res.f_min == pytest.approx(best, abs=1e-9)


def test_minimize_never_exceeds_uniform(fig1):
    res = minimize_bethe(fig1, 1.0, n_starts=2)
    upper = bethe_terms(fig1, uniform_beta(fig1), 1.0, tol=0).f_bethe
    total = sum(float(v) for _, v in valid_tuples(fig1))
    lower = -math.log(total) - len(fig1.full_edges) * math.log(2)
    assert lower - 1e-9 <= res.f_min <= upper + 1e-9


def test_descent_alone_finds_dumbbell_optimum(dumbbell):
    """Projected descent reaches the optimum without any fixed-point seed."""
    import numpy as np

    from gcb.bethe import _ProjectedDescent

    problem = _ProjectedDescent(dumbbell, 1.0)
    center = problem.interior_point()
    assert center is not None
    _, value, grad_norm = problem.run(center, max_iters=800)
    assert value == pytest.approx(-math.log(2.0), abs=1e-8)
    assert grad_norm <= 1e-6

    rng = np.random.default_rng(5)
    for _ in range(3):
        biased = problem.repair(np.clip(center + rng.uniform(-0.15, 0.15, center.shape), 1e-6, 1))
        if np.any(biased < 0):
            continue
        _, value, grad_norm = problem.run(biased, max_iters=800)
        assert value == pytest.approx(-math.log(2.0), abs=1e-6)


# -- stationarity -------------------------------------------------------------------


def test_gradient_matches_finite_differences(fig1):
    rng = random.Random(31)
    nfg = make_fig1()
    factors = []
    for fid, f in nfg.factors.items():
        table = {k: 0.5 + rng.random() for k in f.table}
        factors.append(Factor(fid, f.edges, table))
    nfg = Nfg(nfg.alphabet_sizes, nfg.half_edges, factors)

    from gcb.bethe import _BetaIndex

    idx = _BetaIndex(nfg)

    def f_of(x):
        total = float(idx.energy_vector() @ x)
        for fname, key in idx.factor_slots:
            v = x[idx.slot_of[("f", fname, key)]]
            if v > 0:
                total += v * math.log(v)
        for e, s in idx.edge_slots:
            if e in nfg.half_edges:
                continue
            v = x[idx.slot_of[("e", e, s)]]
            if v > 0:
                total -= v * math.log(v)
        return total

    for trial in range(50):
        beta = _random_interior_beta(nfg, rng)
        x = idx.to_vector(beta)
        # fig1 has half-edges, whose entropy coefficient is zero
        assert idx.free_energy(x, 1.0) == pytest.approx(f_of(x), rel=1e-13)
        grad = idx.gradient(x, 1.0)
        h = 1e-6
        for slot in rng.sample(range(len(x)), 5):
            xp = x.copy()
            xm = x.copy()
            xp[slot] += h
            xm[slot] -= h
            fd = (f_of(xp) - f_of(xm)) / (2 * h)
            assert abs(fd - grad[slot]) <= 1e-5 * max(1.0, abs(grad[slot]))


def lp_rows_oracle(nfg):
    """The T = 0 linear program's objective and rows, built row by row over
    the factor supports alone: an oracle independent of ``_BetaIndex``."""
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
    return c, np.array(rows), np.array(rhs)


def lp_oracle_graphs():
    from gcb.coding import Channel, ParityCheckMatrix, attach_channel, nfg_from_parity_check

    from conftest import make_dumbbell

    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    graphs = {"fig1": make_fig1(), "dumbbell": make_dumbbell()}
    for p, y in ((Fraction(1, 10), "0000000000"), (Fraction(1, 5), "0100100010"), (0.05, "1110001000")):
        graphs[f"example3-{p}-{y}"] = attach_channel(code, Channel.bsc(p), y).nfg
    return graphs


@pytest.mark.parametrize("name, nfg", sorted(lp_oracle_graphs().items()))
def test_lp_rows_match_row_builder(name, nfg):
    """The LP read off the index is the row builder's, entry for entry."""
    from gcb.bethe import _BetaIndex

    c, a_eq, b_eq = _BetaIndex(nfg).energy_lp()
    want_c, want_a, want_b = lp_rows_oracle(nfg)
    assert np.array_equal(c, want_c)
    assert np.array_equal(a_eq, want_a)
    assert np.array_equal(b_eq, want_b)


def _random_interior_beta(nfg, rng):
    """Random point of B: mixture of vertices with a dash of uniform."""
    keys = [t for t, _ in valid_tuples(nfg)]
    w = [rng.random() + 0.05 for _ in keys]
    total = sum(w)
    p = {k: x / total for k, x in zip(keys, w)}
    beta = realizable_beta(nfg, p)
    u = uniform_beta(nfg)
    lam = 0.3
    factor_dists = {
        f: {
            k: lam * float(u.factor_weight(f, k)) + (1 - lam) * float(beta.factor_weight(f, k))
            for k in nfg.factors[f].table
        }
        for f in nfg.factors
    }
    edge_dists = {
        e: {
            s: lam * float(u.edge_weight(e, s)) + (1 - lam) * float(beta.edge_weight(e, s))
            for s in range(nfg.alphabet_sizes[e])
        }
        for e in nfg.edge_order
    }
    return PseudoMarginals(factor_dists, edge_dists)


def test_stationarity_positive_generically(fig1):
    rng = random.Random(37)
    beta = _random_interior_beta(fig1, rng)
    assert stationarity_residual(fig1, beta, 1.0) > 1e-6


def test_stationarity_rejects_boundary(fig1):
    tup = valid_tuples(fig1)[0][0]
    with pytest.raises(BoundaryBeta):
        stationarity_residual(fig1, beta_from_configuration(fig1, tup), 1.0)


def test_single_factor_tilt_is_stationary():
    rng = random.Random(41)
    table = {k: 0.5 + rng.random() for k in parity_table(3)}
    table = {k: 0.5 + rng.random() for k in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    n = Nfg({"a": 2, "b": 2}, ["a", "b"], [Factor("f", ("a", "b"), table)])
    res = minimize_bethe(n, 1.0, n_starts=1)
    # analytic optimum: beta_f proportional to the table
    z = sum(table.values())
    for k, v in table.items():
        assert float(res.beta.factor_weight("f", k)) == pytest.approx(v / z, abs=1e-9)
    assert stationarity_residual(n, res.beta, 1.0) <= 1e-8


# -- non-concavity exhibit -----------------------------------------------------------


def test_bethe_entropy_not_concave_on_36_code():
    from gcb.bme import bme_completion
    from gcb.coding import ParityCheckMatrix, nfg_from_parity_check

    from conftest import EXAMPLE3_ROWS

    nfg = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    half = nfg.half_edge_order
    w1, w2 = 0.004, 0.02
    b1 = bme_completion(nfg, {e: w1 for e in half})
    b2 = bme_completion(nfg, {e: w2 for e in half})
    h1 = bethe_terms(nfg, b1.beta, tol=1e-7).h_bethe
    h2 = bethe_terms(nfg, b2.beta, tol=1e-7).h_bethe
    mid = PseudoMarginals(
        {
            f: {
                k: 0.5 * float(b1.beta.factor_weight(f, k)) + 0.5 * float(b2.beta.factor_weight(f, k))
                for k in set(b1.beta.factor_dists[f]) | set(b2.beta.factor_dists[f])
            }
            for f in nfg.factors
        },
        {
            e: {
                s: 0.5 * float(b1.beta.edge_weight(e, s)) + 0.5 * float(b2.beta.edge_weight(e, s))
                for s in (0, 1)
            }
            for e in nfg.edge_order
        },
    )
    h_mid = bethe_terms(nfg, mid, tol=1e-7).h_bethe
    assert h_mid < 0.5 * (h1 + h2) - 1e-9


# -- serialization --------------------------------------------------------------------


def test_beta_roundtrip(fig1):
    beta = fig5_beta()
    text = emit_beta(beta)
    back = parse_beta(fig1, text)
    assert back == beta


# -- independence from the string-hash seed ----------------------------------------

HASH_SEED_SCRIPT = """
from fractions import Fraction
from gcb.bethe import bethe_terms
from gcb.coding import Channel, ParityCheckMatrix, attach_channel, nfg_from_parity_check
from gcb.covers import PseudoMarginals, entropy_rate_estimate
from gcb.gibbs import valid_tuples
from gcb.spa import sum_product

code = nfg_from_parity_check(ParityCheckMatrix(%r))
nfg = attach_channel(code, Channel.bsc(Fraction(1, 10)), "0100000010").nfg
state, beliefs = sum_product(nfg, max_iters=2000, damping=0.5)
assert state.converged
factor_dists = {f: {} for f in nfg.factors}
edge_dists = {e: {} for e in nfg.edge_order}
for t, _ in valid_tuples(nfg)[1:5]:
    for f in nfg.factors:
        key = nfg.local_assignment(f, t)
        factor_dists[f][key] = factor_dists[f].get(key, 0) + Fraction(1, 4)
    for e in nfg.edge_order:
        s = t[nfg.edge_index(e)]
        edge_dists[e][s] = edge_dists[e].get(s, 0) + Fraction(1, 4)
beta = PseudoMarginals(factor_dists, edge_dists)
print(bethe_terms(nfg, beliefs, tol=1e-6).f_bethe.hex(), entropy_rate_estimate(nfg, beta, 4).hex())
""" % (EXAMPLE3_ROWS,)


def test_float_sums_do_not_follow_the_hash_seed():
    # Edge sums over a frozenset of names would run in hash order.
    src = os.path.dirname(os.path.dirname(gcb.__file__))
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    f_bethe, rate = zip(*(out.split() for out in outputs))
    assert len(set(f_bethe)) == 1
    assert len(set(rate)) == 1
