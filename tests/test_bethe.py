import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from gcb.bethe import (
    GAP_TOL,
    _BetaIndex,
    _root,
    bethe_terms,
    bethe_energy_from_cover,
    check_local_consistency,
    emit_beta,
    minimize_bethe,
    parse_beta,
    zbethe_m_enumeration,
    zbethe_m_typesum,
)
from gcb.coding import (
    Channel,
    DecodingNfg,
    ParityCheckMatrix,
    attach_channel,
    bgcd,
    nfg_from_parity_check,
    sgcd,
)
from gcb.covers import (
    CoverSpec,
    PreimageCensus,
    PseudoMarginals,
    beta_from_configuration,
    build_cover,
    count_covers,
    entropy_rate_estimate,
    enumerate_covers,
    gauge_fixed_perm_invs,
    lift_realizable_set,
    phi_m,
    preimage_count_bruteforce,
    preimage_count_closedform,
    random_cover,
)
from gcb.errors import CapExceeded, InconsistentBeta, NonConvergence, SupportOnZeroFactor, ZeroGlobalValue
from gcb.gibbs import gibbs_partition, valid_tuples
from gcb.nfg import Factor, Nfg, parity_table
from gcb.spa import sum_product

import gcb

from conftest import (
    EXAMPLE3_ROWS,
    fig5_beta,
    make_fig1,
    make_frustrated_k4,
    make_interleaved,
    make_loopy_positive,
    make_random_tree,
)


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


def direct_bethe_terms(nfg, beta):
    """(U, H) summed straight off beta's dicts, entry by entry."""
    u = h = 0.0
    for f, fac in nfg.factors.items():
        for key, w in beta.factor_dists[f].items():
            w = float(w)
            if w > 0:
                u -= w * math.log(fac.table[key])
                h -= w * math.log(w)
    for e in nfg.full_edge_order:
        for w in beta.edge_dists[e].values():
            w = float(w)
            if w > 0:
                h += w * math.log(w)
    return u, h


def spa_belief_graphs(seed):
    rng = random.Random(seed)
    graphs = [make_random_tree(rng, n_internal=3 + i % 3) for i in range(4)]
    graphs += [make_loopy_positive(rng) for _ in range(4)]
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    for p in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        y = "".join(str(int(rng.random() < p)) for _ in range(10))
        graphs.append(attach_channel(code, Channel.bsc(p), y).nfg)
    return graphs


@pytest.mark.parametrize("temperature", [1.0, 0.7])
def test_bethe_terms_match_a_direct_sum(temperature):
    cases = []
    for nfg in spa_belief_graphs(seed=17):
        state, beliefs = sum_product(nfg, max_iters=3000, damping=0.5, temperature=temperature)
        assert state.converged
        cases.append((nfg, beliefs, 1e-6))
    # an exact beta, checked in rational arithmetic at tol=0
    cases.append((make_fig1(), fig5_beta(), 0))
    for nfg, beta, tol in cases:
        u, h = direct_bethe_terms(nfg, beta)
        ev = bethe_terms(nfg, beta, temperature, tol=tol)
        assert ev.u_bethe == pytest.approx(u, rel=1e-12)
        assert ev.h_bethe == pytest.approx(h, rel=1e-12)
        assert ev.f_bethe == pytest.approx(u - temperature * h, rel=1e-12)


def test_bethe_terms_errors_name_the_first_offender(fig1):
    beta = uniform_beta(fig1)
    d = dict(beta.factor_dists["f2"])
    d[(0, 0, 0)] += Fraction(1, 100)
    d[(0, 1, 1)] -= Fraction(1, 100)
    off = PseudoMarginals({**beta.factor_dists, "f2": d}, beta.edge_dists)
    with pytest.raises(InconsistentBeta, match=r"^beta outside the local marginal polytope: \[\('consistency', 'f2'"):
        bethe_terms(fig1, off, tol=0)
    # all eight rows of a parity factor, uniformly: consistent, half on odd rows
    every_row = {key: Fraction(1, 8) for key in itertools.product((0, 1), repeat=3)}
    zero_weight_stray = {**beta.factor_dists["f2"], (0, 0, 1): Fraction(0)}
    for f3, f4 in [(every_row, every_row), (beta.factor_dists["f3"], every_row)]:
        stray = PseudoMarginals({**beta.factor_dists, "f2": zero_weight_stray, "f3": f3, "f4": f4}, beta.edge_dists)
        first = "f3" if f3 is every_row else "f4"
        with pytest.raises(SupportOnZeroFactor, match=rf"^beta weight on zero-valued row \(0, 0, 1\) of {first}$"):
            bethe_terms(fig1, stray, tol=0)


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


def test_cover_energy_rejects_an_invalid_configuration(fig1):
    spec = random_cover(fig1, 2, seed=11)
    cover = build_cover(spec)
    valid = {tup for tup, _ in valid_tuples(cover)}
    tup = next(t for t in itertools.product((0, 1), repeat=len(cover.edge_order)) if t not in valid)
    with pytest.raises(ZeroGlobalValue, match="configuration invalid at"):
        bethe_energy_from_cover(spec, tup)


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


def test_monte_carlo_one_sample_has_no_stderr(dumbbell):
    res = zbethe_m_enumeration(dumbbell, 2, samples=1, seed=1)
    assert res.samples == 1
    assert math.isnan(res.stderr)


def test_monte_carlo_requires_seed(dumbbell):
    with pytest.raises(ValueError):
        zbethe_m_enumeration(dumbbell, 2, samples=10)


@pytest.mark.parametrize("samples", [0, -3])
def test_monte_carlo_needs_a_sample(dumbbell, samples):
    with pytest.raises(ValueError, match="at least one sample"):
        zbethe_m_enumeration(dumbbell, 2, samples=samples, seed=1)


@pytest.mark.parametrize("m", [0, -1])
def test_degree_below_one_rejected(dumbbell, m):
    dec = DecodingNfg(dumbbell, dumbbell.edge_order, Fraction(1), [])
    beta = beta_from_configuration(dumbbell, (0,) * len(dumbbell.edge_order))
    calls = [
        lambda: zbethe_m_enumeration(dumbbell, m),
        lambda: zbethe_m_enumeration(dumbbell, m, samples=3, seed=1),
        lambda: zbethe_m_typesum(dumbbell, m),
        lambda: bgcd(dec, degree=m),
        lambda: sgcd(dec, degree=m),
        lambda: count_covers(dumbbell, m),
        lambda: CoverSpec(dumbbell, m, {}),
        lambda: random_cover(dumbbell, m, seed=1),
        lambda: list(enumerate_covers(dumbbell, m)),
        lambda: gauge_fixed_perm_invs(dumbbell, m),
        lambda: PreimageCensus(dumbbell, m),
        lambda: preimage_count_bruteforce(dumbbell, m, beta),
        lambda: preimage_count_closedform(dumbbell, m, beta),
        lambda: lift_realizable_set(dumbbell, m),
        lambda: entropy_rate_estimate(dumbbell, beta, m),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="degree M must be at least 1"):
            call()


@pytest.mark.parametrize("temperature", [math.inf, math.nan])
def test_non_finite_temperatures_are_rejected(dumbbell, temperature):
    calls = [
        lambda: zbethe_m_enumeration(dumbbell, 2, temperature),
        lambda: zbethe_m_enumeration(dumbbell, 2, temperature, samples=2, seed=1),
        lambda: zbethe_m_typesum(dumbbell, 2, temperature),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            call()
    with pytest.raises(ValueError, match="temperature must be non-negative and finite"):
        minimize_bethe(dumbbell, temperature)


@pytest.mark.parametrize("zbethe_m", [zbethe_m_enumeration, zbethe_m_typesum])
def test_zbethe_m_paths_share_the_mode_rule(dumbbell, zbethe_m):
    with pytest.raises(ValueError, match="temperature must be positive"):
        zbethe_m(dumbbell, 2, temperature=0)
    with pytest.raises(ValueError, match="exact mode needs T = 1"):
        zbethe_m(dumbbell, 2, temperature=0.7, exact=True)
    assert isinstance(zbethe_m(dumbbell, 2).pre_root, Fraction)
    assert isinstance(zbethe_m(dumbbell, 2, exact=False).pre_root, float)


def test_root_takes_the_same_branch_at_both_bounds():
    """A Fraction goes through logs unless it lies strictly between 1e-300
    and 1e300, compared as exact values: just inside, on and just outside
    each bound, the branch is the one that comparing with the floats
    themselves gives.  The two branches differ in their last bits at all
    six values, so the root shows the branch taken."""
    eps = Fraction(1, 10**700)
    low, high = Fraction(1e-300), Fraction(1e300)
    cases = [(low - eps, False), (low, False), (low + eps, True),
             (high - eps, True), (high, False), (high + eps, False)]
    for x, inside in cases:
        assert (1e-300 < x < 1e300) == inside
        for m in (1, 3):
            if inside:
                want = float(x) ** (1.0 / m)
            else:
                want = math.exp((math.log(x.numerator) - math.log(x.denominator)) / m)
            assert _root(x, m) == want


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
    assert res.converged and not res.tie
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


def test_graph_with_no_edges():
    """One factor on no edges, value 2: the index has no marginal row and
    sum-product no message, yet both still run."""
    nfg = Nfg({}, [], [Factor("f", (), {(): 2})])
    state, beliefs = sum_product(nfg)
    assert state.converged and state.messages == {}
    assert beliefs.factor_dists == {"f": {(): 1.0}} and beliefs.edge_dists == {}
    for temperature in (1.0, 0):
        res = minimize_bethe(nfg, temperature)
        assert res.converged and res.f_min == pytest.approx(-math.log(2), abs=1e-12)


# -- stationarity -------------------------------------------------------------------

INTERIOR_EPS = 1e-12  # where the oracle's gradient clamps x


def index_and_energy(nfg):
    """(index, energy) of nfg: an index built from nothing, and its energy
    vector on nfg's tables (``_BetaIndex.weighed``)."""
    idx = _BetaIndex(nfg)
    return idx, idx.weighed(nfg)[1]


def clamped_gradient(idx, energy, x, temperature=1.0):
    """The oracle's gradient of ``free_energy``, with x clamped at
    ``INTERIOR_EPS``: a slot at 0 reads a finite slope where the true one
    is infinite."""
    t = float(temperature) * idx.entropy_coef
    return energy + t * (np.log(np.maximum(x, INTERIOR_EPS)) + 1.0)


def test_gradient_matches_finite_differences(fig1):
    rng = random.Random(31)
    nfg = make_fig1()
    factors = []
    for fid, f in nfg.factors.items():
        table = {k: 0.5 + rng.random() for k in f.table}
        factors.append(Factor(fid, f.edges, table))
    nfg = Nfg(nfg.alphabet_sizes, nfg.half_edges, factors)

    idx, energy = index_and_energy(nfg)

    def f_of(x):
        total = float(energy @ x)
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
        assert idx.free_energy(x, energy, 1.0) == pytest.approx(f_of(x), rel=1e-13)
        grad = clamped_gradient(idx, energy, x)
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
    graphs = {"fig1": make_fig1(), "dumbbell": make_dumbbell(), "interleaved": make_interleaved()}
    for p, y in ((Fraction(1, 10), "0000000000"), (Fraction(1, 5), "0100100010"), (0.05, "1110001000")):
        graphs[f"example3-{p}-{y}"] = attach_channel(code, Channel.bsc(p), y).nfg
    return graphs


@pytest.mark.parametrize("name, nfg", sorted(lp_oracle_graphs().items()))
def test_lp_rows_match_row_builder(name, nfg):
    """The LP read off the index is the row builder's, entry for entry;
    A_eq is sparse, with no stored zero."""
    idx, energy = index_and_energy(nfg)
    c, (a_eq, b_eq) = energy[:len(idx.factor_slots)], idx.lp_rows
    want_c, want_a, want_b = lp_rows_oracle(nfg)
    assert np.array_equal(c, want_c)
    assert a_eq.format == "csr" and np.all(a_eq.data != 0)
    assert np.array_equal(a_eq.toarray(), want_a)
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


def dense_a(idx):
    """The index's A as a dense array, built from its sparse rows/cols/vals."""
    a = np.zeros((len(idx.rhs), idx.n))
    a[idx.rows, idx.cols] = idx.vals
    return a


def full_slot_gap(idx, energy, x, temperature=1.0):
    """The oracle: the Frank-Wolfe gap <g, x> - min <g, v> of any point x,
    with g the ``clamped_gradient``, as one LP over every slot and every row
    of A x = b."""
    from scipy.optimize import linprog

    g = clamped_gradient(idx, energy, x, temperature)
    res = linprog(g, A_eq=dense_a(idx), b_eq=idx.rhs, bounds=(0, 1), method="highs")
    assert res.success
    return float(g @ x - res.fun)


def oracle_points(name, nfg):
    """Seeded interior points and configuration vertices of fig1 and the
    dumbbell; the converged damped fixed point of an example3 decoding graph
    and of the interleaved graph, whose uniform factor rows (``uniform_beta``)
    are not consistent."""
    idx = _BetaIndex(nfg)
    if name.startswith("example3") or name == "interleaved":
        state, beliefs = sum_product(nfg, max_iters=4000, damping=0.5, tol=1e-13)
        assert state.converged
        return [idx.to_vector(beliefs)]
    rng = random.Random(29)
    points = [idx.to_vector(_random_interior_beta(nfg, rng)) for _ in range(3)]
    return points + [idx.to_vector(beta_from_configuration(nfg, tup)) for tup, _ in valid_tuples(nfg)[:3]]


def spa_gap(nfg, temperature=1.0, **kwargs):
    """(state, x, gap): one sum-product run's state, its beliefs in the
    index's coordinates and their gap read off its messages."""
    state, beliefs = sum_product(nfg, temperature=temperature, **kwargs)
    idx = _BetaIndex(nfg)
    x = idx.to_vector(beliefs)
    return state, x, idx.gap(x, state.messages, temperature)


@pytest.mark.parametrize("name, nfg", sorted(lp_oracle_graphs().items()))
def test_gap_matches_full_slot_lp(name, nfg):
    """At the converged fixed points of the uniform start and two seeded
    ones, the gap read off the messages is the oracle's |gap|, and both
    certify."""
    idx, energy = index_and_energy(nfg)
    for seed in (None, 3, 4):
        init = None if seed is None else np.random.default_rng(seed)
        state, x, gap = spa_gap(nfg, max_iters=4000, damping=0.5, tol=1e-13, init_rng=init)
        assert state.converged
        oracle = full_slot_gap(idx, energy, x)
        assert gap == pytest.approx(abs(oracle), abs=1e-11)
        assert gap <= GAP_TOL and abs(oracle) <= GAP_TOL


def away_graphs():
    from conftest import make_dumbbell

    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    dec = attach_channel(code, Channel.bsc(Fraction(1, 10)), "0100100010")
    return {
        "fig1": make_fig1(),
        "dumbbell": make_dumbbell(),
        "loopy": make_loopy_positive(random.Random(1)),
        "example3": dec.nfg,
        "interleaved": make_interleaved(),
    }


def _away_cases():
    """The four original graphs in name order, then the interleaved graph,
    so each case keeps its parameter id."""
    graphs = away_graphs()
    interleaved = graphs.pop("interleaved")
    return sorted(graphs.items()) + [("interleaved", interleaved)]


@pytest.mark.parametrize("name, nfg", _away_cases())
def test_gap_is_the_oracle_gap_away_from_fixed_points(name, nfg):
    """After 1, 2, 5 and 20 sweeps of a seeded start, the gap read off the
    messages is the oracle's |gap|: the identity does not need a fixed
    point.  Every slot is above ``INTERIOR_EPS``, so the oracle's clamp
    does not bite; the first three iterates are not certified."""
    idx, energy = index_and_energy(nfg)
    for sweeps in (1, 2, 5, 20):
        init = np.random.default_rng(7)
        state, x, gap = spa_gap(nfg, max_iters=sweeps, damping=0.5, tol=0.0, init_rng=init)
        assert state.iterations == sweeps and x.min() > INTERIOR_EPS
        assert gap == pytest.approx(abs(full_slot_gap(idx, energy, x)), abs=1e-12)
        if sweeps < 20:
            assert gap > GAP_TOL


@pytest.mark.parametrize("name, nfg", sorted(lp_oracle_graphs().items()))
def test_feasible_matches_dense_check(name, nfg):
    """``feasible`` agrees with a dense A x - b check, on points of the
    polytope and on the same points with one slot moved by 1e-4 or 1e-3."""
    idx = _BetaIndex(nfg)
    a = dense_a(idx)
    rng = np.random.default_rng(43)
    for x in oracle_points(name, nfg):
        assert idx.feasible(x, 1e-9)
        for step in (1e-4, 1e-3):
            moved = x.copy()
            moved[rng.integers(idx.n)] += step * rng.choice([-1.0, 1.0])
            for tol in (1e-9, 1e-6, 1e-2):
                dense = bool(np.all(moved >= -tol) and np.all(np.abs(a @ moved - idx.rhs) <= tol))
                assert idx.feasible(moved, tol) == dense
            assert not idx.feasible(moved, 1e-6)


def _oracle_gap(nfg, beta, temperature=1.0):
    idx, energy = index_and_energy(nfg)
    return full_slot_gap(idx, energy, idx.to_vector(beta), temperature)


def test_stationarity_positive_generically(fig1):
    rng = random.Random(37)
    beta = _random_interior_beta(fig1, rng)
    assert _oracle_gap(fig1, beta) > 1e-6


def test_gap_positive_at_vertex(fig1):
    # a configuration's vertex is not stationary at T = 1; its zero slots
    # are clamped in the oracle's gradient, so the gap stays finite
    tup = valid_tuples(fig1)[0][0]
    gap = _oracle_gap(fig1, beta_from_configuration(fig1, tup))
    assert math.isfinite(gap) and gap > GAP_TOL


def test_gap_certifies_near_vertex_fixed_point():
    """y = 0011010101 over BSC(1/20): the T = 1 minimizer is a near-vertex,
    most slots far below 1e-12, and its fixed point still has gap 0; moving
    1 % of the way to the max-slack interior point, which no messages
    give, breaks the oracle's certificate."""
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    dec = attach_channel(code, Channel.bsc(Fraction(1, 20)), list("0011010101"))
    state, x, gap = spa_gap(dec.nfg, max_iters=4000, tol=1e-13)
    assert state.converged
    idx, energy = index_and_energy(dec.nfg)
    assert np.sum(x <= 1e-12) > len(x) // 2
    assert gap <= GAP_TOL

    def max_slack_point():
        """The point of the polytope whose smallest entry is largest."""
        from scipy.optimize import linprog

        n = idx.n
        c = np.zeros(n + 1)
        c[-1] = -1.0  # maximize the slack s subject to x >= s
        a_eq = np.hstack([dense_a(idx), np.zeros((len(idx.rhs), 1))])
        a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=idx.rhs, bounds=(0, 1), method="highs")
        assert res.success and res.x[-1] > 1e-9
        return res.x[:-1]

    moved = 0.99 * x + 0.01 * max_slack_point()
    assert full_slot_gap(idx, energy, moved) > GAP_TOL


def test_gap_reads_zero_at_unstationary_lp_vertex():
    """y = 0000111011 over BSC(1/5): the T = 0 LP vertex, scored at T = 1,
    reads the oracle's gap ~1e-15, because the gradient clamped at
    INTERIOR_EPS reads finite slopes on its zero slots, yet its free energy
    is 0.1007 above the certified minimum.  So the oracle certifies fixed
    points, not vertices, and ``minimize_bethe`` reads its gap only on the
    beliefs of messages (``_BetaIndex.gap``)."""
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    dec = attach_channel(code, Channel.bsc(Fraction(1, 5)), list("0000111011"))
    idx, energy = index_and_energy(dec.nfg)
    x = idx.to_vector(minimize_bethe(dec.nfg, 0).beta)
    assert np.array_equal(x, np.round(x))
    assert abs(full_slot_gap(idx, energy, x)) <= GAP_TOL
    res = minimize_bethe(dec.nfg, 1.0)
    assert res.converged
    assert idx.free_energy(x, energy, 1.0) - res.f_min == pytest.approx(0.1007, abs=1e-4)


@pytest.fixture
def spa_dampings(monkeypatch):
    """The damping of each ``sum_product`` call that ``minimize_bethe`` makes."""
    import gcb.bethe

    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["damping"])
        return sum_product(*args, **kwargs)

    monkeypatch.setattr(gcb.bethe, "sum_product", counting)
    return calls


def test_minimize_stops_at_first_certified_start(spa_dampings):
    """On a tree the uniform start certifies, so one damped sum-product run
    is made of the n_starts allowed."""
    res = minimize_bethe(make_random_tree(random.Random(3)), 1.0)
    assert spa_dampings == [0.5]
    assert res.converged and not res.tie


def test_minimize_uncertified_reports_not_converged(dumbbell, monkeypatch):
    """With no start certified, the lowest converged fixed point is
    returned with converged False."""
    import gcb.bethe

    monkeypatch.setattr(gcb.bethe, "GAP_TOL", -1.0)
    res = minimize_bethe(dumbbell, 1.0, n_starts=2)
    assert not res.converged and not res.tie
    assert res.z_bethe == pytest.approx(2.0, abs=1e-6)


def test_minimize_raises_when_no_start_converges(spa_dampings):
    """On the frustrated K4 no start converges, so NonConvergence is raised
    after exactly one damped sum-product call per start."""
    with pytest.raises(NonConvergence, match="no sum-product start of 2"):
        minimize_bethe(make_frustrated_k4(), 1.0, n_starts=2)
    assert spa_dampings == [0.5, 0.5]


def test_sgcd_certifies_slow_word_in_one_run(spa_dampings):
    """y = 1011101101 over BSC(1/20): one damped run of the uniform start
    converges (362 sweeps) and certifies, where an undamped run spends all
    SPA_ITERS sweeps without converging."""
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    dec = attach_channel(code, Channel.bsc(Fraction(1, 20)), list("1011101101"))
    res = sgcd(dec)
    assert spa_dampings == [0.5]
    assert res.diagnostics["converged"]
    assert "".join(map(str, res.decisions)) == "1011101111"


@pytest.mark.parametrize("n_starts", [0, -3])
def test_minimize_refuses_no_starts(dumbbell, n_starts):
    with pytest.raises(ValueError, match="n_starts must be at least 1"):
        minimize_bethe(dumbbell, 1.0, n_starts=n_starts)


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
    assert res.converged
    # the result carries no messages; the oracle agrees with its certificate
    assert abs(_oracle_gap(n, res.beta)) <= GAP_TOL


def test_zero_beliefs_of_z_channel_words_are_certified():
    """A Z-channel factor lacks a symbol, so some words' fixed points hold
    exact zeros; their rows add 0 to the gap, and every Z-channel word is
    certified by sgcd, with no NaN."""
    from test_decoding_frame import example3, interleaved_words

    code, words = example3()
    zeros = 0
    for dec in interleaved_words(code, words, 24, seed=5)[2::4]:  # the Z-channel words
        _, x, _ = spa_gap(dec.nfg, max_iters=4000, damping=0.5, tol=1e-13)
        zeros += int(np.sum(x == 0))
        res = sgcd(dec)
        assert res.diagnostics["converged"] and math.isfinite(res.objective)
        dists = itertools.chain(res.beliefs.factor_dists.values(), res.beliefs.edge_dists.values())
        assert all(math.isfinite(float(v)) for d in dists for v in d.values())
    assert zeros > 0


def test_underflowed_beliefs_are_certified_at_low_temperature():
    """At T = 0.002 some of a tree's beliefs underflow to 0 and the gap is
    still read; the minimizer stays certified."""
    tree = make_random_tree(random.Random(3))
    _, x, gap = spa_gap(tree, 0.002, max_iters=4000, damping=0.5, tol=1e-13)
    assert np.sum(x == 0) > 0 and gap <= GAP_TOL
    assert minimize_bethe(tree, 0.002).converged


def test_positive_temperature_solves_no_linear_program(monkeypatch):
    """With ``linprog`` raising, minimize_bethe at T = 1 and sgcd still
    run and certify while T = 0 fails.  bgcd solves no LP on a word that
    max-sum diffusion pins, and one on a fractional or a tied word."""
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("linprog called")

    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    words = ("0100100010", "1110001000", "0000000000")
    decs = [attach_channel(code, Channel.bsc(Fraction(1, 10)), y) for y in words]
    with monkeypatch.context() as patch:
        patch.setattr(scipy.optimize, "linprog", refuse)
        assert minimize_bethe(make_fig1(), 1.0).converged
        assert all(sgcd(dec).diagnostics["converged"] for dec in decs)
        with pytest.raises(AssertionError, match="linprog called"):
            minimize_bethe(make_fig1(), 0)
    calls = []
    solve = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    # (word, fractional optimum, tie, LP calls): pinned, fractional, tied integral
    cases = (("0000000000", False, False, 0), ("0100100010", True, True, 1), ("0100000000", False, True, 1))
    for y, fractional, tie, n_calls in cases:
        calls.clear()
        res = bgcd(attach_channel(code, Channel.bsc(Fraction(1, 10)), y))
        weights = [float(v) for d in res.beliefs.factor_dists.values() for v in d.values()]
        assert any(0 < v < 1 for v in weights) == fractional
        assert res.tie == tie
        assert len(calls) == n_calls
        assert res.diagnostics["certified"] == (n_calls == 0)


def diffusion_oracle_words():
    """Seeded example3 decoding graphs: BSC words at three crossovers,
    Z-channel words (an output 1 rules out the input 0) and erasure words
    (an erased symbol is equally likely under both inputs, so several
    codewords can share the optimum)."""
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    code, words = nfg_from_parity_check(h), h.codewords()
    z_channel = Channel(2, {("0", 0): Fraction(1), ("0", 1): Fraction(1, 5), ("1", 1): Fraction(4, 5)})
    erasure = Channel(2, {("0", 0): Fraction(2, 3), ("?", 0): Fraction(1, 3),
                          ("1", 1): Fraction(2, 3), ("?", 1): Fraction(1, 3)})
    rng = random.Random(26)
    decs = []
    for i in range(60):
        x = rng.choice(words)
        if i % 3 == 0:
            p = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))[i // 3 % 3]
            decs.append(attach_channel(code, Channel.bsc(p), [str(s ^ (rng.random() < p)) for s in x]))
        elif i % 3 == 1:
            decs.append(attach_channel(code, z_channel, [str(s if rng.random() >= 0.3 else 0) for s in x]))
        else:
            decs.append(attach_channel(code, erasure, ["?" if rng.random() < 0.4 else str(s) for s in x]))
    return decs


def test_diffusion_pins_exactly_the_unique_integral_optima(monkeypatch):
    """Against the LP path (diffusion switched off): a word is pinned
    exactly when its optimum is integral, untied and the only point of the
    optimal face; a pinned word gets the LP's decisions, tie and beliefs,
    and its objective to 1e-12; the dual bound never exceeds the HiGHS
    optimum; and a word with two optimal codewords is never pinned.  Some
    erasure words have one optimal codeword, so ``tie`` is False, and an
    equally good fractional point beside it; those stay on the LP."""
    decs = diffusion_oracle_words()
    results = [bgcd(dec) for dec in decs]
    with monkeypatch.context() as patch:
        patch.setattr(_BetaIndex, "diffuse", lambda self, energy: (None, 0, -math.inf))
        oracle = [bgcd(dec) for dec in decs]
    n_pinned = n_ties = n_wide = 0
    for dec, res, want in zip(decs, results, oracle):
        weights = [float(v) for d in want.beliefs.factor_dists.values() for v in d.values()]
        integral = all(min(v, 1 - v) <= 1e-6 for v in weights)
        alone = integral and optimal_face_width(dec.nfg) < 1e-4
        n_wide += integral and not want.tie and not alone
        assert res.diagnostics["certified"] == (integral and not want.tie and alone)
        assert not want.diagnostics["certified"]
        if res.diagnostics["certified"]:
            n_pinned += 1
            assert (res.decisions, res.tie, res.beliefs) == (want.decisions, want.tie, want.beliefs)
            assert res.objective == pytest.approx(want.objective, abs=1e-12)
        else:
            assert (res.decisions, res.tie, res.objective) == (want.decisions, want.tie, want.objective)
        idx, _, energy = _BetaIndex.weighed_on(dec.nfg)
        _, _, bound = idx.diffuse(energy)
        _, optimum = idx.lp(energy)
        assert bound <= optimum + 1e-12 * max(1.0, abs(optimum))
        energies = sorted(-math.log(v) for _, v in valid_tuples(dec.nfg))
        if len(energies) > 1 and energies[1] - energies[0] <= 1e-9:  # two optimal codewords
            n_ties += 1
            assert not res.diagnostics["certified"]
    assert 0 < n_pinned < len(decs) and n_ties > 0 and n_wide > 0


def t0_outcome(res):
    return res.beta, res.f_min, res.tie, res.certified, res.sweeps


def test_zero_temperature_holds_its_tally_to_config_cap(fig1):
    """minimize_bethe(T = 0) holds the graph's valid configurations to
    ``config_cap`` on every call, on a word that diffusion pins and on one
    left to the LP, before and after the tally is kept: example3 has 32
    codewords, fig1 8 valid configurations."""
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    ch = Channel.bsc(Fraction(1, 10))
    pinned, tied = (attach_channel(code, ch, y).nfg for y in ("0000000000", "0100000000"))
    for nfg, n, certified, tie in ((pinned, 32, True, False), (tied, 32, False, True), (fig1, 8, False, True)):
        with pytest.raises(CapExceeded):
            minimize_bethe(nfg, 0, config_cap=n - 1)
        res = minimize_bethe(nfg, 0, config_cap=n)
        assert (res.certified, res.tie) == (certified, tie)
        assert t0_outcome(res) == t0_outcome(minimize_bethe(nfg, 0))
        with pytest.raises(CapExceeded):
            minimize_bethe(nfg, 0, config_cap=n - 1)


def test_infeasible_program_still_reaches_the_lp():
    """A factor with no support row leaves no point in the polytope:
    diffusion pins nothing, and the LP reports the failure."""
    from gcb.errors import LpFailure

    nfg = Nfg({"a": 2, "b": 2}, ["a", "b"], [Factor("f", ["a"], {(0,): Fraction(1, 2), (1,): Fraction(1, 3)}),
                                             Factor("g", ["b"], {})])
    idx, _, energy = _BetaIndex.weighed_on(nfg)
    assert idx.diffuse(energy)[0] is None
    with pytest.raises(LpFailure, match="infeasible"):
        minimize_bethe(nfg, 0)


def optimal_face_width(nfg):
    """The most weight a point of nfg's T = 0 optimal face (energy within
    1e-9 of the minimum) puts on the factor slots that the LP's vertex
    leaves at 0: about 0 when the vertex is the only optimum."""
    from scipy.optimize import linprog

    idx, _, energy = _BetaIndex.weighed_on(nfg)
    c, (a_eq, b_eq) = energy[:len(idx.factor_slots)], idx.lp_rows
    y, f_min = idx.lp(energy)
    zero = (y < 0.5).astype(float)
    res = linprog(-zero, A_ub=c[None, :], b_ub=[f_min + 1e-9 * max(1.0, abs(f_min))],
                  A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
    assert res.success
    return -res.fun


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


def test_one_decoding_graph_builds_one_index(monkeypatch):
    """bgcd's LP, a traced sum-product run, bethe_terms and minimize_bethe
    at T = 1 on one decoding graph all read its structure's ``_BetaIndex``,
    weighed once on that graph (``_BetaIndex.weighed_on``)."""
    from gcb.spa import sum_product

    built = []
    weigh = _BetaIndex.weighed

    def counting(self, nfg):
        built.append(nfg)
        return weigh(self, nfg)

    monkeypatch.setattr(_BetaIndex, "weighed", counting)
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    dec = attach_channel(code, Channel.bsc(Fraction(1, 10)), "0100000000")
    bgcd(dec)
    state, _ = sum_product(dec.nfg, max_iters=30, damping=0.5, collect_trace=True)
    assert len(state.trace) == 30
    res = minimize_bethe(dec.nfg, 1)
    bethe_terms(dec.nfg, res.beta, tol=1e-6)
    assert built == [dec.nfg]
