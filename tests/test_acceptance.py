"""Acceptance gate: one test per criterion, at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from gcb.bethe import (
    GAP_TOL,
    _BetaIndex,
    bethe_terms,
    minimize_bethe,
    zbethe_m_enumeration,
    zbethe_m_typesum,
)
from gcb.bme import bme_completion
from gcb.coding import (
    Channel,
    DecodingNfg,
    ParityCheckMatrix,
    attach_channel,
    bgcd,
    bmapd,
    check_represents_code,
    cycle_code_zgibbs,
    nfg_from_parity_check,
    sgcd,
    smapd,
)
from gcb.covers import (
    PreimageCensus,
    build_cover,
    build_cover_with_map,
    count_covers,
    entropy_rate_estimate,
    enumerate_covers,
    preimage_count_closedform,
)
from gcb.gibbs import enumerate_configurations, gibbs_partition, valid_tuples
from gcb.ldpc_curves import curve_scan, h_curve, omega_of_s, s_of_omega
from gcb.nfg import Factor, Nfg, parity_table
from gcb.spa import sum_product

from conftest import (
    EXAMPLE3_ROWS,
    FIG1_CONFIGS,
    fig5_beta,
    make_dumbbell,
    make_fig1,
    make_loopy_positive,
    make_random_tree,
)
from test_coding import random_tree_pcm


def report(cid, t0, budget, detail=""):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {cid}: PASS ({elapsed:.2f}s / budget {budget}s) {detail}")
    assert elapsed < budget


def test_criterion_01_fig1_enumeration():
    t0 = time.time()
    fig1 = make_fig1()
    configs = enumerate_configurations(fig1)
    got = {tuple(c[f"e{i}"] for i in range(1, 9)) for c, _ in configs}
    assert got == set(FIG1_CONFIGS)
    assert len(configs) == 8
    chalf = {(c["e1"], c["e4"]) for c, _ in configs}
    assert chalf == {(0, 0), (1, 1)}
    ok, t_n, _ = check_represents_code(fig1, chalf)
    assert ok and t_n == 4
    report("01-fig1-enumeration", t0, 1, f"8 configurations, t_N={t_n}")


def test_criterion_02_dumbbell_reproduction():
    t0 = time.time()
    dumbbell = make_dumbbell()
    assert gibbs_partition(dumbbell) == 4
    assert cycle_code_zgibbs(dumbbell) == 4
    zs = {}
    specs = list(enumerate_covers(dumbbell, 2))
    assert len(specs) == 128
    for spec in specs:
        z = int(gibbs_partition(build_cover(spec)))
        zs[z] = zs.get(z, 0) + 1
    assert zs == {16: 32, 8: 96}
    enum = zbethe_m_enumeration(dumbbell, 2)
    assert enum.pre_root == Fraction(10)
    assert enum.value == pytest.approx(math.sqrt(10), abs=1e-12)
    types = zbethe_m_typesum(dumbbell, 2)
    assert types.pre_root == enum.pre_root  # bit-for-bit rational identity
    report("02-dumbbell", t0, 10, "Z_G=4, multiset {16x32, 8x96}, Z_B,2=sqrt(10)")


def test_criterion_03_preimage_lemma():
    t0 = time.time()
    fig1 = make_fig1()
    census = PreimageCensus(fig1, 2)
    rng = random.Random(2024)
    sample = rng.sample(sorted(census.realizable(), key=lambda b: b.canonical_key()), 10)
    for beta in sample:
        assert census.count(beta) == preimage_count_closedform(fig1, 2, beta)

    toy = Nfg(
        {"h1": 2, "m": 2, "h2": 2},
        ["h1", "h2"],
        [
            Factor("fa", ("h1", "m"), parity_table(2)),
            Factor("fb", ("m", "h2"), parity_table(2)),
        ],
    )
    census3 = PreimageCensus(toy, 3)
    for beta in census3.realizable():
        assert census3.count(beta) == preimage_count_closedform(toy, 3, beta)
    report("03-preimage-lemma", t0, 60, f"10 sampled betas at M=2, {len(census3.realizable())} at M=3")


def test_criterion_04_entropy_growth():
    t0 = time.time()
    fig1 = make_fig1()
    beta = fig5_beta()
    h_b = bethe_terms(fig1, beta, tol=0).h_bethe
    gap_512 = abs(entropy_rate_estimate(fig1, beta, 512) - h_b)
    assert gap_512 <= 0.05
    gaps = []
    m = 2
    while m <= 512:
        gaps.append(abs(entropy_rate_estimate(fig1, beta, m) - h_b))
        m *= 2
    tail = gaps[3:]  # from M = 16
    assert all(a >= b for a, b in zip(tail, tail[1:]))

    # The vector above has unit pre-image count at every degree (its rate
    # gap is identically zero), so also drive the convergence with the
    # uniform vector, whose entropy is strictly positive.
    from gcb.covers import PseudoMarginals

    uni = PseudoMarginals(
        {
            f: {k: Fraction(1, len(fig1.factors[f].table)) for k in fig1.factors[f].table}
            for f in fig1.factors
        },
        {e: {0: Fraction(1, 2), 1: Fraction(1, 2)} for e in fig1.edge_order},
    )
    h_uni = bethe_terms(fig1, uni, tol=0).h_bethe
    gaps_uni = []
    m = 4
    while m <= 512:
        gaps_uni.append(abs(entropy_rate_estimate(fig1, uni, m) - h_uni))
        m *= 2
    assert gaps_uni[-1] <= 0.05
    tail = gaps_uni[2:]  # from M = 16
    assert all(a > b for a, b in zip(tail, tail[1:]))
    report(
        "04-entropy-growth", t0, 5,
        f"stated beta gap {gap_512:.4f}; uniform beta gap {gaps_uni[-1]:.4f} at M=512",
    )


def test_criterion_05_circuit_rank_sandwich():
    t0 = time.time()
    dumbbell = make_dumbbell()
    z_g = 4.0

    val2 = float(zbethe_m_enumeration(dumbbell, 2).value)
    assert 2 ** (-1 / 2) * z_g <= val2 <= z_g

    res3 = zbethe_m_enumeration(dumbbell, 3, exact=True)
    assert res3.n_covers == count_covers(dumbbell, 3) == 6**7
    assert res3.pre_root == Fraction(64, 3)
    assert zbethe_m_typesum(dumbbell, 3).pre_root == res3.pre_root
    val3 = float(res3.value)
    assert 2 ** (-2 / 3) * z_g <= val3 <= z_g
    report("05-sandwich", t0, 300, f"Z_B,2={val2:.4f}, Z_B,3={val3:.4f} in bounds")


def _generic_channel(rng):
    """Six-output channel with continuous random likelihoods: no exact ties."""
    w = {}
    for x in (0, 1):
        probs = np.array([rng.uniform(0.05, 1.0) for _ in range(6)])
        probs /= probs.sum()
        for k, p in enumerate(probs):
            w[(f"y{k}", x)] = float(p)
    return Channel(2, w)


def test_criterion_06_tree_exactness():
    t0 = time.time()
    rng = random.Random(606)
    checked_ladder = 0
    for trial in range(20):
        tree = make_random_tree(rng, n_internal=3 + trial % 2)
        z = float(gibbs_partition(tree))
        res = minimize_bethe(tree, 1.0, n_starts=1)
        assert abs(res.f_min + math.log(z)) <= 1e-9

        _, beliefs = sum_product(tree, max_iters=200, tol=0.0)
        z_acc = 0.0
        edge_acc = {e: np.zeros(2) for e in tree.edge_order}
        for tup, value in valid_tuples(tree):
            v = float(value)
            z_acc += v
            for e in tree.edge_order:
                edge_acc[e][tup[tree.edge_index(e)]] += v
        for e, acc in edge_acc.items():
            for s in (0, 1):
                assert float(beliefs.edge_weight(e, s)) == pytest.approx(
                    acc[s] / z_acc, abs=1e-10
                )

        h = random_tree_pcm(rng, n_checks=rng.choice([2, 3]), k=rng.choice([2, 3]))
        code = nfg_from_parity_check(h)
        channel = _generic_channel(rng)
        y = [f"y{rng.randrange(6)}" for _ in range(h.n_cols)]
        dec = attach_channel(code, channel, y)
        energies = sorted(-math.log(v) for _, v in valid_tuples(dec.nfg))
        if len(energies) > 1 and energies[1] - energies[0] < 1e-9:
            continue
        checked_ladder += 1
        assert bgcd(dec).decisions == bmapd(dec).decisions
        s_map = smapd(dec)
        s_gcd = sgcd(dec, n_starts=1)
        for e in dec.symbol_edges:
            for s in (0, 1):
                assert float(s_gcd.beliefs.edge_weight(e, s)) == pytest.approx(
                    float(s_map.beliefs.edge_weight(e, s)), abs=1e-9
                )
    assert checked_ladder >= 18
    report("06-tree-exactness", t0, 30, f"20 trees, {checked_ladder} tie-free decodes")


def test_criterion_07_yedidia_stationarity():
    t0 = time.time()
    rng = random.Random(707)
    converged = 0
    for trial in range(5):
        nfg = make_loopy_positive(rng)
        state, beliefs = sum_product(nfg, max_iters=8000, tol=1e-10, damping=0.2)
        assert state.converged and state.residual <= 1e-10
        converged += 1
        idx = _BetaIndex(nfg)
        assert idx.gap(idx.to_vector(beliefs), state.messages, 1.0) <= GAP_TOL

    from test_bethe import _random_interior_beta, clamped_gradient, index_and_energy

    nfg = make_loopy_positive(rng)
    idx, energy = index_and_energy(nfg)

    def ambient_f(x):
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

    checked = 0
    for point in range(50):
        beta = _random_interior_beta(nfg, rng)
        x = idx.to_vector(beta)
        grad = clamped_gradient(idx, energy, x)
        h = 1e-6
        for slot in rng.sample(range(len(x)), 3):
            xp, xm = x.copy(), x.copy()
            xp[slot] += h
            xm[slot] -= h
            fd = (ambient_f(xp) - ambient_f(xm)) / (2 * h)
            assert abs(fd - grad[slot]) <= 1e-5 * max(1.0, abs(grad[slot]))
            checked += 1
    report("07-stationarity", t0, 60, f"5 fixed points, {checked} gradient probes")


def test_criterion_08_degree_m_sgcd_literal():
    t0 = time.time()
    dumbbell = make_dumbbell()
    # a uniform channel multiplies every configuration by the same constant,
    # so the decoding graph reduces to the bare cycle-code graph
    dec = DecodingNfg(dumbbell, dumbbell.edge_order, Fraction(1), [])
    m = 2
    fast = sgcd(dec, degree=m)

    z_total = Fraction(0)
    edge_acc = {(e, s): Fraction(0) for e in dumbbell.edge_order for s in (0, 1)}
    factor_acc = {}
    for spec in enumerate_covers(dumbbell, m):
        cover, (factor_map, edge_map) = build_cover_with_map(spec)
        for tup, value in valid_tuples(cover):
            z_total += value
            for ce, (e, _) in edge_map.items():
                s = tup[cover.edge_index(ce)]
                edge_acc[(e, s)] += Fraction(value, m)
            for cf, (f, _) in factor_map.items():
                key = cover.local_assignment(cf, tup)
                factor_acc[(f, key)] = factor_acc.get((f, key), Fraction(0)) + Fraction(value, m)
    for (e, s), acc in edge_acc.items():
        diff = float(acc / z_total - Fraction(fast.beliefs.edge_weight(e, s)))
        assert abs(diff) <= 1e-12
    for (f, key), acc in factor_acc.items():
        diff = float(acc / z_total - Fraction(fast.beliefs.factor_weight(f, key)))
        assert abs(diff) <= 1e-12
    report("08-degree-m-sgcd", t0, 60, "128-cover weighted average matches")


def test_criterion_09_diagonal_identity():
    t0 = time.time()
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    n = 10
    for s in (-1.5, -1.0, -0.5, 0.0, 0.5):
        w = omega_of_s(6, s)
        res = bme_completion(code, {e: w for e in code.half_edge_order})
        want = n * h_curve(3, 6, s).h_nats
        assert abs(res.h_induced - want) <= 1e-6
        duals = [v for d in res.check_duals.values() for v in d.values()]
        assert all(abs(v - s) <= 1e-8 for v in duals)
    report("09-diagonal-identity", t0, 120, "5 tilt values, duals collapse to s")


def test_criterion_10_curve_shapes():
    t0 = time.time()
    rep24 = curve_scan(2, 4, -12.0, 12.0, 601)
    assert rep24.min_h_nats >= -1e-9

    for w in np.linspace(0.001, 0.02, 10):
        s = s_of_omega(6, float(w))
        assert h_curve(3, 6, s).h_nats < 0

    peak = h_curve(3, 6, 0.0)
    assert abs(peak.h_bits - 0.5) <= 1e-10

    rep36 = curve_scan(3, 6, -6.0, 6.0, 601)
    assert any(hi < 0.2 for lo, hi in rep36.convex_intervals)
    assert any(lo < 0.5 < hi for lo, hi in rep36.concave_intervals)
    report("10-curve-shapes", t0, 5, "h24 >= 0, h36 < 0 near 0, peak 0.5 bits")
