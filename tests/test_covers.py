import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gcb.bethe import parse_beta
from gcb.bme import bme_completion
from gcb.coding import ParityCheckMatrix, nfg_from_parity_check
from gcb.covers import (
    CoverSpec,
    PreimageCensus,
    PseudoMarginals,
    beta_from_configuration,
    build_cover,
    build_cover_with_map,
    check_local_consistency,
    check_shape,
    count_covers,
    emit_cover_spec,
    enumerate_covers,
    entropy_rate_estimate,
    lift_realizable_set,
    parse_cover_spec,
    phi_m,
    preimage_count_bruteforce,
    preimage_count_closedform,
    random_cover,
)
from gcb.errors import CapExceeded, InvalidConfiguration, NonIntegralType, ShapeMismatch
from gcb.gibbs import gibbs_partition, valid_tuples
from gcb.nfg import Factor, Nfg, parity_table

from conftest import EXAMPLE3_ROWS, fig5_beta


def two_factor_toy():
    """Two parity factors joined by one full edge, one half-edge each."""
    factors = [
        Factor("fa", ("h1", "m"), parity_table(2)),
        Factor("fb", ("m", "h2"), parity_table(2)),
    ]
    return Nfg({"h1": 2, "m": 2, "h2": 2}, ["h1", "h2"], factors)


def test_count_covers(fig1, dumbbell):
    assert count_covers(dumbbell, 2) == 128
    assert count_covers(dumbbell, 1) == 1
    assert count_covers(fig1, 3) == 6**6


def test_enumerate_covers_cap(dumbbell):
    with pytest.raises(CapExceeded):
        list(enumerate_covers(dumbbell, 2, cap=100))


def test_enumerate_covers_single_edge():
    toy = two_factor_toy()
    specs = list(enumerate_covers(toy, 3))
    assert len(specs) == 6
    # Lehmer order of the single edge's permutations
    assert [s.perms["m"] for s in specs] == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]


def test_m1_single_identity_cover(fig1):
    (spec,) = list(enumerate_covers(fig1, 1))
    assert all(p == (0,) for p in spec.perms.values())
    cover = build_cover(spec)
    assert gibbs_partition(cover) == gibbs_partition(fig1)
    assert len(cover.factors) == len(fig1.factors)


def test_identity_cover_is_disjoint_copies(fig1):
    spec = CoverSpec(fig1, 2, {e: (0, 1) for e in fig1.full_edges})
    cover = build_cover(spec)
    assert cover.n_components() == 2 * fig1.n_components()
    assert gibbs_partition(cover) == gibbs_partition(fig1) ** 2


def test_dumbbell_two_cover_z_multiset(dumbbell):
    zs = Counter()
    for spec in enumerate_covers(dumbbell, 2):
        zs[int(gibbs_partition(build_cover(spec)))] += 1
    assert zs == Counter({16: 32, 8: 96})


def test_untwisted_dumbbell_cover_z16(dumbbell):
    spec = CoverSpec(dumbbell, 2, {e: (0, 1) for e in dumbbell.full_edges})
    assert gibbs_partition(build_cover(spec)) == 16


def test_random_cover_deterministic(dumbbell):
    a = random_cover(dumbbell, 3, seed=42)
    b = random_cover(dumbbell, 3, seed=42)
    assert a.perms == b.perms
    c = random_cover(dumbbell, 3, seed=43)
    assert any(a.perms[e] != c.perms[e] for e in a.perms)


def test_random_cover_m1_identity(dumbbell):
    spec = random_cover(dumbbell, 1, seed=5)
    assert all(p == (0,) for p in spec.perms.values())


def test_random_cover_uniform_chi_square():
    toy = two_factor_toy()
    n = 10_000
    counts = Counter()
    for seed in range(n):
        counts[random_cover(toy, 3, seed=seed).perms["m"]] += 1
    expected = n / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 5 degrees of freedom; 3-sigma-ish bound
    assert len(counts) == 6
    assert chi2 < 20.5


def test_phi_m_paper_values(fig1):
    text = (
        "cover M=2\n"
        "perm e2 1 2\nperm e3 1 2\nperm e5 1 2\n"
        "perm e6 1 2\nperm e7 1 2\nperm e8 2 1\n"
    )
    spec = parse_cover_spec(fig1, text)
    config = {
        "e1@1": 0, "e1@2": 0, "e2@1": 0, "e2@2": 0, "e3@1": 0, "e3@2": 1,
        "e4@1": 1, "e4@2": 1, "e5@1": 0, "e5@2": 0, "e6@1": 0, "e6@2": 1,
        "e7@1": 1, "e7@2": 0, "e8@1": 0, "e8@2": 1,
    }
    beta = phi_m(spec, config)
    assert beta == fig5_beta()
    assert beta.factor_weight("f2", (0, 0, 0)) == Fraction(1, 2)
    assert beta.factor_weight("f2", (0, 1, 1)) == Fraction(1, 2)
    assert beta.edge_weight("e4", 1) == 1
    assert beta.edge_weight("e4", 0) == 0
    assert beta.edge_weight("e7", 0) == Fraction(1, 2)


def test_phi_m_rejects_invalid_configuration(fig1):
    (spec,) = list(enumerate_covers(fig1, 1))
    bad = {f"e{i}@1": 0 for i in range(1, 9)} | {"e1@1": 1}
    with pytest.raises(InvalidConfiguration):
        phi_m(spec, bad)


def test_phi_m1_is_vertex(fig1):
    (spec,) = list(enumerate_covers(fig1, 1))
    for tup, _ in valid_tuples(fig1):
        config = {f"{e}@1": s for e, s in fig1.config_dict(tup).items()}
        beta = phi_m(spec, config)
        assert beta == beta_from_configuration(fig1, tup)


def test_preimage_m1_vertex_and_miss(fig1):
    tup0 = valid_tuples(fig1)[0][0]
    vertex = beta_from_configuration(fig1, tup0)
    assert preimage_count_bruteforce(fig1, 1, vertex) == 1
    assert preimage_count_closedform(fig1, 1, vertex) == 1
    # a beta not realized by any base configuration: point mass on an
    # even-weight row that no global configuration extends
    other = fig5_beta()
    assert preimage_count_bruteforce(fig1, 1, other) == 0


def test_closedform_zero_outside_support():
    # consistent beta whose factor block sits on an odd-parity row
    toy = two_factor_toy()
    from gcb.covers import PseudoMarginals

    bad = PseudoMarginals(
        {"fa": {(0, 1): Fraction(1)}, "fb": {(1, 1): Fraction(1)}},
        {"h1": {0: Fraction(1)}, "m": {1: Fraction(1)}, "h2": {1: Fraction(1)}},
    )
    assert preimage_count_closedform(toy, 1, bad) == 0


def test_closedform_requires_integrality(fig1):
    beta = fig5_beta()
    with pytest.raises(NonIntegralType):
        preimage_count_closedform(fig1, 3, beta)


def test_fig5_beta_counts(fig1):
    beta = fig5_beta()
    closed = preimage_count_closedform(fig1, 2, beta)
    brute = preimage_count_bruteforce(fig1, 2, beta)
    assert closed == brute
    assert closed > 0


def test_preimage_cross_oracle_all_realizable_m2(fig1):
    census = PreimageCensus(fig1, 2)
    betas = census.realizable()
    assert betas  # non-empty
    for beta in betas:
        assert census.count(beta) == preimage_count_closedform(fig1, 2, beta)


def test_preimage_cross_oracle_toy_m3():
    toy = two_factor_toy()
    census = PreimageCensus(toy, 3)
    for beta in census.realizable():
        assert census.count(beta) == preimage_count_closedform(toy, 3, beta)


def test_preimage_cross_oracle_three_factor_instances():
    """Three parity factors in a triangle, degrees 2 and 3."""
    tri = Nfg(
        {"a": 2, "b": 2, "c": 2, "h": 2},
        ["h"],
        [
            Factor("f1", ("a", "b"), parity_table(2)),
            Factor("f2", ("b", "c", "h"), parity_table(3)),
            Factor("f3", ("c", "a"), parity_table(2)),
        ],
    )
    for m in (2, 3):
        census = PreimageCensus(tri, m)
        assert census.realizable()
        for beta in census.realizable():
            assert census.count(beta) == preimage_count_closedform(tri, m, beta)


def test_double_counting_identity(fig1):
    census = PreimageCensus(fig1, 2)
    total = sum(census.count(b) for b in census.realizable()) * census.n_covers
    per_cover = sum(
        len(valid_tuples(build_cover(spec))) for spec in enumerate_covers(fig1, 2)
    )
    assert total == per_cover


def test_lift_realizable_m1_is_vertices(fig1):
    got = lift_realizable_set(fig1, 1)
    want = {beta_from_configuration(fig1, t) for t, _ in valid_tuples(fig1)}
    assert got == want


def test_lift_realizable_m2_contains_fig5_and_nests(fig1):
    b1 = lift_realizable_set(fig1, 1)
    b2 = lift_realizable_set(fig1, 2)
    assert fig5_beta() in b2
    assert b1 <= b2
    dim = sum(len(f.table) for f in fig1.factors.values()) + sum(
        fig1.alphabet_sizes.values()
    )
    assert len(b2) <= 3**dim


def test_fig5_beta_outside_hull_of_vertices(fig1):
    """The twisted-cover vector is not a mixture of base configurations."""
    import numpy as np
    from scipy.optimize import linprog

    verts = np.array([t for t, _ in valid_tuples(fig1)], dtype=float).T  # 8 x 8
    target = np.array([float(fig5_beta().edge_weight(e, 1)) for e in fig1.edge_order])
    n = verts.shape[1]
    a_eq = np.vstack([verts, np.ones(n)])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq, bounds=[(0, 1)] * n, method="highs")
    assert not res.success


def test_phi_output_always_consistent(fig1):
    from gcb.covers import check_local_consistency

    for spec in list(enumerate_covers(fig1, 2))[:8]:
        cover, (fm, em) = build_cover_with_map(spec)
        for tup, _ in valid_tuples(cover):
            beta = phi_m(spec, cover.config_dict(tup))
            ok, violations = check_local_consistency(fig1, beta, tol=0)
            assert ok, violations


def test_entropy_rate_zero_for_vertices(fig1):
    for tup, _ in valid_tuples(fig1):
        vertex = beta_from_configuration(fig1, tup)
        for m in (1, 4, 64):
            assert entropy_rate_estimate(fig1, vertex, m) == 0.0
            assert preimage_count_closedform(fig1, m, vertex) == 1


def test_entropy_rate_matches_closedform_log(fig1):
    beta = fig5_beta()
    for m in (2, 8, 32):
        rate = entropy_rate_estimate(fig1, beta, m)
        exact = math.log(preimage_count_closedform(fig1, m, beta)) / m
        assert rate == pytest.approx(exact, abs=1e-10)


def test_entropy_rate_large_m_feasible(fig1):
    beta = fig5_beta()
    assert math.isfinite(entropy_rate_estimate(fig1, beta, 10**6))


def test_component_count_inequalities(dumbbell):
    base = dumbbell.n_components()
    for seed in range(200):
        m = 2 + seed % 3
        cover = build_cover(random_cover(dumbbell, m, seed=seed))
        assert base <= cover.n_components() <= m * base


def test_cover_of_cover_is_composite_cover(dumbbell):
    """An M2-cover of an M1-cover projects onto the base like an (M1*M2)-cover."""
    m1, m2 = 2, 3
    inner = build_cover(random_cover(dumbbell, m1, seed=1))
    outer = build_cover(random_cover(inner, m2, seed=2))
    assert len(outer.factors) == m1 * m2 * len(dumbbell.factors)
    assert len(outer.alphabet_sizes) == m1 * m2 * len(dumbbell.alphabet_sizes)

    def base_id(name):
        return name.split("@", 1)[0]

    # fibers: every base factor has exactly m1*m2 copies
    fibers = Counter(base_id(f) for f in outer.factors)
    assert fibers == Counter({f: m1 * m2 for f in dumbbell.factors})
    # local bijectivity: each copy sees exactly the base factor's edge multiset
    for fid, f in outer.factors.items():
        want = sorted(dumbbell.factors[base_id(fid)].edges)
        got = sorted(base_id(e) for e in f.edges)
        assert got == want


def test_spec_roundtrip(dumbbell):
    spec = random_cover(dumbbell, 3, seed=9)
    text = emit_cover_spec(spec)
    back = parse_cover_spec(dumbbell, text)
    assert back.m == spec.m and back.perms == spec.perms


def test_cover_index_roundtrip(dumbbell):
    """Cover i carries the odometer digits of i: the last full edge moves
    fastest through the permutations in ``itertools`` order."""
    specs = list(enumerate_covers(dumbbell, 2))
    perms = list(itertools.permutations(range(2)))
    edges = dumbbell.full_edge_order
    assert len(specs) == len(perms) ** len(edges)
    for i, spec in enumerate(specs):
        digits = [(i // len(perms) ** (len(edges) - 1 - k)) % len(perms) for k in range(len(edges))]
        assert spec.perms == {e: perms[d] for e, d in zip(edges, digits)}


def _consistency_by_scans(nfg, beta, tol):
    """The reference: one scan of a factor's rows per (edge, symbol)."""
    check_shape(nfg, beta)
    exact = beta.is_exact() and tol == 0
    violations = []

    def bad(diff):
        return diff != 0 if exact else abs(float(diff)) > tol

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
        for pos, e in enumerate(nfg.factors[f].edges):
            for s in range(nfg.alphabet_sizes[e]):
                marg = sum(v for k, v in beta.factor_dists[f].items() if k[pos] == s)
                if bad(marg - beta.edge_weight(e, s)):
                    violations.append(("consistency", f, e, s))
    return (not violations), violations


def _perturbed(beta, rng, delta):
    """(beta with a few factor rows shifted by +-delta, and sometimes a new
    row, a negative entry, or a row whose symbol lies outside the alphabet;
    whether it got that last row)."""
    factor_dists = {f: dict(d) for f, d in beta.factor_dists.items()}
    for _ in range(rng.randint(0, 3)):
        d = factor_dists[rng.choice(sorted(factor_dists))]
        key = rng.choice(sorted(d))
        d[key] += rng.choice((-1, 1)) * delta
    kind = rng.randrange(4)
    if kind:
        f = rng.choice(sorted(factor_dists))
        arity = len(next(iter(factor_dists[f])))
        key = tuple(rng.randrange(2) for _ in range(arity))
        if kind == 3:
            key = key[:-1] + (rng.choice((2, -1)),)
        factor_dists[f][key] = factor_dists[f].get(key, 0) + (-delta if kind == 2 else delta)
    return PseudoMarginals(factor_dists, beta.edge_dists), kind == 3


@pytest.mark.parametrize("seed", range(40))
def test_local_consistency_matches_per_symbol_scans(seed, fig1):
    rng = random.Random(seed)
    exact = fig5_beta()
    as_float = PseudoMarginals(
        {f: {k: float(v) for k, v in d.items()} for f, d in exact.factor_dists.items()},
        {e: {s: float(v) for s, v in d.items()} for e, d in exact.edge_dists.items()},
    )
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    omega = {e: rng.uniform(0.2, 0.8) for e in code.half_edge_order}
    completed = bme_completion(code, omega).beta
    cases = [
        (fig1, _perturbed(exact, rng, Fraction(1, 7)), 0),
        (fig1, _perturbed(exact, rng, Fraction(1, 7)), 1e-9),
        (fig1, _perturbed(as_float, rng, 1 / 7), 1e-9),
        (code, _perturbed(completed, rng, 1e-6), 1e-9),
        (code, _perturbed(completed, rng, 1e-6), 1e-5),
        (code, (completed, False), 1e-9),
    ]
    for nfg, (beta, out_of_alphabet), tol in cases:
        if out_of_alphabet:
            with pytest.raises(ShapeMismatch):
                check_local_consistency(nfg, beta, tol=tol)
            with pytest.raises(ShapeMismatch):
                _consistency_by_scans(nfg, beta, tol)
        else:
            assert check_local_consistency(nfg, beta, tol=tol) == _consistency_by_scans(nfg, beta, tol)


def test_parsed_row_outside_the_alphabet_is_a_shape_error(fig1):
    beta = parse_beta(fig1, "beta f5 0,5 1/2\n")
    with pytest.raises(ShapeMismatch):
        check_shape(fig1, beta)

