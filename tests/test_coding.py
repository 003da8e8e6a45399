import itertools
import math
import random
from fractions import Fraction

import pytest

import gcb._kernels as kernels
from gcb._kernels import Walk
from gcb.coding import (
    Channel,
    DecodingNfg,
    ParityCheckMatrix,
    attach_channel,
    bgcd,
    bmapd,
    check_represents_code,
    cycle_code_zgibbs,
    fundamental_projection,
    nfg_from_parity_check,
    sgcd,
    smapd,
)
from gcb.covers import PseudoMarginals, TypeTally, build_cover, build_cover_with_map, enumerate_covers, random_cover
from gcb.errors import CapExceeded, GcbError, LengthMismatch, NotCycleCode, ParseError
from gcb.gibbs import gibbs_partition, valid_tuples
from gcb.nfg import Factor, Nfg, parity_table

from conftest import EXAMPLE3_ROWS, fig5_beta, list_oracle


DUMBBELL_INCIDENCE = [
    # vertices A..F over edges e1..e7; triangles e1-e3 and e4-e6, bridge e7
    [1, 0, 1, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 1],
    [0, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 1, 1, 0],
]


def symmetric_llr_channel(magnitudes=(1.0, 4.0)) -> Channel:
    """Outputs p<k>/m<k> with log-likelihood ratios +k/-k and no offset."""
    lam = {}
    for k in magnitudes:
        lam[f"p{k:g}"] = k
        lam[f"m{k:g}"] = -k
    z = sum(math.exp(l / 2) for l in lam.values())
    w = {}
    for y, l in lam.items():
        w[(y, 0)] = math.exp(l / 2) / z
        w[(y, 1)] = math.exp(-l / 2) / z
    return Channel(2, w)


def random_tree_pcm(rng, n_checks=3, k=2) -> ParityCheckMatrix:
    """Tree-structured code: each new check shares one variable with the tree."""
    cols = k  # first check gets k fresh variables
    rows = [[1] * k]
    for _ in range(n_checks - 1):
        attach = rng.randrange(cols)
        fresh = k - 1
        for row in rows:
            row.extend([0] * fresh)
        new = [0] * (cols + fresh)
        new[attach] = 1
        for j in range(fresh):
            new[cols + j] = 1
        rows.append(new)
        cols += fresh
    return ParityCheckMatrix(rows)


# -- construction -----------------------------------------------------------------


def test_example3_structure():
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    assert h.regularity() == (3, 6)
    nfg = nfg_from_parity_check(h)
    assert len(nfg.half_edges) == 10
    assert len(nfg.full_edges) == 30
    assert len(nfg.factors) == 15
    ok, t, _ = check_represents_code(nfg, h.codewords())
    assert ok and t == 1


def test_tiny_repetition_code():
    h = ParityCheckMatrix([[1, 1]])
    nfg = nfg_from_parity_check(h)
    ok, t, _ = check_represents_code(nfg, [(0, 0), (1, 1)])
    assert ok and t == 1


def test_rank_determines_code_size():
    h = ParityCheckMatrix([[1, 1, 0], [0, 1, 1]])
    codewords = h.codewords()
    assert len(codewords) == 2 ** (3 - 2)
    nfg = nfg_from_parity_check(h)
    ok, t, _ = check_represents_code(nfg, codewords)
    assert ok and t == 1


def test_pcm_validation():
    with pytest.raises(GcbError, match="all-zero"):
        ParityCheckMatrix([[1, 0], [1, 0]])
    with pytest.raises(GcbError):
        ParityCheckMatrix([[1, 2]])


def test_alist_roundtrip():
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    n, m = h.n_cols, h.n_rows
    col_deg = [h.column_weight(i) for i in range(n)]
    row_deg = [h.row_weight(j) for j in range(m)]
    lines = [f"{n} {m}", f"{max(col_deg)} {max(row_deg)}"]
    lines.append(" ".join(map(str, col_deg)))
    lines.append(" ".join(map(str, row_deg)))
    for i in range(n):
        lines.append(" ".join(str(j + 1) for j in range(m) if h.h[j][i]))
    for j in range(m):
        lines.append(" ".join(str(i + 1) for i in range(n) if h.h[j][i]))
    back = ParityCheckMatrix.from_alist_text("\n".join(lines))
    assert back.h == h.h


# 3 columns, 2 rows whose column lists give H rows 110 and 011
ALIST_ROW_FAULTS = [
    ("3 2\n2 2\n1 2 1\n1 2\n1\n1 2\n2\n1\n2 3\n", "alist row 1: degree 1 below its 2 columns"),
    ("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n1 3\n",
     r"alist row 2: columns \[1, 3\], but the column lists give \[2, 3\]"),
    ("3 2\n2 3\n1 2 1\n3 3\n1\n1 2\n2\n1 2 3\n1 2 3\n",
     r"alist row 1: columns \[1, 2, 3\], but the column lists give \[1, 2\]"),
    ("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n", "alist truncated"),
]


@pytest.mark.parametrize("text, message", ALIST_ROW_FAULTS)
def test_alist_row_section_must_restate_the_columns(text, message):
    with pytest.raises(ParseError, match=message):
        ParityCheckMatrix.from_alist_text(text)


def test_alist_row_lists_may_pad_with_zeros():
    text = "3 2\n2 3\n1 2 1\n2 3\n1\n1 2\n2\n1 2\n2 0 3\n"
    assert ParityCheckMatrix.from_alist_text(text).h == [(1, 1, 0), (0, 1, 1)]


# every list padded with 0 to the max degree, 2: H rows 110 and 011
PADDED_ALIST = "3 2\n2 2\n1 2 1\n2 2\n1 0\n1 2\n2 0\n1 2\n2 3\n"


def test_alist_reads_lists_padded_to_the_max_degree():
    assert ParityCheckMatrix.from_alist_text(PADDED_ALIST).h == [(1, 1, 0), (0, 1, 1)]
    # a list padded to its own degree only is read by its degree
    unpadded = PADDED_ALIST.replace("1 0\n", "1\n").replace("2 0\n", "2\n")
    assert ParityCheckMatrix.from_alist_text(unpadded).h == [(1, 1, 0), (0, 1, 1)]


def test_alist_row_index_past_m_is_a_parse_error():
    # 3 columns, 2 rows; column 2 names row 3
    text = "3 2\n2 3\n1 2 1\n2 2\n1\n1 3\n2\n1 2\n2 3\n"
    with pytest.raises(ParseError, match="alist column 2: row index 3 outside 1..2"):
        ParityCheckMatrix.from_alist_text(text)


@pytest.mark.parametrize("line", ["W 0 2 1", "W 1 -1 1/2"])
def test_channel_rejects_inputs_outside_the_alphabet(line):
    text = "W 0 0 9/10\nW 1 0 1/10\nW 0 1 1/10\nW 1 1 9/10\n" + line + "\n"
    with pytest.raises(GcbError, match="outside 0..1"):
        Channel.from_table_text(text)


def test_fig1_represents_with_fiber_four(fig1):
    ok, t, _ = check_represents_code(fig1, [(0, 0), (1, 1)])
    assert ok and t == 4


def test_non_indicator_rejected():
    n = Nfg(
        {"a": 2},
        ["a"],
        [Factor("f", ("a",), {(0,): Fraction(1), (1,): Fraction(2)})],
    )
    ok, t, reason = check_represents_code(n, [(0,), (1,)])
    assert not ok and t is None and "indicator" in reason


# -- attaching channels -------------------------------------------------------------


def test_attach_channel_structure():
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    nfg = nfg_from_parity_check(h)
    ch = Channel.bsc(Fraction(1, 10))
    dec = attach_channel(nfg, ch, ["0"] * 10)
    assert len(dec.nfg.half_edges) == 0
    channel_factors = [f for f in dec.nfg.factors if f.startswith("ch_")]
    assert len(channel_factors) == 10
    assert dec.gamma == len(h.codewords())


def test_attach_channel_length_check():
    nfg = nfg_from_parity_check(ParityCheckMatrix([[1, 1]]))
    with pytest.raises(LengthMismatch):
        attach_channel(nfg, Channel.bsc(Fraction(1, 10)), ["0"] * 3)


def test_attach_channel_rejects_multi_fiber(fig1):
    # fig1 has t_N = 4
    with pytest.raises(GcbError, match="t_N = 1"):
        attach_channel(fig1, Channel.bsc(Fraction(1, 10)), ["0", "0"])


def test_noiseless_channel_roundtrip():
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    nfg = nfg_from_parity_check(h)
    ch = Channel.bsc(Fraction(0))
    codeword = h.codewords()[5]
    dec = attach_channel(nfg, ch, [str(s) for s in codeword])
    assert bmapd(dec).decisions == codeword
    assert smapd(dec).decisions == codeword


def test_erasure_outputs_give_uniform_marginals():
    # erasure symbol '?' equally likely under both inputs
    w = {
        ("0", 0): Fraction(1, 2), ("?", 0): Fraction(1, 2),
        ("1", 1): Fraction(1, 2), ("?", 1): Fraction(1, 2),
        ("1", 0): Fraction(0), ("0", 1): Fraction(0),
    }
    ch = Channel(2, w)
    h = ParityCheckMatrix([[1, 1, 0], [0, 1, 1]])  # code {000, 111}
    nfg = nfg_from_parity_check(h)
    dec = attach_channel(nfg, ch, ["?", "?", "?"])
    res = smapd(dec)
    for e in dec.symbol_edges:
        assert res.symbol_beliefs[e][0] == Fraction(1, 2)
        assert res.symbol_beliefs[e][1] == Fraction(1, 2)
    assert res.tie


# -- blockwise decoders ---------------------------------------------------------------


def test_bmapd_equals_t0_energy_scan():
    rng = random.Random(5)
    h = random_tree_pcm(rng, 4, 3)
    nfg = nfg_from_parity_check(h)
    ch = Channel.bsc(Fraction(1, 5))
    y = [str(rng.randrange(2)) for _ in range(h.n_cols)]
    dec = attach_channel(nfg, ch, y)
    res = bmapd(dec)
    best = None
    best_e = None
    for tup, value in valid_tuples(dec.nfg):
        e = -math.log(value)
        if best_e is None or e < best_e:
            best_e, best = e, tup
    positions = [dec.nfg.edge_index(x) for x in dec.symbol_edges]
    assert res.decisions == tuple(best[p] for p in positions)
    assert res.objective == pytest.approx(best_e, abs=1e-12)


def test_bmapd_tie_flag_on_symmetric_y():
    h = ParityCheckMatrix([[1, 1]])
    nfg = nfg_from_parity_check(h)
    ch = Channel.bsc(Fraction(1, 4))
    dec = attach_channel(nfg, ch, ["0", "1"])
    res = bmapd(dec)
    assert res.tie
    assert res.decisions == (0, 0)  # lexicographic winner


REPETITION4 = ParityCheckMatrix([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])


@pytest.mark.parametrize("y, degree, n_optima", [("0011", None, 2), ("0101", 2, 4096)])
def test_float_channel_ties_match_exact(y, degree, n_optima):
    """Equal float products can round apart; the blockwise rule still counts
    every optimum and breaks the tie as the exact channel does."""
    results = []
    for p in (0.1, Fraction(1, 10)):
        dec = attach_channel(nfg_from_parity_check(REPETITION4), Channel.bsc(p), y)
        res = bmapd(dec) if degree is None else bgcd(dec, degree=degree)
        results.append((res.decisions, res.tie, res.diagnostics["n_optima"]))
    assert results[0] == results[1] == ((0, 0, 0, 0), True, n_optima)


def test_bgcd_tie_check_raises_past_config_cap(monkeypatch):
    dec = attach_channel(nfg_from_parity_check(REPETITION4), Channel.bsc(Fraction(1, 10)), "0011")
    assert bgcd(dec).tie
    with pytest.raises(CapExceeded):
        bgcd(dec, config_cap=1)
    monkeypatch.setenv("GCB_CONFIG_CAP", "1")
    with pytest.raises(CapExceeded):
        bgcd(dec)


def test_bgcd_reports_the_dual_bound():
    """bgcd's ``bound`` is the dual bound max-sum diffusion reached: equal to
    the objective, to rounding, on a word it pins, and below it on a word
    left to the LP."""
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    for y, certified in (("0000000000", True), ("0100100010", False)):
        res = bgcd(attach_channel(code, Channel.bsc(Fraction(1, 10)), y))
        bound, objective = res.diagnostics["bound"], res.objective
        assert res.diagnostics["certified"] is certified
        if certified:
            assert abs(bound - objective) <= 1e-12 * max(1.0, abs(objective))
        else:
            assert bound <= objective + 1e-9


def test_bgcd_lp_failure_instance():
    """Crafted received vector where the fractional pseudo-codeword wins."""
    pcm = ParityCheckMatrix(DUMBBELL_INCIDENCE)
    nfg = nfg_from_parity_check(pcm)
    ch = symmetric_llr_channel()
    ys = ["p1"] * 6 + ["m4"]
    dec = attach_channel(nfg, ch, ys)
    res = bgcd(dec)

    def energy(x):
        return -sum(math.log(float(ch.likelihood(ys[i], x[i]))) for i in range(7))

    best_cw = min(energy(x) for x in pcm.codewords())
    assert res.objective < best_cw - 1e-7
    omega = fundamental_projection(nfg, res.beliefs)
    values = [float(omega[e]) for e in sorted(omega)]
    assert any(0.01 < v < 0.99 for v in values)
    assert values == pytest.approx([0.5] * 6 + [1.0], abs=1e-6)


# -- symbolwise decoders ---------------------------------------------------------------


def test_smapd_single_codeword_point_mass():
    h = ParityCheckMatrix([[1, 1], [1, 0]])  # only the zero codeword
    nfg = nfg_from_parity_check(h)
    assert h.codewords() == [(0, 0)]
    dec = attach_channel(nfg, Channel.bsc(Fraction(1, 3)), ["1", "1"])
    res = smapd(dec)
    assert res.decisions == (0, 0)
    for e in dec.symbol_edges:
        assert res.symbol_beliefs[e][0] == 1


def test_smapd_repetition_code_oracle():
    h = ParityCheckMatrix([[1, 1, 0], [0, 1, 1]])  # length-3 repetition
    nfg = nfg_from_parity_check(h)
    dec = attach_channel(nfg, Channel.bsc(Fraction(1, 10)), ["0", "0", "1"])
    res = smapd(dec)
    # posterior: P(000) prop 0.9*0.9*0.1, P(111) prop 0.1*0.1*0.9
    p000 = Fraction(9, 10) ** 2 * Fraction(1, 10)
    p111 = Fraction(1, 10) ** 2 * Fraction(9, 10)
    want0 = p000 / (p000 + p111)
    for e in dec.symbol_edges:
        assert res.symbol_beliefs[e][0] == want0
    assert res.decisions == (0, 0, 0)


def test_smapd_decision_need_not_be_codeword():
    # two checks pulling in different directions under strong asymmetric noise
    h = ParityCheckMatrix([[1, 1, 0, 0], [0, 1, 1, 1]])
    nfg = nfg_from_parity_check(h)
    ch = symmetric_llr_channel(magnitudes=(1.0, 2.0))
    codewords = {tuple(x) for x in h.codewords()}
    found = False
    for ys in itertools.product(["p1", "m1", "p2", "m2"], repeat=4):
        res = smapd(attach_channel(nfg, ch, list(ys)))
        if tuple(res.decisions) not in codewords:
            found = True
            break
    assert found


def test_smapd_matches_spa_on_trees():
    rng = random.Random(13)
    from gcb.spa import sum_product

    for _ in range(5):
        h = random_tree_pcm(rng, 3, 3)
        nfg = nfg_from_parity_check(h)
        ch = Channel.bsc(Fraction(1, 8))
        y = [str(rng.randrange(2)) for _ in range(h.n_cols)]
        dec = attach_channel(nfg, ch, y)
        res = smapd(dec)
        _, beliefs = sum_product(dec.nfg, max_iters=200, tol=0.0)
        for e in dec.symbol_edges:
            for s in (0, 1):
                assert float(beliefs.edge_weight(e, s)) == pytest.approx(
                    float(res.beliefs.edge_weight(e, s)), abs=1e-10
                )


def loop_symbolwise(dec, m):
    """Oracle of the symbolwise rule's sums: one dict update per type, row
    and edge copy, in type order, as the rule summed before its incidence
    lists.  Returns (beliefs, objective)."""
    nfg = dec.nfg
    tally, types, unit = TypeTally.weighed_on(dec.nfg, m)
    z_total = 0
    factor_acc = {f: {} for f in nfg.factors}
    edge_acc = {e: {} for e in nfg.edge_order}
    slot_edges = [e for e in nfg.edge_order for _ in range(m)]
    for count, value, rows, slots in types:
        w = count * value
        z_total += w
        for row_id in rows:
            f, key = tally.rows[row_id]
            factor_acc[f][key] = factor_acc[f].get(key, 0) + w
        for e, s in zip(slot_edges, slots):
            edge_acc[e][s] = edge_acc[e].get(s, 0) + w
    exact = type(z_total) is int
    norm = m * z_total if exact else m * z_total * unit
    share = (lambda v: Fraction(v, norm)) if exact else (lambda v: v * unit / norm)
    beta = PseudoMarginals(
        {f: {k: share(v) for k, v in d.items()} for f, d in factor_acc.items()},
        {e: {s: share(v) for s, v in d.items()} for e, d in edge_acc.items()},
    )
    return beta, -math.log(float(z_total * unit / tally.n_fixed)) / m


HAMMING74 = ParityCheckMatrix([[1, 1, 0, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0], [0, 1, 1, 1, 0, 0, 1]])
Z_CHANNEL = Channel(2, {("0", 0): Fraction(1), ("0", 1): Fraction(1, 4), ("1", 1): Fraction(3, 4)})


def typed_items(dists):
    return [(key, [(k, type(v), v) for k, v in d.items()]) for key, d in dists.items()]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("channel", [Channel.bsc(Fraction(1, 10)), Channel.bsc(0.13), Z_CHANNEL],
                         ids=["exact-bsc", "float-bsc", "z-channel"])
def test_symbolwise_incidence_sums_match_the_type_loop(channel, m):
    """The symbolwise rule's sums over the tally's incidence lists give the
    per-type loop's values, value types and dict key order, at M = 1
    (``smapd``) and at degree 2, on Hamming(7,4) words."""
    code = nfg_from_parity_check(HAMMING74)
    rng = random.Random(11)
    words = HAMMING74.codewords()
    for _ in range(3):
        y = "".join(str(s ^ (rng.random() < 0.2)) for s in rng.choice(words))
        dec = attach_channel(code, channel, y)
        res = smapd(dec) if m == 1 else sgcd(dec, degree=m)
        beta, objective = loop_symbolwise(dec, m)
        assert typed_items(res.beliefs.factor_dists) == typed_items(beta.factor_dists)
        assert typed_items(res.beliefs.edge_dists) == typed_items(beta.edge_dists)
        assert res.objective == objective


def test_underflowed_symbolwise_sums_are_left_out():
    """A float configuration weight that underflows to 0 leaves no zero
    entry in the symbolwise beliefs, as in the type loop's, at M = 1 and 2."""
    dec = attach_channel(nfg_from_parity_check(ParityCheckMatrix([[1, 1]])), Channel.bsc(1e-200), "00")
    for m, res in ((1, smapd(dec)), (2, sgcd(dec, degree=2))):
        beta, _ = loop_symbolwise(dec, m)
        assert typed_items(res.beliefs.factor_dists) == typed_items(beta.factor_dists)
        assert typed_items(res.beliefs.edge_dists) == typed_items(beta.edge_dists)
        assert res.symbol_beliefs == {e: {0: 1.0} for e in dec.symbol_edges}


def test_sgcd_degree2_matches_literal_average(dumbbell):
    """Copy-symmetric path vs the full weighted average over all M-covers and copies."""
    m = 2
    nfg = dumbbell
    from gcb.coding import DecodingNfg

    dec = DecodingNfg(nfg, nfg.edge_order, Fraction(1), [])
    fast = sgcd(dec, degree=m)

    z_total = Fraction(0)
    edge_acc = {(e, s): Fraction(0) for e in nfg.edge_order for s in (0, 1)}
    factor_acc = {}
    for spec in enumerate_covers(nfg, m):
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
        want = acc / z_total
        got = Fraction(fast.beliefs.edge_weight(e, s))
        assert abs(float(want - got)) <= 1e-12
        assert want == got
    for (f, key), acc in factor_acc.items():
        assert Fraction(fast.beliefs.factor_weight(f, key)) == acc / z_total


def test_sgcd_degree3_with_channel_weights():
    """Degree-3 literal rule: copy-1 path vs full average over copies."""
    factors = [
        Factor("fa", ("h1", "m"), parity_table(2)),
        Factor("fb", ("m", "h2"), parity_table(2)),
    ]
    toy = Nfg({"h1": 2, "m": 2, "h2": 2}, ["h1", "h2"], factors)
    dec = attach_channel(toy, Channel.bsc(Fraction(1, 4)), ["1", "0"])
    m = 3
    fast = sgcd(dec, degree=m)

    z_total = Fraction(0)
    edge_acc = {}
    for spec in enumerate_covers(dec.nfg, m):
        cover, (_, edge_map) = build_cover_with_map(spec)
        for tup, value in valid_tuples(cover):
            z_total += value
            for ce, (e, _) in edge_map.items():
                s = tup[cover.edge_index(ce)]
                edge_acc[(e, s)] = edge_acc.get((e, s), Fraction(0)) + Fraction(value, m)
    for (e, s), acc in edge_acc.items():
        assert Fraction(fast.beliefs.edge_weight(e, s)) == acc / z_total


def test_sgcd_degree2_with_channel_weights():
    """Literal degree-2 rule on a real decoding graph with non-unit values."""
    h = ParityCheckMatrix([[1, 1]])
    nfg = nfg_from_parity_check(h)
    dec = attach_channel(nfg, Channel.bsc(Fraction(1, 5)), ["0", "1"])
    m = 2
    fast = sgcd(dec, degree=m)

    z_total = Fraction(0)
    edge_acc = {}
    for spec in enumerate_covers(dec.nfg, m):
        cover, (factor_map, edge_map) = build_cover_with_map(spec)
        for tup, value in valid_tuples(cover):
            z_total += value
            for ce, (e, _) in edge_map.items():
                s = tup[cover.edge_index(ce)]
                edge_acc[(e, s)] = edge_acc.get((e, s), Fraction(0)) + Fraction(value, m)
    for (e, s), acc in edge_acc.items():
        assert Fraction(fast.beliefs.edge_weight(e, s)) == acc / z_total


# -- MAP decoders against the product space ------------------------------------------


def map_oracle_cases():
    """Seeded decoding graphs for the product-space oracle, by test id."""
    cases = {}
    rng = random.Random(17)
    for i, (p, n_checks, k) in enumerate(((Fraction(1, 6), 3, 2), (Fraction(1, 5), 2, 3), (Fraction(1, 8), 3, 2))):
        h = random_tree_pcm(rng, n_checks, k)
        y = [str(rng.randrange(2)) for _ in range(h.n_cols)]
        cases[f"tree-bsc{i}"] = attach_channel(nfg_from_parity_check(h), Channel.bsc(p), y)
    # A unique optimum: whether a float tie holds would hang on rounding order.
    rng = random.Random(2)
    h = random_tree_pcm(rng, 2, 3)
    y = [rng.choice(["p1", "m1", "p4", "m4"]) for _ in range(h.n_cols)]
    cases["tree-llr"] = attach_channel(nfg_from_parity_check(h), symmetric_llr_channel(), y)
    pair = nfg_from_parity_check(ParityCheckMatrix([[1, 1]]))
    cases["tied01"] = attach_channel(pair, Channel.bsc(Fraction(1, 4)), ["0", "1"])
    # Base edge order puts e1 before e10, so the tie goes to e1 = 0.
    nfg = Nfg({"e1": 2, "e10": 2}, ["e1", "e10"], [Factor("f", ("e1", "e10"), {(0, 1): 1, (1, 0): 1})])
    cases["e1e10"] = DecodingNfg(nfg, nfg.half_edge_order, Fraction(1), [])
    return cases


MAP_ORACLE_CASES = map_oracle_cases()


@pytest.mark.parametrize("case", sorted(MAP_ORACLE_CASES))
def test_map_decoders_match_product_space_oracle(case):
    """bmapd and smapd against brute force over the product of the edge
    alphabets, in exact arithmetic (a float table value enters as its exact
    rational).  The first optimum in product order is the one smallest in
    edge order."""
    dec = MAP_ORACLE_CASES[case]
    nfg = dec.nfg
    configs = []
    for tup in itertools.product(*(range(nfg.alphabet_sizes[e]) for e in nfg.edge_order)):
        value = Fraction(1)
        for fid, f in nfg.factors.items():
            value *= Fraction(f.value(nfg.local_assignment(fid, tup)))
        if value:
            configs.append((tup, value))
    best = max(v for _, v in configs)
    optima = [t for t, v in configs if v == best]
    winner = optima[0]
    z = sum(v for _, v in configs)
    factor_acc, edge_acc = {f: {} for f in nfg.factors}, {e: {} for e in nfg.edge_order}
    for tup, value in configs:
        for f in nfg.factors:
            key = nfg.local_assignment(f, tup)
            factor_acc[f][key] = factor_acc[f].get(key, 0) + value / z
        for e in nfg.edge_order:
            s = tup[nfg.edge_index(e)]
            edge_acc[e][s] = edge_acc[e].get(s, 0) + value / z
    exact = case != "tree-llr"

    b = bmapd(dec)
    assert b.decisions == tuple(winner[nfg.edge_index(e)] for e in dec.symbol_edges)
    assert b.tie == (len(optima) > 1)
    assert b.diagnostics["n_optima"] == len(optima)
    assert b.beliefs == PseudoMarginals(
        {f: {nfg.local_assignment(f, winner): 1} for f in nfg.factors},
        {e: {winner[nfg.edge_index(e)]: 1} for e in nfg.edge_order},
    )
    s = smapd(dec)
    if exact:
        assert b.objective == -math.log(best)
        assert s.objective == -math.log(z)
        assert s.beliefs == PseudoMarginals(factor_acc, edge_acc)
    else:
        # float products round in the walk's factor order
        assert b.objective == pytest.approx(-math.log(best), rel=1e-14)
        assert s.objective == pytest.approx(-math.log(z), rel=1e-14)
    assert case not in ("tied01", "e1e10") or b.tie


# -- one walk per code graph and decoding structure ------------------------------------


def seeded_word(rng, words, p):
    return [str(s ^ (rng.random() < p)) for s in rng.choice(words)]


def list_oracle_cases():
    """Decoding graphs on example3, all attached to one code graph."""
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    code, words = nfg_from_parity_check(h), h.codewords()
    rng = random.Random(41)
    cases = {}
    for p in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        for i in range(3):
            cases[f"bsc{p.denominator}-{i}"] = attach_channel(code, Channel.bsc(p), seeded_word(rng, words, p))
    for i in range(2):
        cases[f"float-bsc-{i}"] = attach_channel(code, Channel.bsc(0.1), seeded_word(rng, words, 0.1))
    erasure = Channel(2, {("0", 0): Fraction(2, 3), ("?", 0): Fraction(1, 3),
                          ("1", 1): Fraction(2, 3), ("?", 1): Fraction(1, 3)})
    y = ["?" if rng.random() < 0.5 else str(s) for s in words[9]]
    cases["erasure"] = attach_channel(code, erasure, y)
    prior = [[Fraction(3, 5), Fraction(2, 5)]] * 10
    cases["prior"] = attach_channel(code, Channel.bsc(Fraction(1, 10)), seeded_word(rng, words, 0.1), prior)
    return cases


LIST_ORACLE_CASES = list_oracle_cases()


@pytest.mark.parametrize("case", sorted(LIST_ORACLE_CASES))
def test_decoders_match_decoding_graph_walk(case):
    """The decoders read the decoding structure's M = 1 tally, scaled to
    ints where exact; their decisions, ties, objectives, beliefs and optimum
    counts are those of ``valid_tuples`` of the decoding graph, bit for bit."""
    dec = LIST_ORACLE_CASES[case]
    want = list_oracle(dec)
    for name, decoder in (("bmapd", bmapd), ("smapd", smapd), ("bgcd", bgcd)):
        res = decoder(dec)
        got = (res.decisions, res.tie, res.objective, res.beliefs, res.diagnostics.get("n_optima"))
        assert got == want[name], name


def tally_order_words():
    """Decoding graphs of seeded tree codes and example3, under an exact
    BSC, a float BSC, the Z-channel and an exact BSC with a prior."""
    rng = random.Random(71)
    pcms = [random_tree_pcm(rng, rng.choice([2, 3]), rng.choice([2, 3])) for _ in range(4)]
    for h in pcms + [ParityCheckMatrix(EXAMPLE3_ROWS)]:
        code, words = nfg_from_parity_check(h), h.codewords()
        prior = [[Fraction(2 + i, 5 + 2 * i), Fraction(3 + i, 5 + 2 * i)] for i in range(h.n_cols)]
        for channel, flip, with_prior in ((Channel.bsc(Fraction(1, 10)), 0.15, False), (Channel.bsc(0.1), 0.15, False),
                                          (Z_CHANNEL, 0.0, False), (Channel.bsc(Fraction(1, 10)), 0.15, True)):
            x = rng.choice(words)
            y = [str(s ^ (rng.random() < flip)) for s in x]
            yield code, attach_channel(code, channel, y, prior if with_prior else None)


def test_m1_tally_lists_configurations_in_sorted_order():
    """At M = 1 the tally's types are the valid configurations in the
    order of ``valid_tuples``, the order the decoders' float sums follow;
    so is a code graph's own tally."""
    for code, dec in tally_order_words():
        for nfg in (code, dec.nfg):
            tally = TypeTally.of(nfg, 1)
            want = [t for t, _ in valid_tuples(nfg)]
            assert [slots for _, _, slots in tally.types] == want
            assert [count for _, count, _ in tally.types] == [1] * len(want)
            assert tally.fullest == len(want)


def test_decoding_walks_each_code_once(monkeypatch):
    """attach_channel, bmapd, smapd and bgcd walk and plan each code graph
    once and each decoding structure once, never once per word: 20 BSC
    words share one structure, Z-channel words with three support patterns
    build one each, and alternating two codes gives each its own."""
    calls, plans = [], []
    configs, build_plan = Walk.configs, kernels.build_plan

    def counting(self, *args, **kwargs):
        calls.append(self)
        return configs(self, *args, **kwargs)

    def counting_plans(nfg):
        plans.append(nfg)
        return build_plan(nfg)

    structures = []  # every decoding structure built, held so none is collected

    def decode(code, channel, y):
        dec = attach_channel(code, channel, y)
        (kept,) = code.derived(attach_channel, None)
        if all(kept is not s for s in structures):
            structures.append(kept)
        for decoder in (bmapd, smapd, bgcd):
            decoder(dec)
        return dec

    monkeypatch.setattr(Walk, "configs", counting)
    monkeypatch.setattr(kernels, "build_plan", counting_plans)
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    code, words = nfg_from_parity_check(h), h.codewords()
    rng = random.Random(43)
    ch = Channel.bsc(Fraction(1, 10))
    for _ in range(20):
        decode(code, ch, seeded_word(rng, words, 0.1))
    assert len(calls) == len(plans) == 1 + len(structures) == 2
    # a received 1 rules out a sent 0, so each of these words has its own supports
    for x in (words[1], words[1], words[2], words[3]):
        decode(code, Z_CHANNEL, [str(s) for s in x])
    assert len(calls) == len(plans) == 1 + len(structures) == 5

    calls.clear()
    codes = [(nfg_from_parity_check(m), m.codewords()) for m in (REPETITION4, ParityCheckMatrix([[1, 1, 1]]))]
    decoded = []
    for i in range(8):
        code, words = codes[i % 2]
        dec = attach_channel(code, ch, seeded_word(rng, words, 0.2))
        decoded.append((dec, bmapd(dec).decisions, smapd(dec).decisions))
    assert len(calls) == 4  # each code graph and its one structure
    for dec, b, s in decoded:
        want = list_oracle(dec)
        assert (b, s) == (want["bmapd"][0], want["smapd"][0])


def test_cap_holds_after_the_list_is_cached(monkeypatch):
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    ch = Channel.bsc(Fraction(1, 10))
    dec = attach_channel(code, ch, "0" * 10)
    assert not bgcd(dec).tie  # an integral optimum, so the tie check counts
    monkeypatch.setenv("GCB_CONFIG_CAP", "31")  # the code has 32 codewords
    for call in (lambda: attach_channel(code, ch, "0" * 10), lambda: bmapd(dec),
                 lambda: smapd(dec), lambda: bgcd(dec)):
        with pytest.raises(CapExceeded):
            call()


def test_exact_symbol_ties_compare_exactly():
    """Beliefs 1e-14 apart are no tie when exact: smapd agrees with bmapd."""
    half, eps = Fraction(1, 2), Fraction(1, 10**14)
    ch = Channel(2, {("a", 0): half, ("b", 0): half, ("a", 1): half + eps, ("b", 1): half - eps})
    dec = attach_channel(nfg_from_parity_check(ParityCheckMatrix([[1, 1]])), ch, "aa")
    for res in (bmapd(dec), smapd(dec)):
        assert (res.decisions, res.tie) == ((1, 1), False)


def test_rational_prior_gives_exact_gamma():
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    prior = [[Fraction(3, 4), Fraction(1, 4)]] * 10
    dec = attach_channel(nfg_from_parity_check(h), Channel.bsc(Fraction(1, 10)), "0" * 10, prior)
    kappa = sum(math.prod(prior[i][x[i]] for i in range(10)) for x in h.codewords())
    assert type(dec.gamma) is Fraction and dec.gamma == 1 / kappa


# -- ladders and invariances --------------------------------------------------------


def test_decoder_ladder_on_trees():
    rng = random.Random(29)
    for code_trial in range(20):
        h = random_tree_pcm(rng, n_checks=rng.choice([2, 3]), k=rng.choice([2, 3]))
        nfg = nfg_from_parity_check(h)
        ch = symmetric_llr_channel(magnitudes=(0.5, 1.5))
        outputs = ["p0.5", "m0.5", "p1.5", "m1.5"]
        for draw in range(5):
            y = [rng.choice(outputs) for _ in range(h.n_cols)]
            dec = attach_channel(nfg, ch, y)
            energies = sorted(-math.log(v) for _, v in valid_tuples(dec.nfg))
            if len(energies) > 1 and energies[1] - energies[0] < 1e-9:
                continue  # near-tied optima: argmax rules may pick different winners
            b_map = bmapd(dec)
            b_gcd = bgcd(dec)
            assert b_gcd.decisions == b_map.decisions
            s_map = smapd(dec)
            s_gcd = sgcd(dec, n_starts=1)
            for e in dec.symbol_edges:
                for s in (0, 1):
                    assert float(s_gcd.beliefs.edge_weight(e, s)) == pytest.approx(
                        float(s_map.beliefs.edge_weight(e, s)), abs=1e-9
                    )


def test_smapd_marginals_match_boltzmann_restriction():
    rng = random.Random(31)
    h = random_tree_pcm(rng, 3, 2)
    nfg = nfg_from_parity_check(h)
    ch = Channel.bsc(Fraction(1, 7))
    y = [str(rng.randrange(2)) for _ in range(h.n_cols)]
    dec = attach_channel(nfg, ch, y)
    res = smapd(dec)
    from gcb.gibbs import gibbs_minimizer

    p_star = gibbs_minimizer(dec.nfg, 1)
    for e in dec.symbol_edges:
        for s in (0, 1):
            direct = sum(
                v for tup, v in p_star.items() if tup[dec.nfg.edge_index(e)] == s
            )
            assert res.beliefs.edge_weight(e, s) == direct


def test_channel_scaling_invariance():
    rng = random.Random(37)
    h = random_tree_pcm(rng, 3, 2)
    nfg = nfg_from_parity_check(h)
    ch = Channel.bsc(Fraction(1, 9))
    y = [str(rng.randrange(2)) for _ in range(h.n_cols)]
    dec = attach_channel(nfg, ch, y)

    scaled_factors = []
    for fid, f in dec.nfg.factors.items():
        if fid.startswith("ch_"):
            scaled_factors.append(
                Factor(fid, f.edges, {k: v * Fraction(7, 2) for k, v in f.table.items()})
            )
        else:
            scaled_factors.append(f)
    from gcb.coding import DecodingNfg

    scaled = DecodingNfg(
        Nfg(dec.nfg.alphabet_sizes, [], scaled_factors),
        dec.symbol_edges, dec.gamma, dec.y,
    )
    assert bmapd(scaled).decisions == bmapd(dec).decisions
    a, b = smapd(scaled), smapd(dec)
    for e in dec.symbol_edges:
        for s in (0, 1):
            assert a.beliefs.edge_weight(e, s) == b.beliefs.edge_weight(e, s)


def test_sgcd_decodes_regular_code_near_noiseless():
    """Integration: graph-cover decode of the (3,6) length-10 code."""
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    nfg = nfg_from_parity_check(h)
    ch = Channel.bsc(Fraction(1, 20))
    x = h.codewords()[17]
    dec = attach_channel(nfg, ch, [str(s) for s in x])
    res = sgcd(dec, n_starts=1)
    assert res.decisions == x
    for i, e in enumerate(dec.symbol_edges):
        assert float(res.beliefs.edge_weight(e, x[i])) > 0.9
    res0 = bgcd(dec)
    assert res0.decisions == x


# the first 20 words of random.Random(2024) below and sgcd's decisions on
# them, recorded before sgcd stopped at the first certified start
SGCD_RECORDED = [
    ("1111000110", "1111000110"), ("0110111010", "0110111010"), ("0100101101", "0100101101"),
    ("0110000011", "0110000011"), ("1010010100", "1010010100"), ("1001101101", "1001101101"),
    ("0100000000", "0000000000"), ("1001000001", "1001000101"), ("1000100110", "1000100110"),
    ("1100010111", "1100010111"), ("0101101011", "0101101011"), ("0010100001", "0010100001"),
    ("0110111010", "0110111010"), ("1101010000", "1101010000"), ("0111000011", "0111000011"),
    ("1000000101", "1000000111"), ("1000001111", "1000000111"), ("0001101111", "0001101111"),
    ("0110111000", "0110111010"), ("1100010111", "1100010111"),
]


def test_sgcd_decisions_on_seeded_words():
    """Codewords of the (3,6) code through BSC(1/20), (1/10), (1/5) in turn."""
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    code = nfg_from_parity_check(h)
    words = h.codewords()
    rng = random.Random(2024)
    for i, (y_rec, decision) in enumerate(SGCD_RECORDED):
        p = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))[i % 3]
        y = [str(s ^ (rng.random() < p)) for s in rng.choice(words)]
        assert "".join(y) == y_rec
        res = sgcd(attach_channel(code, Channel.bsc(p), y))
        assert "".join(map(str, res.decisions)) == decision
        assert res.diagnostics == {"converged": True} and not res.tie


# -- fundamental polytope -------------------------------------------------------------


def test_projection_of_codeword_vertex():
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    nfg = nfg_from_parity_check(h)
    x = h.codewords()[7]
    config = {}
    for i, e in enumerate(nfg.half_edge_order):
        config[e] = x[i]
    for e in nfg.full_edge_order:
        i = int(e.split("_")[0][1:]) - 1
        config[e] = x[i]
    from gcb.covers import beta_from_configuration

    beta = beta_from_configuration(nfg, nfg.config_tuple(config))
    omega = fundamental_projection(nfg, beta)
    assert tuple(int(omega[e]) for e in nfg.half_edge_order) == x


def test_codeword_midpoints_inside_polytope():
    from gcb.bme import bme_completion

    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    nfg = nfg_from_parity_check(h)
    rng = random.Random(3)
    words = h.codewords()
    for _ in range(5):
        a, b = rng.sample(words, 2)
        mid = {e: Fraction(a[i] + b[i], 2) for i, e in enumerate(nfg.half_edge_order)}
        res = bme_completion(nfg, mid)  # feasibility: completion must exist
        for e, w in mid.items():
            assert float(res.beta.edge_weight(e, 1)) == pytest.approx(float(w), abs=1e-9)


def test_fig5_projection_values(fig1):
    beta = fig5_beta()
    omega = fundamental_projection(fig1, beta)
    assert omega["e1"] == 0
    assert omega["e4"] == 1


# -- cycle-code shortcut ----------------------------------------------------------------


def test_cycle_zgibbs_values(dumbbell):
    assert cycle_code_zgibbs(dumbbell) == 4
    tri = Nfg(
        {"a": 2, "b": 2, "c": 2},
        [],
        [
            Factor("f1", ("a", "b"), parity_table(2)),
            Factor("f2", ("b", "c"), parity_table(2)),
            Factor("f3", ("c", "a"), parity_table(2)),
        ],
    )
    assert cycle_code_zgibbs(tri) == 2


def test_cycle_zgibbs_matches_enumeration_on_covers(dumbbell):
    for seed in range(5):
        cover = build_cover(random_cover(dumbbell, 2, seed=seed))
        assert cycle_code_zgibbs(cover) == gibbs_partition(cover)
    cover3 = build_cover(random_cover(dumbbell, 3, seed=123))
    assert cycle_code_zgibbs(cover3) == gibbs_partition(cover3)


def test_cycle_zgibbs_rejects_non_cycle(fig1):
    with pytest.raises(NotCycleCode):
        cycle_code_zgibbs(fig1)  # has half-edges
