"""Decoding structures: the words of one code graph share what their
structure alone determines.

A code graph keeps one decoding structure, for the last channel-factor
supports seen, and each word's decoding graph is that structure reweighed
(``Nfg.reweighed``).  So the words with the same supports share the
structure's memo (``Nfg.shared``): its ``_BetaIndex``, which keeps the
LP's A_eq, the diffusion's colours and the sum-product layout, and the
M = 1 type tally.  A word pays only for its weights.  The oracle here is
structure-free: ``valid_tuples`` of the decoding graph, and a ``twin`` of
it whose index and layout are built from nothing; exact values must be
equal Fractions and floats equal bit for bit.
"""

import gc
import random
import weakref
from fractions import Fraction

import numpy as np

from gcb.bethe import _BetaIndex, minimize_bethe
from gcb.coding import (
    Channel,
    DecodingNfg,
    ParityCheckMatrix,
    attach_channel,
    bgcd,
    bmapd,
    nfg_from_parity_check,
    sgcd,
    smapd,
)
from gcb.covers import TypeTally
from gcb.nfg import Factor, Nfg
from gcb.spa import layout, sum_product

from conftest import EXAMPLE3_ROWS, list_oracle, twin

# a Z-channel: an output 1 rules out the input 0, so the support of a
# channel factor follows the word
Z_CHANNEL = Channel(2, {("0", 0): Fraction(1), ("0", 1): Fraction(1, 5), ("1", 1): Fraction(4, 5)})
PRIOR = [[Fraction(3 + i, 10 + 2 * i), Fraction(7 + i, 10 + 2 * i)] for i in range(10)]


def example3():
    h = ParityCheckMatrix(EXAMPLE3_ROWS)
    return nfg_from_parity_check(h), h.codewords()


def interleaved_words(code, words, n, seed):
    """n decoding graphs on one code graph, rotating through a rational
    BSC, a float BSC, the Z-channel and a rational BSC with a per-symbol
    prior."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = rng.choice(words)
        kind = i % 4
        if kind == 2:
            y = [str(s if s == 0 or rng.random() >= 0.2 else 0) for s in x]
            out.append(attach_channel(code, Z_CHANNEL, y))
            continue
        p = 0.1 if kind == 1 else Fraction(1, 10)
        y = [str(s ^ (rng.random() < 0.15)) for s in x]
        out.append(attach_channel(code, Channel.bsc(p), y, PRIOR if kind == 3 else None))
    return out


def kept_structure(code):
    """The decoding structures the code graph keeps (at most one)."""
    return code.derived(attach_channel, None)


def spa_outcome(nfg, **kwargs):
    state, beliefs = sum_product(nfg, **kwargs)
    messages = {k: v.tobytes() for k, v in state.messages.items()}
    return messages, state.iterations, state.residual, state.converged, beliefs


def test_decoders_match_the_frame_free_oracle():
    code, words = example3()
    for dec in interleaved_words(code, words, 24, seed=5):
        want = list_oracle(dec)
        for name, decoder in (("bmapd", bmapd), ("smapd", smapd), ("bgcd", bgcd)):
            res = decoder(dec)
            got = (res.decisions, res.tie, res.objective, res.beliefs, res.diagnostics.get("n_optima"))
            assert got == want[name], name
        res, fresh = sgcd(dec), minimize_bethe(twin(dec.nfg), 1.0)
        assert (res.beliefs, res.objective, res.diagnostics["converged"]) == (fresh.beta, fresh.f_min, fresh.converged)
        kwargs = {"max_iters": 120, "damping": 0.5}
        assert spa_outcome(dec.nfg, **kwargs) == spa_outcome(twin(dec.nfg), **kwargs)


def test_one_frame_per_code_and_channel_supports():
    """Words with the code's last supports share its structure; other
    supports get their own, which replaces it, so the code graph keeps one
    structure."""
    code, words = example3()
    rational, floats, z_one, z_again, z_other = (
        attach_channel(code, Channel.bsc(Fraction(1, 10)), "0" * 10),
        attach_channel(code, Channel.bsc(0.1), "1" * 10),
        attach_channel(code, Z_CHANNEL, "1100000000"),
        attach_channel(code, Z_CHANNEL, "1100000000"),
        attach_channel(code, Z_CHANNEL, "0000000000"),  # supports {0, 1} everywhere, as the BSC's
    )
    s_rational, s_floats, s_one, s_again, s_other = (
        _BetaIndex.of(dec.nfg) for dec in (rational, floats, z_one, z_again, z_other)
    )
    assert s_rational is s_floats
    assert s_one is s_again is not s_rational
    assert s_other is not s_one and s_other is not s_rational
    (kept,) = kept_structure(code)
    assert _BetaIndex.of(kept) is s_other
    assert kept is not z_other.nfg  # the structure is no word's own graph
    # the supports differ: the Z words' indexes have fewer factor slots
    assert len(s_one.factor_slots) < len(s_rational.factor_slots)
    assert bmapd(z_other).decisions == bmapd(rational).decisions == (0,) * 10
    # a hand-built twin of a word is its own code graph, with its own structure
    other = twin(rational.nfg)
    hand = DecodingNfg(other, rational.symbol_edges, rational.gamma, rational.y)
    assert bmapd(hand).decisions == bmapd(rational).decisions
    assert _BetaIndex.of(hand.nfg) is not s_rational


def test_words_share_structure_not_weights():
    """Two words of one structure read one index, which holds no graph, and
    the LP rows, diffusion and layout kept on it; each word has its own
    weight and energy arrays."""
    code, words = example3()
    a, b = interleaved_words(code, words, 2, seed=9)
    (ia, wa, ea), (ib, wb, eb) = (_BetaIndex.weighed_on(dec.nfg) for dec in (a, b))
    assert ia is ib is _BetaIndex.of(a.nfg) is _BetaIndex.of(b.nfg)
    bgcd(a)
    kept = ia.lp_rows, ia.diffusion
    bgcd(b)
    assert ib.lp_rows is kept[0] and ib.diffusion is kept[1]
    assert layout(ia, wa) is layout(ib, wb) is ia.layout
    bmapd(a), bmapd(b)
    assert a.nfg.shared((TypeTally, 1), None) is b.nfg.shared((TypeTally, 1), None)
    for x, y in ((wa, wb), (ea, eb)):
        assert not np.shares_memory(x, y)
    assert not any(isinstance(v, Nfg) for v in vars(ia).values())
    assert a.nfg.factors["ch_x01"] is not b.nfg.factors["ch_x01"]


def test_a_word_is_collectable_after_decoding():
    """The structure, kept on the code graph, is no word's graph, and what
    it shares holds no decoding graph."""
    code, words = example3()
    dec = interleaved_words(code, words, 1, seed=3)[0]
    for decoder in (bmapd, smapd, bgcd, sgcd):
        decoder(dec)
    sum_product(dec.nfg, max_iters=20)
    graph = weakref.ref(dec.nfg)
    (kept,) = kept_structure(code)
    del dec
    gc.collect()
    assert graph() is None
    assert "layout" in vars(kept.shared(_BetaIndex, None))  # the layout outlives the word


def test_a_decoded_word_is_freed_without_the_cycle_collector():
    """Decoding leaves no reference cycle through a word's graph: after
    the four decoders and a sum-product run, dropping the word frees its
    graph by reference counting alone."""
    code, words = example3()
    dec = interleaved_words(code, words, 1, seed=3)[0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for decoder in (bmapd, smapd, bgcd, sgcd):
            decoder(dec)
        sum_product(dec.nfg, max_iters=20)
        graph = weakref.ref(dec.nfg)
        del dec
        assert graph() is None
    finally:
        if enabled:
            gc.enable()


def test_the_code_graph_keeps_one_frame():
    """Z-channel words with many support patterns leave one structure on
    the code graph, the last word's, and each word's results still match
    the oracle."""
    code, words = example3()
    patterns = set()
    decs = interleaved_words(code, words, 40, seed=17)
    for dec in decs[2::4]:
        patterns.add(tuple(len(f.table) for f in dec.nfg.factors.values()))
        assert bmapd(dec).decisions == list_oracle(dec)["bmapd"][0]
    assert len(patterns) > 2
    (kept,) = kept_structure(code)
    assert _BetaIndex.of(kept) is _BetaIndex.of(decs[-1].nfg)


def weighed(nfg):
    """nfg's index weights and energy, and its M = 1 types and unit, each
    value with its type and floats by their bits."""

    def exact(v):
        return type(v), v.hex() if isinstance(v, float) else v

    _, weights, energy = _BetaIndex.weighed_on(nfg)
    _, types, unit = TypeTally.weighed_on(nfg, 1)
    return (
        weights.tobytes(),
        energy.tobytes(),
        [(count, exact(value), rows, slots) for count, value, rows, slots in types],
        exact(unit),
    )


def test_swapped_factors_are_read_again():
    """A word's index and type values read each factor's numbers once per
    factor object (``Nfg.per_factor``): after every word of a mixed
    sequence, graphs reweighed from reweighed graphs included, they equal
    those of a twin weighed from nothing."""
    code, words = example3()
    decs = interleaved_words(code, words, 24, seed=21)
    assert len({_BetaIndex.of(dec.nfg) for dec in decs}) > 2  # Z words replace the kept structure
    channel = [f"ch_{e}" for e in code.half_edge_order]
    for earlier, dec in zip([None] + decs, decs):
        graphs = [dec.nfg]
        if earlier is not None and _BetaIndex.of(earlier.nfg) is _BetaIndex.of(dec.nfg):
            back = dec.nfg.reweighed([earlier.nfg.factors[f] for f in channel])
            halved = [back.factors[f] for f in channel[::2]]
            graphs += [back, back.reweighed(Factor(f.id, f.edges, {k: float(v) / 2 for k, v in f.table.items()})
                                            for f in halved)]
        for nfg in graphs:
            assert weighed(nfg) == weighed(twin(nfg))


def test_layout_is_rebuilt_when_rows_underflow():
    """At T = 1/500, 0.1 ** 500 underflows: the run lays out fewer rows than
    the shared layout has, and still matches a run from nothing."""
    code, words = example3()
    dec = attach_channel(code, Channel.bsc(0.1), "0100000000")
    sum_product(dec.nfg, max_iters=5)
    index, weights, _ = _BetaIndex.weighed_on(dec.nfg)
    kept = index.layout
    assert len(kept.slots) == len(index.factor_slots)
    assert len(layout(index, weights**500.0).slots) < len(kept.slots)
    kwargs = {"max_iters": 40, "damping": 0.5, "temperature": 0.002}
    assert spa_outcome(dec.nfg, **kwargs) == spa_outcome(twin(dec.nfg), **kwargs)
    assert _BetaIndex.of(dec.nfg).layout is kept
    assert layout(index, weights) is kept


def test_an_underflowing_first_run_shares_no_layout():
    """Only the layout of every row is shared: after a first run at T =
    1/500, a T = 1 run on the same structure reads the layout of every row,
    kept for the next word, and both runs match runs from nothing."""
    code, words = example3()
    dec, later = (attach_channel(code, Channel.bsc(0.1), y) for y in ("0100000000", "0010000000"))
    cold = {"max_iters": 40, "damping": 0.5, "temperature": 0.002}
    assert spa_outcome(dec.nfg, **cold) == spa_outcome(twin(dec.nfg), **cold)
    index = _BetaIndex.of(dec.nfg)
    assert "layout" not in vars(index)
    assert spa_outcome(dec.nfg, max_iters=40) == spa_outcome(twin(dec.nfg), max_iters=40)
    kept = index.layout
    assert len(kept.slots) == len(index.factor_slots)
    later_index, later_weights, _ = _BetaIndex.weighed_on(later.nfg)
    assert layout(later_index, later_weights) is kept


def test_sparse_lp_matches_dense():
    """linprog reads A_eq as CSR and as a dense array into one model."""
    from scipy.optimize import linprog

    code, words = example3()
    for dec in interleaved_words(code, words, 4, seed=13):
        index, _, energy = _BetaIndex.weighed_on(dec.nfg)
        c, (a_eq, b_eq) = energy[:len(index.factor_slots)], index.lp_rows
        sparse = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
        dense = linprog(c, A_eq=a_eq.toarray(), b_eq=b_eq, bounds=(0, 1), method="highs")
        assert np.array_equal(sparse.x, dense.x) and sparse.fun == dense.fun
