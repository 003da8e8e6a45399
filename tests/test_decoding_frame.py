"""Decoding frames: one structure per code graph and channel supports.

Decoding graphs of one code graph whose channel factors have the same
supports share a ``coding._DecodingFrame``, the last one the code graph
built: its ``_BetaIndex`` structure, the LP's A_eq, the sum-product layout
and the M = 1 walk over the code's list.  A word pays only for its
weights.  The oracle here is frame-free: ``valid_tuples`` of the decoding
graph, and a ``twin`` of it whose index and layout are built from
nothing; exact values must be equal Fractions and floats equal bit for
bit.
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
    _frame,
    attach_channel,
    bgcd,
    bmapd,
    nfg_from_parity_check,
    sgcd,
    smapd,
)
from gcb.spa import _FlatLayout, layout, sum_product

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


def index_of(dec):
    return dec.nfg.derived(_BetaIndex, _BetaIndex)


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
    """Words with the code's last supports share its frame; other supports
    get their own, which replaces it, so the code graph keeps one frame."""
    code, words = example3()
    rational, floats, z_one, z_again, z_other = (
        attach_channel(code, Channel.bsc(Fraction(1, 10)), "0" * 10),
        attach_channel(code, Channel.bsc(0.1), "1" * 10),
        attach_channel(code, Z_CHANNEL, "1100000000"),
        attach_channel(code, Z_CHANNEL, "1100000000"),
        attach_channel(code, Z_CHANNEL, "0000000000"),  # supports {0, 1} everywhere, as the BSC's
    )
    assert _frame(rational) is _frame(floats)
    assert _frame(z_one) is _frame(z_again) is not _frame(rational)
    assert _frame(z_other) is not _frame(z_one) and _frame(z_other) is not _frame(rational)
    assert list(code.derived(_frame, dict).values()) == [_frame(z_other)]
    # the supports differ: the Z words' indexes have fewer factor slots
    assert len(index_of(z_one).factor_slots) < len(index_of(rational).factor_slots)
    assert bmapd(z_other).decisions == bmapd(rational).decisions == (0,) * 10
    # a hand-built twin of a word is its own code graph, with its own frame
    other = twin(rational.nfg)
    hand = DecodingNfg(other, rational.symbol_edges, rational.gamma, rational.y, None)
    assert bmapd(hand).decisions == bmapd(rational).decisions
    assert _frame(hand) is not _frame(rational)


def test_words_share_structure_not_weights():
    code, words = example3()
    a, b = interleaved_words(code, words, 2, seed=9)
    ia, ib = index_of(a), index_of(b)
    assert ia is not ib and ia.rows is ib.rows and ia.factor_slots is ib.factor_slots
    assert ia.energy_lp()[1] is ib.energy_lp()[1]
    for name in ("weights", "_energy"):
        assert not np.shares_memory(getattr(ia, name), getattr(ib, name)), name
    assert ia.nfg is a.nfg and ib.nfg is b.nfg


def test_a_word_is_collectable_after_decoding():
    """The frame, kept on the code graph, holds no decoding graph."""
    code, words = example3()
    dec = interleaved_words(code, words, 1, seed=3)[0]
    for decoder in (bmapd, smapd, bgcd, sgcd):
        decoder(dec)
    sum_product(dec.nfg, max_iters=20)
    graph = weakref.ref(dec.nfg)
    frame = _frame(dec)
    del dec
    gc.collect()
    assert graph() is None
    assert frame.index.derived(_FlatLayout, None) is not None  # the layout outlives the word


def test_the_code_graph_keeps_one_frame():
    """Z-channel words with many support patterns leave one frame on the
    code graph, and each word's results still match the oracle."""
    code, words = example3()
    patterns = set()
    for dec in interleaved_words(code, words, 40, seed=17)[2::4]:
        patterns.add(tuple(len(f.table) for f in dec.nfg.factors.values()))
        assert bmapd(dec).decisions == list_oracle(dec)["bmapd"][0]
    assert len(patterns) > 2
    assert len(code.derived(_frame, dict)) == 1


def test_layout_is_rebuilt_when_rows_underflow():
    """At T = 1/500, 0.1 ** 500 underflows: the run lays out fewer rows than
    the kept layout has, and still matches a run from nothing."""
    code, words = example3()
    dec = attach_channel(code, Channel.bsc(0.1), "0100000000")
    sum_product(dec.nfg, max_iters=5)
    index = index_of(dec)
    kept = index.derived(_FlatLayout, None)
    assert len(kept.slots) == len(index.factor_slots)
    assert len(layout(index, index.weights**500.0).slots) < len(kept.slots)
    kwargs = {"max_iters": 40, "damping": 0.5, "temperature": 0.002}
    assert spa_outcome(dec.nfg, **kwargs) == spa_outcome(twin(dec.nfg), **kwargs)
    assert index.derived(_FlatLayout, None) is kept
    assert layout(index, index.weights) is kept


def test_sparse_lp_matches_dense():
    """linprog reads A_eq as CSR and as a dense array into one model."""
    from scipy.optimize import linprog

    code, words = example3()
    for dec in interleaved_words(code, words, 4, seed=13):
        c, a_eq, b_eq = index_of(dec).energy_lp()
        sparse = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
        dense = linprog(c, A_eq=a_eq.toarray(), b_eq=b_eq, bounds=(0, 1), method="highs")
        assert np.array_equal(sparse.x, dense.x) and sparse.fun == dense.fun
