import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gcb.bethe import GAP_TOL, _BetaIndex, bethe_terms
from gcb.coding import Channel, ParityCheckMatrix, attach_channel, nfg_from_parity_check
from gcb.covers import PseudoMarginals
from gcb.gibbs import gibbs_partition, valid_tuples
from gcb.nfg import Factor, Nfg
from gcb.spa import SpaState, layout, sum_product

from conftest import EXAMPLE3_ROWS, make_interleaved, make_loopy_positive, make_mixed_arity, make_random_tree


def _factor_weights(nfg: Nfg, temperature: float):
    inv_t = 1.0 / float(temperature)
    weights = {}
    for fid, f in nfg.factors.items():
        rows = sorted(f.table)
        vals = np.array([float(f.table[k]) for k in rows], dtype=float)
        if inv_t != 1.0:
            vals = vals**inv_t
        weights[fid] = (rows, vals)
    return weights


def _initial_messages(nfg: Nfg, rng=None):
    msgs = {}
    for fid, f in nfg.factors.items():
        for e in f.edges:
            size = nfg.alphabet_sizes[e]
            if rng is None:
                v = np.full(size, 1.0 / size)
            else:
                v = rng.uniform(0.2, 1.0, size)
                v /= v.sum()
            msgs[(fid, e)] = v
    return msgs


def _incoming(nfg: Nfg, msgs, fid, e):
    ends = nfg.incidence[e]
    if len(ends) == 1:
        return np.full(nfg.alphabet_sizes[e], 1.0)
    other = ends[0] if ends[1] == fid else ends[1]
    return msgs[(other, e)]


def beliefs_from_messages(nfg: Nfg, msgs, temperature: float = 1.0) -> PseudoMarginals:
    """Factor and edge beliefs induced by a message set.

    A zero row sum gives the uniform distribution on all of the factor's
    table rows, where ``sum_product`` takes its rows of non-zero weight:
    the two differ only where a weight underflows to 0 at a small T.
    """
    weights = _factor_weights(nfg, temperature)
    factor_dists = {}
    for fid, f in nfg.factors.items():
        rows, vals = weights[fid]
        ins = [_incoming(nfg, msgs, fid, e) for e in f.edges]
        scores = []
        for row, w in zip(rows, vals):
            total = w
            for m, s in zip(ins, row):
                total *= m[s]
            scores.append(total)
        total = sum(scores)
        if total <= 0:
            scores = [1.0] * len(rows)
            total = float(len(rows))
        factor_dists[fid] = {row: s / total for row, s in zip(rows, scores) if s > 0}
    edge_dists = {}
    for e in nfg.edge_order:
        ends = nfg.incidence[e]
        if len(ends) == 1:
            v = np.array(msgs[(ends[0], e)], dtype=float)
        else:
            v = np.array(msgs[(ends[0], e)], dtype=float) * np.array(
                msgs[(ends[1], e)], dtype=float
            )
        total = v.sum()
        if total <= 0:
            v = np.full_like(v, 1.0)
            total = v.sum()
        edge_dists[e] = {s: v[s] / total for s in range(len(v)) if v[s] > 0}
    return PseudoMarginals(factor_dists, edge_dists)


def reference_sum_product(
    nfg: Nfg,
    max_iters: int = 1000,
    damping: float = 0.0,
    tol: float = 1e-12,
    temperature: float = 1.0,
    init_rng=None,
    collect_trace: bool = False,
):
    """Slow oracle: the dict-of-messages, loop-per-row sum-product."""
    if not 0.0 <= damping < 1.0:
        raise ValueError("damping must be in [0, 1)")
    weights = _factor_weights(nfg, temperature)
    msgs = _initial_messages(nfg, init_rng)
    residual = float("inf")
    iterations = 0
    trace = [] if collect_trace else None
    index = _BetaIndex(nfg)
    _, energy = index.weighed(nfg)
    for iterations in range(1, max_iters + 1):
        incoming = {
            (fid, e): _incoming(nfg, msgs, fid, e)
            for fid, f in nfg.factors.items()
            for e in f.edges
        }
        new_msgs = {}
        residual = 0.0
        for fid, f in nfg.factors.items():
            rows, vals = weights[fid]
            ins = [incoming[(fid, e)] for e in f.edges]
            outs = [np.zeros(nfg.alphabet_sizes[e]) for e in f.edges]
            for row, w in zip(rows, vals):
                if w == 0.0:
                    continue
                prods = [m[s] for m, s in zip(ins, row)]
                total = w
                for p in prods:
                    total *= p
                for pos, s in enumerate(row):
                    p = prods[pos]
                    if p > 0.0:
                        outs[pos][s] += total / p
                    else:
                        rest = w
                        for q, other in enumerate(prods):
                            if q != pos:
                                rest *= other
                        outs[pos][s] += rest
            for pos, e in enumerate(f.edges):
                v = outs[pos]
                total = v.sum()
                if total > 0:
                    v = v / total
                else:
                    v = np.full_like(v, 1.0 / len(v))
                old = msgs[(fid, e)]
                residual = max(residual, float(np.max(np.abs(v - old))))
                if damping > 0.0:
                    v = (1.0 - damping) * v + damping * old
                new_msgs[(fid, e)] = v
        msgs = new_msgs
        if trace is not None:
            x = index.to_vector(beliefs_from_messages(nfg, msgs, temperature))
            trace.append((iterations, residual, index.free_energy(x, energy, temperature)))
        if residual <= tol:
            break
    state = SpaState(msgs, iterations, damping, residual, residual <= tol, trace)
    return state, beliefs_from_messages(nfg, msgs, temperature)


def assert_same_run(nfg, **kwargs):
    """sum_product and the oracle agree bit for bit; returns the fast state."""
    rng = kwargs.pop("init_seed", None)
    fast_rng = None if rng is None else np.random.default_rng(rng)
    slow_rng = None if rng is None else np.random.default_rng(rng)
    state, beliefs = sum_product(nfg, init_rng=fast_rng, **kwargs)
    want, want_beliefs = reference_sum_product(nfg, init_rng=slow_rng, **kwargs)
    assert state.iterations == want.iterations
    assert state.residual == want.residual
    assert state.converged == want.converged
    assert list(state.messages) == list(want.messages)
    for key, v in want.messages.items():
        assert np.array_equal(state.messages[key], v), key
    assert beliefs.factor_dists == want_beliefs.factor_dists
    assert beliefs.edge_dists == want_beliefs.edge_dists
    assert state.trace == want.trace
    return state


def example3_decoding_graph(channel, y):
    code = nfg_from_parity_check(ParityCheckMatrix(EXAMPLE3_ROWS))
    return attach_channel(code, channel, y).nfg


def example3_bsc_words(seed, per_p):
    rng = random.Random(seed)
    codewords = ParityCheckMatrix(EXAMPLE3_ROWS).codewords()
    for p in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5)):
        for _ in range(per_p):
            x = list(rng.choice(codewords))
            y = "".join(str(b ^ (rng.random() < p)) for b in x)
            yield p, y


def brute_marginals(nfg):
    z = 0.0
    edge_acc = {e: np.zeros(nfg.alphabet_sizes[e]) for e in nfg.edge_order}
    factor_acc = {f: {} for f in nfg.factors}
    for tup, value in valid_tuples(nfg):
        v = float(value)
        z += v
        for e in nfg.edge_order:
            edge_acc[e][tup[nfg.edge_index(e)]] += v
        for f in nfg.factors:
            key = nfg.local_assignment(f, tup)
            factor_acc[f][key] = factor_acc[f].get(key, 0.0) + v
    return (
        {e: a / z for e, a in edge_acc.items()},
        {f: {k: v / z for k, v in d.items()} for f, d in factor_acc.items()},
    )


def test_tree_beliefs_are_exact_marginals():
    rng = random.Random(3)
    for trial in range(10):
        tree = make_random_tree(rng, n_internal=3 + trial % 2)
        state, beliefs = sum_product(tree, max_iters=100, tol=0.0)
        edge_marg, factor_marg = brute_marginals(tree)
        for e, dist in edge_marg.items():
            for s, want in enumerate(dist):
                assert float(beliefs.edge_weight(e, s)) == pytest.approx(want, abs=1e-10)
        for f, d in factor_marg.items():
            for k, want in d.items():
                assert float(beliefs.factor_weight(f, k)) == pytest.approx(want, abs=1e-10)


def test_single_factor_beliefs_are_normalized_table():
    table = {(0, 0): 0.2, (0, 1): 0.4, (1, 0): 0.1, (1, 1): 0.3}
    n = Nfg({"a": 2, "b": 2}, ["a", "b"], [Factor("f", ("a", "b"), table)])
    state, beliefs = sum_product(n, max_iters=50)
    assert state.converged
    for k, v in table.items():
        assert float(beliefs.factor_weight("f", k)) == pytest.approx(v, abs=1e-12)


def test_tree_fixed_point_reached_quickly():
    rng = random.Random(9)
    tree = make_random_tree(rng, n_internal=4)
    state, _ = sum_product(tree, max_iters=100, tol=1e-14)
    assert state.converged
    assert state.iterations <= 20
    assert state.residual <= 1e-14


def _gap(nfg, state, beliefs):
    idx = _BetaIndex(nfg)
    return idx.gap(idx.to_vector(beliefs), state.messages, 1.0)


def test_tree_fixed_points_are_certified():
    rng = random.Random(8)
    for trial in range(5):
        tree = make_random_tree(rng, n_internal=3 + trial % 3)
        state, beliefs = sum_product(tree, max_iters=200, tol=1e-14)
        assert state.converged
        assert _gap(tree, state, beliefs) <= GAP_TOL


def test_loopy_fixed_points_are_stationary():
    rng = random.Random(1)
    hit = 0
    for trial in range(5):
        nfg = make_loopy_positive(rng)
        state, beliefs = sum_product(nfg, max_iters=5000, tol=1e-12)
        if not state.converged:
            continue
        hit += 1
        assert _gap(nfg, state, beliefs) <= GAP_TOL
    assert hit >= 3  # the mild-coupling instances should converge


def test_damping_changes_trajectory_not_fixed_point():
    rng = random.Random(12)
    nfg = make_loopy_positive(rng)
    s0, b0 = sum_product(nfg, max_iters=5000, tol=1e-12, damping=0.0)
    s1, b1 = sum_product(nfg, max_iters=5000, tol=1e-12, damping=0.4)
    assert s0.converged and s1.converged
    f0 = bethe_terms(nfg, b0, tol=1e-6).f_bethe
    f1 = bethe_terms(nfg, b1, tol=1e-6).f_bethe
    assert f0 == pytest.approx(f1, abs=1e-8)


def test_tree_free_energy_is_minus_log_z():
    rng = random.Random(21)
    tree = make_random_tree(rng)
    _, beliefs = sum_product(tree, max_iters=100, tol=0.0)
    ev = bethe_terms(tree, beliefs, tol=1e-8)
    assert ev.f_bethe == pytest.approx(-math.log(float(gibbs_partition(tree))), abs=1e-10)


def test_temperature_scales_tables():
    rng = random.Random(30)
    tree = make_random_tree(rng)
    t = 2.0
    powered = Nfg(
        tree.alphabet_sizes,
        tree.half_edges,
        [
            Factor(fid, f.edges, {k: float(v) ** (1 / t) for k, v in f.table.items()})
            for fid, f in tree.factors.items()
        ],
    )
    _, beliefs_t = sum_product(tree, max_iters=200, tol=0.0, temperature=t)
    _, beliefs_1 = sum_product(powered, max_iters=200, tol=0.0, temperature=1.0)
    for e in tree.edge_order:
        for s in range(2):
            assert float(beliefs_t.edge_weight(e, s)) == pytest.approx(
                float(beliefs_1.edge_weight(e, s)), abs=1e-12
            )


BATTERY_OPTIONS = [
    {"damping": 0.0},
    {"damping": 0.5},
    {"damping": 0.5, "temperature": 0.7},
    {"damping": 0.0, "init_seed": 5},
    {"damping": 0.5, "collect_trace": True},
]


@pytest.mark.parametrize("options", BATTERY_OPTIONS)
def test_flat_sweep_matches_loop_oracle_on_trees_and_loops(options):
    rng = random.Random(41)
    graphs = [make_random_tree(rng, n_internal=3 + i % 3) for i in range(3)]
    graphs += [make_loopy_positive(rng) for _ in range(3)]
    for nfg in graphs:
        assert_same_run(nfg, max_iters=200, tol=1e-13, **options)


@pytest.mark.parametrize("options", BATTERY_OPTIONS)
def test_flat_sweep_matches_loop_oracle_on_decoding_graphs(options):
    for p, y in example3_bsc_words(seed=7, per_p=2):
        nfg = example3_decoding_graph(Channel.bsc(p), y)
        assert_same_run(nfg, max_iters=40, **options)


def half_edge_zero_graph():
    # a loop f - g - k where f never takes h = 1: from the first sweep on,
    # f's message out on the half-edge h holds a 0, which no row gathers
    # (a half-edge brings the constant 1.0), while every gathered message
    # stays positive
    rng = random.Random(29)
    sizes = {"a": 2, "b": 2, "c": 3, "h": 2}

    def table(edges):
        return {k: rng.uniform(0.1, 2.0) for k in np.ndindex(*(sizes[e] for e in edges))}

    f = {(x, y, 0): w for (x, y), w in table(("a", "b")).items()}
    return Nfg(sizes, ["h"], [Factor("f", ("a", "b", "h"), f), Factor("g", ("b", "c"), table(("b", "c"))),
                              Factor("k", ("c", "a"), table(("c", "a")))])


@pytest.mark.parametrize("options", BATTERY_OPTIONS)
def test_zero_message_out_on_a_half_edge_matches_loop_oracle(options):
    state = assert_same_run(half_edge_zero_graph(), max_iters=200, tol=1e-13, **options)
    if options["damping"] == 0.0:
        assert state.messages[("f", "h")].tolist()[1] == 0.0
    assert all(np.all(v > 0.0) for key, v in state.messages.items() if key != ("f", "h"))


def test_zero_messages_take_the_leave_one_out_product():
    half = Fraction(1, 2)
    erasure = Channel(2, {("0", 0): half, ("e", 0): half, ("1", 1): half, ("e", 1): half})
    nfg = example3_decoding_graph(erasure, "0e0e000000")
    state = assert_same_run(nfg, max_iters=30, tol=0.0)
    assert any(np.any(v == 0.0) for v in state.messages.values())


@pytest.mark.parametrize("size", [9, 17])
def test_wide_alphabet_normalisation_matches_ndarray_sum(size):
    # from 8 entries on ndarray.sum adds pairwise, not left to right
    rng = random.Random(size)
    sizes = {"big": size, "x": 2, "h": 3}

    def table(edges):
        keys = np.ndindex(*(sizes[e] for e in edges))
        return {k: rng.choice([0.0, rng.uniform(0.1, 2.0)]) for k in keys}

    nfg = Nfg(
        sizes,
        ["h"],
        [Factor("a", ("big", "x", "h"), table(("big", "x", "h"))), Factor("b", ("big", "x"), table(("big", "x")))],
    )
    assert_same_run(nfg, max_iters=50, damping=0.3, init_seed=2)


@pytest.mark.parametrize("temperature", [0, -1, 0.0])
def test_non_positive_temperature_is_rejected(temperature):
    rng = random.Random(4)
    with pytest.raises(ValueError, match="temperature must be positive"):
        sum_product(make_random_tree(rng), temperature=temperature)


@pytest.mark.parametrize("temperature", [math.inf, math.nan])
def test_non_finite_temperature_is_rejected(temperature):
    rng = random.Random(4)
    with pytest.raises(ValueError, match="temperature must be positive and finite"):
        sum_product(make_random_tree(rng), temperature=temperature)


def underflow_graph():
    # a loop of three pairwise factors and a unary one on a half-edge; the
    # rows of 1e-200 and 1e-250 underflow to 0.0 at T <= 0.1, so the layout
    # drops them, while every factor keeps two rows of weight 1 or 0.5
    rows = {(0, 0): 1.0, (0, 1): 1e-200, (1, 0): 1e-250, (1, 1): 0.5}
    return Nfg(
        {"a": 2, "b": 2, "c": 2, "h": 2},
        ["h"],
        [
            Factor("f", ("a", "b"), rows),
            Factor("g", ("b", "c"), rows),
            Factor("k", ("c", "a", "h"), {(0, 0, 0): 1.0, (1, 1, 1): 1e-200, (0, 1, 1): 0.5}),
        ],
    )


@pytest.mark.parametrize("temperature", [0.1, 0.05])
def test_underflowing_rows_are_dropped_like_the_oracle(temperature):
    assert 1e-200 ** (1 / temperature) == 0.0
    state = assert_same_run(
        underflow_graph(), max_iters=60, damping=0.5, temperature=temperature, collect_trace=True
    )
    assert len(state.trace) == state.iterations


def contradictory_graph():
    # f allows a = 0 only, g allows a = 1 only: messages reach exactly 0 and
    # whole outgoing blocks sum to 0
    return Nfg(
        {"a": 2, "b": 2, "h": 2},
        ["h"],
        [
            Factor("f", ("a", "b"), {(0, 0): 1, (0, 1): 1}),
            Factor("g", ("a", "b", "h"), {(1, 0, 0): 1, (1, 1, 1): 2}),
        ],
    )


@pytest.mark.parametrize("options", [{"damping": 0.0}, {"damping": 0.5}, {"damping": 0.5, "collect_trace": True}])
def test_contradictory_constraints_take_the_uniform_fallback(options):
    state = assert_same_run(contradictory_graph(), max_iters=20, tol=0.0, **options)
    if options["damping"] == 0.0:
        # a = 0 meets a = 1: zero entries on a, zero block sums toward b
        assert state.messages[("f", "a")].tolist() == [1.0, 0.0]
        assert state.messages[("g", "a")].tolist() == [0.0, 1.0]
        assert state.messages[("f", "b")].tolist() == [0.5, 0.5]
        assert state.messages[("g", "b")].tolist() == [0.5, 0.5]


@pytest.mark.parametrize("options", [{"damping": 0.0}, {"damping": 0.0, "init_seed": 5, "collect_trace": True}])
def test_binary_blocks_sum_by_one_column_add_like_the_oracle(options, monkeypatch):
    """Every message block of a binary graph is summed as one column add;
    the run stays bit-equal to the oracle, on decoding graphs and on a
    graph whose blocks toward b sum to 0 (the uniform fallback, ``_over``)."""
    import gcb.spa

    over, fallbacks = gcb.spa._over, []
    monkeypatch.setattr(gcb.spa, "_over", lambda *args: fallbacks.append(args[1].shape) or over(*args))
    graphs = [example3_decoding_graph(Channel.bsc(p), y) for p, y in example3_bsc_words(seed=11, per_p=1)]
    for nfg in graphs + [contradictory_graph()]:
        index, weights, _ = _BetaIndex.weighed_on(nfg)
        assert [size for _, _, size in layout(index, weights).groups] == [2]
        assert_same_run(nfg, max_iters=30, tol=0.0, **options)
    assert (5, 1) in fallbacks  # the sweep's sums of the contradictory graph's five blocks


def test_mixed_arities_and_half_edge_match_oracle_with_trace():
    # arities 1, 2 and 3: the transposed layout pads the short rows
    nfg = make_mixed_arity()
    for options in ({"damping": 0.0}, {"damping": 0.4, "init_seed": 3}, {"temperature": 0.6}):
        state = assert_same_run(nfg, max_iters=60, collect_trace=True, **options)
        assert len(state.trace) == state.iterations


@pytest.mark.parametrize("collect_trace", [False, True])
def test_seeded_starts_on_interleaved_block_sizes_match_oracle(collect_trace):
    """The layout groups the message blocks by size, so a seeded start's
    draws, taken in block order, land permuted; the run still matches the
    oracle bit for bit."""
    nfg = make_interleaved()
    index, weights, _ = _BetaIndex.weighed_on(nfg)
    starts = [lo for _, lo, _ in layout(index, weights).blocks]
    assert starts != sorted(starts)
    for seed in (1, 2, 3):
        assert_same_run(nfg, max_iters=80, damping=0.3, init_seed=seed, collect_trace=collect_trace)


@pytest.mark.parametrize("make", [make_interleaved, make_mixed_arity])
def test_partner_pairs_the_two_ends_of_each_edge_symbol(make):
    """``_BetaIndex.partner`` is an involution that fixes exactly the sum
    and half-edge rows and pairs the rows of one edge symbol at its two
    ends (``nfg.incidence``); ``edge_row`` is each edge symbol's row at its
    first endpoint, and each layout block starts at its marginal row."""
    nfg = make()
    index, weights, _ = _BetaIndex.weighed_on(nfg)
    partner, n_sums = index.partner, index.n_sums
    assert np.array_equal(partner[partner], np.arange(len(partner)))
    key_of = {}  # marginal row -> (factor, edge, symbol)
    for (f, e), row in index.marginal_row.items():
        key_of.update({row + s: (f, e, s) for s in range(nfg.alphabet_sizes[e])})
    assert sorted(key_of) == list(range(n_sums, len(partner)))
    fixed = np.flatnonzero(partner == np.arange(len(partner))).tolist()
    assert fixed == list(range(n_sums)) + [r for r, (_, e, _) in sorted(key_of.items()) if e in nfg.half_edges]
    for row, (f, e, s) in key_of.items():
        g, e2, s2 = key_of[partner[row]]
        assert (e2, s2) == (e, s) and {f, g} == set(nfg.incidence[e])
    assert [key_of[row] for row in index.edge_row.tolist()] == [
        (nfg.incidence[e][0], e, s) for e, s in index.edge_slots
    ]
    for (f, e), lo, hi in layout(index, weights).blocks:
        assert (lo, hi) == (index.marginal_row[f, e] - n_sums, index.marginal_row[f, e] - n_sums + nfg.alphabet_sizes[e])


@pytest.mark.parametrize(
    "options, message",
    [({"max_iters": -3}, "max_iters"), ({"tol": -1.0}, "tol"), ({"tol": float("nan")}, "tol")],
)
def test_negative_budget_is_rejected(options, message):
    rng = random.Random(4)
    with pytest.raises(ValueError, match=f"{message} must be non-negative"):
        sum_product(make_random_tree(rng), **options)


def test_zero_sweeps_return_the_start():
    rng = random.Random(4)
    state = assert_same_run(make_random_tree(rng), max_iters=0)
    assert state.iterations == 0 and not state.converged
