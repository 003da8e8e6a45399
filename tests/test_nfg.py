import math

import pytest
from fractions import Fraction

from gcb.errors import GcbError, ParseError
from gcb.nfg import (
    Factor,
    Nfg,
    emit_nfg_text,
    parity_table,
    parse_nfg_text,
    parse_number,
    repetition_table,
)

from conftest import make_dumbbell


def test_structure_counts(fig1):
    assert len(fig1.factors) == 5
    assert len(fig1.half_edges) == 2
    assert len(fig1.full_edges) == 6


def test_full_edge_must_touch_two_factors():
    with pytest.raises(GcbError, match="full edge"):
        Nfg({"a": 2, "b": 2}, [], [Factor("f", ("a", "b"), parity_table(2))])


def test_half_edge_must_touch_one_factor():
    factors = [
        Factor("f", ("a", "b"), parity_table(2)),
        Factor("g", ("a", "b"), parity_table(2)),
        Factor("k", ("a",), {(0,): 1, (1,): 1}),
    ]
    with pytest.raises(GcbError):
        Nfg({"a": 2, "b": 2}, ["a"], factors)


def test_negative_table_rejected():
    with pytest.raises(GcbError, match="negative"):
        Factor("f", ("a",), {(0,): -1})


def test_infinite_value_rejected():
    with pytest.raises(GcbError, match="infinite"):
        Factor("f", ("a",), {(0,): math.inf})


def test_zero_rows_dropped_from_support():
    f = Factor("f", ("a", "b"), {(0, 0): 2, (0, 1): 0, (1, 1): Fraction(1, 3)})
    assert f.support == [(0, 0), (1, 1)]


def test_table_keys_must_fit_alphabet():
    with pytest.raises(GcbError, match="outside alphabet"):
        Nfg({"a": 2}, ["a"], [Factor("f", ("a",), {(2,): 1})])


def test_parse_number():
    assert parse_number("3/4") == Fraction(3, 4)
    assert parse_number("2") == Fraction(2)
    assert isinstance(parse_number("0.25"), float)


@pytest.mark.parametrize("token", ["1e400", "-1e400", "1.5e309"])
def test_parse_number_refuses_decimals_past_the_float_range(token):
    with pytest.raises(ValueError, match="outside the float range"):
        parse_number(token)


def test_roundtrip_fig1(fig1):
    text = emit_nfg_text(fig1)
    back = parse_nfg_text(text)
    assert back.alphabet_sizes == fig1.alphabet_sizes
    assert back.half_edges == fig1.half_edges
    assert set(back.factors) == set(fig1.factors)
    for fid in fig1.factors:
        assert back.factors[fid].edges == fig1.factors[fid].edges
        assert back.factors[fid].table == fig1.factors[fid].table


def test_roundtrip_general_tables():
    table = {(0, 0): Fraction(1, 3), (1, 0): 0.125, (1, 1): Fraction(7, 2)}
    n = Nfg(
        {"a": 2, "b": 2},
        ["a", "b"],
        [Factor("f", ("a", "b"), table)],
    )
    back = parse_nfg_text(emit_nfg_text(n))
    assert back.factors["f"].table == n.factors["f"].table


def test_parse_rejects_empty():
    with pytest.raises(ParseError):
        parse_nfg_text("")


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_nfg_text("alphabet a 2\nbogus keyword\n")


def test_parse_shorthands():
    text = """
alphabet a 2
alphabet b 2
halfedge a
halfedge b
factor f a b
repetition
"""
    n = parse_nfg_text(text)
    assert n.factors["f"].table == repetition_table(2)


def test_circuit_rank_dumbbell():
    d = make_dumbbell()
    assert d.n_components() == 1
    assert d.circuit_rank() == 2


def test_config_tuple_roundtrip(fig1):
    config = {f"e{i}": (i % 2) for i in range(1, 9)}
    tup = fig1.config_tuple(config)
    assert fig1.config_dict(tup) == config


def test_reweighed_swaps_tables_on_the_same_structure(fig1):
    """A reweighed graph has the new tables, its own ``derived`` and the
    same ``shared`` as the graph it came from, which keeps its own tables."""
    table = {key: Fraction(i + 2) for i, key in enumerate(sorted(fig1.factors["f5"].table))}
    new = fig1.reweighed([Factor("f5", ("e7", "e8"), table)])
    assert new.factors["f5"].table == table and fig1.factors["f5"].table == parity_table(2)
    assert list(new.factors) == list(fig1.factors) and new.factors["f1"] is fig1.factors["f1"]
    assert fig1.derived("key", lambda g: g) is fig1 and new.derived("key", lambda g: g) is new
    kept = fig1.shared("key", lambda g: object())
    assert new.shared("key", None) is kept
    assert new.reweighed([]).shared("key", None) is kept


@pytest.mark.parametrize(
    "factor",
    [
        Factor("f5", ("e8", "e7"), parity_table(2)),  # other edge order
        Factor("f5", ("e7", "e8"), {(0, 0): 1, (1, 1): 1, (0, 1): 1}),  # larger support
        Factor("f5", ("e7", "e8"), {(0, 0): 1}),  # smaller support
        Factor("f6", ("e7", "e8"), parity_table(2)),  # unknown id
    ],
)
def test_reweighed_refuses_another_structure(fig1, factor):
    with pytest.raises(GcbError, match="f5|f6"):
        fig1.reweighed([factor])


def test_reweighed_gets_its_values_checked_by_factor(fig1):
    """A negative value never reaches ``reweighed``: Factor refuses it."""
    with pytest.raises(GcbError, match="negative"):
        fig1.reweighed([Factor("f5", ("e7", "e8"), {(0, 0): 1, (1, 1): -1})])
