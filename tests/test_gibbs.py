import math
import random
from fractions import Fraction

import pytest

from gcb.errors import CapExceeded, EmptyCode, OutOfAlphabet, SupportOnZeroMass, UnknownEdge
from gcb.gibbs import (
    enumerate_configurations,
    gibbs_energy_terms,
    gibbs_free_energy,
    gibbs_minimizer,
    gibbs_partition,
    global_function,
    modified_gibbs_partition,
    valid_tuples,
)
from gcb.nfg import Factor, Nfg

from conftest import FIG1_CONFIGS, make_dumbbell, make_fig1


def edge_dict(tup):
    return {f"e{i}": s for i, s in zip(range(1, 9), tup)}


def test_fig1_enumeration_matches_listing(fig1):
    got = {tuple(c[f"e{i}"] for i in range(1, 9)) for c, _ in enumerate_configurations(fig1)}
    assert got == set(FIG1_CONFIGS)
    assert all(v == 1 for _, v in enumerate_configurations(fig1))


def test_fig1_half_edge_projection(fig1):
    proj = {(c["e1"], c["e4"]) for c, _ in enumerate_configurations(fig1)}
    assert proj == {(0, 0), (1, 1)}


def test_single_unconstrained_edge():
    n = Nfg({"a": 2}, ["a"], [Factor("f", ("a",), {(0,): 1, (1,): 1})])
    configs = enumerate_configurations(n)
    assert [(c["a"], v) for c, v in configs] == [(0, Fraction(1)), (1, Fraction(1))]


def test_enumeration_cap():
    n = Nfg({"a": 4}, ["a"], [Factor("f", ("a",), {(s,): 1 for s in range(4)})])
    with pytest.raises(CapExceeded):
        enumerate_configurations(n, cap=3)


def test_global_function_values(fig1):
    assert global_function(fig1, edge_dict((1, 0, 0, 1, 1, 0, 1, 1))) == 1
    assert global_function(fig1, edge_dict((1, 0, 0, 0, 0, 0, 0, 0))) == 0


def test_global_function_table_product():
    t1 = {(0,): Fraction(2)}
    t2 = {(0, 0): Fraction(3, 7), (0, 1): Fraction(5)}
    n = Nfg(
        {"a": 2, "b": 2},
        ["b"],
        [Factor("f1", ("a",), t1), Factor("f2", ("a", "b"), t2)],
    )
    assert global_function(n, {"a": 0, "b": 1}) == Fraction(2) * Fraction(5)
    assert global_function(n, {"a": 0, "b": 0}) == Fraction(6, 7)
    assert global_function(n, {"a": 1, "b": 0}) == 0


def test_global_function_malformed_inputs(fig1):
    with pytest.raises(UnknownEdge):
        global_function(fig1, {"e1": 0})
    with pytest.raises(OutOfAlphabet):
        global_function(fig1, edge_dict((2, 0, 0, 0, 0, 0, 0, 0)))


def test_gibbs_partition_values(fig1):
    assert gibbs_partition(fig1, 1) == 8
    assert gibbs_partition(make_dumbbell(), 1) == 4


def test_gibbs_partition_empty_code():
    n = Nfg({"a": 2}, ["a"], [Factor("f", ("a",), {(0,): 1, (1,): 1})])
    # force an empty behavior with a contradictory pair of unary factors
    m = Nfg(
        {"a": 2},
        [],
        [Factor("f", ("a",), {(0,): 1}), Factor("g", ("a",), {(1,): 1})],
    )
    assert gibbs_partition(m, 1) == 0
    assert gibbs_partition(n, 1) == 2


def test_modified_partition(fig1):
    assert modified_gibbs_partition(fig1, {"e1": 0, "e4": 0}) == 4
    assert modified_gibbs_partition(fig1, {"e1": 0, "e4": 1}) == 0


@pytest.mark.parametrize("symbol", [7, -1])
def test_modified_partition_refuses_symbols_outside_the_alphabet(fig1, symbol):
    with pytest.raises(OutOfAlphabet, match="outside alphabet"):
        modified_gibbs_partition(fig1, {"e1": symbol, "e4": symbol})


def test_modified_partition_no_half_edges_equals_partition():
    d = make_dumbbell()
    assert modified_gibbs_partition(d, {}) == gibbs_partition(d)


def test_energy_terms_uniform(fig1):
    p = {t: 1.0 / 8 for t in (fig1.config_tuple(edge_dict(c)) for c in FIG1_CONFIGS)}
    u, h = gibbs_energy_terms(fig1, p)
    assert u == 0
    assert h == pytest.approx(math.log(8), abs=1e-12)


def test_energy_terms_point_mass(fig1):
    t = fig1.config_tuple(edge_dict(FIG1_CONFIGS[0]))
    u, h = gibbs_energy_terms(fig1, {t: 1.0})
    assert h == 0


def test_energy_terms_rejects_zero_mass_support(fig1):
    t = fig1.config_tuple(edge_dict((1, 0, 0, 0, 0, 0, 0, 0)))
    with pytest.raises(SupportOnZeroMass):
        gibbs_energy_terms(fig1, {t: 1.0})


def test_minimizer_uniform_on_fig1(fig1):
    p = gibbs_minimizer(fig1, 1)
    assert len(p) == 8
    for v in p.values():
        assert v == Fraction(1, 8)


def test_minimizer_two_weights():
    e = math.e
    n = Nfg(
        {"a": 2},
        ["a"],
        [Factor("f", ("a",), {(0,): 1.0, (1,): e})],
    )
    p = gibbs_minimizer(n, 1)
    assert p[(0,)] == pytest.approx(1 / (1 + e))
    assert p[(1,)] == pytest.approx(e / (1 + e))


def test_minimizer_point_mass():
    n = Nfg({"a": 2}, [], [Factor("f", ("a",), {(0,): 1}), Factor("g", ("a",), {(0,): 1})])
    p = gibbs_minimizer(n, 1)
    assert p == {(0,): Fraction(1)}


def test_minimizer_of_a_graph_with_no_valid_configuration_raises():
    n = Nfg({"a": 2}, [], [Factor("f", ("a",), {(0,): 1}), Factor("g", ("a",), {(1,): 1})])
    with pytest.raises(EmptyCode, match="no valid configurations"):
        gibbs_minimizer(n, 1)


def test_helmholtz_identity(fig1):
    p = gibbs_minimizer(fig1, 1)
    f = gibbs_free_energy(fig1, p, 1)
    assert f == pytest.approx(-math.log(8), abs=1e-12)


def _random_simplex(rng, keys):
    w = [rng.random() for _ in keys]
    total = sum(w)
    return {k: x / total for k, x in zip(keys, w)}


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_boltzmann_minimizes_free_energy(temperature):
    rng = random.Random(7)
    fig1 = make_fig1()
    keys = [t for t, _ in valid_tuples(fig1)]
    p_star = gibbs_minimizer(fig1, temperature)
    f_star = gibbs_free_energy(fig1, p_star, temperature)
    for _ in range(100):
        p = _random_simplex(rng, keys)
        assert gibbs_free_energy(fig1, p, temperature) >= f_star - 1e-12


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_free_energy_relative_entropy_identity(temperature):
    rng = random.Random(11)
    fig1 = make_fig1()
    keys = [t for t, _ in valid_tuples(fig1)]
    p_star = {k: float(v) for k, v in gibbs_minimizer(fig1, temperature).items()}
    z = float(gibbs_partition(fig1, temperature))
    for _ in range(20):
        p = _random_simplex(rng, keys)
        lhs = gibbs_free_energy(fig1, p, temperature)
        kl = sum(v * math.log(v / p_star[k]) for k, v in p.items() if v > 0)
        rhs = temperature * kl - temperature * math.log(z)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_zero_one_partition_counts_behavior(fig1):
    # 0/1 tables at T=1: the partition sum is exactly the number of valid configs
    assert gibbs_partition(fig1, 1) == len(valid_tuples(fig1))


@pytest.mark.parametrize("temperature", [0, -1, math.inf, math.nan])
def test_temperature_outside_open_half_line_is_rejected(fig1, temperature):
    # 1 ** nan == 1, so a NaN T would otherwise read as T = 1
    half = {e: 0 for e in fig1.half_edges}
    calls = [
        lambda: gibbs_partition(fig1, temperature),
        lambda: modified_gibbs_partition(fig1, half, temperature),
        lambda: gibbs_minimizer(fig1, temperature),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            call()
