"""Empirical types of configuration sequences and their counting identities."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .covers import _compositions, _log_multinomial, _multinomial
from .errors import InvalidMember
from .gibbs import gibbs_energy_terms, gibbs_partition, global_function, valid_tuples
from .nfg import Nfg


class TypeVector:
    """Empirical distribution of a length-M sequence of valid configurations.

    Frequencies are exact rationals with denominator M, keyed by canonical
    configuration tuples.
    """

    __slots__ = ("freqs", "m")

    def __init__(self, freqs: dict, m: int):
        self.freqs = dict(freqs)
        self.m = int(m)
        total = sum(self.freqs.values(), Fraction(0))
        if total != 1:
            raise ValueError("type frequencies must sum to exactly 1")
        for v in self.freqs.values():
            if (v * m).denominator != 1:
                raise ValueError("frequencies must be multiples of 1/M")

    def counts(self) -> dict:
        return {c: int(v * self.m) for c, v in self.freqs.items()}


def type_of_sequence(nfg: Nfg, seq: Sequence) -> TypeVector:
    """Exact empirical type of a sequence of valid configurations."""
    if not seq:
        raise InvalidMember("empty sequence has no type")
    m = len(seq)
    counts: dict[tuple, int] = {}
    for config in seq:
        tup = nfg.config_tuple(config) if not isinstance(config, tuple) else config
        if global_function(nfg, nfg.config_dict(tup)) == 0:
            raise InvalidMember(f"not a valid configuration: {tup}")
        counts[tup] = counts.get(tup, 0) + 1
    return TypeVector({c: Fraction(n, m) for c, n in counts.items()}, m)


def mean_vector(q: TypeVector) -> tuple:
    """Componentwise average of the configurations, weighted by the type."""
    items = list(q.freqs.items())
    n = len(items[0][0])
    out = [Fraction(0)] * n
    for tup, freq in items:
        for i, s in enumerate(tup):
            out[i] += freq * s
    return tuple(out)


def type_class_size(q: TypeVector) -> int:
    """Exact multinomial M! / prod (M q_c)!."""
    return _multinomial(q.m, q.counts().values())


def type_class_growth_rate(q: TypeVector) -> float:
    """(1/M) log of the type class size, via log-gamma."""
    return _log_multinomial(q.m, q.counts().values()) / q.m


def all_types(nfg: Nfg, m: int, cap=None):
    """Every type vector of denominator m over the valid configurations."""
    configs = [t for t, _ in valid_tuples(nfg, cap=cap)]
    out = []
    for comp in _compositions(m, len(configs)):
        freqs = {c: Fraction(n, m) for c, n in zip(configs, comp) if n}
        out.append(TypeVector(freqs, m))
    return out


def sequence_probability_weight(nfg: Nfg, q: TypeVector, temperature=1):
    """s_M(q): the probability that M Boltzmann draws have type q.

    Exact at T = 1 with rational tables: Z^{-M} * prod g(c)^{M q_c} * C_M(q).
    """
    z = gibbs_partition(nfg, temperature)
    if temperature == 1 and isinstance(z, Fraction):
        prod = Fraction(1)
        for tup, count in q.counts().items():
            g = global_function(nfg, nfg.config_dict(tup))
            prod *= Fraction(g) ** count
        return prod * type_class_size(q) / z**q.m
    u, _ = gibbs_energy_terms(nfg, dict(q.freqs))
    log_s = -q.m * math.log(float(z)) - q.m * u + math.log(type_class_size(q))
    return math.exp(log_s)
