"""Exact Gibbs-side quantities: enumeration, partition sums, free energy.

Enumeration runs the plan walk (``_kernels.pyref.Walk``), a depth-first
walk over factor supports: only assignments every factor accepts are
visited, so its cost scales with the number of valid configurations rather
than the raw product space.  Counting sums stay exact: with rational tables
and T = 1 the partition sum is a Fraction.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Mapping

from ._kernels import build_plan
from ._kernels.pyref import Walk
from .errors import EmptyCode, SupportOnZeroMass, UnknownEdge
from .nfg import Nfg

DEFAULT_CONFIG_CAP = 1 << 26


def config_cap(override=None) -> int:
    if override is not None:
        return int(override)
    return int(os.environ.get("GCB_CONFIG_CAP", DEFAULT_CONFIG_CAP))


def enumerate_configurations(nfg: Nfg, cap=None):
    """All valid configurations with their global values, edge-id-sorted.

    Returns a list of (configuration dict, value) in lexicographic order of
    the canonical symbol tuples; the cap bounds the valid configurations,
    as in ``valid_tuples``.
    """
    return [(nfg.config_dict(t), v) for t, v in valid_tuples(nfg, cap=cap)]


def valid_tuples(nfg: Nfg, cap=None):
    """Sorted canonical tuples of the valid configurations, with values.

    The walk only visits supported assignments, so the cap bounds the number
    of valid configurations found rather than the raw product space.
    """
    walk = Walk(build_plan(nfg))
    configs = walk.configs(limit=config_cap(cap))
    return sorted((tuple(slots), value * walk.unit) for value, slots, _ in configs)


def global_function(nfg: Nfg, config: Mapping[str, int]):
    """Product of local values at a full edge assignment; exact on rationals."""
    t = nfg.config_tuple(config)
    prod = Fraction(1)
    for fid in nfg.factors:
        v = nfg.factors[fid].value(nfg.local_assignment(fid, t))
        if v == 0:
            return Fraction(0)
        prod *= v
    return prod


def _powered(value, t_inv):
    if t_inv == 1:
        return value
    return float(value) ** t_inv


def gibbs_partition(nfg: Nfg, temperature=1, cap=None):
    """Sum of global value ** (1/T) over all configurations.

    Exact (Fraction) at T = 1 with rational tables; float otherwise.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    t_inv = 1 if temperature == 1 else 1.0 / float(temperature)
    total = Fraction(0) if t_inv == 1 else 0.0
    for _, value in valid_tuples(nfg, cap=cap):
        total += _powered(value, t_inv)
    return total


def modified_gibbs_partition(nfg: Nfg, half_assignment: Mapping[str, int], temperature=1, cap=None):
    """Partition sum restricted to configurations agreeing on the half-edges."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    for e in half_assignment:
        if e not in nfg.half_edges:
            raise UnknownEdge(f"{e} is not a half-edge")
    want = {nfg.edge_index(e): s for e, s in half_assignment.items()}
    if set(half_assignment) != set(nfg.half_edges):
        missing = set(nfg.half_edges) - set(half_assignment)
        raise UnknownEdge(f"half-edges not assigned: {sorted(missing)}")
    t_inv = 1 if temperature == 1 else 1.0 / float(temperature)
    total = Fraction(0) if t_inv == 1 else 0.0
    for tup, value in valid_tuples(nfg, cap=cap):
        if all(tup[i] == s for i, s in want.items()):
            total += _powered(value, t_inv)
    return total


def gibbs_minimizer(nfg: Nfg, temperature=1, cap=None) -> dict:
    """The Boltzmann distribution g(c)^{1/T} / Z over valid configurations."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    t_inv = 1 if temperature == 1 else 1.0 / float(temperature)
    weights = {}
    for tup, value in valid_tuples(nfg, cap=cap):
        weights[tup] = _powered(value, t_inv)
    z = sum(weights.values())
    if z == 0:
        raise EmptyCode("no valid configurations")
    return {tup: w / z for tup, w in weights.items()}


def gibbs_energy_terms(nfg: Nfg, p: Mapping[tuple, object]):
    """(average energy, entropy) of a distribution over valid configurations.

    Uses the 0 * log 0 = 0 convention.  Raises if p puts weight where the
    global function vanishes.
    """
    total = float(sum(p.values()))
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"distribution sums to {total}, not 1")
    u = 0.0
    h = 0.0
    for tup, prob in p.items():
        prob = float(prob)
        if prob == 0.0:
            continue
        if prob < 0:
            raise ValueError("negative probability")
        g = global_function(nfg, nfg.config_dict(tup))
        if g == 0:
            raise SupportOnZeroMass(f"p > 0 on configuration with zero value: {tup}")
        u -= prob * math.log(g)
        h -= prob * math.log(prob)
    return u, h


def gibbs_free_energy(nfg: Nfg, p, temperature=1):
    u, h = gibbs_energy_terms(nfg, p)
    return u - float(temperature) * h
