"""Exact Gibbs-side quantities: enumeration, partition sums, free energy.

Enumeration runs the plan walk (``_kernels.Walk``), a depth-first walk
over factor supports: only assignments every factor accepts are visited,
so its cost scales with the number of valid configurations rather than the
raw product space.  The partition sum is ``_kernels.cover_sweep`` of the
walk at M = 1: a Fraction with rational tables and T = 1.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Mapping

from ._kernels import Walk, build_plan, cover_sweep
from .errors import EmptyCode, SupportOnZeroMass, UnknownEdge
from .nfg import Nfg

DEFAULT_CONFIG_CAP = 1 << 26


def resolve_cap(override, env: str, default: int) -> int:
    """A size cap: ``override``, else the environment variable ``env``, else
    ``default``.  A negative cap raises ValueError: a walk's budget would
    never run out, so the cap would bound nothing."""
    cap = int(os.environ.get(env, default) if override is None else override)
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    return cap


def config_cap(override=None) -> int:
    return resolve_cap(override, "GCB_CONFIG_CAP", DEFAULT_CONFIG_CAP)


def inverse_temperature(temperature):
    """1/T: the int 1 at T = 1, so exact sums stay exact, else a float.
    Raises ValueError unless 0 < T < inf (a NaN T fails too)."""
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    return 1 if temperature == 1 else 1.0 / float(temperature)


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
    return next(cover_partitions(nfg, 1, [None], temperature, cap))


def cover_partitions(nfg: Nfg, m: int, perm_invs, temperature=1, cap=None):
    """``gibbs_partition`` of each M-cover of nfg in ``perm_invs``
    (``covers.cover_perm_inv``), in order, each summed by its own
    ``cover_sweep`` over one degree-m walk of nfg; no cover graph is built.
    A cover's Z is the product of its parts' sums (``Walk.parts``), and
    parts equal up to relabelling copies are walked once per cover, not
    once across covers.  ``cap`` bounds each cover's valid configurations,
    the product of its parts' counts."""
    t_inv = inverse_temperature(temperature)
    walk = Walk(build_plan(nfg), m, exact=t_inv == 1)
    limit = config_cap(cap)
    for perm_inv in perm_invs:
        yield cover_sweep(walk, [perm_inv], t_inv, limit)[0]


def modified_gibbs_partition(nfg: Nfg, half_assignment: Mapping[str, int], temperature=1, cap=None):
    """Partition sum restricted to configurations agreeing on the half-edges."""
    t_inv = inverse_temperature(temperature)
    for e in half_assignment:
        if e not in nfg.half_edges:
            raise UnknownEdge(f"{e} is not a half-edge")
    want = {nfg.edge_index(e): s for e, s in half_assignment.items()}
    if set(half_assignment) != set(nfg.half_edges):
        missing = set(nfg.half_edges) - set(half_assignment)
        raise UnknownEdge(f"half-edges not assigned: {sorted(missing)}")
    total = Fraction(0) if t_inv == 1 else 0.0
    for tup, value in valid_tuples(nfg, cap=cap):
        if all(tup[i] == s for i, s in want.items()):
            total += _powered(value, t_inv)
    return total


def gibbs_minimizer(nfg: Nfg, temperature=1, cap=None) -> dict:
    """The Boltzmann distribution g(c)^{1/T} / Z over valid configurations."""
    t_inv = inverse_temperature(temperature)
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
