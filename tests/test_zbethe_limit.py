"""Z_{B,M} against Z_B and Z: the paper's limit, Ruozzi's bound, big roots.

The type-sum sums the type graph by elimination, so M in the tens is
cheap: it follows Z_{B,M} on the dumbbell towards the Bethe minimum, checks
Z_{B,M} <= Z in exact rationals on attractive pairwise models (Ruozzi,
"The Bethe partition function of log-supermodular graphical models", NIPS
2012), and takes M-th roots of pre-root values outside the float range.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gcb.bethe import minimize_bethe, zbethe_m_enumeration, zbethe_m_typesum
from gcb.gibbs import gibbs_partition
from gcb.nfg import Factor, Nfg

from conftest import make_dumbbell

LIMIT_MS = (8, 16, 24, 32, 40, 50)


def test_dumbbell_zbethe_m_decreases_to_the_bethe_minimum():
    """Z_{B,M} falls towards Z_B = 2 for M = 1..50, and c(M) =
    M ln(Z_{B,M}/Z_B) settles at an O(1/M) rate: fitting c = c_inf + a/M
    to neighbouring pairs of M gives the same c_inf to 0.005."""
    dumbbell = make_dumbbell()
    z_b = minimize_bethe(dumbbell, seed=1).z_bethe
    assert z_b == pytest.approx(2, rel=1e-9)
    values = [zbethe_m_typesum(dumbbell, m).value for m in (1, 2, 3, 4, 6) + LIMIT_MS]
    assert all(a > b > z_b for a, b in zip(values, values[1:]))
    c = [m * math.log(v / z_b) for m, v in zip(LIMIT_MS, values[5:])]
    assert c[-1] == pytest.approx(0.714, abs=5e-4)  # 0.724 at M = 34, 0.703 at M = 100
    steps = [a - b for a, b in zip(c, c[1:])]
    assert all(step > 0 for step in steps)
    c_inf = [(m1 * a - m0 * b) / (m1 - m0) for m0, m1, b, a in zip(LIMIT_MS, LIMIT_MS[1:], c, c[1:])]
    assert abs(c_inf[-1] - c_inf[-2]) < 0.005


def attractive_graph(rng, n_vars, pairs):
    """A binary pairwise model as an NFG: variable i is an equality factor
    v<i> weighting all-0 and all-1, and pair (i, j) a factor p<i><j> whose
    table g has g(0,0) g(1,1) > g(0,1) g(1,0) (strictly log-supermodular),
    joined to v<i> and v<j> by one edge each."""
    values = [Fraction(k, 4) for k in range(1, 13)]
    incident = {i: [] for i in range(n_vars)}
    factors = []
    for i, j in pairs:
        a, b = f"x{i}{j}", f"y{i}{j}"
        incident[i].append(a)
        incident[j].append(b)
        g00, g01, g10, g11 = (rng.choice(values) for _ in range(4))
        if g00 * g11 <= g01 * g10:
            g11 = 2 * g01 * g10 / g00
        factors.append(Factor(f"p{i}{j}", (a, b), {(0, 0): g00, (0, 1): g01, (1, 0): g10, (1, 1): g11}))
    for i, edges in incident.items():
        factors.append(Factor(f"v{i}", edges, {(0,) * len(edges): rng.choice(values),
                                               (1,) * len(edges): rng.choice(values)}))
    edges = [e for f in factors if f.id[0] == "p" for e in f.edges]
    return Nfg({e: 2 for e in edges}, [], factors)


RUOZZI_SHAPES = {
    "4-cycle": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "K4": (4, list(itertools.combinations(range(4), 2))),
    "triangle+tail": (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
}


@pytest.mark.parametrize("shape", sorted(RUOZZI_SHAPES))
@pytest.mark.parametrize("seed", [1, 2])
def test_ruozzi_zbethe_m_at_most_z_on_attractive_models(shape, seed):
    """Every M-cover of a log-supermodular pairwise binary model has
    Z(cover) <= Z^M, so Z_{B,M}^M <= Z^M exactly, M = 1..6; M = 1 is Z."""
    nfg = attractive_graph(random.Random(seed), *RUOZZI_SHAPES[shape])
    assert nfg.circuit_rank() >= 1
    z = gibbs_partition(nfg)
    assert zbethe_m_typesum(nfg, 1).pre_root == z
    pre_roots = [zbethe_m_typesum(nfg, m).pre_root for m in range(2, 7)]
    assert all(isinstance(p, Fraction) for p in pre_roots)
    assert all(p <= z**m for m, p in enumerate(pre_roots, 2))
    assert pre_roots[0] < z**2


@pytest.mark.parametrize("weight, value", [(Fraction(10**200), 1e200), (Fraction(1, 10**200), 2e-200)])
def test_root_of_a_pre_root_past_the_float_range(weight, value):
    """A tree has Z_{B,M} = Z; here Z^2 lies past 1e308 (or below 1e-308),
    where float(pre_root) overflows (or reads 0), but Z itself fits."""
    second = weight if weight < 1 else 1
    nfg = Nfg({"h": 2, "a": 2}, ["h"], [
        Factor("f", ("h", "a"), {(0, 0): weight, (1, 1): second}),
        Factor("g", ("a",), {(0,): 1, (1,): 1}),
    ])
    z = weight + second
    for path in (zbethe_m_enumeration, zbethe_m_typesum):
        res = path(nfg, 2)
        assert res.pre_root == z**2
        assert res.value == pytest.approx(value, rel=1e-12)
