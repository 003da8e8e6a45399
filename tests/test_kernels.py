import random
import subprocess
import sys

import numpy as np
import pytest

import gcb._kernels as kernels
from gcb._kernels import build_plan, perm_tables, pyref
from gcb.covers import build_cover, cotree_edges, count_covers, enumerate_covers
from gcb.gibbs import gibbs_partition

from conftest import make_dumbbell, make_fig1, make_loopy_positive

HAS_COMPILED = kernels.BACKEND == "compiled"

pytestmark = pytest.mark.skipif(
    not HAS_COMPILED, reason="compiled kernels unavailable; nothing to compare"
)


def test_cover_sweep_matches_pure_and_percover():
    dumbbell = make_dumbbell()
    plan = build_plan(dumbbell)
    fidx = np.array([dumbbell.edge_index(e) for e in dumbbell.full_edge_order])
    n = count_covers(dumbbell, 2)
    fast = kernels.cover_sweep(plan, fidx, 2, 1.0, 0, n)
    slow = pyref.cover_sweep(plan, fidx, 2, 1.0, 0, n)
    assert fast[0] == pytest.approx(slow[0], rel=1e-12)
    assert fast[1] == slow[1]
    assert fast[2] == slow[2] == n
    direct = sum(
        float(gibbs_partition(build_cover(spec))) for spec in enumerate_covers(dumbbell, 2)
    )
    assert fast[0] == pytest.approx(direct, rel=1e-12)


def test_cover_sweep_range_split():
    fig1 = make_fig1()
    plan = build_plan(fig1)
    fidx = np.array([fig1.edge_index(e) for e in fig1.full_edge_order])
    n = count_covers(fig1, 2)
    whole = kernels.cover_sweep(plan, fidx, 2, 1.0, 0, n)
    parts = [
        kernels.cover_sweep(plan, fidx, 2, 1.0, a, b)
        for a, b in ((0, 20), (20, 50), (50, n))
    ]
    assert whole[0] == pytest.approx(sum(p[0] for p in parts), rel=1e-12)
    assert whole[1] == sum(p[1] for p in parts)


def test_cover_sweep_positive_tables():
    rng = random.Random(11)
    nfg = make_loopy_positive(rng)
    plan = build_plan(nfg)
    fidx = np.array([nfg.edge_index(e) for e in nfg.full_edge_order])
    fast = kernels.cover_sweep(plan, fidx, 2, 1.0, 0, 64)
    slow = pyref.cover_sweep(plan, fidx, 2, 1.0, 0, 64)
    assert fast[0] == pytest.approx(slow[0], rel=1e-10)


def test_cover_sweep_gauge_fixed_matches_pure():
    # Full edges left out of the index list keep the identity.
    dumbbell = make_dumbbell()
    plan = build_plan(dumbbell)
    cotree = np.array([dumbbell.edge_index(e) for e in cotree_edges(dumbbell)])
    fast = kernels.cover_sweep(plan, cotree, 3, 1.0, 0, 36)
    slow = pyref.cover_sweep(plan, cotree, 3, 1.0, 0, 36)
    assert fast[1] == slow[1]
    assert fast[2] == slow[2] == 36
    assert fast[0] == pytest.approx(slow[0], rel=1e-12)
    assert fast[0] / 36 == pytest.approx(64 / 3, rel=1e-12)


def test_perm_tables_lehmer_order():
    perms, inv = perm_tables(3)
    assert [tuple(p) for p in perms] == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]
    for p, q in zip(perms, inv):
        assert all(q[p[i]] == i for i in range(3))


def test_env_override_selects_pure_backend():
    code = (
        "import os; os.environ['GCB_PURE_KERNELS']='1'; "
        "import gcb._kernels as k; print(k.BACKEND)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "pure"
