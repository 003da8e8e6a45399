import itertools
import math
import random

import numpy as np
import pytest

from gcb.ldpc_curves import (
    curve_csv,
    curve_scan,
    h_curve,
    omega_of_s,
    s_of_omega,
    theta,
)

LOG2 = math.log(2)


def test_theta_at_zero_counts_even_words():
    assert theta(6, 0.0) == pytest.approx(math.log(32), abs=1e-12)
    assert theta(4, 0.0) == pytest.approx(math.log(8), abs=1e-12)


def test_theta_limit_small_s():
    # only the zero word survives as s -> -inf
    assert theta(6, -40.0) == pytest.approx(0.0, abs=1e-12)


def test_omega_at_zero_is_half():
    for d_r in (4, 6, 8):
        assert omega_of_s(d_r, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_omega_small_s_limit():
    assert omega_of_s(6, -40.0) == pytest.approx(0.0, abs=1e-12)


def test_omega_is_theta_derivative():
    for s in (-1.3, -0.2, 0.7, 2.1):
        h = 1e-5
        fd = (theta(6, s + h) - theta(6, s - h)) / (2 * h) / 6
        assert omega_of_s(6, s) == pytest.approx(fd, abs=1e-6)


def test_omega_strictly_increasing():
    grid = np.linspace(-6, 6, 241)
    vals = [omega_of_s(6, float(s)) for s in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_h36_peak_half_bit():
    p = h_curve(3, 6, 0.0)
    assert p.omega == pytest.approx(0.5, abs=1e-12)
    assert p.h_bits == pytest.approx(0.5, abs=1e-10)


def test_h36_negative_near_zero():
    for target in (0.005, 0.01, 0.02):
        s = s_of_omega(6, target)
        assert h_curve(3, 6, s).h_nats < 0


def test_h24_nonnegative():
    report = curve_scan(2, 4, -12.0, 12.0, 601)
    assert report.min_h_nats >= -1e-9
    assert not report.negative_near_zero


def test_h24_concave_graph():
    report = curve_scan(2, 4, -6.0, 6.0, 601)
    assert not report.convex_intervals
    assert report.concave_intervals


def test_h36_shape_report():
    report = curve_scan(3, 6, -6.0, 6.0, 601)
    assert report.negative_near_zero
    assert report.peak_omega == pytest.approx(0.5, abs=2e-3)
    assert report.peak_h_nats == pytest.approx(0.5 * LOG2, abs=1e-6)
    # convex near omega = 0, concave near omega = 1/2
    assert any(hi < 0.2 for lo, hi in report.convex_intervals)
    assert any(lo < 0.5 < hi for lo, hi in report.concave_intervals)


def test_h_tends_to_zero_at_boundary():
    assert abs(h_curve(3, 6, -20.0).h_nats) <= 1e-9
    assert abs(h_curve(3, 6, -25.0).h_nats) <= 1e-9


def test_s_of_omega_inverts():
    for target in (0.1, 0.37, 0.5, 0.81):
        s = s_of_omega(6, target)
        assert omega_of_s(6, s) == pytest.approx(target, abs=1e-10)


@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_s_of_omega_ends_below_float_spacing(tol):
    """A tolerance below the spacing of floats near s still ends, at the
    bracket of two adjacent floats."""
    for d_r, target in ((4, 0.3), (6, 0.05), (6, 0.81)):
        s = s_of_omega(d_r, target, tol=tol)
        assert abs(omega_of_s(d_r, s) - target) <= 1e-12


def test_invalid_degrees_rejected():
    with pytest.raises(ValueError):
        theta(1, 0.0)
    with pytest.raises(ValueError):
        h_curve(6, 3, 0.0)
    with pytest.raises(ValueError):
        curve_scan(3, 6, -1, 1, 2)


@pytest.mark.parametrize("s_min, s_max", [
    (math.nan, 3.0), (-3.0, math.nan), (-math.inf, 3.0), (-3.0, math.inf), (3.0, -3.0), (1.0, 1.0),
])
def test_curve_scan_needs_a_finite_increasing_range(s_min, s_max):
    with pytest.raises(ValueError, match="need finite s_min < s_max"):
        curve_scan(3, 6, s_min, s_max, 11)


def test_csv_emission():
    report = curve_scan(3, 6, -1.0, 1.0, 11)
    text = curve_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "s,omega,h_nats,h_bits,d2h_domega2"
    assert len(lines) == 12


def _gallager_sample(rng, n, d_l, d_r):
    """One (d_l, d_r) matrix via socket matching; None on double edges."""
    m = n * d_l // d_r
    var_sockets = [i for i in range(n) for _ in range(d_l)]
    chk_sockets = [j for j in range(m) for _ in range(d_r)]
    rng.shuffle(var_sockets)
    h = [[0] * n for _ in range(m)]
    for i, j in zip(var_sockets, chk_sockets):
        if h[j][i]:
            return None
        h[j][i] = 1
    return h


def test_curve_tracks_ensemble_average_enumerator():
    """Soft check: the closed form stays near the finite-n ensemble average."""
    rng = random.Random(99)
    n, d_l, d_r = 10, 3, 6
    totals = [0] * (n + 1)
    samples = 0
    while samples < 200:
        h = _gallager_sample(rng, n, d_l, d_r)
        if h is None:
            continue
        samples += 1
        for x in itertools.product((0, 1), repeat=n):
            if all(sum(r * s for r, s in zip(row, x)) % 2 == 0 for row in h):
                totals[sum(x)] += 1
    for w in (2, 4, 6):
        avg = totals[w] / samples
        if avg == 0:
            continue
        rate = math.log(avg) / n
        s = s_of_omega(d_r, w / n)
        closed = h_curve(d_l, d_r, s).h_nats
        # finite-n combinatorial corrections are O(log n / n); keep it soft
        assert closed >= rate - 0.25
        assert abs(closed - rate) <= 0.6
