"""The one-pass curve kernel: closed-form curvature, scalar/grid agreement,
and shape reports at large tilts."""

import math
import warnings

import numpy as np
import pytest

from gcb.ldpc_curves import (
    _tilt,
    curve_csv,
    curve_grid,
    curve_scan,
    h_curve,
    omega_of_s,
    s_of_omega,
    theta,
)

# The (3,6) convex span on a 601-point grid over |s| <= 6 ended here when
# convexity came from divided differences of the (omega, h) samples.
CONVEX_EDGE_36_FINITE_DIFFERENCES = 0.1496417441115937


def test_h24_large_tilt_has_no_convex_span_and_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = curve_scan(2, 4, -20.0, 20.0, 801)
    assert not report.convex_intervals
    ends = (report.points[0].omega, report.points[-1].omega)
    assert report.concave_intervals == [ends]


def test_h24_curvature_at_large_tilt_keeps_its_digits():
    # For (2,4), with x = exp(2s): d2h/domega2 = -8 Z^2 / ((3 + 10x + 3x^2)(3 + 2x + 3x^2)),
    # Z = 1 + 6x + x^2, which is -8/9 to double precision at s = -20 and, by
    # symmetry, at s = 20; the two closed-form terms are each about 8e16 there.
    g = curve_grid(2, 4, np.array([-20.0, 20.0]))
    assert g.d2h_domega2 == pytest.approx([-8 / 9, -8 / 9], rel=1e-12)


@pytest.mark.parametrize("d_l,d_r", [(2, 4), (3, 6), (4, 8), (2, 6)])
def test_curvature_matches_central_difference_in_omega(d_l, d_r):
    delta = 1e-4
    for s in np.linspace(-2.0, 2.0, 17):
        p = h_curve(d_l, d_r, float(s))
        hs = [
            h_curve(d_l, d_r, s_of_omega(d_r, p.omega + k * delta, tol=1e-15)).h_nats
            for k in (-1, 0, 1)
        ]
        central = (hs[0] - 2 * hs[1] + hs[2]) / delta**2
        assert p.d2h_domega2 == pytest.approx(central, rel=1e-5)


def test_h36_convex_edge_within_one_grid_step_of_finite_differences():
    report = curve_scan(3, 6, -6.0, 6.0, 601)
    omegas = [p.omega for p in report.points]
    (lo, hi), (_, upper_hi) = report.convex_intervals
    assert lo == omegas[0] and upper_hi == omegas[-1]
    k = omegas.index(hi)
    assert omegas[k - 1] <= CONVEX_EDGE_36_FINITE_DIFFERENCES <= omegas[k + 1]
    assert report.concave_intervals[0][0] == omegas[k + 1]


def test_h36_tends_to_zero_at_both_ends():
    g = curve_grid(3, 6, np.array([-25.0, 25.0]))
    assert np.all(np.abs(g.h_nats) <= 1e-9)


@pytest.mark.parametrize("d_l,d_r", [(2, 4), (3, 6), (3, 5)])
def test_scalar_calls_equal_grid_rows(d_l, d_r):
    grid = np.linspace(-9.0, 9.0, 73)
    t = _tilt(d_r, grid)
    g = curve_grid(d_l, d_r, grid)
    for i, s in enumerate(grid.tolist()):
        p = h_curve(d_l, d_r, s)
        pairs = [
            (theta(d_r, s), t.theta[i]),
            (omega_of_s(d_r, s), t.omega[i]),
            (p.omega, g.omega[i]),
            (p.h_nats, g.h_nats[i]),
            (p.d2h_domega2, g.d2h_domega2[i]),
        ]
        for scalar, row in pairs:
            assert abs(scalar - row) <= 1e-14 * max(1.0, abs(row))


@pytest.mark.parametrize("steps", [3, 401, 601])
def test_every_point_carries_the_curvature(steps):
    report = curve_scan(3, 6, -6.0, 6.0, steps)
    assert len(report.points) == steps
    assert all(math.isfinite(p.d2h_domega2) for p in report.points)
    rows = curve_csv(report).strip().splitlines()[1:]
    assert len(rows) == steps
    assert all(row.split(",")[-1] for row in rows)
