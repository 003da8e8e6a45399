"""Closed-form diagonal entropy curves for (d_L, d_R)-regular parity-check graphs.

The tilt parameter s is the natural coordinate: theta is the log of the
even-weight enumerator under the tilt, omega its normalized derivative
(strictly increasing in s), and h the per-symbol induced entropy along the
constant-marginal line.  The same h also gives the asymptotic growth rate
of the ensemble-average weight enumerator at relative weight omega(s).

Everything is computed on an array of tilts in one numpy pass
(``curve_grid``); the scalar functions are one-point calls of the same
code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LOG2 = math.log(2.0)


class _Tilt(NamedTuple):
    weights: np.ndarray  # the even weights 0, 2, ..., at most d_R
    q: np.ndarray  # the tilted distribution over them, along the last axis
    theta: np.ndarray
    omega: np.ndarray
    omega_bar: np.ndarray  # 1 - omega, summed as E_q[d_R - W] / d_R


def _tilt(d_r: int, s) -> _Tilt:
    """The even-weight distribution C(d_R, w) exp(s w) / exp(theta), for an array of s."""
    if d_r < 2:
        raise ValueError("d_R must be at least 2")
    ws = np.arange(0, d_r + 1, 2)
    log_binom = np.array([math.lgamma(d_r + 1) - math.lgamma(w + 1) - math.lgamma(d_r - w + 1) for w in ws])
    terms = log_binom + np.multiply.outer(s, ws)
    mx = terms.max(axis=-1)
    p = np.exp(terms - mx[..., None])
    z = p.sum(axis=-1)
    return _Tilt(ws, p / z[..., None], mx + np.log(z), p @ ws / (z * d_r), p @ (d_r - ws) / (z * d_r))


def theta(d_r: int, s: float) -> float:
    """log sum over even w of C(d_R, w) exp(s w), via log-sum-exp."""
    return float(_tilt(d_r, s).theta)


def omega_of_s(d_r: int, s: float) -> float:
    """Mean weight of the tilted even-weight distribution, divided by d_R."""
    return float(_tilt(d_r, s).omega)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x, taken as 0 at x = 0."""
    return x * np.log(np.where(x > 0, x, 1.0))


class CurveGrid(NamedTuple):
    omega: np.ndarray
    h_nats: np.ndarray
    d2h_domega2: np.ndarray


def curve_grid(d_l: int, d_r: int, s) -> CurveGrid:
    """omega, h and the curvature d2h/domega2 on an array of tilts.

    h = -(d_L - 1) h2(omega) - d_L s omega + (d_L / d_R) theta, in nats.
    Along the curve domega/ds = Var_q(W) / d_R, so

        d2h/domega2 = (d_L - 1) / (omega (1 - omega)) - d_L d_R / Var_q(W).

    Towards omega = 0 or 1 both terms grow like 1/omega and cancel to
    leading order (for (2,4) the float difference of the two terms reads
    exactly 0 at |s| = 20, where the curvature is -8/9).  So the curvature is taken as one fraction whose numerator,
    2 d_R [(d_L - 1) Var - d_L d_R omega (1 - omega)], is the quadratic form
    q^T K q of an integer matrix K: the terms that cancel are zeros of K,
    not differences of rounded floats.  Var is the pairwise sum
    1/2 sum_ij q_i q_j (w_i - w_j)^2, which cannot cancel either.  The
    curvature is not finite where omega rounds to 0 or 1.
    """
    if not 2 <= d_l < d_r:
        raise ValueError("need 2 <= d_L < d_R")
    s = np.asarray(s, dtype=float)
    t = _tilt(d_r, s)
    w = t.weights
    h = (d_l - 1) * (_xlogx(t.omega) + _xlogx(t.omega_bar)) - d_l * s * t.omega + (d_l / d_r) * t.theta
    gap2 = np.subtract.outer(w, w) ** 2
    # symmetrized: omega (1 - omega) d_R^2 = sum_ij q_i q_j (d_R (w_i + w_j) - 2 w_i w_j) / 2
    k = d_r * (d_l - 1) * gap2 - d_l * (d_r * np.add.outer(w, w) - 2 * np.multiply.outer(w, w))
    numerator = np.einsum("...i,ij,...j->...", t.q, k, t.q)
    var = 0.5 * np.einsum("...i,ij,...j->...", t.q, gap2, t.q)
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = numerator / (2 * d_r * t.omega * t.omega_bar * var)
    return CurveGrid(t.omega, h, d2)


@dataclass
class RegularCurvePoint:
    s: float
    omega: float
    h_nats: float
    d2h_domega2: float

    @property
    def h_bits(self) -> float:
        return self.h_nats / LOG2


def h_curve(d_l: int, d_r: int, s: float) -> RegularCurvePoint:
    """Per-symbol induced entropy along the constant-marginal diagonal.

    h = -(d_L - 1) h2(omega) - d_L s omega + (d_L / d_R) theta, in nats,
    with the closed-form curvature of ``curve_grid``.
    """
    g = curve_grid(d_l, d_r, s)
    return RegularCurvePoint(float(s), float(g.omega), float(g.h_nats), float(g.d2h_domega2))


def s_of_omega(d_r: int, target: float, tol: float = 1e-12) -> float:
    """Invert omega(s) by bisection; valid for target strictly inside (0, 1).
    It stops at a bracket ``tol`` wide or one of two adjacent floats."""
    if not 0 < target < 1:
        raise ValueError("omega must be strictly inside (0, 1)")
    lo, hi = -1.0, 1.0
    while omega_of_s(d_r, lo) > target:
        lo *= 2
        if lo < -1e6:
            raise ValueError("bisection bracket failed")
    while omega_of_s(d_r, hi) < target:
        hi *= 2
        if hi > 1e6:
            raise ValueError("bisection bracket failed")
    mid = 0.5 * (lo + hi)
    while hi - lo > tol and lo < mid < hi:
        if omega_of_s(d_r, mid) < target:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


@dataclass
class CurveShapeReport:
    points: list
    negative_near_zero: bool
    min_h_nats: float
    peak_omega: float
    peak_h_nats: float
    convex_intervals: list
    concave_intervals: list


def curve_scan(d_l: int, d_r: int, s_min: float, s_max: float, steps: int) -> CurveShapeReport:
    """Uniform s-grid of curve points plus a shape report.

    Every point, endpoints included, carries the closed-form curvature of
    ``curve_grid``.  Convex and concave intervals are the
    (omega_lo, omega_hi) spans of consecutive grid points where that
    curvature is positive, or negative; a point where it is exactly 0 or
    nan belongs to neither.  Raises ValueError unless s_min < s_max, both
    finite, and steps >= 3.
    """
    if steps < 3:
        raise ValueError("steps must be at least 3")
    if not -math.inf < s_min < s_max < math.inf:
        raise ValueError(f"need finite s_min < s_max, got [{s_min}, {s_max}]")
    grid = np.linspace(s_min, s_max, steps)
    g = curve_grid(d_l, d_r, grid)
    points = [
        RegularCurvePoint(*row)
        for row in zip(grid.tolist(), g.omega.tolist(), g.h_nats.tolist(), g.d2h_domega2.tolist())
    ]

    sign = np.sign(np.nan_to_num(g.d2h_domega2))
    cuts = np.flatnonzero(np.diff(sign)) + 1
    convex, concave = [], []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, steps] - 1):
        if sign[lo] != 0:
            (convex if sign[lo] > 0 else concave).append((points[lo].omega, points[hi].omega))

    small = (g.omega > 0) & (g.omega <= 0.02)
    peak = points[int(np.argmax(g.h_nats))]
    return CurveShapeReport(
        points=points,
        negative_near_zero=bool(small.any() and (g.h_nats[small] < 0).all()),
        min_h_nats=float(g.h_nats.min()),
        peak_omega=peak.omega,
        peak_h_nats=peak.h_nats,
        convex_intervals=convex,
        concave_intervals=concave,
    )


def curve_csv(report: CurveShapeReport) -> str:
    """One CSV row per grid point; d2h_domega2 is the closed-form curvature."""
    lines = ["s,omega,h_nats,h_bits,d2h_domega2"]
    for p in report.points:
        lines.append(f"{p.s:.12g},{p.omega:.12g},{p.h_nats:.12g},{p.h_bits:.12g},{p.d2h_domega2:.12g}")
    return "\n".join(lines) + "\n"
