"""Shared generators for randomized tests.

All randomness is seeded per test via the ``rng`` fixture so the suite is
fully reproducible.
"""

import math

import numpy as np
import pytest

from shapespline import EPS_ZERO, CubicSegment, DataPolygon, sign_changes, triple


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_segment(rng, box=2.0, h_range=(0.5, 2.0), min_sep=0.4):
    """Generic cubic segment with healthy chord and tangent magnitudes."""
    while True:
        p0 = rng.uniform(-box, box, 3)
        p3 = rng.uniform(-box, box, 3)
        if np.linalg.norm(p3 - p0) < min_sep:
            continue
        m0 = rng.uniform(-2 * box, 2 * box, 3)
        m1 = rng.uniform(-2 * box, 2 * box, 3)
        if min(np.linalg.norm(m0), np.linalg.norm(m1)) < min_sep:
            continue
        h = rng.uniform(*h_range)
        return CubicSegment(p0, p3, m0, m1, float(h))


def random_nonplanar_segment(rng, min_twist=0.05):
    """Segment whose torsion numerator is bounded away from zero."""
    while True:
        seg = random_segment(rng)
        t = triple(seg.m0, seg.chord, seg.m1)
        floor = (
            np.linalg.norm(seg.m0)
            * np.linalg.norm(seg.chord)
            * np.linalg.norm(seg.m1)
        )
        if abs(t) > min_twist * floor:
            return seg


def random_planar_segment(rng, box=2.0):
    """Segment lying exactly in the z = 0 plane."""
    seg = random_segment(rng)
    flat = lambda v: np.array([v[0], v[1], 0.0])
    return CubicSegment(flat(seg.p0), flat(seg.p3), flat(seg.m0), flat(seg.m1), seg.h)


def random_polygon(rng, n_points, box=2.0, min_sep=0.3):
    while True:
        pts = rng.uniform(-box, box, (n_points, 3))
        if np.min(np.linalg.norm(np.diff(pts, axis=0), axis=1)) > min_sep:
            try:
                return DataPolygon(pts)
            except ValueError:
                continue


def random_noncoplanar_polygon(rng, n_points, min_twist=0.05):
    """Polygon whose every interior span has a twist bounded away from 0."""
    while True:
        poly = random_polygon(rng, n_points)
        n = poly.n_segments
        ok = True
        for i in range(2, n):
            floor = (
                poly.chord_length(i - 1) * poly.chord_length(i) * poly.chord_length(i + 1)
            )
            if abs(poly.span_torsion(i)) < min_twist * floor:
                ok = False
                break
        if ok:
            return poly


def random_rotation(rng):
    """Haar-ish random rotation matrix via QR."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def vec3(x, y, z):
    return np.array([x, y, z], dtype=float)


# reference oracles the tests compare the library against


def sampled_sign_changes(f, a: float, b: float, n: int, eps_zero: float = EPS_ZERO) -> int:
    """Strict sign changes of ``f`` over ``n`` uniform samples of [a, b].

    Values within ``eps_zero * max|f|`` of zero are classified as zeros and
    skipped, matching the strict-change convention.
    """
    if n < 3:
        raise ValueError("need at least 3 samples")
    if not a < b:
        raise ValueError("empty interval")
    vals = np.array([float(f(t)) for t in np.linspace(a, b, n)])
    tol = eps_zero * max(np.abs(vals).max(), 1e-300)
    vals[np.abs(vals) <= tol] = 0.0
    return sign_changes(vals)


def finite_diff_derivatives(curve, t: float, step: float, domain=(0.0, 1.0)):
    """Central-difference derivatives of orders 1-3 of a vector curve."""
    lo, hi = domain
    if not (lo <= t - 2.0 * step and t + 2.0 * step <= hi):
        raise ValueError("t +/- 2*step must stay inside the domain")
    f_2m, f_m = np.asarray(curve(t - 2.0 * step)), np.asarray(curve(t - step))
    f_0 = np.asarray(curve(t))
    f_p, f_2p = np.asarray(curve(t + step)), np.asarray(curve(t + 2.0 * step))
    d1 = (f_p - f_m) / (2.0 * step)
    d2 = (f_p - 2.0 * f_0 + f_m) / step**2
    d3 = (f_2p - 2.0 * f_p + 2.0 * f_m - f_2m) / (2.0 * step**3)
    return d1, d2, d3


def forward_fill_changes_rows(vals: np.ndarray, tols: np.ndarray) -> np.ndarray:
    """Vectorized strict-sign-change count per row of ``vals``.

    ``tols`` (broadcastable to ``vals``) is the per-entry dead band; entries
    within it are treated as zeros and skipped.
    """
    s = np.zeros(vals.shape, dtype=np.int8)
    s[vals > tols] = 1
    s[vals < -tols] = -1
    # forward-fill the last nonzero sign so zero runs are skipped
    idx = np.where(s != 0, np.arange(s.shape[1]), 0)
    np.maximum.accumulate(idx, axis=1, out=idx)
    filled = np.take_along_axis(s, idx, axis=1)
    return np.count_nonzero(filled[:, 1:] * filled[:, :-1] < 0, axis=1)


def looped_sphere_directions(m: int, extra=()) -> np.ndarray:
    """Fibonacci lattice of ``m`` points, the six axis directions, then
    ``+-c/|c|`` for each finite non-zero candidate ``c``, one at a time."""
    k = np.arange(m, dtype=float)
    z = 1.0 - 2.0 * (k + 0.5) / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = 2.0 * math.pi * k / ((1.0 + math.sqrt(5.0)) / 2.0)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    axes = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    blocks = [pts, axes]
    for cand in extra:
        c = np.asarray(cand, dtype=float).reshape(3)
        ln = np.linalg.norm(c)
        if ln > 0.0 and np.all(np.isfinite(c)):
            blocks.append((c / ln)[None, :])
            blocks.append((-c / ln)[None, :])
    return np.vstack(blocks)
