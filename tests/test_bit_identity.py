"""Array forms against scalar forms, bit for bit.

Every sampled check evaluates its samples in one array call, and the
reports print those values to 17 digits.  These tests pin that each row of
an array call equals the scalar call on that row exactly (``np.array_equal``,
not ``allclose``), over inputs spanning 24 decades of scale, so that a
numpy or BLAS change that rounds one form differently fails here instead
of moving printed digits.
"""

import numpy as np

from shapespline import CubicSegment
from shapespline.geometry import (
    cross3,
    dot,
    dot_rows,
    norm,
    norm_rows,
    sine_angle,
    sine_rows,
)
from shapespline.oracle import decasteljau, decasteljau_derivatives

ROWS = 4000


def scaled_rows(rng, m, k=3):
    """Rows of random direction and magnitudes between 1e-12 and 1e12."""
    return rng.normal(size=(m, k)) * 10.0 ** rng.uniform(-12, 12, (m, 1))


def grid(rng):
    """Parameters in [0, 1]: both ends, a uniform grid and random values."""
    return np.concatenate([np.linspace(0.0, 1.0, 65), rng.uniform(0.0, 1.0, 200)])


def scaled_segment(rng):
    scale = 10.0 ** rng.uniform(-12, 12)
    while True:
        p0, p3, m0, m1 = scale * rng.normal(size=(4, 3))
        try:
            return CubicSegment(p0, p3, m0, m1, float(10.0 ** rng.uniform(-2, 2)))
        except ValueError:
            continue


def stack(rows):
    return np.array(list(rows))


def test_geometry_row_forms(rng):
    a, b = scaled_rows(rng, ROWS), scaled_rows(rng, ROWS)
    one = b[0]
    assert np.array_equal(dot_rows(a, b), stack(map(dot, a, b)))
    assert np.array_equal(dot_rows(a, one), stack(dot(x, one) for x in a))
    assert np.array_equal(norm_rows(a), stack(map(norm, a)))
    assert np.array_equal(norm_rows(a[:, :2]), stack(map(norm, a[:, :2])))
    assert np.array_equal(sine_rows(a, b), stack(map(sine_angle, a, b)))
    assert np.array_equal(sine_rows(a, one), stack(sine_angle(x, one) for x in a))
    assert np.array_equal(np.cross(a, b), stack(map(cross3, a, b)))
    assert np.array_equal(np.cross(one, a), stack(cross3(one, x) for x in a))
    # norm is what np.linalg.norm computes for a 1-D vector
    assert np.array_equal(norm_rows(a), stack(float(np.linalg.norm(x)) for x in a))


def test_segment_evaluators(rng):
    for _ in range(15):
        seg, us = scaled_segment(rng), grid(rng)
        assert np.array_equal(seg.point(us), stack(seg.point(float(u)) for u in us))
        d1, d2, d3 = seg.derivatives(us)
        scalar = [seg.derivatives(float(u)) for u in us]
        assert np.array_equal(d1, stack(d[0] for d in scalar))
        assert np.array_equal(d2, stack(d[1] for d in scalar))
        assert d3.shape == (3,) and np.array_equal(d3, scalar[0][2])
        assert np.array_equal(seg.curvature(us), stack(seg.curvature(float(u)) for u in us))


def test_decasteljau(rng):
    for _ in range(15):
        ctrl, us = scaled_rows(rng, 4), grid(rng)
        h = float(10.0 ** rng.uniform(-2, 2))
        points = stack(decasteljau(ctrl, float(u)) for u in us)
        assert np.array_equal(decasteljau(ctrl, us), points)
        d1, d2, d3 = decasteljau_derivatives(ctrl, us, h)
        scalar = [decasteljau_derivatives(ctrl, float(u), h) for u in us]
        assert np.array_equal(d1, stack(d[0] for d in scalar))
        assert np.array_equal(d2, stack(d[1] for d in scalar))
        assert d3.shape == (3,) and np.array_equal(d3, scalar[0][2])
    # any degree and dimension
    net = scaled_rows(rng, 7, 2)
    us = grid(rng)
    assert np.array_equal(decasteljau(net, us), stack(decasteljau(net, float(u)) for u in us))
