"""Reproduced planar results of the paper, outside the 3D production path.

Polygonal planar arcs (regularity, turn-sequence inflection counts), the
ratio-four inflection rule for planar cubics, and the line-intersection
construction for control-polygon convexity.  The test suite and acceptance
criterion 06 exercise them; ``analyze`` and the CLI decide convexity with
the triple-product branches of ``criteria.check_convexity_cubic``.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import EPS_ZERO, dot, dot_rows, norm, norm_rows, triple
from .polygon import sign_changes


def as_vec2(v) -> np.ndarray:
    a = np.array(v, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite vector components: {a}")
    return a


def cross2(a: np.ndarray, b: np.ndarray) -> float:
    """Scalar cross of two 2-vectors (twice the signed triangle area)."""
    return float(a[0] * b[1] - a[1] * b[0])


class PolyArc2:
    """Planar polygonal arc with distinct consecutive points."""

    def __init__(self, points, eps_zero: float = EPS_ZERO):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected an (m, 2) point array, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError("need at least two points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite point coordinates")
        edges = np.diff(pts, axis=0)
        lengths = np.linalg.norm(edges, axis=1)
        bbox = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        if np.any(lengths <= eps_zero * bbox):
            raise ValueError("consecutive points must be distinct")
        self.points = pts
        self.eps_zero = float(eps_zero)
        self.edges = edges
        self.edge_lengths = lengths


def _turns(arc: PolyArc2) -> np.ndarray:
    """Scalar cross of consecutive edges, zeroed within the noise floor."""
    a, b = arc.edges[:-1], arc.edges[1:]
    turns = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    turns[np.abs(turns) <= arc.eps_zero * arc.edge_lengths[:-1] * arc.edge_lengths[1:]] = 0.0
    return turns


def is_regular_arc(arc: PolyArc2) -> bool:
    """True iff the arc turns through at most pi in total, with no exact
    pi turn at any vertex.

    The total-turn condition is equivalent to all edge directions lying in
    one closed half-plane, decided by the largest angular gap between
    sorted directions.
    """
    edges = arc.edges
    # exact pi turn at a vertex: consecutive edges anti-parallel
    if np.any((_turns(arc) == 0.0) & (dot_rows(edges[:-1], edges[1:]) < 0.0)):
        return False
    angles = np.sort(np.arctan2(edges[:, 1], edges[:, 0]))
    gaps = np.diff(angles)
    wrap = 2.0 * math.pi - (angles[-1] - angles[0])
    max_gap = max(float(gaps.max(initial=0.0)), wrap)
    return max_gap >= math.pi - arc.eps_zero


def planar_inflection_count(arc: PolyArc2) -> int:
    """Strict sign changes of the turn sequence of a planar arc."""
    return sign_changes(_turns(arc))


def _planar_curvature_changes(a, b, c, d, samples: int, eps_zero: float) -> int:
    """Sampled sign changes of x'y'' - x''y' for a planar cubic Bezier."""
    q0, q1, q2 = 3.0 * (b - a), 3.0 * (c - b), 3.0 * (d - c)
    t = np.linspace(0.0, 1.0, samples)[:, None]
    s = 1.0 - t
    d1 = q0 * (s * s) + q1 * (2.0 * s * t) + q2 * (t * t)
    d2 = 2.0 * ((q1 - q0) * s + (q2 - q1) * t)
    vals = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    # magnitude floor: collinear control nets give pure rounding noise
    vals[np.abs(vals) <= eps_zero * np.maximum(norm_rows(d1) * norm_rows(d2), 1e-300)] = 0.0
    return sign_changes(vals)


def planar_cubic_inflection(a, b, c, d, samples: int = 2048, eps_zero: float = EPS_ZERO) -> int:
    """Inflection count of the planar cubic with control points a, b, c, d.

    Regular control polygon: the count is obtained by a curvature sign scan
    (it is bounded by the polygon's own inflection count).  Polygon turning
    through more than pi: the count is 0 or 2 according to whether
    ``|B-A||C-D| / |B-P||C-P|`` exceeds 4, with ``P`` the intersection of
    the end tangent lines.
    """
    a, b, c, d = (as_vec2(p) for p in (a, b, c, d))
    arc = PolyArc2([a, b, c, d], eps_zero)
    if is_regular_arc(arc):
        return _planar_curvature_changes(a, b, c, d, samples, eps_zero)
    # > pi total turn: end tangent lines must meet
    e1, e2 = b - a, d - c
    den = cross2(e1, e2)
    if abs(den) <= eps_zero * norm(e1) * norm(e2):
        raise ValueError("end tangent lines are parallel; ratio undefined")
    # solve a + s*e1 = c + t*e2
    rhs = c - a
    s = cross2(rhs, e2) / den
    p = a + s * e1
    bp, cp = norm(b - p), norm(c - p)
    if bp == 0.0 or cp == 0.0:
        raise ValueError("degenerate control polygon: end leg through the intersection point")
    ratio = (norm(b - a) * norm(d - c)) / (bp * cp)
    return 0 if ratio <= 4.0 else 2


def intersect_lines(p0, p1, p2, p3, n_vec, eps_zero: float = EPS_ZERO):
    """Intersection parameters of coplanar lines (p0, p1) and (p2, p3).

    Returns ``(s, t, sbar, tbar)`` with the intersection point equal to
    ``p0 + (p1 - p0) s = p3 + (p2 - p3) t = p1 + (p0 - p1) sbar
    = p2 + (p3 - p2) tbar``; each parameter is a ratio of triple products
    with the plane normal ``n_vec``.
    """
    p0, p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p0, p1, p2, p3))
    n_vec = np.asarray(n_vec, dtype=float)
    nn = norm(n_vec)
    if nn == 0.0:
        raise ValueError("plane normal must be non-zero")
    scale = max(norm(p1 - p0), norm(p2 - p3), norm(p3 - p0), 1e-300)
    for q in (p1, p2, p3):
        off = abs(dot(q - p0, n_vec)) / nn
        if off > eps_zero * scale:
            raise ValueError("points are not coplanar with the given normal")
    den = triple(p1 - p0, p2 - p3, n_vec)
    if abs(den) <= eps_zero * norm(p1 - p0) * norm(p2 - p3) * nn:
        raise ValueError("lines are parallel; no unique intersection")
    s = triple(p3 - p0, p2 - p3, n_vec) / den
    t = -triple(p1 - p0, p3 - p0, n_vec) / den
    sbar = triple(p2 - p1, p3 - p2, n_vec) / den
    tbar = -triple(p0 - p1, p2 - p1, n_vec) / den
    return s, t, sbar, tbar


def convex_control_polygon(p0, p1, p2, p3, n_vec, eps_zero: float = EPS_ZERO) -> bool:
    """Global convexity of the planar arc p0 p1 p2 p3 (either orientation).

    Case split on the sign of ``(p1-p0) x (p2-p3) . N``; each case accepts
    two sub-configurations corresponding to the end-line intersection lying
    outside the arc on one side or the other.  When the gate is zero (end
    edges parallel) the arc is convex iff its two turns agree strictly.
    """
    p0, p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p0, p1, p2, p3))
    n_vec = np.asarray(n_vec, dtype=float)
    nn = norm(n_vec)
    if nn == 0.0:
        raise ValueError("plane normal must be non-zero")
    scale = max(norm(p1 - p0), norm(p2 - p1), norm(p3 - p2), 1e-300)
    for q in (p1, p2, p3):
        if abs(dot(q - p0, n_vec)) / nn > eps_zero * scale:
            raise ValueError("points are not coplanar with the given normal")

    def tp(u, v):
        val = triple(u, v, n_vec)
        return val, norm(u) * norm(v) * nn

    g, fg = tp(p1 - p0, p2 - p3)
    t1, f1 = tp(p1 - p0, p2 - p1)
    t2, f2 = tp(p2 - p1, p3 - p2)
    s1, fs1 = tp(p0 - p1, p3 - p0)
    s2, fs2 = tp(p3 - p0, p2 - p3)
    eps = eps_zero
    if g > eps * fg:
        return (t1 < -eps * f1 and t2 < -eps * f2) or (s1 < -eps * fs1 and s2 < -eps * fs2)
    if g < -eps * fg:
        return (t1 > eps * f1 and t2 > eps * f2) or (s1 > eps * fs1 and s2 > eps * fs2)
    # parallel end edges: the support lines cannot cross the opposite leg
    return (t1 > eps * f1 and t2 > eps * f2) or (t1 < -eps * f1 and t2 < -eps * f2)
