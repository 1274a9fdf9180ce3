import math

import numpy as np
import pytest

from shapespline import CubicSegment, DataPolygon, Plane
from shapespline.oracle import (
    SampledCurve,
    decasteljau,
    decasteljau_derivatives,
    projected_inflection_count,
    sampled_global_convexity,
)
from shapespline.planar import PolyArc2, planar_inflection_count
from conftest import (
    finite_diff_derivatives,
    random_nonplanar_segment,
    random_segment,
    sampled_sign_changes,
    vec3,
)


class TestSampledSignChanges:
    def test_constant(self):
        assert sampled_sign_changes(lambda t: 1.0, 0, 1, 16) == 0

    def test_cosine(self):
        assert sampled_sign_changes(math.cos, 0.0, 2.0 * math.pi, 512) == 2

    def test_small_values_classified_zero(self):
        f = lambda t: 1.0 if t < 0.5 else 1e-12
        assert sampled_sign_changes(f, 0, 1, 64) == 0


class TestDeCasteljau:
    def test_derivatives_match_finite_differences(self, rng):
        for _ in range(30):
            seg = random_segment(rng)
            ctrl = seg.bezier_points
            u = 0.41
            d1, d2, d3 = decasteljau_derivatives(ctrl, u, seg.h)
            f1, f2, f3 = finite_diff_derivatives(lambda v: decasteljau(ctrl, v), u, 1e-4)
            assert np.allclose(d1 * seg.h, f1, rtol=1e-6, atol=1e-6)
            assert np.allclose(d2 * seg.h**2, f2, rtol=1e-4, atol=1e-4)
            assert np.allclose(d3 * seg.h**3, f3, rtol=1e-3, atol=1e-3)


class TestProjectedInflectionCount:
    def test_planar_convex_is_zero(self):
        # quarter-turn-ish planar segment bending one way
        seg = CubicSegment(vec3(0, 0, 0), vec3(2, 0, 0), vec3(1, 1, 0), vec3(1, -1, 0), 1.0)
        assert projected_inflection_count(seg.bezier_points, seg.h, 256) == 0

    def test_nonplanar_cubic_is_two(self, rng):
        hits = 0
        for _ in range(50):
            seg = random_nonplanar_segment(rng)
            count = projected_inflection_count(seg.bezier_points, seg.h, 2048)
            assert count >= 1
            hits += count == 2
        assert hits >= 49

    def test_planar_with_inflection_counted_along_normal(self, rng):
        # S-shaped planar segment: bending flips once, seen from the normal
        seg = CubicSegment(vec3(0, 0, 0), vec3(4, 0, 0), vec3(1, 2, 0), vec3(1, 2, 0), 1.0)
        vals = [float(seg.curvature(u)[2]) for u in np.linspace(0, 1, 64)]
        assert vals[0] * vals[-1] < 0
        assert projected_inflection_count(seg.bezier_points, seg.h, 512) == 1

    def test_count_along_plane_normal_matches_unprojected(self, rng):
        # counting along w = N on the projected segment equals the sampled
        # sign changes of the unprojected omega . N
        for _ in range(30):
            seg = random_segment(rng)
            n = rng.uniform(-2, 2, 3)
            if np.linalg.norm(n) < 0.3:
                continue
            pl = Plane(n, float(rng.uniform(-2, 2)))
            proj = seg.project(pl)
            direct = sampled_sign_changes(
                lambda u: float(np.dot(seg.curvature(u), n)), 0, 1, 257
            )
            omegas = np.array(
                [
                    np.cross(*decasteljau_derivatives(proj.bezier_points, u, proj.h)[:2])
                    for u in np.linspace(0, 1, 257)
                ]
            )
            vals = omegas @ n
            tol = 1e-9 * max(np.abs(vals).max(), 1e-300)
            vals[np.abs(vals) <= tol] = 0.0
            from shapespline import sign_changes

            assert sign_changes(vals) == direct


class TestBezierCorollary:
    def test_curve_count_bounded_by_polygon_count(self, rng):
        # regular control polygons only
        checked = 0
        while checked < 40:
            pts = rng.uniform(-2, 2, (4, 2))
            try:
                arc = PolyArc2(pts)
            except ValueError:
                continue
            from shapespline.planar import is_regular_arc

            if not is_regular_arc(arc):
                continue
            ctrl = np.column_stack([pts, np.zeros(4)])
            seg = CubicSegment.from_bezier(*ctrl, 1.0)
            curve_count = sampled_sign_changes(
                lambda u: float(seg.curvature(u)[2]), 0, 1, 513
            )
            assert curve_count <= planar_inflection_count(arc)
            checked += 1


class TestFiniteDifferences:
    def test_linear_curve(self):
        line = lambda t: np.array([1.0 + 2.0 * t, -t, 0.5 * t])
        d1, d2, d3 = finite_diff_derivatives(line, 0.5, 1e-4)
        assert np.allclose(d1, [2, -1, 0.5], atol=1e-8)
        assert np.allclose(d2, 0.0, atol=1e-6)
        assert np.allclose(d3, 0.0, atol=1e-4)

    def test_matches_closed_form(self, rng):
        for _ in range(20):
            seg = random_segment(rng)
            u, step = 0.5, 1e-5
            f1, _, _ = finite_diff_derivatives(lambda v: seg.point(v), u, step)
            d1, _, _ = seg.derivatives(u)
            assert np.allclose(f1, d1 * seg.h, rtol=1e-5, atol=1e-7)

    def test_convergence_order(self, rng):
        seg = random_segment(rng)
        # quartic-ish perturbation so the error term is visible
        curve = lambda t: seg.point(t) * (1.0 + 0.1 * t**4)
        d_ref = finite_diff_derivatives(curve, 0.5, 1e-7)[0]
        err = lambda s: np.linalg.norm(finite_diff_derivatives(curve, 0.5, s)[0] - d_ref)
        e1, e2 = err(2e-3), err(1e-3)
        assert e1 / e2 >= 3.5

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            finite_diff_derivatives(lambda t: np.zeros(3), 0.0, 1e-3)


def arc_samples(radius, span, n, orientation=1.0):
    ts = np.linspace(0.0, span, n)
    pts = np.column_stack(
        [radius * np.cos(ts), orientation * radius * np.sin(ts), np.zeros(n)]
    )
    return SampledCurve(ts, pts)


class TestSampledGlobalConvexity:
    def test_half_circle_arc(self):
        curve = arc_samples(1.0, math.pi, 64)
        assert sampled_global_convexity(curve, vec3(0, 0, 1))

    def test_reversed_orientation_fails(self):
        curve = arc_samples(1.0, math.pi, 64)
        assert not sampled_global_convexity(curve, vec3(0, 0, -1))

    def test_spiral_violates_support_condition(self):
        # Archimedean spiral, 1.5 turns: locally convex everywhere but the
        # curve crosses its own support lines
        ts = np.linspace(0.0, 3.0 * math.pi, 256)
        r = 1.0 + 0.15 * ts
        pts = np.column_stack([r * np.cos(ts), r * np.sin(ts), np.zeros_like(ts)])
        curve = SampledCurve(ts, pts)
        assert not sampled_global_convexity(curve, vec3(0, 0, 1))

    def test_needs_enough_samples(self):
        curve = arc_samples(1.0, math.pi, 5)
        with pytest.raises(ValueError):
            sampled_global_convexity(curve, vec3(0, 0, 1))


class TestNegativeResults:
    def test_nonplanar_segments_never_convex_everywhere(self, rng):
        # a non-planar cubic always shows at least one bending reversal
        for _ in range(100):
            seg = random_nonplanar_segment(rng)
            assert projected_inflection_count(seg.bezier_points, seg.h, 2048) >= 1

    def test_noncoplanar_four_point_arcs(self, rng):
        from shapespline import spatial_arc_inflection_count

        for _ in range(100):
            while True:
                pts = rng.uniform(-2, 2, (4, 3))
                try:
                    poly = DataPolygon(pts)
                except ValueError:
                    continue
                floor = (
                    poly.chord_length(1) * poly.chord_length(2) * poly.chord_length(3)
                )
                if abs(poly.span_torsion(2)) > 0.05 * floor:
                    break
            assert spatial_arc_inflection_count(poly, 512) == 1
