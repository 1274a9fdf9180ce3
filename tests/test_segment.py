import numpy as np
import pytest

from shapespline import CubicSegment, Plane, cross3, project_point, triple
from shapespline.oracle import decasteljau
from conftest import finite_diff_derivatives, project_segment, random_segment, vec3


def make_plane(rng):
    while True:
        n = rng.uniform(-2, 2, 3)
        if np.linalg.norm(n) > 0.3:
            return Plane(n, float(rng.uniform(-2, 2)))


class TestConstruction:
    def test_bezier_hermite_coherence(self, rng):
        for _ in range(50):
            seg = random_segment(rng)
            assert np.allclose(3.0 * (seg.p1 - seg.p0) / seg.h, seg.m0, rtol=1e-13)
            assert np.allclose(3.0 * (seg.p3 - seg.p2) / seg.h, seg.m1, rtol=1e-13)
            round_trip = CubicSegment.from_bezier(*seg.bezier_points, seg.h)
            assert np.allclose(round_trip.m0, seg.m0)
            assert np.allclose(round_trip.m1, seg.m1)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            CubicSegment(vec3(0, 0, 0), vec3(1, 0, 0), vec3(1, 0, 0), vec3(1, 0, 0), 0.0)

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ValueError):
            CubicSegment(vec3(1, 1, 1), vec3(1, 1, 1), vec3(1, 0, 0), vec3(1, 0, 0), 1.0)


class TestEvaluation:
    def test_endpoint_interpolation(self, rng):
        for _ in range(20):
            seg = random_segment(rng)
            assert np.allclose(seg.point(0.0), seg.p0)
            assert np.allclose(seg.point(1.0), seg.p3)

    def test_degenerate_control_point(self):
        q = vec3(1, -2, 3)
        seg = CubicSegment.from_bezier(q, q + 1e-9, q, q + vec3(1e-12, 0, 1e-7), 1.0)
        # all control points essentially q: midpoint stays at q
        assert np.allclose(seg.point(0.5), q, atol=1e-6)

    def test_matches_decasteljau(self, rng):
        for _ in range(100):
            seg = random_segment(rng)
            for u in (0.3, 0.123, 0.9):
                assert np.allclose(seg.point(u), decasteljau(seg.bezier_points[None], np.array([u]))[0, 0], atol=1e-13)

    def test_domain_error(self, rng):
        seg = random_segment(rng)
        with pytest.raises(ValueError):
            seg.point(-0.01)
        with pytest.raises(ValueError):
            seg.derivatives(1.01)
        for us in (np.array([0.0, 0.5, 1.01]), np.array([-0.01, 0.5]), np.array([0.2, np.nan])):
            with pytest.raises(ValueError):
                seg.point(us)
            with pytest.raises(ValueError):
                seg.derivatives(us)


class TestDerivatives:
    def test_hermite_end_tangents(self, rng):
        for _ in range(50):
            seg = random_segment(rng)
            assert np.allclose(seg.derivatives(0.0)[0], seg.m0, rtol=1e-12, atol=1e-12)
            assert np.allclose(seg.derivatives(1.0)[0], seg.m1, rtol=1e-12, atol=1e-12)

    def test_third_derivative_constant(self, rng):
        for _ in range(30):
            seg = random_segment(rng)
            expected = (6.0 / seg.h**3) * (seg.h * (seg.m0 + seg.m1) - 2.0 * seg.chord)
            for u in np.linspace(0, 1, 7):
                assert np.allclose(seg.derivatives(float(u))[2], expected, rtol=1e-12)

    def test_against_finite_differences(self, rng):
        for _ in range(50):
            seg = random_segment(rng)
            # rescale the step into segment-local parameter: curve(u) has
            # derivatives h^k times smaller than the global ones
            step = 1e-5
            f1, f2, _ = finite_diff_derivatives(lambda u: seg.point(u), 0.37, step)
            d1, d2, _ = seg.derivatives(0.37)
            scale1 = max(np.linalg.norm(d1) * seg.h, 1.0)
            scale2 = max(np.linalg.norm(d2) * seg.h**2, 1.0)
            assert np.linalg.norm(f1 - d1 * seg.h) <= 1e-6 * scale1
            assert np.linalg.norm(f2 - d2 * seg.h**2) <= 1e-4 * scale2


def omega(quad, u):
    """``c0 (1-u)^2 + c1 u(1-u) + c2 u^2`` of the coefficients ``quad``."""
    c0, c1, c2 = quad
    v = 1.0 - u
    return c0 * (v * v) + c1 * (u * v) + c2 * (u * u)


class TestCurvatureQuad:
    def test_straight_segment_zero(self):
        p0, p3 = vec3(0, 0, 0), vec3(3, 0, 0)
        m = vec3(3, 0, 0)
        seg = CubicSegment(p0, p3, m, m, 1.0)
        for c in seg.curvature_quad():
            assert np.allclose(c, 0.0, atol=1e-12)

    def test_planar_segment_coefficients_along_z(self, rng):
        for _ in range(30):
            seg = random_segment(rng)
            flat = CubicSegment(
                seg.p0 * [1, 1, 0], seg.p3 * [1, 1, 0], seg.m0 * [1, 1, 0], seg.m1 * [1, 1, 0], seg.h
            )
            for c in flat.curvature_quad():
                assert abs(c[0]) < 1e-12 and abs(c[1]) < 1e-12

    def test_reproduces_cross_of_derivatives(self, rng):
        for _ in range(100):
            seg = random_segment(rng)
            quad = seg.curvature_quad()
            for u in (0.25, 0.0, 1.0, 0.61):
                d1, d2, _ = seg.derivatives(u)
                ref = cross3(d1, d2)
                scale = max(np.linalg.norm(ref), 1e-6)
                assert np.linalg.norm(omega(quad, u) - ref) <= 1e-10 * scale

    def test_pointwise_match_at_33_samples(self, rng):
        for _ in range(20):
            seg = random_segment(rng)
            quad = seg.curvature_quad()
            for u in np.linspace(0, 1, 33):
                d1, d2, _ = seg.derivatives(float(u))
                ref = cross3(d1, d2)
                scale = max(np.linalg.norm(ref), 1e-6)
                assert np.linalg.norm(omega(quad, float(u)) - ref) <= 1e-10 * scale

    def test_quadratic_degree_bound(self, rng):
        # omega(u) . w is a quadratic in u: fit through 3 samples, check 30
        for _ in range(20):
            seg = random_segment(rng)
            w = rng.uniform(-2, 2, 3)
            f = lambda u: float(np.dot(cross3(*seg.derivatives(u)[:2]), w))
            us = np.array([0.0, 0.5, 1.0])
            coef = np.polyfit(us, [f(u) for u in us], 2)
            scale = max(abs(f(u)) for u in np.linspace(0, 1, 31))
            for u in np.linspace(0.01, 0.99, 30):
                assert abs(np.polyval(coef, u) - f(float(u))) <= 1e-9 * max(scale, 1.0)


class TestTorsionNumerator:
    def test_coplanar_zero(self, rng):
        for _ in range(20):
            seg = random_segment(rng)
            # force m1 into the span of (m0, chord)
            lam, mu = rng.uniform(-2, 2, 2)
            m1 = lam * seg.m0 + mu * seg.chord
            flat = CubicSegment(seg.p0, seg.p3, seg.m0, m1, seg.h)
            floor = (
                np.linalg.norm(flat.m0) * np.linalg.norm(flat.chord) * np.linalg.norm(flat.m1)
            )
            assert abs(flat.torsion_numerator()) <= 1e-10 * max(floor, 1.0) * 12 / flat.h**4

    def test_catmull_rom_identity(self, rng):
        for _ in range(50):
            l_prev, l_mid, l_next = (rng.uniform(-2, 2, 3) for _ in range(3))
            if np.linalg.norm(l_mid) < 0.2:
                continue
            seg = CubicSegment(
                vec3(0, 0, 0), l_mid, l_prev + l_mid, l_mid + l_next, 1.0
            )
            expected = triple(l_prev, l_mid, l_next)
            assert seg.torsion_numerator() * seg.h**4 / 12.0 == pytest.approx(
                expected, rel=1e-10, abs=1e-12
            )

    def test_constant_and_equal_to_formula(self, rng):
        for _ in range(100):
            seg = random_segment(rng)
            tau = seg.torsion_numerator()
            dets = []
            for u in (0.0, 0.5, 1.0):
                d1, d2, d3 = seg.derivatives(u)
                dets.append(triple(d1, d2, d3))
            spread = max(dets) - min(dets)
            scale = max(abs(tau), max(abs(d) for d in dets), 1e-12)
            assert spread <= 1e-9 * scale
            for det in dets:
                assert abs(det - tau) <= 1e-9 * scale


class TestProjection:
    def test_in_plane_segment_unchanged(self, rng):
        seg = random_segment(rng)
        flat = CubicSegment(
            seg.p0 * [1, 1, 0], seg.p3 * [1, 1, 0], seg.m0 * [1, 1, 0], seg.m1 * [1, 1, 0], seg.h
        )
        proj = project_segment(flat, Plane(vec3(0, 0, 1), 0.0))
        assert np.allclose(proj.bezier_points, flat.bezier_points, atol=1e-14)

    def test_projection_of_lift_recovers_plane(self, rng):
        seg = random_segment(rng)
        lift = vec3(0, 0, 3.7)
        lifted = CubicSegment(seg.p0 + lift, seg.p3 + lift, seg.m0, seg.m1, seg.h)
        dropped = project_segment(lifted, Plane(vec3(0, 0, 1), 0.0))
        assert np.allclose(dropped.bezier_points[:, 2], 0.0, atol=1e-14)

    def test_eval_commutes_with_projection(self, rng):
        for _ in range(50):
            seg = random_segment(rng)
            pl = make_plane(rng)
            proj = project_segment(seg, pl)
            for u in np.linspace(0, 1, 17):
                a = proj.point(float(u))
                b = project_point(seg.point(float(u)), pl)
                assert np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(b), 1.0)


class TestProjectionCurvatureIdentities:
    def test_curvature_dot_normal_preserved(self, rng):
        # the normal component of d1 x d2 survives projection exactly
        for _ in range(100):
            seg = random_segment(rng)
            pl = make_plane(rng)
            proj = project_segment(seg, pl)
            n = pl.normal
            for u in np.linspace(0, 1, 9):
                d1, d2, _ = seg.derivatives(float(u))
                e1, e2, _ = proj.derivatives(float(u))
                lhs = float(np.dot(cross3(e1, e2), n))
                rhs = float(np.dot(cross3(d1, d2), n))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_global_condition_identities(self, rng):
        for _ in range(50):
            seg = random_segment(rng)
            pl = make_plane(rng)
            proj = project_segment(seg, pl)
            n = pl.normal
            p0, q0 = seg.point(0.0), proj.point(0.0)
            d1_start, e1_start = seg.derivatives(0.0)[0], proj.derivatives(0.0)[0]
            for u in np.linspace(0.1, 1.0, 7):
                rel, rel_p = seg.point(float(u)) - p0, proj.point(float(u)) - q0
                d1, e1 = seg.derivatives(float(u))[0], proj.derivatives(float(u))[0]
                lhs = float(np.dot(cross3(rel_p, e1), n))
                rhs = float(np.dot(cross3(rel, d1), n))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
                lhs2 = float(np.dot(cross3(e1_start, rel_p), n))
                rhs2 = float(np.dot(cross3(d1_start, rel), n))
                assert abs(lhs2 - rhs2) <= 1e-10 * max(1.0, abs(rhs2))
