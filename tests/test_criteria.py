import math

import numpy as np
import pytest

from shapespline import (
    CubicSegment,
    DataPolygon,
    SplineConfig,
    Tolerances,
    analyze,
    build_spline,
    catmull_rom_tangents,
    check_adjacency_compat,
    check_collinearity_cubic,
    check_collinearity_extended,
    check_convexity_cubic,
    check_convexity_sampled,
    check_coplanarity_cubic,
    check_inflection_cubic,
    check_torsion_compat,
    check_torsion_cubic,
    cross3,
    sine_angle,
    triple,
)
from shapespline.geometry import cross_rows, dot_rows, norm_rows, sine_rows
from shapespline.planar import convex_control_polygon, intersect_lines, planar_cubic_inflection
from conftest import random_rotation, random_segment, vec3

TOL = Tolerances()


def middle_segment(points, tension=0.5):
    """Catmull-Rom middle segment of a 4-point polygon, with its two end
    binormals and span twist."""
    poly = DataPolygon(points)
    tangents = catmull_rom_tangents(poly, tension)
    seg = CubicSegment(poly.points[1], poly.points[2], tangents[1], tangents[2], 1.0)
    return seg, poly.binormals[0], poly.binormals[1], float(poly.torsions[0])


CONVEX_PLANAR = [(0, 0, 0), (1, 1, 0), (2, 1, 0), (3, 0, 0)]
S_PLANAR = [(0, 0, 0), (2, 1, 0), (4, -1, 0), (6, 0, 0)]


def random_convex_instance(rng):
    """Random ConvexData instance: jittered convex-ish data, jittered
    Catmull-Rom tangents, resampled until the qualifying condition holds."""
    while True:
        pts = np.asarray(CONVEX_PLANAR, dtype=float)
        pts += rng.uniform(-0.35, 0.35, pts.shape)
        try:
            poly = DataPolygon(pts)
        except ValueError:
            continue
        b_prev, b_cur = poly.binormals[0], poly.binormals[1]
        floor = np.linalg.norm(b_prev) * np.linalg.norm(b_cur)
        if floor == 0 or np.dot(b_prev, b_cur) <= 0.05 * floor:
            continue
        tangents = catmull_rom_tangents(poly, float(rng.uniform(0.3, 0.9)))
        m0 = tangents[1] * rng.uniform(0.6, 1.4) + rng.uniform(-0.4, 0.4, 3)
        m1 = tangents[2] * rng.uniform(0.6, 1.4) + rng.uniform(-0.4, 0.4, 3)
        if min(np.linalg.norm(m0), np.linalg.norm(m1)) < 0.2:
            continue
        seg = CubicSegment(poly.points[1], poly.points[2], m0, m1, float(rng.uniform(0.5, 2.0)))
        return seg, b_prev, b_cur


class TestConvexitySampled:
    def quarter_arc(self):
        # planar segment bending left (counterclockwise) seen from +z
        return CubicSegment(vec3(0, 0, 0), vec3(2, 0, 0), vec3(1, -1, 0), vec3(1, 1, 0), 1.0)

    def test_orientation_match(self):
        seg = self.quarter_arc()
        assert check_convexity_sampled(seg, vec3(0, 0, 1), 256)

    def test_orientation_reversal(self):
        seg = self.quarter_arc()
        assert not check_convexity_sampled(seg, vec3(0, 0, -1), 256)

    def test_interior_inflection_fails(self):
        # S-shaped: curvature along +z flips sign mid-span
        seg = CubicSegment(vec3(0, 0, 0), vec3(4, 0, 0), vec3(1, 2, 0), vec3(1, 2, 0), 1.0)
        c0, _, c2 = seg.curvature_quad()
        assert c0[2] * c2[2] < 0
        assert not check_convexity_sampled(seg, vec3(0, 0, 1), 256)
        assert not check_convexity_sampled(seg, vec3(0, 0, -1), 256)

    def test_orientation_covariance(self, rng):
        # for curves with strictly signed conditions, negating N flips the verdict
        for _ in range(20):
            seg, b_prev, b_cur = random_convex_instance(rng)
            if check_convexity_sampled(seg, b_prev, 128):
                omega_min = float(dot_rows(cross_rows(*seg.derivatives(np.linspace(0.05, 0.95, 31))[:2]), b_prev).min())
                if omega_min > 1e-6:
                    assert not check_convexity_sampled(seg, -b_prev, 128)


class TestConvexityCubic:
    def test_planar_convex_catmull_rom_passes(self):
        seg, b_prev, b_cur, _ = middle_segment(CONVEX_PLANAR)
        verdict = check_convexity_cubic(seg, b_prev, b_cur, TOL)
        assert verdict.applicable and verdict.passed
        assert check_convexity_sampled(seg, b_prev, 512)
        assert check_convexity_sampled(seg, b_cur, 512)

    def test_flipped_tangent_fails(self):
        seg, b_prev, b_cur, _ = middle_segment(CONVEX_PLANAR)
        flipped = CubicSegment(seg.p0, seg.p3, -seg.m0, seg.m1, seg.h)
        verdict = check_convexity_cubic(flipped, b_prev, b_cur, TOL)
        assert verdict.applicable and not verdict.passed
        assert not (
            check_convexity_sampled(flipped, b_prev, 512)
            and check_convexity_sampled(flipped, b_cur, 512)
        )

    def test_opposing_normals_not_applicable(self):
        seg, b_prev, b_cur, _ = middle_segment(S_PLANAR)
        verdict = check_convexity_cubic(seg, b_prev, b_cur, TOL)
        assert not verdict.applicable and verdict.passed is None

    def test_reversed_orientation_detected_not_passed(self):
        # convex data turning left, segment arching the other way: convex
        # as a curve, but oriented against the data normals
        pts = [(-1, 1, 0), (0, 0, 0), (1, 0, 0), (2, 1, 0)]
        poly = DataPolygon(pts)
        seg = CubicSegment(
            poly.points[1], poly.points[2], vec3(0.1, 1, 0), vec3(-0.3, -1, 0), 1.0
        )
        verdict = check_convexity_cubic(seg, poly.binormals[0], poly.binormals[1], TOL)
        assert verdict.applicable and not verdict.passed
        assert verdict.diagnostics["reversed_orientation_prev"] == 1.0
        assert not check_convexity_sampled(seg, poly.binormals[0], 256)

    def test_passed_implies_sampled_conditions(self, rng):
        passed = 0
        for _ in range(200):
            seg, b_prev, b_cur = random_convex_instance(rng)
            verdict = check_convexity_cubic(seg, b_prev, b_cur, TOL)
            if verdict.applicable and verdict.passed:
                passed += 1
                assert check_convexity_sampled(seg, b_prev, 200)
                assert check_convexity_sampled(seg, b_cur, 200)
        assert passed >= 20


class TestInflectionCubic:
    def test_planar_s_catmull_rom_passes(self):
        seg, b_prev, b_cur, _ = middle_segment(S_PLANAR)
        verdict = check_inflection_cubic(seg, b_prev, b_cur, TOL)
        assert verdict.applicable and verdict.passed
        for n_vec in (b_prev, b_cur):
            vals = dot_rows(cross_rows(*seg.derivatives(np.linspace(0, 1, 512))[:2]), n_vec)
            tol = 1e-9 * np.abs(vals).max()
            vals[np.abs(vals) <= tol] = 0.0
            from shapespline import sign_changes

            assert sign_changes(vals) == 1

    def test_convex_data_not_applicable(self):
        seg, b_prev, b_cur, _ = middle_segment(CONVEX_PLANAR)
        assert not check_inflection_cubic(seg, b_prev, b_cur, TOL).applicable

    def test_passed_implies_single_flip_for_mixed_normals(self, rng):
        from shapespline import sign_changes

        seg, b_prev, b_cur, _ = middle_segment(S_PLANAR)
        assert check_inflection_cubic(seg, b_prev, b_cur, TOL).passed
        for _ in range(32):
            lam = rng.uniform(0.1, 1.0)
            mu = -rng.uniform(0.1, 1.0)
            if rng.uniform() < 0.5:
                lam, mu = -lam, -mu
            n_mix = lam * b_prev + mu * b_cur
            vals = dot_rows(cross_rows(*seg.derivatives(np.linspace(0, 1, 512))[:2]), n_mix)
            tol = 1e-9 * np.abs(vals).max()
            vals[np.abs(vals) <= tol] = 0.0
            assert sign_changes(vals) == 1

    def test_degenerate_quadratic_never_passes(self, rng):
        # cubic with vanishing third derivative = degree-elevated quadratic:
        # its start and end curvature coefficients coincide, so the four
        # sign conditions are unsatisfiable
        for _ in range(30):
            q0 = rng.uniform(-2, 2, 3)
            q1 = rng.uniform(-2, 2, 3)
            q2 = rng.uniform(-2, 2, 3)
            if np.linalg.norm(q2 - q0) < 0.3:
                continue
            seg = CubicSegment.from_bezier(
                q0, (q0 + 2 * q1) / 3.0, (2 * q1 + q2) / 3.0, q2, 1.0
            )
            c0, _, c2 = seg.curvature_quad()
            assert np.allclose(c0, c2, atol=1e-10)
            for _ in range(5):
                n_prev = rng.uniform(-2, 2, 3)
                n_cur = -n_prev + rng.uniform(-0.2, 0.2, 3)
                verdict = check_inflection_cubic(seg, n_prev, n_cur, TOL)
                assert not verdict.applicable or not verdict.passed


class TestTorsionCubic:
    def test_catmull_rom_always_passes(self, rng):
        for _ in range(50):
            l_prev, l_mid, l_next = (rng.uniform(-2, 2, 3) for _ in range(3))
            delta = triple(l_prev, l_mid, l_next)
            floor = np.prod([np.linalg.norm(v) for v in (l_prev, l_mid, l_next)])
            if np.linalg.norm(l_mid) < 0.3 or abs(delta) < 0.05 * max(floor, 1e-9):
                continue
            tension = float(rng.uniform(0.2, 1.5))
            seg = CubicSegment(
                vec3(0, 0, 0), l_mid, tension * (l_prev + l_mid), tension * (l_mid + l_next), 1.0
            )
            verdict = check_torsion_cubic(seg, delta, TOL)
            assert verdict.applicable and verdict.passed
            assert verdict.diagnostics["product"] > 0

    def test_reflected_tangent_fails(self, rng):
        for _ in range(20):
            l_prev, l_mid, l_next = (rng.uniform(-2, 2, 3) for _ in range(3))
            delta = triple(l_prev, l_mid, l_next)
            floor = np.prod([np.linalg.norm(v) for v in (l_prev, l_mid, l_next)])
            if np.linalg.norm(l_mid) < 0.3 or abs(delta) < 0.05 * max(floor, 1e-9):
                continue
            m0, m1 = l_prev + l_mid, l_mid + l_next
            n = cross3(m0, l_mid)
            n /= np.linalg.norm(n)
            m1_reflected = m1 - 2.0 * float(np.dot(m1, n)) * n
            seg = CubicSegment(vec3(0, 0, 0), l_mid, m0, m1_reflected, 1.0)
            assert triple(m0, l_mid, m1_reflected) == pytest.approx(
                -triple(m0, l_mid, m1), rel=1e-9, abs=1e-12
            )
            verdict = check_torsion_cubic(seg, delta, TOL)
            assert verdict.applicable and not verdict.passed

    def test_coplanar_not_applicable(self, rng):
        seg = random_segment(rng)
        assert not check_torsion_cubic(seg, 0.0, TOL).applicable


class TestCollinearityCubic:
    def test_chord_aligned_tangents_pass(self):
        chord = vec3(2, 1, 0.5)
        seg = CubicSegment(vec3(0, 0, 0), chord, chord / 1.0, chord / 1.0, 1.0)
        verdict = check_collinearity_cubic(seg, chord, 1.5 * chord, Tolerances(eps_collinear=1e-6))
        assert verdict.applicable and verdict.passed
        assert verdict.diagnostics["sup_sine"] <= 1e-12

    def test_tilted_tangent_fails(self):
        chord = vec3(1, 0, 0)
        alpha = math.asin(0.2)
        m0 = vec3(math.cos(alpha), math.sin(alpha), 0)
        verdict = check_collinearity_cubic(
            CubicSegment(vec3(0, 0, 0), chord, m0, chord, 1.0),
            chord,
            chord,
            Tolerances(eps_collinear=0.1),
        )
        assert verdict.applicable and not verdict.passed
        assert verdict.diagnostics["sup_sine"] == pytest.approx(0.2, rel=1e-9)

    def test_not_applicable_without_collinear_chords(self, rng):
        seg = random_segment(rng)
        verdict = check_collinearity_cubic(seg, vec3(1, 0, 0), vec3(0, 1, 0), TOL)
        assert not verdict.applicable

    def test_curve_sup_bounded_by_control_sup(self, rng):
        # hull bound: the sampled tangent sine never exceeds the control sup
        checked = 0
        while checked < 100:
            seg = random_segment(rng)
            l_dir = seg.chord
            ctrl = (seg.m0, (3.0 / seg.h) * seg.chord - seg.m0 - seg.m1, seg.m1)
            if any(np.dot(p, l_dir) <= 0.05 for p in ctrl):
                continue
            control_sup = max(sine_angle(p, l_dir) for p in ctrl)
            sampled_sup = sine_rows(seg.derivatives(np.linspace(0, 1, 512))[0], l_dir).max()
            assert sampled_sup <= control_sup + 1e-12
            checked += 1


class TestCoplanarityCubic:
    def test_exactly_planar_passes(self, rng):
        for _ in range(10):
            seg = random_segment(rng)
            flat = CubicSegment(
                seg.p0 * [1, 1, 0], seg.p3 * [1, 1, 0], seg.m0 * [1, 1, 0], seg.m1 * [1, 1, 0], seg.h
            )
            n = vec3(0, 0, 1)
            verdict = check_coplanarity_cubic(flat, n, 2 * n, 0.0, Tolerances(eps_coplanar=1e-6))
            assert verdict.applicable and verdict.passed

    def test_lifted_tangent_fails(self):
        # lift m1 out of plane until the end curvature coefficient tilts by
        # sine 0.3 from the plane normal
        base = CubicSegment(vec3(0, 0, 0), vec3(2, 0, 0), vec3(1, 1, 0), vec3(1, -1, 0), 1.0)
        n = vec3(0, 0, 1)
        lo, hi = 0.0, 4.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            seg = CubicSegment(base.p0, base.p3, base.m0, base.m1 + vec3(0, 0, mid), base.h)
            s = sine_angle(seg.curvature_quad()[2], n)
            lo, hi = (mid, hi) if s < 0.3 else (lo, mid)
        seg = CubicSegment(base.p0, base.p3, base.m0, base.m1 + vec3(0, 0, 0.5 * (lo + hi)), base.h)
        assert sine_angle(seg.curvature_quad()[2], n) == pytest.approx(0.3, abs=1e-6)
        verdict = check_coplanarity_cubic(seg, n, n, 0.0, Tolerances(eps_coplanar=0.1))
        assert verdict.applicable and not verdict.passed
        assert verdict.diagnostics["sup_sine"] >= 0.3 - 1e-9

    def test_in_plane_tangent_decomposition_passes(self, rng):
        # tangents expressed with positive coefficients over the data plane
        # chords keep the segment in the plane
        for _ in range(20):
            l_prev = np.append(rng.uniform(-2, 2, 2), 0.0)
            l_mid = np.append(rng.uniform(-2, 2, 2), 0.0)
            l_next = np.append(rng.uniform(-2, 2, 2), 0.0)
            if np.linalg.norm(l_mid) < 0.4:
                continue
            a1, b1, a2, b2 = rng.uniform(0.2, 1.5, 4)
            m0 = a1 * l_mid + b1 * l_prev
            m1 = a2 * l_mid + b2 * l_next
            if min(np.linalg.norm(m0), np.linalg.norm(m1)) < 0.2:
                continue
            seg = CubicSegment(vec3(0, 0, 0), l_mid, m0, m1, 1.0)
            n = vec3(0, 0, 1)
            verdict = check_coplanarity_cubic(seg, n, n, 0.0, TOL)
            assert verdict.applicable and verdict.passed
            basis = np.column_stack([l_mid, l_prev])
            (alpha, beta), *_ = np.linalg.lstsq(basis, m0, rcond=None)
            assert alpha == pytest.approx(a1, rel=1e-8) and beta == pytest.approx(b1, rel=1e-8)
            assert np.linalg.norm(m0 - basis @ [alpha, beta]) <= 1e-10

    def test_g_sup_bounds_sampled_binormal_sine(self, rng):
        # hull bound on the curvature coefficients vs sampled curvature
        checked = 0
        n = vec3(0, 0, 1)
        while checked < 50:
            seg = random_segment(rng)
            coeffs = seg.curvature_quad()
            if any(np.linalg.norm(g) < 0.1 for g in coeffs):
                continue
            if any(np.dot(g, n) <= 0.05 * np.linalg.norm(g) for g in coeffs):
                continue
            control_sup = max(sine_angle(g, n) for g in coeffs)
            w = cross_rows(*seg.derivatives(np.linspace(0, 1, 512))[:2])
            w = w[norm_rows(w) >= 1e-12]
            assert np.all(sine_rows(w, n) <= control_sup + 1e-12)
            checked += 1


class TestCollinearityExtended:
    def build(self, points, **tol_kwargs):
        poly = DataPolygon(points)
        cfg = SplineConfig(tolerances=Tolerances(**tol_kwargs))
        return build_spline(poly, cfg), cfg

    def test_straight_line_passes_trivially(self):
        pts = [(k, 0, 0) for k in range(5)]
        spline, cfg = self.build(pts)
        for j in (1, 2, 3):
            (verdict,) = check_collinearity_extended(spline, [j], cfg.tolerances)
            assert verdict.applicable and verdict.passed
            assert verdict.diagnostics["sup_sine"] <= 1e-12

    def test_convex_neighbourhood_catmull_rom(self):
        # Catmull-Rom keeps the tangent sine inside the bound and always
        # interpolates the flat vertex (reported, not failed); the full
        # modified criteria generally need tangents deviating from
        # Catmull-Rom, so the overall verdict is not asserted here
        pts = [(0, 0.5, 0), (1, 0.2, 0), (2, 0, 0), (3, -0.2, 0), (4, -0.35, 0)]
        poly = DataPolygon(pts)
        assert float(np.dot(poly.binormals[0], poly.binormals[2])) > 0
        spline, cfg = self.build(pts, eps_collinear=0.1)
        (verdict,) = check_collinearity_extended(spline, [2], cfg.tolerances)
        assert verdict.applicable
        assert verdict.diagnostics["sup_sine"] < 0.1
        assert verdict.diagnostics["interpolates_vertex"] == 1.0

    def test_inflection_neighbourhood_with_tilted_tangent(self):
        # tangent at the flat vertex tilted off the chord (within the sine
        # bound) concentrates the bending flip exactly at the vertex
        pts = [(0, 0.5, 0), (1, 0.2, 0), (2, 0, 0), (3, -0.2, 0), (4, -0.5, 0)]
        poly = DataPolygon(pts)
        assert float(np.dot(poly.binormals[0], poly.binormals[2])) < 0
        tangents = np.array(
            [
                [2.0, -0.6, 0.0],
                [1.0, -0.25, 0.0],
                [1.0, -0.1, 0.0],
                [1.0, -0.25, 0.0],
                [2.0, -0.6, 0.0],
            ]
        )
        from shapespline import TangentMode

        cfg = SplineConfig(
            tangent_mode=TangentMode.PROVIDED, tolerances=Tolerances(eps_collinear=0.2)
        )
        spline = build_spline(poly, cfg, provided_tangents=tangents)
        (verdict,) = check_collinearity_extended(spline, [2], cfg.tolerances)
        assert verdict.applicable and verdict.passed
        assert verdict.diagnostics["flip_count_prev"] == 1.0
        assert verdict.diagnostics["flip_count_next"] == 1.0
        t_vertex = spline.knots[2]
        assert verdict.diagnostics["flip_location_prev"] == pytest.approx(t_vertex, abs=0.05)

    def test_not_applicable_off_collinear_vertex(self):
        spline, cfg = self.build(CONVEX_PLANAR)
        (verdict,) = check_collinearity_extended(spline, [1], cfg.tolerances)
        assert not verdict.applicable

    def test_rejects_a_zero_threshold_other_than_the_polygons(self):
        # vertex 1 turns by a sine of 1e-7: collinear at eps_zero 1e-6 but
        # not at the polygon's default 1e-9; every vertex raises as analyze does
        pts = [[0, 0, 0], [1, 0, 0], [2, 1e-7, 0], [3, 1, 0.2], [4, 1, 1]]
        spline, _ = self.build(pts)
        cfg = SplineConfig(tolerances=Tolerances(eps_zero=1e-6))
        with pytest.raises(ValueError) as via_analyze:
            analyze(spline, cfg)
        assert "eps_zero 1e-09" in str(via_analyze.value)
        for vertex in (1, 2, 3):
            with pytest.raises(ValueError) as direct:
                check_collinearity_extended(spline, [vertex], cfg.tolerances)
            assert str(direct.value) == str(via_analyze.value)


class TestAdjacencyCompat:
    def joint(self, tangent, l_prev=(1, 0, 0), l_cur=(0, 1, 0)):
        l_prev, l_cur = vec3(*l_prev), vec3(*l_cur)
        p_start = -l_prev
        p_mid = vec3(0, 0, 0)
        p_end = l_cur
        m = vec3(*tangent)
        prev_seg = CubicSegment(p_start, p_mid, l_prev, m, 1.0)
        next_seg = CubicSegment(p_mid, p_end, m, l_cur, 1.0)
        return prev_seg, next_seg, cross3(l_prev, l_cur), l_prev, l_cur

    def test_bisector_tangent_passes(self):
        verdict = check_adjacency_compat(*self.joint((1, 1, 0)))
        assert verdict.applicable and verdict.passed

    def test_tangent_along_incoming_chord_fails(self):
        verdict = check_adjacency_compat(*self.joint((1, 0, 0)))
        assert verdict.applicable and not verdict.passed

    def test_catmull_rom_tangent_always_passes(self, rng):
        for _ in range(200):
            l_prev = rng.uniform(-2, 2, 3)
            l_cur = rng.uniform(-2, 2, 3)
            n = cross3(l_prev, l_cur)
            if np.linalg.norm(n) < 0.05 * np.linalg.norm(l_prev) * np.linalg.norm(l_cur):
                continue
            verdict = check_adjacency_compat(*self.joint(l_prev + l_cur, l_prev, l_cur))
            assert verdict.applicable and verdict.passed

    def test_non_c1_joint_rejected(self):
        prev_seg, next_seg, n, l_prev, l_cur = self.joint((1, 1, 0))
        broken = CubicSegment(next_seg.p0, next_seg.p3, vec3(3, -1, 0), next_seg.m1, 1.0)
        with pytest.raises(ValueError):
            check_adjacency_compat(prev_seg, broken, n, l_prev, l_cur)

    def test_collinear_joint_not_applicable(self):
        prev_seg, next_seg, _, l_prev, l_cur = self.joint((1, 0, 0), (1, 0, 0), (1, 0, 0))
        verdict = check_adjacency_compat(prev_seg, next_seg, vec3(0, 0, 0), l_prev, l_cur)
        assert not verdict.applicable


class TestTorsionCompat:
    def test_zero_torsion_escape(self):
        verdict = check_torsion_compat(1.0, -1.0, 0.0, 0.0, TOL)
        assert verdict.applicable and verdict.passed

    def test_equal_nonzero_joint_torsions_fail(self):
        verdict = check_torsion_compat(1.0, -1.0, 0.7, 0.7, TOL)
        assert verdict.applicable and not verdict.passed
        assert verdict.diagnostics["torsion_discontinuous"] == 0.0

    def test_discontinuous_torsion_reported_and_passes(self):
        verdict = check_torsion_compat(1.0, -1.0, 0.7, -0.4, TOL)
        assert verdict.applicable and verdict.passed
        assert verdict.diagnostics["torsion_discontinuous"] == 1.0

    def test_same_sign_twists_compatible(self):
        verdict = check_torsion_compat(1.0, 2.0, 0.5, 0.8, TOL)
        assert verdict.applicable and verdict.passed
        verdict = check_torsion_compat(1.0, 2.0, -0.5, 0.8, TOL)
        assert verdict.applicable and not verdict.passed

    def test_vanishing_twist_not_applicable(self):
        assert not check_torsion_compat(0.0, 1.0, 0.5, 0.5, TOL).applicable


def ratio_family(ratio, leg=3.0 * math.sqrt(2)):
    """Planar cubics whose control polygon turns through more than pi,
    parameterized by |B-A||C-D| / |B-P||C-P|."""
    p = np.array([0.5, 0.5])
    v1 = np.array([1.0, 1.0]) / math.sqrt(2)
    v2 = np.array([-1.0, 1.0]) / math.sqrt(2)
    s = leg / math.sqrt(ratio)
    return p + (s - leg) * v1, p + s * v1, p + s * v2, p + (s - leg) * v2


class TestPlanarCubicInflection:
    def test_convex_control_polygon(self):
        a, b, c, d = (np.array(q, float) for q in [(0, 0), (1, 1), (2, 1), (3, 0)])
        assert planar_cubic_inflection(a, b, c, d) == 0

    def test_regular_s_polygon_bounded_by_polygon_count(self):
        a, b, c, d = (np.array(q, float) for q in [(0, 0), (1, 1), (2, -1), (3, 0)])
        from shapespline.planar import PolyArc2, is_regular_arc, planar_inflection_count

        arc = PolyArc2([a, b, c, d])
        assert is_regular_arc(arc)
        count = planar_cubic_inflection(a, b, c, d)
        assert count <= planar_inflection_count(arc) == 1

    @pytest.mark.parametrize("ratio,expected", [(2, 0), (3.5, 0), (3.9, 0), (4.1, 2), (4.5, 2), (8, 2)])
    def test_ratio_rule_vs_curvature_scan(self, ratio, expected):
        from shapespline.planar import _planar_curvature_changes

        a, b, c, d = ratio_family(ratio)
        assert planar_cubic_inflection(a, b, c, d) == expected
        assert _planar_curvature_changes(a, b, c, d, 2048, 1e-9) == expected

    def test_parallel_end_lines_rejected(self):
        # two interior turns each below pi cannot wind past pi and leave
        # the end legs parallel, so the only reachable parallel case is a
        # degenerate polygon with pi vertex turns
        a, b, c, d = (np.array(q, float) for q in [(0, 0), (3, 0), (0.1, 0), (5, 0)])
        from shapespline.planar import PolyArc2, is_regular_arc

        assert not is_regular_arc(PolyArc2([a, b, c, d]))
        with pytest.raises(ValueError):
            planar_cubic_inflection(a, b, c, d)


class TestIntersectLines:
    def test_axis_aligned_against_2x2_solver(self):
        p0, p1 = vec3(0, 0, 0), vec3(1, 0, 0)
        p2, p3 = vec3(0.3, 1, 0), vec3(0.3, -1, 0)
        n = vec3(0, 0, 1)
        s, t, sbar, tbar = intersect_lines(p0, p1, p2, p3, n)
        # oracle: solve [e1, -e2] [s, t]^T = p3 - p0 in the plane
        mat = np.column_stack([(p1 - p0)[:2], (p2 - p3)[:2]])
        rhs = (p3 - p0)[:2]
        s_ref, neg_t_ref = np.linalg.solve(mat, rhs)
        assert s == pytest.approx(s_ref)
        assert t == pytest.approx(-neg_t_ref)
        point_a = p0 + (p1 - p0) * s
        point_b = p3 + (p2 - p3) * t
        assert np.allclose(point_a, point_b, atol=1e-10)
        assert np.allclose(point_a, [0.3, 0, 0])

    def test_random_coplanar_quads(self, rng):
        for _ in range(100):
            rot = random_rotation(rng)
            shift = rng.uniform(-2, 2, 3)
            flat = rng.uniform(-2, 2, (4, 2))
            pts = np.column_stack([flat, np.zeros(4)]) @ rot.T + shift
            n = rot @ np.array([0.0, 0.0, 1.0])
            e1, e2 = flat[1] - flat[0], flat[2] - flat[3]
            den = e1[0] * e2[1] - e1[1] * e2[0]
            if abs(den) < 1e-3:
                continue
            s, t, sbar, tbar = intersect_lines(*pts, n)
            mat = np.column_stack([e1, e2])
            s_ref, t_ref = np.linalg.solve(mat, flat[3] - flat[0])
            assert s == pytest.approx(s_ref, rel=1e-8, abs=1e-10)
            assert t == pytest.approx(-t_ref, rel=1e-8, abs=1e-10)
            recon_a = pts[0] + (pts[1] - pts[0]) * s
            recon_b = pts[3] + (pts[2] - pts[3]) * t
            assert np.linalg.norm(recon_a - recon_b) <= 1e-10 * max(1.0, np.linalg.norm(recon_a))
            assert np.allclose(pts[1] + (pts[0] - pts[1]) * sbar, recon_a, atol=1e-8)
            assert np.allclose(pts[2] + (pts[3] - pts[2]) * tbar, recon_a, atol=1e-8)

    def test_shared_endpoint(self):
        p1 = vec3(1, 1, 0)
        s, t, sbar, tbar = intersect_lines(vec3(0, 0, 0), p1, vec3(2, 0, 0), p1, vec3(0, 0, 1))
        assert s == pytest.approx(1.0)
        assert np.allclose(vec3(0, 0, 0) + p1 * s, p1)

    def test_parallel_lines_rejected(self):
        with pytest.raises(ValueError):
            intersect_lines(
                vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0), vec3(1, 1, 0), vec3(0, 0, 1)
            )

    def test_noncoplanar_rejected(self):
        with pytest.raises(ValueError):
            intersect_lines(
                vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 1), vec3(1, 1, 0), vec3(0, 0, 1)
            )


def brute_force_convex_arc(p0, p1, p2, p3, n_vec):
    """Independent convexity test: equal turn signs and neither extended
    end line crossing the opposite leg."""
    t1 = triple(p1 - p0, p2 - p1, n_vec)
    t2 = triple(p2 - p1, p3 - p2, n_vec)
    if t1 * t2 <= 0:
        return False

    def line_hits_segment(a0, a1, b0, b1):
        # intersection parameter of segment [b0, b1] with the infinite
        # line through a0, a1, solved in the dominant plane
        d_line, d_seg = a1 - a0, b1 - b0
        mat = np.column_stack([d_line, -d_seg])
        rhs = b0 - a0
        sol, res, rank, _ = np.linalg.lstsq(mat, rhs, rcond=None)
        if rank < 2 or np.linalg.norm(mat @ sol - rhs) > 1e-9:
            return False
        return -1e-12 <= sol[1] <= 1.0 + 1e-12

    if line_hits_segment(p0, p1, p2, p3):
        return False
    if line_hits_segment(p2, p3, p0, p1):
        return False
    return True


class TestConvexControlPolygon:
    def test_square_corner(self):
        assert convex_control_polygon(
            vec3(0, 0, 0), vec3(1, 0, 0), vec3(1, 1, 0), vec3(0, 1, 0), vec3(0, 0, 1)
        )

    def test_reflex_turn(self):
        assert not convex_control_polygon(
            vec3(0, 0, 0), vec3(1, 0, 0), vec3(2, 1, 0), vec3(3, 0, 0), vec3(0, 0, 1)
        )

    def test_against_brute_force(self, rng):
        agree = 0
        for _ in range(300):
            flat = rng.uniform(-2, 2, (4, 2))
            pts = np.column_stack([flat, np.zeros(4)])
            edges = np.diff(pts, axis=0)
            if np.min(np.linalg.norm(edges, axis=1)) < 0.2:
                continue
            n = vec3(0, 0, 1)
            # skip near-degenerate gates where eps classification may
            # legitimately differ from the exact-arithmetic brute force
            checks = [
                triple(pts[1] - pts[0], pts[2] - pts[3], n),
                triple(pts[1] - pts[0], pts[2] - pts[1], n),
                triple(pts[2] - pts[1], pts[3] - pts[2], n),
                triple(pts[0] - pts[1], pts[3] - pts[0], n),
                triple(pts[3] - pts[0], pts[2] - pts[3], n),
            ]
            if min(abs(v) for v in checks) < 1e-3:
                continue
            assert convex_control_polygon(*pts, n) == brute_force_convex_arc(*pts, n)
            agree += 1
        assert agree >= 150


class TestGoldenViewpointExamples:
    """Two fixed cubic segments over convex-qualifying data, probed along
    specific view directions.  'Convex seen from a viewpoint' is projective
    (a rendering cannot distinguish orientation), so the oriented sampled
    check is asserted along whichever sign of the direction qualifies."""

    def test_short_rise_segment_fails_required_normals(self):
        seg = CubicSegment.from_bezier([0, 0, 0], [3, 1, 0.5], [-2, 1, 4.5], [0, 0, 5], 1.0)
        n1 = np.array([1.5, -1.5, 0.0])
        n2 = np.array([2.0, 1.0, 0.0])
        view = np.array([-10.0, 0.0, 1.0])
        # not convex along either data binormal (either orientation) ...
        for n_vec in (n1, n2):
            assert not check_convexity_sampled(seg, n_vec, 512)
            assert not check_convexity_sampled(seg, -n_vec, 512)
        # ... yet convex seen from an unrelated viewpoint
        assert check_convexity_sampled(seg, -view, 512)
        verdict = check_convexity_cubic(seg, n1, n2)
        assert verdict.applicable and not verdict.passed

    def test_tall_rise_segment_convex_only_near_required_normals(self):
        seg = CubicSegment.from_bezier([0, 0, 0], [1, 1, 0.5], [-2, 3, 9.5], [0, 0, 10], 1.0)
        n1 = np.array([30.0, -30.0, 0.0])
        n2 = np.array([40.0, 20.0, 0.0])
        assert check_convexity_sampled(seg, n1, 512)
        assert check_convexity_sampled(seg, n2, 512)
        assert check_convexity_cubic(seg, n1, n2).passed
        assert check_convexity_sampled(seg, np.array([7.458, -1.863, -3.506]), 512)
        assert check_convexity_sampled(seg, -np.array([-17.458, 1.863, 23.506]), 512)
        # tilted far enough, the projections stop being convex either way
        for view in ([-7.458, 6.863, 33.506], [-7.458, 30.863, 33.506]):
            w = np.array(view)
            assert not check_convexity_sampled(seg, w, 512)
            assert not check_convexity_sampled(seg, -w, 512)

    def test_tall_rise_segment_two_flips_along_tilted_viewpoint(self):
        from shapespline.oracle import curvature_samples
        from shapespline import sign_changes

        seg = CubicSegment.from_bezier([0, 0, 0], [1, 1, 0.5], [-2, 3, 9.5], [0, 0, 10], 1.0)
        w = np.array([-7.458, 6.863, 33.506])
        omegas, floors = curvature_samples(seg.bezier_points[None], 2048, [seg.h])
        vals = omegas[0] @ w
        band = 1e-9 * floors[0] * np.linalg.norm(w)
        vals = np.where(np.abs(vals) <= band, 0.0, vals)
        assert sign_changes(vals) == 2


class TestInvariances:
    def battery(self, seg, b_prev, b_cur, delta, tol=TOL):
        return (
            check_convexity_cubic(seg, b_prev, b_cur, tol),
            check_inflection_cubic(seg, b_prev, b_cur, tol),
            check_torsion_cubic(seg, delta, tol),
            check_coplanarity_cubic(seg, b_prev, b_cur, delta, tol),
        )

    def test_uniform_scaling_preserves_verdicts(self, rng):
        for _ in range(40):
            seg, b_prev, b_cur = random_convex_instance(rng)
            delta = triple(b_prev, b_cur, seg.chord)
            base = self.battery(seg, b_prev, b_cur, delta)
            for lam in (0.01, 7.3, 1e3):
                scaled_seg = CubicSegment(
                    lam * seg.p0, lam * seg.p3, lam * seg.m0, lam * seg.m1, seg.h
                )
                scaled = self.battery(
                    scaled_seg, lam * lam * b_prev, lam * lam * b_cur, lam**3 * delta
                )
                for v0, v1 in zip(base, scaled):
                    assert (v0.applicable, v0.passed) == (v1.applicable, v1.passed)

    def test_rigid_motion_preserves_verdicts(self, rng):
        for _ in range(40):
            seg, b_prev, b_cur = random_convex_instance(rng)
            delta = triple(b_prev, b_cur, seg.chord)
            base = self.battery(seg, b_prev, b_cur, delta)
            rot = random_rotation(rng)
            shift = rng.uniform(-5, 5, 3)
            moved_seg = CubicSegment(
                rot @ seg.p0 + shift, rot @ seg.p3 + shift, rot @ seg.m0, rot @ seg.m1, seg.h
            )
            moved = self.battery(moved_seg, rot @ b_prev, rot @ b_cur, delta)
            for v0, v1 in zip(base, moved):
                assert (v0.applicable, v0.passed) == (v1.applicable, v1.passed)
                for key, val in v0.diagnostics.items():
                    assert v1.diagnostics[key] == pytest.approx(val, rel=1e-9, abs=1e-9)
