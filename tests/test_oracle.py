import math

import numpy as np
import pytest

from shapespline import CubicSegment, DataPolygon, Plane, SplineConfig, build_spline
from shapespline.geometry import lattice_directions
from shapespline.oracle import (
    _DIP_RHS,
    _witness_directions,
    curvature_samples,
    decasteljau,
    decasteljau_derivatives,
    projected_inflection_count,
    projected_inflection_counts,
    sampled_convexity,
    sampled_global_convexity,
)
from shapespline.planar import PolyArc2, planar_inflection_count
from shapespline.polygon import _BLOCK_ENTRIES, _blocks
from conftest import (
    bench_gen,
    finite_diff_derivatives,
    looped_sphere_directions,
    random_nonplanar_segment,
    random_segment,
    ref_projected_inflection_count,
    ref_sampled_global_convexity,
    ref_witness_candidates,
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
            d1, d2, d3 = decasteljau_derivatives(ctrl[None], np.array([u]), [seg.h])
            f1, f2, f3 = finite_diff_derivatives(lambda v: decasteljau(ctrl[None], np.array([v]))[0, 0], u, 1e-4)
            assert np.allclose(d1[0, 0] * seg.h, f1, rtol=1e-6, atol=1e-6)
            assert np.allclose(d2[0, 0] * seg.h**2, f2, rtol=1e-4, atol=1e-4)
            assert np.allclose(d3[0] * seg.h**3, f3, rtol=1e-3, atol=1e-3)


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
                    np.cross(*(d[0, 0] for d in decasteljau_derivatives(proj.bezier_points[None], np.array([u]), [proj.h])[:2]))
                    for u in np.linspace(0, 1, 257)
                ]
            )
            vals = omegas @ n
            tol = 1e-9 * max(np.abs(vals).max(), 1e-300)
            vals[np.abs(vals) <= tol] = 0.0
            from shapespline import sign_changes

            assert sign_changes(vals) == direct


def family_spline(family: str, n: int):
    points = bench_gen.FAMILIES[family](np.random.default_rng([n, len(family)]), n)
    return build_spline(DataPolygon(points), SplineConfig())


def singular_witness_systems(spline, samples: int) -> list:
    """The segments whose dip systems ``np.linalg.solve`` rejects."""
    omegas, _ = curvature_samples(spline.nets, samples, spline.widths)
    singular = []
    for k, picks in enumerate(omegas[:, [0, samples // 2, -1]]):
        try:
            np.linalg.solve(np.broadcast_to(picks, (3, 3, 3)), _DIP_RHS)
        except np.linalg.LinAlgError:
            singular.append(k)
    return singular


class TestProjectedInflectionCounts:
    """The batched search against the one-segment reference: the lattice
    and the segment's own witnesses, one block of directions at a time."""

    @pytest.mark.parametrize("samples", [8, 128])
    @pytest.mark.parametrize("directions", [16, 512, 2048])
    @pytest.mark.parametrize("n", [12, 60])
    @pytest.mark.parametrize("family", ["helix", "scurve", "polyline"])
    def test_matches_the_per_segment_search(self, family, n, directions, samples):
        spline = family_spline(family, n)
        counts = projected_inflection_counts(spline.nets, spline.widths, directions, samples)
        ref = [
            ref_projected_inflection_count(ctrl, h, directions, samples)
            for ctrl, h in zip(spline.nets, spline.widths.tolist())
        ]
        assert counts.tolist() == ref

    def test_inputs_hold_singular_witness_systems(self):
        # a planar S-curve makes every dip system singular; the polylines
        # mix singular systems into a batch of regular ones, which a
        # batched solve rejects as a whole
        for n in (12, 60):
            scurve = family_spline("scurve", n)
            assert singular_witness_systems(scurve, 128) == list(range(len(scurve.nets)))
            polyline = family_spline("polyline", n)
            singular = singular_witness_systems(polyline, 128)
            assert 0 < len(singular) < len(polyline.nets)

    @pytest.mark.parametrize("family", ["helix", "scurve", "polyline"])
    def test_a_singular_system_drops_only_its_own_dips(self, family):
        # the batch's nonzero witness rows are, segment by segment, the
        # unit candidates of the one-segment search
        spline = family_spline(family, 60)
        omegas, _ = curvature_samples(spline.nets, 128, spline.widths)
        rows = _witness_directions(omegas)
        for k, om in enumerate(omegas):
            ref = looped_sphere_directions(16, extra=ref_witness_candidates(om))[22:]
            assert np.array_equal(rows[k][rows[k].any(axis=1)], ref[ref.any(axis=1)])

    def test_nearly_straight_segments(self):
        # planar S-bends of lateral size a: below half the dead band a
        # segment is not searched, just above the band it counts its flip
        ratios, counts, refs = [], [], []
        for a in [0.0, *np.logspace(-11, -7, 17)]:
            net = np.array([[0, 0, 0], [0.1, a, 0], [0.5, -a, 0], [1, 0, 0]], dtype=float)
            omegas, floors = curvature_samples(net[None], 128, [1.0])
            ratios.append(float((np.linalg.norm(omegas[0], axis=1) / (1e-9 * floors[0])).max()))
            counts.append(int(projected_inflection_counts(net[None], [1.0], 512, 128)[0]))
            refs.append(ref_projected_inflection_count(net, 1.0, 512, 128))
        assert counts == refs
        assert any(1.0 < r < 2.0 and c == 1 for r, c in zip(ratios, counts))
        assert counts[0] == 0 and max(counts) == 1

    def test_a_one_row_tail_joins_the_block_before_it(self):
        # 507 directions make a 513-row lattice: blocks of 128 rows leave a
        # one-row tail, whose product would go through a matrix-vector kernel
        lattice, samples = lattice_directions(507), 128
        rows = max(2, _BLOCK_ENTRIES // samples)
        assert len(lattice) % rows == 1
        assert min(b - a for a, b in _blocks(len(lattice), rows)) >= 2
        for family in ("helix", "scurve", "polyline"):
            spline = family_spline(family, 12)
            counts = projected_inflection_counts(spline.nets, spline.widths, 507, samples)
            ref = [
                ref_projected_inflection_count(ctrl, h, 507, samples)
                for ctrl, h in zip(spline.nets, spline.widths.tolist())
            ]
            assert counts.tolist() == ref

    def test_one_net_is_the_batch_row(self):
        spline = family_spline("helix", 12)
        counts = projected_inflection_counts(spline.nets, spline.widths, 512, 64).tolist()
        assert counts == [
            projected_inflection_count(ctrl, h, 512, 64) for ctrl, h in zip(spline.nets, spline.widths.tolist())
        ]

    def test_rejects_too_few_directions(self):
        spline = family_spline("helix", 12)
        with pytest.raises(ValueError, match="at least 16 directions"):
            projected_inflection_counts(spline.nets, spline.widths, 15, 64)


class TestStackedNets:
    """A stack of nets evaluates each net as a stack of that net alone
    does, bit for bit."""

    def test_decasteljau_and_derivatives(self, rng):
        nets = rng.normal(size=(7, 4, 3)) * 10.0 ** rng.uniform(-6, 6, (7, 1, 1))
        widths = 10.0 ** rng.uniform(-3, 3, 7)
        us, at = np.sort(rng.uniform(0.0, 1.0, 37)), np.array([0.3])
        d1, d2, d3 = decasteljau_derivatives(nets, us, widths)
        p1, p2, p3 = decasteljau_derivatives(nets, at, widths)
        points, point = decasteljau(nets, us), decasteljau(nets, at)
        for k, (ctrl, h) in enumerate(zip(nets, widths.tolist())):
            one = decasteljau_derivatives(ctrl[None], us, [h])
            assert np.array_equal(d1[k], one[0][0]) and np.array_equal(d2[k], one[1][0])
            assert np.array_equal(d3[k], one[2][0])
            one = decasteljau_derivatives(ctrl[None], at, [h])
            assert np.array_equal(p1[k], one[0][0]) and np.array_equal(p2[k], one[1][0])
            assert np.array_equal(p3[k], one[2][0])
            assert np.array_equal(points[k], decasteljau(ctrl[None], us)[0])
            assert np.array_equal(point[k], decasteljau(ctrl[None], at)[0])
        omegas, floors = curvature_samples(nets, 37, widths)
        for k, (ctrl, h) in enumerate(zip(nets, widths.tolist())):
            one = curvature_samples(ctrl[None], 37, [h])
            assert np.array_equal(omegas[k], one[0][0]) and np.array_equal(floors[k], one[1][0])

    def test_sampled_convexity_matches_the_one_curve_reference(self, rng):
        spline = family_spline("helix", 20)
        us = np.linspace(0.0, 1.0, 64)
        points = decasteljau(spline.nets, us)
        # with a spiral of 1.5 turns, which turns one way but crosses its
        # starting tangent line, and a half circle
        ts = np.linspace(0.0, 3.0 * math.pi, 64)
        spiral = (1.0 + 0.15 * ts)[:, None] * np.column_stack([np.cos(ts), np.sin(ts), np.zeros_like(ts)])
        points = np.concatenate([points, [spiral, arc_samples(1.0, math.pi, 64)]])
        normals = rng.normal(size=(len(points), 2, 3))
        normals[::3, 0] = spline.polygon.binormals[0]
        normals[-2:, 1] = [0.0, 0.0, 1.0]
        convex = sampled_convexity(points, normals, 1e-9)
        assert convex.any() and not convex.all() and convex[-2:, 1].tolist() == [False, True]
        for pts, nvs, got in zip(points, normals, convex.tolist()):
            for nv, g in zip(nvs, got):
                assert g == ref_sampled_global_convexity(pts, nv, 1e-9)
                assert sampled_global_convexity(pts, nv) == g


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
    """``n`` points of a circular arc of ``radius`` over the angle ``span``."""
    ts = np.linspace(0.0, span, n)
    pts = np.column_stack(
        [radius * np.cos(ts), orientation * radius * np.sin(ts), np.zeros(n)]
    )
    return pts


class TestSampledGlobalConvexity:
    def test_half_circle_arc(self):
        points = arc_samples(1.0, math.pi, 64)
        assert sampled_global_convexity(points, vec3(0, 0, 1))

    def test_reversed_orientation_fails(self):
        points = arc_samples(1.0, math.pi, 64)
        assert not sampled_global_convexity(points, vec3(0, 0, -1))

    def test_spiral_violates_support_condition(self):
        # Archimedean spiral, 1.5 turns: locally convex everywhere but the
        # curve crosses its own support lines
        ts = np.linspace(0.0, 3.0 * math.pi, 256)
        r = 1.0 + 0.15 * ts
        pts = np.column_stack([r * np.cos(ts), r * np.sin(ts), np.zeros_like(ts)])
        assert not sampled_global_convexity(pts, vec3(0, 0, 1))

    def test_needs_enough_samples(self):
        points = arc_samples(1.0, math.pi, 5)
        with pytest.raises(ValueError):
            sampled_global_convexity(points, vec3(0, 0, 1))


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
