import json
from pathlib import Path

import numpy as np
import pytest

from shapespline import (
    Criterion,
    DataPolygon,
    Parameterization,
    SplineConfig,
    TangentMode,
    Tolerances,
    analyze,
    build_spline,
    sample_spline,
    triple,
)
from shapespline.segment import net_fault
from shapespline.criteria import Rows
from shapespline.polygon import FLAG_BITS, FLAG_SETS, span_codes
from shapespline.spline import SplineReport
from conftest import (
    collinear_polyline,
    finite_diff_derivatives,
    noisy_helix,
    planar_scurve,
    random_noncoplanar_polygon,
    random_polygon,
    ref_report_dict,
    spline_segments,
)


def cfg_with(**kwargs):
    return SplineConfig(**kwargs)


class TestBuild:
    def test_collinear_points_give_straight_line(self):
        poly = DataPolygon([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        spline = build_spline(poly)
        direction = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        assert np.allclose(np.cross(spline.tangents[1], direction), 0.0, atol=1e-12)
        for _, t, pos, omega, _ in sample_spline(spline, 17):
            assert np.allclose(np.cross(pos, direction), 0.0, atol=1e-12)
            assert np.allclose(omega, 0.0, atol=1e-12)

    def test_square_wave_c1(self):
        pts = [(0, 0, 0), (1, 1, 0), (2, 0, 0), (3, 1, 0), (4, 0, 0)]
        poly = DataPolygon(pts)
        spline = build_spline(poly, cfg_with(parameterization=Parameterization.UNIFORM))
        for i in range(1, poly.n_segments):
            segs = spline_segments(spline)
            gap = np.linalg.norm(segs[i - 1].m1 - segs[i].m0)
            assert gap == 0.0

    def test_chord_vs_uniform_torsion_rescaling(self, rng):
        poly = random_noncoplanar_polygon(rng, 6)
        chord = build_spline(poly, cfg_with(parameterization=Parameterization.CHORD_LENGTH))
        unif = build_spline(poly, cfg_with(parameterization=Parameterization.UNIFORM))
        chord_segs, unif_segs = spline_segments(chord), spline_segments(unif)
        for sc, su in zip(chord_segs, unif_segs):
            assert np.array_equal(sc.m0, su.m0) and np.array_equal(sc.m1, su.m1)
        # the one-row API reproduces the spline's own nets
        for spline, segs in ((chord, chord_segs), (unif, unif_segs)):
            for seg, net, h in zip(segs, spline.nets, spline.widths):
                assert np.array_equal(seg.bezier_points, net) and seg.h == h
        # interior segments have a twist bounded away from zero
        for i in range(2, poly.n_segments):
            sc, su = chord_segs[i - 1], unif_segs[i - 1]
            ratio = sc.torsion_numerator() / su.torsion_numerator()
            assert ratio == pytest.approx((su.h / sc.h) ** 4, rel=1e-9)

    def test_provided_tangent_count_checked(self):
        poly = DataPolygon([(0, 0, 0), (1, 0, 0), (2, 1, 0)])
        with pytest.raises(ValueError):
            build_spline(
                poly,
                cfg_with(tangent_mode=TangentMode.PROVIDED),
                provided_tangents=[[1, 0, 0], [1, 0, 0]],
            )
        with pytest.raises(ValueError):
            build_spline(poly, cfg_with(tangent_mode=TangentMode.PROVIDED))

    def test_explicit_knots(self):
        poly = DataPolygon([(0, 0, 0), (1, 0, 0), (2, 1, 0)])
        spline = build_spline(poly, knots=[0.0, 2.0, 3.5])
        segs = spline_segments(spline)
        assert segs[0].h == 2.0
        assert segs[1].h == 1.5
        with pytest.raises(ValueError):
            build_spline(poly, knots=[0.0, 2.0, 2.0])

    def test_build_faults_name_the_segment(self):
        poly = DataPolygon([(k, 0.5 * k * k, 0) for k in range(5)])
        tangents = [[1.0, 0.0, 0.0]] * 5
        # a tangent so long that the chord of segment 4 is rounding noise
        # beside its control polygon
        tangents[4] = [1e12, 0.0, 0.0]
        with pytest.raises(ValueError, match="^segment 4: endpoints coincide$"):
            build_spline(poly, cfg_with(tangent_mode=TangentMode.PROVIDED), provided_tangents=tangents)
        # the first faulty row, with the first of its faults
        chords, widths = np.eye(3), np.array([1.0, 0.0, -1.0])
        assert net_fault(1e12 * chords, chords, chords, widths) == (0, "endpoints coincide")
        assert net_fault(chords, chords, chords, widths) == (1, "parameter width must be positive, got 0.0")

    def test_endpoint_tangents_one_sided(self):
        poly = DataPolygon([(0, 0, 0), (1, 0, 0), (2, 1, 0)])
        spline = build_spline(poly, cfg_with(tension=0.5))
        assert np.allclose(spline.tangents[0], 2 * 0.5 * poly.chords[0])
        assert np.allclose(spline.tangents[2], 2 * 0.5 * poly.chords[1])


class TestCatmullRomIdentities:
    def test_torsion_identity_tension_squared(self, rng):
        for tension in (0.25, 0.5, 1.0):
            for _ in range(20):
                poly = random_noncoplanar_polygon(rng, 6)
                spline = build_spline(poly, cfg_with(tension=tension))
                segs = spline_segments(spline)
                for i in range(2, poly.n_segments):
                    seg = segs[i - 1]
                    t = triple(seg.m0, seg.chord, seg.m1)
                    expected = tension**2 * poly.torsions[i - 2]
                    assert t == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_torsion_verdicts_tension_invariant(self, rng):
        poly = random_noncoplanar_polygon(rng, 6)
        verdicts = []
        for tension in (0.25, 0.5, 1.0):
            spline = build_spline(poly, cfg_with(tension=tension))
            report = analyze(spline, cfg_with(tension=tension))
            verdicts.append(
                [
                    (v["applicable"], v["passed"])
                    for s in report.to_dict()["segments"]
                    for v in s["verdicts"]
                    if v["criterion"] == Criterion.TORSION.value
                ]
            )
        assert verdicts[0] == verdicts[1] == verdicts[2]
        assert all(passed for _, passed in verdicts[0])


class TestClosure:
    def test_coplanar_data_stays_in_plane(self, rng):
        for _ in range(10):
            flat = rng.uniform(-2, 2, (6, 2))
            try:
                poly = DataPolygon(np.column_stack([flat, np.zeros(6)]))
            except ValueError:
                continue
            spline = build_spline(poly)
            bbox = np.linalg.norm(poly.points.max(0) - poly.points.min(0))
            for _, _, pos, _, _ in sample_spline(spline, 33):
                assert abs(pos[2]) < 1e-10 * bbox

    def test_collinear_data_stays_on_line(self, rng):
        direction = np.array([2.0, -1.0, 0.5])
        direction /= np.linalg.norm(direction)
        base = np.array([1.0, 1.0, 1.0])
        ts = np.sort(rng.uniform(0, 5, 5))
        pts = base + np.outer(ts, direction)
        poly = DataPolygon(pts)
        spline = build_spline(poly)
        for _, _, pos, _, _ in sample_spline(spline, 33):
            rel = pos - base
            assert np.linalg.norm(rel - np.dot(rel, direction) * direction) < 1e-10


class TestAnalyze:
    def test_noncoplanar_catmull_rom_passes_torsion(self, rng):
        for _ in range(10):
            poly = random_noncoplanar_polygon(rng, 5)
            cfg = cfg_with()
            report = analyze(build_spline(poly, cfg), cfg)
            torsion = [
                v
                for s in report.to_dict()["segments"]
                for v in s["verdicts"]
                if v["criterion"] == Criterion.TORSION.value
            ]
            assert torsion and all(v["passed"] for v in torsion)

    def test_planar_data_coplanarity_applicable_and_passing(self):
        pts = [(0, 0, 0), (1, 1, 0), (2, 1, 0), (3, 0, 0), (4, -2, 0)]
        poly = DataPolygon(pts)
        cfg = cfg_with()
        report = analyze(build_spline(poly, cfg), cfg)
        coplanar = [
            v
            for s in report.to_dict()["segments"]
            for v in s["verdicts"]
            if v["criterion"] == Criterion.COPLANARITY.value
        ]
        assert coplanar and all(v["applicable"] and v["passed"] for v in coplanar)
        assert all(v["diagnostics"]["sup_sine"] <= 1e-10 for v in coplanar)

    def test_collinear_vertex_collinearity_applicable_zero_sine(self):
        pts = [(0, 1, 0), (1, 0.5, 0), (2, 0, 0), (3, -0.5, 0), (4, -1.5, 0)]
        poly = DataPolygon(pts)
        assert poly.classes.collinear[1]
        cfg = cfg_with()
        report = analyze(build_spline(poly, cfg), cfg)
        collinear = [
            (s["index"], v)
            for s in report.to_dict()["segments"]
            for v in s["verdicts"]
            if v["criterion"] == Criterion.COLLINEARITY.value
        ]
        assert collinear
        # Catmull-Rom tangent at the flat vertex is exactly chordal: the
        # vertex-side derivative control points contribute zero sine
        for seg_index, v in collinear:
            assert v["applicable"]
            key = "sine_p0_prev" if seg_index == 3 else "sine_p2_prev"
            assert v["diagnostics"][key] <= 1e-12

    def test_report_flags_match_classification(self, rng):
        poly = random_polygon(rng, 6)
        cfg = cfg_with()
        report = analyze(build_spline(poly, cfg), cfg)
        from shapespline import ShapeFlag, classify_vertex

        for s in report.to_dict()["segments"]:
            assert frozenset(map(ShapeFlag, s["flags"])) == classify_vertex(poly, s["index"])

    def test_summary_counts_the_verdict_objects(self, rng):
        collinear = DataPolygon([(0, 1, 0), (1, 0.5, 0), (2, 0, 0), (3, -0.5, 0), (4, -1.5, 0)])
        polygons = [collinear, random_polygon(rng, 9), random_noncoplanar_polygon(rng, 8), random_polygon(rng, 2)]
        for poly in polygons:
            cfg = cfg_with()
            report = analyze(build_spline(poly, cfg), cfg)
            data = report.to_dict()
            verdicts = [v["collinearity_extended"] for v in data["vertices"]]
            verdicts += [v for s in data["segments"] for v in s["verdicts"]]
            verdicts += [j[key] for j in data["joints"] for key in ("adjacency", "torsion_compat")]
            counts = {}
            for v in filter(None, verdicts):
                entry = counts.setdefault(v["criterion"], {"applicable": 0, "passed": 0, "failed": 0})
                if v["applicable"]:
                    entry["applicable"] += 1
                    entry["passed" if v["passed"] else "failed"] += 1
            all_passed = all(v["passed"] for v in filter(None, verdicts) if v["applicable"])
            assert report.summary == {"criteria": counts, "all_passed": all_passed}

    def test_report_determinism(self, rng):
        poly = random_noncoplanar_polygon(rng, 7)
        cfg = cfg_with()
        a = json.dumps(analyze(build_spline(poly, cfg), cfg).to_dict(), sort_keys=True)
        b = json.dumps(analyze(build_spline(poly, cfg), cfg).to_dict(), sort_keys=True)
        assert a == b

    def test_rejects_a_zero_threshold_other_than_the_polygons(self):
        # vertex 1 turns by a sine of 1e-7: collinear at eps_zero 1e-6 but
        # not at the polygon's default 1e-9, which would classify it
        pts = [[0, 0, 0], [1, 0, 0], [2, 1e-7, 0], [3, 1, 0.2], [4, 1, 1]]
        cfg = SplineConfig(tolerances=Tolerances(eps_zero=1e-6))
        with pytest.raises(ValueError, match=r"eps_zero 1e-09 .*eps_zero 1e-06"):
            analyze(build_spline(DataPolygon(pts)), cfg)
        report = analyze(build_spline(DataPolygon(pts, eps_zero=1e-6)), cfg)
        assert report.to_dict()["vertices"][0]["collinear"]
        assert report.to_dict()["vertices"][0]["collinearity_extended"]["applicable"]


FIXTURES = Path(__file__).parent / "fixtures"
BATTERY = (Criterion.CONVEXITY, Criterion.INFLECTION, Criterion.TORSION, Criterion.COPLANARITY)


def report_polygons(rng) -> list:
    """The fixtures' points and a few random ``noisy_helix``,
    ``planar_scurve`` and ``collinear_polyline`` documents."""
    docs = [json.loads(p.read_text())["points"] for p in sorted(FIXTURES.glob("*.json"))]
    for n in (5, 9, 16):
        docs += [noisy_helix(rng, n), planar_scurve(rng, n), collinear_polyline(rng, n // 2, 2)]
    return [DataPolygon(points) for points in docs]


class TestOneRowPerVerdict:
    """Each criterion runs on the rows the report prints, and on no other."""

    def test_every_batch_has_one_row_per_entry(self, rng):
        for poly in report_polygons(rng):
            report = analyze(build_spline(poly))
            assert len(report.segment_rows) == 5 and len(report.joint_rows) == 2
            for rows, entries in report.segment_rows + report.joint_rows:
                assert len(rows.applicable) == len(rows.passed) == len(entries)
                for name, col in rows.columns.items():
                    assert len(col) == len(rows.present[name]) == len(entries)

    def test_entries_are_the_qualifying_spans_and_joints(self, rng):
        for poly in report_polygons(rng):
            n, eps = poly.n_segments, poly.eps_zero
            report = analyze(build_spline(poly))
            codes = span_codes(poly, np.arange(1, n + 1)).tolist()
            for criterion, flag, (rows, entries) in zip(BATTERY, FLAG_BITS, report.segment_rows):
                assert rows.criterion is criterion
                assert entries == [i for i in range(2, n) if flag in FLAG_SETS[codes[i - 1]]]
            _, norms, floors, _, collinear, _ = poly.classes
            (adjacency, joints), (compat, compat_joints) = report.joint_rows
            assert adjacency.criterion is Criterion.ADJACENCY_COMPAT
            assert joints == [j for j in range(1, n) if norms[j - 1] > eps * floors[j - 1]]
            assert compat.criterion is Criterion.TORSION_COMPAT and compat_joints == list(range(2, n - 1))
            # segment i once per collinear end vertex
            ends = [False, *collinear.tolist(), False]
            want = [i for i in range(1, n + 1) for j in (i - 1, i) if ends[j]]
            assert report.segment_rows[4][1] == want

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0, 0), (1, 2, 3)],
            [(0, 0, 0), (1, 0.5, 0), (2, 0, 0.5)],
            [(0, 0, 0), (1, 1, 1), (2, 2, 2), (4, 4, 4)],
        ],
    )
    def test_short_and_straight_polygons_give_empty_battery_batches(self, points):
        report = analyze(build_spline(DataPolygon(points)))
        for rows, entries in report.segment_rows[:4]:
            assert entries == [] and len(rows.applicable) == 0
        assert report.to_dict() == ref_report_dict(report)
        assert set(report.summary["criteria"]).isdisjoint(c.value for c in BATTERY)


def tiny_width_knots(rng, n: int, width: float) -> np.ndarray:
    """Knots of ``n`` segments, of width 1 but for a run of one or two
    random segments of ``width``; the run starts at knot 0, where such a
    width is representable."""
    widths = np.ones(n)
    start = int(rng.integers(0, n))
    widths[start : start + int(rng.integers(1, 3))] = width
    knots = np.zeros(n + 1)
    knots[:start] = -np.arange(start, 0, -1)
    knots[start + 1 :] = np.cumsum(widths[start:])
    return knots


def _outcome(run) -> str | None:
    try:
        run()
    except ValueError as exc:
        return str(exc)
    return None


class TestNonFiniteOrder:
    """``analyze`` names the first non-finite diagnostic that the verdict
    objects of ``ref_report_dict`` raise for, building them segment by
    segment, then joint by joint."""

    # criterion keys that name where the first non-finite cell lies
    BATTERY = ("normal_dot", "a_", "b_", "c_", "c0_dot", "c2_dot", "tangent_triple", "sine_c", "normal_norm")
    JOINT = ("tau_joint", "delta_prev", "delta_cur", "vertex_normal_norm", "projected_tangent_norm")
    VERTEX = ("curvature_sign", "wedge_product", "flip_", "neighbourhood")

    def where(self, message) -> str:
        if message is None:
            return "finite"
        key = message.split("'")[1]
        for place, keys in (("battery", self.BATTERY), ("joint", self.JOINT), ("vertex", self.VERTEX)):
            if key.startswith(keys):
                return place
        return "collinearity" if key.startswith("sine_p") else key

    def check(self, monkeypatch, points, knots) -> str:
        spline = build_spline(DataPolygon(points), cfg_with(), knots=knots)
        with monkeypatch.context() as m:
            # the report unchecked, as the reference walk reads it; a vertex
            # verdict raises while it is built, in both
            m.setattr(SplineReport, "check_finite", lambda self: None)
            want = _outcome(lambda: ref_report_dict(analyze(spline, cfg_with())))
        got = _outcome(lambda: analyze(spline, cfg_with()))
        assert got == want
        return self.where(want)

    def test_seeded_tiny_widths(self, rng, monkeypatch):
        places = set()
        with np.errstate(all="ignore"):
            for k in range(45):
                n = int(rng.integers(6, 14))
                points = (noisy_helix(rng, n), planar_scurve(rng, n), collinear_polyline(rng, 4, 2))[k % 3]
                knots = tiny_width_knots(rng, len(points) - 1, (1e-90, 1e-160)[k // 3 % 2])
                places.add(self.check(monkeypatch, points, knots))
        assert places == {"finite", "battery", "joint", "vertex"}

    def test_random_cells_of_hand_built_columns(self, rng):
        # every batch of a 9-segment report, one row per entry, with random
        # battery spans and adjacency joints and a few non-finite cells; the
        # column names tell the batches apart
        n = 9

        def batch(criterion, tag, entries):
            size = len(entries)
            applicable = rng.random(size) < 0.7
            names = [f"{tag}{k}" for k in range(3)]
            columns = {name: rng.normal(size=size) for name in names}
            for col in columns.values():
                col[rng.random(size) < 0.04] = rng.choice([np.nan, np.inf, -np.inf])
            rows = Rows(criterion, applicable, applicable & (rng.random(size) < 0.5), columns, head=1)
            return rows, entries

        def subset(size):
            return np.flatnonzero(rng.random(size) < 0.6)

        places = set()
        for _ in range(300):
            segment_rows = []
            for tag, criterion in enumerate((Criterion.CONVEXITY, Criterion.INFLECTION, Criterion.TORSION)):
                segment_rows.append(batch(criterion, f"s{tag}_", (subset(n - 2) + 2).tolist()))
            segments = np.sort(rng.integers(1, n + 1, 6))
            segment_rows.append(batch(Criterion.COLLINEARITY, "c_", segments.tolist()))
            joint_rows = [
                batch(Criterion.ADJACENCY_COMPAT, "a_", (subset(n - 1) + 1).tolist()),
                batch(Criterion.TORSION_COMPAT, "t_", list(range(2, n - 1))),
            ]
            vertices = (np.ones((n - 1, 3)), [False] * (n - 1), {})
            report = SplineReport(*vertices, [0] * n, [1.0] * (n - 2), segment_rows, joint_rows)
            want = _outcome(lambda: ref_report_dict(report))
            assert _outcome(report.check_finite) == want
            places.add(want and want.split("'")[1][0])
        assert places == {None, "s", "c", "a", "t"}

    def test_collinearity_row(self, monkeypatch):
        # a width whose 3/h overflows: the middle hodograph point of segment
        # 1 is inf times the chord's zero components, a NaN that its
        # collinearity bound at vertex 1 reports.  Widths of 1e-90 and
        # 1e-160 never get there: a control vector whose norm overflows is
        # masked out of the bound.
        points = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 1, 0], [4, 3, 1]]
        with np.errstate(all="ignore"):
            assert self.check(monkeypatch, points, [0, 1e-310, 1, 2, 3]) == "collinearity"


class TestSampleSpline:
    def test_two_point_endpoints(self):
        poly = DataPolygon([(0, 0, 0), (1, 2, 3)])
        spline = build_spline(poly)
        rows = sample_spline(spline, 2)
        assert len(rows) == 2
        assert np.allclose(rows[0][2], [0, 0, 0])
        assert np.allclose(rows[1][2], [1, 2, 3])

    def test_row_count(self, rng):
        poly = random_polygon(rng, 5)
        assert len(sample_spline(build_spline(poly), 9)) == poly.n_segments * 9

    def test_straight_line_zero_curvature(self):
        poly = DataPolygon([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        for _, _, _, omega, _ in sample_spline(build_spline(poly), 9):
            assert np.allclose(omega, 0.0, atol=1e-14)

    def test_curvature_matches_finite_differences(self, rng):
        poly = random_polygon(rng, 5)
        spline = build_spline(poly)
        for i, seg in enumerate(spline_segments(spline), start=1):
            h = seg.h
            curve = lambda u: seg.point(u)
            for u in (0.3, 0.6):
                # step balances d1 truncation (~step^2 |d3|) against d2
                # roundoff (~eps/step^2)
                d1, d2, _ = finite_diff_derivatives(curve, u, 1e-4)
                omega_fd = np.cross(d1 / h, d2 / h**2)
                omega = np.cross(*seg.derivatives(u)[:2])
                scale = max(np.linalg.norm(omega), 1.0)
                assert np.linalg.norm(omega_fd - omega) <= 1e-6 * scale

    def test_min_samples(self):
        poly = DataPolygon([(0, 0, 0), (1, 0, 0)])
        with pytest.raises(ValueError):
            sample_spline(build_spline(poly), 1)
