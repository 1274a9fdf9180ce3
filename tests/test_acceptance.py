"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is pinned here, not configurable.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from shapespline import (
    CubicSegment,
    DataPolygon,
    Plane,
    SplineConfig,
    analyze,
    build_spline,
    catmull_rom_tangents,
    check_convexity_cubic,
    check_convexity_sampled,
    check_inflection_cubic,
    check_torsion_compat,
    ShapeFlag,
    Criterion,
    sine_angle,
    sign_changes,
    triple,
)
from shapespline.planar import _planar_curvature_changes, planar_cubic_inflection
from shapespline.oracle import projected_inflection_count
from shapespline.cli import main as cli_main
from shapespline.geometry import dot_rows, norm_rows, sine_rows
from conftest import (
    random_nonplanar_segment,
    random_noncoplanar_polygon,
    random_rotation,
    random_segment,
)

FIXTURES = Path(__file__).parent / "fixtures"
ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number:2d} {detail}")
    assert ok, f"criterion {number}: {detail}"


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = cli_main([str(a) for a in argv] + ["--out", str(out)])
    return code, json.loads(out.read_text())


def parallel_to(v, ref, tol=1e-12):
    v = np.asarray(v, float)
    ref = np.asarray(ref, float)
    cr = np.linalg.norm(np.cross(v, ref))
    return cr <= tol * np.linalg.norm(v) * np.linalg.norm(ref) and np.dot(v, ref) > 0


def test_criterion_01_example1_measures(tmp_path):
    start = time.perf_counter()
    code, doc = run_cli(tmp_path, "measures", FIXTURES / "example1.json")
    elapsed = time.perf_counter() - start
    binormals = {e["vertex"]: np.array(e["v"]) for e in doc["binormals"]}
    ok = (
        code == 0
        and parallel_to(binormals[1], [1.5, -1.5, 0.0])
        and parallel_to(binormals[2], [2.0, 1.0, 0.0])
        and float(np.dot(binormals[1], binormals[2])) > 0
        and "convex" in [s for s in doc["spans"] if s["index"] == 2][0]["flags"]
        and elapsed < 1.0
    )
    report(1, ok, f"(example-1 measures, {elapsed * 1e3:.0f} ms)")


def test_criterion_02_example2_measures(tmp_path):
    start = time.perf_counter()
    code, doc = run_cli(tmp_path, "measures", FIXTURES / "example2.json")
    elapsed = time.perf_counter() - start
    binormals = {e["vertex"]: e["v"] for e in doc["binormals"]}
    dot = float(np.dot(binormals[1], binormals[2]))
    ok = (
        code == 0
        and binormals[1] == [30.0, -30.0, 0.0]
        and np.allclose(binormals[2], [40.0, 20.0, 0.0], atol=0.0)
        and dot == 600.0
        and "convex" in [s for s in doc["spans"] if s["index"] == 2][0]["flags"]
        and elapsed < 1.0
    )
    report(2, ok, f"(example-2 measures, dot={dot:g}, {elapsed * 1e3:.0f} ms)")


def test_criterion_03_projection_identities(rng):
    us = np.linspace(0.0, 1.0, 33)
    worst = 0.0
    for _ in range(1000):
        seg = random_segment(rng)
        normal = rng.uniform(-2, 2, 3)
        if np.linalg.norm(normal) < 0.3:
            normal += np.array([0.5, 0.0, 0.0])
        pl = Plane(normal, float(rng.uniform(-2, 2)))
        proj = seg.project(pl)
        n = pl.normal
        d1, d2, _ = seg.derivatives(us)
        e1, e2, _ = proj.derivatives(us)
        rel_d = seg.point(us) - seg.point(0.0)
        rel_e = proj.point(us) - proj.point(0.0)
        pairs = [
            (dot_rows(np.cross(e1, e2), n), dot_rows(np.cross(d1, d2), n)),
            (dot_rows(np.cross(rel_e, e1), n), dot_rows(np.cross(rel_d, d1), n)),
            (dot_rows(np.cross(e1[0], rel_e), n), dot_rows(np.cross(d1[0], rel_d), n)),
        ]
        for lhs, rhs in pairs:
            err = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
            worst = max(worst, err.max())
    ok = worst <= 1e-9
    report(3, ok, f"(1000 segment/plane pairs, worst rel err {worst:.2e})")


def test_criterion_04_torsion_constancy(rng):
    us = np.linspace(0.0, 1.0, 33)
    worst_spread, worst_err = 0.0, 0.0
    for _ in range(1000):
        seg = random_segment(rng)
        tau = seg.torsion_numerator()
        mag = (
            12.0
            / seg.h**4
            * np.linalg.norm(seg.m0)
            * np.linalg.norm(seg.chord)
            * np.linalg.norm(seg.m1)
        )
        d1, d2, d3 = seg.derivatives(us)
        dets = dot_rows(np.cross(d1, d2), d3)
        # cancellation floor: dets are differences of terms of size ~mag
        scale = max(np.abs(dets).max(), 1e-4 * mag)
        worst_spread = max(worst_spread, (dets.max() - dets.min()) / scale)
        worst_err = max(worst_err, np.abs(dets - tau).max() / scale)
    ok = worst_spread <= 1e-9 and worst_err <= 1e-9
    report(4, ok, f"(1000 segments, spread {worst_spread:.2e}, err {worst_err:.2e})")


def test_criterion_05_catmull_rom_torsion(rng):
    worst = 0.0
    all_pass = True
    any_torsion = 0
    for _ in range(200):
        poly = random_noncoplanar_polygon(rng, 6)
        for tension in (0.25, 0.5, 1.0):
            cfg = SplineConfig(tension=tension)
            spline = build_spline(poly, cfg)
            rep = analyze(spline, cfg)
            for seg_rep in rep.segments:
                flags = seg_rep.flags
                if ShapeFlag.TORSION not in flags:
                    continue
                verdicts = [
                    v for v in seg_rep.verdicts if v.criterion is Criterion.TORSION
                ]
                any_torsion += len(verdicts)
                all_pass = all_pass and all(v.applicable and v.passed for v in verdicts)
                i = seg_rep.index
                if 2 <= i <= poly.n_segments - 1:
                    seg = spline.segments[i - 1]
                    t = triple(seg.m0, seg.chord, seg.m1)
                    expected = tension**2 * poly.span_torsion(i)
                    worst = max(worst, abs(t - expected) / max(abs(expected), 1e-300))
    ok = all_pass and worst <= 1e-10 and any_torsion >= 200 * 3 * 3
    report(
        5,
        ok,
        f"(200 datasets x 3 tensions, {any_torsion} torsion verdicts, worst id err {worst:.2e})",
    )


def ratio_family(ratio, leg=3.0 * math.sqrt(2)):
    p = np.array([0.5, 0.5])
    v1 = np.array([1.0, 1.0]) / math.sqrt(2)
    v2 = np.array([-1.0, 1.0]) / math.sqrt(2)
    s = leg / math.sqrt(ratio)
    return p + (s - leg) * v1, p + s * v1, p + s * v2, p + (s - leg) * v2


def test_criterion_06_ratio_four_rule():
    results = {}
    for ratio in (2.0, 3.5, 3.9, 4.1, 4.5, 8.0):
        a, b, c, d = ratio_family(ratio)
        closed = planar_cubic_inflection(a, b, c, d)
        scan = _planar_curvature_changes(a, b, c, d, 2048, 1e-9)
        expected = 0 if ratio <= 4.0 else 2
        results[ratio] = (closed, scan, expected)
    ok = all(closed == scan == exp for closed, scan, exp in results.values())
    report(6, ok, f"(ratio sweep {sorted(results)}: closed==scan for all)")


def test_criterion_07_negative_results(rng):
    exact_two = 0
    at_least_one = True
    for _ in range(100):
        seg = random_nonplanar_segment(rng)
        count = projected_inflection_count(seg, 2048)
        at_least_one = at_least_one and count >= 1
        exact_two += count == 2
    arcs_ok = True
    from shapespline import spatial_arc_inflection_count

    for _ in range(100):
        while True:
            pts = rng.uniform(-2, 2, (4, 3))
            try:
                poly = DataPolygon(pts)
            except ValueError:
                continue
            floor = poly.chord_length(1) * poly.chord_length(2) * poly.chord_length(3)
            if abs(poly.span_torsion(2)) > 0.05 * floor:
                break
        arcs_ok = arcs_ok and spatial_arc_inflection_count(poly, 2048) == 1
    ok = at_least_one and exact_two >= 98 and arcs_ok
    report(7, ok, f"(segments: {exact_two}/100 count 2, all >= 1; 4-point arcs all == 1)")


def make_inflection_instance(rng):
    """Jittered S-shaped data with Catmull-Rom tangents, resampled until
    the middle segment qualifies and satisfies the four sign conditions."""
    base = np.array([(0, 0, 0), (2, 1, 0), (4, -1, 0), (6, 0, 0)], dtype=float)
    while True:
        pts = base + rng.uniform(-0.45, 0.45, base.shape)
        try:
            poly = DataPolygon(pts)
        except ValueError:
            continue
        b_prev, b_cur = poly.binormal(1), poly.binormal(2)
        tangents = catmull_rom_tangents(poly, float(rng.uniform(0.3, 0.8)))
        seg = CubicSegment(
            poly.points[1], poly.points[2], tangents[1], tangents[2], float(rng.uniform(0.5, 2.0))
        )
        verdict = check_inflection_cubic(seg, b_prev, b_cur)
        if verdict.applicable and verdict.passed:
            return seg, b_prev, b_cur


def test_criterion_08_inflection_soundness(rng):
    us = np.linspace(0.0, 1.0, 512)
    bad = 0
    for _ in range(200):
        seg, b_prev, b_cur = make_inflection_instance(rng)
        omegas = seg.curvature(us)
        for _ in range(32):
            lam = rng.uniform(0.05, 1.0)
            mu = -rng.uniform(0.05, 1.0)
            if rng.uniform() < 0.5:
                lam, mu = -lam, -mu
            vals = omegas @ (lam * b_prev + mu * b_cur)
            band = 1e-9 * max(float(np.abs(vals).max()), 1e-300)
            vals = np.where(np.abs(vals) <= band, 0.0, vals)
            if sign_changes(vals) != 1:
                bad += 1
    ok = bad == 0
    report(8, ok, f"(200 passing instances x 32 mixed normals, {bad} miscounts)")


def test_criterion_09_hull_sine_bounds(rng):
    us = np.linspace(0.0, 1.0, 512)
    worst_t, worst_g = -1.0, -1.0
    checked_t = checked_g = 0
    while checked_t < 500 or checked_g < 500:
        seg = random_segment(rng)
        ctrl = (seg.m0, (3.0 / seg.h) * seg.chord - seg.m0 - seg.m1, seg.m1)
        if checked_t < 500:
            l_dir = rng.uniform(-2, 2, 3)
            if np.linalg.norm(l_dir) > 0.3 and all(
                np.dot(p, l_dir) > 0.05 * np.linalg.norm(p) * np.linalg.norm(l_dir)
                for p in ctrl
            ):
                ctrl_sup = max(sine_angle(p, l_dir) for p in ctrl)
                samp = sine_rows(seg.derivatives(us)[0], l_dir).max()
                worst_t = max(worst_t, samp - ctrl_sup)
                checked_t += 1
        if checked_g < 500:
            quad = seg.curvature_quad()
            coeffs = (quad.c0, quad.c1, quad.c2)
            n_dir = rng.uniform(-2, 2, 3)
            if (
                np.linalg.norm(n_dir) > 0.3
                and all(np.linalg.norm(g) > 1e-6 for g in coeffs)
                and all(
                    np.dot(g, n_dir) > 0.05 * np.linalg.norm(g) * np.linalg.norm(n_dir)
                    for g in coeffs
                )
            ):
                ctrl_sup = max(sine_angle(g, n_dir) for g in coeffs)
                w = seg.curvature(us)
                samp = sine_rows(w[norm_rows(w) > 1e-12], n_dir).max(initial=0.0)
                worst_g = max(worst_g, samp - ctrl_sup)
                checked_g += 1
    ok = worst_t <= 1e-12 and worst_g <= 1e-12
    report(9, ok, f"(500+500 segments, worst excess tangent {worst_t:.1e}, curvature {worst_g:.1e})")


def make_convex_instance(rng):
    base = np.array([(0, 0, 0), (1, 1, 0), (2, 1, 0), (3, 0, 0)], dtype=float)
    while True:
        pts = base + rng.uniform(-0.35, 0.35, base.shape)
        try:
            poly = DataPolygon(pts)
        except ValueError:
            continue
        b_prev, b_cur = poly.binormal(1), poly.binormal(2)
        floor = np.linalg.norm(b_prev) * np.linalg.norm(b_cur)
        if floor == 0 or np.dot(b_prev, b_cur) <= 0.05 * floor:
            continue
        tangents = catmull_rom_tangents(poly, float(rng.uniform(0.3, 0.9)))
        m0 = tangents[1] * rng.uniform(0.6, 1.4) + rng.uniform(-0.5, 0.5, 3)
        m1 = tangents[2] * rng.uniform(0.6, 1.4) + rng.uniform(-0.5, 0.5, 3)
        if min(np.linalg.norm(m0), np.linalg.norm(m1)) < 0.2:
            continue
        seg = CubicSegment(
            poly.points[1], poly.points[2], m0, m1, float(rng.uniform(0.5, 2.0))
        )
        return seg, b_prev, b_cur


def test_criterion_10_convexity_vs_oracle(rng):
    counterexamples = 0
    closed_passes = 0
    sampled_passes = 0
    converse_holds = 0
    for _ in range(300):
        seg, b_prev, b_cur = make_convex_instance(rng)
        verdict = check_convexity_cubic(seg, b_prev, b_cur)
        assert verdict.applicable
        sampled = check_convexity_sampled(seg, b_prev, 200) and check_convexity_sampled(
            seg, b_cur, 200
        )
        if verdict.passed:
            closed_passes += 1
            if not sampled:
                counterexamples += 1
        if sampled:
            sampled_passes += 1
            if verdict.passed:
                converse_holds += 1
    ok = counterexamples == 0 and closed_passes >= 30
    rate = converse_holds / sampled_passes if sampled_passes else float("nan")
    report(
        10,
        ok,
        f"(300 instances, {closed_passes} closed passes, 0 counterexamples required, "
        f"got {counterexamples}; converse rate {converse_holds}/{sampled_passes} = {rate:.2f})",
    )


def test_criterion_11_torsion_compat():
    fail_case = check_torsion_compat(1.0, -1.0, 0.8, 0.8)
    pass_case = check_torsion_compat(1.0, -1.0, 1e-12, -1e-12)
    ok = (
        fail_case.applicable
        and fail_case.passed is False
        and pass_case.applicable
        and pass_case.passed is True
    )
    report(11, ok, "(opposing twists: equal nonzero joint torsions fail, zero torsions pass)")


def extract_verdicts(doc):
    out = []
    for seg in doc["segments"]:
        for v in seg["verdicts"]:
            out.append(("segment", seg["index"], v["criterion"], v["applicable"], v["passed"]))
    for joint in doc["joints"]:
        for key in ("adjacency", "torsion_compat"):
            v = joint[key]
            if v is not None:
                out.append(("joint", joint["index"], key, v["applicable"], v["passed"]))
    for vert in doc["vertices"]:
        v = vert["collinearity_extended"]
        if v is not None:
            out.append(("vertex", vert["index"], "extended", v["applicable"], v["passed"]))
    return out


def test_criterion_12_invariance(rng, tmp_path):
    mismatches = 0
    for k in range(50):
        poly = random_noncoplanar_polygon(rng, 6) if k % 2 else None
        if poly is None:
            # alternate planar-ish datasets to vary the applicable criteria
            flat = rng.uniform(-2, 2, (6, 2))
            pts = np.column_stack([flat, np.zeros(6)])
            try:
                poly = DataPolygon(pts)
            except ValueError:
                poly = random_noncoplanar_polygon(rng, 6)
        pts = poly.points
        doc = tmp_path / f"base{k}.json"
        doc.write_text(json.dumps({"version": 1, "points": pts.tolist()}))
        _, base = run_cli(tmp_path, "check", doc)
        base_verdicts = extract_verdicts(base)

        rot = random_rotation(rng)
        shift = rng.uniform(-10, 10, 3)
        moved = pts @ rot.T + shift
        doc_m = tmp_path / f"moved{k}.json"
        doc_m.write_text(json.dumps({"version": 1, "points": moved.tolist()}))
        _, moved_rep = run_cli(tmp_path, "check", doc_m)

        lam = float(rng.choice([1e-2, 7.3, 1e3]))
        doc_s = tmp_path / f"scaled{k}.json"
        doc_s.write_text(json.dumps({"version": 1, "points": (lam * pts).tolist()}))
        _, scaled_rep = run_cli(tmp_path, "check", doc_s)

        for other in (moved_rep, scaled_rep):
            if extract_verdicts(other) != base_verdicts:
                mismatches += 1
    ok = mismatches == 0
    report(12, ok, f"(50 datasets x rigid motion + scaling, {mismatches} verdict changes)")


def test_criterion_13_full_verify_run(tmp_path):
    start = time.perf_counter()
    disagreements = []
    for fixture in ALL_FIXTURES:
        doc = json.loads(fixture.read_text())
        args = ["check", str(fixture), "--verify"]
        if "tangents" in doc:
            args += ["--tangents", "provided"]
        out = tmp_path / "verify.json"
        cli_main(args + ["--out", str(out)])
        rep = json.loads(out.read_text())
        disagreements.extend(
            f"{fixture.name}: {msg}" for msg in rep["verify"]["disagreements"]
        )
        args_i = ["inflection", str(fixture), "--verify", "--out", str(out)]
        if "tangents" in doc:
            args_i += ["--tangents", "provided"]
        cli_main(args_i)
        rep = json.loads(out.read_text())
        disagreements.extend(
            f"{fixture.name} (inflection): {msg}" for msg in rep["verify"]["disagreements"]
        )
    elapsed = time.perf_counter() - start
    ok = not disagreements and elapsed < 30.0
    report(
        13,
        ok,
        f"({len(ALL_FIXTURES)} fixtures verified in {elapsed:.1f} s, "
        f"{len(disagreements)} disagreements{': ' + '; '.join(disagreements[:3]) if disagreements else ''})",
    )
