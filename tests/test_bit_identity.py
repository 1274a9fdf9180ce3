"""Array forms against scalar forms, bit for bit.

Every sampled check evaluates its samples in one array call, the
closed-form battery runs over all segments at once, and the reports print
those values to 17 digits.  These tests pin that each row of an array call
equals the scalar call on that row exactly (``np.array_equal``, not
``allclose``), over inputs spanning 24 decades of scale, so that a numpy or
BLAS change that rounds one form differently fails here instead of moving
printed digits.
"""

import numpy as np
import pytest

from conftest import (
    ref_adjacency_product,
    ref_collinearity_cubic,
    ref_collinearity_extended,
    ref_convexity_scalars,
    ref_curvature_quad,
    ref_tau_floor,
    ref_torsion_numerator,
)
from shapespline import CubicSegment, DataPolygon, Tolerances, build_spline, check_collinearity_extended
from shapespline.spline import SplineConfig, TangentMode
from shapespline import criteria
from shapespline.criteria import adjacency_rows, collinearity_rows, convexity_rows, convexity_sampled_rows
from shapespline.geometry import (
    cross3,
    cross_rows,
    dot,
    dot_rows,
    norm,
    norm_rows,
    powers,
    sine_angle,
    sine_rows,
    triple,
    triple_rows,
)
from shapespline.oracle import decasteljau, decasteljau_derivatives
from shapespline.segment import curvature_quad_rows, torsion_floor_rows, torsion_numerator_rows

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
    assert np.array_equal(cross_rows(a, b), stack(map(cross3, a, b)))
    assert np.array_equal(cross_rows(one, a), stack(cross3(one, x) for x in a))
    assert np.array_equal(cross_rows(a, one), stack(cross3(x, one) for x in a))
    assert np.array_equal(cross_rows(a, b), np.cross(a, b))
    assert np.array_equal(cross_rows(a, one), np.cross(a, one))
    assert np.array_equal(cross_rows(a[:128, None], b[None, :64]), np.cross(a[:128, None], b[None, :64]))
    c = scaled_rows(rng, ROWS)
    assert np.array_equal(triple_rows(a, b, c), stack(map(triple, a, b, c)))
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
    # a grid of parameters gives, row for row, the bits of one parameter at a time
    for _ in range(15):
        ctrl, us = scaled_rows(rng, 4)[None], grid(rng)
        h = [float(10.0 ** rng.uniform(-2, 2))]
        points = stack(decasteljau(ctrl, np.array([u]))[0, 0] for u in us)
        assert np.array_equal(decasteljau(ctrl, us)[0], points)
        d1, d2, d3 = decasteljau_derivatives(ctrl, us, h)
        one = [decasteljau_derivatives(ctrl, np.array([u]), h) for u in us]
        assert np.array_equal(d1[0], stack(d[0][0, 0] for d in one))
        assert np.array_equal(d2[0], stack(d[1][0, 0] for d in one))
        assert d3.shape == (1, 3) and np.array_equal(d3, one[0][2])
    # any degree and dimension
    net = scaled_rows(rng, 7, 2)[None]
    us = grid(rng)
    assert np.array_equal(decasteljau(net, us)[0], stack(decasteljau(net, np.array([u]))[0, 0] for u in us))


def scaled_segments(rng, n):
    """Segments of random direction with coordinates from 1e-12 to 1e12
    and widths from 1e-3 to 1e3, where numpy's ``**`` rounds differently
    from Python's."""
    segs = []
    while len(segs) < n:
        p0, p3, m0, m1 = 10.0 ** rng.uniform(-12, 12) * rng.normal(size=(4, 3))
        try:
            segs.append(CubicSegment(p0, p3, m0, m1, float(10.0 ** rng.uniform(-3, 3))))
        except ValueError:
            continue
    return segs


def test_powers(rng):
    x = 10.0 ** rng.uniform(-3, 3, ROWS)
    for k in (2, 3, 4):
        assert np.array_equal(powers(x, k), stack(v**k for v in x.tolist()))


def test_closed_form_rows(rng):
    segs = scaled_segments(rng, 2000)
    m0, m1 = stack(s.m0 for s in segs), stack(s.m1 for s in segs)
    chord, h = stack(s.chord for s in segs), np.array([s.h for s in segs])
    quad = curvature_quad_rows(m0, m1, chord, h)
    for k, ref in enumerate(zip(*map(ref_curvature_quad, segs))):
        assert np.array_equal(quad[k], stack(ref))
    assert np.array_equal(torsion_numerator_rows(m0, m1, chord, h), stack(map(ref_torsion_numerator, segs)))
    assert np.array_equal(torsion_floor_rows(m0, m1, chord, h), stack(map(ref_tau_floor, segs)))

    n_prev, n_cur = scaled_rows(rng, len(segs)), scaled_rows(rng, len(segs))
    eps = 1e-9
    rows = convexity_rows(m0, m1, chord, h, n_prev, n_cur, eps)
    columns = {k: c.tolist() for k, c in rows.columns.items()}
    for tag, normals in (("prev", n_prev), ("cur", n_cur)):
        ref = [ref_convexity_scalars(s, nv) for s, nv in zip(segs, normals)]
        for key, values in zip("abc", zip(*ref)):
            assert columns[f"{key}_{tag}"] == list(values)
        ok, reversed_ok = [], []
        for s, (a, b, c, fa, fb, fc) in zip(segs, ref):
            third = s.h / 3.0
            margin_b, margin_c = eps * (fb + third * fa), eps * (fc + third * fa)
            thr, thr_low = max(third * a, 0.0), min(third * a, 0.0)
            ok.append((b - thr) > margin_b and (c - thr) > margin_c)
            reversed_ok.append((b - thr_low) < -margin_b and (c - thr_low) < -margin_c)
        assert columns[f"passed_{tag}"] == ok
        assert columns[f"reversed_orientation_{tag}"] == reversed_ok

    l_prev, l_cur = scaled_rows(rng, len(segs)), scaled_rows(rng, len(segs))
    rows = adjacency_rows(m1, n_prev, l_prev, l_cur, eps)
    columns = {k: c.tolist() for k, c in rows.columns.items()}
    ref = list(map(ref_adjacency_product, m1, n_prev, l_prev, l_cur))
    assert columns["product"] == [r[0] for r in ref]
    assert columns["projected_tangent_norm"] == [r[1] for r in ref]
    assert rows.passed.tolist() == [r[0] < -eps * r[2] for r in ref]


def collinearity_cases(rng):
    """(segment, l_prev, l_cur) triples for the collinearity check: chords
    along one direction with tangents near it, at coordinates from 1e-12 to
    1e12, plus a zero middle hodograph point (3L/h = m0 + m1), an obtuse
    hodograph point, and anti-parallel and crossing chords."""
    cases = []
    while len(cases) < 600:
        scale = 10.0 ** rng.uniform(-12, 12)
        d = rng.normal(size=3)
        tilt = 10.0 ** rng.uniform(-4, 0)
        m0, m1 = scale * (d + tilt * rng.normal(size=(2, 3)))
        p0 = scale * rng.normal(size=3)
        p3 = p0 + scale * rng.uniform(0.5, 2.0) * d
        try:
            seg = CubicSegment(p0, p3, m0, m1, float(10.0 ** rng.uniform(-3, 3)))
        except ValueError:
            continue
        l_prev = scale * rng.uniform(0.1, 3.0) * d
        cases.append((seg, l_prev, rng.uniform(0.1, 3.0) * l_prev))
    for _ in range(50):
        m0, m1 = rng.integers(-8, 9, (2, 3)).astype(float)
        d = rng.integers(1, 9, 3).astype(float)
        for a, b in ((m0, m1), (rng.integers(1, 5) * d, rng.integers(1, 5) * d)):
            zero_mid = CubicSegment(np.zeros(3), a + b, a, b, 3.0)
            assert not np.any((3.0 / zero_mid.h) * zero_mid.chord - zero_mid.m0 - zero_mid.m1)
            cases.append((zero_mid, zero_mid.chord, 2.0 * zero_mid.chord))
        seg = CubicSegment(np.zeros(3), m0 + m1, m0, m1, 3.0)
        # the start tangent points backwards along the chords
        obtuse = CubicSegment(np.zeros(3), m0 + m1, -(m0 + m1) + 0.1 * m0, m1, 1.0)
        cases.append((obtuse, obtuse.chord, obtuse.chord))
        cases.append((seg, seg.chord, -seg.chord))
        cases.append((seg, seg.chord, seg.chord + rng.normal(size=3)))
    return cases


def test_collinearity_rows(rng):
    tol = Tolerances(eps_collinear=0.05)
    cases = collinearity_cases(rng)
    segs = [c[0] for c in cases]
    rows = collinearity_rows(
        stack(s.m0 for s in segs),
        stack(s.m1 for s in segs),
        stack(s.chord for s in segs),
        np.array([s.h for s in segs]),
        stack(c[1] for c in cases),
        stack(c[2] for c in cases),
        tol.eps_zero,
        tol.eps_collinear,
    )
    kinds = set()
    for r, case in enumerate(cases):
        got, ref = rows.verdict(r), ref_collinearity_cubic(*case, tol)
        assert (got.applicable, got.passed) == (ref.applicable, ref.passed)
        assert list(got.diagnostics) == list(ref.diagnostics)
        assert np.array_equal(list(got.diagnostics.values()), list(ref.diagnostics.values()))
        diag = ref.diagnostics
        kinds.add((ref.applicable, ref.passed, diag.get("hypothesis_ok"), "sine_p1_prev" in diag))
    # passing, failing and not applicable rows, with the hypothesis holding
    # and failing, and with a zero middle hodograph point
    assert {(False, None, None, False), (True, True, 1.0, True), (True, False, 1.0, True)} <= kinds
    assert {(True, True, 0.0, False), (True, False, 0.0, True)} <= kinds


def collinear_polyline(rng, corners: int, run: int, planar: bool) -> np.ndarray:
    """Random corners, in the plane z = 0 or in space, joined by edges that
    carry ``run`` points each: vertices 1 and n-1 and every point on an
    edge are collinear, and with ``run`` of 2 or more a collinear vertex has
    a collinear neighbour, whose binormal is zero."""
    ends = rng.uniform(-2.0, 2.0, (corners, 3))
    if planar:
        ends[:, 2] = 0.0
    pts = [ends[0]]
    for a, b in zip(ends[:-1], ends[1:]):
        pts.extend(a + (k / (run + 1)) * (b - a) for k in range(1, run + 2))
    return np.array(pts)


def test_collinearity_extended(rng):
    kinds = set()
    for k in range(12):
        pts = collinear_polyline(rng, int(rng.integers(3, 7)), 1 + k % 3, planar=k % 2 == 0)
        spline = build_spline(DataPolygon(pts))
        n = spline.polygon.n_segments
        for eta in (1.0, 0.5, 0.25):
            tol = Tolerances(eta_fraction=eta)
            for vertex in range(1, n):
                got = check_collinearity_extended(spline, vertex, tol)
                ref = ref_collinearity_extended(spline, vertex, tol)
                assert (got.applicable, got.passed) == (ref.applicable, ref.passed)
                assert list(got.diagnostics) == list(ref.diagnostics)
                values = [np.array(list(v.diagnostics.values())).tobytes() for v in (got, ref)]
                assert values[0] == values[1]
                diag = got.diagnostics
                if not got.applicable:
                    continue
                kinds.add(("passed", got.passed))
                if vertex in (1, n - 1):
                    kinds.add("boundary")
                elif sum(key.startswith("wedge_product") for key in diag) < 2:
                    kinds.add("zero-binormal neighbour")
                kinds.update(key for key in ("neighbourhood_convex_prev", "flip_location_prev") if key in diag)
    assert kinds == {
        ("passed", True),
        ("passed", False),
        "boundary",
        "zero-binormal neighbour",
        "neighbourhood_convex_prev",
        "flip_location_prev",
    }


def extended_kind(diag: dict, n: int) -> set:
    """What an applicable extended verdict exercised: a boundary vertex, a
    neighbour with a zero binormal, a convex or an inflection
    neighbourhood."""
    kinds = set()
    if diag["vertex"] in (1, n - 1):
        kinds.add("boundary")
    elif sum(key.startswith("wedge_product") for key in diag) < 2:
        kinds.add("zero-binormal neighbour")
    if any(key.startswith("neighbourhood_convex") for key in diag):
        kinds.add("convex")
    if "flip_count_prev" in diag:
        kinds.add("inflection")
    return kinds


def assert_sequence_matches_reference(spline, rng, etas=(1.0, 0.5, 0.25)) -> list:
    """Run the sequence form over every vertex, in a shuffled order, and
    compare each verdict with the per-vertex reference, bytes of every
    value; return the applicable reference verdicts."""
    n = spline.polygon.n_segments
    applicable = []
    for eta in etas:
        tol = Tolerances(eta_fraction=eta)
        order = rng.permutation(np.arange(1, n)).tolist()
        got = check_collinearity_extended(spline, order, tol)
        assert len(got) == len(order)
        for vertex, verdict in zip(order, got):
            ref = ref_collinearity_extended(spline, vertex, tol)
            assert (verdict.applicable, verdict.passed) == (ref.applicable, ref.passed)
            assert list(verdict.diagnostics) == list(ref.diagnostics)
            values = [np.array(list(v.diagnostics.values())).tobytes() for v in (verdict, ref)]
            assert values[0] == values[1]
            if ref.applicable:
                applicable.append(ref)
    return applicable


def test_collinearity_extended_sequence_spans_blocks(rng):
    # more collinear vertices than one block holds, some of them at the
    # block edges
    for planar in (True, False):
        spline = build_spline(DataPolygon(collinear_polyline(rng, 9, 3, planar=planar)))
        assert np.count_nonzero(spline.polygon.classes.collinear) > 2 * criteria._VERTEX_BLOCK
        assert assert_sequence_matches_reference(spline, rng)


def test_collinearity_extended_sequence_mixed_block(rng):
    # one block whose vertices are of every kind: vertices 1 and 8 are
    # boundary vertices, 2 has a collinear neighbour (zero binormal), 4 lies
    # between a left and a right turn (inflection neighbourhood) and 6
    # between two right turns (convex neighbourhood)
    pts = [
        (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (3.5, 1, 0),
        (4, 2, 0), (5, 2.25, 0), (6, 2.5, 0), (6.5, 1.5, 0), (7, 0.5, 0),
    ]
    spline = build_spline(DataPolygon(pts))
    assert np.flatnonzero(spline.polygon.classes.collinear).tolist() == [0, 1, 3, 5, 7]
    assert 5 <= criteria._VERTEX_BLOCK
    n = spline.polygon.n_segments
    for eta in (1.0, 0.5, 0.25):
        verdicts = assert_sequence_matches_reference(spline, rng, (eta,))
        kinds = set().union(*(extended_kind(v.diagnostics, n) for v in verdicts))
        assert kinds == {"boundary", "zero-binormal neighbour", "convex", "inflection"}


def test_collinearity_extended_sequence_collapsed_window_half(rng):
    # at 1e16 the knots are 2 apart: a quarter of a width of 2 rounds away,
    # so a vertex after a width of 2 has an empty window part in its
    # incoming segment while its neighbours, after widths of 1e3, do not.
    # np.linspace over all the parts would divide first on every part then.
    pts = collinear_polyline(rng, 4, 3, planar=False)
    widths = [2.0 if k % 2 == 0 else 1e3 for k in range(len(pts) - 1)]
    knots = 1e16 + np.concatenate([[0.0], np.cumsum(widths)])
    spline = build_spline(DataPolygon(pts), knots=knots)
    t = spline.knots
    collapsed = [i for i in range(1, len(t) - 1) if t[i] - 0.25 * (t[i] - t[i - 1]) == t[i]]
    kept = [i for i in range(1, len(t) - 1) if t[i] - 0.25 * (t[i] - t[i - 1]) < t[i]]
    assert collapsed and kept
    collinear = set((np.flatnonzero(spline.polygon.classes.collinear) + 1).tolist())
    assert collinear & set(collapsed) and collinear & set(kept)
    assert assert_sequence_matches_reference(spline, rng)


def test_collinearity_extended_sequence_convex_rows_keep_their_binormals(rng):
    # two convex neighbourhoods in different planes, z = 0 (vertex 2, turns
    # about +z) and x = 4 (vertex 6, turns about -x).  Provided tangents
    # bend the segments at each collinear vertex out of its plane, so each
    # passes sampled convexity along its own binormals and fails along the
    # other's: a row tested against the wrong binormal shows.
    pts = [(0, 1, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 1, 0), (4, 1, 1), (4, 2, 1), (4, 3, 1), (4, 4, 0)]
    a = 0.2
    tangents = [
        (1, -1, 0), (1, 0, a), (1, 0, -a), (1, 0, a), (0.5, 0.5, 0.5),
        (-a, 1, 0), (a, 1, 0), (-a, 1, 0), (0, 1, -1),
    ]
    cfg = SplineConfig(tangent_mode=TangentMode.PROVIDED)
    spline = build_spline(DataPolygon(pts), cfg, provided_tangents=tangents, knots=range(len(pts)))
    verdicts = assert_sequence_matches_reference(spline, rng)
    assert sorted(v.diagnostics["vertex"] for v in verdicts) == [2.0] * 3 + [6.0] * 3
    for v in verdicts:
        diag = v.diagnostics
        assert (diag["neighbourhood_convex_prev"], diag["neighbourhood_convex_next"]) == (1.0, 1.0)


def test_linspace_rows(rng):
    # rows of every kind side by side: ordinary, empty (zero width) and
    # narrower than the smallest step (a width of a few subnormals, whose
    # step rounds to zero); np.linspace over array ends would space every
    # row by dividing first
    lo = np.concatenate([rng.normal(size=20) * 10.0 ** rng.uniform(-12, 12, 20), [1.5, 0.0, 2e-308, -7e-310]])
    width = np.concatenate([rng.uniform(0.0, 1.0, 20) * np.abs(lo[:20]), [0.0, 3e-323, 5e-323, 1e-322]])
    hi = lo + width
    for num in (33, 10, 2):
        got = criteria._linspace_rows(lo, hi, num)
        ref = np.stack([np.linspace(a, b, num) for a, b in zip(lo.tolist(), hi.tolist())])
        assert got.tobytes() == ref.tobytes()


def test_collinearity_extended_one_vertex_and_sequence_forms(rng):
    spline = build_spline(DataPolygon(collinear_polyline(rng, 4, 2, planar=False)))
    n = spline.polygon.n_segments
    one = check_collinearity_extended(spline, 2)
    assert one == check_collinearity_extended(spline, [2])[0]
    assert check_collinearity_extended(spline, []) == []
    assert check_collinearity_extended(spline, [2, 2]) == [one, one]
    for bad in (0, n):
        with pytest.raises(IndexError):
            check_collinearity_extended(spline, [1, bad])


def test_convexity_sampled_rows_per_net_orientation(rng):
    kinds = set()
    for _ in range(40):
        segs = [scaled_segment(rng) for _ in range(6)]
        nets = np.stack([seg.bezier_points for seg in segs])
        m0, m1, chord, h = (np.stack(c) for c in zip(*(seg.rows() for seg in segs)))
        m0, m1, chord, h = m0[:, 0], m1[:, 0], chord[:, 0], h[:, 0]
        # random orientations, the segments' own binormals (convex when the
        # curve turns one way) and in-plane vectors (decided by rounding noise)
        binormal = cross_rows(m0, chord)
        n_vecs = np.concatenate(
            [scaled_rows(rng, 2), binormal[2:4], cross_rows(binormal[4:], m0[4:])]
        ) * 10.0 ** rng.uniform(-12, 12, (6, 1))
        got = convexity_sampled_rows(nets, m0, m1, chord, h, n_vecs, 65)
        one = [
            convexity_sampled_rows(*(a[r : r + 1] for a in (nets, m0, m1, chord, h)), n_vecs[r], 65)[0]
            for r in range(6)
        ]
        assert got.tolist() == one
        # one vector for every net is the same as that vector on every row
        shared = convexity_sampled_rows(nets, m0, m1, chord, h, n_vecs[0], 65)
        tiled = convexity_sampled_rows(nets, m0, m1, chord, h, np.tile(n_vecs[0], (6, 1)), 65)
        assert shared.tolist() == tiled.tolist()
        kinds.update(got.tolist())
    assert kinds == {True, False}
    with pytest.raises(ValueError):
        convexity_sampled_rows(nets, m0, m1, chord, h, np.zeros((6, 3)), 65)
