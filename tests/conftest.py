"""Shared generators for randomized tests.

All randomness is seeded per test via the ``rng`` fixture so the suite is
fully reproducible.
"""

import importlib.util
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from shapespline import (
    EPS_ZERO,
    Criterion,
    CriterionVerdict,
    CubicSegment,
    DataPolygon,
    Tolerances,
    cross3,
    sign_changes,
    sine_angle,
    triple,
)
from shapespline.criteria import convexity_sampled_rows
from shapespline.geometry import cross_rows, dot, dot_rows, norm, norm_rows, project_point, sine_rows
from shapespline.oracle import _DIP_RHS, decasteljau, decasteljau_derivatives
from shapespline.polygon import _BLOCK_ENTRIES, FLAG_SETS
from shapespline.segment import derivative_rows, point_rows


# the seeded document generators of the benchmark (perfbench/gen.py)
_spec = importlib.util.spec_from_file_location("perfbench_gen", Path(__file__).parent.parent / "perfbench" / "gen.py")
bench_gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gen)


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
        # row i-2 is span i, for the interior spans 2..n-1
        if np.all(np.abs(poly.torsions) >= min_twist * poly.classes.torsion_floors):
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


def collinear_polyline(rng, corners: int = 6, run: int = 2) -> np.ndarray:
    """3D polyline with ``run`` points placed on every edge between random
    corners: each of them is a collinear vertex, whose turn vector is
    dead band along every direction of the arc search, and the segments
    between them are straight, so every direction sees only dead-band
    bending on them."""
    ends = rng.uniform(-2.0, 2.0, (corners, 3))
    pts = [ends[0]]
    for a, b in zip(ends[:-1], ends[1:]):
        pts.extend(a + (k / (run + 1)) * (b - a) for k in range(1, run + 2))
    return np.array(pts)


def noisy_helix(rng, n: int) -> np.ndarray:
    """Helix with a little positional noise: convex, twisted spans."""
    t = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(n) / rng.uniform(10.0, 14.0)
    pts = np.column_stack([np.cos(t), np.sin(t), rng.uniform(0.15, 0.35) * t])
    return pts + rng.normal(0.0, 0.02, pts.shape)


def planar_scurve(rng, n: int = 14) -> np.ndarray:
    """Sine serpentine in a plane z = const: every segment is planar, so the
    axis directions in that plane see only dead-band bending."""
    s = np.arange(n, dtype=float)
    y = rng.uniform(0.5, 1.5) * np.sin(2.0 * np.pi * s / 9.0 + rng.uniform(0.0, 2.0 * np.pi))
    return np.column_stack([0.5 * s, y, np.full(n, 1.25)])


# point families of the direction-search tests, and translations of them:
# far from the origin the rounding of the coordinates puts the sampled
# curvature of nearly straight segments above its dead band
SEARCH_KINDS = ("planar", "near-planar", "near-straight", "helix", "polyline")
SEARCH_OFFSETS = (0.0, 1e6, 1e7, 1e8)


def search_points(kind: str, seed: int, n: int, offset: float = 0.0) -> np.ndarray:
    """About ``n`` points of the family ``kind`` drawn from ``seed``,
    shifted by ``offset`` along every axis: a planar S-curve in ``z =
    const``, the same turned and lifted off its plane by 1e-9 to 1e-5, a
    line bent sideways by 1e-10 to 1e-6, a noisy helix, or a polyline with
    collinear runs (``collinear_polyline``)."""
    rng = np.random.default_rng(seed)
    if kind == "helix":
        pts = noisy_helix(rng, n)
    elif kind == "polyline":
        pts = collinear_polyline(rng, corners=max(2, n // 3 + 1))
    elif kind == "near-straight":
        s = np.arange(n, dtype=float)
        bend = 10.0 ** rng.uniform(-10.0, -6.0) * rng.normal(size=(n, 2))
        pts = np.column_stack([s, bend]) @ random_rotation(rng).T
    else:
        pts = planar_scurve(rng, n)
        if kind == "near-planar":
            pts[:, 2] += 10.0 ** rng.uniform(-9.0, -5.0) * rng.normal(size=n)
            pts = pts @ random_rotation(rng).T
    return pts + offset


def spline_segments(spline) -> tuple:
    """One :class:`CubicSegment` per segment of ``spline``, built from its
    rows, for tests that check the one-row API against a built spline."""
    pts, tangents = spline.polygon.points, spline.tangents
    return tuple(
        CubicSegment(pts[k], pts[k + 1], tangents[k], tangents[k + 1], h)
        for k, h in enumerate(spline.widths.tolist())
    )


def spline_point(spline, t: float) -> np.ndarray:
    """Position of ``spline`` at the global parameter ``t``, evaluated on
    the net of the segment whose knot interval holds ``t``."""
    knots = spline.knots
    if not knots[0] <= t <= knots[-1]:
        raise ValueError(f"parameter {t} outside [{knots[0]}, {knots[-1]}]")
    i = min(max(int(np.searchsorted(knots, t, side="right")), 1), len(knots) - 1)
    t0, t1 = knots[i - 1], knots[i]
    return point_rows(spline.nets[i - 1 : i], np.array([(t - t0) / (t1 - t0)]))[0, 0]


def project_segment(seg, plane) -> CubicSegment:
    """The segment whose control points are the projections of ``seg``'s
    control points onto ``plane``."""
    return CubicSegment.from_bezier(*(project_point(p, plane) for p in seg.bezier_points), seg.h)


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


# per-segment closed-form formulas, one segment at a time with Python-float
# powers; the batched kernels must equal them row for row


def ref_convexity_scalars(seg, n_vec):
    """(a, b, c, fa, fb, fc) of the convexity check against one normal."""
    length = seg.chord
    a = triple(seg.m0, seg.m1, n_vec)
    b = triple(seg.m0, length, n_vec)
    c = triple(length, seg.m1, n_vec)
    nn = norm(n_vec)
    fa = norm(seg.m0) * norm(seg.m1) * nn
    fb = norm(seg.m0) * norm(length) * nn
    fc = norm(length) * norm(seg.m1) * nn
    return a, b, c, fa, fb, fc


def ref_curvature_quad(seg):
    """(c0, c1, c2) of the curvature-vector quadratic."""
    length = seg.chord
    mm = cross3(seg.m0, seg.m1)
    c0 = (6.0 / seg.h**2) * cross3(seg.m0, length) - (2.0 / seg.h) * mm
    c1 = (2.0 / seg.h) * mm
    c2 = (6.0 / seg.h**2) * cross3(length, seg.m1) - (2.0 / seg.h) * mm
    return c0, c1, c2


def ref_torsion_numerator(seg) -> float:
    return (12.0 / seg.h**4) * triple(seg.m0, seg.chord, seg.m1)


def ref_tau_floor(seg) -> float:
    return norm(seg.m0) * norm(seg.chord) * norm(seg.m1) / seg.h**4 * 12.0


def ref_collinearity_cubic(seg, l_prev, l_cur, tol=Tolerances()):
    """The collinearity check of one segment, one hodograph point and one
    chord at a time."""
    eps = tol.eps_zero
    l_prev = np.asarray(l_prev, dtype=float)
    l_cur = np.asarray(l_cur, dtype=float)
    cr = norm(cross3(l_prev, l_cur))
    d = dot(l_prev, l_cur)
    floor = norm(l_prev) * norm(l_cur)
    diag = {"chord_cross_norm": cr, "chord_dot": d}
    if not (cr <= eps * floor and d > eps * floor):
        return CriterionVerdict(Criterion.COLLINEARITY, False, None, diag)

    ctrl = (seg.m0, (3.0 / seg.h) * seg.chord - seg.m0 - seg.m1, seg.m1)
    ctrl_scale = max(norm(p) for p in ctrl)
    hypothesis_ok = True
    sup = 0.0
    for k, p in enumerate(ctrl):
        if norm(p) <= eps * ctrl_scale:
            hypothesis_ok = False
            continue
        for tag, l_vec in (("prev", l_prev), ("cur", l_cur)):
            if dot(p, l_vec) < 0.0:
                hypothesis_ok = False
            s = sine_angle(p, l_vec)
            diag[f"sine_p{k}_{tag}"] = s
            sup = max(sup, s)
    diag["sup_sine"] = sup
    diag["hypothesis_ok"] = float(hypothesis_ok)
    passed = sup < tol.eps_collinear
    return CriterionVerdict(Criterion.COLLINEARITY, True, passed, diag)


def ref_adjacency_product(m, n_vertex, l_prev, l_cur):
    """(product, |t_proj|, floor) of the adjacency check at one joint."""
    nn = norm(n_vertex)
    t_proj = m - (dot(m, n_vertex) / (nn * nn)) * n_vertex
    product = dot(cross3(t_proj, l_cur), cross3(t_proj, l_prev))
    return product, norm(t_proj), norm(t_proj) ** 2 * norm(l_cur) * norm(l_prev)


def ref_collinearity_extended(spline, vertex: int, tol=Tolerances()):
    """The neighbourhood collinearity check as it read before it ran on the
    polygon's rows: one window half, one neighbouring vertex and one
    neighbour binormal at a time, with the dead band of the flip counts
    applied by zeroing the values before ``sign_changes``."""
    poly = spline.polygon
    n = poly.n_segments
    if not 1 <= vertex <= n - 1:
        raise IndexError(f"vertex index {vertex} out of range 1..{n - 1}")
    if not poly.classes.collinear[vertex - 1]:
        return CriterionVerdict(Criterion.COLLINEARITY, False, None, {"vertex": float(vertex)})
    eps = tol.eps_zero
    i = vertex
    pair = slice(i - 1, i + 1)
    nets = spline.nets[pair]
    m0, m1, chord, h = (a[pair] for a in spline.rows())
    knots = spline.knots
    t_prev, t_i, t_next = knots[i - 1], knots[i], knots[i + 1]
    frac = tol.eta_fraction
    window = (t_i - frac * (t_i - t_prev), t_i + frac * (t_next - t_i))
    diag = {"vertex": float(i), "window_lo": window[0], "window_hi": window[1]}
    checks_passed = True

    lengths, binormals = poly.classes.chord_lengths, poly.binormals

    def binormal_floor(j):
        return lengths[j - 1] * lengths[j]

    l_in, l_out = poly.chords[i - 1], poly.chords[i]
    sup = 0.0
    n_half = 33
    for k, t0, t1 in ((0, t_prev, t_i), (1, t_i, t_next)):
        lo = max(window[0], t0)
        hi = min(window[1], t1)
        if hi <= lo:
            continue
        us = (np.linspace(lo, hi, n_half) - t0) / (t1 - t0)
        d1 = derivative_rows(*(a[k : k + 1] for a in (m0, m1, chord, h)), us)[0][0]
        d1 = d1[norm_rows(d1) != 0.0]
        sup = max(sup, sine_rows(d1, l_in).max(initial=0.0), sine_rows(d1, l_out).max(initial=0.0))
    diag["sup_sine"] = sup
    checks_passed = checks_passed and sup < tol.eps_collinear

    d1_ends, d2_ends, _ = derivative_rows(m0, m1, chord, h, np.array([0.0, 1.0]))
    ends = ((i - 1, d1_ends[0, 0], d2_ends[0, 0]), (i + 1, d1_ends[1, 1], d2_ends[1, 1]))

    for j, d1, d2 in ends:
        if not 1 <= j <= n - 1:
            continue
        b_j = binormals[j - 1]
        if norm(b_j) <= eps * binormal_floor(j):
            continue
        val = dot(cross3(d1, d2), b_j)
        diag[f"curvature_sign_v{j}"] = val
        checks_passed = checks_passed and val >= -eps * norm(d1) * norm(d2) * norm(b_j)

    for j, d1, _ in ends:
        if not (1 <= j <= n - 1) or norm(binormals[j - 1]) <= poly.eps_zero * binormal_floor(j):
            continue
        ca = cross3(d1, poly.chords[j - 1])
        cb = cross3(d1, poly.chords[j])
        floor = norm(d1) ** 2 * lengths[j - 1] * lengths[j]
        product = dot(ca, cb)
        diag[f"wedge_product_v{j}"] = product
        checks_passed = checks_passed and product < -eps * floor

    has_nbrs = 1 <= i - 1 and i + 1 <= n - 1
    diag["interpolates_vertex"] = 1.0
    if has_nbrs:
        b_prev, b_next = binormals[i - 2], binormals[i]
        nbr_dot = dot(b_prev, b_next)
        diag["neighbourhood_dot"] = nbr_dot
        floor = norm(b_prev) * norm(b_next)
        ts = np.linspace(0.0, 1.0, 65)
        if nbr_dot >= -eps * floor:
            for tag, b_vec in (("prev", b_prev), ("next", b_next)):
                if norm(b_vec) == 0.0:
                    continue
                ok = bool(convexity_sampled_rows(nets, m0, m1, chord, h, b_vec, 65, eps).all())
                diag[f"neighbourhood_convex_{tag}"] = float(ok)
                checks_passed = checks_passed and ok
        else:
            d1, d2, _ = derivative_rows(m0, m1, chord, h, ts)
            omegas = cross_rows(d1, d2)
            locs = np.concatenate([t_prev + ts * (t_i - t_prev), t_i + ts * (t_next - t_i)])
            for tag, b_vec in (("prev", b_prev), ("next", b_next)):
                vals = dot_rows(omegas, b_vec).ravel()
                tol_v = eps * max(np.abs(vals).max(), 1e-300)
                vals[np.abs(vals) <= tol_v] = 0.0
                count = sign_changes(vals)
                diag[f"flip_count_{tag}"] = float(count)
                ok = count == 1
                if ok:
                    nz = vals != 0.0
                    nz_locs, pos = locs[nz], vals[nz] > 0
                    k = int(np.argmax(pos[1:] != pos[:-1]))
                    flip_at = 0.5 * (nz_locs[k] + nz_locs[k + 1])
                    diag[f"flip_location_{tag}"] = flip_at
                    ok = window[0] <= flip_at <= window[1]
                checks_passed = checks_passed and ok
    return CriterionVerdict(Criterion.COLLINEARITY, True, checks_passed, diag)


def ref_report_dict(report) -> dict:
    """``report.to_dict()`` as the report's entry objects built it before
    the report kept only columns: one ``Rows.verdict`` object per row,
    built segment by segment and then joint by joint, so that the first
    non-finite diagnostic in that order raises its ValueError."""
    codes = report._codes
    n = len(codes)
    per_segment = [[] for _ in codes]
    for rows, segments in report.segment_rows:
        for r, i in enumerate(segments):
            per_segment[i - 1].append((rows, r))
    per_joint = [[None, None] for _ in codes[1:]]
    for slot, (rows, joints) in enumerate(report.joint_rows):
        for r, j in enumerate(joints):
            per_joint[j - 1][slot] = (rows, r)
    vertices = []
    for j, (b, c) in enumerate(zip(report._binormals, report._collinear), start=1):
        v = report._extended.get(j)
        entry = {"index": j, "N": [float(x) for x in b], "collinear": c}
        vertices.append({**entry, "collinearity_extended": v and v.to_dict()})
    segments = [
        {
            "index": i,
            "flags": sorted(f.value for f in FLAG_SETS[code]),
            "delta": report._deltas[i - 2] if 2 <= i <= n - 1 else None,
            "verdicts": [rows.verdict(r).to_dict() for rows, r in pick],
        }
        for i, (code, pick) in enumerate(zip(codes, per_segment), start=1)
    ]
    joints = [
        {
            "index": j,
            **{
                key: None if p is None else p[0].verdict(p[1]).to_dict()
                for key, p in zip(("adjacency", "torsion_compat"), pick)
            },
        }
        for j, pick in enumerate(per_joint, start=1)
    ]
    return {"vertices": vertices, "segments": segments, "joints": joints, "summary": report.summary}


# the sampling oracles one segment at a time, as the command line ran them
# before they took a stack of nets


def _ref_dips(picks) -> np.ndarray:
    try:
        return np.linalg.solve(np.broadcast_to(picks, (3, 3, 3)), _DIP_RHS)[:, :, 0]
    except np.linalg.LinAlgError:
        return np.empty((0, 3))


def ref_witness_candidates(omegas) -> np.ndarray:
    """One segment's witness candidates from its ``(m, 3)`` curvature
    samples: three samples, their crosses and the finite dip solutions."""
    p0, p1, p2 = picks = omegas[[0, len(omegas) // 2, -1]]
    dips = _ref_dips(picks)
    finite = dips[np.isfinite(dips).all(axis=1)]
    return np.vstack([picks, cross3(p0, p2), cross3(p0, p1), cross3(p1, p2), finite])


def ref_projected_inflection_count(ctrl, h, directions, samples, eps_zero=EPS_ZERO) -> int:
    """Largest strict sign-change count of ``omega . w`` over the lattice and
    the segment's own witnesses, one block of directions at a time."""
    d1, d2, _ = (d[0] for d in decasteljau_derivatives(np.asarray(ctrl)[None], np.linspace(0.0, 1.0, samples), [h]))
    omegas, floors = cross_rows(d1, d2), norm_rows(d1) * norm_rows(d2)
    dirs = looped_sphere_directions(directions, extra=ref_witness_candidates(omegas))
    tols = np.broadcast_to(eps_zero * np.maximum(floors, 1e-300), (1, samples))
    step = max(2, _BLOCK_ENTRIES // samples)
    ends = [*range(step, len(dirs) - 1, step), len(dirs)]
    return max(
        int(forward_fill_changes_rows(dirs[a:b] @ omegas.T, tols).max()) for a, b in zip([0, *ends], ends)
    )


def ref_spatial_arc_inflection_count(poly, directions) -> int:
    """Largest strict sign-change count of the turn sequence over the
    lattice, the turns and their consecutive crosses, from the whole
    product at once and with no pruning."""
    turns = poly.binormals
    if len(turns) < 2:
        return 0
    extra = np.concatenate([turns, cross_rows(turns[:-1], turns[1:])])
    dirs = looped_sphere_directions(directions, extra=extra)
    tols = poly.eps_zero * poly.classes.binormal_floors[None, :]
    return int(forward_fill_changes_rows(dirs @ turns.T, tols).max())


def ref_sampled_global_convexity(pts, n_vec, eps_zero) -> bool:
    nn = norm(n_vec)
    tang = np.diff(pts, axis=0)
    tl = np.linalg.norm(tang, axis=1)
    turns = cross_rows(tang[:-1], tang[1:]) @ n_vec
    if np.any(turns < -eps_zero * tl[:-1] * tl[1:] * nn):
        return False
    rel = pts[1:] - pts[0]
    rl = np.linalg.norm(rel, axis=1)
    sweep = cross_rows(rel[:-1], tang[1:]) @ n_vec
    if np.any(sweep < -eps_zero * rl[:-1] * tl[1:] * nn):
        return False
    start = cross_rows(tang[0], rel) @ n_vec
    return not np.any(start < -eps_zero * tl[0] * rl * nn)


def ref_verify_report(spline, report, cfg, settings: dict) -> list:
    """``cli._verify_report`` walking the passing verdicts one at a time and
    drawing each inflection probe's mixing weights as it meets them.  The
    torsion numerators come through ``cli``, so a test that patches them
    there patches both."""
    from shapespline import cli

    rng = np.random.default_rng(int(os.environ.get("SHAPESPLINE_SEED", "0")))
    tol = cfg.tolerances
    us = np.linspace(0.0, 1.0, settings["samples"])
    poly = spline.polygon
    problems = []
    taus = cli.torsion_numerator_rows(*spline.rows()).tolist()
    widths = spline.widths.tolist()
    # every passing segment verdict as (segment, batch slot, row, rows), in report order
    verdicts = sorted(
        (i, slot, r, rows)
        for slot, (rows, segments) in enumerate(report.segment_rows)
        for r, i in enumerate(segments)
        if rows.passed[r]
    )
    for i, passing in itertools.groupby(verdicts, key=lambda p: p[0]):
        ctrl, h, tau = spline.nets[i - 1], widths[i - 1], taus[i - 1]
        tangents, d2, _ = (d[0] for d in decasteljau_derivatives(ctrl[None], us, [h]))
        omegas = cross_rows(tangents, d2)
        points = decasteljau(ctrl[None], us)[0]
        normals = poly.binormals[i - 2 : i]
        for _, _, r, rows in passing:
            crit = rows.criterion
            if crit is Criterion.CONVEXITY:
                for tag, nv in zip(("prev", "cur"), normals):
                    if not ref_sampled_global_convexity(points, nv, tol.eps_zero):
                        problems.append(
                            f"segment {i}: convexity passed but sampled projection "
                            f"along the {tag} binormal is not convex"
                        )
            elif crit is Criterion.INFLECTION:
                b_prev, b_cur = normals
                probes = [b_prev, b_cur]
                for _ in range(8):
                    lam = rng.uniform(0.1, 1.0)
                    mu = -rng.uniform(0.1, 1.0)
                    probes.append(lam * b_prev + mu * b_cur)
                for k, nv in enumerate(probes):
                    vals = omegas @ nv
                    # a NaN band leaves every non-zero value live
                    band = np.fmax(tol.eps_zero * max(float(np.abs(vals).max()), 1e-300), 0.0)
                    count = int(forward_fill_changes_rows(vals[None, :], band)[0])
                    if count != 1:
                        problems.append(
                            f"segment {i}: inflection passed but sampled bending "
                            f"flips {count} times along probe {k}"
                        )
            elif crit is Criterion.TORSION:
                probe_us = np.array([0.0, 0.37, 0.5, 1.0])
                d1, dd2, d3 = (d[0] for d in decasteljau_derivatives(ctrl[None], probe_us, [h]))
                dets = dot_rows(cross_rows(d1, dd2), d3)
                bad = np.abs(dets - tau) > 1e-9 * norm_rows(d1) * norm_rows(dd2) * norm(d3)
                for u, det in zip(probe_us[bad].tolist(), dets[bad].tolist()):
                    problems.append(
                        f"segment {i}: torsion numerator {tau} disagrees with "
                        f"sampled determinant {det} at u={u}"
                    )
            elif crit is Criterion.COPLANARITY:
                scale = float(np.linalg.norm(omegas, axis=1).max())
                bent = omegas[norm_rows(omegas) > tol.eps_zero * max(scale, 1e-300)]
                for tag, nv in zip(("prev", "cur"), normals):
                    if np.any(sine_rows(bent, nv) >= tol.eps_coplanar):
                        problems.append(
                            f"segment {i}: coplanarity passed but a sampled "
                            f"binormal tilts past eps1 from the {tag} normal"
                        )
            elif crit is Criterion.COLLINEARITY:
                j = int(rows.columns["vertex"][r])
                moving = tangents[norm_rows(tangents) != 0.0]
                if any(np.any(sine_rows(moving, l) >= tol.eps_collinear) for l in poly.chords[j - 1 : j + 1]):
                    problems.append(
                        f"segment {i}: collinearity passed but a sampled tangent "
                        f"tilts past eps0 from the chords"
                    )
    return problems
