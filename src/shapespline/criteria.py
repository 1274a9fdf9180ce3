"""Shape-preservation criterion checkers for cubic segments.

Each checker returns a :class:`CriterionVerdict`: whether the criterion is
*applicable* (the data-side qualifying condition holds), whether it *passed*
(None when not applicable), and a dict of named diagnostic scalars.

Sign conventions
----------------
All convexity-style conditions are oriented: a curve is convex with respect
to a normal ``N`` when its curvature vector has a non-negative component
along ``N`` (left-turning as seen from ``N``).  The closed-form convexity
check accepts only control polygons convex in that orientation; a polygon
that is convex the other way around is reported through the
``reversed_orientation`` diagnostic but does not pass.

Strictness: sampled checks tolerate zero crossings within the noise floor
(equality sets of measure zero are unavoidable on straight pieces), while
the closed-form checks demand strict inequalities with an ``eps_zero``
relative margin.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import EPS_ZERO, DegenerateInputError, cross3, dot, dot_rows, norm, norm_rows
from .geometry import sine_angle, sine_rows, triple
from .oracle import DEFAULT_SAMPLES
from .polygon import sign_changes
from .segment import CubicSegment


class Criterion(enum.Enum):
    CONVEXITY = "convexity"
    INFLECTION = "inflection"
    COLLINEARITY = "collinearity"
    TORSION = "torsion"
    COPLANARITY = "coplanarity"
    ADJACENCY_COMPAT = "adjacency_compat"
    TORSION_COMPAT = "torsion_compat"


@dataclass(frozen=True)
class Tolerances:
    """User-facing thresholds for the epsilon-bounded criteria.

    ``eps_collinear`` / ``eps_coplanar`` bound angle sines in (0, 1];
    ``eps_zero`` classifies scalars as zero in all sign tests (relative to
    magnitude floors); ``eta_fraction`` sets how much of each neighbouring
    knot interval the collinearity window covers around a vertex.
    """

    eps_collinear: float = 0.05
    eps_coplanar: float = 0.05
    eps_zero: float = EPS_ZERO
    eta_fraction: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eps_collinear <= 1.0:
            raise ValueError("eps_collinear must be in (0, 1]")
        if not 0.0 < self.eps_coplanar <= 1.0:
            raise ValueError("eps_coplanar must be in (0, 1]")
        if not self.eps_zero > 0.0:
            raise ValueError("eps_zero must be positive")
        if not 0.0 < self.eta_fraction <= 1.0:
            raise ValueError("eta_fraction must be in (0, 1]")


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: Criterion
    applicable: bool
    passed: bool | None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "applicable", bool(self.applicable))
        if self.passed is not None:
            object.__setattr__(self, "passed", bool(self.passed))
        if self.applicable and self.passed is None:
            raise ValueError("applicable verdict needs a pass/fail result")
        if not self.applicable and self.passed is not None:
            raise ValueError("pass/fail undefined when not applicable")
        clean = {k: float(v) for k, v in self.diagnostics.items()}
        for key, val in clean.items():
            if not math.isfinite(val):
                raise ValueError(f"non-finite diagnostic {key!r}: {val}")
        object.__setattr__(self, "diagnostics", clean)

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion.value,
            "applicable": self.applicable,
            "passed": self.passed,
            "diagnostics": {k: float(v) for k, v in sorted(self.diagnostics.items())},
        }


def _not_applicable(criterion: Criterion, diagnostics=None) -> CriterionVerdict:
    return CriterionVerdict(criterion, False, None, diagnostics or {})


# ---------------------------------------------------------------------------
# convexity


def check_convexity_sampled(
    seg: CubicSegment, n_vec, samples: int = DEFAULT_SAMPLES, eps_zero: float = EPS_ZERO
) -> bool:
    """Sampled global-convexity test of the segment's projection along
    ``n_vec``: curvature, swept-area and start-tangent conditions must all
    be non-negative (within noise) at every sample."""
    n_vec = np.asarray(n_vec, dtype=float)
    nn = norm(n_vec)
    if nn == 0.0:
        raise DegenerateInputError("orientation vector must be non-zero")
    us = np.linspace(0.0, 1.0, samples)
    d1, d2, _ = seg.derivatives(us)
    n1 = norm_rows(d1)
    pts = seg.point(us)
    rel = pts - pts[0]
    rn = norm_rows(rel)
    return not (
        np.any(dot_rows(np.cross(d1, d2), n_vec) < -eps_zero * n1 * norm_rows(d2) * nn)
        or np.any(dot_rows(np.cross(rel, d1), n_vec) < -eps_zero * rn * n1 * nn)
        or np.any(dot_rows(np.cross(d1[0], rel), n_vec) < -eps_zero * n1[0] * rn * nn)
    )


def _convexity_scalars(seg: CubicSegment, n_vec):
    length = seg.chord
    a = triple(seg.m0, seg.m1, n_vec)
    b = triple(seg.m0, length, n_vec)
    c = triple(length, seg.m1, n_vec)
    nn = norm(n_vec)
    fa = norm(seg.m0) * norm(seg.m1) * nn
    fb = norm(seg.m0) * norm(length) * nn
    fc = norm(length) * norm(seg.m1) * nn
    return a, b, c, fa, fb, fc


def check_convexity_cubic(
    seg: CubicSegment, n_prev, n_cur, tol: Tolerances = Tolerances()
) -> CriterionVerdict:
    """Closed-form convexity check of a cubic segment against the turn
    binormals at its two end vertices.

    Applicable when the binormals agree (positive dot).  For each normal
    ``N`` the scalars ``a = [m0, m1, N]``, ``b = [m0, L, N]``,
    ``c = [L, m1, N]`` decide global convexity of the projected control
    polygon: the segment passes for ``N`` when ``b`` and ``c`` both exceed
    ``max((h/3) a, 0)``, which is exactly the correctly oriented branch pair
    (``a > 0`` with ``b, c > (h/3) a``, or ``a <= 0`` with ``b, c > 0``).
    The opposite branches (``a > 0`` with ``b, c < 0``; ``a < 0`` with
    ``b, c < (h/3) a``) describe a control polygon convex in the reversed
    orientation and are surfaced via ``reversed_orientation`` only.
    """
    eps = tol.eps_zero
    n_prev = np.asarray(n_prev, dtype=float)
    n_cur = np.asarray(n_cur, dtype=float)
    d = dot(n_prev, n_cur)
    floor = norm(n_prev) * norm(n_cur)
    diag = {"normal_dot": d}
    if not d > eps * floor:
        return _not_applicable(Criterion.CONVEXITY, diag)

    third = seg.h / 3.0
    passed = True
    for tag, n_vec in (("prev", n_prev), ("cur", n_cur)):
        a, b, c, fa, fb, fc = _convexity_scalars(seg, n_vec)
        thr = max(third * a, 0.0)
        margin_b = eps * (fb + third * fa)
        margin_c = eps * (fc + third * fa)
        ok = (b - thr) > margin_b and (c - thr) > margin_c
        thr_low = min(third * a, 0.0)
        reversed_ok = (b - thr_low) < -margin_b and (c - thr_low) < -margin_c
        diag[f"a_{tag}"] = a
        diag[f"b_{tag}"] = b
        diag[f"c_{tag}"] = c
        diag[f"passed_{tag}"] = float(ok)
        diag[f"reversed_orientation_{tag}"] = float(reversed_ok)
        passed = passed and ok
    return CriterionVerdict(Criterion.CONVEXITY, True, passed, diag)


# ---------------------------------------------------------------------------
# inflection


def check_inflection_cubic(
    seg: CubicSegment, n_prev, n_cur, tol: Tolerances = Tolerances()
) -> CriterionVerdict:
    """Closed-form inflection check: applicable when the end binormals
    oppose, passing iff the curvature coefficients satisfy the four sign
    conditions ``c0.Nprev > 0 > c0.Ncur`` and ``c2.Nprev < 0 < c2.Ncur``
    (so the bending flips exactly once for every admissible mixed normal)."""
    eps = tol.eps_zero
    n_prev = np.asarray(n_prev, dtype=float)
    n_cur = np.asarray(n_cur, dtype=float)
    d = dot(n_prev, n_cur)
    floor = norm(n_prev) * norm(n_cur)
    diag = {"normal_dot": d}
    if not d < -eps * floor:
        return _not_applicable(Criterion.INFLECTION, diag)

    quad = seg.curvature_quad()
    checks = (
        ("c0_dot_nprev", dot(quad.c0, n_prev), norm(quad.c0) * norm(n_prev), +1),
        ("c0_dot_ncur", dot(quad.c0, n_cur), norm(quad.c0) * norm(n_cur), -1),
        ("c2_dot_nprev", dot(quad.c2, n_prev), norm(quad.c2) * norm(n_prev), -1),
        ("c2_dot_ncur", dot(quad.c2, n_cur), norm(quad.c2) * norm(n_cur), +1),
    )
    passed = True
    for key, val, f, want in checks:
        diag[key] = val
        passed = passed and (want * val > eps * f)
    return CriterionVerdict(Criterion.INFLECTION, True, passed, diag)


# ---------------------------------------------------------------------------
# torsion


def check_torsion_cubic(
    seg: CubicSegment, delta: float, tol: Tolerances = Tolerances(), delta_floor: float | None = None
) -> CriterionVerdict:
    """Torsion-sign check: applicable when the span twist ``delta`` is
    non-zero, passing iff ``[m0, L, m1] * delta > 0`` (the segment twists
    off its osculating plane the same way the data polygon does)."""
    eps = tol.eps_zero
    if delta_floor is None:
        delta_floor = norm(seg.chord) ** 3
    diag = {"delta": delta}
    if not abs(delta) > eps * delta_floor:
        return _not_applicable(Criterion.TORSION, diag)
    t = triple(seg.m0, seg.chord, seg.m1)
    f = norm(seg.m0) * norm(seg.chord) * norm(seg.m1)
    product = t * delta
    diag["tangent_triple"] = t
    diag["product"] = product
    passed = product > eps * f * abs(delta)
    return CriterionVerdict(Criterion.TORSION, True, passed, diag)


# ---------------------------------------------------------------------------
# collinearity


def _derivative_control_points(seg: CubicSegment):
    return (
        seg.m0,
        (3.0 / seg.h) * seg.chord - seg.m0 - seg.m1,
        seg.m1,
    )


def check_collinearity_cubic(
    seg: CubicSegment, l_prev, l_cur, tol: Tolerances = Tolerances()
) -> CriterionVerdict:
    """Sufficient collinearity check: with parallel, co-directed chords at
    the shared vertex, the tangent stays within sine ``eps_collinear`` of
    both chords everywhere iff its three derivative control points do.

    Hypothesis (each derivative control point non-zero and within 90 deg of
    the chords) is reported through ``hypothesis_ok``; control points that
    are numerically zero are skipped in the supremum.
    """
    eps = tol.eps_zero
    l_prev = np.asarray(l_prev, dtype=float)
    l_cur = np.asarray(l_cur, dtype=float)
    cr = norm(cross3(l_prev, l_cur))
    d = dot(l_prev, l_cur)
    floor = norm(l_prev) * norm(l_cur)
    diag = {"chord_cross_norm": cr, "chord_dot": d}
    if not (cr <= eps * floor and d > eps * floor):
        return _not_applicable(Criterion.COLLINEARITY, diag)

    ctrl = _derivative_control_points(seg)
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


# ---------------------------------------------------------------------------
# coplanarity


def check_coplanarity_cubic(
    seg: CubicSegment,
    n_prev,
    n_cur,
    delta: float,
    tol: Tolerances = Tolerances(),
    delta_floor: float | None = None,
) -> CriterionVerdict:
    """Sufficient coplanarity check: with a vanishing span twist and
    well-defined end binormals, the segment's osculating plane stays within
    sine ``eps_coplanar`` of the data plane if its three curvature
    coefficients do.  Zero coefficients (locally straight) are skipped."""
    eps = tol.eps_zero
    n_prev = np.asarray(n_prev, dtype=float)
    n_cur = np.asarray(n_cur, dtype=float)
    if delta_floor is None:
        delta_floor = norm(seg.chord) ** 3
    np_n, nc_n = norm(n_prev), norm(n_cur)
    diag = {"delta": delta, "normal_norm_product": np_n * nc_n}
    if not (abs(delta) <= eps * delta_floor and np_n > 0.0 and nc_n > 0.0):
        return _not_applicable(Criterion.COPLANARITY, diag)

    quad = seg.curvature_quad()
    coeffs = (quad.c0, quad.c1, quad.c2)
    g_scale = max(norm(g) for g in coeffs)
    hypothesis_ok = True
    sup = 0.0
    if g_scale > 0.0:
        for k, g in enumerate(coeffs):
            if norm(g) <= eps * g_scale:
                continue
            for tag, n_vec in (("prev", n_prev), ("cur", n_cur)):
                if dot(g, n_vec) < 0.0:
                    hypothesis_ok = False
                s = sine_angle(g, n_vec)
                diag[f"sine_c{k}_{tag}"] = s
                sup = max(sup, s)
    diag["sup_sine"] = sup
    diag["hypothesis_ok"] = float(hypothesis_ok)
    passed = sup < tol.eps_coplanar
    return CriterionVerdict(Criterion.COPLANARITY, True, passed, diag)


# ---------------------------------------------------------------------------
# adjacency compatibility


def check_adjacency_compat(
    prev_seg: CubicSegment,
    next_seg: CubicSegment,
    n_vertex,
    l_prev,
    l_cur,
    tol: Tolerances = Tolerances(),
) -> CriterionVerdict:
    """Compatibility of convexity/inflection behaviour across a C1 joint:
    the shared tangent, projected onto the plane of the vertex binormal,
    must point strictly inside the wedge of the two chords
    (``(t x l_cur) . (t x l_prev) < 0``)."""
    eps = tol.eps_zero
    gap = norm(prev_seg.m1 - next_seg.m0)
    scale = norm(prev_seg.m1) + norm(next_seg.m0)
    if gap > eps * max(scale, 1e-300):
        raise ValueError("segments do not share a tangent at the joint")
    n_vertex = np.asarray(n_vertex, dtype=float)
    l_prev = np.asarray(l_prev, dtype=float)
    l_cur = np.asarray(l_cur, dtype=float)
    nn = norm(n_vertex)
    diag = {"vertex_normal_norm": nn}
    if nn == 0.0:
        return _not_applicable(Criterion.ADJACENCY_COMPAT, diag)
    m = prev_seg.m1
    t_proj = m - (dot(m, n_vertex) / (nn * nn)) * n_vertex
    a = cross3(t_proj, l_cur)
    b = cross3(t_proj, l_prev)
    product = dot(a, b)
    floor = norm(t_proj) ** 2 * norm(l_cur) * norm(l_prev)
    diag["product"] = product
    diag["projected_tangent_norm"] = norm(t_proj)
    passed = product < -eps * floor
    return CriterionVerdict(Criterion.ADJACENCY_COMPAT, True, passed, diag)


def check_torsion_compat(
    delta_prev: float,
    delta_cur: float,
    tau_joint_prev: float,
    tau_joint_cur: float,
    tol: Tolerances = Tolerances(),
    delta_floor: float = 1.0,
    tau_floor: float = 1.0,
) -> CriterionVerdict:
    """Torsion compatibility across a joint.

    When the neighbouring span twists oppose, both segments can only keep
    their torsion signs if the torsion vanishes at the joint from both
    sides, or if the spline is torsion-discontinuous there (reported via
    ``torsion_discontinuous``).  Same-sign twists just require each side to
    match its own twist.
    """
    eps = tol.eps_zero
    diag = {
        "delta_prev": delta_prev,
        "delta_cur": delta_cur,
        "tau_joint_prev": tau_joint_prev,
        "tau_joint_cur": tau_joint_cur,
    }
    if abs(delta_prev) <= eps * delta_floor or abs(delta_cur) <= eps * delta_floor:
        return _not_applicable(Criterion.TORSION_COMPAT, diag)
    if delta_prev * delta_cur < 0.0:
        zero_prev = abs(tau_joint_prev) <= eps * tau_floor
        zero_cur = abs(tau_joint_cur) <= eps * tau_floor
        discontinuous = abs(tau_joint_prev - tau_joint_cur) > eps * (
            abs(tau_joint_prev) + abs(tau_joint_cur) + tau_floor
        )
        diag["torsion_discontinuous"] = float(discontinuous)
        passed = (zero_prev and zero_cur) or discontinuous
    else:
        diag["torsion_discontinuous"] = 0.0
        passed = (
            tau_joint_prev * delta_prev > eps * abs(delta_prev) * tau_floor
            and tau_joint_cur * delta_cur > eps * abs(delta_cur) * tau_floor
        )
    return CriterionVerdict(Criterion.TORSION_COMPAT, True, passed, diag)


# ---------------------------------------------------------------------------
# collinearity, extended neighbourhood form


def check_collinearity_extended(spline, vertex: int, tol: Tolerances = Tolerances()) -> CriterionVerdict:
    """Neighbourhood collinearity check at a vertex with parallel,
    co-directed chords, evaluated on the built spline.

    Checks, over a window around the vertex spanning into both adjacent
    segments: (a) the tangent-sine bound against both chords; (b) curvature
    orientation at the neighbouring vertices; (c) the tangent at each
    neighbouring vertex pointing strictly inside that vertex's data wedge;
    (d) in a convex neighbourhood, sampled global convexity across the two
    segments (whether the curve interpolates the middle vertex is reported,
    not failed -- interpolating splines always do); in an inflection
    neighbourhood, exactly one bending flip located inside the window.
    Conditions whose ingredients do not exist (boundary vertices, degenerate
    wedges) are skipped.
    """
    poly = spline.polygon
    n = poly.n_segments
    if not 1 <= vertex <= n - 1:
        raise IndexError(f"vertex index {vertex} out of range 1..{n - 1}")
    if not poly.vertex_is_collinear(vertex):
        return _not_applicable(Criterion.COLLINEARITY, {"vertex": float(vertex)})
    eps = tol.eps_zero
    i = vertex
    seg_in, seg_out = spline.segments[i - 1], spline.segments[i]
    knots = spline.knots
    t_prev, t_i, t_next = knots[i - 1], knots[i], knots[i + 1]
    frac = tol.eta_fraction
    window = (t_i - frac * (t_i - t_prev), t_i + frac * (t_next - t_i))
    diag = {"vertex": float(i), "window_lo": window[0], "window_hi": window[1]}
    checks_passed = True

    # (a) tangent sine bound over the window, against both chords
    l_in, l_out = poly.chord(i), poly.chord(i + 1)
    sup = 0.0
    n_half = 33
    for seg, t0, t1 in ((seg_in, t_prev, t_i), (seg_out, t_i, t_next)):
        lo = max(window[0], t0)
        hi = min(window[1], t1)
        if hi <= lo:
            continue
        d1, _, _ = seg.derivatives((np.linspace(lo, hi, n_half) - t0) / (t1 - t0))
        d1 = d1[norm_rows(d1) != 0.0]
        sup = max(sup, sine_rows(d1, l_in).max(initial=0.0), sine_rows(d1, l_out).max(initial=0.0))
    diag["sup_sine"] = sup
    checks_passed = checks_passed and sup < tol.eps_collinear

    # (b) curvature orientation at the neighbouring vertices
    for j, seg, u in ((i - 1, seg_in, 0.0), (i + 1, seg_out, 1.0)):
        if not 1 <= j <= n - 1:
            continue
        b_j = poly.binormal(j)
        if norm(b_j) <= eps * poly._binormal_floor(j):
            continue
        d1, d2, _ = seg.derivatives(u)
        val = dot(cross3(d1, d2), b_j)
        diag[f"curvature_sign_v{j}"] = val
        checks_passed = checks_passed and val >= -eps * norm(d1) * norm(d2) * norm(b_j)

    # (c) tangent inside the data wedge at the neighbouring vertices
    for j, seg, u in ((i - 1, seg_in, 0.0), (i + 1, seg_out, 1.0)):
        if not (1 <= j <= n - 1) or poly.binormal_is_zero(j):
            continue
        d1, _, _ = seg.derivatives(u)
        ca = cross3(d1, poly.chord(j))
        cb = cross3(d1, poly.chord(j + 1))
        floor = norm(d1) ** 2 * poly.chord_length(j) * poly.chord_length(j + 1)
        product = dot(ca, cb)
        diag[f"wedge_product_v{j}"] = product
        checks_passed = checks_passed and product < -eps * floor

    # (d) neighbourhood-dependent behaviour across both segments
    has_nbrs = 1 <= i - 1 and i + 1 <= n - 1
    interp_gap = norm(seg_in.point(1.0) - poly.points[i])
    diag["interpolates_vertex"] = float(interp_gap <= eps * max(poly.scale, 1e-300))
    if has_nbrs:
        b_prev, b_next = poly.binormal(i - 1), poly.binormal(i + 1)
        nbr_dot = dot(b_prev, b_next)
        diag["neighbourhood_dot"] = nbr_dot
        floor = norm(b_prev) * norm(b_next)
        ts = np.linspace(0.0, 1.0, 65)
        if nbr_dot >= -eps * floor:
            # convex neighbourhood: sampled convexity across both segments
            for tag, b_vec in (("prev", b_prev), ("next", b_next)):
                if norm(b_vec) == 0.0:
                    continue
                ok = check_convexity_sampled(seg_in, b_vec, 65, eps) and check_convexity_sampled(
                    seg_out, b_vec, 65, eps
                )
                diag[f"neighbourhood_convex_{tag}"] = float(ok)
                checks_passed = checks_passed and ok
        else:
            # inflection neighbourhood: the curve must pass through the vertex
            checks_passed = checks_passed and diag["interpolates_vertex"] == 1.0
            for tag, b_vec in (("prev", b_prev), ("next", b_next)):
                vals, locs = [], []
                for seg, t0, t1 in ((seg_in, t_prev, t_i), (seg_out, t_i, t_next)):
                    d1, d2, _ = seg.derivatives(ts)
                    vals.append(dot_rows(np.cross(d1, d2), b_vec))
                    locs.append(t0 + ts * (t1 - t0))
                vals, locs = np.concatenate(vals), np.concatenate(locs)
                tol_v = eps * max(np.abs(vals).max(), 1e-300)
                vals[np.abs(vals) <= tol_v] = 0.0
                count = sign_changes(vals)
                diag[f"flip_count_{tag}"] = float(count)
                ok = count == 1
                if ok:
                    # the one sign change lies between two consecutive
                    # non-zero samples; report their midpoint
                    nz = vals != 0.0
                    locs, pos = locs[nz], vals[nz] > 0
                    k = int(np.argmax(pos[1:] != pos[:-1]))
                    flip_at = 0.5 * (locs[k] + locs[k + 1])
                    diag[f"flip_location_{tag}"] = flip_at
                    ok = window[0] <= flip_at <= window[1]
                checks_passed = checks_passed and ok
    return CriterionVerdict(Criterion.COLLINEARITY, True, checks_passed, diag)
