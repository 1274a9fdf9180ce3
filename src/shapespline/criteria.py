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

from .geometry import EPS_ZERO, DegenerateInputError, cross_rows, dot_rows, norm
from .geometry import first_max, norm_rows, powers, triple_rows
from .oracle import DEFAULT_SAMPLES
from .polygon import _BLOCK_ENTRIES, _relative_changes
from .segment import CubicSegment, curvature_quad_rows, derivative_rows, point_rows


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


def zero_threshold(poly, tol: Tolerances) -> float:
    """The ``eps_zero`` that the polygon classifies with and the tolerances
    decide with; a ValueError names both when they differ."""
    if tol.eps_zero != poly.eps_zero:
        raise ValueError(f"polygon eps_zero {poly.eps_zero!r} differs from tolerances eps_zero {tol.eps_zero!r}")
    return tol.eps_zero


class Rows:
    """One closed-form checker run over a batch of rows: per row, whether
    it applies, whether it passed, and its named diagnostics as float
    columns in the order the verdict lists them.

    A non-applicable row carries only the first ``head`` diagnostics.  A
    column named in ``masks`` is reported only on the rows its mask holds;
    ``present[name]`` is the resulting per-row mask of each column.
    """

    def __init__(self, criterion: Criterion, applicable, passed, columns: dict, head: int, masks=None):
        self.criterion = criterion
        self.applicable = applicable
        self.passed = passed
        self.columns = {}
        self.present = {}
        for k, (name, col) in enumerate(columns.items()):
            shown = np.ones(len(applicable), dtype=bool) if k < head else applicable
            if masks and name in masks:
                shown = shown & masks[name]
            self.add_column(name, col, shown)

    def add_column(self, name: str, values, present=None) -> None:
        """Append a diagnostic, reported on every row unless ``present``
        says otherwise; bool columns report as 1.0 and 0.0."""
        self.columns[name] = np.asarray(values, dtype=float)
        self.present[name] = np.ones(len(self.applicable), dtype=bool) if present is None else present

    def first_non_finite(self):
        """``(r, name, value)`` of the first non-finite reported diagnostic:
        ``r`` is the first row holding one, and ``name`` its first such
        column in column order.  None when every reported diagnostic is
        finite."""
        names = list(self.columns)
        bad = np.column_stack([~np.isfinite(self.columns[k]) & self.present[k] for k in names])
        if not bad.any():
            return None
        r, c = np.argwhere(bad)[0].tolist()  # row-major: first row, then first column
        return r, names[c], float(self.columns[names[c]][r])

    def verdict(self, r: int) -> CriterionVerdict:
        """Row ``r`` as a verdict object, for the one-row ``check_*`` API."""
        diag = {name: col[r] for name, col in self.columns.items() if self.present[name][r]}
        if not self.applicable[r]:
            return CriterionVerdict(self.criterion, False, None, diag)
        return CriterionVerdict(self.criterion, True, self.passed[r], diag)


def _row(v) -> np.ndarray:
    """One vector as a one-row batch."""
    return np.asarray(v, dtype=float).reshape(1, -1)


# ---------------------------------------------------------------------------
# convexity


def convexity_sampled_rows(
    nets, m0, m1, chord, h, n_vec, samples: int = DEFAULT_SAMPLES, eps_zero: float = EPS_ZERO
) -> np.ndarray:
    """Sampled global-convexity test of each segment's projection along
    ``n_vec``, over rows of Bezier nets and their ``(m0, m1, chord, h)``:
    per row, whether the curvature, swept-area and start-tangent conditions
    are all non-negative (within noise) at every sample.  ``n_vec`` is one
    vector for every net, or one row per net."""
    n_vec = np.asarray(n_vec, dtype=float).reshape(-1, 1, 3)
    nn = norm_rows(n_vec)
    if not nn.all():
        raise DegenerateInputError("orientation vector must be non-zero")
    us = np.linspace(0.0, 1.0, samples)
    d1, d2, _ = derivative_rows(m0, m1, chord, h, us)
    n1 = norm_rows(d1)
    pts = point_rows(nets, us)
    rel = pts - pts[:, :1]
    rn = norm_rows(rel)
    bad = (
        (dot_rows(cross_rows(d1, d2), n_vec) < -eps_zero * n1 * norm_rows(d2) * nn)
        | (dot_rows(cross_rows(rel, d1), n_vec) < -eps_zero * rn * n1 * nn)
        | (dot_rows(cross_rows(d1[:, :1], rel), n_vec) < -eps_zero * n1[:, :1] * rn * nn)
    )
    return ~bad.any(axis=1)


def check_convexity_sampled(
    seg: CubicSegment, n_vec, samples: int = DEFAULT_SAMPLES, eps_zero: float = EPS_ZERO
) -> bool:
    """Sampled global-convexity test of the segment's projection along
    ``n_vec``.  The one-row case of ``convexity_sampled_rows``."""
    ok = convexity_sampled_rows(seg.bezier_points[None], *seg.rows(), n_vec, samples, eps_zero)
    return bool(ok[0])


def convexity_rows(m0, m1, chord, h, n_prev, n_cur, eps: float) -> Rows:
    """``check_convexity_cubic`` over rows of segments and normal pairs."""
    d = dot_rows(n_prev, n_cur)
    nprev, ncur = norm_rows(n_prev), norm_rows(n_cur)
    applicable = d > eps * (nprev * ncur)
    third = h / 3.0
    n0, n1, nl = norm_rows(m0), norm_rows(m1), norm_rows(chord)
    columns = {"normal_dot": d}
    passed = applicable
    for tag, n_vec, nn in (("prev", n_prev, nprev), ("cur", n_cur, ncur)):
        a = triple_rows(m0, m1, n_vec)
        b = triple_rows(m0, chord, n_vec)
        c = triple_rows(chord, m1, n_vec)
        fa, fb, fc = n0 * n1 * nn, n0 * nl * nn, nl * n1 * nn
        ta = third * a
        thr = first_max(ta, 0.0)
        thr_low = np.where(0.0 < ta, 0.0, ta)  # min(ta, 0.0) as Python picks it
        margin_b = eps * (fb + third * fa)
        margin_c = eps * (fc + third * fa)
        ok = ((b - thr) > margin_b) & ((c - thr) > margin_c)
        reversed_ok = ((b - thr_low) < -margin_b) & ((c - thr_low) < -margin_c)
        columns.update(
            {
                f"a_{tag}": a,
                f"b_{tag}": b,
                f"c_{tag}": c,
                f"passed_{tag}": ok,
                f"reversed_orientation_{tag}": reversed_ok,
            }
        )
        passed = passed & ok
    return Rows(Criterion.CONVEXITY, applicable, passed, columns, head=1)


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
    The one-row case of ``convexity_rows``.
    """
    return convexity_rows(*seg.rows(), _row(n_prev), _row(n_cur), tol.eps_zero).verdict(0)


# ---------------------------------------------------------------------------
# inflection


def inflection_rows(quad, n_prev, n_cur, eps: float) -> Rows:
    """``check_inflection_cubic`` over rows of curvature coefficients
    ``(c0, c1, c2)`` and normal pairs."""
    c0, _, c2 = quad
    d = dot_rows(n_prev, n_cur)
    nprev, ncur = norm_rows(n_prev), norm_rows(n_cur)
    applicable = d < -eps * (nprev * ncur)
    nc0, nc2 = norm_rows(c0), norm_rows(c2)
    columns = {"normal_dot": d}
    passed = applicable
    for key, c, nc, n_vec, nn, want in (
        ("c0_dot_nprev", c0, nc0, n_prev, nprev, +1),
        ("c0_dot_ncur", c0, nc0, n_cur, ncur, -1),
        ("c2_dot_nprev", c2, nc2, n_prev, nprev, -1),
        ("c2_dot_ncur", c2, nc2, n_cur, ncur, +1),
    ):
        val = dot_rows(c, n_vec)
        columns[key] = val
        passed = passed & (want * val > eps * (nc * nn))
    return Rows(Criterion.INFLECTION, applicable, passed, columns, head=1)


def check_inflection_cubic(
    seg: CubicSegment, n_prev, n_cur, tol: Tolerances = Tolerances()
) -> CriterionVerdict:
    """Closed-form inflection check: applicable when the end binormals
    oppose, passing iff the curvature coefficients satisfy the four sign
    conditions ``c0.Nprev > 0 > c0.Ncur`` and ``c2.Nprev < 0 < c2.Ncur``
    (so the bending flips exactly once for every admissible mixed normal).
    The one-row case of ``inflection_rows``."""
    quad = curvature_quad_rows(*seg.rows())
    return inflection_rows(quad, _row(n_prev), _row(n_cur), tol.eps_zero).verdict(0)


# ---------------------------------------------------------------------------
# torsion


def torsion_rows(m0, m1, chord, delta, delta_floor, eps: float) -> Rows:
    """``check_torsion_cubic`` over rows of segments and span twists."""
    applicable = np.abs(delta) > eps * delta_floor
    t = triple_rows(m0, chord, m1)
    f = norm_rows(m0) * norm_rows(chord) * norm_rows(m1)
    product = t * delta
    passed = applicable & (product > eps * f * np.abs(delta))
    columns = {"delta": delta, "tangent_triple": t, "product": product}
    return Rows(Criterion.TORSION, applicable, passed, columns, head=1)


def check_torsion_cubic(
    seg: CubicSegment, delta: float, tol: Tolerances = Tolerances(), delta_floor: float | None = None
) -> CriterionVerdict:
    """Torsion-sign check: applicable when the span twist ``delta`` is
    non-zero, passing iff ``[m0, L, m1] * delta > 0`` (the segment twists
    off its osculating plane the same way the data polygon does).
    The one-row case of ``torsion_rows``."""
    if delta_floor is None:
        delta_floor = norm(seg.chord) ** 3
    m0, m1, chord, _ = seg.rows()
    return torsion_rows(m0, m1, chord, np.array([delta], dtype=float), delta_floor, tol.eps_zero).verdict(0)


# ---------------------------------------------------------------------------
# collinearity


def _hull_sines(ctrl, key: str, v_prev, nv_prev, v_cur, nv_cur, eps: float):
    """The convex-hull sine bound shared by collinearity and coplanarity:
    the ``sine_{key}{k}_{tag}`` columns of three control vectors ``ctrl``
    against ``v_prev`` and ``v_cur`` and their masks (False where a control
    vector is numerically zero), their supremum, the mask of rows with no
    obtuse angle, and the mask of rows with no zero control vector."""
    norms = [norm_rows(g) for g in ctrl]
    scale = first_max(first_max(norms[0], norms[1]), norms[2])
    columns, masks = {}, {}
    no_obtuse = np.ones(len(scale), dtype=bool)
    all_live = np.ones(len(scale), dtype=bool)
    sup = np.zeros(len(scale))
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, (g, ng) in enumerate(zip(ctrl, norms)):
            # a NaN norm must stay live, so that its NaN sine is reported
            live = ~(scale == 0.0) & ~(ng <= eps * scale)
            all_live &= live
            for tag, vec, nv in (("prev", v_prev, nv_prev), ("cur", v_cur, nv_cur)):
                no_obtuse &= ~(live & (dot_rows(g, vec) < 0.0))
                s = np.minimum(norm_rows(cross_rows(g, vec)) / (ng * nv), 1.0)
                sup = np.where(live & (s > sup), s, sup)
                columns[f"sine_{key}{k}_{tag}"] = s
                masks[f"sine_{key}{k}_{tag}"] = live
    return columns, masks, sup, no_obtuse, all_live


def collinearity_rows(m0, m1, chord, h, l_prev, l_cur, eps: float, eps_collinear: float) -> Rows:
    """``check_collinearity_cubic`` over rows of segments and chord pairs;
    the control vectors are the hodograph points ``(m0, 3L/h - m0 - m1, m1)``."""
    np_l, nc_l = norm_rows(l_prev), norm_rows(l_cur)
    cr = norm_rows(cross_rows(l_prev, l_cur))
    d = dot_rows(l_prev, l_cur)
    floor = np_l * nc_l
    applicable = (cr <= eps * floor) & (d > eps * floor)
    ctrl = (m0, (3.0 / h)[:, None] * chord - m0 - m1, m1)
    sines, masks, sup, no_obtuse, all_live = _hull_sines(ctrl, "p", l_prev, np_l, l_cur, nc_l, eps)
    columns = {"chord_cross_norm": cr, "chord_dot": d, **sines, "sup_sine": sup}
    columns["hypothesis_ok"] = no_obtuse & all_live
    passed = applicable & (sup < eps_collinear)
    return Rows(Criterion.COLLINEARITY, applicable, passed, columns, head=2, masks=masks)


def check_collinearity_cubic(
    seg: CubicSegment, l_prev, l_cur, tol: Tolerances = Tolerances()
) -> CriterionVerdict:
    """Sufficient collinearity check: with parallel, co-directed chords at
    the shared vertex, the tangent stays within sine ``eps_collinear`` of
    both chords everywhere iff its three derivative control points do.

    Hypothesis (each derivative control point non-zero and within 90 deg of
    the chords) is reported through ``hypothesis_ok``; control points that
    are numerically zero are skipped in the supremum.  The one-row case of
    ``collinearity_rows``.
    """
    rows = collinearity_rows(*seg.rows(), _row(l_prev), _row(l_cur), tol.eps_zero, tol.eps_collinear)
    return rows.verdict(0)


# ---------------------------------------------------------------------------
# coplanarity


def coplanarity_rows(quad, n_prev, n_cur, delta, delta_floor, eps: float, eps_coplanar: float) -> Rows:
    """``check_coplanarity_cubic`` over rows of curvature coefficients
    ``(c0, c1, c2)``, normal pairs and span twists."""
    np_n, nc_n = norm_rows(n_prev), norm_rows(n_cur)
    applicable = (np.abs(delta) <= eps * delta_floor) & (np_n > 0.0) & (nc_n > 0.0)
    sines, masks, sup, hypothesis_ok, _ = _hull_sines(quad, "c", n_prev, np_n, n_cur, nc_n, eps)
    columns = {"delta": delta, "normal_norm_product": np_n * nc_n, **sines}
    columns["sup_sine"] = sup
    columns["hypothesis_ok"] = hypothesis_ok
    passed = applicable & (sup < eps_coplanar)
    return Rows(Criterion.COPLANARITY, applicable, passed, columns, head=2, masks=masks)


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
    coefficients do.  Zero coefficients (locally straight) are skipped.
    The one-row case of ``coplanarity_rows``."""
    if delta_floor is None:
        delta_floor = norm(seg.chord) ** 3
    quad, delta = curvature_quad_rows(*seg.rows()), np.array([delta], dtype=float)
    rows = coplanarity_rows(quad, _row(n_prev), _row(n_cur), delta, delta_floor, tol.eps_zero, tol.eps_coplanar)
    return rows.verdict(0)


# ---------------------------------------------------------------------------
# adjacency compatibility


def adjacency_rows(m, n_vertex, l_prev, l_cur, eps: float) -> Rows:
    """``check_adjacency_compat`` over rows of joint tangents, vertex
    binormals and chord pairs."""
    nn = norm_rows(n_vertex)
    applicable = nn != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_proj = m - (dot_rows(m, n_vertex) / (nn * nn))[:, None] * n_vertex
    product = dot_rows(cross_rows(t_proj, l_cur), cross_rows(t_proj, l_prev))
    nt = norm_rows(t_proj)
    floor = powers(nt, 2) * norm_rows(l_cur) * norm_rows(l_prev)
    passed = applicable & (product < -eps * floor)
    columns = {"vertex_normal_norm": nn, "product": product, "projected_tangent_norm": nt}
    return Rows(Criterion.ADJACENCY_COMPAT, applicable, passed, columns, head=1)


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
    (``(t x l_cur) . (t x l_prev) < 0``).  The one-row case of
    ``adjacency_rows``."""
    eps = tol.eps_zero
    gap = norm(prev_seg.m1 - next_seg.m0)
    scale = norm(prev_seg.m1) + norm(next_seg.m0)
    if gap > eps * max(scale, 1e-300):
        raise ValueError("segments do not share a tangent at the joint")
    return adjacency_rows(prev_seg.m1[None], _row(n_vertex), _row(l_prev), _row(l_cur), eps).verdict(0)


def torsion_compat_rows(delta_prev, delta_cur, tau_prev, tau_cur, eps: float, delta_floor, tau_floor) -> Rows:
    """``check_torsion_compat`` over rows of joints."""
    applicable = ~((np.abs(delta_prev) <= eps * delta_floor) | (np.abs(delta_cur) <= eps * delta_floor))
    opposed = delta_prev * delta_cur < 0.0
    zero_prev = np.abs(tau_prev) <= eps * tau_floor
    zero_cur = np.abs(tau_cur) <= eps * tau_floor
    discontinuous = np.abs(tau_prev - tau_cur) > eps * (np.abs(tau_prev) + np.abs(tau_cur) + tau_floor)
    same_ok = (tau_prev * delta_prev > eps * np.abs(delta_prev) * tau_floor) & (
        tau_cur * delta_cur > eps * np.abs(delta_cur) * tau_floor
    )
    passed = applicable & np.where(opposed, (zero_prev & zero_cur) | discontinuous, same_ok)
    columns = {
        "delta_prev": delta_prev,
        "delta_cur": delta_cur,
        "tau_joint_prev": tau_prev,
        "tau_joint_cur": tau_cur,
        "torsion_discontinuous": opposed & discontinuous,
    }
    return Rows(Criterion.TORSION_COMPAT, applicable, passed, columns, head=4)


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
    match its own twist.  The one-row case of ``torsion_compat_rows``.
    """
    values = (delta_prev, delta_cur, tau_joint_prev, tau_joint_cur)
    rows = torsion_compat_rows(
        *(np.array([v], dtype=float) for v in values), tol.eps_zero, delta_floor, tau_floor
    )
    return rows.verdict(0)


# ---------------------------------------------------------------------------
# collinearity, extended neighbourhood form


# collinear vertices evaluated together, by the oracles' run rule: the
# convex-neighbourhood scan samples four rows of 65 points per vertex, so
# each coordinate plane of its (rows, 65, 3) arrays holds at most
# ``_BLOCK_ENTRIES`` values, and memory stays linear in the vertices
_VERTEX_BLOCK = _BLOCK_ENTRIES // (4 * 65)


def check_collinearity_extended(
    spline, vertices, tol: Tolerances = Tolerances()
) -> list[CriterionVerdict]:
    """Neighbourhood collinearity check at vertices with parallel,
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
    wedges) are skipped.  A vertex whose chords are not collinear gets a
    non-applicable verdict.

    ``vertices`` is a sequence of vertex indices; their verdicts return in
    that order.  The collinear vertices are evaluated together, a block of
    them at a time, through the row kernels; each verdict has the bits it
    has when its vertex is checked alone.
    """
    poly = spline.polygon
    n = poly.n_segments
    order = [int(vertex) for vertex in vertices]
    for vertex in order:
        if not 1 <= vertex <= n - 1:
            raise IndexError(f"vertex index {vertex} out of range 1..{n - 1}")
    eps = zero_threshold(poly, tol)
    collinear = poly.classes.collinear
    live = sorted({vertex for vertex in order if collinear[vertex - 1]})
    found = {}
    for a in range(0, len(live), _VERTEX_BLOCK):
        block = live[a : a + _VERTEX_BLOCK]
        found.update(zip(block, _extended_block(spline, np.array(block), tol, eps)))
    return [
        CriterionVerdict(Criterion.COLLINEARITY, True, *found[vertex])
        if vertex in found
        else CriterionVerdict(Criterion.COLLINEARITY, False, None, {"vertex": float(vertex)})
        for vertex in order
    ]


def _linspace_rows(lo, hi, num: int) -> np.ndarray:
    """``np.linspace(lo[r], hi[r], num)`` for each row ``r``, as numpy
    computes it for scalar ends: a row whose step is zero multiplies by its
    width after dividing, every other row by its step.  (With array ends,
    np.linspace takes the divide-first formula for every row as soon as
    one row's step is zero.)"""
    ks = np.arange(num, dtype=float)
    width = (hi - lo)[:, None]
    step = width / (num - 1)
    y = np.where(step == 0.0, (ks / (num - 1)) * width, ks * step) + lo[:, None]
    y[:, -1] = hi
    return y


def _extended_block(spline, i, tol: Tolerances, eps: float) -> list:
    """``(passed, diagnostics)`` of the extended check at each collinear
    vertex of the index array ``i``, in its order."""
    poly = spline.polygon
    n = poly.n_segments
    lengths, norms, _, zero, _, _ = poly.classes
    v = len(i)
    # segments i and i+1 (rows i-1 and i) meet at vertex i; they are rows
    # 2k and 2k+1 of the block
    seg = ((i - 1)[:, None] + np.array([0, 1])).ravel()
    nets = spline.nets[seg]
    m0, m1, chord, h = (a[seg] for a in spline.rows())
    t_prev, t_i, t_next = (spline.knots[i + d] for d in (-1, 0, 1))
    frac = tol.eta_fraction
    w_lo, w_hi = t_i - frac * (t_i - t_prev), t_i + frac * (t_next - t_i)
    passed = np.ones(v, dtype=bool)
    extra = [[] for _ in range(v)]  # per vertex, the (d) diagnostics

    # (a) tangent sine bound over the window, against both chords: row 2k
    # samples the window's part of segment i, row 2k+1 its part of segment
    # i+1, a row whose part is empty masked out.  The part's ends are picked
    # as Python's max and min pick them
    t0 = np.column_stack([t_prev, t_i]).ravel()
    t1 = np.column_stack([t_i, t_next]).ravel()
    lo = first_max(np.repeat(w_lo, 2), t0)
    hi = np.where(t1 < np.repeat(w_hi, 2), t1, np.repeat(w_hi, 2))
    us = (_linspace_rows(lo, hi, 33) - t0[:, None]) / (t1 - t0)[:, None]
    d1 = derivative_rows(m0, m1, chord, h, us)[0]
    n1 = norm_rows(d1)
    live = (n1 != 0.0) & (hi > lo)[:, None]
    sups = []
    with np.errstate(divide="ignore", invalid="ignore"):
        # each part against its vertex's incoming, then outgoing chord
        for c in (np.repeat(chord[0::2], 2, axis=0), np.repeat(chord[1::2], 2, axis=0)):
            s = np.minimum(norm_rows(cross_rows(d1, c[:, None])) / (n1 * norm_rows(c)[:, None]), 1.0)
            sups.append(s.max(axis=1, where=live, initial=0.0))
    # the four sups of a vertex taken as Python's max takes them
    sup = [max(0.0, *row) for row in np.column_stack(sups).reshape(v, 4).tolist()]

    # the neighbouring vertices i-1 and i+1: the first and second
    # derivatives at the start of segment i and at the end of segment i+1
    d1, d2, _ = derivative_rows(m0, m1, chord, h, np.tile([[0.0], [1.0]], (v, 1)))
    d1, d2 = d1.reshape(v, 2, 3), d2.reshape(v, 2, 3)
    nbrs = i[:, None] + np.array([-1, 1])
    rows = np.clip(nbrs - 1, 0, n - 2)
    # each skips a neighbour outside the polygon and a zero binormal
    shown = (1 <= nbrs) & (nbrs <= n - 1) & ~zero[rows]
    # (b) curvature orientation at the neighbouring vertices
    curvature = dot_rows(cross_rows(d1, d2), poly.binormals[rows])
    curvature_ok = curvature >= -eps * norm_rows(d1) * norm_rows(d2) * norms[rows]
    # (c) tangent inside the data wedge at the neighbouring vertices
    chords = poly.chords
    wedge = dot_rows(cross_rows(d1, chords[rows]), cross_rows(d1, chords[rows + 1]))
    squares = powers(norm_rows(d1).ravel(), 2).reshape(v, 2)
    wedge_ok = wedge < -eps * (squares * lengths[rows] * lengths[rows + 1])
    passed &= ((curvature_ok & wedge_ok) | ~shown).all(axis=1)

    # (d) neighbourhood-dependent behaviour across both segments, at the
    # vertices whose neighbours are interior
    mid = np.flatnonzero((2 <= i) & (i <= n - 2))
    b_nbrs = poly.binormals[i[mid, None] + np.array([-2, 0])]
    nb_nbrs = norms[i[mid, None] + np.array([-2, 0])]
    nbr_dot = dot_rows(b_nbrs[:, 0], b_nbrs[:, 1])
    convex = nbr_dot >= -eps * (nb_nbrs[:, 0] * nb_nbrs[:, 1])
    for k, dot_k in zip(mid.tolist(), nbr_dot.tolist()):
        extra[k].append(("neighbourhood_dot", dot_k))
    tags = ("prev", "next")

    # convex neighbourhood: sampled convexity of both segments along each
    # non-zero neighbour binormal, one row per (vertex, binormal, segment)
    at, tag = np.nonzero(nb_nbrs[convex] != 0.0)
    if len(at):
        cv = mid[convex][at]
        pair = (2 * cv[:, None] + np.array([0, 1])).ravel()
        n_vecs = np.repeat(b_nbrs[convex][at, tag], 2, axis=0)
        ok = convexity_sampled_rows(nets[pair], m0[pair], m1[pair], chord[pair], h[pair], n_vecs, 65, eps)
        ok = ok.reshape(-1, 2).all(axis=1)
        for k, t, ok_k in zip(cv.tolist(), tag.tolist(), ok.tolist()):
            extra[k].append((f"neighbourhood_convex_{tags[t]}", float(ok_k)))
            passed[k] &= ok_k

    # inflection neighbourhood: one bending flip inside the window, the
    # bending along each neighbour binormal as one row of both segments'
    # samples (row 2k along the binormal of vertex i-1, 2k+1 of i+1)
    fv = mid[~convex]
    if len(fv):
        ts = np.linspace(0.0, 1.0, 65)
        pair = (2 * fv[:, None] + np.array([0, 1])).ravel()
        d1, d2, _ = derivative_rows(m0[pair], m1[pair], chord[pair], h[pair], ts)
        omegas = cross_rows(d1, d2).reshape(len(fv), 1, 130, 3)
        vals = dot_rows(omegas, b_nbrs[~convex][:, :, None]).reshape(-1, 130)
        tp, ti, tn = (t[fv][:, None] for t in (t_prev, t_i, t_next))
        locs = np.concatenate([tp + ts * (ti - tp), ti + ts * (tn - ti)], axis=1)
        counts, band = _relative_changes(vals, eps)
        # where a row changes sign once, the change lies between two
        # consecutive live samples: report their midpoint
        one = np.flatnonzero(counts == 1)
        sub = vals[one]
        r, c = np.nonzero((sub != 0.0) & ~(np.abs(sub) <= band[one, None]))
        pos = sub[r, c] > 0
        flips = np.flatnonzero((r[1:] == r[:-1]) & (pos[1:] != pos[:-1]))
        # each row's first flip; a row with none takes its first pair
        first = np.searchsorted(r, np.arange(len(one)))
        with_flip, first_flip = np.unique(r[flips], return_index=True)
        first[with_flip] = flips[first_flip]
        owner = one // 2
        flip_at = 0.5 * (locs[owner, c[first]] + locs[owner, c[first + 1]])
        inside = (w_lo[fv][owner] <= flip_at) & (flip_at <= w_hi[fv][owner])
        where = dict(zip(one.tolist(), zip(flip_at.tolist(), inside.tolist())))
        for row, (k, count) in enumerate(zip(np.repeat(fv, 2).tolist(), counts.tolist())):
            extra[k].append((f"flip_count_{tags[row % 2]}", float(count)))
            ok_k = False
            if row in where:
                flip_k, ok_k = where[row]
                extra[k].append((f"flip_location_{tags[row % 2]}", flip_k))
            passed[k] &= ok_k

    out = []
    columns = zip(
        i.tolist(), w_lo.tolist(), w_hi.tolist(), sup, passed.tolist(),
        nbrs.tolist(), shown.tolist(), curvature.tolist(), wedge.tolist(), extra,
    )
    for vertex, lo_k, hi_k, sup_k, ok_k, nbrs_k, shown_k, curv_k, wedge_k, extra_k in columns:
        diag = {"vertex": float(vertex), "window_lo": lo_k, "window_hi": hi_k, "sup_sine": sup_k}
        for key, vals_k in (("curvature_sign", curv_k), ("wedge_product", wedge_k)):
            diag.update((f"{key}_v{j}", x) for j, x, s in zip(nbrs_k, vals_k, shown_k) if s)
        # an interpolating spline passes through the vertex by construction
        # (``nets[i-1, 3]`` is the vertex itself)
        diag["interpolates_vertex"] = 1.0
        diag.update(extra_k)
        out.append((ok_k and sup_k < tol.eps_collinear, diag))
    return out
