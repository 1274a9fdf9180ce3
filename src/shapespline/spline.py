"""Assemble C1 cubic splines over a data polygon and run the criteria
battery over all segments at once.

Tangent construction defaults to the central-difference (Catmull-Rom) rule
``m_j = tension * (x_{j+1} - x_{j-1})`` at interior vertices with one-sided
ends ``m_0 = 2 * tension * L_1`` and ``m_n = 2 * tension * L_n``.  The sign
of every twist-based verdict is independent of ``tension``.

Knots are dimensionless: uniform spacing uses ``h_i = 1``; chord-length
spacing uses ``h_i = |L_i| / mean(|L|)`` so that uniformly scaling the data
rescales neither the knot vector nor any verdict.

A spline is one set of rows, one per segment: the end tangents, the knot
widths ``h`` and the ``(n, 4, 3)`` Bezier nets.  Every criterion, sampler
and oracle reads slices of them; no per-segment object is built.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .criteria import (
    CriterionVerdict,
    Tolerances,
    adjacency_rows,
    check_collinearity_extended,
    collinearity_rows,
    convexity_rows,
    coplanarity_rows,
    inflection_rows,
    torsion_compat_rows,
    torsion_rows,
)
from .geometry import cross_rows, first_max
from .polygon import DataPolygon, ShapeFlag, span_flags
from .segment import (
    curvature_quad_rows,
    derivative_rows,
    net_fault,
    point_rows,
    torsion_floor_rows,
    torsion_numerator_rows,
)


class TangentMode(enum.Enum):
    CATMULL_ROM = "catmull-rom"
    PROVIDED = "provided"


class Parameterization(enum.Enum):
    UNIFORM = "uniform"
    CHORD_LENGTH = "chord"


@dataclass(frozen=True)
class SplineConfig:
    tangent_mode: TangentMode = TangentMode.CATMULL_ROM
    tension: float = 0.5
    parameterization: Parameterization = Parameterization.CHORD_LENGTH
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if not self.tension > 0.0:
            raise ValueError("tension must be positive")


@dataclass(frozen=True)
class Spline:
    """Segment i (1-based) runs from data point i-1 to i over the knot
    interval ``[knots[i-1], knots[i]]`` of width ``widths[i-1]``, with end
    tangents ``tangents[i-1]`` and ``tangents[i]`` and Bezier net
    ``nets[i-1]``."""

    polygon: DataPolygon
    knots: np.ndarray
    tangents: np.ndarray
    widths: np.ndarray
    nets: np.ndarray

    def rows(self):
        """All segments as one batch ``(m0, m1, chord, h)``."""
        return self.tangents[:-1], self.tangents[1:], self.polygon.chords, self.widths


def _knot_vector(polygon: DataPolygon, parameterization: Parameterization) -> np.ndarray:
    n = polygon.n_segments
    if parameterization is Parameterization.UNIFORM:
        widths = np.ones(n)
    else:
        lengths = np.linalg.norm(polygon.chords, axis=1)
        widths = lengths / lengths.mean()
    return np.concatenate([[0.0], np.cumsum(widths)])


def catmull_rom_tangents(polygon: DataPolygon, tension: float) -> np.ndarray:
    pts = polygon.points
    n = polygon.n_segments
    tangents = np.empty_like(pts)
    tangents[0] = 2.0 * tension * polygon.chord(1)
    tangents[n] = 2.0 * tension * polygon.chord(n)
    tangents[1:n] = tension * (pts[2:] - pts[:-2])
    return tangents


def build_spline(
    polygon: DataPolygon,
    cfg: SplineConfig = SplineConfig(),
    provided_tangents=None,
    knots=None,
) -> Spline:
    """Build the C1 cubic interpolant of ``polygon`` under ``cfg``.

    ``provided_tangents`` (required in PROVIDED mode) must supply one
    tangent per data point; an explicit ``knots`` vector overrides the
    configured parameterization.
    """
    n = polygon.n_segments
    if cfg.tangent_mode is TangentMode.PROVIDED:
        if provided_tangents is None:
            raise ValueError("PROVIDED tangent mode needs explicit tangents")
        tangents = np.array(provided_tangents, dtype=float)
        if tangents.shape != polygon.points.shape:
            raise ValueError(
                f"need {n + 1} tangents, got shape {tangents.shape}"
            )
    else:
        tangents = catmull_rom_tangents(polygon, cfg.tension)
    if not np.all(np.isfinite(tangents)):
        raise ValueError("non-finite tangent components")

    if knots is not None:
        kv = np.array(knots, dtype=float)
        if kv.shape != (n + 1,):
            raise ValueError(f"need {n + 1} knots, got shape {kv.shape}")
        if np.any(np.diff(kv) <= 0):
            raise ValueError("knots must be strictly increasing")
    else:
        kv = _knot_vector(polygon, cfg.parameterization)

    h = np.diff(kv)
    m0, m1 = tangents[:-1], tangents[1:]
    fault = net_fault(m0, m1, polygon.chords, h)
    if fault is not None:
        raise ValueError(f"segment {fault[0] + 1}: {fault[1]}")
    p0, p3 = polygon.points[:-1], polygon.points[1:]
    third = (h / 3.0)[:, None]
    nets = np.stack([p0, p0 + third * m0, p3 - third * m1, p3], axis=1)
    return Spline(polygon, kv, tangents, h, nets)


# ---------------------------------------------------------------------------
# analysis report


@dataclass(frozen=True)
class VertexReport:
    index: int
    binormal: np.ndarray | None
    collinear: bool
    collinearity_extended: CriterionVerdict | None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "N": None if self.binormal is None else [float(x) for x in self.binormal],
            "collinear": self.collinear,
            "collinearity_extended": (
                None
                if self.collinearity_extended is None
                else self.collinearity_extended.to_dict()
            ),
        }


@dataclass(frozen=True)
class SegmentReport:
    index: int
    flags: frozenset
    delta: float | None
    verdicts: tuple

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "flags": sorted(f.value for f in self.flags),
            "delta": self.delta,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


@dataclass(frozen=True)
class JointReport:
    index: int
    adjacency: CriterionVerdict | None
    torsion_compat: CriterionVerdict | None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "adjacency": None if self.adjacency is None else self.adjacency.to_dict(),
            "torsion_compat": (
                None if self.torsion_compat is None else self.torsion_compat.to_dict()
            ),
        }


@dataclass(frozen=True)
class SplineReport:
    vertices: tuple
    segments: tuple
    joints: tuple

    def all_verdicts(self):
        for v in self.vertices:
            if v.collinearity_extended is not None:
                yield v.collinearity_extended
        for s in self.segments:
            yield from s.verdicts
        for j in self.joints:
            if j.adjacency is not None:
                yield j.adjacency
            if j.torsion_compat is not None:
                yield j.torsion_compat

    @property
    def summary(self) -> dict:
        per_criterion = {}
        all_passed = True
        for v in self.all_verdicts():
            entry = per_criterion.setdefault(
                v.criterion.value, {"applicable": 0, "passed": 0, "failed": 0}
            )
            if v.applicable:
                entry["applicable"] += 1
                entry["passed" if v.passed else "failed"] += 1
                all_passed = all_passed and v.passed
        return {"criteria": per_criterion, "all_passed": all_passed}

    def to_dict(self) -> dict:
        return {
            "vertices": [v.to_dict() for v in self.vertices],
            "segments": [s.to_dict() for s in self.segments],
            "joints": [j.to_dict() for j in self.joints],
            "summary": self.summary,
        }


def analyze(spline: Spline, cfg: SplineConfig = SplineConfig()) -> SplineReport:
    """Run every applicable criterion on every segment, vertex and joint.

    Each closed-form criterion runs once over all rows; the verdicts are
    then assembled in a fixed order (vertices, then each segment's verdicts
    in criterion order, then joints), so the report is deterministic and
    the first non-finite diagnostic is the one a segment-by-segment run
    would meet first.
    """
    poly = spline.polygon
    tol = cfg.tolerances
    n = poly.n_segments
    eps = tol.eps_zero
    m0, m1, chord, h = spline.rows()
    delta, dfloor = poly.torsions, poly._torsion_floors
    norms, floors, _, collinear = poly._vertex_classes
    # rows that a criterion does not apply to are computed too, and may
    # divide by zero or overflow; their values are never reported
    with np.errstate(all="ignore"):
        # interior segments 2..n-1 are rows 0..n-3 of the span batches
        inner = slice(1, n - 1)
        m0_i, m1_i, chord_i, h_i = m0[inner], m1[inner], chord[inner], h[inner]
        b_prev, b_cur = poly.binormals[:-1], poly.binormals[1:]
        quad = curvature_quad_rows(m0_i, m1_i, chord_i, h_i)
        battery = (
            (ShapeFlag.CONVEX, convexity_rows(m0_i, m1_i, chord_i, h_i, b_prev, b_cur, eps)),
            (ShapeFlag.INFLECTION, inflection_rows(quad, b_prev, b_cur, eps)),
            (ShapeFlag.TORSION, torsion_rows(m0_i, m1_i, chord_i, delta, dfloor, eps)),
            (
                ShapeFlag.COPLANAR,
                coplanarity_rows(quad, b_prev, b_cur, delta, dfloor, eps, tol.eps_coplanar),
            ),
        )
        # joints 1..n-1 are rows 0..n-2; torsion compatibility needs both
        # neighbouring spans interior, so joint j is row j-2 of its batch
        adjacency = adjacency_rows(m1[:-1], poly.binormals, chord[:-1], chord[1:], eps)
        tau = torsion_numerator_rows(m0, m1, chord, h)
        tau_floor = torsion_floor_rows(m0, m1, chord, h)
        compat = torsion_compat_rows(
            delta[:-1],
            delta[1:],
            tau[1:-2],
            tau[2:-1],
            eps,
            first_max(dfloor[:-1], dfloor[1:]),
            first_max(tau_floor[1:-2], tau_floor[2:-1]),
        )
        # the collinearity bound of segment i (row i-1) at each collinear
        # end vertex j, in report order: j = i-1, then j = i
        ends = np.arange(n)[:, None] + np.array([0, 1])
        at = np.concatenate([[False], collinear, [False]])[ends]
        k, vert_of = np.nonzero(at)[0], ends[at]
        coll = collinearity_rows(
            m0[k], m1[k], chord[k], h[k], chord[vert_of - 1], chord[vert_of], eps, tol.eps_collinear
        )
    has_adjacency = (norms > eps * floors).tolist()
    collinear = collinear.tolist()
    deltas = delta.tolist()
    # rows of segment i are coll_start[i-1] .. coll_start[i]-1
    coll_start = np.searchsorted(k, np.arange(n + 1)).tolist()
    vert_of = vert_of.tolist()

    vertex_reports = []
    for j in range(1, n):
        extended = check_collinearity_extended(spline, j, tol) if collinear[j - 1] else None
        vertex_reports.append(VertexReport(j, poly.binormal(j), collinear[j - 1], extended))

    segment_reports = []
    for i, flags in enumerate(span_flags(poly, np.arange(1, n + 1)), start=1):
        verdicts = [rows.verdict(i - 2) for flag, rows in battery if flag in flags]
        for r in range(coll_start[i - 1], coll_start[i]):
            v = coll.verdict(r)
            verdicts.append(
                CriterionVerdict(
                    v.criterion, v.applicable, v.passed, {**v.diagnostics, "vertex": float(vert_of[r])}
                )
            )
        delta_i = deltas[i - 2] if 2 <= i <= n - 1 else None
        segment_reports.append(SegmentReport(i, flags, delta_i, tuple(verdicts)))

    joint_reports = [
        JointReport(
            j,
            adjacency.verdict(j - 1) if has_adjacency[j - 1] else None,
            compat.verdict(j - 2) if 2 <= j <= n - 2 else None,
        )
        for j in range(1, n)
    ]
    return SplineReport(tuple(vertex_reports), tuple(segment_reports), tuple(joint_reports))


SAMPLE_DTYPE = np.dtype(
    [
        ("segment", int),
        ("t", float),
        ("position", float, 3),
        ("curvature", float, 3),
        ("tau", float),
    ]
)


def sample_spline(spline: Spline, per_segment: int) -> np.ndarray:
    """Uniform samples per segment, evaluated over all segments at once:
    one ``SAMPLE_DTYPE`` record (segment index, global t, position,
    curvature vector, torsion numerator) per sample, segment by segment."""
    if per_segment < 2:
        raise ValueError("need at least two samples per segment")
    us = np.linspace(0.0, 1.0, per_segment)
    m0, m1, chord, h = spline.rows()
    d1, d2, _ = derivative_rows(m0, m1, chord, h, us)
    rows = np.empty((len(h), per_segment), dtype=SAMPLE_DTYPE)
    rows["segment"] = np.arange(1, len(h) + 1)[:, None]
    rows["t"] = spline.knots[:-1, None] + us * h[:, None]
    rows["position"] = point_rows(spline.nets, us)
    rows["curvature"] = cross_rows(d1, d2)
    rows["tau"] = torsion_numerator_rows(m0, m1, chord, h)[:, None]
    return rows.ravel()
