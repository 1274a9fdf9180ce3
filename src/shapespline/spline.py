"""Assemble C1 cubic splines over a data polygon and run the per-segment
criteria battery.

Tangent construction defaults to the central-difference (Catmull-Rom) rule
``m_j = tension * (x_{j+1} - x_{j-1})`` at interior vertices with one-sided
ends ``m_0 = 2 * tension * L_1`` and ``m_n = 2 * tension * L_n``.  The sign
of every twist-based verdict is independent of ``tension``.

Knots are dimensionless: uniform spacing uses ``h_i = 1``; chord-length
spacing uses ``h_i = |L_i| / mean(|L|)`` so that uniformly scaling the data
rescales neither the knot vector nor any verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .criteria import (
    CriterionVerdict,
    Tolerances,
    check_adjacency_compat,
    check_collinearity_cubic,
    check_collinearity_extended,
    check_convexity_cubic,
    check_coplanarity_cubic,
    check_inflection_cubic,
    check_torsion_cubic,
    check_torsion_compat,
)
from .geometry import norm
from .polygon import DataPolygon, ShapeFlag, classify_vertex
from .segment import CubicSegment


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
    polygon: DataPolygon
    knots: np.ndarray
    tangents: np.ndarray
    segments: tuple

    def segment_span(self, i: int):
        """Knot interval of segment i (1-based)."""
        return float(self.knots[i - 1]), float(self.knots[i])

    def locate(self, t: float):
        """(segment index, local u) for a global parameter value."""
        knots = self.knots
        if not knots[0] <= t <= knots[-1]:
            raise ValueError(f"parameter {t} outside [{knots[0]}, {knots[-1]}]")
        i = int(np.searchsorted(knots, t, side="right"))
        i = min(max(i, 1), len(knots) - 1)
        t0, t1 = knots[i - 1], knots[i]
        return i, (t - t0) / (t1 - t0)

    def point(self, t: float) -> np.ndarray:
        i, u = self.locate(t)
        return self.segments[i - 1].point(u)


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
    for j in range(1, n):
        tangents[j] = tension * (pts[j + 1] - pts[j - 1])
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
        if not np.all(np.isfinite(tangents)):
            raise ValueError("non-finite tangent components")
    else:
        tangents = catmull_rom_tangents(polygon, cfg.tension)

    if knots is not None:
        kv = np.array(knots, dtype=float)
        if kv.shape != (n + 1,):
            raise ValueError(f"need {n + 1} knots, got shape {kv.shape}")
        if np.any(np.diff(kv) <= 0):
            raise ValueError("knots must be strictly increasing")
    else:
        kv = _knot_vector(polygon, cfg.parameterization)

    segments = tuple(
        CubicSegment(
            polygon.points[i - 1],
            polygon.points[i],
            tangents[i - 1],
            tangents[i],
            float(kv[i] - kv[i - 1]),
        )
        for i in range(1, n + 1)
    )
    return Spline(polygon, kv, tangents, segments)


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

    Deterministic for fixed inputs: segments are processed in order and
    verdict lists are assembled in a fixed criterion order.
    """
    poly = spline.polygon
    tol = cfg.tolerances
    n = poly.n_segments
    eps = tol.eps_zero

    vertex_reports = []
    for j in range(1, n):
        collinear = poly.vertex_is_collinear(j)
        extended = check_collinearity_extended(spline, j, tol) if collinear else None
        vertex_reports.append(
            VertexReport(j, poly.binormal(j), collinear, extended)
        )

    segment_reports = []
    for i in range(1, n + 1):
        seg = spline.segments[i - 1]
        flags = classify_vertex(poly, i)
        verdicts = []
        if 2 <= i <= n - 1:
            b_prev, b_cur = poly.binormal(i - 1), poly.binormal(i)
            delta = poly.span_torsion(i)
            dfloor = poly._torsion_floor(i)
            if ShapeFlag.CONVEX in flags:
                verdicts.append(check_convexity_cubic(seg, b_prev, b_cur, tol))
            if ShapeFlag.INFLECTION in flags:
                verdicts.append(check_inflection_cubic(seg, b_prev, b_cur, tol))
            if ShapeFlag.TORSION in flags:
                verdicts.append(check_torsion_cubic(seg, delta, tol, delta_floor=dfloor))
            if ShapeFlag.COPLANAR in flags:
                verdicts.append(
                    check_coplanarity_cubic(seg, b_prev, b_cur, delta, tol, delta_floor=dfloor)
                )
        else:
            delta = None
        for j in (i - 1, i):
            if 1 <= j <= n - 1 and poly.vertex_is_collinear(j):
                v = check_collinearity_cubic(seg, poly.chord(j), poly.chord(j + 1), tol)
                verdicts.append(
                    CriterionVerdict(
                        v.criterion,
                        v.applicable,
                        v.passed,
                        {**v.diagnostics, "vertex": float(j)},
                    )
                )
        segment_reports.append(
            SegmentReport(
                i,
                flags,
                float(delta) if 2 <= i <= n - 1 else None,
                tuple(verdicts),
            )
        )

    joint_reports = []
    for j in range(1, n):
        seg_prev, seg_next = spline.segments[j - 1], spline.segments[j]
        b_j = poly.binormal(j)
        adjacency = None
        if norm(b_j) > eps * poly._binormal_floor(j):
            adjacency = check_adjacency_compat(
                seg_prev, seg_next, b_j, poly.chord(j), poly.chord(j + 1), tol
            )
        torsion_compat = None
        if 2 <= j and j + 1 <= n - 1:
            torsion_compat = check_torsion_compat(
                poly.span_torsion(j),
                poly.span_torsion(j + 1),
                seg_prev.torsion_numerator(),
                seg_next.torsion_numerator(),
                tol,
                delta_floor=max(poly._torsion_floor(j), poly._torsion_floor(j + 1)),
                tau_floor=max(
                    norm(s.m0) * norm(s.chord) * norm(s.m1) / s.h**4 * 12.0
                    for s in (seg_prev, seg_next)
                ),
            )
        joint_reports.append(JointReport(j, adjacency, torsion_compat))

    return SplineReport(tuple(vertex_reports), tuple(segment_reports), tuple(joint_reports))


def sample_spline(spline: Spline, per_segment: int):
    """Uniform samples per segment: rows of (segment index, global t,
    position, curvature vector, torsion numerator)."""
    if per_segment < 2:
        raise ValueError("need at least two samples per segment")
    us = np.linspace(0.0, 1.0, per_segment)
    rows = []
    for i, seg in enumerate(spline.segments, start=1):
        t0, t1 = spline.segment_span(i)
        d1, d2, _ = seg.derivatives(us)
        tau = seg.torsion_numerator()
        rows.extend(
            zip(repeat(i), t0 + us * (t1 - t0), seg.point(us), np.cross(d1, d2), repeat(tau))
        )
    return rows
