"""Assemble C1 cubic splines over a data polygon and run each criterion
over all the segments it applies to at once.

Tangent construction defaults to the central-difference (Catmull-Rom) rule
``m_j = tension * (x_{j+1} - x_{j-1})`` at interior vertices with one-sided
ends ``m_0 = 2 * tension * L_1`` and ``m_n = 2 * tension * L_n``.  The sign
of every twist-based verdict is independent of ``tension``.

Knots are dimensionless: uniform spacing uses ``h_i = 1``; chord-length
spacing uses ``h_i = |L_i| / mean(|L|)`` so that uniformly scaling the data
rescales neither the knot vector nor any verdict.

A spline is one set of rows, one per segment: the end tangents, the knot
widths ``h`` and the ``(n, 4, 3)`` Bezier nets.  Every criterion, sampler
and oracle reads slices of them; no per-segment object is built.  The
report of ``analyze`` is likewise the criteria kernels' columns, one row
per printed verdict, and its JSON text is written straight from them.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .criteria import (
    Criterion,
    CriterionVerdict,
    Rows,
    Tolerances,
    adjacency_rows,
    check_collinearity_extended,
    collinearity_rows,
    convexity_rows,
    coplanarity_rows,
    inflection_rows,
    torsion_compat_rows,
    torsion_rows,
    zero_threshold,
)
from .geometry import cross_rows, first_max
from .jsonout import SLOT, Raw, dumps, entry_template, join_list, number, template
from .polygon import FLAG_BITS, FLAG_SETS, DataPolygon, ShapeFlag, span_codes
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
        lengths = polygon.classes.chord_lengths
        widths = lengths / lengths.mean()
    return np.concatenate([[0.0], np.cumsum(widths)])


def catmull_rom_tangents(polygon: DataPolygon, tension: float) -> np.ndarray:
    pts = polygon.points
    n = polygon.n_segments
    tangents = np.empty_like(pts)
    tangents[0] = 2.0 * tension * polygon.chords[0]
    tangents[n] = 2.0 * tension * polygon.chords[-1]
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
        flat = np.diff(kv) <= 0
        if flat.any():
            k = int(np.argmax(flat)) + 1
            before, at = kv[k - 1 : k + 1].tolist()
            raise ValueError(f"'knots' entry {k} must be greater than entry {k - 1} ({before!r}), got {at!r}")
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


class SplineReport:
    """The verdicts of ``analyze``, kept as the criteria kernels' columns
    (:class:`criteria.Rows`), one row per printed verdict, each batch with
    the segments or joints its rows belong to; only the vertex
    ``collinearity_extended`` verdicts are objects.

    ``json_sections`` is the one serialisation: it writes the entries
    straight from the columns, and ``to_dict`` is the data that text holds.
    ``summary`` counts from the kernels' masks, and ``check --verify``
    walks the segment batches.
    """

    def __init__(self, binormals, collinear, extended, codes, deltas, segment_rows, joint_rows):
        self._binormals = binormals  # (n-1, 3), row j-1 is vertex j
        self._collinear = collinear  # per vertex
        self._extended = extended  # vertex -> its collinearity_extended verdict
        self._codes = codes  # per segment, the bit code of its flags
        self._deltas = deltas  # span twists of segments 2..n-1
        # (Rows, the ascending 1-based segment or joint index of each row),
        # in the order of the verdicts within a segment (battery,
        # collinearity) and within a joint (adjacency, torsion_compat)
        self.segment_rows = segment_rows
        self.joint_rows = joint_rows

    def _per_segment(self, items) -> list:
        """Per segment, in report order, the items ``items(rows)`` gives
        for its rows, one per row."""
        out = [[] for _ in self._codes]
        for rows, segments in self.segment_rows:
            for i, item in zip(segments, items(rows)):
                out[i - 1].append(item)
        return out

    def _per_joint(self, items) -> list:
        """Per joint, the (adjacency, torsion_compat) items, None where the
        joint has no such verdict."""
        out = [[None, None] for _ in self._codes[1:]]
        for slot, (rows, joints) in enumerate(self.joint_rows):
            for j, item in zip(joints, items(rows)):
                out[j - 1][slot] = item
        return out

    def check_finite(self) -> None:
        """Raise ValueError naming the first non-finite diagnostic, in
        report order: segment by segment (the battery in criterion order,
        then collinearity), then joint by joint (adjacency, then
        torsion_compat), and within a verdict in the order its criterion
        lists its keys."""
        found = []
        for section, batches in enumerate((self.segment_rows, self.joint_rows)):
            for slot, (rows, entries) in enumerate(batches):
                # a batch's entries ascend, so its first bad row is its first
                # in report order
                first = rows.first_non_finite()
                if first is not None:
                    k, name, value = first
                    found.append(((section, entries[k], slot), name, value))
        if found:
            _, name, value = min(found, key=itemgetter(0))
            raise ValueError(f"non-finite diagnostic {name!r}: {value}")

    @property
    def summary(self) -> dict:
        per_criterion = {}

        def count(criterion, applicable, passed):
            entry = per_criterion.setdefault(criterion.value, {"applicable": 0, "passed": 0, "failed": 0})
            entry["applicable"] += applicable
            entry["passed"] += passed
            entry["failed"] += applicable - passed

        for v in self._extended.values():
            count(v.criterion, int(v.applicable), int(v.passed is True))
        for rows, entries in self.segment_rows + self.joint_rows:
            if entries:
                count(rows.criterion, int(np.count_nonzero(rows.applicable)), int(np.count_nonzero(rows.passed)))
        all_passed = all(e["failed"] == 0 for e in per_criterion.values())
        return {"criteria": per_criterion, "all_passed": all_passed}

    def to_dict(self) -> dict:
        """The report as plain data: what the text of ``json_sections`` holds."""
        return json.loads(dumps(self.json_sections()))

    def json_sections(self) -> dict:
        """The report at the top level of a document: its vertex, segment
        and joint lists as :class:`jsonout.Raw` text written from the
        columns, and its summary."""
        level = 1
        return {
            "vertices": Raw(join_list(self._vertex_texts(level + 1), level)),
            "segments": Raw(join_list(self._segment_texts(level + 1), level)),
            "joints": Raw(join_list(self._joint_texts(level + 1), level)),
            "summary": self.summary,
        }

    def _vertex_texts(self, level: int) -> list:
        entry = entry_template(("N", "collinear", "collinearity_extended", "index"), level)
        vector = template([SLOT] * 3, level + 1)
        vectors = self._binormals.tolist()
        if not np.isfinite(self._binormals).all():
            vectors = [list(map(number, b)) for b in vectors]
        texts = []
        for j, (b, c) in enumerate(zip(vectors, self._collinear), start=1):
            v = self._extended.get(j)
            extended = "null" if v is None else dumps(v.to_dict(), level + 1)
            texts.append(entry % (vector % tuple(b), "true" if c else "false", extended, j))
        return texts

    def _segment_texts(self, level: int) -> list:
        n = len(self._codes)
        verdicts = self._per_segment(lambda rows: _verdict_texts(rows, level + 2))
        entry = entry_template(("delta", "flags", "index", "verdicts"), level)
        flag_texts = {}
        texts = []
        for i, (code, v) in enumerate(zip(self._codes, verdicts), start=1):
            if code not in flag_texts:
                flag_texts[code] = dumps(sorted(f.value for f in FLAG_SETS[code]), level + 1)
            delta = number(self._deltas[i - 2]) if 2 <= i <= n - 1 else "null"
            texts.append(entry % (delta, flag_texts[code], i, join_list(v, level + 1)))
        return texts

    def _joint_texts(self, level: int) -> list:
        verdicts = self._per_joint(lambda rows: _verdict_texts(rows, level + 1))
        entry = entry_template(("adjacency", "index", "torsion_compat"), level)
        return [entry % (a or "null", j, t or "null") for j, (a, t) in enumerate(verdicts, start=1)]


@functools.lru_cache(maxsize=None)
def _verdict_template(criterion: Criterion, applicable: bool, passed, keys: tuple, level: int) -> str:
    """Template of a verdict at ``level`` whose diagnostics are ``keys``,
    one field per key in sorted order."""
    verdict = CriterionVerdict(criterion, applicable, passed).to_dict()
    verdict["diagnostics"] = dict.fromkeys(keys, SLOT)
    return template(verdict, level)


def _verdict_texts(rows: Rows, level: int) -> list:
    """The verdicts of ``rows`` as JSON text at ``level``: each row fills
    the cached template of its (applicable, passed, key set)."""
    if not len(rows.applicable):
        return []
    names = sorted(rows.columns)
    values = np.column_stack([rows.columns[k] for k in names]).tolist()
    bits = np.column_stack([rows.present[k] for k in names] + [rows.applicable, rows.passed])
    kinds, which = np.unique(bits @ (1 << np.arange(bits.shape[1])), return_inverse=True)
    forms = []
    for code in kinds.tolist():
        keep = [k for k in range(len(names)) if code >> k & 1]
        applicable = bool(code >> len(names) & 1)
        passed = bool(code >> (len(names) + 1) & 1) if applicable else None
        keys = tuple(names[k] for k in keep)
        text = _verdict_template(rows.criterion, applicable, passed, keys, level)
        forms.append((text, itemgetter(*keep) if keep else (lambda row: ())))
    return [text % pick(row) for (text, pick), row in zip(map(forms.__getitem__, which.tolist()), values)]


def analyze(spline: Spline, cfg: SplineConfig = SplineConfig()) -> SplineReport:
    """Run every applicable criterion on every segment, vertex and joint.

    Each closed-form criterion runs once, over the rows the report prints:
    a battery criterion over the interior spans whose flags hold it,
    adjacency over the joints with a well-defined binormal.  Its verdicts
    stay in its columns.  The report order is fixed (vertices, then each
    segment's verdicts in criterion order, then joints), so the report is
    deterministic; a non-finite diagnostic raises ValueError for the first
    one in that order, as a segment-by-segment run would meet it.
    The polygon's ``eps_zero`` classifies spans and vertices, and the
    tolerances' the criteria: a ValueError names both if they differ.
    """
    poly = spline.polygon
    tol = cfg.tolerances
    n = poly.n_segments
    eps = zero_threshold(poly, tol)
    m0, m1, chord, h = spline.rows()
    b, delta = poly.binormals, poly.torsions
    _, norms, floors, _, collinear, dfloor = poly.classes
    codes = span_codes(poly, np.arange(1, n + 1))
    # a printed row may divide by zero or overflow, and a non-finite
    # diagnostic raises ValueError: no numpy warning is needed
    with np.errstate(all="ignore"):
        # the twist rows r = i - 2 of the interior spans i holding each
        # battery flag: segment i is row r + 1, between binormals r and r + 1
        flags = (ShapeFlag.CONVEX, ShapeFlag.INFLECTION, ShapeFlag.TORSION, ShapeFlag.COPLANAR)
        cv, fl, tw, cp = (np.flatnonzero(codes[1 : n - 1] & 1 << FLAG_BITS.index(f)) for f in flags)

        def seg(r):
            return m0[r + 1], m1[r + 1], chord[r + 1], h[r + 1]

        battery = (
            (cv, convexity_rows(*seg(cv), b[cv], b[cv + 1], eps)),
            (fl, inflection_rows(curvature_quad_rows(*seg(fl)), b[fl], b[fl + 1], eps)),
            (tw, torsion_rows(*seg(tw)[:3], delta[tw], dfloor[tw], eps)),
            (cp, coplanarity_rows(
                curvature_quad_rows(*seg(cp)), b[cp], b[cp + 1], delta[cp], dfloor[cp], eps, tol.eps_coplanar
            )),
        )
        segment_rows = [(rows, (r + 2).tolist()) for r, rows in battery]
        # joint j is row j-1 of the binormals; adjacency needs it well defined
        w = np.flatnonzero(norms > eps * floors)
        adjacency = adjacency_rows(m1[w], b[w], chord[w], chord[w + 1], eps)
        # torsion compatibility needs both neighbouring spans interior, so
        # joint j is row j-2 of its batch
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
        # the neighbourhood check at every collinear vertex, in one call
        verts = (np.flatnonzero(collinear) + 1).tolist()
        extended = dict(zip(verts, check_collinearity_extended(spline, verts, tol))) if verts else {}
    coll.add_column("vertex", vert_of)
    segment_rows.append((coll, (k + 1).tolist()))
    joint_rows = [(adjacency, (w + 1).tolist()), (compat, list(range(2, n - 1)))]
    report = SplineReport(b, collinear.tolist(), extended, codes.tolist(), delta.tolist(), segment_rows, joint_rows)
    report.check_finite()
    return report


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
    curvature vector, torsion numerator) per sample, segment by segment.
    A value that overflows raises ValueError naming the first segment
    that holds one."""
    if per_segment < 2:
        raise ValueError("need at least two samples per segment")
    us = np.linspace(0.0, 1.0, per_segment)
    m0, m1, chord, h = spline.rows()
    rows = np.empty((len(h), per_segment), dtype=SAMPLE_DTYPE)
    rows["segment"] = np.arange(1, len(h) + 1)[:, None]
    # a non-finite value raises ValueError below: no numpy warning is needed
    with np.errstate(all="ignore"):
        d1, d2, _ = derivative_rows(m0, m1, chord, h, us)
        rows["t"] = spline.knots[:-1, None] + us * h[:, None]
        rows["position"] = point_rows(spline.nets, us)
        rows["curvature"] = cross_rows(d1, d2)
        rows["tau"] = torsion_numerator_rows(m0, m1, chord, h)[:, None]
    finite = np.logical_and.reduce(
        [np.isfinite(rows[name]).reshape(len(h), -1).all(axis=1) for name in SAMPLE_DTYPE.names[1:]]
    )
    if not finite.all():
        raise ValueError(f"non-finite sample on segment {int(np.argmin(finite)) + 1}")
    return rows.ravel()
