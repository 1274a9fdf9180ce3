"""Discrete shape measures of the data polygon.

A polygon through points ``x_0 .. x_n`` carries three derived families:

* chords          ``L_i = x_i - x_{i-1}``            (i = 1..n)
* turn binormals  ``B_j = L_j x L_{j+1}``            (interior vertex j = 1..n-1)
* span twists     ``D_i = [L_{i-1}, L_i, L_{i+1}]``  (interior span i = 2..n-1)

``B_j`` encodes the turning plane and orientation of the polygon at vertex
``x_j``; the sign of ``D_i`` tells which side of the local plane the chord
after span ``i`` leaves toward.  Inflection counts of polygonal arcs are
defined through strict sign changes of turn sequences, maximized over view
directions in the spatial case.
"""

from __future__ import annotations

import enum

import numpy as np

from .geometry import EPS_ZERO, dot, dot_rows, norm, sphere_directions

# values per block of the direction searches (128 KB): memory stays linear in
# the number of scanned vectors, and the block's temporaries are reused from
# the heap instead of being mapped and faulted in afresh for every block
_BLOCK_ENTRIES = 1 << 14


class ShapeFlag(enum.Enum):
    """Data-side qualifying conditions for the shape criteria on a span."""

    CONVEX = "convex"
    INFLECTION = "inflection"
    COLLINEAR = "collinear"
    TORSION = "torsion"
    COPLANAR = "coplanar"


def sign_changes(seq) -> int:
    """Number of strict sign changes in ``seq``; zero entries are skipped.

    A run of zeros between two entries of opposite sign counts as a single
    change.  Entries must already be classified (exact zeros skip).
    """
    # the one-row, zero-band case of _count_changes_rows: NaN entries skip too
    return int(_count_changes_rows(np.asarray(seq, dtype=float)[None, :], 0.0)[0])


def _count_changes_rows(vals: np.ndarray, tols) -> np.ndarray:
    """Vectorized strict-sign-change count per row of ``vals``.

    ``tols`` (non-negative, broadcastable to ``vals``) is the per-entry dead
    band; entries within it, and NaN entries, are skipped.
    """
    live = np.abs(vals) > tols
    pos = vals > 0.0
    # most blocks of the direction searches hold no dead-band entry: their
    # flips are plain neighbour compares, with no index bookkeeping
    if live.all():
        return np.count_nonzero(pos[:, 1:] != pos[:, :-1], axis=1)
    # compare adjacent surviving entries, counting a flip only where both
    # lie in the same row
    rows, m = live.shape
    idx = np.flatnonzero(live)
    row, sign = idx // m, pos.ravel()[idx]
    flip = (row[1:] == row[:-1]) & (sign[1:] != sign[:-1])
    return np.bincount(row[1:][flip], minlength=rows)


def _max_row_changes(dirs: np.ndarray, vecs: np.ndarray, tols) -> int:
    """Largest ``_count_changes_rows`` count of ``dirs @ vecs.T``, evaluated
    a block of rows at a time so that the value matrix stays near
    ``_BLOCK_ENTRIES`` entries.

    Every block holds two rows or more: a one-row product goes through a
    matrix-vector kernel that rounds differently from the product of the
    whole matrix, so a one-row tail joins the block before it.
    """
    step = max(2, _BLOCK_ENTRIES // max(len(vecs), 1))
    ends = [*range(step, len(dirs) - 1, step), len(dirs)]
    return max(
        int(_count_changes_rows(dirs[a:b] @ vecs.T, tols).max())
        for a, b in zip([0, *ends], ends)
    )


class DataPolygon:
    """Immutable ordered 3D data points with cached discrete measures.

    Consecutive duplicate points are rejected at construction; every other
    query is pure.  ``eps_zero`` drives all sign classifications, applied
    relative to magnitude floors built from chord norms.
    """

    def __init__(self, points, eps_zero: float = EPS_ZERO):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected an (n+1, 3) point array, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError("need at least two points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("non-finite point coordinates")
        chords = np.diff(pts, axis=0)
        lengths = np.linalg.norm(chords, axis=1)
        bbox = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        tiny = eps_zero * bbox
        if np.any(lengths <= tiny):
            bad = int(np.argmax(lengths <= tiny))
            raise ValueError(f"duplicate consecutive points at index {bad}")
        self.eps_zero = float(eps_zero)
        self._points = pts
        self._points.flags.writeable = False
        self._chords = chords
        self._chords.flags.writeable = False
        self._lengths = lengths
        # np.cross and dot_rows match cross3 and triple bit for bit; a row
        # sum would round differently, and the values are printed
        self._binormals = np.cross(chords[:-1], chords[1:])
        self._binormals.flags.writeable = False
        self._torsions = dot_rows(chords[:-2], self._binormals[1:])
        self._torsions.flags.writeable = False

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def chords(self) -> np.ndarray:
        return self._chords

    @property
    def binormals(self) -> np.ndarray:
        """Turn binormals, one per interior vertex (row j-1 is vertex j)."""
        return self._binormals

    @property
    def torsions(self) -> np.ndarray:
        """Span twists, one per interior span (row i-2 is span i)."""
        return self._torsions

    @property
    def n_segments(self) -> int:
        return len(self._chords)

    @property
    def scale(self) -> float:
        """Rotation-invariant length scale: total chord length."""
        return float(self._lengths.sum())

    def chord(self, i: int) -> np.ndarray:
        """Chord ``L_i = x_i - x_{i-1}`` for 1 <= i <= n."""
        if not 1 <= i <= self.n_segments:
            raise IndexError(f"chord index {i} out of range 1..{self.n_segments}")
        return self._chords[i - 1]

    def chord_length(self, i: int) -> float:
        return float(self._lengths[i - 1])

    def binormal(self, j: int) -> np.ndarray:
        """Turn binormal at interior vertex ``x_j`` for 1 <= j <= n-1."""
        if not 1 <= j <= self.n_segments - 1:
            raise IndexError(f"vertex index {j} out of range 1..{self.n_segments - 1}")
        return self._binormals[j - 1]

    def span_torsion(self, i: int) -> float:
        """Twist ``[L_{i-1}, L_i, L_{i+1}]`` of interior span i, 2 <= i <= n-1."""
        if not 2 <= i <= self.n_segments - 1:
            raise IndexError(f"span index {i} out of range 2..{self.n_segments - 1}")
        return float(self._torsions[i - 2])

    # classification floors
    def _binormal_floor(self, j: int) -> float:
        return float(self._lengths[j - 1] * self._lengths[j])

    def _torsion_floor(self, i: int) -> float:
        return float(self._lengths[i - 2] * self._lengths[i - 1] * self._lengths[i])

    def binormal_is_zero(self, j: int) -> bool:
        return norm(self.binormal(j)) <= self.eps_zero * self._binormal_floor(j)

    def vertex_is_collinear(self, j: int) -> bool:
        """Chords around vertex j parallel and co-directed."""
        if not self.binormal_is_zero(j):
            return False
        d = dot(self._chords[j - 1], self._chords[j])
        return d > self.eps_zero * self._binormal_floor(j)


def classify_vertex(poly: DataPolygon, i: int) -> frozenset:
    """Qualifying data conditions for span ``i`` (points x_{i-1} -> x_i).

    CONVEX / INFLECTION compare the turn binormals at the span's two end
    vertices (available on interior spans only); TORSION / COPLANAR classify
    the span twist; COLLINEAR is set when either end vertex has parallel,
    co-directed chords.
    """
    n = poly.n_segments
    if not 1 <= i <= n:
        raise IndexError(f"span index {i} out of range 1..{n}")
    eps = poly.eps_zero
    flags = set()

    if 2 <= i <= n - 1:
        bp, bc = poly.binormal(i - 1), poly.binormal(i)
        np_, nc = norm(bp), norm(bc)
        well_defined = (
            np_ > eps * poly._binormal_floor(i - 1) and nc > eps * poly._binormal_floor(i)
        )
        if well_defined:
            d = dot(bp, bc)
            if d > eps * np_ * nc:
                flags.add(ShapeFlag.CONVEX)
            elif d < -eps * np_ * nc:
                flags.add(ShapeFlag.INFLECTION)
        delta = poly.span_torsion(i)
        if abs(delta) > eps * poly._torsion_floor(i):
            flags.add(ShapeFlag.TORSION)
        elif well_defined:
            flags.add(ShapeFlag.COPLANAR)

    for j in (i - 1, i):
        if 1 <= j <= n - 1 and poly.vertex_is_collinear(j):
            flags.add(ShapeFlag.COLLINEAR)

    return frozenset(flags)


def spatial_arc_inflection_count(poly: DataPolygon, directions: int) -> int:
    """Largest number of turn-sequence sign changes visible along any
    sampled view direction.

    A deterministic lower bound on the supremum over the whole sphere; the
    sample is a Fibonacci lattice plus the axis directions plus the arc's
    own normalized turn vectors.
    """
    turns = poly.binormals
    if len(turns) < 2:
        return 0
    # candidate witnesses: the turn vectors themselves plus directions
    # orthogonal to consecutive pairs (sign-region boundaries)
    extra = np.concatenate([turns, np.cross(turns[:-1], turns[1:])])
    dirs = sphere_directions(directions, extra=extra)
    tols = poly.eps_zero * (poly._lengths[:-1] * poly._lengths[1:])[None, :]
    return _max_row_changes(dirs, turns, tols)
