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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import EPS_ZERO, cross_rows, dot_rows, lattice_directions, norm_rows, unit_pairs

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
    """Vectorized strict-sign-change count along the last axis of ``vals``,
    one count per row.

    ``tols`` (non-negative, broadcastable to ``vals``) is the per-entry dead
    band; entries within it, and NaN entries, are skipped.
    """
    live = np.abs(vals) > tols
    pos = vals > 0.0
    # most rows of the direction searches hold no dead-band entry: their
    # flips are plain neighbour compares, with no index bookkeeping (an
    # int32 sum runs faster than count_nonzero)
    counts = np.add.reduce(pos[..., 1:] != pos[..., :-1], axis=-1, dtype=np.int32)
    if live.all():
        return counts
    # compare adjacent surviving entries of the other rows, counting a flip
    # only where both lie in the same row
    dead = np.flatnonzero(~live.all(axis=-1))
    m = vals.shape[-1]
    idx = np.flatnonzero(live.reshape(-1, m)[dead])
    row, sign = idx // m, pos.reshape(-1, m)[dead].ravel()[idx]
    flip = (row[1:] == row[:-1]) & (sign[1:] != sign[:-1])
    counts.reshape(-1)[dead] = np.bincount(row[1:][flip], minlength=len(dead))
    return counts


def _blocks(n: int, step: int) -> list:
    """``(start, stop)`` spans of ``step`` items covering ``range(n)``; a
    one-item tail joins the span before it."""
    ends = [*range(step, n - 1, step), n]
    return list(zip([0, *ends], ends))


def _runs(n: int, step: int) -> list:
    """``(start, stop)`` spans of ``step`` items covering ``range(n)``."""
    return [(s, min(s + step, n)) for s in range(0, n, step)]


def _raise_counts(best: np.ndarray, vals: np.ndarray, tols: np.ndarray) -> None:
    """Raise ``best`` (one count per sequence) to the largest
    ``_count_changes_rows`` count among the ``(k, r, m)`` values ``vals``
    against the ``(k, 1, m)`` dead bands ``tols``.

    A row's plain sign-flip count bounds its dead-band count from above
    (skipping entries never adds a change), so only the rows whose plain
    count exceeds their sequence's best are counted with the dead band."""
    pos = vals > 0.0
    plain = np.add.reduce(pos[..., 1:] != pos[..., :-1], axis=-1, dtype=np.int32)
    seq, row = np.nonzero(plain > best[:, None])
    if len(seq):
        np.maximum.at(best, seq, _count_changes_rows(vals[seq, row], tols[seq, 0]))


def _max_view_changes(vecs: np.ndarray, tols: np.ndarray, own: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Per sequence of the ``(S, 3, m)`` stack ``vecs`` (one vector per
    column), the largest ``_count_changes_rows`` count of its values along
    a view direction, against the ``(S, 1, m)`` dead bands ``tols``.  The
    directions are the sequence's own ``(S, r, 3)`` rows ``own``, then the
    ``(L, 3)`` rows ``shared``; each set holds two rows or more.

    The products are evaluated in blocks of whole sequences and of
    direction rows, near ``_BLOCK_ENTRIES`` values each.  Each matmul runs
    one product per sequence (a product widened across sequences rounds
    differently), and every block holds two rows or more: a one-row
    product goes through a matrix-vector kernel that rounds differently
    from the product of the whole matrix.  The own rows go first, as they
    are built to show the sign changes and so raise the bar early."""
    best = np.zeros(len(vecs), dtype=np.int32)
    m = vecs.shape[-1]
    for dirs in (own, shared):
        per_block = max(1, _BLOCK_ENTRIES // (dirs.shape[-2] * m))
        rows = max(2, _BLOCK_ENTRIES // (per_block * m))
        for s, t in _runs(len(vecs), per_block):
            for a, b in _blocks(dirs.shape[-2], rows):
                # the shared rows broadcast against every sequence of the block
                d = dirs[s:t, a:b] if dirs.ndim == 3 else dirs[a:b]
                _raise_counts(best[s:t], np.matmul(d, vecs[s:t]), tols[s:t])
    return best


class Classes(NamedTuple):
    """The lengths ``|L_i|`` of the chords (row i-1 is chord i).  Per
    interior vertex (row j-1 is vertex j): the binormal norm, its floor
    ``|L_j| |L_{j+1}|``, and whether the binormal is zero and the vertex
    collinear, both relative to that floor.  Per interior span (row i-2 is
    span i): the twist floor ``|L_{i-1}| |L_i| |L_{i+1}|``."""

    chord_lengths: np.ndarray
    binormal_norms: np.ndarray
    binormal_floors: np.ndarray
    zero: np.ndarray
    collinear: np.ndarray
    torsion_floors: np.ndarray


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
        # squares near the top of the float range overflow: the lengths read inf
        with np.errstate(all="ignore"):
            lengths = np.linalg.norm(chords, axis=1)
            bbox = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
        # a length that overflowed, or underflowed to zero, would read as a
        # duplicate below
        overflow, underflow = np.isinf(lengths), (lengths == 0.0) & chords.any(axis=1)
        for out_of_range, how in ((overflow, "overflows"), (underflow, "underflows")):
            if out_of_range.any():
                bad = int(np.argmax(out_of_range))
                raise ValueError(f"length of the chord from point {bad} to point {bad + 1} {how} float64")
        if np.isinf(bbox):
            raise ValueError("extent of the points overflows float64")
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
        # cross_rows and dot_rows match cross3 and triple bit for bit; a row
        # sum would round differently, and the values are printed
        self._binormals = cross_rows(chords[:-1], chords[1:])
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

    @cached_property
    def classes(self) -> Classes:
        """The magnitudes and sign classes of the chords, binormals and twists."""
        lengths, eps = self._lengths, self.eps_zero
        # products of extreme-scale chords overflow to inf and classify as they read
        with np.errstate(all="ignore"):
            norms = norm_rows(self._binormals)
            floors = lengths[:-1] * lengths[1:]
            zero = norms <= eps * floors
            collinear = zero & (dot_rows(self._chords[:-1], self._chords[1:]) > eps * floors)
            torsion_floors = lengths[:-2] * lengths[1:-1] * lengths[2:]
        classes = Classes(lengths, norms, floors, zero, collinear, torsion_floors)
        for row in classes:
            row.flags.writeable = False
        return classes

    # one entry of the rows above, for library callers

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

    def vertex_is_collinear(self, j: int) -> bool:
        """Chords around vertex j parallel and co-directed."""
        self.binormal(j)  # IndexError outside 1..n-1
        return bool(self.classes.collinear[j - 1])


# flag sets by bit code, bit k standing for FLAG_BITS[k]
FLAG_BITS = (
    ShapeFlag.CONVEX,
    ShapeFlag.INFLECTION,
    ShapeFlag.TORSION,
    ShapeFlag.COPLANAR,
    ShapeFlag.COLLINEAR,
)
FLAG_SETS = tuple(
    frozenset(f for k, f in enumerate(FLAG_BITS) if code >> k & 1) for code in range(32)
)


def span_codes(poly: DataPolygon, spans) -> np.ndarray:
    """The flags of every span in the 1-based index array ``spans`` as bit
    codes (``FLAG_SETS[code]`` is the set), computed over all at once."""
    n, eps = poly.n_segments, poly.eps_zero
    _, norms, floors, _, collinear, torsion_floors = poly.classes
    spans = np.asarray(spans, dtype=int)
    # either end vertex collinear; the padding stands for the end points
    padded = np.concatenate([[False], collinear, [False]])
    codes = (padded[spans - 1] | padded[spans]).astype(int) << 4
    inner = np.flatnonzero((2 <= spans) & (spans <= n - 1))
    prev, cur = spans[inner] - 2, spans[inner] - 1
    np_, nc = norms[prev], norms[cur]
    well_defined = (np_ > eps * floors[prev]) & (nc > eps * floors[cur])
    # as in ``DataPolygon.classes``, overflowed products classify as they read
    with np.errstate(all="ignore"):
        d = dot_rows(poly.binormals[prev], poly.binormals[cur])
        convex = well_defined & (d > eps * np_ * nc)
        inflection = well_defined & ~convex & (d < -eps * np_ * nc)
    torsion = np.abs(poly.torsions[prev]) > eps * torsion_floors[prev]
    coplanar = well_defined & ~torsion
    codes[inner] |= convex | inflection << 1 | torsion << 2 | coplanar << 3
    return codes


def classify_vertex(poly: DataPolygon, i: int) -> frozenset:
    """Qualifying data conditions for span ``i`` (points x_{i-1} -> x_i).

    CONVEX / INFLECTION compare the turn binormals at the span's two end
    vertices (available on interior spans only); TORSION / COPLANAR classify
    the span twist; COLLINEAR is set when either end vertex has parallel,
    co-directed chords.  The one-row case of ``span_codes``.
    """
    n = poly.n_segments
    if not 1 <= i <= n:
        raise IndexError(f"span index {i} out of range 1..{n}")
    return FLAG_SETS[span_codes(poly, [i])[0]]


def spatial_arc_inflection_count(poly: DataPolygon, directions: int) -> int:
    """Largest number of turn-sequence sign changes visible along any
    sampled view direction.

    A deterministic lower bound on the supremum over the whole sphere; the
    sample is the arc's own normalized turn vectors and the directions
    orthogonal to consecutive pairs of them (sign-region boundaries), then
    a Fibonacci lattice plus the axis directions.  The one-sequence case of
    the segment search of ``oracle.projected_inflection_counts``.
    """
    turns = poly.binormals
    if len(turns) < 2:
        return 0
    own = unit_pairs(np.concatenate([turns, cross_rows(turns[:-1], turns[1:])]))
    tols = poly.eps_zero * poly.classes.binormal_floors
    return int(_max_view_changes(turns.T[None], tols[None, None], own[None], lattice_directions(directions))[0])
