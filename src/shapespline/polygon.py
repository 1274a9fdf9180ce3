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

from .geometry import EPS_ZERO, cross_rows, dot_rows, lattice_directions, norm_rows, unit_rows

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


def _relative_changes(vals: np.ndarray, eps: float):
    """``_count_changes_rows`` of ``vals`` with each row's band ``eps``
    times its largest magnitude (at least 1e-300); returns the counts and
    the bands.  A NaN band leaves every non-zero value live."""
    band = eps * np.maximum(np.abs(vals).max(axis=-1), 1e-300)
    return _count_changes_rows(vals, np.fmax(band, 0.0)[..., None]), band


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


def _raise_over(best: np.ndarray, vecs: np.ndarray, tols: np.ndarray, dirs: np.ndarray) -> None:
    """``_raise_counts`` over the products of the ``(S, 3, m)`` stack
    ``vecs`` with the ``(S, r, 3)`` direction rows ``dirs``, two rows or
    more per sequence, in blocks of whole sequences and of rows near
    ``_BLOCK_ENTRIES`` values each."""
    m, r = vecs.shape[-1], dirs.shape[1]
    per_block = max(1, _BLOCK_ENTRIES // (r * m))
    rows = max(2, _BLOCK_ENTRIES // (per_block * m))
    for s, t in _runs(len(vecs), per_block):
        for a, b in _blocks(r, rows):
            _raise_counts(best[s:t], np.matmul(dirs[s:t, a:b], vecs[s:t]), tols[s:t])


# the certificate's angular margin (radians): far above the rounding of its
# angles and of a 3-term dot product
_MARGIN = 1e-6
# below this band a squared length may underflow and a live vector read short
_MIN_BAND = 1e-150


def _live_vectors(vecs: np.ndarray, band: np.ndarray):
    """The ``(S, m)`` lengths of the vectors of the ``(S, 3, m)`` stack
    ``vecs``, and which are live: longer than half their ``(S, m)``
    ``band``, as the others stay in it along every unit direction,
    rounding included.  In a stack holding a band below ``_MIN_BAND``
    every vector is live and every length NaN: it certifies nothing."""
    with np.errstate(all="ignore"):
        lengths = np.sqrt(np.einsum("sim,sim->sm", vecs, vecs))
    if not band.min() >= _MIN_BAND:
        return np.full_like(lengths, np.nan), np.ones(lengths.shape, dtype=bool)
    return lengths, lengths > 0.5 * band


def _certificates(vecs: np.ndarray, lengths: np.ndarray, live: np.ndarray, best: np.ndarray):
    """Per sequence of the ``(S, 3, m)`` stack ``vecs``, with the ``(S, m)``
    ``lengths`` of its vectors and ``live`` marking those longer than half
    their band: a unit axis ``c`` and a bound ``sin(rho + _MARGIN)`` such
    that no direction ``w`` with ``|c . w|`` above the bound sees more than
    ``best`` sign changes, as ``(S, 3)`` and ``(S,)``; the bound is NaN
    where the sequence is not certified.

    The live vectors lie within the angle ``rho`` of the line through
    ``c``; take ``sigma_k = sign(c . v_k)`` over them, with ``C`` strict
    sign changes.  Along such a ``w``, each makes an angle below 90
    degrees less the margin with ``sign(c . w) sigma_k w``, so a value
    that clears its band has the sign ``sign(c . w) sigma_k``: the count
    is at most ``C``.  A sequence is certified where ``C <= best`` and
    ``rho`` plus the margin stays below 90 degrees; a NaN or inf value or
    length makes ``rho`` NaN and so declines."""
    with np.errstate(all="ignore"):
        # the first and last live vectors, the second turned toward the first
        units = vecs.transpose(0, 2, 1) / lengths[..., None]
        seq = np.arange(len(vecs))
        a, b = units[seq, live.argmax(axis=1)], units[seq, -1 - live[:, ::-1].argmax(axis=1)]
        axis = a + np.copysign(1.0, dot_rows(a, b))[:, None] * b
        axis /= norm_rows(axis)[:, None]
        along = np.matmul(axis[:, None], vecs)[:, 0]
        # a sequence with no live vector keeps rho at the margin: it sees
        # no change along any direction
        rho = np.arccos(np.minimum(np.where(live, np.abs(along) / lengths, 1.0).min(axis=1), 1.0)) + _MARGIN
    # the vectors within half their band are the dead entries of C
    sure = (rho < 0.5 * np.pi) & (_count_changes_rows(np.where(live, along, np.nan), 0.0) <= best)
    return axis, np.where(sure, np.sin(rho), np.nan)


def _max_view_changes(vecs: np.ndarray, tols: np.ndarray, own: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Per sequence of the ``(S, 3, m)`` stack ``vecs`` (one vector per
    column), the largest ``_count_changes_rows`` count of its values along
    a view direction, against the ``(S, 1, m)`` dead bands ``tols``.  The
    directions are the sequence's own ``(S, r, 3)`` rows ``own``, then the
    ``(L, 3)`` rows ``shared``; each set holds two rows or more.

    Only the products that can raise a count are evaluated.  A column
    that ``_live_vectors`` finds dead in every sequence is dropped.  The
    own rows go first, as they are built to show the sign changes and so
    raise the bar early.  Then each sequence in turn sees the shared rows
    that its ``_certificates`` bound does not skip: all of them where it
    declines, as it does on every sequence of a stack holding a band
    below ``_MIN_BAND``.

    Each matmul runs one product per sequence (a product widened across
    sequences rounds differently), and every block holds two rows or more:
    a one-row product goes through a matrix-vector kernel that rounds
    differently from the product of the whole matrix."""
    best = np.zeros(len(vecs), dtype=np.int32)
    lengths, live = _live_vectors(vecs, tols[:, 0])
    cols = live.any(axis=0)
    if not cols.any():
        return best
    if not cols.all():
        vecs, tols, lengths, live = vecs[..., cols], tols[..., cols], lengths[:, cols], live[:, cols]
    _raise_over(best, vecs, tols, own)
    axis, bound = _certificates(vecs, lengths, live, best)
    # a NaN axis or bound keeps every row
    keep = ~(np.abs(np.matmul(axis, shared.T)) > bound[:, None])
    for s, rows in enumerate(keep):
        rows = np.flatnonzero(rows)
        if len(rows):
            # a lone row is evaluated twice, as a block needs two
            d = shared[np.repeat(rows, 2) if len(rows) == 1 else rows]
            _raise_over(best[s : s + 1], vecs[s : s + 1], tols[s : s + 1], d[None])
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

    Consecutive duplicate points, and chords no longer than ``eps_zero``
    times the extent of the points, are rejected at construction; every
    other query is pure.  ``eps_zero`` drives all sign classifications, applied
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
        short = lengths <= eps_zero * bbox
        if short.any():
            bad = int(np.argmax(short))
            if lengths[bad] == 0.0:
                raise ValueError(f"duplicate consecutive points at index {bad}")
            limit = f"eps_zero {float(eps_zero)!r} times the extent {bbox!r} of the points"
            raise ValueError(f"chord from point {bad} to point {bad + 1} is not longer than {limit}")
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
    a Fibonacci lattice plus the axis directions.  Lattice directions that
    ``_max_view_changes`` certifies cannot raise the count are skipped, and
    so are the turns within half their dead band (collinear vertices),
    which no direction sees.  The one-sequence case of the segment search
    of ``oracle.projected_inflection_counts``.
    """
    turns = poly.binormals
    if len(turns) < 2:
        return 0
    own = unit_rows(np.concatenate([turns, cross_rows(turns[:-1], turns[1:])]))
    tols = poly.eps_zero * poly.classes.binormal_floors
    return int(_max_view_changes(turns.T[None], tols[None, None], own[None], lattice_directions(directions))[0])
