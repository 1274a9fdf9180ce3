"""Brute-force verifiers kept independent of the closed-form code paths.

Everything here works from raw control points or sampled positions only:
curve evaluation goes through de Casteljau recursion, derivatives through
the de Casteljau triangle, convexity through discrete support-line tests on
sampled points.  None of it calls the Bernstein-basis evaluators or the
criteria formulas it is used to check.
"""

from __future__ import annotations

import numpy as np

from .geometry import EPS_ZERO, cross_rows, lattice_directions, norm_rows, powers, unit_rows
from .polygon import _BLOCK_ENTRIES, _live_vectors, _max_view_changes, _runs

# default sampling densities of the oracles, shared with the CLI settings
DEFAULT_SAMPLES = 512
DEFAULT_DIRECTIONS = 2048


def decasteljau(nets, u) -> np.ndarray:
    """Evaluate Bezier curves of any degree by repeated interpolation: per
    net of the ``(S, k, d)`` stack ``nets``, the ``(m, d)`` points at the
    1-D array ``u`` of ``m`` parameters, as ``(S, m, d)``."""
    # the control points first, each with the parameters innermost, so
    # that each step yields (k - 1, S, d, m) values
    b = np.asarray(nets, dtype=float)
    if b.ndim != 3:
        raise ValueError("stack of control nets expected")
    b = np.moveaxis(b, 1, 0)[..., None]
    while len(b) > 1:
        b = (1.0 - u) * b[:-1] + u * b[1:]
    return np.ascontiguousarray(b[0].swapaxes(1, 2))


def decasteljau_derivatives(nets, u, h):
    """First/second/third derivative of cubic Beziers from the de Casteljau
    triangle: per net of the ``(S, 4, 3)`` stack ``nets``, rescaled to a
    parameter interval of its width in ``h``, at the 1-D array ``u`` of
    ``m`` parameters.  d1 and d2 are ``(S, m, 3)``, and the constant d3 is
    ``(S, 3)``.  Widths are raised to powers through Python floats
    (``geometry.powers``)."""
    b0 = np.asarray(nets, dtype=float)
    if b0.ndim != 3 or b0.shape[1] != 4:
        raise ValueError("stack of cubic control nets expected")
    c = np.moveaxis(b0, 1, 0)
    b1 = (1.0 - u) * c[:-1, ..., None] + u * c[1:, ..., None]
    b2 = (1.0 - u) * b1[:-1] + u * b1[1:]
    d3 = 6.0 * (c[3] - 3.0 * c[2] + 3.0 * c[1] - c[0])
    h = np.asarray(h, dtype=float)
    d1 = 3.0 * (b2[1] - b2[0]) / h[:, None, None]
    d2 = 6.0 * (b1[2] - 2.0 * b1[1] + b1[0]) / powers(h, 2)[:, None, None]
    d1, d2 = (np.ascontiguousarray(d.swapaxes(1, 2)) for d in (d1, d2))
    return d1, d2, d3 / powers(h, 3)[:, None]


def curvature_samples(nets, n: int, h):
    """``d1 x d2`` at ``n`` uniform parameters, via de Casteljau derivatives,
    per net of the ``(S, 4, 3)`` stack ``nets`` with its width in ``h``.

    Returns ``(omegas, floors)``, ``(S, n, 3)`` and ``(S, n)``, where
    ``floors[s, k] = |d1||d2|`` bounds the curvature magnitude at sample k;
    values below ``eps * floors`` are rounding noise, not signal.
    """
    d1, d2, _ = decasteljau_derivatives(nets, np.linspace(0.0, 1.0, n), h)
    return cross_rows(d1, d2), norm_rows(d1) * norm_rows(d2)


# right-hand sides (1, -dip, 1) of the dip systems, one per batch entry
_DIP_RHS = np.array([[1.0, -dip, 1.0] for dip in (2.0, 8.0, 64.0)])[:, :, None]


def _dips(picks: np.ndarray) -> np.ndarray:
    """Per ``(3, 3)`` matrix of the stack ``picks``, the solutions ``w`` of
    ``picks @ w = (1, -dip, 1)`` for each dip, as rows; NaN rows for a
    singular system.  A singular system fails a batched solve as a whole,
    so a failing batch is solved again in halves."""
    try:
        # one single-vector solve per dip, batched: a multi-column solve
        # rounds differently
        return np.linalg.solve(np.broadcast_to(picks[:, None], (len(picks), 3, 3, 3)), _DIP_RHS)[..., 0]
    except np.linalg.LinAlgError:
        if len(picks) == 1:
            return np.full((1, 3, 3), np.nan)
        half = len(picks) // 2
        return np.concatenate([_dips(picks[:half]), _dips(picks[half:])])


def _witness_directions(omegas: np.ndarray) -> np.ndarray:
    """Data-adapted view directions per segment of the ``(S, m, 3)``
    sampled curvature vectors: ``c/|c|`` for each of nine candidates ``c``
    (three sampled vectors, their pairwise crosses, and solutions of small
    linear systems that force an interior sign dip), as ``(S, 9, 3)``.
    A zero-length or non-finite candidate gives a zero row, which sees no
    sign change."""
    picks = omegas[:, [0, omegas.shape[1] // 2, -1]]
    p0, p1, p2 = picks[:, 0], picks[:, 1], picks[:, 2]
    dips = np.full(picks.shape, np.nan)
    # a zero column stays zero through elimination, so the system is
    # singular: on a segment in a coordinate plane, whose curvature vectors
    # are parallel to an axis, this spares the solve its failing batches
    solvable = np.flatnonzero(picks.any(axis=1).all(axis=1))
    if len(solvable):
        dips[solvable] = _dips(picks[solvable])
    crosses = np.stack([cross_rows(p0, p2), cross_rows(p0, p1), cross_rows(p1, p2)], axis=1)
    return unit_rows(np.concatenate([picks, crosses, dips], axis=1))


def segment_run(samples: int) -> int:
    """How many segments a sampled run holds: each coordinate plane of its
    ``(S, samples, 3)`` arrays holds at most ``_BLOCK_ENTRIES`` values, so
    a run's memory does not grow with the number of segments."""
    return max(1, _BLOCK_ENTRIES // samples)


def projected_inflection_counts(
    nets,
    widths,
    directions: int = DEFAULT_DIRECTIONS,
    samples: int = DEFAULT_SAMPLES,
    eps_zero: float = EPS_ZERO,
) -> np.ndarray:
    """Per net of the ``(S, 4, 3)`` stack ``nets``, over a parameter interval
    of its width in ``widths``: the largest sampled sign-change count of
    ``omega(u) . w`` over a deterministic direction set; a lower bound on the
    number of bending reversals visible from any viewpoint.

    Valid because the planar curvature of the projection along ``w`` has
    the same sign pattern as ``omega . w`` (projection drops only the
    component of the curvature vector orthogonal to ``w``).  The directions
    are each net's own witnesses, then the shared lattice; a lattice
    direction that ``polygon._max_view_changes`` certifies from the
    samples alone to see no more changes than the witnesses is not
    evaluated, so the count is that of every direction.  Raises
    ``ValueError`` naming the first segment whose curvature samples or
    their floors are not finite.
    """
    if directions < 16:
        raise ValueError("need at least 16 directions")
    nets, widths = np.asarray(nets, dtype=float), np.asarray(widths, dtype=float)
    lattice = lattice_directions(directions)
    runs = _runs(len(nets), segment_run(samples))
    return np.concatenate([_run_counts(nets, widths, s, t, lattice, samples, eps_zero) for s, t in runs])


def _run_counts(nets, widths, s: int, t: int, lattice, samples: int, eps_zero: float) -> np.ndarray:
    """``projected_inflection_counts`` of the run ``nets[s:t]``, at most
    ``segment_run(samples)`` segments; the search takes its products in
    blocks of whole segments of about ``_BLOCK_ENTRIES`` values each.  A
    straight segment, one with no live sample (``polygon._live_vectors``),
    counts 0 without a search."""
    # an overflowing sample is reported, not warned about
    with np.errstate(all="ignore"):
        omegas, floors = curvature_samples(nets[s:t], samples, widths[s:t])
    finite = np.isfinite(omegas).all(axis=(1, 2)) & np.isfinite(floors).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite sampled curvature on segment {s + int(np.argmin(finite)) + 1}")
    # magnitude floor per sample, independent of the view direction: along
    # directions nearly orthogonal to a planar segment's binormal the whole
    # row is rounding noise and must classify as zero
    tols = eps_zero * np.maximum(floors, 1e-300)[:, None, :]
    counts = np.zeros(len(omegas), dtype=np.int32)
    bent = _live_vectors(omegas.transpose(0, 2, 1), tols[:, 0])[1].any(axis=1)
    if not bent.any():
        return counts
    omegas, tols = omegas[bent], tols[bent]
    # at tiny scales a dip candidate overflows and gives a zero row
    with np.errstate(all="ignore"):
        own = _witness_directions(omegas)
    counts[bent] = _max_view_changes(omegas.transpose(0, 2, 1), tols, own, lattice)
    return counts


def projected_inflection_count(
    ctrl,
    h: float,
    directions: int = DEFAULT_DIRECTIONS,
    samples: int = DEFAULT_SAMPLES,
    eps_zero: float = EPS_ZERO,
) -> int:
    """``projected_inflection_counts`` of the one net ``ctrl`` over a
    parameter interval of width ``h``."""
    nets = np.array(ctrl, dtype=float)[None]
    return int(projected_inflection_counts(nets, [h], directions, samples, eps_zero)[0])


def sampled_convexity(points: np.ndarray, n_vecs: np.ndarray, eps_zero: float = EPS_ZERO) -> np.ndarray:
    """Per curve of the ``(K, m, 3)`` sampled positions ``points`` and per
    orientation of its ``(J, 3)`` rows in the ``(K, J, 3)`` ``n_vecs``,
    whether the curve is discretely support-line convex with respect to the
    orientation that row induces; ``(K, J)`` bools.

    Checks the three discrete conditions with forward-difference tangents:
    all turns non-negative along ``n_vec``, the curve never crosses the
    moving tangent line backwards, and never crosses the starting tangent
    line.  Small negative values within the noise floor are tolerated.
    """
    nn = norm_rows(n_vecs)[..., None]
    if not np.all(nn != 0.0):
        raise ValueError("orientation vector must be non-zero")
    if points.shape[1] < 8:
        raise ValueError("need at least 8 samples")
    tang = np.diff(points, axis=1)
    tl = np.linalg.norm(tang, axis=-1)[:, None]
    rel = points[:, 1:] - points[:, :1]
    rl = np.linalg.norm(rel, axis=-1)[:, None]

    def along(crosses):
        # one matrix-vector product per orientation, as for a single one
        return np.matmul(crosses[:, None], n_vecs[..., None])[..., 0]

    turns = along(cross_rows(tang[:, :-1], tang[:, 1:]))
    convex = ~np.any(turns < -eps_zero * tl[..., :-1] * tl[..., 1:] * nn, axis=-1)
    # tangent support at each sample: ((p_k - p_0) x t_k) . n >= 0
    sweep = along(cross_rows(rel[:, :-1], tang[:, 1:]))
    convex &= ~np.any(sweep < -eps_zero * rl[..., :-1] * tl[..., 1:] * nn, axis=-1)
    start = along(cross_rows(tang[:, :1], rel))
    convex &= ~np.any(start < -eps_zero * tl[..., :1] * rl * nn, axis=-1)
    return convex


def sampled_global_convexity(points, n_vec, eps_zero: float = EPS_ZERO) -> bool:
    """``sampled_convexity`` of the one curve sampled at the ``(m, 3)``
    positions ``points`` along ``n_vec``."""
    points, n_vec = np.asarray(points, dtype=float), np.asarray(n_vec, dtype=float)
    return bool(sampled_convexity(points[None], n_vec[None, None], eps_zero)[0, 0])
