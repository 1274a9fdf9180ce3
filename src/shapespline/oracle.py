"""Brute-force verifiers kept independent of the closed-form code paths.

Everything here works from raw control points or sampled positions only:
curve evaluation goes through de Casteljau recursion, derivatives through
the de Casteljau triangle, convexity through discrete support-line tests on
sampled points.  None of it calls the Bernstein-basis evaluators or the
criteria formulas it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import EPS_ZERO, cross3, norm, norm_rows, sphere_directions
from .polygon import _max_row_changes

# default sampling densities of the oracles, shared with the CLI settings
DEFAULT_SAMPLES = 512
DEFAULT_DIRECTIONS = 2048


@dataclass(frozen=True)
class SampledCurve:
    """Strictly increasing parameter values with matching 3D positions."""

    ts: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if len(ts) != len(pts) or len(ts) < 3:
            raise ValueError("need at least 3 samples with matching parameters")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("parameters must be strictly increasing")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "points", pts)


def _lift(net: np.ndarray, u):
    """Net and ``u`` as they are for a float ``u``; for a 1-D array of ``m``
    parameters, a ``(k, 1, d)`` net and an ``(m, 1)`` column, so that each
    interpolation step yields ``(k - 1, m, d)`` rows."""
    if isinstance(u, np.ndarray):
        return net[:, None, :], u[:, None]
    return net, u


def decasteljau(ctrl, u) -> np.ndarray:
    """Evaluate a Bezier curve of any degree by repeated interpolation, at
    one parameter (a ``(d,)`` point) or a 1-D array of them (``(m, d)``)."""
    b, u = _lift(np.array(ctrl, dtype=float), u)
    while len(b) > 1:
        b = (1.0 - u) * b[:-1] + u * b[1:]
    return b[0]


def decasteljau_derivatives(ctrl, u, h: float = 1.0):
    """First/second/third derivative of a cubic Bezier at ``u`` from the
    de Casteljau triangle, rescaled to a parameter interval of width ``h``.

    ``u`` is one parameter or a 1-D array of them; d1 and d2 are then
    ``(m, 3)`` rows, and the constant d3 stays one vector."""
    b0 = np.array(ctrl, dtype=float)
    if len(b0) != 4:
        raise ValueError("cubic control net expected")
    bl, u = _lift(b0, u)
    b1 = (1.0 - u) * bl[:-1] + u * bl[1:]
    b2 = (1.0 - u) * b1[:-1] + u * b1[1:]
    d1 = 3.0 * (b2[1] - b2[0]) / h
    d2 = 6.0 * (b1[2] - 2.0 * b1[1] + b1[0]) / h**2
    d3 = 6.0 * (b0[3] - 3.0 * b0[2] + 3.0 * b0[1] - b0[0]) / h**3
    return d1, d2, d3


def curvature_samples(ctrl, n: int, h: float = 1.0):
    """``d1 x d2`` at ``n`` uniform parameters, via de Casteljau derivatives.

    Returns ``(omegas, floors)`` where ``floors[k] = |d1||d2|`` bounds the
    curvature magnitude at sample k; values below ``eps * floors`` are
    rounding noise, not signal.
    """
    d1, d2, _ = decasteljau_derivatives(ctrl, np.linspace(0.0, 1.0, n), h)
    return np.cross(d1, d2), norm_rows(d1) * norm_rows(d2)


# right-hand sides (1, -dip, 1) of the dip systems, one per batch entry
_DIP_RHS = np.array([[1.0, -dip, 1.0] for dip in (2.0, 8.0, 64.0)])[:, :, None]


def _witness_directions(omegas: np.ndarray) -> np.ndarray:
    """Data-adapted view-direction candidates built from sampled curvature
    vectors: the vectors themselves, pairwise crosses, and solutions of
    small linear systems that force an interior sign dip."""
    picks = omegas[[0, len(omegas) // 2, -1]]
    p0, p1, p2 = picks
    try:
        # one single-vector solve per dip, batched: a multi-column solve
        # rounds differently
        dips = np.linalg.solve(np.broadcast_to(picks, (3, 3, 3)), _DIP_RHS)[:, :, 0]
    except np.linalg.LinAlgError:
        dips = np.empty((0, 3))
    finite = dips[np.isfinite(dips).all(axis=1)]
    return np.vstack([picks, cross3(p0, p2), cross3(p0, p1), cross3(p1, p2), finite])


def projected_inflection_count(
    seg,
    directions: int = DEFAULT_DIRECTIONS,
    samples: int = DEFAULT_SAMPLES,
    eps_zero: float = EPS_ZERO,
) -> int:
    """Largest sampled sign-change count of ``omega(u) . w`` over a
    deterministic direction set; a lower bound on the number of bending
    reversals visible from any viewpoint.

    Valid because the planar curvature of the projection along ``w`` has
    the same sign pattern as ``omega . w`` (projection drops only the
    component of the curvature vector orthogonal to ``w``).
    """
    if directions < 16:
        raise ValueError("need at least 16 directions")
    omegas, floors = curvature_samples(seg.bezier_points, samples, seg.h)
    dirs = sphere_directions(directions, extra=_witness_directions(omegas))
    # magnitude floor per sample, independent of the view direction: along
    # directions nearly orthogonal to a planar segment's binormal the whole
    # row is rounding noise and must classify as zero
    tols = eps_zero * np.maximum(floors, 1e-300)[None, :]
    return _max_row_changes(dirs, omegas, tols)


def sampled_global_convexity(curve: SampledCurve, n_vec, eps_zero: float = EPS_ZERO) -> bool:
    """Discrete support-line convexity of a sampled curve with respect to
    the orientation induced by ``n_vec``.

    Checks the three discrete conditions with forward-difference tangents:
    all turns non-negative along ``n_vec``, the curve never crosses the
    moving tangent line backwards, and never crosses the starting tangent
    line.  Small negative values within the noise floor are tolerated.
    """
    n_vec = np.asarray(n_vec, dtype=float)
    nn = norm(n_vec)
    if nn == 0.0:
        raise ValueError("orientation vector must be non-zero")
    pts = curve.points
    if len(pts) < 8:
        raise ValueError("need at least 8 samples")
    tang = np.diff(pts, axis=0)
    tl = np.linalg.norm(tang, axis=1)

    turns = np.cross(tang[:-1], tang[1:]) @ n_vec
    if np.any(turns < -eps_zero * tl[:-1] * tl[1:] * nn):
        return False

    rel = pts[1:] - pts[0]
    rl = np.linalg.norm(rel, axis=1)
    # tangent support at each sample: ((p_k - p_0) x t_k) . n >= 0
    sweep = np.cross(rel[:-1], tang[1:]) @ n_vec
    if np.any(sweep < -eps_zero * rl[:-1] * tl[1:] * nn):
        return False

    start = np.cross(np.broadcast_to(tang[0], rel.shape), rel) @ n_vec
    if np.any(start < -eps_zero * tl[0] * rl * nn):
        return False
    return True
