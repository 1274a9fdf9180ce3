"""Cubic Hermite segments in Bezier form, with closed-form derivatives,
the curvature-vector quadratic and the (constant) torsion numerator.

A segment interpolates ``p0 -> p3`` over a parameter interval of width
``h`` with end tangents ``m0, m1`` taken with respect to the *global*
parameter, so the Bezier control points are ``p1 = p0 + (h/3) m0`` and
``p2 = p3 - (h/3) m1``.  All derivative formulas below carry the chain-rule
``1/h`` factors explicitly.

Every formula is written once, over rows: the ``*_rows`` functions take
``n`` segments as ``(n, 3)`` arrays and ``n`` widths, and evaluate them at
``m`` parameters as ``(n, m, 3)`` grids.  A spline is evaluated through
them on its own rows.  :class:`CubicSegment` is the one-row API for
library callers: each of its methods runs the row kernel on a batch of
one, so it equals the matching row of a batched call bit for bit;
``point`` and ``derivatives`` map a float ``u`` to ``(3,)`` vectors and a
1-D array of ``m`` parameters to ``(m, 3)`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import EPS_ZERO, as_vec3, cross_rows, norm_rows, powers, triple_rows


def _unit_param(u):
    """A 1-D array of parameters, every entry in [0, 1]."""
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    inside = (0.0 <= arr) & (arr <= 1.0)
    if not inside.all():
        raise ValueError(f"parameter {arr[~inside][0]} outside [0, 1]")
    return arr


def net_fault(m0, m1, chord, h):
    """``(row, reason)`` of the first of ``n`` segments that is not a valid
    cubic segment (its width is not positive, or its endpoints coincide
    relative to the size of its control polygon), or None."""
    chord_len = norm_rows(chord)
    scale = chord_len + (h / 3.0) * (norm_rows(m0) + norm_rows(m1))
    narrow = ~(h > 0.0)
    bad = np.flatnonzero(narrow | (chord_len <= EPS_ZERO * scale))
    if not len(bad):
        return None
    k = int(bad[0])
    if narrow[k]:
        return k, f"parameter width must be positive, got {h.tolist()[k]}"
    return k, "endpoints coincide"


def point_rows(nets, u) -> np.ndarray:
    """Positions (Bernstein form) of ``(n, 4, 3)`` Bezier nets at the
    parameters ``u``: an ``(n, m, 3)`` grid."""
    u = u[:, None]
    v = 1.0 - u
    b = nets[:, :, None, :]
    return (
        b[:, 0] * (v * v * v)
        + b[:, 1] * (3.0 * v * v * u)
        + b[:, 2] * (3.0 * v * u * u)
        + b[:, 3] * (u * u * u)
    )


def derivative_rows(m0, m1, chord, h, u):
    """First and second derivatives w.r.t. the global parameter as
    ``(n, m, 3)`` grids, and the constant third derivative as ``(n, 3)``;
    ``u`` holds ``m`` parameters, or one row of ``m`` per segment."""
    u = u[..., None]
    v = 1.0 - u
    a = (3.0 / h)[:, None] * chord
    e1 = (a - m0 - m1)[:, None]
    e2 = (a - 2.0 * m0 - m1)[:, None]
    e3 = (-a + m0 + 2.0 * m1)[:, None]
    d1 = m0[:, None] * (v * v) + e1 * (2.0 * u * v) + m1[:, None] * (u * u)
    d2 = (2.0 / h)[:, None, None] * (e2 * v + e3 * u)
    d3 = (6.0 / powers(h, 3))[:, None] * (h[:, None] * (m0 + m1) - 2.0 * chord)
    return d1, d2, d3


def curvature_quad_rows(m0, m1, chord, h):
    """Coefficients ``c0, c1, c2`` of the curvature vector of each segment,
    as ``(n, 3)`` rows each:

    ``omega(u) = c0 (1-u)^2 + c1 u(1-u) + c2 u^2``

    where ``omega = d1 x d2`` (first cross second derivative).  Note the
    middle weight is ``u(1-u)``, not the Bernstein ``2u(1-u)``."""
    c1 = (2.0 / h)[:, None] * cross_rows(m0, m1)
    k = (6.0 / powers(h, 2))[:, None]
    return k * cross_rows(m0, chord) - c1, c1, k * cross_rows(chord, m1) - c1


def torsion_numerator_rows(m0, m1, chord, h) -> np.ndarray:
    """The constant value of det[d1, d2, d3] over each segment."""
    return (12.0 / powers(h, 4)) * triple_rows(m0, chord, m1)


def torsion_floor_rows(m0, m1, chord, h) -> np.ndarray:
    """Magnitude floor of each torsion numerator: the same product with
    norms in place of the triple product."""
    return norm_rows(m0) * norm_rows(chord) * norm_rows(m1) / powers(h, 4) * 12.0


@dataclass(frozen=True)
class CubicSegment:
    p0: np.ndarray
    p3: np.ndarray
    m0: np.ndarray
    m1: np.ndarray
    h: float

    def __post_init__(self):
        for name in ("p0", "p3", "m0", "m1"):
            object.__setattr__(self, name, as_vec3(getattr(self, name)))
        fault = net_fault(*self.rows())
        if fault is not None:
            raise ValueError(fault[1])

    @classmethod
    def from_bezier(cls, p0, p1, p2, p3, h: float) -> "CubicSegment":
        p0, p1, p2, p3 = (as_vec3(p) for p in (p0, p1, p2, p3))
        return cls(p0, p3, 3.0 * (p1 - p0) / h, 3.0 * (p3 - p2) / h, h)

    def rows(self):
        """This segment as the one-row batch ``(m0, m1, chord, h)``."""
        return self.m0[None], self.m1[None], self.chord[None], np.array([self.h], dtype=float)

    @property
    def chord(self) -> np.ndarray:
        return self.p3 - self.p0

    @property
    def p1(self) -> np.ndarray:
        return self.p0 + (self.h / 3.0) * self.m0

    @property
    def p2(self) -> np.ndarray:
        return self.p3 - (self.h / 3.0) * self.m1

    @property
    def bezier_points(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2, self.p3])

    def point(self, u) -> np.ndarray:
        """Position at local parameter ``u`` in [0, 1] (Bernstein form)."""
        pts = point_rows(self.bezier_points[None], _unit_param(u))[0]
        return pts if isinstance(u, np.ndarray) else pts[0]

    def derivatives(self, u):
        """First, second and third derivatives w.r.t. the global parameter;
        the third is constant, one ``(3,)`` vector for any ``u``."""
        d1, d2, d3 = derivative_rows(*self.rows(), _unit_param(u))
        if isinstance(u, np.ndarray):
            return d1[0], d2[0], d3[0]
        return d1[0, 0], d2[0, 0], d3[0]

    def curvature_quad(self) -> tuple:
        """``(c0, c1, c2)`` of ``curvature_quad_rows`` for this segment."""
        return tuple(c[0] for c in curvature_quad_rows(*self.rows()))

    def torsion_numerator(self) -> float:
        """The constant value of det[d1, d2, d3] over the whole segment."""
        return float(torsion_numerator_rows(*self.rows())[0])
