"""One cubic Hermite segment in Bezier form, with closed-form derivatives,
the curvature-vector quadratic and the (constant) torsion numerator.

A segment interpolates ``p0 -> p3`` over a parameter interval of width
``h`` with end tangents ``m0, m1`` taken with respect to the *global*
parameter, so the Bezier control points are ``p1 = p0 + (h/3) m0`` and
``p2 = p3 - (h/3) m1``.  All derivative formulas below carry the chain-rule
``1/h`` factors explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import EPS_ZERO, Plane, as_vec3, cross3, norm, project_point, triple


def _check_unit_param(u: float):
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"parameter {u} outside [0, 1]")


@dataclass(frozen=True)
class CurvatureQuad:
    """Coefficients of the curvature vector of a cubic segment:

    ``omega(u) = c0 (1-u)^2 + c1 u(1-u) + c2 u^2``

    where ``omega = d1 x d2`` (first cross second derivative).  Note the
    middle weight is ``u(1-u)``, not the Bernstein ``2u(1-u)``.
    """

    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    def omega(self, u: float) -> np.ndarray:
        v = 1.0 - u
        return self.c0 * (v * v) + self.c1 * (u * v) + self.c2 * (u * u)


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
        if not self.h > 0.0:
            raise ValueError(f"parameter width must be positive, got {self.h}")
        if norm(self.chord) <= EPS_ZERO * self.control_scale:
            raise ValueError("segment endpoints coincide")

    @classmethod
    def from_bezier(cls, p0, p1, p2, p3, h: float) -> "CubicSegment":
        p0, p1, p2, p3 = (as_vec3(p) for p in (p0, p1, p2, p3))
        return cls(p0, p3, 3.0 * (p1 - p0) / h, 3.0 * (p3 - p2) / h, h)

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

    @property
    def control_scale(self) -> float:
        """Rotation-invariant size of the control polygon."""
        return float(
            norm(self.chord) + (self.h / 3.0) * (norm(self.m0) + norm(self.m1))
        )

    def point(self, u: float) -> np.ndarray:
        """Position at local parameter ``u`` in [0, 1] (Bernstein form)."""
        _check_unit_param(u)
        v = 1.0 - u
        return (
            self.p0 * (v * v * v)
            + self.p1 * (3.0 * v * v * u)
            + self.p2 * (3.0 * v * u * u)
            + self.p3 * (u * u * u)
        )

    def derivatives(self, u: float):
        """First, second and third derivatives w.r.t. the global parameter."""
        _check_unit_param(u)
        v = 1.0 - u
        a = (3.0 / self.h) * self.chord
        d1 = self.m0 * (v * v) + (a - self.m0 - self.m1) * (2.0 * u * v) + self.m1 * (u * u)
        d2 = (2.0 / self.h) * ((a - 2.0 * self.m0 - self.m1) * v + (-a + self.m0 + 2.0 * self.m1) * u)
        d3 = (6.0 / self.h**3) * (self.h * (self.m0 + self.m1) - 2.0 * self.chord)
        return d1, d2, d3

    def curvature(self, u: float) -> np.ndarray:
        d1, d2, _ = self.derivatives(u)
        return cross3(d1, d2)

    def curvature_quad(self) -> CurvatureQuad:
        length = self.chord
        mm = cross3(self.m0, self.m1)
        c0 = (6.0 / self.h**2) * cross3(self.m0, length) - (2.0 / self.h) * mm
        c1 = (2.0 / self.h) * mm
        c2 = (6.0 / self.h**2) * cross3(length, self.m1) - (2.0 / self.h) * mm
        return CurvatureQuad(c0, c1, c2)

    def torsion_numerator(self) -> float:
        """The constant value of det[d1, d2, d3] over the whole segment."""
        return (12.0 / self.h**4) * triple(self.m0, self.chord, self.m1)

    def project(self, plane: Plane) -> "CubicSegment":
        """Segment whose control points are the projections of this one's."""
        pts = [project_point(p, plane) for p in self.bezier_points]
        return CubicSegment.from_bezier(*pts, self.h)

