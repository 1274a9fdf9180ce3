"""Small 3D vector kernel: cross products, triple products, plane
projection and angle sines.

Every quantity in this package is carried as a plain float64 numpy array
(shape ``(3,)``).  The helpers here validate finiteness at the
boundaries; the algebra itself is unchecked for speed.

Tolerance policy
----------------
A single module constant ``EPS_ZERO`` drives every sign classification in
the package.  Comparisons are always made *relative to a magnitude floor*
built from the norms of the participating vectors (e.g. a dot of two cross
products is classified against ``EPS_ZERO * |a||b||c||d|``), which makes
verdicts invariant under uniform scaling and rigid motions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS_ZERO = 1e-9

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class DegenerateInputError(ValueError):
    """A zero-length vector was passed where a direction is required."""


class InvalidPlaneError(ValueError):
    """Plane normal is zero or non-finite."""


def as_vec3(v) -> np.ndarray:
    a = np.array(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite vector components: {a}")
    return a


def norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b))


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Right-handed cross product of two 3-vectors."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def triple(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Scalar triple product a . (b x c)."""
    return dot(a, cross3(b, c))


@dataclass(frozen=True)
class Plane:
    """Plane ``{p : (p . normal + offset) / |normal| = 0}``."""

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        n = as_vec3(self.normal)
        object.__setattr__(self, "normal", n)
        if not math.isfinite(self.offset):
            raise InvalidPlaneError("non-finite plane offset")
        if norm(n) == 0.0:
            raise InvalidPlaneError("plane normal must be non-zero")

    @classmethod
    def through_point(cls, normal, point) -> "Plane":
        n = as_vec3(normal)
        return cls(n, -dot(n, as_vec3(point)))

    def signed_distance(self, p: np.ndarray) -> float:
        return (dot(p, self.normal) + self.offset) / norm(self.normal)


def project_point(p: np.ndarray, plane: Plane) -> np.ndarray:
    """Orthogonal projection of ``p`` onto ``plane``; idempotent."""
    n = plane.normal
    n2 = dot(n, n)
    if n2 == 0.0:
        raise InvalidPlaneError("plane normal must be non-zero")
    return p - ((dot(p, n) + plane.offset) / n2) * n


def sine_angle(a: np.ndarray, b: np.ndarray) -> float:
    """sin of the angle between two non-zero 3-vectors, in [0, 1]."""
    na, nb = norm(a), norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("sine_angle requires non-zero vectors")
    s = norm(cross3(a, b)) / (na * nb)
    return min(s, 1.0)


def sphere_directions(m: int, extra=()) -> np.ndarray:
    """Deterministic direction sample on the unit sphere.

    Fibonacci lattice of ``m`` points, plus the six axis directions (poles
    included explicitly so exactly planar configurations are always probed),
    plus any caller-supplied ``extra`` candidates (normalized; zero-length
    entries dropped).
    """
    if m < 1:
        raise ValueError("need at least one direction")
    k = np.arange(m, dtype=float)
    z = 1.0 - 2.0 * (k + 0.5) / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = 2.0 * math.pi * k / _GOLDEN
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    axes = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    blocks = [pts, axes]
    for cand in extra:
        c = np.asarray(cand, dtype=float).reshape(3)
        ln = np.linalg.norm(c)
        if ln > 0.0 and np.all(np.isfinite(c)):
            blocks.append((c / ln)[None, :])
            blocks.append((-c / ln)[None, :])
    return np.vstack(blocks)
