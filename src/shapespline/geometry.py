"""Small 3D vector kernel: cross products, triple products, plane
projection and angle sines.

Every quantity in this package is carried as a plain float64 numpy array
(shape ``(3,)``, or ``(m, 3)`` for ``m`` sampled rows).  The helpers here
validate finiteness at the boundaries; the algebra itself is unchecked for
speed.

The row forms ``dot_rows``, ``norm_rows``, ``cross_rows``, ``triple_rows``
and ``sine_rows`` give, row for row, the same bits as ``dot``, ``norm``,
``cross3``, ``triple`` and ``sine_angle``.  ``cross_rows`` stands in for
``np.cross`` throughout: the same formula, without its axis handling.
``powers`` raises entries to an integer power through Python floats,
because numpy's ``**`` on an array rounds differently from ``float.__pow__``.

Tolerance policy
----------------
A single module constant ``EPS_ZERO`` drives every sign classification in
the package.  Comparisons are always made *relative to a magnitude floor*
built from the norms of the participating vectors (e.g. a dot of two cross
products is classified against ``EPS_ZERO * |a||b||c||d|``), which makes
verdicts invariant under uniform scaling and rigid motions.
"""

from __future__ import annotations

import functools
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
    # what np.linalg.norm computes for a 1-D vector, without its dispatch
    return math.sqrt(np.dot(v, v))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b))


def dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``dot`` of ``(m, k)`` rows; either side may be one vector."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def norm_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise ``norm`` of ``(m, k)`` rows."""
    return np.sqrt(dot_rows(a, a))


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Right-handed cross product of two 3-vectors."""
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``cross3`` over the last axis; either side may be one vector."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def triple(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Scalar triple product a . (b x c)."""
    return dot(a, cross3(b, c))


def triple_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row-wise ``triple`` of ``(m, 3)`` rows."""
    return dot_rows(a, cross_rows(b, c))


def powers(x: np.ndarray, k: int) -> np.ndarray:
    """``x ** k`` entry by entry, rounded as Python float powers are."""
    return np.array([v**k for v in x.tolist()])


def first_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry-wise ``max(a, b)`` as Python picks it: ``b`` only where it is
    greater, so a NaN ``b`` never replaces ``a`` and a NaN ``a`` stays."""
    return np.where(b > a, b, a)


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


def sine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``sine_angle`` of ``(m, 3)`` rows ``a`` against ``b``, which
    is one vector or ``(m, 3)`` rows."""
    na, nb = norm_rows(a), norm_rows(b)
    if not (np.all(na != 0.0) and np.all(nb != 0.0)):
        raise DegenerateInputError("sine_angle requires non-zero vectors")
    return np.minimum(norm_rows(cross_rows(a, b)) / (na * nb), 1.0)


@functools.lru_cache(maxsize=8)
def lattice_directions(m: int) -> np.ndarray:
    """Fibonacci lattice of ``m`` unit directions plus the six axis
    directions (poles included explicitly so exactly planar configurations
    are always probed); built once per ``m`` and returned read-only."""
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
    dirs = np.vstack([pts, axes])
    dirs.flags.writeable = False
    return dirs


def unit_pairs(c: np.ndarray) -> np.ndarray:
    """The rows ``c/|c|`` and ``-c/|c|`` of each candidate row ``c`` of the
    ``(..., r, 3)`` array ``c`` in order, as ``(..., 2r, 3)``; a zero-length
    or non-finite candidate gives two zero rows, which see no sign change."""
    ln = norm_rows(c)
    keep = ((ln > 0.0) & np.isfinite(c).all(axis=-1))[..., None]
    u = np.divide(c, ln[..., None], out=np.zeros_like(c), where=keep)
    return np.stack([u, -u], axis=-2).reshape(*c.shape[:-2], -1, 3)
