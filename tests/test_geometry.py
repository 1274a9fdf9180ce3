import math

import numpy as np
import pytest

from shapespline import (
    DegenerateInputError,
    InvalidPlaneError,
    Plane,
    cross3,
    project_point,
    sine_angle,
    triple,
)
from shapespline.geometry import lattice_directions, unit_pairs
from shapespline.planar import cross2
from conftest import looped_sphere_directions, vec3


def det3_cofactor(a, b, c):
    """Independent 3x3 determinant by cofactor expansion along row a."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


class TestCross3:
    def test_basis_identity(self):
        assert np.allclose(cross3(vec3(1, 0, 0), vec3(0, 1, 0)), [0, 0, 1])

    def test_known_values(self):
        assert np.allclose(cross3(vec3(3, 3, 0.5), vec3(0, 0, 5)), [15, -15, 0])
        assert np.allclose(cross3(vec3(0, 0, 5), vec3(2, -4, 0.5)), [20, 10, 0])

    def test_anticommutative_and_orthogonal(self, rng):
        for _ in range(200):
            a = rng.uniform(-5, 5, 3)
            b = rng.uniform(-5, 5, 3)
            c = cross3(a, b)
            assert np.allclose(c, -cross3(b, a))
            scale = np.linalg.norm(a) * np.linalg.norm(b) * max(np.linalg.norm(c), 1.0)
            assert abs(np.dot(c, a)) <= 1e-12 * max(scale, 1.0)
            assert abs(np.dot(c, b)) <= 1e-12 * max(scale, 1.0)


class TestCross2:
    @pytest.mark.parametrize(
        "a,b,expected",
        [((1, 0), (0, 1), 1.0), ((2, 3), (4, 6), 0.0), ((1, 2), (3, 1), -5.0)],
    )
    def test_values(self, a, b, expected):
        assert cross2(np.array(a, float), np.array(b, float)) == pytest.approx(expected)


class TestTriple:
    def test_basis(self):
        assert triple(vec3(1, 0, 0), vec3(0, 1, 0), vec3(0, 0, 1)) == 1.0

    def test_coplanar_is_zero(self, rng):
        for _ in range(50):
            a = rng.uniform(-3, 3, 3)
            b = rng.uniform(-3, 3, 3)
            lam, mu = rng.uniform(-2, 2, 2)
            c = lam * a + mu * b
            scale = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
            assert abs(triple(a, b, c)) <= 1e-10 * max(scale, 1.0)

    def test_chord_triple_against_cofactor_oracle(self):
        a, b, c = vec3(3, 3, 0.5), vec3(0, 0, 5), vec3(2, -4, 0.5)
        assert det3_cofactor(a, b, c) == pytest.approx(90.0)
        assert triple(a, b, c) == pytest.approx(90.0)

    def test_matches_cofactor_and_cyclic_forms(self, rng):
        for _ in range(200):
            a, b, c = (rng.uniform(-4, 4, 3) for _ in range(3))
            t = triple(a, b, c)
            ref = det3_cofactor(a, b, c)
            assert t == pytest.approx(ref, rel=1e-12, abs=1e-12)
            assert t == pytest.approx(float(np.dot(cross3(a, b), c)), rel=1e-12, abs=1e-12)


class TestPlane:
    def test_zero_normal_rejected(self):
        with pytest.raises(InvalidPlaneError):
            Plane(vec3(0, 0, 0), 1.0)

    def test_projection_on_plane_is_identity(self):
        pl = Plane.through_point(vec3(0, 0, 2), vec3(1, 1, 3))
        p = vec3(5, -2, 3)
        assert np.allclose(project_point(p, pl), p)

    def test_projection_to_xy(self):
        pl = Plane(vec3(0, 0, 1), 0.0)
        assert np.allclose(project_point(vec3(0, 0, 1), pl), [0, 0, 0])

    def test_projection_minimizes_distance(self, rng):
        # 1-D oracle: distance to the plane along p + t*N is minimized at
        # the computed projection
        for _ in range(50):
            normal = rng.uniform(-2, 2, 3)
            if np.linalg.norm(normal) < 0.1:
                continue
            pl = Plane(normal, float(rng.uniform(-2, 2)))
            p = rng.uniform(-3, 3, 3)
            proj = project_point(p, pl)
            best = min(
                abs(pl.signed_distance(p + t * normal)) for t in np.linspace(-3, 3, 2001)
            )
            assert abs(pl.signed_distance(proj)) <= best + 1e-9

    def test_idempotent(self, rng):
        for _ in range(100):
            normal = rng.uniform(-2, 2, 3)
            if np.linalg.norm(normal) < 0.1:
                continue
            pl = Plane(normal, float(rng.uniform(-2, 2)))
            p = rng.uniform(-3, 3, 3)
            q = project_point(p, pl)
            assert np.allclose(project_point(q, pl), q, atol=1e-12)


class TestSineAngle:
    def test_parallel_is_zero(self):
        v = vec3(1, 2, 3)
        assert sine_angle(v, 2.5 * v) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_is_one(self):
        assert sine_angle(vec3(1, 0, 0), vec3(0, 1, 0)) == pytest.approx(1.0)

    def test_45_degrees(self):
        # oracle: sine via arccos of the normalized dot product
        a, b = vec3(1, 0, 0), vec3(1, 1, 0)
        angle = math.acos(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert sine_angle(a, b) == pytest.approx(math.sin(angle))
        assert sine_angle(a, b) == pytest.approx(math.sqrt(2) / 2)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            sine_angle(vec3(0, 0, 0), vec3(1, 0, 0))

    def test_range(self, rng):
        for _ in range(200):
            a = rng.uniform(-5, 5, 3)
            b = rng.uniform(-5, 5, 3)
            if min(np.linalg.norm(a), np.linalg.norm(b)) < 1e-6:
                continue
            assert 0.0 <= sine_angle(a, b) <= 1.0


class TestProjectionIdentity:
    def test_cross_dot_normal_invariant_under_normal_shifts(self, rng):
        # adding any multiple of N to either factor leaves (u x v) . N alone
        for _ in range(300):
            n = rng.uniform(-2, 2, 3)
            if np.linalg.norm(n) < 0.1:
                continue
            u = rng.uniform(-3, 3, 3)
            v = rng.uniform(-3, 3, 3)
            alpha, beta = rng.uniform(-4, 4, 2)
            lhs = np.dot(cross3(u + alpha * n, v + beta * n), n)
            rhs = np.dot(cross3(u, v), n)
            scale = max(abs(rhs), np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(n))
            assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)


class TestSphereDirections:
    """The view directions of the searches: the lattice, and the unit pairs
    of each search's own candidates."""

    def test_contains_poles_and_axes(self):
        dirs = lattice_directions(64)
        for axis in np.vstack([np.eye(3), -np.eye(3)]):
            assert np.any(np.all(np.isclose(dirs, axis), axis=1))

    def test_unit_norm(self):
        assert np.allclose(np.linalg.norm(lattice_directions(256), axis=1), 1.0)
        pairs = unit_pairs(np.array([[3.0, 4.0, 0.0]]))
        assert np.allclose(np.linalg.norm(pairs, axis=1), 1.0)
        assert np.array_equal(pairs, [[0.6, 0.8, 0.0], [-0.6, -0.8, -0.0]])

    def test_deterministic(self):
        assert np.array_equal(lattice_directions(128), lattice_directions.__wrapped__(128))

    def test_lattice_memoised_read_only(self):
        lattice = lattice_directions(96)
        assert lattice is lattice_directions(96)
        assert not lattice.flags.writeable
        with pytest.raises(ValueError):
            lattice[0, 0] = 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("m", [1, 16, 512, 2048])
    def test_matches_looped_construction(self, rng, m):
        # the looped construction drops a zero-length or non-finite
        # candidate; the unit pairs keep its place with two zero rows
        extra = [
            *rng.normal(size=(20, 3)) * 10.0 ** rng.uniform(-150, 150, (20, 1)),
            np.zeros(3),
            np.array([np.nan, 1.0, 0.0]),
            np.array([np.inf, 0.0, 0.0]),
            np.array([1e200, 1e200, 0.0]),
            np.array([5e-324, 0.0, 0.0]),
        ]
        for cands in ((), extra[:1], extra, np.array(extra)):
            c = np.asarray(cands, dtype=float).reshape(-1, 3)
            pairs = unit_pairs(c)
            kept = np.repeat(np.array([np.linalg.norm(x) > 0.0 and np.isfinite(x).all() for x in c], dtype=bool), 2)
            assert pairs.shape == (2 * len(c), 3) and not pairs[~kept].any()
            assert np.array_equal(
                np.vstack([lattice_directions(m), pairs[kept]]), looped_sphere_directions(m, extra=cands)
            )
        # a stack of candidate sets gives each set's pairs
        stacked = unit_pairs(np.array([extra, extra[::-1]]))
        assert np.array_equal(stacked[0], unit_pairs(np.array(extra)))
        assert np.array_equal(stacked[1], unit_pairs(np.array(extra[::-1])))

    def test_rejects_empty_lattice(self):
        with pytest.raises(ValueError):
            lattice_directions(0)
