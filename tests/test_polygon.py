import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shapespline import (
    DataPolygon,
    ShapeFlag,
    classify_vertex as classify,
    cross3,
    sign_changes,
    spatial_arc_inflection_count,
    triple,
)
from shapespline.geometry import cross_rows, lattice_directions, unit_rows
from shapespline.oracle import DEFAULT_DIRECTIONS, _witness_directions, curvature_samples
from shapespline.planar import PolyArc2, cross2, is_regular_arc, planar_inflection_count
from shapespline import cli, oracle, polygon
from shapespline.polygon import _BLOCK_ENTRIES, _count_changes_rows
from shapespline.spline import SplineConfig, analyze, build_spline
from conftest import (
    SEARCH_KINDS,
    SEARCH_OFFSETS,
    forward_fill_changes_rows,
    random_polygon,
    ref_spatial_arc_inflection_count,
    search_points,
)

EX1_POINTS = [(-3, -3, -0.5), (0, 0, 0), (0, 0, 5), (2, -4, 5.5)]
EX2_POINTS = [(-3, -3, -0.5), (0, 0, 0), (0, 0, 10), (2, -4, 10.5)]


class TestSignChanges:
    @pytest.mark.parametrize(
        "seq,expected",
        [
            ([1, -2, 3], 2),
            ([1, 0, -1], 1),
            ([0, 0, 0], 0),
            ([], 0),
            ([5], 0),
            ([1, 0, 0, 1, -1, 0, 2], 2),
            ([0.0, -0.0, 0.0], 0),
            (np.array([2.0, -0.0, -1e-300, 0.0, 3.0]), 2),
        ],
    )
    def test_values(self, seq, expected):
        assert sign_changes(seq) == expected


def dead_band_rows(rng, rows, m, tols):
    """Rows mixing large values of either sign with the entries a dead band
    must skip: exact zeros of both signs, values exactly at +-tol, values
    strictly inside the band and NaN; some rows are all zero."""
    tol = np.broadcast_to(tols, (rows, m))
    vals = rng.normal(0.0, 3.0, (rows, m)) * np.maximum(tol, 1.0)
    kind = rng.integers(0, 12, (rows, m))
    vals[kind == 0] = 0.0
    vals[kind == 1] = -0.0
    vals[kind == 2] = tol[kind == 2]
    vals[kind == 3] = -tol[kind == 3]
    inside = kind == 4
    vals[inside] = rng.uniform(-1.0, 1.0, inside.sum()) * tol[inside]
    vals[kind == 5] = np.nan
    vals[rng.uniform(size=rows) < 0.1] = 0.0
    # a third of the rows keep no skipped entry at all
    clean = rng.uniform(size=rows) < 0.3
    vals[clean] = np.where(np.abs(vals[clean]) > tol[clean], vals[clean], 5.0 * (tol[clean] + 1.0))
    return vals


class TestCountChangesRows:
    """The dead-band counter equals the forward-fill reference row for row."""

    def check(self, vals, tols):
        got = _count_changes_rows(vals, tols)
        want = forward_fill_changes_rows(vals, tols)
        assert got.shape == (vals.shape[0],)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [1, 2, 3, 17, 128])
    def test_broadcast_row_tols(self, rng, m):
        for _ in range(20):
            tols = rng.uniform(0.0, 2.0, (1, m))
            self.check(dead_band_rows(rng, 40, m, tols), tols)

    def test_full_tols(self, rng):
        for _ in range(20):
            tols = rng.uniform(0.0, 2.0, (30, 64))
            self.check(dead_band_rows(rng, 30, 64, tols), tols)

    def test_scalar_zero_tols(self, rng):
        for _ in range(20):
            self.check(dead_band_rows(rng, 25, 50, 0.0), 0.0)

    @pytest.mark.parametrize(
        "vals",
        [
            np.zeros((4, 9)),
            np.full((3, 5), -0.0),
            np.full((2, 6), np.nan),
            np.array([[1.0]]),
            np.array([[0.0]]),
            np.array([[np.nan]]),
            np.array([[1.0], [-1.0], [0.0], [np.nan]]),
            np.array([[2.0, 1.0, -1.0, -2.0, 1.0, 0.5, -0.5, 3.0]]),
        ],
    )
    def test_edge_shapes(self, vals):
        self.check(vals, 0.0)
        self.check(vals, np.ones((1, vals.shape[1])))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 12)),
            elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -3.0, np.nan]),
        ),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_property(self, vals, tol):
        # entries sit on, inside and outside the dead band [-tol, tol]
        self.check(vals, tol)
        self.check(vals, np.full((1, vals.shape[1]), tol))


def whole_products(blocks: list, sequences: int, rows: int) -> np.ndarray:
    """The ``(k, r, m)`` products that one ``_raise_over`` call evaluates,
    in its order (by runs of sequences, each run by blocks of rows), put
    back together as the ``(S, R, m)`` products of its sequences with all
    its rows."""
    blocks, runs, seen = iter(blocks), [], 0
    while seen < sequences:
        run = [next(blocks)]
        while sum(b.shape[1] for b in run) < rows:
            run.append(next(blocks))
        runs.append(np.concatenate(run, axis=1))
        seen += len(run[0])
    assert next(blocks, None) is None
    return np.concatenate(runs)


def row_index(rows: np.ndarray) -> dict:
    """The first position of each distinct row of ``rows``, by its bytes."""
    index = {}
    for k, row in enumerate(rows):
        index.setdefault(row.tobytes(), k)
    return index


class TestMaxRowChanges:
    """Every value the search evaluates equals its entry of the whole
    product of its sequence with all its directions, bit for bit, and the
    search gives the reference count of that product: with one sequence,
    as the arc search runs it, and with a stack of sequences, as the
    segment search runs them."""

    OWN = 16  # rows of a sequence's own directions; the rest are shared

    @pytest.mark.parametrize(
        "n,rows",
        [
            (1, 23),
            (100, 518),  # several full blocks of shared rows and a partial one
            (1000, 2065),  # a one-row tail of shared rows joins the block before it
            (_BLOCK_ENTRIES // 2 + 1, 41),  # two-row blocks
            (_BLOCK_ENTRIES + 3, 31),
        ],
    )
    def test_matches_whole_product(self, monkeypatch, n, rows):
        rng = np.random.default_rng(n)
        dirs = rng.normal(size=(rows, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        # near-planar vectors of mixed magnitudes put many values near the band
        vecs = rng.normal(size=(n, 3)) * rng.uniform(1e-3, 1e3, (n, 1))
        vecs[:, 2] *= 1e-9
        stacked = np.stack([vecs, vecs[::-1], 1e-3 * vecs, vecs[:, [1, 2, 0]], -vecs])
        own = np.stack([np.roll(dirs, k, axis=0)[: self.OWN] for k in range(len(stacked))])
        shared = dirs[self.OWN :]
        for seqs in (stacked[:1], stacked):
            tols = 1e-9 * np.linalg.norm(seqs, axis=2)[:, None, :]
            checked_search(monkeypatch, seqs, tols, own[: len(seqs)], shared)


def checked_search(monkeypatch, vecs, tols, own, shared) -> dict:
    """Run ``_max_view_changes`` on the ``(S, m, 3)`` sequences ``vecs``
    and check it against the whole product of each sequence with all its
    directions: every evaluated value equals its entry bit for bit, every
    block holds two rows or more, every shared row a certificate skips
    counts at most the sequence's best at that point, and the result is
    the reference count.  Returns how many rows the certificates skipped
    and how many columns were dropped."""
    certified, calls = [], []
    certificates = polygon._certificates
    raise_over, raise_counts = polygon._raise_over, polygon._raise_counts

    def recording_certificates(vecs_, lengths, live, best):
        axis, bound = certificates(vecs_, lengths, live, best)
        certified.append((best.copy(), axis, bound))
        return axis, bound

    def recording_over(best, vecs_, tols_, dirs):
        calls.append((vecs_, dirs, []))
        raise_over(best, vecs_, tols_, dirs)

    def recording_counts(best, vals, tols_):
        calls[-1][2].append(vals)
        raise_counts(best, vals, tols_)

    with monkeypatch.context() as patch:
        patch.setattr(polygon, "_certificates", recording_certificates)
        patch.setattr(polygon, "_raise_over", recording_over)
        patch.setattr(polygon, "_raise_counts", recording_counts)
        got = polygon._max_view_changes(vecs.transpose(0, 2, 1), tols, own, shared)
    wholes = [np.vstack([own[k], shared]) @ seq.T for k, seq in enumerate(vecs)]
    columns = [row_index(seq) for seq in vecs]
    dropped = 0
    for vecs_, dirs_, blocks in calls:
        assert all(b.shape[1] >= 2 for b in blocks)
        dropped = max(dropped, vecs.shape[1] - vecs_.shape[-1])
        for s, (v, p) in enumerate(zip(vecs_, whole_products(blocks, len(vecs_), dirs_.shape[-2]))):
            # the call's sequence, its columns and its direction rows
            cols = [[c.get(x.tobytes()) for x in v.T] for c in columns]
            k = next(k for k, c in enumerate(cols) if None not in c)
            at = row_index(np.vstack([own[k], shared]))
            assert np.array_equal(p, wholes[k][np.ix_([at[r.tobytes()] for r in dirs_[s]], cols[k])])
    skipped = 0
    for best, axis, bound in certified:
        for k in np.flatnonzero(~np.isnan(bound)):
            skip = len(own[k]) + np.flatnonzero(np.abs(shared @ axis[k]) > bound[k])
            if len(skip):
                assert forward_fill_changes_rows(wholes[k][skip], tols[k]).max() <= best[k]
            skipped += len(skip)
    for k, whole in enumerate(wholes):
        assert got[k] == forward_fill_changes_rows(whole, tols[k]).max()
    return {"skipped": skipped, "dropped": dropped}


class TestCertificate:
    """The shared rows a certificate skips cannot raise a count, on the
    segment search's curvature samples and on arcs' turns, planar, bent
    off their plane, nearly straight or twisted, also far from the origin;
    and the evaluated values stay the whole product's."""

    @pytest.mark.parametrize("offset", SEARCH_OFFSETS)
    @pytest.mark.parametrize("kind", SEARCH_KINDS)
    def test_segment_searches(self, monkeypatch, kind, offset):
        spline = build_spline(DataPolygon(search_points(kind, 5, 12, offset)), SplineConfig())
        omegas, floors = curvature_samples(spline.nets, 64, spline.widths)
        tols = 1e-9 * np.maximum(floors, 1e-300)[:, None, :]
        found = checked_search(monkeypatch, omegas, tols, _witness_directions(omegas), lattice_directions(128))
        if offset == 0.0:
            assert found["skipped"] > 0

    @pytest.mark.parametrize("kind", ["helix", "planar", "near-planar"])
    def test_below_the_floor_nothing_is_skipped(self, monkeypatch, kind):
        # at 2^-340 the dead bands lie below _MIN_BAND: every vector is
        # live and every certificate declines
        spline = build_spline(DataPolygon(search_points(kind, 5, 12) * 2.0**-340), SplineConfig())
        omegas, floors = curvature_samples(spline.nets, 64, spline.widths)
        tols = 1e-9 * np.maximum(floors, 1e-300)[:, None, :]
        assert tols.max() < polygon._MIN_BAND
        with np.errstate(all="ignore"):
            own = _witness_directions(omegas)
        found = checked_search(monkeypatch, omegas, tols, own, lattice_directions(128))
        assert found == {"skipped": 0, "dropped": 0}

    @pytest.mark.parametrize("offset", SEARCH_OFFSETS)
    @pytest.mark.parametrize("kind", SEARCH_KINDS)
    def test_arc_searches(self, monkeypatch, kind, offset):
        poly = DataPolygon(search_points(kind, 3, 20, offset))
        turns = poly.binormals
        own = unit_rows(np.concatenate([turns, cross_rows(turns[:-1], turns[1:])]))
        tols = poly.eps_zero * poly.classes.binormal_floors
        found = checked_search(monkeypatch, turns[None], tols[None, None], own[None], lattice_directions(128))
        if kind == "polyline" and offset == 0.0:
            # the collinear vertices' turns are dead along every direction
            assert found["dropped"] > 0

    def test_cones(self, monkeypatch):
        # vectors within a cone of half-angle 1 to 85 degrees about a random
        # axis, a few of them reversed and a few within half their band
        rng = np.random.default_rng(11)
        seqs, bands = [], []
        for half_angle in np.radians([1.0, 20.0, 45.0, 70.0, 85.0]):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            tilt = rng.uniform(0.0, half_angle, 40)
            side = np.cross(axis, rng.normal(size=(40, 3)))
            side /= np.linalg.norm(side, axis=1)[:, None]
            vecs = np.cos(tilt)[:, None] * axis + np.sin(tilt)[:, None] * side
            vecs *= np.where(np.arange(40) % 13 < 11, 1.0, -1.0)[:, None] * rng.uniform(0.5, 2.0, (40, 1))
            band = np.full(40, 1e-3)
            band[::7] = 5.0
            seqs.append(vecs)
            bands.append(band)
        vecs, tols = np.array(seqs), np.array(bands)[:, None, :]
        own = unit_rows(vecs[:, [0, 20, 39]])
        found = checked_search(monkeypatch, vecs, tols, own, lattice_directions(512))
        assert found["skipped"] > 0
        # zero own rows leave every best at 0, below the reversals' changes:
        # no sequence is certified, and the rows near the axes count them
        zero = np.zeros((len(vecs), 2, 3))
        assert checked_search(monkeypatch, vecs, tols, zero, lattice_directions(512))["skipped"] == 0

    def test_a_lone_kept_row_is_evaluated_in_a_block_of_two(self, monkeypatch):
        # vectors along z, reversed in turn: only the shared row (1, 0, 0)
        # lies within the margin of the plane z = 0
        vecs = np.outer(np.tile([1.0, -2.0, 3.0], 5), [0.0, 0.0, 1.0])[None]
        tilted = np.random.default_rng(4).normal(size=(40, 3)) + [0.0, 0.0, 3.0]
        shared = np.vstack([tilted / np.linalg.norm(tilted, axis=1)[:, None], [1.0, 0.0, 0.0]])
        own = np.array([[[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]]) / [[[1.0], [np.sqrt(2.0)]]]
        found = checked_search(monkeypatch, vecs, np.full((1, 1, 15), 1e-9), own, shared)
        assert found["skipped"] == len(tilted)


class TestDataPolygon:
    def test_chords_exact(self):
        poly = DataPolygon(EX1_POINTS)
        pts = np.asarray(EX1_POINTS, dtype=float)
        assert np.array_equal(poly.chords, np.diff(pts, axis=0))

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            DataPolygon([(0, 0, 0), (1, 0, 0), (1, 0, 0), (2, 0, 0)])

    def test_out_of_range_chord_named(self):
        # the squares of a chord longer than about 1.3e154 overflow: its
        # length reads inf, and it is named instead of read as a duplicate
        with pytest.raises(ValueError) as exc:
            DataPolygon([(0, 0, 0), (1, 0, 0), (1e200, 0, 0), (1e200, 1, 0)])
        assert str(exc.value) == "length of the chord from point 1 to point 2 overflows float64"
        with pytest.raises(ValueError) as exc:
            DataPolygon([(0, 0, 0), (1e154, 0, 0), (2e154, 0, 0)])
        assert str(exc.value) == "extent of the points overflows float64"
        # below about 1e-162 the squares underflow and the length reads 0
        with pytest.raises(ValueError) as exc:
            DataPolygon([(0, 0, 0), (1e-200, 0, 0), (2e-200, 1e-200, 0)])
        assert str(exc.value) == "length of the chord from point 0 to point 1 underflows float64"

    def test_only_coincident_points_are_duplicates(self):
        with pytest.raises(ValueError) as exc:
            DataPolygon([(0, 0, 0), (1e150, 0, 0), (1e150, 0, 0), (1e150, 1e150, 0)])
        assert str(exc.value) == "duplicate consecutive points at index 1"
        # long chords that still have a finite length are accepted
        assert DataPolygon([(0, 0, 0), (1e150, 0, 0), (1e150, 1e150, 0)]).n_segments == 2

    def test_short_chords_are_named_with_the_threshold(self):
        # no two points coincide, but chord 0 is no longer than 0.5 times
        # the extent sqrt(10) of the points
        with pytest.raises(ValueError) as exc:
            DataPolygon([(0, 0, 0), (1, 0, 0), (1, 1, 0), (3, 1, 0)], eps_zero=0.5)
        assert str(exc.value) == (
            "chord from point 0 to point 1 is not longer than eps_zero 0.5 "
            "times the extent 3.1622776601683795 of the points"
        )
        # the first short chord is named, and an exact repeat after it
        # does not take its place
        with pytest.raises(ValueError) as exc:
            DataPolygon([(0, 0, 0), (10, 0, 0), (10, 1e-6, 0), (10, 1e-6, 0)], eps_zero=1e-3)
        assert str(exc.value).startswith("chord from point 1 to point 2 is not longer than eps_zero 0.001 ")

    def test_two_identical_points_rejected(self):
        with pytest.raises(ValueError):
            DataPolygon([(1, 2, 3), (1, 2, 3)])

    def test_cache_coherence_bit_for_bit(self, rng):
        for _ in range(20):
            poly = random_polygon(rng, 6)
            ch = np.diff(poly.points, axis=0)
            binormals = [cross3(ch[k], ch[k + 1]) for k in range(len(ch) - 1)]
            torsions = [triple(ch[k - 1], ch[k], ch[k + 1]) for k in range(1, len(ch) - 1)]
            assert np.array_equal(poly.chords, ch)
            assert np.array_equal(poly.binormals, binormals)
            assert np.array_equal(poly.torsions, torsions)

    def test_example1_measures(self):
        poly = DataPolygon(EX1_POINTS)
        assert np.allclose(poly.binormals[0], [15, -15, 0])
        assert np.allclose(poly.binormals[1], [20, 10, 0])
        assert float(np.dot(poly.binormals[0], poly.binormals[1])) == pytest.approx(150.0)
        assert poly.torsions[0] == pytest.approx(90.0)

    def test_example2_measures_exact(self):
        poly = DataPolygon(EX2_POINTS)
        assert np.array_equal(poly.binormals[0], np.array([30.0, -30.0, 0.0]))
        assert np.allclose(poly.binormals[1], [40.0, 20.0, 0.0])
        assert float(np.dot(poly.binormals[0], poly.binormals[1])) == pytest.approx(600.0)


class TestClassify:
    def test_example1_convex_span(self):
        poly = DataPolygon(EX1_POINTS)
        flags = classify(poly, 2)
        assert ShapeFlag.CONVEX in flags
        assert ShapeFlag.TORSION in flags
        assert ShapeFlag.INFLECTION not in flags

    def test_example2_convex_span(self):
        poly = DataPolygon(EX2_POINTS)
        assert ShapeFlag.CONVEX in classify(poly, 2)

    def test_collinear_triple(self):
        poly = DataPolygon([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
        assert ShapeFlag.COLLINEAR in classify(poly, 1)
        assert ShapeFlag.COLLINEAR in classify(poly, 2)

    def test_collinear_blocks_convex_and_inflection(self, rng):
        # collinearity at a vertex excludes the binormal-dot flags there
        for _ in range(20):
            poly = random_polygon(rng, 5)
            n = poly.n_segments
            for i in range(1, n + 1):
                flags = classify(poly, i)
                if ShapeFlag.COLLINEAR in flags:
                    assert ShapeFlag.CONVEX not in flags
                    assert ShapeFlag.INFLECTION not in flags

    def test_coplanar_flag_for_planar_data(self):
        pts = [(0, 0, 0), (1, 1, 0), (2, 1, 0), (3, 0, 0), (4, -2, 0)]
        poly = DataPolygon(pts)
        for i in (2, 3):
            flags = classify(poly, i)
            assert ShapeFlag.COPLANAR in flags
            assert ShapeFlag.TORSION not in flags

    def test_index_range(self):
        poly = DataPolygon(EX1_POINTS)
        with pytest.raises(IndexError):
            classify(poly, 0)
        with pytest.raises(IndexError):
            classify(poly, 4)


def brute_force_half_plane(edges, n_dirs=3600):
    """Direction-sampled check that all edges fit a closed half-plane."""
    for theta in np.linspace(0.0, 2.0 * math.pi, n_dirs, endpoint=False):
        v = np.array([math.cos(theta), math.sin(theta)])
        if all(np.dot(v, e) >= -1e-12 * np.linalg.norm(e) for e in edges):
            return True
    return False


class TestRegularArc:
    def test_monotone_staircase(self):
        arc = PolyArc2([(0, 0), (1, 0), (1, 1), (2, 1)])
        assert is_regular_arc(arc)

    def test_near_reversal_still_regular(self):
        # two edges can never turn by more than pi; the direction oracle
        # finds a narrow admissible half-plane here
        arc = PolyArc2([(0, 0), (1, 0), (0, 0.1)])
        assert brute_force_half_plane(arc.edges)
        assert is_regular_arc(arc)

    def test_doubling_back(self):
        arc = PolyArc2([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0.2)])
        assert not brute_force_half_plane(arc.edges)
        assert not is_regular_arc(arc)

    def test_agrees_with_direction_oracle(self, rng):
        agree = 0
        for _ in range(100):
            pts = rng.uniform(-2, 2, (4, 2))
            try:
                arc = PolyArc2(pts)
            except ValueError:
                continue
            # skip near-pi vertex turns, where condition 2 and the sampled
            # half-plane test legitimately differ
            edges = arc.edges
            near_pi = False
            for k in range(len(edges) - 1):
                c = abs(cross2(edges[k], edges[k + 1]))
                d = float(np.dot(edges[k], edges[k + 1]))
                if d < 0 and c < 1e-3 * np.linalg.norm(edges[k]) * np.linalg.norm(edges[k + 1]):
                    near_pi = True
            if near_pi:
                continue
            assert is_regular_arc(arc) == brute_force_half_plane(edges)
            agree += 1
        assert agree > 50

    def test_exact_pi_vertex_turn_rejected(self):
        arc = PolyArc2([(0, 0), (1, 0), (0.5, 0)])
        assert not is_regular_arc(arc)


class TestPlanarInflectionCount:
    def test_convex_corner_walk(self):
        arc = PolyArc2([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert planar_inflection_count(arc) == 0

    def test_zigzag(self):
        arc = PolyArc2([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
        # oracle: the raw turn sequence
        edges = np.diff(np.array([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)], float), axis=0)
        turns = [cross2(edges[k], edges[k + 1]) for k in range(3)]
        assert turns[0] > 0 and turns[1] < 0 and turns[2] > 0
        assert planar_inflection_count(arc) == 2

    def test_collinear(self):
        arc = PolyArc2([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert planar_inflection_count(arc) == 0

    def test_reversal_invariance(self, rng):
        for _ in range(50):
            pts = rng.uniform(-3, 3, (6, 2))
            try:
                arc = PolyArc2(pts)
                rev = PolyArc2(pts[::-1])
            except ValueError:
                continue
            assert planar_inflection_count(arc) == planar_inflection_count(rev)


class TestSpatialArcInflectionCount:
    def test_planar_convex_lifted(self):
        poly = DataPolygon([(0, 0, 0), (1, 1, 0), (2, 1, 0), (3, 0, 0)])
        assert spatial_arc_inflection_count(poly, DEFAULT_DIRECTIONS) == 0

    def test_noncoplanar_four_points(self, rng):
        for _ in range(100):
            while True:
                pts = rng.uniform(-2, 2, (4, 3))
                try:
                    poly = DataPolygon(pts)
                except ValueError:
                    continue
                # the twist of span 2 against |L_1| |L_2| |L_3|
                if abs(poly.torsions[0]) > 0.05 * poly.classes.torsion_floors[0]:
                    break
            assert spatial_arc_inflection_count(poly, 256) == 1

    def test_five_point_wide_sector_gives_two(self):
        # turn vectors rotating through more than a half turn around z
        # while tilting out of plane
        angles = [0.0, 0.65 * math.pi, 1.3 * math.pi]
        pts = [np.zeros(3)]
        d = np.array([1.0, 0.0, 0.05])
        pts.append(pts[-1] + d)
        for k, ang in enumerate(angles):
            step = np.array([math.cos(ang + 0.4), math.sin(ang + 0.4), (-1) ** k * 0.3])
            pts.append(pts[-1] + step)
        poly = DataPolygon(pts)
        count = spatial_arc_inflection_count(poly, 2048)
        dense = spatial_arc_inflection_count(poly, 100_000)
        assert count == dense == 2

    def test_matches_planar_count_for_flat_data(self, rng):
        for _ in range(30):
            pts2 = rng.uniform(-3, 3, (6, 2))
            try:
                arc = PolyArc2(pts2)
                poly = DataPolygon(np.column_stack([pts2, np.zeros(len(pts2))]))
            except ValueError:
                continue
            assert spatial_arc_inflection_count(poly, 64) == planar_inflection_count(arc)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("directions", [16, 64, 512, 2048])
    def test_matches_the_unpruned_whole_product(self, directions):
        # random and near-planar polygons of 3 to 400 points, at unit scale
        # and scaled by 1e100 (the turns' crosses overflow) and 1e-100
        # (they underflow)
        rng = np.random.default_rng(directions)
        for n in (3, 4, 9, 40, 400):
            for flat in (1.0, 1e-9):
                pts = rng.normal(size=(n, 3)).cumsum(axis=0) * [1.0, 1.0, flat]
                for scale in (1.0, 1e100, 1e-100):
                    poly = DataPolygon(pts * scale)
                    want = ref_spatial_arc_inflection_count(poly, directions)
                    assert spatial_arc_inflection_count(poly, directions) == want

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(SEARCH_KINDS),
        st.integers(0, 2**16),
        st.integers(4, 40),
        st.sampled_from(SEARCH_OFFSETS),
        st.sampled_from([16, 64, 512]),
    )
    def test_matches_the_reference(self, kind, seed, n, offset, directions):
        poly = DataPolygon(search_points(kind, seed, n, offset))
        assert spatial_arc_inflection_count(poly, directions) == ref_spatial_arc_inflection_count(poly, directions)

    def test_memory_linear_in_points(self):
        # the value matrix is scanned a block of directions at a time; the
        # whole (2048 + ~4n) x n matrix at 2 000 points would need ~160 MB
        poly = DataPolygon(long_helix())
        assert traced_peak(spatial_arc_inflection_count, poly, DEFAULT_DIRECTIONS) < 64 * 2**20


def long_helix() -> np.ndarray:
    """A 2 000-point noisy helix of 30 turns."""
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 60.0 * math.pi, 2000)
    return np.column_stack([np.cos(t), np.sin(t), 0.05 * t]) + rng.normal(0.0, 0.01, (2000, 3))


def traced_peak(call, *args) -> int:
    """The traced peak allocation of ``call(*args)``, in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_memory_bounded_per_sampled_run():
    # both sampling oracles take the document a run of segments at a time,
    # each coordinate plane of a run's arrays at most _BLOCK_ENTRIES values;
    # the 1 999 segments' arrays at once would need about 200 MB
    cfg = SplineConfig()
    spline = build_spline(DataPolygon(long_helix()), cfg)
    report = analyze(spline, cfg)
    assert len(spline.nets) > 50 * oracle.segment_run(512)
    counts = oracle.projected_inflection_counts
    assert traced_peak(counts, spline.nets, spline.widths, 64, 512) < 16 * 2**20
    assert traced_peak(cli._verify_report, spline, report, cfg, {"samples": 512}) < 16 * 2**20
