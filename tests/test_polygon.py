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
from shapespline.oracle import DEFAULT_DIRECTIONS
from shapespline.planar import PolyArc2, cross2, is_regular_arc, planar_inflection_count
from shapespline import polygon
from shapespline.polygon import _BLOCK_ENTRIES, _count_changes_rows
from conftest import forward_fill_changes_rows, random_polygon, ref_spatial_arc_inflection_count

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


def whole_products(blocks: list, sequences: int, set_rows) -> np.ndarray:
    """The ``(k, r, m)`` products that ``_max_view_changes`` evaluates, in
    its order (each direction set in turn, by runs of sequences, each run
    by blocks of rows), put back together as the ``(S, R, m)`` products of
    every sequence with all its directions."""
    blocks, whole = iter(blocks), []
    for rows in set_rows:
        runs, seen = [], 0
        while seen < sequences:
            run = [next(blocks)]
            while sum(b.shape[1] for b in run) < rows:
                run.append(next(blocks))
            runs.append(np.concatenate(run, axis=1))
            seen += len(run[0])
        whole.append(np.concatenate(runs))
    assert next(blocks, None) is None
    return np.concatenate(whole, axis=1)


class TestMaxRowChanges:
    """The blocked search sees the rows of each sequence's whole product
    with its directions bit for bit, and so gives the reference count of
    that product: with one sequence, as the arc search runs it, and with a
    stack of sequences, as the segment search runs them."""

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
        blocks = []

        def recording(best, vals, tols):
            blocks.append(vals)
            raise_counts(best, vals, tols)

        raise_counts = polygon._raise_counts
        monkeypatch.setattr(polygon, "_raise_counts", recording)
        for seqs in (stacked[:1], stacked):
            blocks.clear()
            tols = 1e-9 * np.linalg.norm(seqs, axis=2)[:, None, :]
            got = polygon._max_view_changes(seqs.transpose(0, 2, 1), tols, own[: len(seqs)], shared)
            assert all(b.shape[1] >= 2 for b in blocks)
            products = whole_products(blocks, len(seqs), (self.OWN, len(shared)))
            for k, seq in enumerate(seqs):
                whole = np.vstack([own[k], shared]) @ seq.T
                assert np.array_equal(products[k], whole)
                assert got[k] == forward_fill_changes_rows(whole, tols[k]).max()


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
        assert np.allclose(poly.binormal(1), [15, -15, 0])
        assert np.allclose(poly.binormal(2), [20, 10, 0])
        assert float(np.dot(poly.binormal(1), poly.binormal(2))) == pytest.approx(150.0)
        assert poly.span_torsion(2) == pytest.approx(90.0)

    def test_example2_measures_exact(self):
        poly = DataPolygon(EX2_POINTS)
        assert np.array_equal(poly.binormal(1), np.array([30.0, -30.0, 0.0]))
        assert np.allclose(poly.binormal(2), [40.0, 20.0, 0.0])
        assert float(np.dot(poly.binormal(1), poly.binormal(2))) == pytest.approx(600.0)


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
                floor = (
                    poly.chord_length(1) * poly.chord_length(2) * poly.chord_length(3)
                )
                if abs(poly.span_torsion(2)) > 0.05 * floor:
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

    def test_memory_linear_in_points(self):
        # the value matrix is scanned a block of directions at a time; the
        # whole (2048 + ~4n) x n matrix at 2 000 points would need ~160 MB
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 60.0 * math.pi, 2000)
        pts = np.column_stack([np.cos(t), np.sin(t), 0.05 * t]) + rng.normal(0.0, 0.01, (2000, 3))
        poly = DataPolygon(pts)
        tracemalloc.start()
        try:
            spatial_arc_inflection_count(poly, DEFAULT_DIRECTIONS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
