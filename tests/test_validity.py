"""Validity auditor tests: crossings, orientation, hull, convexity."""

import dataclasses
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fplm import geometry, validity
from fplm.generators import (
    GENERATOR_KINDS,
    GeneratorSpec,
    ball3,
    delaunay2d,
    generate,
    icosphere,
    structured_grid_triangles,
)
from fplm.geometry import bbox_diameter, exact_orientations, signed_volumes, simplex_determinants
from fplm.laplacian import build_weights
from fplm.mapping import Embedding, FixedPointSet, regular_simplex, run_fplm
from fplm.simplicial import SimplicialMesh, detect_boundary, mesh_edges
from fplm.validity import (
    _HULL_ENTRIES,
    audit,
    check_boundary_convexity,
    check_hull_containment,
    convex_combination_residual,
    count_crossings,
    crossing_locations,
    orientation_histogram,
)
from fplm.simplicial import canonical_orientation
from orientation_oracle import (
    det_rational,
    orient2d_rational,
    simplex_orientation_rational,
    simplex_orientations_rational,
)
from test_simplicial import relabel


def segs(*pairs):
    """Build (edges, coords) from a list of ((x0, y0), (x1, y1)) tuples."""
    coords = []
    edges = []
    for a, b in pairs:
        edges.append((len(coords), len(coords) + 1))
        coords.append(a)
        coords.append(b)
    return np.array(edges), np.array(coords, dtype=float)


def grid_mesh(nx, ny):
    xs, ys = np.meshgrid(np.linspace(0, 1, nx), np.linspace(0, 1, ny))
    verts = np.column_stack([xs.ravel(), ys.ravel()])
    return SimplicialMesh(verts, structured_grid_triangles(nx, ny), 2)


class TestCountCrossings:
    def test_square_diagonals_cross_once(self):
        edges, coords = segs(((0, 0), (1, 1)), ((0, 1), (1, 0)))
        res = count_crossings(edges, coords)
        assert res.count == 1
        assert res.pairs == ((0, 1),)

    def test_shared_endpoint_is_not_a_crossing(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        edges = np.array([[0, 1], [0, 2]])
        assert count_crossings(edges, coords).count == 0

    def test_t_junction_is_not_a_crossing(self):
        edges, coords = segs(((0, 0), (2, 0)), ((1, 0), (1, 1)))
        assert count_crossings(edges, coords).count == 0

    def test_collinear_overlap_counts(self):
        edges, coords = segs(((0, 0), (2, 0)), ((1, 0), (3, 0)))
        assert count_crossings(edges, coords).count == 1

    def test_collinear_disjoint_does_not(self):
        edges, coords = segs(((0, 0), (1, 0)), ((2, 0), (3, 0)))
        assert count_crossings(edges, coords).count == 0

    def test_collinear_endpoint_touch_does_not(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        edges = np.array([[0, 1], [1, 2]])
        assert count_crossings(edges, coords).count == 0

    def test_collinear_containment_counts(self):
        edges, coords = segs(((0, 0), (4, 0)), ((1, 0), (2, 0)))
        assert count_crossings(edges, coords).count == 1

    def test_vertical_overlap(self):
        edges, coords = segs(((0, 0), (0, 3)), ((0, 1), (0, 5)))
        assert count_crossings(edges, coords).count == 1

    def test_near_miss_is_exact(self):
        # the second segment passes a hair under the shared corner; naive
        # float evaluation of the turn signs is near the rounding edge
        eps = 1e-17
        edges, coords = segs(((0, 0), (1, 1)), ((0, 1), (1, -eps)))
        res = count_crossings(edges, coords)
        # (1, -eps) with eps this small rounds onto the diagonal's side in
        # exact arithmetic: y = -1e-17 < 0 strictly, so the segments cross
        assert res.count == 1

    def test_fewer_than_two_edges(self):
        edges, coords = segs(((0, 0), (1, 1)))
        assert count_crossings(edges, coords).count == 0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="coordinates"):
            count_crossings(np.array([[0, 1]]), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="index pairs"):
            count_crossings(np.array([[0, 1, 2]]), np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        mesh = grid_mesh(3, 3)
        coords = np.array(mesh.vertices)
        coords[4, 0] = bad
        edges = np.array([[0, 8], [2, 6], [1, 4]])
        with pytest.raises(ValueError, match="finite"):
            count_crossings(edges, coords)

    @pytest.mark.parametrize("edges, match", [
        ([[0, 1], [2, -1]], r"edge vertex ids -1 out of range \[0, 4\)$"),
        ([[0, 1], [2, 4]], r"edge vertex ids 4 out of range \[0, 4\)$"),
        ([[0, 1], [2.9, 3]], "edge vertex ids must be integers, got dtype float64$"),
        (np.array([[True, False], [False, True]]), "edge vertex ids must be integers, got dtype bool$"),
    ], ids=["negative", "past-range", "fractional", "bool"])
    def test_edge_ids_follow_the_id_rule(self, edges, match):
        # -1 used to wrap to vertex 3, 2.9 to be truncated to 2, a bool
        # array to be read as ids 0 and 1, and 4 to raise numpy's IndexError
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=match):
            count_crossings(edges, coords)

    def test_matches_integer_oracle_on_lattice(self):
        # independent quadratic oracle in pure integer arithmetic
        def turn(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        def oracle_pair(p, q, r, s):
            d1, d2 = turn(r, s, p), turn(r, s, q)
            d3, d4 = turn(p, q, r), turn(p, q, s)
            if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
                axis = (
                    0
                    if max(abs(q[0] - p[0]), abs(s[0] - r[0]))
                    >= max(abs(q[1] - p[1]), abs(s[1] - r[1]))
                    else 1
                )
                lo = max(min(p[axis], q[axis]), min(r[axis], s[axis]))
                hi = min(max(p[axis], q[axis]), max(r[axis], s[axis]))
                return lo < hi
            return (
                ((d1 > 0) != (d2 > 0))
                and d1 != 0
                and d2 != 0
                and ((d3 > 0) != (d4 > 0))
                and d3 != 0
                and d4 != 0
            )

        rng = np.random.default_rng(101)
        for trial in range(60):
            n_seg = int(rng.integers(2, 90))
            pts = []
            edges = []
            for _ in range(n_seg):
                while True:
                    a = tuple(int(v) for v in rng.integers(0, 13, size=2))
                    b = tuple(int(v) for v in rng.integers(0, 13, size=2))
                    if a != b:
                        break
                edges.append((len(pts), len(pts) + 1))
                pts.append(a)
                pts.append(b)
            coords = np.array(pts, dtype=float)
            res = count_crossings(np.array(edges), coords)
            expect = set()
            for i in range(n_seg):
                for j in range(i + 1, n_seg):
                    if oracle_pair(pts[2 * i], pts[2 * i + 1], pts[2 * j], pts[2 * j + 1]):
                        expect.add((i, j))
            assert res.count == len(expect), f"trial {trial}"
            assert set(res.pairs) == expect, f"trial {trial}"

    def test_shared_indices_match_oracle(self):
        # edges drawn over a common vertex pool, so endpoint sharing by
        # index happens often; crossings must match the coordinate oracle
        def turn(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        rng = np.random.default_rng(55)
        for trial in range(30):
            n_pts = int(rng.integers(4, 12))
            pts = set()
            while len(pts) < n_pts:
                pts.add(tuple(int(v) for v in rng.integers(0, 8, size=2)))
            pts = sorted(pts)
            coords = np.array(pts, dtype=float)
            pool = [
                (i, j) for i in range(n_pts) for j in range(i + 1, n_pts)
            ]
            take = rng.choice(len(pool), size=min(len(pool), 10), replace=False)
            edges = [pool[t] for t in sorted(take)]
            res = count_crossings(np.array(edges), coords)
            expect = set()
            for i in range(len(edges)):
                for j in range(i + 1, len(edges)):
                    p, q = pts[edges[i][0]], pts[edges[i][1]]
                    r, s = pts[edges[j][0]], pts[edges[j][1]]
                    d1, d2 = turn(r, s, p), turn(r, s, q)
                    d3, d4 = turn(p, q, r), turn(p, q, s)
                    if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
                        axis = (
                            0
                            if max(abs(q[0] - p[0]), abs(s[0] - r[0]))
                            >= max(abs(q[1] - p[1]), abs(s[1] - r[1]))
                            else 1
                        )
                        lo = max(min(p[axis], q[axis]), min(r[axis], s[axis]))
                        hi = min(max(p[axis], q[axis]), max(r[axis], s[axis]))
                        if lo < hi:
                            expect.add((i, j))
                    elif (
                        ((d1 > 0) != (d2 > 0)) and d1 and d2
                        and ((d3 > 0) != (d4 > 0)) and d3 and d4
                    ):
                        expect.add((i, j))
            assert set(res.pairs) == expect, f"trial {trial}"


def oracle_crossing_pairs(points, edges):
    """Brute-force O(E^2) crossing pairs in integer arithmetic.

    Follows the documented rule pair by pair: four zero turns mean a
    collinear pair, which counts on positive-length overlap; otherwise a
    pair that shares a vertex index touches only at that vertex, and any
    other pair counts when each segment strictly straddles the other.
    """
    def turn(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    out = set()
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            p, q = points[edges[i][0]], points[edges[i][1]]
            r, s = points[edges[j][0]], points[edges[j][1]]
            d1, d2 = turn(p, q, r), turn(p, q, s)
            d3, d4 = turn(r, s, p), turn(r, s, q)
            if d1 == d2 == d3 == d4 == 0:
                axis = 0 if max(abs(q[0] - p[0]), abs(s[0] - r[0])) >= max(
                    abs(q[1] - p[1]), abs(s[1] - r[1])
                ) else 1
                lo = max(min(p[axis], q[axis]), min(r[axis], s[axis]))
                hi = min(max(p[axis], q[axis]), max(r[axis], s[axis]))
                crosses = lo < hi
            elif set(edges[i]) & set(edges[j]):
                crosses = False
            else:
                crosses = d1 * d2 < 0 and d3 * d4 < 0
            if crosses:
                out.add((i, j))
    return out


lattice_graphs = st.integers(2, 9).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=n, max_size=n
        ),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=2,
            max_size=14,
        ),
    )
)


class TestCrossingOracleProperty:
    """Random graphs over a small shared vertex pool, so many edge pairs share
    an index, coincide, fold back along each other or lie on one line."""

    @settings(max_examples=300, deadline=None)
    @given(lattice_graphs)
    @example(([(0, 0), (2, 0), (1, 0)], [(0, 1), (1, 2)]))  # fold back onto 0-1
    @example(([(0, 0), (2, 0), (4, 0)], [(0, 1), (1, 2)]))  # straight continuation
    @example(([(0, 0), (2, 2), (1, 1)], [(0, 1), (1, 0), (2, 2)]))  # repeats
    @example(([(0, 0), (2, 0), (2, 0)], [(0, 1), (0, 2)]))  # coincident ends
    def test_matches_brute_force_oracle(self, graph):
        points, edges = graph
        res = count_crossings(np.array(edges), np.array(points, dtype=float))
        expect = oracle_crossing_pairs(points, edges)
        assert res.count == len(expect)
        assert res.pairs == tuple(sorted(expect))

    def test_shared_endpoint_overlap_counts(self):
        # p2 lies on edge 0-1, so edges (0, 1) and (0, 2) overlap on 0..p2
        coords = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        res = count_crossings(np.array([[0, 1], [0, 2]]), coords)
        assert res.count == 1
        assert res.pairs == ((0, 1),)

    def test_blocks_cover_every_pair_when_all_x_ranges_overlap(self, monkeypatch):
        # long near-horizontal segments all overlap in x; a tiny pair block
        # forces many blocks, including a single row larger than a block
        import fplm.validity as validity

        rng = np.random.default_rng(12)
        points = [tuple(int(v) for v in p) for p in rng.integers(0, 40, size=(60, 2))]
        points[0::2] = [(0, y) for _, y in points[0::2]]
        points[1::2] = [(40, y) for _, y in points[1::2]]
        edges = [(k, k + 1) for k in range(0, 60, 2)] + [(1, 4), (3, 8), (5, 6)]
        expect = oracle_crossing_pairs(points, edges)
        monkeypatch.setattr(validity, "_PAIR_BLOCK", 7)
        res = count_crossings(np.array(edges), np.array(points, dtype=float))
        assert res.pairs == tuple(sorted(expect))
        assert res.count > 100


def crossing_locations_loop(edges, coords, pairs):
    """The per-pair branches: the oracle for ``crossing_locations``."""
    out = []
    for i, j in pairs:
        a, b = coords[edges[i, 0]], coords[edges[i, 1]]
        c, d = coords[edges[j, 0]], coords[edges[j, 1]]
        r = b - a
        s = d - c
        denom = r[0] * s[1] - r[1] * s[0]
        if denom != 0.0:
            t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / denom
            out.append(a + t * r)
            continue
        axis = 0 if max(abs(r[0]), abs(s[0])) >= max(abs(r[1]), abs(s[1])) else 1
        lo = max(min(a[axis], b[axis]), min(c[axis], d[axis]))
        hi = min(max(a[axis], b[axis]), max(c[axis], d[axis]))
        if abs(r[axis]) > 0:
            out.append(a + (0.5 * (lo + hi) - a[axis]) / r[axis] * r)
        else:
            out.append(0.5 * (a + b))
    return np.vstack(out) if out else np.zeros((0, 2))


@st.composite
def segment_pairs(draw):
    """1-5 segment pairs on a small grid with signed zeros; a pair is often
    made collinear by sharing one coordinate across its four ends."""
    value = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0])
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        ends = np.array(draw(st.lists(st.tuples(value, value), min_size=4, max_size=4)))
        axis = draw(st.sampled_from([None, 0, 1]))
        if axis is not None:
            ends[:, axis] = ends[0, axis]
        rows.append(ends)
    coords = np.vstack(rows)
    edges = np.arange(len(coords)).reshape(-1, 2)
    return edges, coords, [(k, k + 1) for k in range(0, len(edges), 2)]


class TestCrossingLocations:
    @settings(max_examples=500, deadline=None)
    @given(segment_pairs())
    def test_matches_per_pair_branches_bit_for_bit(self, case):
        edges, coords, pairs = case
        got = crossing_locations(edges, coords, pairs)
        assert got.tobytes() == crossing_locations_loop(edges, coords, pairs).tobytes()

    @pytest.mark.parametrize("edges, pairs, match", [
        (None, [(0, -1)], r"edge pair ids -1 out of range \[0, 2\)$"),
        (None, [(0, 2)], r"edge pair ids 2 out of range \[0, 2\)$"),
        (None, [(0, 1.5)], "edge pair ids must be integers, got dtype float64$"),
        (None, np.array([[False, True]]), "edge pair ids must be integers, got dtype bool$"),
        ([[0, 1], [2, -1]], [(0, 1)], r"edge vertex ids -1 out of range \[0, 4\)$"),
    ], ids=["negative", "past-range", "fractional", "bool", "negative-vertex"])
    def test_ids_follow_the_id_rule(self, edges, pairs, match):
        # a negative id used to wrap to the last one, 1.5 to be truncated, a
        # bool array to be read as ids 0 and 1, and 2 to raise IndexError
        diagonals, coords = segs(((0, 0), (1, 1)), ((0, 1), (1, 0)))
        with pytest.raises(ValueError, match=match):
            crossing_locations(diagonals if edges is None else edges, coords, pairs)

    def test_diagonal_intersection_point(self):
        edges, coords = segs(((0, 0), (1, 1)), ((0, 1), (1, 0)))
        res = count_crossings(edges, coords)
        pts = crossing_locations(edges, coords, res.pairs)
        np.testing.assert_allclose(pts, [[0.5, 0.5]], atol=1e-15)

    def test_collinear_overlap_midpoint(self):
        edges, coords = segs(((0, 0), (2, 0)), ((1, 0), (3, 0)))
        pts = crossing_locations(edges, coords, ((0, 1),))
        np.testing.assert_allclose(pts, [[1.5, 0.0]], atol=1e-15)

    def test_empty(self):
        edges, coords = segs(((0, 0), (1, 1)))
        pts = crossing_locations(edges, coords, ())
        assert pts.shape == (0, 2)

    def test_parallel_and_zero_length_pairs_in_one_call(self):
        edges, coords = segs(
            ((0, 0), (2, 0)), ((1, 0), (3, 0)),  # collinear overlap along x
            ((0, 0), (0, 2)), ((0, 3), (0, 1)),  # along y, edge j reversed
            ((0, 0), (2, 2)), ((1, 1), (3, 3)),  # along the diagonal
            ((1, 1), (1, 1)), ((0, 0), (2, 2)),  # zero-length edge i
            ((1, 1), (1, 1)), ((1, 1), (1, 1)),  # two zero-length edges
            ((0, 0), (2, 2)), ((0, 2), (2, 0)),  # a proper crossing
        )
        pairs = [(k, k + 1) for k in range(0, 12, 2)]
        pts = crossing_locations(edges, coords, pairs)
        expected = [[1.5, 0.0], [0.0, 1.5], [1.5, 1.5], [1.0, 1.0], [1.0, 1.0]]
        assert np.array_equal(pts, expected + [[1.0, 1.0]])

    def test_signed_zero_overlap_keeps_the_first_of_equal_ends(self):
        # the overlap is the point x = 0, spelt 0.0 and -0.0; as the builtin
        # min and max do, ties keep the first value, so the marker is +0.0
        edges, coords = segs(((0.0, -0.0), (1.0, 0.0)), ((0.0, 0.0), (-0.0, 0.0)))
        pts = crossing_locations(edges, coords, ((0, 1),))
        assert pts.tobytes() == np.zeros((1, 2)).tobytes()


class TestOrientationHistogram:
    def test_identity_embedding_single_sign(self):
        mesh = grid_mesh(4, 4)
        pos, neg, zero = orientation_histogram(mesh, mesh.vertices)
        assert zero == 0
        assert (pos == 0) != (neg == 0)
        assert pos + neg == mesh.n_simplices

    def test_mirroring_swaps_buckets(self):
        mesh = grid_mesh(4, 4)
        coords = np.asarray(mesh.vertices)
        mirrored = coords * np.array([-1.0, 1.0])
        a = orientation_histogram(mesh, coords)
        b = orientation_histogram(mesh, mirrored)
        assert (a[0], a[1]) == (b[1], b[0])
        assert a[2] == b[2] == 0

    def test_insensitive_to_stored_vertex_order(self):
        # scrambling simplex vertex order must not change the counts
        mesh = grid_mesh(4, 4)
        rng = np.random.default_rng(1)
        scrambled = mesh.simplices.copy()
        for i in range(len(scrambled)):
            scrambled[i] = rng.permutation(scrambled[i])
        m2 = SimplicialMesh(mesh.vertices, scrambled, 2)
        assert orientation_histogram(m2, m2.vertices) == orientation_histogram(
            mesh, mesh.vertices
        )

    def test_collapsed_simplex_counts_near_zero(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2], [1, 3, 2]]), 2)
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 1.0]])
        pos, neg, zero = orientation_histogram(mesh, coords)
        assert zero == 1
        assert pos + neg == 1

    def test_shape_mismatch_rejected(self):
        mesh = grid_mesh(3, 3)
        with pytest.raises(ValueError, match="coords"):
            orientation_histogram(mesh, np.zeros((4, 2)))

    @pytest.mark.parametrize("mesh", [grid_mesh(6, 5), ball3(3)], ids=["d2", "d3"])
    def test_matches_per_simplex_scalar_loop(self, mesh):
        # reference: the rational oracle on one simplex at a time
        rng = np.random.default_rng(mesh.intrinsic_dim)
        coords = np.asarray(mesh.vertices) + rng.normal(0, 0.15, mesh.vertices.shape)
        coords[mesh.simplices[3]] = coords[mesh.simplices[3, 0]]  # collapse one
        threshold = 1e-12 * np.linalg.norm(np.ptp(coords, axis=0)) ** mesh.intrinsic_dim
        sign = canonical_orientation(mesh)
        want, signs = [0, 0, 0], []
        for m, simplex in enumerate(mesh.simplices):
            pts = coords[simplex]
            vol = np.linalg.det(pts[1:] - pts[0])
            s = 0 if abs(vol) < threshold else sign[m] * simplex_orientation_rational(pts.tolist())
            want[0 if s > 0 else 1 if s < 0 else 2] += 1
            signs.append(s)
        got = orientation_histogram(mesh, coords)
        assert got == tuple(want)
        assert got[0] and got[1] and got[2]
        # the oriented sign of each simplex, 0 where it is counted near zero
        assert got.signs.dtype == np.int8 and got.signs.tolist() == signs


def two_pass_histogram(mesh, coords, exact):
    """The orientation histogram in two passes: the near-zero gate, 1e-12
    times diameter^d, on ``signed_volumes``, then the exact signs ``exact``
    of the kept rows. Returns the counts and each simplex's oriented sign,
    0 where gated."""
    d = mesh.intrinsic_dim
    vols = signed_volumes(coords, mesh.simplices)
    kept = ~(np.abs(vols) < 1e-12 * bbox_diameter(coords) ** d)
    s = np.where(kept, canonical_orientation(mesh) * exact, 0)
    pos, neg = int(np.count_nonzero(s > 0)), int(np.count_nonzero(s < 0))
    return (pos, neg, mesh.n_simplices - pos - neg), s.tolist()


def drawings(mesh, rng):
    """Drawings of ``mesh`` in R^d, d its intrinsic dimension: the first d
    coordinates of its vertices (folded for the sphere and the swiss roll),
    that jittered, snapped to a sheared 0.5 grid (exact zero images, among
    them collinear ones the float filter cannot decide), the snapped one
    moved a few ulps (near-collinear images), and the jittered one squashed
    along the last axis by 1e-16, uniformly or by factors from 1e-16 to 1e-8
    (images on both sides of the near-zero gate)."""
    d = mesh.intrinsic_dim
    plain = np.array(mesh.vertices[:, :d], dtype=float)
    plain /= np.ptp(plain, axis=0).max()
    jittered = plain + rng.normal(0, 0.02, plain.shape)
    # the shear y' = x + y (and z' = x + y + z) is exact on the grid, and it
    # turns collinear points on an axis line into points on a diagonal
    snapped = np.round(jittered * 4) / 2 @ np.triu(np.ones((d, d)))
    near = snapped + np.spacing(snapped) * rng.integers(-2, 3, snapped.shape)
    squashed = jittered * np.append(np.ones(d - 1), 1e-16)
    spread = jittered.copy()
    spread[:, -1] *= 10.0 ** rng.uniform(-16, -8, len(spread))
    return {"plain": plain, "jittered": jittered, "snapped": snapped, "near": near,
            "squashed": squashed, "spread": spread}


class TestOneFilteredPass:
    """The histogram's one pass counts what the gate and a second, exact
    pass over the kept rows count."""

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_two_pass_reference(self, kind, seed):
        resolution = {"sphere": (2,), "ball3": (3,)}.get(kind, (7, 6))
        mesh, _ = generate(GeneratorSpec(kind, resolution))
        rng = np.random.default_rng(seed)
        mesh = relabel(mesh, rng)
        undecided_rows = 0
        for name, coords in drawings(mesh, rng).items():
            _, _, undecided = simplex_determinants(coords, mesh.simplices)
            undecided_rows += int(np.count_nonzero(undecided))
            exact = np.array(simplex_orientations_rational(coords[mesh.simplices]))
            # every row's exact sign, as the audit asks of its near-zero rows
            assert exact_orientations(coords, mesh.simplices).tolist() == exact.tolist()
            want, signs = two_pass_histogram(mesh, coords, exact)
            got = orientation_histogram(mesh, coords)
            assert got == want, name
            assert got.signs.tolist() == signs, name
        assert undecided_rows > 0

    def test_near_zero_gate_is_a_constant(self):
        assert validity.NEAR_ZERO_TOL == 1e-12
        mesh = grid_mesh(3, 3)
        with pytest.raises(TypeError):
            orientation_histogram(mesh, mesh.vertices, tol=0.0)
        with pytest.raises(TypeError):
            orientation_histogram(mesh, mesh.vertices, 0.0)


class TestHullContainment:
    def square_fps(self):
        return FixedPointSet(
            indices=np.array([0, 1, 2, 3]),
            targets=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        )

    def test_inside_is_negative(self):
        coords = np.zeros((5, 2))
        coords[4] = [0.5, 0.5]
        v = check_hull_containment(self.square_fps(), coords, [4])
        assert v == pytest.approx(-0.5, abs=1e-12)

    def test_outside_is_positive_distance(self):
        coords = np.zeros((5, 2))
        coords[4] = [1.5, 0.5]
        v = check_hull_containment(self.square_fps(), coords, [4])
        assert v == pytest.approx(0.5, abs=1e-12)

    def test_no_free_vertices(self):
        v = check_hull_containment(self.square_fps(), np.zeros((4, 2)), [])
        assert v == float("-inf")

    @pytest.mark.parametrize("free, match", [
        ([4.5], "free vertex ids must be integers, got dtype float64$"),
        ([-1], r"free vertex ids -1 out of range \[0, 5\)$"),
        ([True], "free vertex ids must be integers, got dtype bool$"),
        ([5], r"free vertex ids 5 out of range \[0, 5\)$"),
    ], ids=["fractional", "negative", "bool", "past-range"])
    def test_free_ids_follow_the_id_rule(self, free, match):
        # 4.5 used to be truncated to 4, -1 to wrap to 4, True to be read as
        # vertex 1, and 5 to raise numpy's IndexError
        coords = np.zeros((5, 2))
        coords[4] = [0.5, 0.5]
        with pytest.raises(ValueError, match=match):
            check_hull_containment(self.square_fps(), coords, free)

    def test_degenerate_targets_rejected(self):
        fps = FixedPointSet(
            indices=np.array([0, 1, 2]),
            targets=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
        )
        with pytest.raises(ValueError, match="degenerate"):
            check_hull_containment(fps, np.zeros((4, 2)), [3])

    def test_three_dimensional_tet(self):
        fps = FixedPointSet(
            indices=np.arange(4),
            targets=np.array(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
            ),
        )
        coords = np.zeros((5, 3))
        coords[4] = [0.1, 0.1, 0.1]
        assert check_hull_containment(fps, coords, [4]) < 0

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_match_dense_formula(self, d, seed):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(seed)
        n_fixed = int(rng.integers(d + 1, 60))
        fps = FixedPointSet(
            indices=np.arange(n_fixed),
            targets=rng.normal(size=(n_fixed, d)),
        )
        equations = ConvexHull(fps.targets).equations
        # more than five blocks of the entry budget's rows per block
        block = _HULL_ENTRIES // len(equations)
        n_free = 5 * block + int(rng.integers(1, block))
        # halfway between a convex combination of targets and their
        # centroid: strictly inside the hull
        picks = fps.targets[rng.integers(0, n_fixed, (n_free, d + 1))]
        inside = 0.5 * (picks.mean(axis=1) + fps.targets.mean(axis=0))
        free = np.arange(n_fixed, n_fixed + n_free)
        # all free points inside, then one outside in a late block
        for outside in (None, n_free - 2):
            coords = np.vstack([fps.targets, inside])
            if outside is not None:
                coords[free[outside]] = 3.0 * np.abs(fps.targets).max(axis=0)
            got = check_hull_containment(fps, coords, free)
            dense = float(
                (coords[free] @ equations[:, :d].T + equations[:, d]).max()
            )
            assert got == dense
            assert (got > 0) == (outside is not None)
        assert check_hull_containment(fps, coords, free[:0]) == float("-inf")

    def test_budget_below_facet_count_takes_one_row(self, monkeypatch):
        # a budget smaller than the facet count still takes one row a block
        monkeypatch.setattr(validity, "_HULL_ENTRIES", 3)
        coords = np.zeros((7, 2))
        coords[4:] = [[0.5, 0.5], [0.25, 0.75], [0.5, 1.25]]
        v = check_hull_containment(self.square_fps(), coords, [4, 5, 6])
        assert v == pytest.approx(0.25, abs=1e-12)

    def test_flat_tetrahedron_rejected(self):
        fps = FixedPointSet(
            indices=np.arange(4),
            targets=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float),
        )
        with pytest.raises(ValueError, match="degenerate"):
            check_hull_containment(fps, np.zeros((5, 3)), [4])

    @pytest.mark.parametrize("d", [2, 3])
    def test_regular_simplex_facets_equal_qhull(self, d):
        from scipy.spatial import ConvexHull

        corners = regular_simplex(d)
        closed_form = validity._simplex_facets(corners)
        qhull = ConvexHull(corners).equations
        assert closed_form.shape == qhull.shape
        assert set(map(tuple, closed_form.tolist())) == set(map(tuple, qhull.tolist()))

    @pytest.mark.parametrize("d", [2, 3])
    def test_simplex_facets_match_qhull_within_ulps(self, d):
        # qhull starts each facet from a corner of its own choosing, so the
        # rows may differ in the last bits: normals by a few ulps of 1,
        # offsets by a few ulps of the largest coordinate
        from scipy.spatial import ConvexHull

        eps = np.finfo(float).eps
        rng = np.random.default_rng(d)
        for _ in range(100):
            shape = regular_simplex(d) + 0.25 * rng.normal(size=(d + 1, d))
            corners = (shape + rng.normal(size=d)) * 10.0 ** rng.integers(-3, 4)
            qhull = ConvexHull(corners).equations
            closed_form = validity._simplex_facets(corners)
            # pair each qhull facet with the closed-form one of nearest normal
            pair = np.argmax(qhull[:, :d] @ closed_form[:, :d].T, axis=1)
            assert sorted(pair.tolist()) == list(range(d + 1))
            closed_form = closed_form[pair]
            np.testing.assert_allclose(closed_form[:, :d], qhull[:, :d], rtol=0, atol=4 * eps)
            np.testing.assert_allclose(
                closed_form[:, d], qhull[:, d], rtol=0, atol=4 * eps * np.abs(corners).max()
            )



def small_resolution(kind):
    """A resolution of generator ``kind`` that embeds in milliseconds."""
    return {"sphere": (2,), "ball3": (4,)}.get(kind, (7, 6))


def final_free(mesh, embedding):
    """The final fixed set of ``embedding`` and every free vertex."""
    fixed = embedding.fixed_round2 or embedding.fixed_round1
    return fixed, np.setdiff1d(np.arange(mesh.n_vertices), fixed.indices)


def hull_arguments(monkeypatch):
    """A list that gains the vertices each later check_hull_containment call
    evaluates."""
    seen = []
    original = validity.check_hull_containment

    def spy(fixed, coords, free_indices):
        seen.append(np.asarray(free_indices))
        return original(fixed, coords, free_indices)

    monkeypatch.setattr(validity, "check_hull_containment", spy)
    return seen


def pinned_as_drawn(mesh, coords, pinned):
    """An embedding of ``coords`` with the vertices ``pinned`` fixed where
    they are drawn, in one round."""
    pinned = np.asarray(pinned)
    fixed = FixedPointSet(pinned, coords[pinned])
    return Embedding(coords, fixed, None, coords, None)


class TestHullCandidates:
    """The audit evaluates a subset of the free vertices, and its maximum is
    the one every free vertex gives."""

    @pytest.mark.parametrize("seed", [None, 0, 1])
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_equals_every_free_vertex(self, kind, seed, monkeypatch):
        mesh, _ = generate(GeneratorSpec(kind, small_resolution(kind)))
        if seed is not None:
            mesh = relabel(mesh, np.random.default_rng(seed))
        embedding = run_fplm(mesh)
        seen = hull_arguments(monkeypatch)
        report = audit(mesh, embedding, graph=build_weights(mesh))
        fixed, free = final_free(mesh, embedding)
        assert report.verdict == "injective-certified"
        assert report.hull_violation == check_hull_containment(fixed, embedding.coords, free)
        # one-signed, so the interior free vertices away from the fixed ones
        # are skipped
        assert np.isin(seen[0], free).all()
        assert 0 < seen[0].size < free.size

    def test_folded_drawing_uses_the_free_hull_vertices(self, monkeypatch):
        from scipy.spatial import ConvexHull

        mesh = grid_mesh(5, 5)
        embedding = run_fplm(mesh)
        coords = embedding.coords.copy()
        # vertex 12 has only free neighbours; thrown past the fixed
        # boundary, it folds its star and is the farthest outside
        coords[12] = [3.0, 0.5]
        folded = dataclasses.replace(embedding, coords=coords)
        seen = hull_arguments(monkeypatch)
        report = audit(mesh, folded)
        fixed, free = final_free(mesh, folded)
        pos, neg, _ = report.orientation_counts
        assert pos and neg
        # not one-signed: the corners of the free vertices' own hull
        corners = free[np.sort(ConvexHull(coords[free]).vertices)]
        assert np.array_equal(seen[0], corners)
        assert 12 in corners and corners.size < free.size
        assert report.hull_violation == check_hull_containment(fixed, coords, free) > 1

    def test_flat_free_set_uses_every_free_vertex(self, monkeypatch):
        # a 4 x 3 grid has two free vertices, too few for a hull in the
        # plane: qhull fails and every free vertex is evaluated
        mesh = grid_mesh(4, 3)
        embedding = run_fplm(mesh)
        coords = embedding.coords.copy()
        coords[5] = [3.0, 0.5]
        folded = dataclasses.replace(embedding, coords=coords)
        seen = hull_arguments(monkeypatch)
        report = audit(mesh, folded)
        fixed, free = final_free(mesh, folded)
        pos, neg, _ = report.orientation_counts
        assert pos and neg and free.size == 2
        assert np.array_equal(seen[0], free)
        assert report.hull_violation == check_hull_containment(fixed, coords, free) > 1

    def test_free_boundary_vertex_is_a_candidate(self, monkeypatch):
        # the grid drawn as itself with three corners pinned: the fourth
        # corner, 15, is free, has only free neighbours and is the farthest
        # outside the pinned triangle
        mesh = grid_mesh(4, 4)
        embedding = pinned_as_drawn(mesh, mesh.vertices.copy(), [0, 3, 12])
        seen = hull_arguments(monkeypatch)
        report = audit(mesh, embedding)
        fixed, free = final_free(mesh, embedding)
        assert report.verdict == "injective-certified"
        assert 15 in seen[0]
        assert report.hull_violation == check_hull_containment(fixed, mesh.vertices, free)
        assert report.hull_violation == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_vertex_of_an_excluded_simplex_is_a_candidate(self, monkeypatch):
        # icosphere 1 drawn by fplm through seed 0, re-pinned by hand at the
        # triangle drawn nearest the centre: the audit finds simplex 0 as
        # the outer simplex, whose free corners are the outermost vertices
        # and neighbour no pinned one, so only the exclusion makes them
        # candidates
        mesh = icosphere(1)
        coords = run_fplm(mesh).coords
        central = np.argmin(np.abs(coords[mesh.simplices]).max(axis=(1, 2)))
        embedding = pinned_as_drawn(mesh, coords, mesh.simplices[central])
        seed = mesh.simplices[0]
        seen = hull_arguments(monkeypatch)
        report = audit(mesh, embedding)
        fixed, free = final_free(mesh, embedding)
        assert (report.verdict, report.outer_simplex) == ("injective-certified", 0)
        assert np.isin(seed, seen[0]).all() and seen[0].size < free.size
        assert report.hull_violation == check_hull_containment(fixed, coords, free)
        others = np.setdiff1d(free, seed)
        assert report.hull_violation > 1 > check_hull_containment(fixed, coords, others)


class TestBoundaryConvexity:
    def test_square_is_convex(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        res = check_boundary_convexity([0, 1, 2, 3], coords)
        assert res.convex
        assert res.worst == pytest.approx(1.0, rel=1e-12)
        assert res.reflex_vertex is None

    def test_winding_direction_irrelevant(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        res = check_boundary_convexity([3, 2, 1, 0], coords)
        assert res.convex

    def test_reflex_vertex_detected(self):
        # dart: vertex 3 pokes into the triangle
        coords = np.array(
            [[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [0.9, 0.5]]
        )
        res = check_boundary_convexity([0, 1, 2, 3], coords)
        assert not res.convex
        assert res.worst < 0
        assert res.reflex_vertex == 3

    def test_too_short_cycle(self):
        with pytest.raises(ValueError, match="at least 3"):
            check_boundary_convexity([0, 1], np.zeros((2, 2)))

    @pytest.mark.parametrize("cycle, match", [
        ([0, 1, 2.5, 3], "boundary cycle vertex ids must be integers, got dtype float64$"),
        ([0, 1, 2, -1], r"boundary cycle vertex ids -1 out of range \[0, 4\)$"),
        (np.array([True, False, True]), "boundary cycle vertex ids must be integers, got dtype bool$"),
        ([0, 1, 2, 4], r"boundary cycle vertex ids 4 out of range \[0, 4\)$"),
    ], ids=["fractional", "negative", "bool", "past-range"])
    def test_cycle_ids_follow_the_id_rule(self, cycle, match):
        # 2.5 used to be truncated to 2, -1 to wrap to 3, True to be read as
        # vertex 1, and 4 to raise numpy's IndexError
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=match):
            check_boundary_convexity(cycle, coords)

    def test_regular_polygon_worst_is_sine(self):
        p = 8
        ang = np.arange(p) * 2 * np.pi / p
        coords = np.column_stack([np.cos(ang), np.sin(ang)])
        res = check_boundary_convexity(list(range(p)), coords)
        assert res.convex
        assert res.worst == pytest.approx(np.sin(2 * np.pi / p), rel=1e-12)


class TestConvexCombinationResidual:
    def test_solved_embedding_is_tiny(self):
        mesh = grid_mesh(5, 5)
        emb = run_fplm(mesh)
        graph = build_weights(mesh)
        free = np.setdiff1d(
            np.arange(mesh.n_vertices), emb.fixed_round2.indices
        )
        r = convex_combination_residual(graph, emb.coords, free)
        assert r <= 1e-12

    def test_perturbation_shows_up(self):
        mesh = grid_mesh(5, 5)
        emb = run_fplm(mesh)
        graph = build_weights(mesh)
        free = np.setdiff1d(
            np.arange(mesh.n_vertices), emb.fixed_round2.indices
        )
        coords = emb.coords.copy()
        coords[free[0]] += [0.01, 0.0]
        r = convex_combination_residual(graph, coords, free)
        assert r >= 0.009

    def test_no_free_vertices(self):
        mesh = grid_mesh(3, 3)
        graph = build_weights(mesh)
        assert convex_combination_residual(graph, np.zeros((9, 2)), []) == 0.0

    @pytest.mark.parametrize("free, match", [
        ([6.9], "free vertex ids must be integers, got dtype float64$"),
        ([-19], r"free vertex ids -19 out of range \[0, 25\)$"),
        ([True], "free vertex ids must be integers, got dtype bool$"),
        ([25], r"free vertex ids 25 out of range \[0, 25\)$"),
    ], ids=["fractional", "negative", "bool", "past-range"])
    def test_free_ids_follow_the_id_rule(self, free, match):
        # 6.9 and -19 used to evaluate vertex 6, True vertex 1, and 25 to
        # raise numpy's IndexError
        mesh = grid_mesh(5, 5)
        with pytest.raises(ValueError, match=match):
            convex_combination_residual(build_weights(mesh), np.asarray(mesh.vertices), free)

    @pytest.mark.parametrize(
        "kind, resolution", [("ball3", (3,)), ("sphere", (2,)), ("paraboloid", (10, 10))]
    )
    def test_equals_free_row_extraction_bit_for_bit(self, kind, resolution):
        # the full product's free rows sum each row in the order of the
        # product of the extracted free rows, so both are bit-identical
        mesh, _ = generate(GeneratorSpec(kind, resolution))
        emb = run_fplm(mesh)
        graph = build_weights(mesh)
        fixed = (emb.fixed_round2 or emb.fixed_round1).indices
        free = np.setdiff1d(np.arange(mesh.n_vertices), fixed)
        a, y = graph.adjacency, emb.coords
        assert np.array_equal((a @ y)[free], a[free] @ y)
        averages = a[free] @ y / graph.degrees[free, None]
        want = float(np.linalg.norm(y[free] - averages, axis=1).max())
        assert convex_combination_residual(graph, y, free) == want


class TestAudit:
    def test_disk_certified(self):
        mesh = grid_mesh(5, 5)
        emb = run_fplm(mesh)
        report = audit(mesh, emb, graph=build_weights(mesh))
        assert report.verdict == "injective-certified"
        assert report.crossing_count == 0
        assert report.reasons == ()
        assert report.max_convex_residual <= 1e-12
        assert report.hull_violation < 0
        assert report.boundary_convexity.convex
        assert report.to_text().startswith("verdict: injective-certified")

    def test_folded_coords_violated(self):
        mesh = grid_mesh(4, 4)
        coords = np.asarray(mesh.vertices).copy()
        # reflect one interior vertex far outside: folds its star
        coords[5] = [3.0, 3.0]
        report = audit(mesh, coords)
        assert report.verdict == "violated"
        assert report.crossing_count > 0
        assert any("crossing" in r for r in report.reasons)

    def test_mixed_orientation_reason(self):
        mesh = grid_mesh(4, 4)
        coords = np.asarray(mesh.vertices).copy()
        coords[5] = [3.0, 3.0]
        report = audit(mesh, coords)
        pos, neg, zero = report.orientation_counts
        assert pos and neg
        assert any("mixed" in r for r in report.reasons)

    def test_closed_mesh_excludes_seed(self):
        mesh = icosphere(1)
        emb = run_fplm(mesh)
        report = audit(mesh, emb)
        assert sum(report.orientation_counts) == mesh.n_simplices - 1
        assert report.verdict == "injective-certified"
        assert report.outer_simplex == emb.seed_simplex == 0
        assert "outer simplex: 0" in report.to_text().splitlines()

    @pytest.mark.parametrize("k", [7, 79, 200])
    def test_closed_mesh_excludes_the_pinned_seed(self, k):
        # a seed other than simplex 0, and bare coordinates: the audit finds
        # the simplex round 1 pinned, whose image covers the rest of the
        # drawing, from the drawing alone
        mesh = icosphere(2)
        report = audit(mesh, run_fplm(mesh, seed_simplex=k).coords)
        assert (report.verdict, report.orientation_counts, report.outer_simplex) == (
            "injective-certified", (0, 319, 0), k
        )

    def test_two_minority_simplices_name_no_outer_simplex(self, full_counts):
        # the octahedron drawn in the plane with inner vertex 3 moved past
        # the outer edge 0-2, which flips triangle 0-3-5: it and the outer
        # triangle share the minority sign, so no simplex is left out and
        # all 8 are counted
        coords = OCTAHEDRON.vertices.copy()
        coords[3] = [-0.5, 1.0]
        report = audit(OCTAHEDRON, coords)
        assert report.outer_simplex is None
        assert report.orientation_counts == (2, 6, 0)
        assert report.verdict == "violated"
        assert full_counts == [mesh_edges(OCTAHEDRON).shape[0]]
        assert "outer simplex" not in report.to_text()
        assert report.to_dict()["outer_simplex"] is None

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_bare_seed_simplex_equals_embedding_call(self, kind, full_counts):
        # the bare coordinates decide as the Embedding does, the outer
        # simplex of a closed mesh included, and a certified drawing skips
        # the full crossing count either way
        mesh, emb = embedded(kind, small_resolution(kind))
        via_embedding = audit(mesh, emb)
        bare = audit(mesh, emb.coords)
        for key in ("crossing_count", "crossing_pairs", "orientation_counts",
                    "boundary_convexity", "verdict", "reasons", "outer_simplex"):
            assert getattr(bare, key) == getattr(via_embedding, key)
        assert bare.verdict == "injective-certified"
        closed = detect_boundary(mesh).boundary_vertices.size == 0
        assert bare.outer_simplex == (emb.seed_simplex if closed else None)
        assert full_counts == []

    def test_bare_coords_seed_exclude_matches(self):
        # a closed mesh's bare coordinates exclude its seed
        mesh = icosphere(1)
        emb = run_fplm(mesh)
        auto = audit(mesh, emb)
        manual = audit(mesh, emb.coords)
        assert manual.orientation_counts == auto.orientation_counts
        assert manual.verdict == auto.verdict
        assert manual.outer_simplex == auto.outer_simplex == emb.seed_simplex

    @pytest.mark.parametrize("kind", [k for k in GENERATOR_KINDS if k != "sphere"])
    def test_open_mesh_seed_changes_nothing(self, kind):
        # only a closed mesh's seed covers the rest of its drawing; an open
        # mesh has no outer simplex, whichever simplex round 1 pinned, and
        # all its simplices are counted
        mesh, emb = embedded(kind, small_resolution(kind))
        assert detect_boundary(mesh).boundary_vertices.size
        for k in (None, 0, mesh.n_simplices // 2, mesh.n_simplices - 1):
            pinned = emb if k is None else run_fplm(mesh, seed_simplex=k)
            for drawing in (pinned, pinned.coords):
                report = audit(mesh, drawing)
                assert report.outer_simplex is None
                assert sum(report.orientation_counts) == mesh.n_simplices

    def test_three_dimensional_no_crossing_check(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
        )
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2, 3], [1, 2, 3, 4]]), 3)
        report = audit(mesh, verts)
        assert report.crossing_count is None
        assert report.verdict == "injective-certified"
        assert "not applicable" in report.to_text()

    def test_shape_mismatch_rejected(self):
        mesh = grid_mesh(3, 3)
        with pytest.raises(ValueError, match="embedding"):
            audit(mesh, np.zeros((9, 3)))

    @pytest.mark.parametrize("mesh", [grid_mesh(3, 3), ball3(2)], ids=["d2", "d3"])
    def test_non_finite_coordinates_rejected(self, mesh):
        coords = np.array(mesh.vertices, dtype=float)
        coords[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            audit(mesh, coords)

    def test_to_dict_json_serializable(self):
        mesh = grid_mesh(4, 4)
        emb = run_fplm(mesh)
        report = audit(mesh, emb, graph=build_weights(mesh))
        blob = json.dumps(report.to_dict())
        back = json.loads(blob)
        assert back["verdict"] == "injective-certified"
        assert back["orientation_counts"]["near_zero"] == 0

    def test_infinite_hull_violation_serializes_as_null(self):
        # all vertices fixed leaves no free vertex: -inf must become null
        mesh = SimplicialMesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]),
            2,
        )
        emb = run_fplm(mesh)
        report = audit(mesh, emb)
        assert report.hull_violation == float("-inf")
        assert json.loads(json.dumps(report.to_dict()))["hull_violation"] is None


def turn(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def closed_segments_meet(p, q, r, s):
    """Do closed segments pq and rs share a point? Exact on ints."""
    d1, d2, d3, d4 = turn(p, q, r), turn(p, q, s), turn(r, s, p), turn(r, s, q)
    if d1 == d2 == d3 == d4 == 0:
        return all(
            max(min(p[k], q[k]), min(r[k], s[k])) <= min(max(p[k], q[k]), max(r[k], s[k]))
            for k in (0, 1)
        )
    return d1 * d2 <= 0 and d3 * d4 <= 0


def oracle_loop_is_simple(points, cycle):
    """Brute-force O(B^2) simplicity of a closed polygon in integer arithmetic.

    Every edge has positive length; adjacent edges u-v, v-w meet only at v,
    so w may not lie on the ray from v through u; other edges share no point.
    """
    b = len(cycle)
    ring = [points[k] for k in cycle]
    if any(ring[k] == ring[(k + 1) % b] for k in range(b)):
        return False
    for k in range(b):
        u, v, w = ring[k - 1], ring[k], ring[(k + 1) % b]
        if turn(u, v, w) == 0 and (u[0] - v[0]) * (w[0] - v[0]) + (u[1] - v[1]) * (w[1] - v[1]) > 0:
            return False
    for i in range(b):
        for j in range(i + 2, b):
            if i == 0 and j == b - 1:
                continue
            if closed_segments_meet(ring[i], ring[(i + 1) % b], ring[j], ring[(j + 1) % b]):
                return False
    return True


lattice_loops = st.integers(3, 8).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n
        ),
        st.permutations(range(n)),
    )
)


lattice_points = st.tuples(st.integers(0, 3), st.integers(0, 3))


# (points, edges): few lattice points and small ids, so edges share vertex
# indices, their points coincide and some edges have zero length
lattice_edge_sets = st.integers(1, 9).flatmap(
    lambda n: st.tuples(
        st.lists(lattice_points, min_size=n, max_size=n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=24),
    )
)


# segment pairs (a, b, c, d) with a != b and c != d
lattice_segment_pairs = st.tuples(*[lattice_points] * 4).filter(
    lambda q: q[0] != q[1] and q[2] != q[3]
)


class TestClosedSegmentTest:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(lattice_segment_pairs, min_size=1, max_size=40))
    @example([((0, 0), (2, 0), (2, 0), (3, 0))])  # collinear, end to end
    @example([((1, 1), (0, 0), (2, 0), (1, 1))])  # endpoints coincide
    @example([((0, 0), (2, 0), (1, 0), (1, 2))])  # T-junction
    @example([((0, 0), (1, 0), (2, 0), (3, 0))])  # collinear, apart
    def test_matches_brute_force_oracle(self, pairs):
        cols = [np.array([pair[k][c] for pair in pairs], dtype=float) for k in range(4) for c in (0, 1)]
        hit = validity._pairs_cross(cols[:4], cols[4:], np.ones(len(pairs), dtype=bool))
        assert hit.tolist() == [closed_segments_meet(*pair) for pair in pairs]


def open_overlap(p, q, r, s):
    """Do segments pq and rs, pq of positive length, overlap over positive
    length? Exact on ints."""
    if turn(p, q, r) or turn(p, q, s):
        return False
    return any(
        max(min(p[k], q[k]), min(r[k], s[k])) < min(max(p[k], q[k]), max(r[k], s[k]))
        for k in (0, 1)
    )


def oracle_meetings(points, edges):
    """Brute-force count of the zero-length edges plus the pairs of other
    edges that meet other than at a shared vertex index: a pair with no
    common index whose closed segments meet, or a pair that shares one and
    overlaps over positive length."""
    count = sum(points[a] == points[b] for a, b in edges)
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if points[a] != points[b] and points[c] != points[d]:
            meet = closed_segments_meet if len({a, b, c, d}) == 4 else open_overlap
            count += meet(points[a], points[b], points[c], points[d])
    return count


class TestMeetings:
    """The plane test behind both 2-D certificates, against the integer
    oracle."""

    @settings(max_examples=400, deadline=None)
    @given(lattice_edge_sets)
    @example(([(0, 0), (2, 0), (1, 0)], [(0, 1), (0, 2)]))  # shared index, overlap past it
    @example(([(0, 0), (2, 0), (1, 0)], [(0, 1), (2, 0)]))  # shared index, folded back
    @example(([(0, 0), (2, 0), (1, 0), (1, 2)], [(0, 1), (2, 3)]))  # T-junction
    @example(([(0, 0), (0, 0), (1, 1)], [(0, 2), (1, 2)]))  # coincident ends, shared index
    @example(([(1, 1), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 2)]))  # zero-length edges
    @example(([(0, 0), (2, 2), (2, 0), (0, 2)], [(0, 1), (2, 3), (0, 3)]))  # proper crossing
    def test_matches_brute_force_oracle(self, case):
        points, edges = case
        got = validity._meetings(np.array(edges), np.array(points, dtype=float))
        assert got == oracle_meetings(points, edges)

    def test_blocks_cover_every_pair(self, monkeypatch):
        # 60 edges among 12 points of a 4 x 4 lattice: almost every pair of
        # boxes overlaps, so blocks of 3 pairs split rows and runs
        rng = np.random.default_rng(23)
        points = [tuple(p) for p in rng.integers(0, 4, size=(12, 2)).tolist()]
        edges = [tuple(e) for e in rng.integers(0, 12, size=(60, 2)).tolist()]
        expect = oracle_meetings(points, edges)
        monkeypatch.setattr(validity, "_PAIR_BLOCK", 3)
        assert validity._meetings(np.array(edges), np.array(points, dtype=float)) == expect
        assert expect > 100


def loop_meetings(cycle, coords):
    """The plane test of an open mesh's boundary loop: ``validity._meetings``
    on the edges of the closed polygon through ``cycle``."""
    v = np.asarray(cycle)
    return validity._meetings(np.column_stack([v, np.roll(v, -1)]), coords)


class TestLoopIsSimple:
    """The plane test on a loop's edges is 0 exactly when the loop is simple.
    Small lattice polygons, so vertices coincide, touch edges, fold back and
    lie on one line often."""

    @settings(max_examples=400, deadline=None)
    @given(lattice_loops)
    @example(([(0, 0), (2, 0), (2, 2), (0, 2)], [0, 1, 2, 3]))  # square
    @example(([(0, 0), (2, 2), (2, 0), (0, 2)], [0, 1, 2, 3]))  # bowtie
    @example(([(0, 0), (2, 0), (1, 0), (1, 2)], [0, 1, 2, 3]))  # fold back
    @example(([(0, 0), (4, 0), (4, 2), (2, 0), (0, 2)], [0, 1, 2, 3, 4]))  # T-junction
    @example(([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)], [0, 1, 2, 3, 4, 5]))  # touch
    @example(([(0, 0), (1, 0), (2, 0)], [0, 1, 2]))  # collinear triangle
    @example(([(0, 0), (1, 0), (1, 0)], [0, 1, 2]))  # zero-length edge
    @example(([(0, 0), (3, 0), (2, 1), (1, 0), (1, 2)], [0, 1, 2, 3, 4]))  # vertex on a later edge
    @example(([(1, 1), (0, 0), (2, 0), (1, 1), (3, 2), (0, 3)], [0, 1, 2, 3, 4, 5]))  # figure eight
    def test_matches_brute_force_oracle(self, loop):
        points, cycle = loop
        coords = np.array(points, dtype=float)
        assert (loop_meetings(cycle, coords) == 0) == oracle_loop_is_simple(points, cycle)

    def test_near_collinear_triangles_take_the_exact_stage(self, monkeypatch):
        # these lie within a few units in the last place of the line y = x,
        # where the float filter cannot decide them, so each triangle's plane
        # test reaches the integer stage
        made = []
        real = geometry._exact_signs

        def counting(points):
            made.extend(points.tolist())
            return real(points)

        monkeypatch.setattr(geometry, "_exact_signs", counting)
        ulp = np.spacing(0.5)
        got, want = [], []
        for i in range(-3, 4):
            for j in range(-3, 4):
                coords = np.array([[0.5 + i * ulp, 0.5 + j * ulp], [12.0, 12.0], [24.0, 24.0]])
                before = len(made)
                got.append(loop_meetings([0, 1, 2], coords) == 0)
                want.append(orient2d_rational(*coords.ravel()) != 0)
                assert len(made) > before
        assert got == want
        assert True in want and False in want

    def test_blocks_cover_every_pair(self, monkeypatch):
        # a regular 40-gon is simple; one vertex pulled onto a far edge is not
        monkeypatch.setattr(validity, "_PAIR_BLOCK", 3)
        angles = 2 * np.pi * np.arange(40) / 40
        coords = np.column_stack([np.cos(angles), np.sin(angles)])
        assert loop_meetings(range(40), coords) == 0
        coords[5] = 0.5 * (coords[24] + coords[25])
        assert loop_meetings(range(40), coords) > 0


def cell_strip(cells, moved=(), split=()):
    """Unit lattice cells (cx, cy), two counterclockwise triangles each.

    ``moved`` maps lattice points to other coordinates; ``split`` lists
    (cell, lattice point) pairs whose corner gets a vertex of its own.
    """
    index, verts, tris = {}, [], []
    moved = dict(moved)

    def vid(point, cell):
        key = (point, cell) if (cell, point) in split else point
        if key not in index:
            index[key] = len(verts)
            verts.append(moved.get(point, point))
        return index[key]

    for cx, cy in cells:
        a, b, c, d = (vid(p, (cx, cy)) for p in ((cx, cy), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)))
        tris += [(a, b, c), (a, c, d)]
    return SimplicialMesh(np.array(verts, dtype=float), np.array(tris), 2)


RING = [(1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1), (0, 0)]
HORSESHOE = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 2)]
HORSESHOE_T = cell_strip(HORSESHOE, moved=[((0, 2), (0.5, 1.0))])
COINCIDENT = cell_strip(RING[:-1], split=[((0, 1), (1, 1))])
# 4 x 4 cells around a 2 x 2 hole, with two boundary loops; its inner corner
# (1, 1) drawn across the hole, on the edge from (2, 3) to (3, 3) or at the
# vertex (3, 3), keeps one sign and crosses no edge
ANNULUS = [(x, y) for x in range(4) for y in range(4) if not (0 < x < 3 and 0 < y < 3)]
ANNULUS_T = cell_strip(ANNULUS, moved=[((1, 1), (2.5, 3.0))])
ANNULUS_COINCIDENT = cell_strip(ANNULUS, moved=[((1, 1), (3.0, 3.0))])
# a closed mesh drawn in the plane: the octahedron's outer triangle, simplex
# 0, covers its inner triangle and the six triangles between the two
OCTAHEDRON = SimplicialMesh(
    np.array([[0, 0], [4, 0], [0, 4], [1, 1], [2, 1], [1, 2]], dtype=float),
    np.array([[0, 1, 2], [3, 4, 5], [0, 1, 3], [1, 4, 3],
              [1, 2, 4], [2, 5, 4], [2, 0, 5], [0, 3, 5]]),
    2,
)


def fallback_fixtures():
    """Drawings whose audit must run the full count, with the report the
    audit gives them. The horseshoe and the coincident vertices cross no
    pair properly, but their boundary loop images are not simple, so neither
    map is injective: both are violated for that reason alone. The annulus
    has no loop to test, and the same two touches, a T-junction and two
    vertices drawn at one point, make it violated for the edges that touch
    instead."""
    certified = {
        "crossing_count": 0,
        "crossing_pairs": [],
        "max_convex_residual": None,
        "hull_violation": None,
        "verdict": "injective-certified",
        "reasons": [],
        "outer_simplex": None,
    }
    reflex = {"convex": False, "worst": -1.0}
    not_simple = {"verdict": "violated", "reasons": ["boundary loop image is not simple"]}

    def counts(pos):
        return {"positive": pos, "negative": 0, "near_zero": 0}

    def touching(n):
        return {"verdict": "violated", "reasons": [f"{n} touching edge pair(s)"]}

    return {
        # the tip of one arm lies on a boundary edge of the other: a T-junction
        "horseshoe": (
            HORSESHOE_T,
            {**certified, **not_simple, "orientation_counts": counts(14),
             "boundary_convexity": {**reflex, "reflex_vertex": 9}},
        ),
        # the two arms meet at (1, 1) through two distinct vertices
        "coincident-vertices": (
            COINCIDENT,
            {**certified, **not_simple, "orientation_counts": counts(14),
             "boundary_convexity": {**reflex, "reflex_vertex": 10}},
        ),
        # the moved vertex's 5 edges each touch the edge it lies on
        "annulus-t-junction": (
            ANNULUS_T,
            {**certified, **touching(5), "orientation_counts": counts(24),
             "boundary_convexity": None},
        ),
        # the 5 edges of each of the two vertices at (3, 3) touch in pairs
        "annulus-coincident-vertices": (
            ANNULUS_COINCIDENT,
            {**certified, **touching(25), "orientation_counts": counts(24),
             "boundary_convexity": None},
        ),
        # a fan around vertex 0 whose last boundary edge folds back onto its first
        "collinear-adjacent": (
            SimplicialMesh(
                np.array([[0, 0], [2, 0], [0, 1], [-1, 0], [0, -1], [1, 0]], dtype=float),
                np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]]),
                2,
            ),
            {**certified, "crossing_count": 1, "crossing_pairs": [[0, 4]],
             "orientation_counts": counts(4),
             "boundary_convexity": {"convex": True, "worst": -0.0, "reflex_vertex": None},
             "verdict": "violated",
             "reasons": ["1 edge crossing(s)", "boundary loop image is not simple"]},
        ),
        "annulus": (
            cell_strip(RING),
            {**certified, "orientation_counts": counts(16), "boundary_convexity": None},
        ),
        # an open mesh has no outer simplex: all 18 triangles are audited
        "open-mesh-seed": (
            grid_mesh(4, 4),
            {**certified, "orientation_counts": counts(18),
             "boundary_convexity": {"convex": True, "worst": 0.0, "reflex_vertex": None}},
        ),
    }


@pytest.fixture
def full_counts(monkeypatch):
    """Record each call of the full crossing count that audit makes."""
    calls = []

    def spy(edges, coords):
        calls.append(len(edges))
        return count_crossings(edges, coords)

    monkeypatch.setattr(validity, "count_crossings", spy)
    return calls


@pytest.fixture
def plane_tests(monkeypatch):
    """Record the edge count of each plane test (validity._meetings)."""
    calls = []
    real = validity._meetings

    def spy(edges, coords):
        calls.append(len(edges))
        return real(edges, coords)

    monkeypatch.setattr(validity, "_meetings", spy)
    return calls


def certifying_loop(mesh, outer):
    """The one loop bounding the audited triangles: an open mesh's single
    boundary cycle, or a closed mesh's outer triangle; else None."""
    cycles = detect_boundary(mesh).boundary_cycles
    if not cycles:
        return None if outer is None else mesh.simplices[outer].tolist()
    return cycles[0] if len(cycles) == 1 else None


def outer_of(signs, closed):
    """The outer simplex by the rule of the audit, from each simplex's
    oriented sign (0 for near zero): on a closed mesh, the one simplex of
    the minority sign when the other sign has more than one; else None."""
    signs = np.asarray(signs)
    pos, neg = np.count_nonzero(signs > 0), np.count_nonzero(signs < 0)
    if not closed or min(pos, neg) != 1 or max(pos, neg) == 1:
        return None
    return int(np.flatnonzero(signs == (1 if pos == 1 else -1))[0])


def assert_matches_full_count(report, mesh, coords):
    """The report's crossings and verdict are those of the full count plus
    the orientation gate, and a certifying loop whose image is not simple
    makes it violated: an injective map keeps that loop simple. The outer
    simplex, found on a closed mesh only, is left out of the orientation
    gate. A one-signed drawing with no loop to test and no crossing is
    violated when two edges with no common vertex touch."""
    full = count_crossings(mesh_edges(mesh), coords)
    closed = not detect_boundary(mesh).boundary_cycles
    counts = orientation_histogram(mesh, coords)
    outer = outer_of(counts.signs, closed)
    pos, neg, zero = counts
    if outer is not None:
        pos, neg = (0, neg) if pos == 1 else (pos, 0)
    one_sign = zero == 0 and (pos > 0) != (neg > 0)
    loop = certifying_loop(mesh, outer)
    exact_points = [tuple(map(Fraction, p)) for p in np.asarray(coords).tolist()]
    simple = loop is None or oracle_loop_is_simple(exact_points, loop)
    touches = 0
    if one_sign and loop is None and full.count == 0:
        # with no crossing, every meeting is a touch
        touches = oracle_meetings(exact_points, mesh_edges(mesh).tolist())
    certified = full.count == 0 and one_sign and simple and touches == 0
    assert report.crossing_count == full.count
    assert report.crossing_pairs == full.pairs
    assert report.orientation_counts == (pos, neg, zero)
    assert report.outer_simplex == outer
    assert report.verdict == ("injective-certified" if certified else "violated")
    assert (f"{touches} touching edge pair(s)" in report.reasons) == (touches > 0)


_EMBEDDED = {}


def embedded(kind, resolution):
    """A generated mesh and its fplm embedding."""
    if (kind, resolution) not in _EMBEDDED:
        mesh, _ = generate(GeneratorSpec(kind, resolution))
        _EMBEDDED[kind, resolution] = (mesh, run_fplm(mesh))
    return _EMBEDDED[kind, resolution]


EMBEDDED_CASES = [("grid-disk", (6, 6)), ("paraboloid", (8, 7)), ("sphere", (1,)), ("sphere", (2,))]


class TestBoundaryCertificate:
    """audit decides a one-signed 2-D drawing on its boundary loop alone (the
    degree theorem) and must agree with the full crossing count."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 40),
        st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]),
    )
    def test_perturbed_delaunay_disks_match_full_count(self, seed, n, amplitude):
        rng = np.random.default_rng(seed)
        radius, angle = np.sqrt(rng.uniform(size=n)), rng.uniform(0, 2 * np.pi, n)
        pts = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        mesh = SimplicialMesh(pts, delaunay2d(pts), 2)
        coords = pts + amplitude / np.sqrt(n) * rng.normal(size=pts.shape)
        assert_matches_full_count(audit(mesh, coords), mesh, coords)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(EMBEDDED_CASES),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e-3, 0.03, 0.3]),
    )
    def test_fplm_embeddings_match_full_count(self, case, seed, amplitude):
        mesh, emb = embedded(*case)
        report = audit(mesh, emb)
        assert_matches_full_count(report, mesh, emb.coords)
        closed = detect_boundary(mesh).boundary_vertices.size == 0
        assert report.outer_simplex == (emb.seed_simplex if closed else None)
        rng = np.random.default_rng(seed)
        coords = emb.coords + amplitude * rng.normal(size=emb.coords.shape) / np.sqrt(mesh.n_vertices)
        assert_matches_full_count(audit(mesh, coords), mesh, coords)

    @pytest.mark.parametrize("case", EMBEDDED_CASES, ids=lambda c: f"{c[0]}-{c[1][0]}")
    def test_certified_embeddings_skip_the_full_count(self, case, full_counts):
        mesh, emb = embedded(*case)
        report = audit(mesh, emb, graph=build_weights(mesh))
        assert report.verdict == "injective-certified"
        assert full_counts == []
        assert_matches_full_count(report, mesh, emb.coords)

    def test_closed_sphere_bare_seed_exclude_matches_embedding_route(self, full_counts):
        mesh, emb = embedded("sphere", (2,))
        via_embedding = audit(mesh, emb)
        bare = audit(mesh, emb.coords)
        assert full_counts == []
        for key in ("crossing_count", "crossing_pairs", "orientation_counts", "verdict",
                    "reasons", "outer_simplex"):
            assert getattr(bare, key) == getattr(via_embedding, key)
        assert bare.verdict == "injective-certified"
        assert bare.outer_simplex == emb.seed_simplex

    @pytest.mark.parametrize("name", sorted(fallback_fixtures()))
    def test_fallback_fixtures_keep_the_full_count_report(self, name, full_counts, plane_tests):
        mesh, expect = fallback_fixtures()[name]
        report = audit(mesh, mesh.vertices)
        # one plane test, of the loop or, with no loop, of every edge; the
        # full count runs only for the report of a drawing that fails it
        loop = certifying_loop(mesh, None)
        n_edges = mesh_edges(mesh).shape[0]
        assert plane_tests == [n_edges if loop is None else len(loop)]
        certified = expect["verdict"] == "injective-certified"
        assert full_counts == ([] if certified else [n_edges])
        assert report.to_dict() == expect

    def test_agreeing_near_zero_signs_skip_the_full_count(self, full_counts):
        # round 2 leaves 2 near-zero images at this size, each of exact sign
        # +1 like all the others: violated, yet no edges cross
        mesh, emb = embedded("paraboloid", (150, 150))
        report = audit(mesh, emb)
        assert full_counts == []
        assert report.orientation_counts[1:] == (0, 2)
        full = count_crossings(mesh_edges(mesh), emb.coords)
        assert (report.crossing_count, report.crossing_pairs) == (full.count, full.pairs) == (0, ())
        assert report.verdict == "violated"
        assert report.reasons == ("2 near-degenerate simplex image(s)",)

    @pytest.mark.parametrize(
        "lift, calls, crossings", [(1e-13, 0, 0), (-1e-13, 1, 2)], ids=["agrees", "flipped"]
    )
    def test_near_zero_sign_decides_the_full_count(self, full_counts, lift, calls, crossings):
        # a square fanned from its centre, which sits 1e-13 above or below
        # the bottom edge: a near-zero image of exact sign +1 or -1
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, lift]])
        mesh = SimplicialMesh(verts, np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]), 2)
        report = audit(mesh, verts)
        assert len(full_counts) == calls
        assert report.verdict == "violated"
        assert report.crossing_count == crossings
        assert_matches_full_count(report, mesh, verts)

    @pytest.mark.parametrize("collapse", ["collinear", "coincident"])
    def test_degenerate_seed_image_matches_full_count(self, collapse, full_counts):
        # the seed triangle's image is not a simple loop: the third seed
        # vertex moved onto the midpoint of the other two, or onto the first.
        # A flat image has no sign, so no outer simplex is found
        mesh, emb = embedded("sphere", (1,))
        a, b, c = mesh.simplices[emb.seed_simplex]
        coords = emb.coords.copy()
        coords[c] = 0.5 * (coords[a] + coords[b]) if collapse == "collinear" else coords[a]
        assert loop_meetings([a, b, c], coords) > 0
        report = audit(mesh, coords)
        assert full_counts == [mesh_edges(mesh).shape[0]]
        assert report.verdict == "violated"
        assert report.outer_simplex is None
        assert_matches_full_count(report, mesh, coords)


CLOSED_MESHES = {"octahedron": OCTAHEDRON, "icosphere-0": icosphere(0), "icosphere-1": icosphere(1)}


@st.composite
def closed_lattice_drawings(draw):
    """A small closed mesh with its vertices and triangles relabelled, fplm's
    own map of it pinning a drawn triangle, rounded to a lattice of spacing
    1 / k, and the pinned triangle. Up to two moves follow: a vertex put on
    an edge's midpoint, two vertices merged, or a few vertices moved by
    lattice steps. Coarse lattices flatten and fold triangles, so every sign
    pattern occurs."""
    base = CLOSED_MESHES[draw(st.sampled_from(sorted(CLOSED_MESHES)))]
    mesh = relabel(base, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    triangle = st.integers(0, mesh.n_simplices - 1)
    pinned = draw(triangle)
    k = draw(st.sampled_from([64, 16, 4, 2, 1]))
    coords = np.round(k * run_fplm(mesh, seed_simplex=pinned).coords)
    vertex = st.integers(0, mesh.n_vertices - 1)
    moves = st.lists(st.sampled_from(["t-junction", "merge", "perturb"]), max_size=2)
    for move in draw(st.one_of(st.just([]), moves)):
        if move == "t-junction":
            a, b = draw(st.sampled_from(mesh_edges(mesh).tolist()))
            coords[draw(vertex.filter(lambda v: v not in (a, b)))] = 0.5 * (coords[a] + coords[b])
        elif move == "merge":
            coords[draw(vertex)] = coords[draw(vertex)]
        else:
            for v in draw(st.lists(vertex, min_size=1, max_size=3, unique=True)):
                coords[v] += draw(st.tuples(*[st.integers(-2, 2)] * 2))
    return mesh, coords, pinned


def oracle_closed_report(mesh, points):
    """Orientation counts, outer simplex, crossing pairs, verdict and
    reasons of a closed mesh's drawing from the brute-force oracles alone:
    rational signs, the outer simplex by the audit's rule, the integer
    crossing pairs, and the outer loop's simplicity when the other
    triangles share one sign. On a lattice no image is near zero unless it
    is flat."""
    sign = canonical_orientation(mesh)
    exact = [sign[m] * simplex_orientation_rational([points[v] for v in t])
             for m, t in enumerate(mesh.simplices.tolist())]
    outer = outer_of(exact, closed=True)
    if outer is not None:
        del exact[outer]
    pos, neg, zero = exact.count(1), exact.count(-1), exact.count(0)
    one_sign = zero == 0 and (pos > 0) != (neg > 0)
    # with no outer simplex the other triangles cannot share one sign: the
    # signed areas sum to 0
    simple = not one_sign or oracle_loop_is_simple(points, mesh.simplices[outer].tolist())
    pairs = tuple(sorted(oracle_crossing_pairs(points, mesh_edges(mesh).tolist())))
    reasons = [f"{len(pairs)} edge crossing(s)"] if pairs else []
    if not simple:
        reasons.append("boundary loop image is not simple")
    if zero:
        reasons.append(f"{zero} near-degenerate simplex image(s)")
    if pos and neg:
        reasons.append(f"mixed orientations: {pos} positive vs {neg} negative")
    certified = one_sign and simple and not pairs
    verdict = "injective-certified" if certified else "violated"
    return (pos, neg, zero), outer, pairs, verdict, reasons


class TestClosedMeshLoop:
    """A closed mesh needs no test of its outer loop: over a closed,
    consistently oriented surface the exact signed areas of the triangle
    images sum to 0, so when the other triangles share one nonzero sign the
    outer image has the other sign and is a simple loop."""

    @settings(max_examples=120, deadline=None)
    @given(closed_lattice_drawings())
    def test_seed_sign_follows_from_the_others(self, drawing):
        mesh, coords, seed = drawing
        # one common denominator scales the lattice to ints, which keeps
        # every sign and is much faster than Fractions
        values = [Fraction(x) for x in coords.ravel().tolist()]
        den = math.lcm(*(v.denominator for v in values))
        points = list(zip(*[iter(int(v * den) for v in values)] * 2))
        sign = canonical_orientation(mesh)
        areas = [sign[m] * det_rational([[q - p for q, p in zip(points[v], points[t[0]])] for v in t[1:]])
                 for m, t in enumerate(mesh.simplices.tolist())]
        assert sum(areas) == 0
        report = audit(mesh, coords)
        others = {(a > 0) - (a < 0) for m, a in enumerate(areas) if m != seed}
        if others in ({1}, {-1}):
            seed_sign = (areas[seed] > 0) - (areas[seed] < 0)
            assert seed_sign == -others.pop()
            a, b, c = mesh.simplices[seed].tolist()
            assert oracle_meetings(points, [(a, b), (b, c), (c, a)]) == 0
            # so the pinned seed is the one simplex of the minority sign
            assert report.outer_simplex == seed

        counts, outer, pairs, verdict, reasons = oracle_closed_report(mesh, points)
        assert (report.orientation_counts, report.outer_simplex) == (counts, outer)
        assert report.crossing_pairs == pairs
        assert report.crossing_count == len(pairs)
        assert (report.verdict, list(report.reasons)) == (verdict, reasons)
        if verdict == "injective-certified":
            kept = [t for m, t in enumerate(mesh.simplices.tolist()) if m != outer]
            assert image_overlaps(coords, kept) == []

    @pytest.mark.parametrize("mesh", [OCTAHEDRON, icosphere(1), icosphere(3)],
                             ids=["octahedron", "icosphere-1", "icosphere-3"])
    def test_certified_closed_mesh_does_no_loop_work(self, mesh, full_counts, plane_tests,
                                                     monkeypatch):
        # no plane test, no full count and no exact sign of the outer
        # simplex: the float filter decides every other image here, so no
        # row at all reaches the integer stage
        exact_rows = []
        real = validity.exact_orientations

        def spy(coords, simplices):
            exact_rows.append(len(simplices))
            return real(coords, simplices)

        monkeypatch.setattr(validity, "exact_orientations", spy)
        seed = 0 if mesh is OCTAHEDRON else 5
        coords = mesh.vertices if mesh is OCTAHEDRON else run_fplm(mesh, seed_simplex=seed).coords
        report = audit(mesh, coords)
        assert (report.verdict, report.outer_simplex) == ("injective-certified", seed)
        assert (full_counts, plane_tests, exact_rows) == ([], [], [])


def image_overlaps(coords, triangles):
    """Brute-force injectivity oracle, exact in integers: the flat triangle
    images, the pairs of triangle images whose interiors overlap, and the
    vertex images that lie in the closed image of a triangle the vertex does
    not belong to. Each coordinate is a Fraction; one common denominator
    turns them all into ints."""
    values = [Fraction(x) for x in np.asarray(coords).ravel().tolist()]
    den = math.lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    pts = list(zip(ints[0::2], ints[1::2]))
    problems, ccw = [], []
    for t in triangles:
        s = turn(*(pts[v] for v in t))
        if s == 0:
            problems.append(("flat", t))
        else:
            ccw.append(t if s > 0 else [t[0], t[2], t[1]])

    def sides(t, q):  # turns of q against the three edges of ccw triangle t
        return [turn(pts[t[k]], pts[t[(k + 1) % 3]], q) for k in range(3)]

    for t in ccw:
        for v in sorted({v for u in ccw for v in u} - set(t)):
            if min(sides(t, pts[v])) >= 0:
                problems.append(("vertex", v, t))
    for t, u in itertools.combinations(ccw, 2):
        # convex interiors are disjoint exactly when a line through an edge
        # of one has the other on its closed outer side
        apart = any(all(sides(a, pts[v])[k] <= 0 for v in b) for a, b in ((t, u), (u, t)) for k in range(3))
        if not apart:
            problems.append(("overlap", t, u))
    return problems


@st.composite
def lattice_drawings(draw):
    """A small lattice mesh (a grid disk, an annulus, a horseshoe or the
    closed octahedron) and a drawing of it made by up to two moves (a fold,
    a T-junction, a merge of two vertices, small lattice perturbations). The
    lattice spacing is 4, so midpoints stay on a fine lattice."""
    shape = draw(st.sampled_from(["disk", "annulus", "horseshoe", "octahedron"]))
    if shape == "octahedron":
        mesh, width = OCTAHEDRON, 4
    elif shape == "disk":
        width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        mesh = cell_strip([(x, y) for x in range(width) for y in range(height)])
    else:
        width = draw(st.integers(3, 4))
        cells = [(x, y) for x in range(width) for y in range(width)
                 if x in (0, width - 1) or y in (0, width - 1)]
        if shape == "horseshoe":
            cells.remove((0, draw(st.integers(1, width - 2))))
        mesh = cell_strip(cells)
    coords = 4.0 * mesh.vertices
    edges = mesh_edges(mesh).tolist()
    vertex = st.integers(0, mesh.n_vertices - 1)
    moves = st.sampled_from(["fold", "t-junction", "merge", "perturb"])
    for move in draw(st.lists(moves, max_size=2)):
        if move == "fold":
            # the part right of x = c reflected onto its left
            c = draw(st.integers(0, 4 * width))
            coords[:, 0] = np.where(coords[:, 0] > c, 2 * c - coords[:, 0], coords[:, 0])
        elif move == "t-junction":
            a, b = draw(st.sampled_from(edges))
            v = draw(vertex.filter(lambda v: v not in (a, b)))
            coords[v] = 0.5 * (coords[a] + coords[b])
        elif move == "merge":
            coords[draw(vertex)] = coords[draw(vertex)]
        else:
            moved = draw(st.lists(vertex, min_size=1, unique=True))
            offsets = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 2),
                                    min_size=len(moved), max_size=len(moved)))
            coords[moved] += offsets
    return mesh, coords


class TestExactOracle:
    """injective-certified means injective: on small lattice drawings an
    exact brute-force oracle finds no overlap in a certified drawing."""

    @settings(max_examples=300, deadline=None)
    @given(lattice_drawings())
    # no loop to test, and a vertex drawn on an edge across the hole
    @example((ANNULUS_T, ANNULUS_T.vertices))
    # the closed mesh drawn with its outer triangle around the rest: certified
    @example((OCTAHEDRON, OCTAHEDRON.vertices))
    def test_certified_drawings_have_no_overlap(self, drawing):
        mesh, coords = drawing
        report = audit(mesh, coords)
        if report.verdict == "injective-certified":
            kept = [t for k, t in enumerate(mesh.simplices.tolist()) if k != report.outer_simplex]
            assert image_overlaps(coords, kept) == []


def centred_grid(scale):
    """The 3x3 grid over [-scale, scale]^2 drawn as itself: injective."""
    xs = np.array([[x, y] for y in (-1.0, 0.0, 1.0) for x in (-1.0, 0.0, 1.0)])
    return SimplicialMesh(xs * scale, structured_grid_triangles(3, 3), 2)


class TestLargeCoordinates:
    """A near-zero band of tol x diameter^d needs diameter^d to be a finite
    double; past that the audit refuses the drawing instead of judging it
    against an infinite band."""

    @pytest.mark.parametrize("mesh", [
        SimplicialMesh(ball3(2).vertices * 1e100, ball3(2).simplices, 3),
        centred_grid(1e153),
    ], ids=["ball3-1e100", "grid-1e153"])
    def test_large_but_finite_power_certifies(self, mesh):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = audit(mesh, mesh.vertices)
        assert report.verdict == "injective-certified"

    @pytest.mark.parametrize("mesh, d", [
        # diameter 3.5e103: its cube overflows, the diameter does not
        (SimplicialMesh(ball3(2).vertices * 1e103, ball3(2).simplices, 3), 3),
        # the norm of the spans overflows: the diameter is inf
        (centred_grid(1e154), 2),
        (SimplicialMesh(ball3(2).vertices * 1e160, ball3(2).simplices, 3), 3),
    ], ids=["ball3-1e103", "grid-1e154", "ball3-1e160"])
    def test_overflowing_power_is_refused(self, mesh, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"diameter \S+ to the power d = {d} is not a finite"):
                audit(mesh, mesh.vertices)
