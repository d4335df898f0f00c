"""Validity auditor tests: crossings, orientation, hull, convexity."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fplm.generators import ball3, icosphere, structured_grid_triangles
from fplm.geometry import simplex_orientation
from fplm.laplacian import build_weights
from fplm.mapping import FixedPointSet, run_fplm
from fplm.simplicial import SimplicialMesh, detect_boundary
from fplm.validity import (
    _HULL_BLOCK,
    audit,
    check_boundary_convexity,
    check_hull_containment,
    convex_combination_residual,
    count_crossings,
    crossing_locations,
    orientation_histogram,
)
from fplm.simplicial import canonical_orientation


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


class TestCrossingLocations:
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

    def test_exclude_skips_simplices(self):
        mesh = grid_mesh(3, 3)
        full = orientation_histogram(mesh, mesh.vertices)
        part = orientation_histogram(mesh, mesh.vertices, exclude=[0, 1])
        assert sum(part) == sum(full) - 2

    def test_shape_mismatch_rejected(self):
        mesh = grid_mesh(3, 3)
        with pytest.raises(ValueError, match="coords"):
            orientation_histogram(mesh, np.zeros((4, 2)))

    @pytest.mark.parametrize("mesh", [grid_mesh(6, 5), ball3(3)], ids=["d2", "d3"])
    def test_matches_per_simplex_scalar_loop(self, mesh):
        # reference: the scalar predicate on one simplex at a time
        rng = np.random.default_rng(mesh.intrinsic_dim)
        coords = np.asarray(mesh.vertices) + rng.normal(0, 0.15, mesh.vertices.shape)
        coords[mesh.simplices[3]] = coords[mesh.simplices[3, 0]]  # collapse one
        exclude = [0, 5]
        threshold = 1e-12 * np.linalg.norm(np.ptp(coords, axis=0)) ** mesh.intrinsic_dim
        sign = canonical_orientation(mesh)
        want = [0, 0, 0]
        for m, simplex in enumerate(mesh.simplices):
            if m in exclude:
                continue
            pts = coords[simplex]
            vol = np.linalg.det(pts[1:] - pts[0])
            s = 0 if abs(vol) < threshold else sign[m] * simplex_orientation(pts)
            want[0 if s > 0 else 1 if s < 0 else 2] += 1
        got = orientation_histogram(mesh, coords, exclude=exclude)
        assert got == tuple(want)
        assert got[0] and got[1] and got[2]


class TestHullContainment:
    def square_fps(self):
        return FixedPointSet(
            indices=np.array([0, 1, 2, 3]),
            targets=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
            kind="inner-boundary",
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

    def test_degenerate_targets_rejected(self):
        fps = FixedPointSet(
            indices=np.array([0, 1, 2]),
            targets=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
            kind="inner-boundary",
        )
        with pytest.raises(ValueError, match="degenerate"):
            check_hull_containment(fps, np.zeros((4, 2)), [3])

    def test_three_dimensional_tet(self):
        fps = FixedPointSet(
            indices=np.arange(4),
            targets=np.array(
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
            ),
            kind="selected-simplex",
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
        n_free = 5 * _HULL_BLOCK + int(rng.integers(1, _HULL_BLOCK))
        fps = FixedPointSet(
            indices=np.arange(n_fixed),
            targets=rng.normal(size=(n_fixed, d)),
            kind="inner-boundary",
        )
        equations = ConvexHull(fps.targets).equations
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

    def test_bare_coords_seed_exclude_matches(self):
        mesh = icosphere(1)
        emb = run_fplm(mesh)
        auto = audit(mesh, emb)
        manual = audit(mesh, emb.coords, seed_exclude=emb.seed_simplex)
        assert manual.orientation_counts == auto.orientation_counts
        assert manual.verdict == auto.verdict

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
