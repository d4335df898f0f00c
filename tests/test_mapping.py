"""Mapping pipeline tests: targets, seed choice, rounds, branches."""

import math
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from fplm import solver
from fplm.generators import ball3, icosphere, structured_grid_triangles
from fplm.laplacian import assemble_system, build_weights
from fplm.mapping import (
    FixedPointSet,
    make_c1,
    make_regular_polygon,
    regular_simplex,
    run_fplm,
    select_seed_simplex,
    solve_fixed_point,
)
from fplm.simplicial import (
    SimplicialMesh,
    detect_boundary,
    detect_dividing_simplices,
    mesh_edges,
    validate_mesh,
)
from orientation_oracle import simplex_orientation_rational
from test_simplicial import mobius_strip


def grid_mesh(nx, ny):
    xs, ys = np.meshgrid(np.linspace(0, 1, nx), np.linspace(0, 1, ny))
    verts = np.column_stack([xs.ravel(), ys.ravel()])
    return SimplicialMesh(verts, structured_grid_triangles(nx, ny), 2)


def wheel_mesh(p=5):
    ang = np.arange(p) * 2 * np.pi / p
    rim = np.column_stack([np.cos(ang), np.sin(ang)])
    verts = np.vstack([rim, [[0.0, 0.0]]])
    simp = np.array([[i, (i + 1) % p, p] for i in range(p)])
    return SimplicialMesh(verts, simp, 2)


def two_triangles():
    return SimplicialMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.array([[0, 1, 2], [1, 3, 2]]),
        2,
    )


def islands():
    """A grid plus a closed sphere that no boundary vertex reaches (its
    vertices sit at depth n + 1)."""
    grid = grid_mesh(4, 4)
    sphere = icosphere(0)
    vertices = np.vstack([np.column_stack([grid.vertices, np.zeros(16)]), sphere.vertices + 5.0])
    simplices = np.vstack([grid.simplices, sphere.simplices + grid.n_vertices])
    return SimplicialMesh(vertices, simplices, 2)


class TestRegularSimplex:
    def test_d2_angles(self):
        verts = regular_simplex(2)
        ang = np.degrees(np.arctan2(verts[:, 1], verts[:, 0])) % 360
        np.testing.assert_allclose(sorted(ang), [90, 210, 330], atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(verts, axis=1), 1.0, rtol=1e-15)

    def test_d3_unit_circumradius(self):
        verts = regular_simplex(3)
        np.testing.assert_allclose(np.linalg.norm(verts, axis=1), 1.0, rtol=1e-15)
        np.testing.assert_allclose(verts.mean(axis=0), 0.0, atol=1e-16)

    @pytest.mark.parametrize("d", [2, 3])
    def test_equidistant_unit_circumradius(self, d):
        verts = regular_simplex(d)
        assert verts.shape == (d + 1, d)
        np.testing.assert_allclose(np.linalg.norm(verts, axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(verts.mean(axis=0), 0.0, atol=1e-14)
        dists = [
            np.linalg.norm(verts[i] - verts[j])
            for i in range(d + 1)
            for j in range(i + 1, d + 1)
        ]
        np.testing.assert_allclose(dists, dists[0], rtol=1e-12)

    def test_nondegenerate(self):
        for d in (2, 3):
            verts = regular_simplex(d)
            assert abs(simplex_orientation_rational(verts.tolist())) == 1

    @pytest.mark.parametrize("d", [0, 1, 4, 5, 7])
    def test_other_dimensions_rejected(self, d):
        # meshes are triangles or tetrahedra, so no seed needs another d
        with pytest.raises(ValueError, match=f"^regular simplex is defined for d = 2 or 3, got {d}$"):
            regular_simplex(d)


class TestSelectSeedSimplex:
    def test_index_strategy(self):
        # an explicit seed is pinned as given and range-checked by make_c1
        mesh = grid_mesh(3, 3)
        assert run_fplm(mesh, seed_simplex=5).seed_simplex == 5
        for bad in (-1, mesh.n_simplices):
            with pytest.raises(ValueError, match=rf"seed simplex {bad} out of range \[0, 8\)"):
                run_fplm(mesh, seed_simplex=bad)

    @pytest.mark.parametrize("bad", [1.0, 1.5, True, np.float64(2.0)])
    def test_non_integer_seed_rejected(self, bad):
        # 1.0 used to fail as numpy's IndexError, and True as a mismatch of
        # indices and targets; neither is a simplex index
        dtype = np.asarray(bad).dtype
        with pytest.raises(ValueError, match=f"^seed_simplex must be an integer, "
                                             f"got dtype {dtype}$"):
            run_fplm(grid_mesh(3, 3), seed_simplex=bad)

    @pytest.mark.parametrize("bad", [[3], [1, 2], np.array([[2]])], ids=["[3]", "[1, 2]", "[[2]]"])
    def test_non_scalar_seed_rejected(self, bad):
        # numpy's scalar conversion used to raise TypeError here
        shape = re.escape(str(np.shape(bad)))
        with pytest.raises(ValueError, match=f"^seed_simplex must be one integer, got shape {shape}$"):
            run_fplm(grid_mesh(3, 3), seed_simplex=bad)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint32])
    def test_numpy_integer_seed_is_taken(self, dtype):
        emb = run_fplm(grid_mesh(3, 3), seed_simplex=dtype(5))
        assert type(emb.seed_simplex) is int and emb.seed_simplex == 5

    def test_unsigned_seed_past_int64_is_named(self):
        # a cast would wrap 2**63 + 5 to a negative simplex index
        with pytest.raises(ValueError, match=rf"^seed_simplex must fit in int64, "
                                             rf"got {2**63 + 5}$"):
            run_fplm(grid_mesh(3, 3), seed_simplex=np.uint64(2**63 + 5))

    def test_most_interior_matches_bfs_oracle(self):
        # independent oracle: unweighted shortest paths from the boundary,
        # score each simplex by its shallowest vertex, first argmax wins
        mesh = grid_mesh(4, 4)
        picked = select_seed_simplex(mesh)
        adj = build_weights(mesh).adjacency.copy()
        adj.data[:] = 1.0
        dist = shortest_path(adj, unweighted=True)
        bverts = detect_boundary(mesh).boundary_vertices
        depth = dist[:, bverts].min(axis=1)
        score = depth[mesh.simplices].min(axis=1)
        assert picked == int(np.argmax(score))
        assert score[picked] == score.max() > 0

    def test_closed_mesh_picks_zero(self):
        assert select_seed_simplex(icosphere(1)) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(["grid", "ball", "islands"]),
        st.integers(0, 2**32 - 1),
    )
    def test_most_interior_matches_scalar_bfs(self, name, seed):
        mesh = {
            "grid": grid_mesh(7, 6),
            "ball": ball3(3),
            "islands": islands(),
        }[name]
        rng = np.random.default_rng(seed)
        new_id = rng.permutation(mesh.n_vertices)
        vertices = np.empty_like(mesh.vertices)
        vertices[new_id] = mesh.vertices
        simplices = new_id[mesh.simplices][rng.permutation(mesh.n_simplices)]
        mesh = SimplicialMesh(vertices, simplices, mesh.intrinsic_dim)

        # scalar oracle: multi-source breadth-first search from the boundary
        n = mesh.n_vertices
        neighbors = [[] for _ in range(n)]
        for u, v in mesh_edges(mesh).tolist():
            neighbors[u].append(v)
            neighbors[v].append(u)
        depth = [n + 1] * n
        queue = deque(detect_boundary(mesh).boundary_vertices.tolist())
        for v in queue:
            depth[v] = 0
        while queue:
            cur = queue.popleft()
            for nxt in neighbors[cur]:
                if depth[nxt] == n + 1:
                    depth[nxt] = depth[cur] + 1
                    queue.append(nxt)
        scores = [min(depth[v] for v in simplex) for simplex in mesh.simplices.tolist()]
        assert select_seed_simplex(mesh) == scores.index(max(scores))


class TestFixedPointSet:
    def test_make_c1_sorted_indices(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        mesh = SimplicialMesh(verts, np.array([[2, 0, 1]]), 2)
        fps = make_c1(mesh, 0)
        assert fps.indices.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(fps.targets, regular_simplex(2))

    def test_make_c1_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_c1(two_triangles(), 2)

    @pytest.mark.parametrize("bad", [1.5, True, np.float64(0.0), [0]],
                             ids=["fractional", "bool", "integral-float", "list"])
    def test_make_c1_takes_one_integer_id(self, bad):
        # 1.5 and 0.0 used to fail as numpy's IndexError, True as a mismatch
        # of indices and targets, and [0] as a TypeError of the range check
        shape = np.shape(bad)
        what = f"got shape {shape}" if shape else f"got dtype {np.asarray(bad).dtype}"
        with pytest.raises(ValueError, match=rf"^seed simplex must be .*{re.escape(what)}$"):
            make_c1(two_triangles(), bad)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="disagree"):
            FixedPointSet(
                indices=np.array([0, 1]),
                targets=np.zeros((3, 2)),
            )
        with pytest.raises(ValueError, match="duplicate"):
            FixedPointSet(
                indices=np.array([0, 1, 1]),
                targets=np.zeros((3, 2)),
            )
        with pytest.raises(ValueError, match="at least"):
            FixedPointSet(
                indices=np.array([0, 1]),
                targets=np.zeros((2, 2)),
            )

    @pytest.mark.parametrize("indices", [[0.5, 1.9, 2.2], np.array([0.0, 1.0, 2.0]),
                                         np.array([True, True, False, True])],
                             ids=["fractional", "integral-floats", "bool-mask"])
    def test_non_integer_indices_rejected(self, indices):
        # a cast would store [0, 1, 2] for the fractions, and read the mask
        # as vertices 1, 1, 0, 1
        dtype = np.asarray(indices).dtype
        with pytest.raises(ValueError, match=f"must be integers, got dtype {dtype}"):
            FixedPointSet(indices=indices, targets=np.zeros((len(indices), 2)))

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint16, np.uint64])
    def test_integer_indices_of_any_width(self, dtype):
        fps = FixedPointSet(indices=np.array([4, 0, 7], dtype=dtype),
                            targets=np.zeros((3, 2)))
        assert fps.indices.dtype == np.int64
        assert fps.indices.tolist() == [4, 0, 7]


class TestMakeRegularPolygon:
    def test_square_targets_on_unit_circle(self):
        mesh = two_triangles()
        fps = make_regular_polygon(mesh)
        assert fps.indices.shape == (4,)
        np.testing.assert_allclose(
            np.linalg.norm(fps.targets, axis=1), 1.0, rtol=1e-15
        )
        # consecutive corners must step by a quarter turn
        np.testing.assert_allclose(fps.targets[0], [1.0, 0.0], atol=1e-15)
        ang = np.arctan2(fps.targets[:, 1], fps.targets[:, 0])
        steps = np.diff(np.unwrap(ang))
        np.testing.assert_allclose(steps, np.pi / 2, rtol=1e-12)

    def test_ccw_matches_canonical_orientation(self):
        # walking the target polygon in cycle order must enclose positive
        # area so triangles keep positive orientation
        mesh = two_triangles()
        fps = make_regular_polygon(mesh)
        t = fps.targets
        area2 = np.sum(t[:, 0] * np.roll(t[:, 1], -1) - np.roll(t[:, 0], -1) * t[:, 1])
        assert area2 > 0

    def test_closed_mesh_rejected(self):
        with pytest.raises(ValueError, match="no boundary"):
            make_regular_polygon(icosphere(0))


class TestSolveFixedPoint:
    def test_wheel_hub_lands_at_centroid(self):
        # unit-radius rim, hub at center: every spoke has length 1, so all
        # spoke weights are equal and the free hub solves to the mean of the
        # rim targets
        p = 6
        mesh = wheel_mesh(p)
        graph = build_weights(mesh)
        ang = np.arange(p) * 2 * np.pi / p
        targets = np.column_stack([np.cos(ang), np.sin(ang)])
        fps = FixedPointSet(indices=np.arange(p), targets=targets)
        coords, residual, _ = solve_fixed_point(graph, fps)
        np.testing.assert_allclose(coords[p], 0.0, atol=1e-14)
        assert residual <= 1e-10

    @pytest.mark.parametrize("route", ["direct", "iterative"])
    def test_residual_is_the_free_block_relative_residual(self, monkeypatch, route):
        # the residual reported is ||L_y Y - b|| / ||b|| of the free block,
        # on the band (no band-size limit) and by PCG (a limit of 0)
        monkeypatch.setattr(solver, "BAND_LIMIT",
                            {"direct": math.inf, "iterative": 0}[route])
        mesh = grid_mesh(5, 5)
        graph = build_weights(mesh)
        bverts = detect_boundary(mesh).boundary_vertices
        rng = np.random.default_rng(4)
        fps = FixedPointSet(indices=bverts, targets=rng.normal(size=(len(bverts), 2)))
        coords, residual, _ = solve_fixed_point(graph, fps)
        system = assemble_system(graph, bverts)
        rhs = -system.lap_free_fixed @ coords[system.fixed_indices]
        lhs = system.lap_free @ coords[system.free_indices]
        expect = float(np.linalg.norm(lhs - rhs)) / float(np.linalg.norm(rhs))
        assert residual == expect
        assert 0.0 < residual <= 1e-10

    def test_no_free_vertex_has_zero_residual(self):
        mesh = grid_mesh(2, 2)
        fps = FixedPointSet(indices=np.arange(4), targets=mesh.vertices)
        coords, residual, _ = solve_fixed_point(build_weights(mesh), fps)
        assert coords.tobytes() == mesh.vertices.tobytes()
        assert residual == 0.0

    def test_fixed_rows_copied_verbatim(self):
        mesh = grid_mesh(3, 3)
        graph = build_weights(mesh)
        rng = np.random.default_rng(2)
        idx = np.array([0, 4, 8])
        targets = rng.normal(size=(3, 2))
        fps = FixedPointSet(indices=idx, targets=targets)
        coords, _, _ = solve_fixed_point(graph, fps)
        assert coords[idx].tobytes() == targets.tobytes()

    def test_unsorted_indices_align_with_targets(self):
        mesh = grid_mesh(3, 3)
        graph = build_weights(mesh)
        idx = np.array([8, 0, 4])
        targets = np.array([[5.0, 5.0], [-5.0, -5.0], [0.0, 3.0]])
        fps = FixedPointSet(indices=idx, targets=targets)
        coords, _, _ = solve_fixed_point(graph, fps)
        np.testing.assert_array_equal(coords[8], [5.0, 5.0])
        np.testing.assert_array_equal(coords[0], [-5.0, -5.0])
        np.testing.assert_array_equal(coords[4], [0.0, 3.0])

    def test_free_vertices_are_convex_combinations(self):
        # first-order condition: each free vertex equals the weighted
        # average of its neighbors
        mesh = grid_mesh(4, 4)
        graph = build_weights(mesh)
        bverts = detect_boundary(mesh).boundary_vertices
        ang = np.arange(len(bverts)) * 2 * np.pi / len(bverts)
        fps = FixedPointSet(
            indices=bverts,
            targets=np.column_stack([np.cos(ang), np.sin(ang)]),
        )
        coords, _, _ = solve_fixed_point(graph, fps)
        adj = graph.adjacency
        deg = np.asarray(adj.sum(axis=1)).ravel()
        averaged = (adj @ coords) / deg[:, None]
        free = np.setdiff1d(np.arange(mesh.n_vertices), bverts)
        np.testing.assert_allclose(coords[free], averaged[free], atol=1e-9)


class TestRunFplm:
    def test_single_triangle_one_round(self):
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2]]), 2)
        emb = run_fplm(mesh)
        assert emb.rounds_run == 1
        assert emb.branch == "one-round"
        assert emb.seed_simplex == 0
        np.testing.assert_array_equal(emb.coords, regular_simplex(2))
        assert emb.fixed_round2 is None
        assert emb.coords_round1 is emb.coords
        assert emb.routes == {"round1": {"route": "none"}}

    def test_non_orientable_two_round_mesh_rejected(self):
        # a 12 x 3 Mobius band passes validation and has no dividing edge,
        # so it takes the two-round branch, which reads no orientation of
        # its own; it used to be embedded there
        mesh = mobius_strip(12, 3)
        assert validate_mesh(mesh) == []
        assert detect_dividing_simplices(mesh) == []
        with pytest.raises(ValueError, match="^mesh is combinatorially non-orientable"):
            run_fplm(mesh)

    def test_closed_surface_one_round(self):
        emb = run_fplm(icosphere(1))
        assert emb.rounds_run == 1
        assert emb.branch == "one-round"
        assert "round1" in emb.residuals
        assert emb.residuals["round1"] <= 1e-10

    def test_disk_two_rounds(self):
        mesh = grid_mesh(5, 5)
        emb = run_fplm(mesh)
        assert emb.rounds_run == 2
        assert emb.branch == "two-round"
        assert set(emb.residuals) == {"round1", "round2"}
        np.testing.assert_array_equal(
            emb.fixed_round2.indices, detect_boundary(mesh).boundary_vertices
        )

    def test_routes_recorded_per_round(self, monkeypatch):
        mesh = grid_mesh(5, 5)
        emb = run_fplm(mesh)
        # 5 x 5 grid: 22 free vertices in round 1, the 3 x 3 interior in round 2
        assert [r["route"] for r in emb.routes.values()] == ["band", "band"]
        assert 1 <= emb.routes["round2"]["band_width"] < 9
        monkeypatch.setattr(solver, "BAND_LIMIT", 0)  # every block takes PCG
        emb = run_fplm(mesh)
        assert [r["route"] for r in emb.routes.values()] == ["pcg", "pcg"]
        assert 1 <= emb.routes["round1"]["iterations"] <= 2 * 22
        assert 1 <= emb.routes["round2"]["iterations"] <= 2 * 9
        assert all(r.keys() == {"route", "iterations"} for r in emb.routes.values())

    def test_round2_boundary_bit_fixed(self):
        mesh = grid_mesh(6, 4)
        emb = run_fplm(mesh)
        bverts = emb.fixed_round2.indices
        assert emb.coords[bverts].tobytes() == emb.coords_round1[bverts].tobytes()

    def test_seed_simplex_lands_on_regular_simplex(self):
        mesh = grid_mesh(5, 5)
        emb = run_fplm(mesh)
        seed_verts = np.sort(mesh.simplices[emb.seed_simplex])
        np.testing.assert_allclose(
            emb.coords_round1[seed_verts], regular_simplex(2), atol=0
        )

    def test_dividing_edge_takes_polygon_branch(self):
        emb = run_fplm(two_triangles())
        assert emb.branch == "p-gon"
        assert emb.rounds_run == 1
        assert emb.seed_simplex is None
        assert sorted(emb.fixed_round1.indices.tolist()) == [0, 1, 2, 3]
        assert emb.routes == {"round1": {"route": "none"}}  # all 4 pinned
        np.testing.assert_allclose(
            np.linalg.norm(emb.coords, axis=1), 1.0, rtol=1e-15
        )

    def test_tet_mesh_runs_two_rounds_despite_dividing_faces(self):
        # solid meshes always have interior faces whose vertices all sit on
        # the boundary; the polygon reroute must not trigger for d = 3
        verts = np.array(
            [
                [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
                [0.5, 0.5, 0.5],
            ],
            dtype=float,
        )
        quads = [
            (0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4),
            (2, 3, 7, 6), (1, 2, 6, 5), (3, 0, 4, 7),
        ]
        tets = []
        for quad in quads:
            tets.append([quad[0], quad[1], quad[2], 8])
            tets.append([quad[0], quad[2], quad[3], 8])
        mesh = SimplicialMesh(verts, np.array(tets), 3)
        emb = run_fplm(mesh)
        assert emb.branch == "two-round"
        assert emb.coords.shape == (9, 3)

    def test_determinism_byte_identical(self):
        mesh = grid_mesh(6, 6)
        a = run_fplm(mesh)
        b = run_fplm(mesh)
        assert a.coords.tobytes() == b.coords.tobytes()
        assert a.coords_round1.tobytes() == b.coords_round1.tobytes()

    def test_seed_index_strategy_passthrough(self):
        mesh = grid_mesh(5, 5)
        emb = run_fplm(mesh, seed_simplex=3)
        assert emb.seed_simplex == 3
        assert np.array_equal(emb.fixed_round1.indices, np.sort(mesh.simplices[3]))
        # the polygon branch pins no simplex and ignores the seed
        assert run_fplm(two_triangles(), seed_simplex=1).seed_simplex is None

    def test_invalid_mesh_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2]]), 2)
        with pytest.raises(ValueError, match="validation"):
            run_fplm(mesh)

    def test_multi_loop_boundary_rejected(self):
        outer = np.array([[0, 0], [3, 0], [3, 3], [0, 3]], dtype=float)
        inner = np.array([[1, 1], [2, 1], [2, 2], [1, 2]], dtype=float)
        verts = np.vstack([outer, inner])
        simp = np.array(
            [
                [0, 1, 4], [1, 5, 4], [1, 2, 5], [2, 6, 5],
                [2, 3, 6], [3, 7, 6], [3, 0, 7], [0, 4, 7],
            ]
        )
        with pytest.raises(ValueError, match="loops"):
            run_fplm(SimplicialMesh(verts, simp, 2))

    def test_gamma_changes_interior(self):
        mesh = grid_mesh(5, 5)
        # irregular geometry so weights actually differ between edges
        rng = np.random.default_rng(9)
        verts = np.asarray(mesh.vertices) + rng.normal(scale=0.04, size=(25, 2))
        mesh = SimplicialMesh(verts * 10, mesh.simplices, 2)
        a = run_fplm(mesh, gamma=0.1)
        b = run_fplm(mesh, gamma=1.0)
        assert not np.allclose(a.coords, b.coords)
