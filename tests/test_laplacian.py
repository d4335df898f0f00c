"""Edge-weight and Laplacian block assembly tests."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra

from fplm import solver
from fplm.generators import GENERATOR_KINDS, GeneratorSpec, ball3, generate, icosphere
from fplm.laplacian import assemble_system, build_weights
from fplm.mapping import run_fplm, select_seed_simplex
from fplm.simplicial import SimplicialMesh, detect_boundary, mesh_edges
from fplm.validity import audit
from test_simplicial import relabel


def triangle_mesh():
    return SimplicialMesh(
        np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]),
        np.array([[0, 1, 2]]),
        2,
    )


def fresh_copy(mesh):
    """An equal mesh as a distinct object, with none of its caches."""
    return SimplicialMesh(mesh.vertices, mesh.simplices, mesh.intrinsic_dim)


def strip_mesh():
    """Two equilateral triangles in a strip: four vertices, five edges,
    every one of length 1."""
    h = math.sqrt(3.0) / 2.0
    verts = np.array([[0.0, 0.0], [0.5, h], [1.0, 0.0], [1.5, h]])
    return SimplicialMesh(verts, np.array([[0, 2, 1], [1, 2, 3]]), 2)


class TestBuildWeights:
    def test_exponential_of_distance(self):
        g = build_weights(triangle_mesh(), gamma=0.1)
        w = {tuple(e): wt for e, wt in zip(g.edges.tolist(), g.weights.tolist())}
        assert w[(0, 1)] == pytest.approx(np.exp(-0.1 * 3.0), rel=0, abs=0)
        assert w[(0, 2)] == pytest.approx(np.exp(-0.1 * 4.0), rel=0, abs=0)
        assert w[(1, 2)] == pytest.approx(np.exp(-0.1 * 5.0), rel=0, abs=0)

    def test_default_gamma(self):
        g = build_weights(triangle_mesh())
        assert g.gamma == 0.1

    def test_gamma_scaling(self):
        g1 = build_weights(triangle_mesh(), gamma=0.5)
        g2 = build_weights(triangle_mesh(), gamma=1.0)
        np.testing.assert_allclose(g1.weights**2, g2.weights, rtol=1e-15)

    def test_weights_positive_and_at_most_one(self):
        rng = np.random.default_rng(3)
        verts = rng.normal(size=(6, 3)) * 50
        simp = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]])
        g = build_weights(SimplicialMesh(verts, simp, 2), gamma=0.1)
        assert (g.weights > 0).all()
        assert (g.weights <= 1).all()

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            build_weights(triangle_mesh(), gamma=0.0)
        with pytest.raises(ValueError):
            build_weights(triangle_mesh(), gamma=-1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="positive and finite"):
            build_weights(triangle_mesh(), gamma=gamma)

    def test_underflowing_weight_rejected(self):
        # the shortest edge has length 3, and exp(-3000) is 0 in float64
        with pytest.raises(ValueError, match="underflows the weight"):
            build_weights(triangle_mesh(), gamma=1000.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_edge_length_rejected(self, bad):
        # NaN lengths compare False with everything, so an underflow test
        # alone would pass them on as NaN weights
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        verts[3, 1] = bad
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2], [1, 3, 2]]), 2)
        length = "nan" if np.isnan(bad) else "inf"
        message = rf"^edge \(1, 3\) has length {length}; edge lengths must be finite$"
        with pytest.raises(ValueError, match=message):
            build_weights(mesh, gamma=0.1)

    @pytest.mark.parametrize("gamma", [4400.0, 4500.0])
    def test_subnormal_weight_rejected(self, monkeypatch, gamma):
        # the longest edge of icosphere 3 (0.165) gets a subnormal weight,
        # 2.4e-315 and 1.7e-322, which can overflow the iterative route's
        # reciprocal diagonal; both routes refuse the gamma before solving
        mesh = icosphere(3)
        with pytest.raises(ValueError, match="underflows the weight"):
            build_weights(mesh, gamma=gamma)
        for limit in (solver.BAND_LIMIT, 0):  # the band, then PCG
            monkeypatch.setattr(solver, "BAND_LIMIT", limit)
            with pytest.raises(ValueError, match="underflows the weight"):
                run_fplm(fresh_copy(mesh), gamma=gamma)

    @pytest.mark.parametrize("route", ["auto", "iterative"])
    def test_smallest_normal_weight_still_embeds(self, monkeypatch, route):
        # at gamma 4300 the smallest weight, 3.4e-308, is a normal double; it
        # embeds on the rule's route and by PCG (a band-size limit of 0)
        if route == "iterative":
            monkeypatch.setattr(solver, "BAND_LIMIT", 0)
        mesh = icosphere(3)
        assert build_weights(mesh, gamma=4300.0).weights.min() >= np.finfo(float).tiny
        emb = run_fplm(mesh, gamma=4300.0)
        assert [r["route"] for r in emb.routes.values()] == \
            [{"auto": "band", "iterative": "pcg"}[route]]
        assert np.isfinite(emb.coords).all()

    def test_coincident_points_warn_weight_one(self):
        verts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2]]), 2)
        with pytest.warns(RuntimeWarning, match="coincident"):
            g = build_weights(mesh)
        w = {tuple(e): wt for e, wt in zip(g.edges.tolist(), g.weights.tolist())}
        assert w[(0, 1)] == 1.0

    def test_adjacency_symmetric(self):
        g = build_weights(triangle_mesh())
        a = g.adjacency.toarray()
        np.testing.assert_array_equal(a, a.T)
        assert np.diag(a).sum() == 0.0


class TestLaplacian:
    @pytest.mark.parametrize(
        "mesh",
        [generate(GeneratorSpec("paraboloid", (6, 5)))[0], icosphere(2), ball3(3)],
        ids=["paraboloid", "sphere", "ball"],
    )
    def test_arrays_equal_the_sparse_difference(self, mesh):
        g = build_weights(fresh_copy(mesh))
        want = (sparse.diags(g.degrees) - g.adjacency).tocsr()
        want.sum_duplicates()
        got = g.laplacian
        for a, b in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert got.has_canonical_format

    def test_isolated_vertex_has_no_entry(self):
        # sparse.diags(...) - A drops the isolated vertex's zero degree
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [0.0, 1.0]])
        g = build_weights(SimplicialMesh(verts, np.array([[0, 1, 3]]), 2))
        want = (sparse.diags(g.degrees) - g.adjacency).tocsr()
        want.sum_duplicates()
        got = g.laplacian
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        assert got[2].nnz == 0


def sorted_construction(graph):
    """The adjacency and Laplacian as scipy sorts them: edges (i, j) then
    (j, i), and the sparse difference diags(degrees) - A."""
    i, j = graph.edges.T
    w = np.concatenate([graph.weights, graph.weights])
    a = sparse.csr_matrix((w, (np.concatenate([i, j]), np.concatenate([j, i]))),
                          shape=(graph.n, graph.n))
    a.sum_duplicates()
    lap = (sparse.diags(np.asarray(a.sum(axis=1)).ravel()) - a).tocsr()
    lap.sum_duplicates()
    return a, lap


def undirected_seed(mesh):
    """The most-interior seed from an undirected search of the upper
    triangle of the skeleton."""
    sources = detect_boundary(mesh).boundary_vertices
    if sources.size == 0:
        return 0
    n, edges = mesh.n_vertices, mesh_edges(mesh)
    upper = sparse.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    hops = dijkstra(upper, directed=False, indices=sources, unweighted=True, min_only=True)
    depth = np.where(np.isinf(hops), n + 1, hops).astype(np.int64)
    return int(np.argmax(depth[mesh.simplices].min(axis=1)))


class TestBuiltInOrder:
    """The graph's matrices are built already sorted: the same arrays, and
    the same seed, as the constructions scipy sorts."""

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_the_sorted_construction(self, kind, seed):
        resolution = {"sphere": (2,), "ball3": (3,)}.get(kind, (7, 6))
        mesh = relabel(generate(GeneratorSpec(kind, resolution))[0], np.random.default_rng(seed))
        g = build_weights(mesh)
        want_adjacency, want_laplacian = sorted_construction(g)
        for got, want in ((g.adjacency, want_adjacency), (g.laplacian, want_laplacian)):
            assert got.has_canonical_format
            for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data)):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
        assert select_seed_simplex(mesh) == undirected_seed(mesh)


# Reference constructions made of scipy.sparse operations alone: one
# symmetric CSR per use, a COO Laplacian, fancy-index slices of it, and an
# undirected component search. The graph layer shares one skeleton pattern
# per mesh and slices by mask instead; these pin its arrays bit for bit.


def reference_symmetric_csr(n, edges, values):
    i, j = edges.T
    data = np.concatenate([values, values])
    return sparse.csr_matrix(
        (data, (np.concatenate([j, i]), np.concatenate([i, j]))), shape=(n, n), dtype=float
    )


def reference_graph(mesh, gamma=0.1):
    """Adjacency, degrees, Laplacian and component labels of the mesh."""
    edges = mesh_edges(mesh)
    weights = build_weights(fresh_copy(mesh), gamma).weights
    n = mesh.n_vertices
    adjacency = reference_symmetric_csr(n, edges, weights)
    adjacency.sum_duplicates()
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    i, j = edges.T
    diagonal = np.flatnonzero(degrees)
    laplacian = sparse.csr_matrix(
        (np.concatenate([-weights, degrees[diagonal], -weights]),
         (np.concatenate([j, diagonal, i]), np.concatenate([i, diagonal, j]))),
        shape=(n, n),
    )
    laplacian.sum_duplicates()
    _, labels = connected_components(adjacency, directed=False)
    return adjacency, degrees, laplacian, labels


def reference_blocks(laplacian, fixed):
    fixed = np.sort(np.asarray(fixed, dtype=np.int64))
    free = np.setdiff1d(np.arange(laplacian.shape[0]), fixed)
    free_rows = laplacian[free]
    return free_rows[:, free].tocsr(), free_rows[:, fixed].tocsr()


def reference_seed(mesh):
    sources = detect_boundary(mesh).boundary_vertices
    if sources.size == 0:
        return 0
    n, edges = mesh.n_vertices, mesh_edges(mesh)
    skeleton = reference_symmetric_csr(n, edges, np.ones(edges.shape[0]))
    hops = dijkstra(skeleton, directed=True, indices=sources, unweighted=True, min_only=True)
    depth = np.where(np.isinf(hops), n + 1, hops).astype(np.int64)
    return int(np.argmax(depth[mesh.simplices].min(axis=1)))


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert_same_array(getattr(got, name), getattr(want, name))


def assert_graph_matches_reference(mesh, fixed_sets):
    g = build_weights(fresh_copy(mesh))
    adjacency, degrees, laplacian, labels = reference_graph(mesh)
    assert_same_csr(g.adjacency, adjacency)
    assert_same_array(g.degrees, degrees)
    assert_same_csr(g.laplacian, laplacian)
    assert_same_array(g.component_labels, labels)
    for fixed in fixed_sets:
        system = assemble_system(g, fixed)
        want_free, want_fixed = reference_blocks(laplacian, fixed)
        assert_same_csr(system.lap_free, want_free)
        assert_same_csr(system.lap_free_fixed, want_fixed)
        assert_same_array(system.fixed_indices, np.sort(np.asarray(fixed, dtype=np.int64)))


class TestReferenceConstructions:
    """The shared skeleton, the inserted diagonal and the mask-sliced blocks
    hold the same bytes as the scipy.sparse constructions above."""

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("seed", [None, 5])
    def test_generated_meshes(self, kind, size, seed):
        resolution = {"sphere": {"small": (1,), "large": (3,)},
                      "ball3": {"small": (3,), "large": (6,)}}.get(
            kind, {"small": (5, 4), "large": (16, 13)})[size]
        mesh = generate(GeneratorSpec(kind, resolution))[0]
        if seed is not None:
            mesh = relabel(mesh, np.random.default_rng(seed))
        rng = np.random.default_rng(7)
        seed_simplex = mesh.simplices[select_seed_simplex(mesh)]
        boundary = detect_boundary(mesh).boundary_vertices
        unsorted = rng.choice(mesh.n_vertices, size=mesh.n_vertices // 3, replace=False)
        fixed_sets = [seed_simplex, unsorted] + ([boundary] if boundary.size else [])
        assert_graph_matches_reference(mesh, fixed_sets)
        assert select_seed_simplex(fresh_copy(mesh)) == reference_seed(mesh)

    def test_unreferenced_vertex_drops_its_zero_degree(self):
        # vertex 2 is in no simplex: a zero degree, no diagonal entry, and a
        # component of its own that must be fixed
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [0.0, 1.0], [1.0, 1.0]])
        mesh = SimplicialMesh(verts, np.array([[0, 1, 3], [1, 4, 3]]), 2)
        g = build_weights(mesh)
        assert g.degrees[2] == 0.0
        assert g.laplacian[2].nnz == 0
        assert_graph_matches_reference(mesh, [[2, 0], [2, 4, 1], [0, 1, 2, 3, 4]])

    def test_two_components_keep_their_labels_and_message(self):
        # two strips with interleaved vertex ids, so labels follow the
        # lowest vertex of each component, not the id ranges
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        verts = np.empty((8, 2))
        verts[0::2], verts[1::2] = a, a + 5.0
        simplices = np.array([[0, 2, 4], [2, 6, 4], [1, 3, 5], [3, 7, 5]])
        mesh = SimplicialMesh(verts, simplices, 2)
        assert_graph_matches_reference(mesh, [[0, 1], [6, 7, 2], [5, 4]])
        g = build_weights(mesh)
        labels = reference_graph(mesh)[3]
        for fixed in ([0, 2], [7, 3]):
            comp = int(np.setdiff1d(labels, labels[fixed])[0])
            example = int(np.argmax(labels == comp))
            message = (f"connected component {comp} (example vertex {example}) "
                       "contains no fixed vertex; its block is singular")
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
                assemble_system(g, fixed)

    @pytest.mark.parametrize("case", ["all-fixed", "one-free", "unsorted"])
    def test_extreme_fixed_sets(self, case):
        mesh = generate(GeneratorSpec("paraboloid", (6, 5)))[0]
        n = mesh.n_vertices
        fixed = {"all-fixed": np.arange(n)[::-1],
                 "one-free": np.delete(np.arange(n), 17),
                 "unsorted": np.random.default_rng(3).permutation(n)[:9]}[case]
        assert_graph_matches_reference(mesh, [fixed])

    def test_built_in_order_with_no_sort(self, monkeypatch):
        # the skeleton's COO lists lower partners before upper ones, and the
        # Laplacian takes each degree between them: scipy then finds every
        # row sorted and never sorts, and neither do the blocks
        mesh = relabel(ball3(3), np.random.default_rng(2))
        fixed_sets = [mesh.simplices[0], detect_boundary(mesh).boundary_vertices]

        def no_sort(self):
            raise AssertionError("a row was built out of order")

        monkeypatch.setattr(sparse.csr_matrix, "sort_indices", no_sort)
        g = build_weights(fresh_copy(mesh))
        for matrix in [g.adjacency, g.laplacian] + [
            block for fixed in fixed_sets
            for block in vars(assemble_system(g, fixed)).values()
            if sparse.issparse(block)
        ]:
            matrix.sum_duplicates()
            assert matrix.has_canonical_format


class TestGraphMemo:
    def test_same_mesh_and_gamma_share_one_graph(self):
        mesh = triangle_mesh()
        g = build_weights(mesh, gamma=0.5)
        assert build_weights(mesh, gamma=0.5) is g
        assert build_weights(mesh, gamma=np.float64(0.5)) is g
        with pytest.raises(ValueError, match="read-only"):
            g.weights[0] = 0.0

    def test_other_gamma_or_equal_mesh_builds_another_graph(self):
        mesh = triangle_mesh()
        g = build_weights(mesh, gamma=0.5)
        assert build_weights(mesh, gamma=0.25) is not g
        other = build_weights(fresh_copy(mesh), gamma=0.5)
        assert other is not g
        assert np.array_equal(other.weights, g.weights)

    def test_nonpositive_gamma_rejected_after_a_build(self):
        mesh = triangle_mesh()
        build_weights(mesh)
        with pytest.raises(ValueError, match="positive"):
            build_weights(mesh, gamma=0.0)

    def test_coincident_warning_on_first_build_points_at_caller(self):
        verts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2]]), 2)
        with pytest.warns(RuntimeWarning, match="coincident") as record:
            g = build_weights(mesh)
        assert record[0].filename == __file__
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_weights(mesh) is g
        with pytest.warns(RuntimeWarning, match="coincident"):
            build_weights(mesh, gamma=0.2)

    @pytest.mark.parametrize(
        "mesh",
        [generate(GeneratorSpec("paraboloid", (6, 5)))[0], icosphere(1), ball3(3)],
        ids=["paraboloid", "sphere", "ball"],
    )
    def test_audit_with_memoised_graph_matches_fresh_mesh(self, mesh):
        mesh = fresh_copy(mesh)
        emb = run_fplm(mesh)
        shared = build_weights(mesh)
        report = audit(mesh, emb, graph=shared)
        copy = fresh_copy(mesh)
        fresh = build_weights(copy)
        assert fresh is not shared
        assert report.to_dict() == audit(copy, emb, graph=fresh).to_dict()


class TestAssembleSystem:
    def test_path_blocks(self):
        # the strip's free vertices 1 and 2 each border both fixed ends
        g = build_weights(strip_mesh(), gamma=0.1)
        sys = assemble_system(g, [0, 3])
        w = np.exp(-0.1)
        assert sys.free_indices.tolist() == [1, 2]
        assert sys.fixed_indices.tolist() == [0, 3]
        np.testing.assert_allclose(
            sys.lap_free.toarray(), [[3 * w, -w], [-w, 3 * w]], rtol=1e-15
        )
        np.testing.assert_allclose(
            sys.lap_free_fixed.toarray(), [[-w, -w], [-w, -w]], rtol=1e-15
        )

    def test_triangle_blocks(self):
        g = build_weights(triangle_mesh(), gamma=0.1)
        sys = assemble_system(g, [0])
        w01 = np.exp(-0.3)
        w02 = np.exp(-0.4)
        w12 = np.exp(-0.5)
        np.testing.assert_allclose(
            sys.lap_free.toarray(),
            [[w01 + w12, -w12], [-w12, w02 + w12]],
            rtol=1e-15,
        )
        np.testing.assert_allclose(
            sys.lap_free_fixed.toarray(), [[-w01], [-w02]], rtol=1e-15
        )

    def test_laplacian_rows_sum_to_zero(self):
        g = build_weights(triangle_mesh())
        sys = assemble_system(g, [0])
        # each free row of L, split into its free and fixed columns
        row_sums = sys.lap_free.sum(axis=1) + sys.lap_free_fixed.sum(axis=1)
        np.testing.assert_allclose(np.asarray(row_sums).ravel(), 0.0, atol=1e-15)

    def test_degrees_match_adjacency(self):
        g = build_weights(strip_mesh())
        np.testing.assert_allclose(
            g.degrees, np.asarray(g.adjacency.sum(axis=1)).ravel(), rtol=0
        )

    def test_free_block_spd(self):
        # with at least one fixed vertex per component the free block is
        # strictly positive definite; check the smallest eigenvalue densely
        rng = np.random.default_rng(11)
        for trial in range(5):
            n_side = rng.integers(3, 6)
            xs, ys = np.meshgrid(np.arange(n_side), np.arange(n_side))
            verts = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
            verts += rng.normal(scale=0.05, size=verts.shape)
            tris = []
            for r in range(n_side - 1):
                for c in range(n_side - 1):
                    a = r * n_side + c
                    tris.append([a, a + 1, a + n_side])
                    tris.append([a + 1, a + n_side + 1, a + n_side])
            mesh = SimplicialMesh(verts, np.array(tris), 2)
            g = build_weights(mesh)
            n_fixed = int(rng.integers(1, 5))
            fixed = rng.choice(mesh.n_vertices, size=n_fixed, replace=False)
            sys = assemble_system(g, fixed)
            eig = np.linalg.eigvalsh(sys.lap_free.toarray())
            assert eig.min() > 0.0
            a = sys.lap_free.toarray()
            np.testing.assert_allclose(a, a.T, atol=0)

    def test_row_sums_give_convex_weights(self):
        # L_y ydot = -L_yc c means each free vertex is the weighted average of
        # its neighbors: row sum of [lap_free | lap_free_fixed] must be the
        # degree minus the total incident weight, i.e. zero
        g = build_weights(triangle_mesh())
        sys = assemble_system(g, [0])
        rows = (
            np.asarray(sys.lap_free.sum(axis=1)).ravel()
            + np.asarray(sys.lap_free_fixed.sum(axis=1)).ravel()
        )
        np.testing.assert_allclose(rows, 0.0, atol=1e-15)

    def test_empty_fixed_rejected(self):
        g = build_weights(triangle_mesh())
        with pytest.raises(ValueError, match="empty"):
            assemble_system(g, [])

    @pytest.mark.parametrize("fixed", [[0.5, 3.7], np.array([0.0, 2.0]),
                                       np.array([True, False, True])],
                             ids=["fractional", "integral-floats", "bool-mask"])
    def test_non_integer_fixed_rejected(self, fixed):
        # a cast pinned vertices 0 and 3 for [0.5, 3.7], and read the mask
        # as vertices 1, 0, 1 and reported duplicates
        g = build_weights(strip_mesh())
        dtype = np.asarray(fixed).dtype
        with pytest.raises(ValueError, match=f"must be integers, got dtype {dtype}"):
            assemble_system(g, fixed)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                       np.uint8, np.uint32])
    def test_integer_fixed_of_any_width(self, dtype):
        g = build_weights(strip_mesh())
        got = assemble_system(g, np.array([3, 0], dtype=dtype))
        want = assemble_system(g, [0, 3])
        assert got.fixed_indices.dtype == np.int64
        assert got.fixed_indices.tolist() == [0, 3]
        assert_same_csr(got.lap_free, want.lap_free)
        assert_same_csr(got.lap_free_fixed, want.lap_free_fixed)

    def test_empty_fixed_of_any_dtype_rejected_as_empty(self):
        g = build_weights(strip_mesh())
        for fixed in ([], np.array([]), np.array([], dtype=bool)):
            with pytest.raises(ValueError, match="^fixed vertex set is empty$"):
                assemble_system(g, fixed)

    def test_out_of_range_rejected(self):
        g = build_weights(triangle_mesh())
        with pytest.raises(ValueError, match="range"):
            assemble_system(g, [3])
        with pytest.raises(ValueError, match="range"):
            assemble_system(g, [-1])

    def test_duplicate_fixed_rejected(self):
        g = build_weights(triangle_mesh())
        with pytest.raises(ValueError, match="duplicate"):
            assemble_system(g, [0, 0])

    def test_component_without_fixed_rejected(self):
        verts = np.array(
            [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]], dtype=float
        )
        simp = np.array([[0, 1, 2], [3, 4, 5]])
        g = build_weights(SimplicialMesh(verts, simp, 2))
        with pytest.raises(ValueError, match="no fixed vertex"):
            assemble_system(g, [0])
        # fixing one vertex in each component is fine
        sys = assemble_system(g, [0, 3])
        assert sys.lap_free.shape == (4, 4)

    def test_reused_graph_matches_fresh_graphs(self):
        # the seed-simplex and boundary fixed sets of the two mapping rounds
        mesh = ball3(3)
        rounds = [mesh.simplices[40], detect_boundary(mesh).boundary_vertices]
        shared = build_weights(mesh)
        for fixed in rounds:
            got = assemble_system(shared, fixed)
            want = assemble_system(build_weights(fresh_copy(mesh)), fixed)
            assert np.array_equal(got.free_indices, want.free_indices)
            assert np.array_equal(got.fixed_indices, want.fixed_indices)
            for block in ("lap_free", "lap_free_fixed"):
                a, b = getattr(got, block), getattr(want, block)
                assert a.shape == b.shape
                assert (a != b).nnz == 0, block
        # both rounds read the shared graph's matrices and leave them as built
        fresh = build_weights(fresh_copy(mesh))
        for name in ("laplacian", "adjacency"):
            assert (getattr(shared, name) != getattr(fresh, name)).nnz == 0, name
        assert np.array_equal(shared.degrees, fresh.degrees)

    def test_cached_matrices_are_read_only(self):
        g = build_weights(triangle_mesh())
        for array in (g.degrees, g.component_labels, g.laplacian.data, g.adjacency.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_all_vertices_fixed(self):
        g = build_weights(triangle_mesh())
        sys = assemble_system(g, [0, 1, 2])
        assert sys.free_indices.size == 0
        assert sys.lap_free.shape == (0, 0)
        assert sys.lap_free_fixed.shape == (0, 3)
