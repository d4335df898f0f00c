"""Mesh representation, validation, boundary, and orientation tests."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fplm.generators import (
    GENERATOR_KINDS,
    GeneratorSpec,
    ball3,
    generate,
    icosphere,
    structured_grid_triangles,
)
from fplm import simplicial
from fplm.mapping import run_fplm
from fplm.simplicial import (
    SimplicialMesh,
    canonical_orientation,
    detect_boundary,
    detect_dividing_simplices,
    mesh_edges,
    mesh_faces,
    _walk_boundary_cycles,
    triangulate_flat_faces,
    validate_mesh,
)
from fplm.validity import audit
from orientation_oracle import simplex_orientations_rational


def triangle_mesh():
    return SimplicialMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
        2,
    )


def two_triangles():
    return SimplicialMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.array([[0, 1, 2], [1, 3, 2]]),
        2,
    )


def grid_mesh(nx, ny):
    xs, ys = np.meshgrid(np.linspace(0, 1, nx), np.linspace(0, 1, ny))
    verts = np.column_stack([xs.ravel(), ys.ravel()])
    return SimplicialMesh(verts, structured_grid_triangles(nx, ny), 2)


class TestSimplicialMesh:
    def test_basic_properties(self):
        m = triangle_mesh()
        assert m.n_vertices == 3
        assert m.n_simplices == 1
        assert m.ambient_dim == 2
        assert m.intrinsic_dim == 2

    def test_arrays_read_only(self):
        m = triangle_mesh()
        with pytest.raises(ValueError):
            m.vertices[0, 0] = 5.0
        with pytest.raises(ValueError):
            m.simplices[0, 0] = 2

    def test_index_out_of_range(self):
        # integer_ids judges the range as it judges the dtype, after the
        # shape checks; the mesh used to raise an IndexError of its own
        for bad in (3, 5, -1):
            with pytest.raises(ValueError, match=rf"^simplex vertex ids {bad} out of range \[0, 3\)$"):
                SimplicialMesh(np.zeros((3, 2)), np.array([[0, 1, bad]]), 2)
        with pytest.raises(ValueError, match="^simplices must have 3 vertices each, got 2$"):
            SimplicialMesh(np.zeros((3, 2)), np.array([[0, 9]]), 2)

    @pytest.mark.parametrize("simplices", [[[0.5, 1, 2]], np.array([[0.0, 1.0, 2.0]]),
                                           np.array([[True, False, True]])],
                             ids=["fractional", "integral-floats", "bool"])
    def test_non_integer_simplices_rejected(self, simplices):
        # a cast stored [0, 1, 2] for the fractions, and read the bools as
        # vertex ids 1, 0, 1
        dtype = np.asarray(simplices).dtype
        with pytest.raises(ValueError, match=f"^simplex vertex ids must be integers, "
                                             f"got dtype {dtype}$"):
            SimplicialMesh(np.zeros((3, 2)), simplices, 2)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_integer_simplices_of_any_width(self, dtype):
        m = SimplicialMesh(np.eye(3)[:, :2], np.array([[2, 0, 1]], dtype=dtype), 2)
        assert m.simplices.dtype == np.int64
        assert m.simplices.tolist() == [[2, 0, 1]]
        empty = SimplicialMesh(np.zeros((0, 2)), np.zeros((0, 3)), 2)
        assert empty.simplices.dtype == np.int64

    def test_wrong_simplex_width(self):
        with pytest.raises(ValueError):
            SimplicialMesh(np.zeros((4, 2)), np.array([[0, 1, 2, 3]]), 2)

    def test_intrinsic_dim_above_ambient(self):
        with pytest.raises(ValueError):
            SimplicialMesh(np.zeros((4, 2)), np.array([[0, 1, 2, 3]]), 3)

    @pytest.mark.parametrize("d", [-2, 0, 1, 4, 5])
    def test_intrinsic_dim_other_than_2_or_3_rejected(self, d):
        # a mesh is triangles or tetrahedra; the check comes before the
        # ambient and width checks, so any d names itself
        with pytest.raises(ValueError, match=f"^intrinsic dimension must be 2 or 3, got {d}$"):
            SimplicialMesh(np.zeros((6, 5)), np.array([[0, 1, 2]]), d)

    @pytest.mark.parametrize("d", [2.7, 2.0, True, np.float64(3.0), np.True_],
                             ids=["2.7", "2.0", "True", "float64-3.0", "numpy-True"])
    def test_non_integer_intrinsic_dim_rejected(self, d):
        # int() truncated 2.7 to a d = 2 mesh and read True as d = 1
        with pytest.raises(ValueError, match="^intrinsic_dim must be an integer, got dtype"):
            SimplicialMesh(np.zeros((3, 2)), np.array([[0, 1, 2]]), d)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8])
    def test_integer_intrinsic_dim_of_any_width(self, dtype):
        m = SimplicialMesh(np.zeros((3, 2)), np.array([[0, 1, 2]]), dtype(2))
        assert type(m.intrinsic_dim) is int and m.intrinsic_dim == 2

    def test_intrinsic_equal_ambient_allowed(self):
        m = SimplicialMesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]),
            2,
        )
        assert m.intrinsic_dim == m.ambient_dim == 2


class TestValidateMesh:
    def test_single_triangle_valid(self):
        assert validate_mesh(triangle_mesh()) == []

    def test_repeated_vertex(self):
        m = SimplicialMesh(np.eye(3, 2), np.array([[0, 1, 1]]), 2)
        rules = [v.rule for v in validate_mesh(m)]
        assert "repeated-vertex" in rules

    def test_overshared_face(self):
        # three triangles all containing edge (1, 2)
        verts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [1.5, 1.0], [-0.5, 1.0]]
        )
        simp = np.array([[0, 1, 2], [1, 3, 2], [1, 2, 4]])
        rules = [v.rule for v in validate_mesh(SimplicialMesh(verts, simp, 2))]
        assert "face-overshared" in rules

    def test_collinear_degenerate(self):
        m = SimplicialMesh(
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
            np.array([[0, 1, 2]]),
            2,
        )
        rules = [v.rule for v in validate_mesh(m)]
        assert "degenerate-simplex" in rules

    def test_disconnected(self):
        verts = np.array(
            [[0, 0], [1, 0], [0, 1], [10, 10], [11, 10], [10, 11]], dtype=float
        )
        simp = np.array([[0, 1, 2], [3, 4, 5]])
        rules = [v.rule for v in validate_mesh(SimplicialMesh(verts, simp, 2))]
        assert "disconnected" in rules

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex(self, bad):
        base = grid_mesh(6, 6)
        verts = np.array(base.vertices)
        verts[14, 1] = bad
        violations = validate_mesh(SimplicialMesh(verts, base.simplices, 2))
        assert [(v.rule, v.where) for v in violations] == [("non-finite-vertex", (14,))]

    def test_unreferenced_vertex(self):
        # vertices 1 and 4 belong to no triangle; each would be a component
        # of the mapping's graph with no fixed vertex, a singular block
        verts = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        violations = validate_mesh(SimplicialMesh(verts, np.array([[0, 2, 3]]), 2))
        assert [(v.rule, v.where, v.detail) for v in violations] == [
            ("unreferenced-vertex", (1,), "vertex 1 belongs to no simplex"),
            ("unreferenced-vertex", (4,), "vertex 4 belongs to no simplex"),
        ]

    def test_generated_meshes_valid(self):
        assert validate_mesh(grid_mesh(5, 4)) == []
        assert validate_mesh(icosphere(1)) == []

    @pytest.mark.parametrize("scale", [1e103, 1e160])
    def test_overflowing_volume_scale_is_one_violation(self, scale):
        # ball3 2's diameter^3 is not a finite double at either scale (at
        # 1e160 the diameter itself is inf): one violation, no volume check
        mesh = ball3(2)
        big = SimplicialMesh(mesh.vertices * scale, mesh.simplices, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            violations = validate_mesh(big)
        assert [(v.rule, v.where) for v in violations] == [("coordinates-overflow", ())]
        assert "to the power d = 3 is not a finite double" in violations[0].detail
        assert validate_mesh(SimplicialMesh(mesh.vertices * 1e100, mesh.simplices, 3)) == []

    @pytest.mark.parametrize("scale", [1e78, 1e-150])
    def test_surface_volumes_neither_overflow_nor_underflow(self, scale):
        # paraboloid 5x5 in R^3: its Gram determinants overflow at 1e78 and
        # underflow at 1e-150 unless the edges are scaled first
        mesh, _ = generate(GeneratorSpec("paraboloid", (5, 5)))
        scaled = SimplicialMesh(mesh.vertices * scale, mesh.simplices, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_mesh(scaled) == []

    def test_flat_triangle_flagged_at_large_scale(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [0.5, 1e-14, 0], [0, 1, 1]]) * 1e78
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2], [0, 1, 3]]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            violations = validate_mesh(mesh)
        assert [(v.rule, v.where) for v in violations] == [("degenerate-simplex", (0,))]


class TestFacesAndEdges:
    def test_incidence_sum_property(self):
        # every d-simplex contributes d+1 faces, shared or not
        for mesh in (triangle_mesh(), two_triangles(), grid_mesh(4, 4), icosphere(1)):
            faces, counts = mesh_faces(mesh)
            d = mesh.intrinsic_dim
            assert counts.sum() == (d + 1) * mesh.n_simplices

    def test_edges_unique_sorted(self):
        e = mesh_edges(two_triangles())
        assert e.shape == (5, 2)
        assert (e[:, 0] < e[:, 1]).all()
        assert len({tuple(r) for r in e.tolist()}) == 5

    def test_icosahedron_every_edge_shared_twice(self):
        # brute-force incidence count over all 20 faces
        ico = icosphere(0)
        assert ico.n_vertices == 12
        assert ico.n_simplices == 20
        incidence = {}
        for tri in ico.simplices.tolist():
            for a, b in ((0, 1), (0, 2), (1, 2)):
                key = tuple(sorted((tri[a], tri[b])))
                incidence[key] = incidence.get(key, 0) + 1
        assert len(incidence) == 30
        assert set(incidence.values()) == {2}


def walk_cycles(edges):
    """``_walk_boundary_cycles`` on ``edges``, their ends listed once, as
    the boundary complex lists its vertices."""
    return _walk_boundary_cycles(edges, np.unique(edges))


class TestDetectBoundary:
    def test_single_triangle(self):
        b = detect_boundary(triangle_mesh())
        assert len(b.boundary_faces) == 3
        assert b.boundary_vertices.tolist() == [0, 1, 2]
        assert len(b.boundary_cycles) == 1
        cycle = b.boundary_cycles[0]
        assert sorted(cycle) == [0, 1, 2]

    def test_two_triangles(self):
        b = detect_boundary(two_triangles())
        got = {tuple(sorted(f)) for f in b.boundary_faces.tolist()}
        assert got == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_closed_surface_empty(self):
        b = detect_boundary(icosphere(0))
        assert len(b.boundary_faces) == 0
        assert b.boundary_vertices.size == 0
        assert len(b.boundary_cycles) == 0

    def test_nonmanifold_boundary_rejected(self):
        # bowtie: two triangles joined only at vertex 2 gives vertex 2 four
        # incident boundary edges
        verts = np.array(
            [[0, 0], [1, 0], [0.5, 0.5], [0, 1], [1, 1]], dtype=float
        )
        simp = np.array([[0, 1, 2], [2, 3, 4]])
        with pytest.raises(ValueError) as info:
            detect_boundary(SimplicialMesh(verts, simp, 2))
        assert str(info.value) == (
            "boundary vertex 2 has 4 incident boundary edges; the boundary is "
            "not a disjoint union of simple loops"
        )

    def test_first_bad_vertex_in_edge_order_is_named(self):
        # vertices 3 and 5 both have four boundary edges; 5 comes first in
        # the edge rows
        edges = np.array(
            [[0, 1], [0, 5], [1, 3], [3, 4], [3, 6], [3, 7], [4, 5], [5, 8],
             [5, 9], [6, 7], [8, 9]]
        )
        with pytest.raises(ValueError, match="^boundary vertex 5 has 4 incident"):
            walk_cycles(edges)

    def test_loops_start_at_their_smallest_vertex(self):
        edges = np.array([[0, 1], [0, 5], [1, 3], [3, 5], [2, 4], [2, 6], [4, 6]])
        assert walk_cycles(edges) == ((0, 1, 3, 5), (2, 4, 6))
        assert walk_cycles(np.zeros((0, 2), dtype=np.int64)) == ()

    def test_annulus_two_cycles(self):
        # square ring of 8 vertices, inner square hole
        outer = np.array([[0, 0], [3, 0], [3, 3], [0, 3]], dtype=float)
        inner = np.array([[1, 1], [2, 1], [2, 2], [1, 2]], dtype=float)
        verts = np.vstack([outer, inner])
        simp = np.array(
            [
                [0, 1, 4], [1, 5, 4],
                [1, 2, 5], [2, 6, 5],
                [2, 3, 6], [3, 7, 6],
                [3, 0, 7], [0, 4, 7],
            ]
        )
        b = detect_boundary(SimplicialMesh(verts, simp, 2))
        assert b.boundary_cycles == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_tet_mesh_boundary_faces(self):
        # two tets sharing a face: 6 of 8 faces on the boundary
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
        )
        simp = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        b = detect_boundary(SimplicialMesh(verts, simp, 3))
        assert len(b.boundary_faces) == 6
        assert b.boundary_cycles is None


def walk_loop(edges):
    """The incidence-dictionary walk: the oracle for ``_walk_boundary_cycles``."""
    incident = {}
    for u, v in edges.tolist():
        incident.setdefault(u, []).append(v)
        incident.setdefault(v, []).append(u)
    for vertex, nbrs in incident.items():
        if len(nbrs) != 2:
            raise ValueError(
                f"boundary vertex {vertex} has {len(nbrs)} incident boundary "
                "edges; the boundary is not a disjoint union of simple loops"
            )
    cycles, visited = [], set()
    for start in sorted(incident):
        if start in visited:
            continue
        loop, prev, cur = [start], start, min(incident[start])
        visited.add(start)
        while cur != start:
            loop.append(cur)
            visited.add(cur)
            a, b = incident[cur]
            prev, cur = cur, b if a == prev else a
        cycles.append(tuple(loop))
    return tuple(cycles)


@st.composite
def boundary_edge_sets(draw):
    """Disjoint loops under random labels, sometimes with extra edges that
    give a vertex three or four boundary edges, rows in any order."""
    sizes = draw(st.lists(st.integers(3, 6), min_size=1, max_size=4))
    labels = draw(st.permutations(range(sum(sizes) + 3)))
    edges, k = [], 0
    for size in sizes:
        ring = labels[k:k + size]
        k += size
        edges += [(ring[i], ring[(i + 1) % size]) for i in range(size)]
    pick = st.sampled_from(labels[:k])
    extra = st.tuples(pick, pick).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(extra, max_size=2))
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return np.array([e[::-1] if f else e for e, f in zip(edges, flips)], dtype=np.int64)


class TestBoundaryWalkOracle:
    @settings(max_examples=300, deadline=None)
    @given(boundary_edge_sets())
    def test_matches_dictionary_walk(self, edges):
        try:
            expected = walk_loop(edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                walk_cycles(edges)
            assert str(info.value) == str(exc)
        else:
            assert walk_cycles(edges) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_relabelled_delaunay_boundary(self, seed):
        mesh, _ = generate(
            GeneratorSpec("paraboloid", (30, 30), seed=seed, triangulation="delaunay2d")
        )
        mesh = relabel(mesh, np.random.default_rng(seed))
        edges = detect_boundary(mesh).boundary_faces
        assert detect_boundary(mesh).boundary_cycles == walk_loop(edges)


class TestDividingSimplices:
    def test_two_triangles_shared_edge(self):
        div = detect_dividing_simplices(two_triangles())
        assert div == [(1, 2)]

    def test_wheel_has_none(self):
        ang = np.arange(5) * 2 * np.pi / 5
        rim = np.column_stack([np.cos(ang), np.sin(ang)])
        verts = np.vstack([rim, [[0.0, 0.0]]])
        simp = np.array([[i, (i + 1) % 5, 5] for i in range(5)])
        assert detect_dividing_simplices(SimplicialMesh(verts, simp, 2)) == []

    def test_grid_4x4_none_and_brute_force(self):
        mesh = grid_mesh(4, 4)
        assert detect_dividing_simplices(mesh) == []
        # brute force: every interior edge must touch an interior vertex
        bset = set(detect_boundary(mesh).boundary_vertices.tolist())
        faces, counts = mesh_faces(mesh)
        for face, cnt in zip(faces.tolist(), counts.tolist()):
            if cnt == 2:
                assert not all(v in bset for v in face)

    def test_grids_stay_strongly_connected(self):
        for nx in range(3, 8):
            for ny in range(3, 8):
                assert detect_dividing_simplices(grid_mesh(nx, ny)) == [], (nx, ny)

    def test_closed_mesh_has_none(self):
        assert detect_dividing_simplices(icosphere(0)) == []

    def test_tet_dividing_face(self):
        # two tets sharing face (1,2,3): all of 1,2,3 are boundary vertices
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
        )
        simp = np.array([[0, 1, 2, 3], [1, 2, 3, 4]])
        div = detect_dividing_simplices(SimplicialMesh(verts, simp, 3))
        assert div == [(1, 2, 3)]


class TestCanonicalOrientation:
    def test_single_simplex(self):
        assert canonical_orientation(triangle_mesh()).tolist() == [1]

    def test_consistent_with_geometry_on_planar_mesh(self):
        # a consistently wound planar mesh: canonical sign times geometric
        # sign must be globally constant
        mesh = grid_mesh(5, 5)
        sign = canonical_orientation(mesh)
        geo = np.array(simplex_orientations_rational(mesh.vertices[mesh.simplices]))
        prods = set((sign * geo).tolist())
        assert len(prods) == 1

    def test_sphere_orientable(self):
        mesh = icosphere(2)
        sign = canonical_orientation(mesh)
        assert set(sign.tolist()) <= {-1, 1}

    def test_scrambled_vertex_order_recovered(self):
        mesh = grid_mesh(4, 4)
        rng = np.random.default_rng(0)
        scrambled = mesh.simplices.copy()
        parity = np.ones(len(scrambled), dtype=np.int64)
        for i in range(len(scrambled)):
            if rng.random() < 0.5:
                scrambled[i, [0, 1]] = scrambled[i, [1, 0]]
                parity[i] = -1
        m2 = SimplicialMesh(mesh.vertices, scrambled, 2)
        s1 = canonical_orientation(mesh)
        s2 = canonical_orientation(m2)
        # swapping two vertices of simplex i must flip its canonical sign
        assert np.array_equal(s1 * parity, s2) or np.array_equal(-s1 * parity, s2)

    def test_mobius_strip_rejected(self):
        with pytest.raises(ValueError, match="orient"):
            canonical_orientation(mobius_strip())


def mobius_strip(n=6, rails=2):
    """A triangulated Mobius band: ``n`` columns of ``rails`` vertices
    across the band, two triangles per cell, the last column joined to the
    first with the rails reversed. The default 6 x 2 band has 12 triangles
    and every interior edge joins its two rims."""
    verts = []
    for i in range(n):
        theta = 2 * np.pi * i / n
        for s in np.linspace(-1.0, 1.0, rails):
            r = 2.0 + 0.5 * s * np.cos(theta / 2)
            z = 0.5 * s * np.sin(theta / 2)
            verts.append([r * np.cos(theta), r * np.sin(theta), z])

    def vid(i, s):
        return rails * (i % n) + s

    tris = []
    for i in range(n):
        for s in range(rails - 1):
            a, b = vid(i, s), vid(i, s + 1)
            if i < n - 1:
                c, d = vid(i + 1, s), vid(i + 1, s + 1)
            else:  # the rails reversed
                c, d = vid(0, rails - 1 - s), vid(0, rails - 2 - s)
            tris.append([a, b, c])
            tris.append([b, d, c])
    return SimplicialMesh(np.array(verts), np.array(tris), 2)


SMALL_MESHES = {
    "grid": grid_mesh(5, 4),
    "sphere": icosphere(1),
    "ball": ball3(2),
}


def geometric_signs(mesh):
    """Orientation of each simplex in space: planar and solid simplices by
    their determinant, sphere triangles by their winding about the origin."""
    points = mesh.vertices[mesh.simplices]
    if mesh.intrinsic_dim == mesh.ambient_dim:
        return np.array(simplex_orientations_rational(points))
    return np.sign(np.linalg.det(points)).astype(np.int64)


def relabel(mesh, rng):
    """The same mesh with permuted vertex ids and simplex order."""
    new_id = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    simplices = new_id[mesh.simplices][rng.permutation(mesh.n_simplices)]
    return SimplicialMesh(vertices, simplices, mesh.intrinsic_dim)


def merge_vertices(mesh, keep, drop):
    """``mesh`` with vertex ``drop`` glued onto vertex ``keep`` and removed."""
    s = np.where(mesh.simplices == drop, keep, mesh.simplices)
    s = s - (s > drop)
    vertices = np.delete(mesh.vertices, drop, axis=0)
    return SimplicialMesh(vertices, s, mesh.intrinsic_dim)


def farthest_from(mesh, v):
    return int(np.argmax(np.linalg.norm(mesh.vertices - mesh.vertices[v], axis=1)))


def union_find_non_manifold(mesh):
    """Brute force for the star graph: for each vertex, a union-find over
    the simplices that hold it, joining the simplices of every face that
    holds it too. The vertices whose star stays in several parts, ascending."""
    d = mesh.intrinsic_dim
    rows = mesh.simplices.tolist()
    faces = {}
    for m, simplex in enumerate(rows):
        for k in range(d + 1):
            faces.setdefault(tuple(sorted(simplex[:k] + simplex[k + 1 :])), []).append(m)
    found = []
    for v in sorted({v for simplex in rows for v in simplex}):
        parent = {m: m for m, simplex in enumerate(rows) if v in simplex}

        def root(m):
            while parent[m] != m:
                m = parent[m]
            return m

        for face, simplices in faces.items():
            if v in face:
                for other in simplices[1:]:
                    parent[root(other)] = root(simplices[0])
        if len({root(m) for m in parent}) > 1:
            found.append(v)
    return found


class TestNonManifoldVertices:
    """A vertex whose star is not connected through faces containing it."""

    def test_sphere_with_two_far_vertices_merged(self):
        sphere = icosphere(1)
        mesh = merge_vertices(sphere, 0, farthest_from(sphere, 0))
        violations = validate_mesh(mesh)
        assert [(v.rule, v.where) for v in violations] == [("non-manifold-vertex", (0,))]
        assert "vertex 0 is non-manifold" in violations[0].detail

    def test_strip_pinched_at_one_vertex(self):
        # a 6 x 2 strip whose two bottom corners become one vertex
        mesh = merge_vertices(grid_mesh(6, 2), 0, 5)
        violations = validate_mesh(mesh)
        assert [(v.rule, v.where) for v in violations] == [("non-manifold-vertex", (0,))]

    def test_bowtie_and_disjoint_parts(self):
        verts = np.array([[0, 0], [1, 0], [0.5, 0.5], [0, 1], [1, 1]], dtype=float)
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2], [2, 3, 4]]), 2)
        rules = [(v.rule, v.where) for v in validate_mesh(mesh)]
        assert rules == [("non-manifold-vertex", (2,)), ("disconnected", (1,))]

    def test_tets_meeting_at_a_vertex_or_an_edge(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
             [-1, 0, 0], [0, -1, 0], [0, 0, -1]], dtype=float
        )
        at_vertex = SimplicialMesh(verts, np.array([[0, 1, 2, 3], [0, 4, 5, 6]]), 3)
        rules = [(v.rule, v.where) for v in validate_mesh(at_vertex)]
        assert rules == [("non-manifold-vertex", (0,)), ("disconnected", (1,))]
        assert "_orientation" not in at_vertex.__dict__
        at_edge = SimplicialMesh(verts, np.array([[0, 1, 2, 3], [0, 1, 5, 6]]), 3)
        found = [v.where for v in validate_mesh(at_edge) if v.rule == "non-manifold-vertex"]
        assert found == [(0,), (1,)]

    def test_ball_with_two_boundary_vertices_merged(self):
        ball = ball3(3)
        top = int(np.argmax(ball.vertices[:, 2]))
        mesh = merge_vertices(ball, top, farthest_from(ball, top))
        kept = top - (top > farthest_from(ball, top))
        violations = validate_mesh(mesh)
        assert [(v.rule, v.where) for v in violations] == [("non-manifold-vertex", (kept,))]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SMALL_MESHES)), st.integers(0, 2**32 - 1))
    def test_merged_vertices_match_a_union_find_oracle(self, name, seed):
        # merging two vertices pinches the mesh, or, when they share a
        # simplex, repeats a vertex in it; the relabelling moves every id
        # and simplex the star graph's bookkeeping reads
        rng = np.random.default_rng(seed)
        base = SMALL_MESHES[name]
        keep, drop = rng.choice(base.n_vertices, 2, replace=False).tolist()
        mesh = relabel(merge_vertices(base, keep, drop), rng)
        found = [v.where for v in validate_mesh(mesh) if v.rule == "non-manifold-vertex"]
        assert found == [(v,) for v in union_find_non_manifold(mesh)]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(SMALL_MESHES)), st.integers(0, 2**32 - 1))
    def test_relabelled_meshes_stay_manifold(self, name, seed):
        assert validate_mesh(relabel(SMALL_MESHES[name], np.random.default_rng(seed))) == []

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_every_generator_output_is_violation_free(self, kind):
        resolution = {"sphere": (1,), "ball3": (3,)}.get(kind, (5, 4))
        mesh, _ = generate(GeneratorSpec(kind, resolution))
        assert validate_mesh(mesh) == []


def fresh(mesh):
    """The same arrays in a new mesh object, with nothing cached."""
    return SimplicialMesh(mesh.vertices, mesh.simplices, mesh.intrinsic_dim)


def count_component_passes(monkeypatch):
    """A list that gains one entry per ``connected_components`` call the
    simplicial module makes from now on."""
    calls = []
    real = simplicial.connected_components
    monkeypatch.setattr(
        simplicial,
        "connected_components",
        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs),
    )
    return calls


def count_partner_builds(monkeypatch):
    """A list that gains one entry per side-partner array the simplicial
    module builds from now on."""
    calls = []
    real = simplicial._side_partners
    monkeypatch.setattr(
        simplicial, "_side_partners", lambda *args: calls.append(1) or real(*args)
    )
    return calls


def orientation_error(mesh):
    with pytest.raises(ValueError) as caught:
        canonical_orientation(mesh)
    return str(caught.value)


class TestSharedPass:
    """validate_mesh and the orientation read one cached double-cover pass."""

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_stored_signs_equal_the_property(self, kind, seed, monkeypatch):
        resolution = {"sphere": (2,), "ball3": (3,)}.get(kind, (6, 5))
        mesh, _ = generate(GeneratorSpec(kind, resolution))
        if seed is not None:
            mesh = relabel(mesh, np.random.default_rng(seed))
        assert validate_mesh(mesh) == []
        # validation stores no signs, yet leaves the cover pass they need
        assert "_orientation" not in mesh.__dict__
        calls = count_component_passes(monkeypatch)
        signs = canonical_orientation(mesh)
        assert calls == []
        monkeypatch.undo()
        standalone = canonical_orientation(fresh(mesh))
        assert signs.dtype == standalone.dtype
        assert np.array_equal(signs, standalone)
        with pytest.raises(ValueError, match="read-only"):
            signs[0] = 0

    @pytest.mark.parametrize("kind", ["paraboloid", "sphere", "ball3"])
    def test_one_cover_pass_from_embedding_through_audit(self, kind, monkeypatch):
        # run_fplm validates (star graph, then cover) and the audit reads
        # the cached cover labels: two passes in all, none in the audit
        resolution = {"sphere": (2,), "ball3": (3,)}.get(kind, (6, 5))
        mesh = fresh(generate(GeneratorSpec(kind, resolution))[0])
        calls = count_component_passes(monkeypatch)
        partners = count_partner_builds(monkeypatch)
        embedding = run_fplm(mesh)
        assert len(calls) == 2
        assert audit(mesh, embedding).verdict == "injective-certified"
        assert len(calls) == 2
        # both graphs read the one partner array of the face table
        assert len(partners) == 1

    @pytest.mark.parametrize("kind", ["paraboloid", "sphere", "ball3"])
    def test_generated_mesh_is_validated_once(self, kind, monkeypatch):
        # generate judges none of its output; run_fplm validates the mesh
        # (star graph, then cover), and the audit and validate_mesh read
        # the cached result
        resolution = {"sphere": (2,), "ball3": (3,)}.get(kind, (6, 5))
        calls = count_component_passes(monkeypatch)
        mesh = generate(GeneratorSpec(kind, resolution))[0]
        assert calls == []
        assert "_violations" not in mesh.__dict__
        embedding = run_fplm(mesh)
        assert len(calls) == 2
        assert audit(mesh, embedding).verdict == "injective-certified"
        assert validate_mesh(mesh) == []
        assert len(calls) == 2

    def test_violations_are_cached_and_callers_get_copies(self, monkeypatch):
        verts = np.array(
            [[0, 0], [1, 0], [0, 1], [10, 10], [11, 10], [10, 11]], dtype=float
        )
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]), 2)
        found = validate_mesh(mesh)
        assert [v.rule for v in found] == ["disconnected"]
        assert mesh._violations == tuple(found)
        found.clear()
        calls = count_component_passes(monkeypatch)
        assert [v.rule for v in validate_mesh(mesh)] == ["disconnected"]
        assert calls == []

    def test_mobius_strip_keeps_the_property_error(self):
        mesh = mobius_strip()
        assert validate_mesh(mesh) == []  # manifold and face-connected
        assert "_orientation" not in mesh.__dict__
        message = orientation_error(mesh)
        assert message == orientation_error(fresh(mesh))
        assert message.startswith("mesh is combinatorially non-orientable")

    def test_two_disjoint_triangles_keep_the_property_error(self):
        verts = np.array(
            [[0, 0], [1, 0], [0, 1], [10, 10], [11, 10], [10, 11]], dtype=float
        )
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]), 2)
        assert [(v.rule, v.where) for v in validate_mesh(mesh)] == [("disconnected", (1,))]
        assert "_orientation" not in mesh.__dict__
        message = orientation_error(mesh)
        assert message == orientation_error(fresh(mesh))
        assert message.endswith("the mesh is not face-connected")

    def test_overshared_face_keeps_the_property_error(self):
        verts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [1.5, 1.0], [-0.5, 1.0]]
        )
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2], [1, 3, 2], [1, 2, 4]]), 2)
        assert [v.rule for v in validate_mesh(mesh)] == ["face-overshared"]
        assert "_orientation" not in mesh.__dict__
        message = orientation_error(mesh)
        assert message == orientation_error(fresh(mesh))
        assert message == "face (1, 2) is shared by 3 simplices; orientation is undefined"

    @pytest.mark.parametrize(
        "simplices, dim, signs",
        [
            ([[0, 1, 2], [0, 1, 2]], 2, [1, -1]),
            ([[0, 1, 2], [0, 2, 1]], 2, [1, 1]),
            ([[0, 1, 2, 3], [1, 0, 2, 3]], 3, [1, 1]),
        ],
    )
    def test_simplices_on_one_vertex_set(self, simplices, dim, signs):
        # two simplices sharing every face list each other in several slots
        # of one node; the pass must end and agree with the property
        verts = np.eye(dim + 1, dim)
        mesh = SimplicialMesh(verts, np.array(simplices), dim)
        assert validate_mesh(mesh) == []
        assert canonical_orientation(mesh).tolist() == signs
        assert canonical_orientation(fresh(mesh)).tolist() == signs

    def test_violations_keep_the_property_uncached(self):
        verts = np.array(grid_mesh(4, 4).vertices)
        verts[5, 0] = np.nan
        mesh = SimplicialMesh(verts, grid_mesh(4, 4).simplices, 2)
        assert [v.rule for v in validate_mesh(mesh)] == ["non-finite-vertex"]
        assert "_orientation" not in mesh.__dict__
        assert np.array_equal(canonical_orientation(mesh), canonical_orientation(grid_mesh(4, 4)))


class TestVectorisedTopology:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(SMALL_MESHES)), st.integers(0, 2**32 - 1))
    def test_orientation_follows_geometry_and_vertex_swaps(self, name, seed):
        rng = np.random.default_rng(seed)
        mesh = relabel(SMALL_MESHES[name], rng)
        sign = canonical_orientation(mesh)
        assert sign[0] == 1
        assert len(set((sign * geometric_signs(mesh)).tolist())) == 1

        swapped = rng.random(mesh.n_simplices) < 0.5
        simplices = mesh.simplices.copy()
        simplices[swapped, :2] = simplices[swapped, 1::-1]
        other = SimplicialMesh(mesh.vertices, simplices, mesh.intrinsic_dim)
        flip = np.where(swapped, -1, 1)
        s2 = canonical_orientation(other)
        assert np.array_equal(s2, sign * flip) or np.array_equal(s2, -sign * flip)
        assert len(set((s2 * geometric_signs(other)).tolist())) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(SMALL_MESHES)), st.integers(0, 2**32 - 1))
    def test_orientation_reads_the_face_table_order(self, name, seed):
        # the table's side partners equal those of a brute-force grouping of
        # the sides by face id, and the signs make the two sides of every
        # interior face induce opposite orientations
        mesh = relabel(SMALL_MESHES[name], np.random.default_rng(seed))
        table = mesh._face_table
        partner = face_partners(unique_rows_face_table(mesh)[2])
        assert np.array_equal(table.partner, partner)
        width = mesh.intrinsic_dim + 1
        p1 = np.flatnonzero(partner > np.arange(partner.size))  # first of two sides
        p2 = partner[p1]
        m1, m2 = p1 // width, p2 // width
        sign = canonical_orientation(mesh)
        parity = table.parity.ravel()
        assert np.array_equal(sign[m1] * parity[p1], -sign[m2] * parity[p2])
        assert sign[0] == 1

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(SMALL_MESHES)), st.integers(0, 2**32 - 1))
    def test_disjoint_union_reports_lowest_unreachable_simplex(self, name, seed):
        rng = np.random.default_rng(seed)
        part = SMALL_MESHES[name]
        shifted = part.vertices + 10.0
        vertices = np.vstack([part.vertices, shifted])
        stacked = np.vstack([part.simplices, part.simplices + part.n_vertices])
        order = rng.permutation(len(stacked))
        mesh = SimplicialMesh(vertices, stacked[order], part.intrinsic_dim)
        half = order >= part.n_simplices  # which copy each simplex came from
        expected = int(np.flatnonzero(half != half[0])[0])
        violations = validate_mesh(mesh)
        assert [(v.rule, v.where) for v in violations] == [("disconnected", (expected,))]
        with pytest.raises(ValueError, match="not face-connected"):
            canonical_orientation(mesh)

    def test_overshared_face_rejected_by_orientation(self):
        verts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [1.5, 1.0], [-0.5, 1.0]]
        )
        simp = np.array([[0, 1, 2], [1, 3, 2], [1, 2, 4]])
        with pytest.raises(ValueError, match="shared by 3 simplices"):
            canonical_orientation(SimplicialMesh(verts, simp, 2))

    @pytest.mark.parametrize("name", sorted(SMALL_MESHES))
    def test_cached_arrays_are_read_only(self, name):
        mesh = relabel(SMALL_MESHES[name], np.random.default_rng(1))
        faces, counts = mesh_faces(mesh)
        boundary = detect_boundary(mesh)
        table = mesh._face_table
        cached = [
            faces,
            counts,
            table.parity,
            mesh_edges(mesh),
            boundary.boundary_faces,
            boundary.boundary_vertices,
            canonical_orientation(mesh),
            table.partner,
            table.local,
        ]
        for array in cached:
            with pytest.raises(ValueError, match="read-only"):
                array.reshape(-1)[:1] = 0
        # repeated calls hand out the same cached objects
        assert mesh_faces(mesh)[0] is faces
        assert mesh_edges(mesh) is cached[3]
        assert detect_boundary(mesh) is boundary
        assert canonical_orientation(mesh) is cached[6]

    @pytest.mark.parametrize("name", sorted(SMALL_MESHES))
    def test_face_table_matches_brute_force_incidence(self, name):
        # the parity comes from the sorting network's swaps, whose depth
        # differs with d: one compare-exchange sorts a triangle's edge,
        # three a tetrahedron's face
        mesh = relabel(SMALL_MESHES[name], np.random.default_rng(2))
        table = mesh._face_table
        face_of = table_face_of(mesh)
        d = mesh.intrinsic_dim
        incidence = {}
        for m, simplex in enumerate(mesh.simplices.tolist()):
            for k in range(d + 1):
                face = simplex[:k] + simplex[k + 1 :]
                inversions = sum(
                    face[i] > face[j] for i in range(d) for j in range(i + 1, d)
                )
                parity = (-1) ** (inversions + k)
                key = tuple(sorted(face))
                incidence.setdefault(key, []).append(m)
                assert tuple(table.faces[face_of[m, k]]) == key
                assert table.parity[m, k] == parity
        assert [tuple(f) for f in table.faces.tolist()] == sorted(incidence)
        assert table.counts.tolist() == [len(incidence[f]) for f in sorted(incidence)]


def unique_rows_face_table(mesh):
    """Reference face table: np.unique over the sorted face rows."""
    d = mesh.intrinsic_dim
    omit = [[j for j in range(d + 1) if j != k] for k in range(d + 1)]
    rows = np.sort(mesh.simplices[:, omit], axis=2).reshape(-1, d)
    faces, inverse, counts = np.unique(
        rows, axis=0, return_inverse=True, return_counts=True
    )
    return faces, counts, inverse.reshape(mesh.simplices.shape)


def table_face_of(mesh):
    """The row of the table's ``faces`` holding each simplex side, looked up
    by the side's vertices in the table's ``local`` order."""
    table = mesh._face_table
    sides = np.repeat(mesh.simplices, mesh.intrinsic_dim + 1, axis=0)
    rows = np.take_along_axis(sides, table.local.astype(np.intp), axis=1)
    row_of = {face: f for f, face in enumerate(map(tuple, table.faces.tolist()))}
    face_of = [row_of[row] for row in map(tuple, rows.tolist())]
    return np.array(face_of, dtype=np.intp).reshape(table.parity.shape)


def face_partners(face_of):
    """Reference side partners: each side's next side on its face, in side
    order and cyclically, from a brute-force grouping of the sides by face."""
    sides = {}
    for p, f in enumerate(face_of.ravel().tolist()):
        sides.setdefault(f, []).append(p)
    partner = np.empty(face_of.size, dtype=np.int64)
    for group in sides.values():
        partner[group] = group[1:] + group[:1]
    return partner


@st.composite
def random_simplices(draw):
    """Simplices over a few non-contiguous vertex ids: small pools make
    faces shared by three or more simplices, and rows may repeat a vertex."""
    d = draw(st.integers(2, 3))
    pool = draw(
        st.lists(st.integers(0, 999), min_size=1, max_size=d + 3, unique=True)
    )
    simplices = draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=d + 1, max_size=d + 1),
            min_size=1,
            max_size=30,
        )
    )
    return d, simplices


class TestSortedFaceTable:
    @settings(max_examples=150, deadline=None)
    @given(random_simplices())
    @example((2, [[7, 3, 500]] * 3 + [[3, 7, 9]]))  # edge (3, 7) in four triangles
    @example((3, [[5, 5, 2, 900], [900, 2, 5, 1]]))  # a tet that repeats a vertex
    def test_matches_unique_rows_reference(self, case):
        d, simplices = case
        mesh = SimplicialMesh(np.zeros((1000, d)), np.array(simplices), d)
        table = mesh._face_table
        faces, counts, face_of = unique_rows_face_table(mesh)
        for got, want in ((table.faces, faces), (table.counts, counts),
                          (table_face_of(mesh), face_of)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # the partners join each face's sides in a cycle, in side order
        assert np.array_equal(table.partner, face_partners(face_of))
        # each side's vertex order is a stable sort of the other columns of
        # its simplex by vertex id: tied vertices stay in column order
        side = np.arange(face_of.size)
        others = np.array([[j for j in range(d + 1) if j != k] for k in side % (d + 1)])
        ids = np.take_along_axis(mesh.simplices[side // (d + 1)], others, 1)
        by_id = np.argsort(ids, axis=1, kind="stable")
        assert np.array_equal(table.local, np.take_along_axis(others, by_id, 1))

    def test_three_column_faces_past_2_21_vertex_ids(self):
        # a packed c0 n^2 + c1 n + c2 key would overflow int64 here
        # (n^3 > 2^63 past 2^21 vertices); the rank keys stay below sides * n
        n = 2**21 + 10
        assert (n - 1) ** 3 > 2**63
        rng = np.random.default_rng(7)
        pool = np.concatenate([np.arange(6), n - 1 - np.arange(6)])
        simplices = np.array([rng.choice(pool, 4, replace=False) for _ in range(300)])
        mesh = SimplicialMesh(np.zeros((n, 3)), simplices, 3)
        table = mesh._face_table
        faces, counts, face_of = unique_rows_face_table(mesh)
        assert (faces.max(axis=0) >= n - 6).all()
        assert np.array_equal(table.faces, faces)
        assert np.array_equal(table.counts, counts)
        assert np.array_equal(table_face_of(mesh), face_of)
        assert np.array_equal(table.partner, face_partners(face_of))

    @settings(max_examples=150, deadline=None)
    @given(random_simplices())
    @example((3, [[5, 5, 2, 900], [900, 2, 5, 1]]))
    def test_edges_match_unique_rows_reference(self, case):
        d, simplices = case
        mesh = SimplicialMesh(np.zeros((1000, d)), np.array(simplices), d)
        pairs = [[i, j] for i in range(d + 1) for j in range(i + 1, d + 1)]
        ends = np.sort(mesh.simplices[:, pairs].reshape(-1, 2), axis=1)
        want = np.unique(ends, axis=0)
        got = mesh_edges(mesh)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_empty_mesh_reports_empty_without_traceback(self):
        mesh = SimplicialMesh(np.zeros((3, 2)), np.zeros((0, 3), dtype=int), 2)
        assert [v.rule for v in validate_mesh(mesh)] == ["empty"]
        faces, counts = mesh_faces(mesh)
        assert faces.shape == (0, 2) and counts.shape == (0,)
        assert mesh._face_table.parity.shape == (0, 3)
        assert mesh._face_table.partner.shape == (0,)


class TestEulerFormula:
    def test_disk_meshes(self):
        for mesh in (triangle_mesh(), two_triangles(), grid_mesh(4, 5), grid_mesh(7, 3)):
            v = mesh.n_vertices
            e = len(mesh_edges(mesh))
            f = mesh.n_simplices
            assert v - e + f == 1

    def test_sphere(self):
        for level in (0, 1, 2):
            mesh = icosphere(level)
            v = mesh.n_vertices
            e = len(mesh_edges(mesh))
            f = mesh.n_simplices
            assert v - e + f == 2


def triangulate_polygon_faces(faces, vertices):
    """``triangulate_flat_faces`` on a list of faces, laid end to end."""
    sizes = np.array([len(face) for face in faces], dtype=np.int64)
    flat = np.array([v for face in faces for v in face], dtype=np.int64)
    return triangulate_flat_faces(flat, sizes, vertices)


class TestTriangulatePolygonFaces:
    def test_quad_fan(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
        mesh = triangulate_polygon_faces([[0, 1, 2, 3]], verts)
        got = {tuple(t) for t in mesh.simplices.tolist()}
        assert got == {(0, 1, 2), (0, 2, 3)}

    def test_triangle_identity(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        mesh = triangulate_polygon_faces([[0, 1, 2]], verts)
        assert mesh.simplices.tolist() == [[0, 1, 2]]

    def test_hexagon_fan(self):
        ang = np.arange(6) * np.pi / 3
        verts = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(6)])
        mesh = triangulate_polygon_faces([[0, 1, 2, 3, 4, 5]], verts)
        got = [tuple(t) for t in mesh.simplices.tolist()]
        assert got == [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)]

    def test_fan_from_lowest_index(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float
        )
        mesh = triangulate_polygon_faces([[2, 3, 0, 1]], verts)
        # rotated so the fan apex is the lowest index, preserving cyclic order
        got = {tuple(t) for t in mesh.simplices.tolist()}
        assert got == {(0, 1, 2), (0, 2, 3)}

    def test_mixed_polygons_match_scalar_fan(self):
        rng = np.random.default_rng(4)
        faces = [list(rng.permutation(12)[: int(k)]) for k in rng.integers(3, 9, 40)]
        mesh = triangulate_polygon_faces(faces, np.zeros((12, 3)))
        want = []
        for face in faces:
            pivot = face.index(min(face))
            rotated = face[pivot:] + face[:pivot]
            want += [
                [rotated[0], rotated[k], rotated[k + 1]] for k in range(1, len(face) - 1)
            ]
        assert mesh.simplices.tolist() == want

    def test_first_offending_face_reported(self):
        verts = np.zeros((6, 3))
        with pytest.raises(ValueError, match="face 1 .* repeats a vertex"):
            triangulate_polygon_faces([[0, 1, 2], [3, 4, 3, 5], [0, 1]], verts)
        with pytest.raises(ValueError, match="face 1 has 2 vertices"):
            triangulate_polygon_faces([[0, 1, 2], [4, 5], [3, 3, 5]], verts)

    def test_rejects_degenerate_faces(self):
        verts = np.zeros((4, 3))
        with pytest.raises(ValueError):
            triangulate_polygon_faces([[0, 1]], verts)
        with pytest.raises(ValueError):
            triangulate_polygon_faces([[0, 1, 1]], verts)

    def test_boundary_consistency_with_quad_tessellation(self):
        # cube surface as 6 quads: triangulated mesh must be closed
        corners = np.array(
            [
                [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
            ],
            dtype=float,
        )
        quads = [
            [0, 3, 2, 1], [4, 5, 6, 7],
            [0, 1, 5, 4], [2, 3, 7, 6],
            [1, 2, 6, 5], [3, 0, 4, 7],
        ]
        mesh = triangulate_polygon_faces(quads, corners)
        assert mesh.n_simplices == 12
        assert len(detect_boundary(mesh).boundary_faces) == 0
