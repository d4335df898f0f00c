"""Mesh generator tests: surfaces, sphere, solid ball, Delaunay."""

import hashlib
import itertools

import numpy as np
import pytest

from delaunay_oracle import incircle
from fplm.generators import (
    GeneratorSpec,
    _icosahedron,
    _kuhn_tets,
    ball3,
    delaunay2d,
    generate,
    icosphere,
    structured_grid_triangles,
)
from fplm.meshio import mesh_to_json
from fplm.simplicial import (
    SimplicialMesh,
    canonical_orientation,
    detect_boundary,
    detect_dividing_simplices,
    mesh_faces,
    validate_mesh,
)
from orientation_oracle import orient2d_rational, simplex_orientations_rational


class TestGeneratorSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            GeneratorSpec("donut", (4, 4))

    def test_unknown_triangulation(self):
        with pytest.raises(ValueError, match="triangulation"):
            GeneratorSpec("grid-disk", (4, 4), triangulation="fan")

    def test_scalar_resolution_normalized(self):
        spec = GeneratorSpec("sphere", 2)
        assert spec.resolution == (2,)

    def test_nonpositive_resolution(self):
        with pytest.raises(ValueError, match="positive"):
            GeneratorSpec("grid-disk", (0, 4))


def grid_loop(nx, ny):
    """The per-cell loop of ``structured_grid_triangles``: its oracle."""
    tris = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a, b = j * nx + i, j * nx + i + 1
            c, d = a + nx, b + nx
            if (i == 0 and j == ny - 2) or (i == nx - 2 and j == 0):
                tris += [(a, b, c), (b, d, c)]
            else:
                tris += [(a, b, d), (a, d, c)]
    return np.array(tris, dtype=np.int64)


def icosphere_loop(level):
    """Subdivision with a midpoint dictionary: the oracle for ``icosphere``."""
    verts, faces = _icosahedron()
    verts = [tuple(v) for v in verts]
    faces = [tuple(f) for f in faces.tolist()]
    for _ in range(level):
        midpoint = {}

        def mid(u, v):
            key = (min(u, v), max(u, v))
            if key not in midpoint:
                p = np.array(verts[u]) + np.array(verts[v])
                midpoint[key] = len(verts)
                verts.append(tuple(p / np.linalg.norm(p)))
            return midpoint[key]

        next_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            next_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = next_faces
    return np.array(verts), np.array(faces, dtype=np.int64)


class TestSurfaces:
    @pytest.mark.parametrize("nx, ny", [(2, 2), (2, 5), (5, 2), (3, 3), (4, 7), (9, 6)])
    def test_grid_matches_cell_loop(self, nx, ny):
        tris = structured_grid_triangles(nx, ny)
        assert tris.dtype == np.int64
        assert np.array_equal(tris, grid_loop(nx, ny))

    def test_grid_disk_two_by_two(self):
        mesh, latent = generate(GeneratorSpec("grid-disk", (2, 2)))
        assert mesh.n_vertices == 4
        assert mesh.n_simplices == 2
        assert latent.shape == (4, 2)
        np.testing.assert_array_equal(mesh.vertices[:, 2], 0.0)

    def test_heights_match_formulas(self):
        nx = ny = 7
        for kind, f in (
            ("paraboloid", lambda u, v: u**2 + v**2),
            ("monkey-saddle", lambda u, v: u**3 - 3 * u * v**2),
            ("twin-peaks", lambda u, v: np.sin(np.pi * u) * np.tanh(3 * v)),
        ):
            mesh, latent = generate(GeneratorSpec(kind, (nx, ny)))
            u, v = latent[:, 0], latent[:, 1]
            np.testing.assert_array_equal(mesh.vertices[:, 0], u)
            np.testing.assert_array_equal(mesh.vertices[:, 1], v)
            np.testing.assert_array_equal(mesh.vertices[:, 2], f(u, v))

    def test_latent_rectangle(self):
        mesh, latent = generate(GeneratorSpec("paraboloid", (5, 5)))
        assert latent.min() == -1.0
        assert latent.max() == 1.0

    def test_swiss_roll_geometry(self):
        mesh, latent = generate(GeneratorSpec("swiss-roll", (8, 6)))
        t, h = latent[:, 0], latent[:, 1]
        assert t.min() == pytest.approx(1.5 * np.pi)
        assert t.max() == pytest.approx(4.5 * np.pi)
        assert h.min() == 0.0
        assert h.max() == 10.0
        radius = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 2])
        np.testing.assert_allclose(radius, t, rtol=1e-12)
        np.testing.assert_array_equal(mesh.vertices[:, 1], h)

    def test_surfaces_strongly_connected_from_3x3(self):
        for kind in ("grid-disk", "paraboloid", "monkey-saddle", "twin-peaks"):
            mesh, _ = generate(GeneratorSpec(kind, (3, 3)))
            assert detect_dividing_simplices(mesh) == []

    def test_too_small_resolution(self):
        with pytest.raises(ValueError, match="at least"):
            generate(GeneratorSpec("grid-disk", (1, 5)))

    def test_structured_grid_triangle_count(self):
        for nx, ny in ((2, 2), (3, 5), (6, 4)):
            tris = structured_grid_triangles(nx, ny)
            assert len(tris) == 2 * (nx - 1) * (ny - 1)

    def test_delaunay_triangulation_valid(self):
        mesh, latent = generate(
            GeneratorSpec("twin-peaks", (6, 6), seed=3, triangulation="delaunay2d")
        )
        assert validate_mesh(mesh) == []
        assert mesh.n_vertices == 36

    def test_delaunay_deterministic_per_seed(self):
        a, la = generate(
            GeneratorSpec("grid-disk", (5, 5), seed=7, triangulation="delaunay2d")
        )
        b, lb = generate(
            GeneratorSpec("grid-disk", (5, 5), seed=7, triangulation="delaunay2d")
        )
        assert la.tobytes() == lb.tobytes()
        assert a.simplices.tobytes() == b.simplices.tobytes()
        c, lc = generate(
            GeneratorSpec("grid-disk", (5, 5), seed=8, triangulation="delaunay2d")
        )
        assert la.tobytes() != lc.tobytes()


class TestIcosphere:
    def test_level_zero_is_icosahedron(self):
        mesh = icosphere(0)
        assert mesh.n_vertices == 12
        assert mesh.n_simplices == 20

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_counts_follow_subdivision(self, level):
        mesh = icosphere(level)
        assert mesh.n_simplices == 20 * 4**level
        assert mesh.n_vertices == 10 * 4**level + 2

    def test_closed_and_valid(self):
        mesh = icosphere(2)
        assert validate_mesh(mesh) == []
        assert detect_boundary(mesh).boundary_vertices.size == 0

    def test_vertices_on_unit_sphere(self):
        mesh = icosphere(2)
        np.testing.assert_allclose(
            np.linalg.norm(mesh.vertices, axis=1), 1.0, rtol=1e-12
        )

    def test_orientable(self):
        sign = canonical_orientation(icosphere(1))
        assert set(sign.tolist()) <= {-1, 1}

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            icosphere(-1)

    @pytest.mark.parametrize("level", range(5))
    def test_matches_midpoint_dictionary_bit_for_bit(self, level):
        verts, faces = icosphere_loop(level)
        mesh = icosphere(level)
        assert mesh.vertices.tobytes() == verts.tobytes()
        assert np.array_equal(mesh.simplices, faces)


# sha256 of mesh_to_json, pinned byte for byte. The lifts of monkey-saddle
# (u**3), twin-peaks (tanh) and swiss-roll (sin, cos) run through numpy's
# SIMD loops, whose last bits vary with the CPU, so for those kinds the
# digest covers the simplices over the latent points instead (the same for
# monkey-saddle and twin-peaks, which share both).
_LIFTED = ("monkey-saddle", "twin-peaks", "swiss-roll")
_GENERATED_DIGESTS = [
    ("grid-disk", (4, 3), "structured-grid", "5d766c3c83372b9931ac05db28b7cf1870c8074878fa85d2ae6390c64897ba8e"),
    ("grid-disk", (6, 5), "structured-grid", "92391c30b2753c3df990a89506b881a0a72a0d26c5de19ba5663fe19a7459a2d"),
    ("grid-disk", (4, 3), "delaunay2d", "eff3ee9761423a50e781cec54b17e05c375fad522091800bbabdbd02419248e3"),
    ("grid-disk", (6, 5), "delaunay2d", "4e4adc8864db1552abe3e47801b7721378d6015577bb72b6092015524154cd8a"),
    ("paraboloid", (4, 3), "structured-grid", "208a59ca5ee5872d7e202b0671ebca0b46760708269e466d8e6ad183c45a2bae"),
    ("paraboloid", (6, 5), "structured-grid", "79194f31ee837d74bb436d78a2cfa5f564bab8186f79fa82a20a1ad962711616"),
    ("paraboloid", (4, 3), "delaunay2d", "d380ac86825b768105aa6f535d9c944cea32a2cc98fa7078d9e3bac88b2b57c8"),
    ("paraboloid", (6, 5), "delaunay2d", "faab4d8eb048c3874025147db1ce12cdbcf9a8efc72a7dca496cf991a2ad462c"),
    ("monkey-saddle", (4, 3), "structured-grid", "94e13b1bb860025f309626b8662dc098644588abe192881ae42c2bc4c5b0ae12"),
    ("monkey-saddle", (6, 5), "structured-grid", "2aa2613a32ab3706549ff3a6a92d70502d901da630923f4bf25d1e1751858561"),
    ("monkey-saddle", (4, 3), "delaunay2d", "b51d35cdae008373f43e4dbf3f03bbab7bab03c5f3b1ca4f8db2167f87068781"),
    ("monkey-saddle", (6, 5), "delaunay2d", "8ca41fd9a30ca238075ff3a7e8309812ea4593dddeae8c498e0450ea3fd175d8"),
    ("twin-peaks", (4, 3), "structured-grid", "94e13b1bb860025f309626b8662dc098644588abe192881ae42c2bc4c5b0ae12"),
    ("twin-peaks", (6, 5), "structured-grid", "2aa2613a32ab3706549ff3a6a92d70502d901da630923f4bf25d1e1751858561"),
    ("twin-peaks", (4, 3), "delaunay2d", "b51d35cdae008373f43e4dbf3f03bbab7bab03c5f3b1ca4f8db2167f87068781"),
    ("twin-peaks", (6, 5), "delaunay2d", "8ca41fd9a30ca238075ff3a7e8309812ea4593dddeae8c498e0450ea3fd175d8"),
    ("swiss-roll", (4, 3), "structured-grid", "40b830a97cf5feaf2784117054b56bc80e04a700a9bcd169abb1be3242a21d16"),
    ("swiss-roll", (6, 5), "structured-grid", "d679127ed5856cc7d503db200a7baf8e11fb8dc678bb896015adb6e4346b2590"),
    ("swiss-roll", (4, 3), "delaunay2d", "c0051937e60aeedd7d264e74327d1b54da93f82fa36c35824848545a40c1d447"),
    ("swiss-roll", (6, 5), "delaunay2d", "2e62486dc9781230ef9aff9326788e0e82657df2414a6c1e016a1b47b3e1f1f0"),
    ("ball3", (2,), "structured-grid", "c577a9fad27e8f722c0e8cf5f5511d6b1abe5fe8b2b338d06adfddfd7ea12dde"),
    ("ball3", (3,), "structured-grid", "afa712c1edbc0690659dbfe0bfd3b5569335b70d18311ee571c5a24def736369"),
]
_ICOSPHERE_DIGESTS = [
    "8b35e17391f523ec9ad56fcf6a5f255a5a89ab448418bfeaa59aad8854f1c460",
    "4909cf1e6098133756f398fc77ea00425bdd86d6218c06bedf875e978c8d4f17",
    "bf95692a9e23ad5bf36546f0dc1539bd89b797326502119b6be5acd580720f3d",
    "128a4f3c4f3b11af4d077ec3f863c2ea15d4bb0b7df65181c1cb025ceb0468f4",
    "337e9773737b4ec989ef5cb522013e9b3413ad6cd5fd13c4bf69ef13d1807199",
    "86f1fbc3311b95b6737edcb0f82af77fb1de33b34ce1bd02c0fec5d6fccc7ca7",
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedBytes:
    @pytest.mark.parametrize("kind, res, triangulation, digest", _GENERATED_DIGESTS)
    def test_generated_mesh_json(self, kind, res, triangulation, digest):
        mesh, latent = generate(GeneratorSpec(kind, res, triangulation=triangulation))
        if kind in _LIFTED:
            mesh = SimplicialMesh(latent, mesh.simplices, 2)
        assert _sha256(mesh_to_json(mesh)) == digest

    @pytest.mark.parametrize("level, digest", enumerate(_ICOSPHERE_DIGESTS))
    def test_icosphere_json(self, level, digest):
        assert _sha256(mesh_to_json(icosphere(level))) == digest


def ball3_loop(resolution):
    """The triple-loop ``ball3`` construction: the oracle for the vectorised one."""
    n = resolution + 1
    axis = np.linspace(-1.0, 1.0, n)

    def vid(i, j, k):
        return (k * n + j) * n + i

    verts = np.array(
        [[axis[i], axis[j], axis[k]] for k in range(n) for j in range(n) for i in range(n)]
    )
    tets = []
    for k in range(resolution):
        for j in range(resolution):
            for i in range(resolution):
                flip = tuple(
                    1 if axis[c] + axis[c + 1] < 0.0 else 0 for c in (i, j, k)
                )
                for tet in _kuhn_tets(flip):
                    tets.append(
                        [vid(i + dx, j + dy, k + dz) for dx, dy, dz in tet]
                    )
    norm2 = np.linalg.norm(verts, axis=1)
    norm_inf = np.abs(verts).max(axis=1)
    safe = np.where(norm2 > 0.0, norm2, 1.0)
    scale = np.where(norm2 > 0.0, norm_inf / safe, 0.0)
    return verts * scale[:, None], np.asarray(tets, dtype=np.int64)


class TestBall3:
    @pytest.mark.parametrize("res", [2, 3, 4, 5, 6, 7, 10])
    def test_matches_loop_construction_bit_for_bit(self, res):
        verts, tets = ball3_loop(res)
        mesh = ball3(res)
        assert mesh.vertices.tobytes() == verts.tobytes()
        assert mesh.simplices.dtype == tets.dtype
        np.testing.assert_array_equal(mesh.simplices, tets)

    def test_minimum_resolution(self):
        with pytest.raises(ValueError, match="at least 2"):
            ball3(1)

    def test_res2_counts(self):
        mesh = ball3(2)
        assert mesh.n_vertices == 27
        assert mesh.n_simplices == 48

    @pytest.mark.parametrize("res", [2, 3, 4])
    def test_counts_scale_with_resolution(self, res):
        mesh = ball3(res)
        assert mesh.n_vertices == (res + 1) ** 3
        assert mesh.n_simplices == 6 * res**3

    def test_valid_mesh(self):
        assert validate_mesh(ball3(3)) == []

    def test_face_sharing_counts(self):
        # interior faces belong to exactly 2 tets, boundary faces to 1; the
        # boundary must tile the cube surface: 2 triangles per cell face,
        # 6 res^2 cell faces
        res = 3
        mesh = ball3(res)
        faces, counts = mesh_faces(mesh)
        assert set(counts.tolist()) == {1, 2}
        n_boundary = int((counts == 1).sum())
        assert n_boundary == 12 * res**2

    def test_boundary_vertices_on_unit_sphere(self):
        mesh = ball3(4)
        b = detect_boundary(mesh).boundary_vertices
        np.testing.assert_allclose(
            np.linalg.norm(mesh.vertices[b], axis=1), 1.0, rtol=1e-12
        )

    def test_interior_vertices_strictly_inside(self):
        mesh = ball3(4)
        b = set(detect_boundary(mesh).boundary_vertices.tolist())
        inner = [v for v in range(mesh.n_vertices) if v not in b]
        norms = np.linalg.norm(mesh.vertices[inner], axis=1)
        assert norms.max() < 1.0

    @pytest.mark.parametrize("res", [2, 3, 4, 5])
    def test_every_tet_has_an_interior_vertex(self, res):
        # tets with all vertices pinned in round 2 freeze at their round-1
        # image, so none may have its full vertex set on the boundary
        mesh = ball3(res)
        b = set(detect_boundary(mesh).boundary_vertices.tolist())
        fully_pinned = [
            s for s in mesh.simplices.tolist() if all(v in b for v in s)
        ]
        assert fully_pinned == []

    def test_ambient_orientation_consistent(self):
        # canonical sign times geometric sign constant across the mesh,
        # i.e. the stored tets are consistently orientable and windable
        mesh = ball3(3)
        sign = canonical_orientation(mesh)
        geo = np.array(simplex_orientations_rational(mesh.vertices[mesh.simplices]))
        assert len(set((sign * geo).tolist())) == 1

    def test_radial_map_preserves_cube_shells(self):
        # vertices on the cubical shell |x|_inf = c map to radius c
        res = 4
        n = res + 1
        axis = np.linspace(-1, 1, n)
        mesh = ball3(res)
        raw = np.array(
            [
                [axis[i], axis[j], axis[k]]
                for k in range(n)
                for j in range(n)
                for i in range(n)
            ]
        )
        shell = np.abs(raw).max(axis=1)
        np.testing.assert_allclose(
            np.linalg.norm(mesh.vertices, axis=1), shell, atol=1e-15
        )

    def test_center_vertex_at_origin(self):
        mesh = ball3(2)
        dists = np.linalg.norm(mesh.vertices, axis=1)
        assert (dists == 0.0).sum() == 1


class TestDelaunay2d:
    def test_square_plus_center(self):
        pts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
        )
        tris = delaunay2d(pts)
        assert len(tris) == 4
        for tri in tris:
            assert 4 in tri

    def test_empty_circumcircle_property(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            pts = rng.uniform(-1, 1, size=(int(rng.integers(4, 25)), 2))
            tris = delaunay2d(pts)
            # brute force: no point strictly inside any circumcircle
            for a, b, c in tris:
                pa, pb, pc = pts[a], pts[b], pts[c]
                if orient2d_rational(*pa, *pb, *pc) < 0:
                    pa, pb = pb, pa
                for q in range(len(pts)):
                    if q in (a, b, c):
                        continue
                    assert (
                        incircle(pa, pb, pc, pts[q]) <= 0
                    ), f"trial {trial}: point {q} inside circumcircle"

    def test_covers_convex_hull_area(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(30, 2))
        tris = delaunay2d(pts)
        from scipy.spatial import ConvexHull

        hull_area = ConvexHull(pts).volume
        tri_area = 0.0
        for a, b, c in tris:
            u = pts[b] - pts[a]
            v = pts[c] - pts[a]
            tri_area += abs(u[0] * v[1] - u[1] * v[0]) / 2
        assert tri_area == pytest.approx(hull_area, rel=1e-9)

    def test_flat_hull_triangle_kept(self):
        # (0, 1, 2) is a hull triangle whose circumcircle (radius ~5,000)
        # holds no other point; a finite super-triangle would lose it
        pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1e-4], [0.0, -1.0]])
        assert delaunay2d(pts) == [(1, 0, 2), (1, 2, 3), (2, 0, 3)]

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(size=(20, 2))
        assert delaunay2d(pts) == delaunay2d(pts)

    def test_duplicate_points_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="duplicate"):
            delaunay2d(pts)

    def test_collinear_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(ValueError, match="collinear"):
            delaunay2d(pts)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            delaunay2d(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_cocircular_square_both_diagonals_legal(self):
        # a perfect square is cocircular: either diagonal is Delaunay, the
        # triangulation must simply pick one and produce 2 valid triangles
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        tris = delaunay2d(pts)
        assert len(tris) == 2


class TestGenerate:
    def test_sphere_has_no_latent(self):
        mesh, latent = generate(GeneratorSpec("sphere", 1))
        assert latent is None

    def test_ball_latent_is_vertices(self):
        mesh, latent = generate(GeneratorSpec("ball3", 2))
        np.testing.assert_array_equal(latent, mesh.vertices)

    def test_all_kinds_produce_valid_meshes(self):
        cases = {
            "grid-disk": (4, 4),
            "paraboloid": (4, 4),
            "monkey-saddle": (4, 4),
            "twin-peaks": (4, 4),
            "swiss-roll": (6, 4),
            "sphere": (1,),
            "ball3": (2,),
        }
        for kind, res in cases.items():
            mesh, _ = generate(GeneratorSpec(kind, res))
            assert validate_mesh(mesh) == [], kind
