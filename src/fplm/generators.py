"""Built-in mesh generators with known latent parameterizations.

Surface generators sample a latent rectangle, lift it through an analytic
map into R^3, and triangulate either on a structured grid or with a
Delaunay triangulation (qhull) of jittered samples. The sphere generator
subdivides an icosahedron; the ball generator splits a cube grid into
tetrahedra and maps the result onto the exact unit ball shell by shell.
Every generated mesh passes validate_mesh, which the tests check, not generate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import orient2d_signs_xy
from .simplicial import SimplicialMesh, integer_id

# each surface's latent rectangle (u0, u1, v0, v1) and its lift of the
# latent (u, v) to (x, y, z)
_SQUARE = (-1.0, 1.0, -1.0, 1.0)
_SURFACES = {
    "grid-disk": (_SQUARE, lambda u, v: (u, v, np.zeros_like(u))),
    "paraboloid": (_SQUARE, lambda u, v: (u, v, u**2 + v**2)),
    "monkey-saddle": (_SQUARE, lambda u, v: (u, v, u**3 - 3.0 * u * v**2)),
    "twin-peaks": (_SQUARE, lambda u, v: (u, v, np.sin(np.pi * u) * np.tanh(3.0 * v))),
    "swiss-roll": (
        (1.5 * math.pi, 4.5 * math.pi, 0.0, 10.0),
        lambda t, h: (t * np.cos(t), h, t * np.sin(t)),
    ),
}

GENERATOR_KINDS = (*_SURFACES, "sphere", "ball3")

TRIANGULATIONS = ("structured-grid", "delaunay2d")


@dataclass(frozen=True)
class GeneratorSpec:
    """Which dataset to generate and at what resolution.

    resolution is (nx, ny) points per axis for surfaces, each at least 2,
    where one number n stands for (n, n) and is stored so; it is one number
    for the sphere (subdivision level) and the ball (cells per axis). Every
    entry must be a positive integer and seed a non-negative one, by the
    rule of :func:`~fplm.simplicial.integer_id`; anything else raises ValueError.
    """

    kind: str
    resolution: tuple
    seed: int = 0
    triangulation: str = "structured-grid"

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(
                f"unknown generator kind {self.kind!r}; choose from "
                f"{GENERATOR_KINDS}"
            )
        if self.triangulation not in TRIANGULATIONS:
            raise ValueError(
                f"unknown triangulation {self.triangulation!r}; choose from "
                f"{TRIANGULATIONS}"
            )
        # one entry at a time: an array would promote uint64 with int64 to float
        res = self.resolution
        res = tuple(integer_id(r, "resolution") for r in (res if np.ndim(res) else (res,)))
        if any(r < 1 for r in res):
            raise ValueError(f"resolution entries must be positive, got {res}")
        if self.kind in _SURFACES:
            if len(res) == 1:
                res = res * 2
            if len(res) != 2:
                raise ValueError(f"surface resolution must be nx x ny, got {res}")
            if min(res) < 2:
                raise ValueError(f"surface resolution must be at least 2x2, got {res}")
        elif len(res) != 1:
            raise ValueError(f"{self.kind} resolution must be one number, got {res}")
        seed = integer_id(self.seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "seed", seed)


def generate(spec: GeneratorSpec):
    """Build the requested mesh together with its latent coordinates.

    The spec has judged every field; the mesh is judged where it is
    embedded (:func:`~fplm.mapping.run_fplm` validates it), not here.

    Returns
    -------
    mesh : SimplicialMesh
    latent : (N, k) array or None
        Ground-truth latent coordinates where a global chart exists (all
        surfaces and the ball); None for the sphere.
    """
    kind = spec.kind
    if kind == "sphere":
        mesh = icosphere(spec.resolution[0])
        latent = None
    elif kind == "ball3":
        mesh = ball3(spec.resolution[0])
        latent = mesh.vertices.copy()
    else:
        nx, ny = spec.resolution
        rectangle, lift = _SURFACES[kind]
        latent = _latent_points(nx, ny, *rectangle, spec)
        verts = np.column_stack(lift(latent[:, 0], latent[:, 1]))
        grid = spec.triangulation == "structured-grid"
        tris = structured_grid_triangles(nx, ny) if grid else delaunay2d(latent)
        mesh = SimplicialMesh(verts, tris, 2)
    return mesh, latent


def _latent_points(nx, ny, u0, u1, v0, v1, spec) -> np.ndarray:
    us = np.linspace(u0, u1, nx)
    vs = np.linspace(v0, v1, ny)
    uu, vv = np.meshgrid(us, vs, indexing="xy")
    pts = np.column_stack([uu.ravel(), vv.ravel()])
    if spec.triangulation == "delaunay2d":
        rng = np.random.default_rng(spec.seed)
        du = (u1 - u0) / (nx - 1)
        dv = (v1 - v0) / (ny - 1)
        jitter = rng.uniform(-0.3, 0.3, size=pts.shape) * np.array([du, dv])
        interior = (
            (pts[:, 0] > u0) & (pts[:, 0] < u1) & (pts[:, 1] > v0) & (pts[:, 1] < v1)
        )
        pts[interior] += jitter[interior]
    return pts


def structured_grid_triangles(nx: int, ny: int) -> np.ndarray:
    """Two triangles per grid cell, row-major vertex ids v = j * nx + i.

    Cells split along the (i, j)-(i+1, j+1) diagonal except in the top-left
    and bottom-right corner cells, which use the opposite diagonal. That
    exception keeps every interior edge incident to an interior vertex for
    grids of at least 3 points per axis, so such grids have no dividing
    edges. All triangles wind counterclockwise in latent coordinates.
    """
    j, i = np.indices((ny - 1, nx - 1)).reshape(2, -1)
    anti = ((i == 0) & (j == ny - 2)) | ((i == nx - 2) & (j == 0))
    # corner offsets from a = j * nx + i of the cell's two triangles
    offsets = np.where(
        anti[:, None], [0, 1, nx, 1, nx + 1, nx], [0, 1, nx + 1, 0, nx + 1, nx]
    )
    return ((j * nx + i)[:, None] + offsets).reshape(-1, 3)


# icosahedron with vertices on the unit sphere; r is the golden ratio
def _icosahedron():
    r = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, r, 0], [1, r, 0], [-1, -r, 0], [1, -r, 0],
            [0, -1, r], [0, 1, r], [0, -1, -r], [0, 1, -r],
            [r, 0, -1], [r, 0, 1], [-r, 0, -1], [-r, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts[0])
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def icosphere(level: int) -> SimplicialMesh:
    """Icosahedron subdivided ``level`` times, vertices on the unit sphere.

    Level k has 10 * 4^k + 2 vertices and 20 * 4^k consistently oriented
    triangles; level 0 is the icosahedron itself.
    """
    level = integer_id(level, "subdivision level")
    if level < 0:
        raise ValueError("subdivision level must be nonnegative")
    verts, faces = _icosahedron()
    for _ in range(level):
        # edges ab, bc, ca of each face in turn; each edge's midpoint is
        # numbered by the first occurrence of its key
        ends = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = ends.min(axis=1) * len(verts) + ends.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        a, b = ends[first[order]].T
        p = verts[a] + verts[b]
        # the dot product np.linalg.norm takes for one 3-vector, row by row
        norm = np.sqrt(p[:, None, :] @ p[:, :, None]).reshape(-1, 1)
        mids = len(verts) + np.argsort(order)[inverse].reshape(-1, 3)
        verts = np.vstack([verts, p / norm])
        # columns a, b, c, ab, bc, ca
        cells = np.hstack([faces, mids])
        faces = cells[:, [0, 3, 5, 1, 4, 3, 2, 5, 4, 3, 4, 5]].reshape(-1, 3)
    return SimplicialMesh(verts, faces, 2)


def _kuhn_tets(flip: tuple[int, int, int]):
    """Six path tetrahedra of the unit cube, mirrored per axis by ``flip``.

    Each tetrahedron follows a monotone corner path from (0,0,0) to
    (1,1,1), one per axis permutation, so all six share the cube's main
    diagonal. Mirroring keeps that property with the diagonal anchored at
    the corner ``flip`` itself.
    """
    tets = []
    for perm in itertools.permutations((0, 1, 2)):
        corner = [0, 0, 0]
        path = [tuple(corner)]
        for axis in perm:
            corner[axis] = 1
            path.append(tuple(corner))
        tets.append(tuple(tuple(c ^ f for c, f in zip(p, flip)) for p in path))
    return tuple(tets)


def ball3(resolution: int) -> SimplicialMesh:
    """Tetrahedralization of the unit ball from a split cube grid.

    The cube [-1, 1]^3 is divided into resolution^3 cells, each split into
    six path tetrahedra sharing the cell diagonal that starts at the cell
    corner nearest the origin (the split mirrors per octant). Vertices are
    then carried onto the ball by p -> p * |p|_inf / |p|_2, which maps every
    cubical shell onto a sphere, so the mesh fills the exact unit ball with
    its boundary vertices on the unit sphere.

    Anchoring the diagonals at the inward corner matters: it gives every
    tetrahedron at least one interior vertex. A tetrahedron with all four
    vertices on the boundary would be frozen at its first-round image
    during round two and typically comes out inverted against the refilled
    interior, breaking orientation uniformity.

    Neighboring cells always agree on the shared-face diagonal: the
    diagonal induced on a face depends only on the mirror flips of the two
    in-face axes, and adjacent cells span the same range there.
    """
    resolution = integer_id(resolution, "ball3 resolution")
    if resolution < 2:
        raise ValueError("ball3 needs at least 2 cells per axis")
    n = resolution + 1
    axis = np.linspace(-1.0, 1.0, n)
    # vertex (k * n + j) * n + i sits at (axis[i], axis[j], axis[k])
    k, j, i = np.indices((n, n, n)).reshape(3, -1)
    verts = np.column_stack([axis[i], axis[j], axis[k]])
    # cells in the same order, i fastest; a cell mirrors an axis when its
    # midpoint on that axis is negative
    k, j, i = np.indices((resolution,) * 3).reshape(3, -1)
    mirror = (axis[:-1] + axis[1:] < 0.0).astype(np.int64)
    # corner offsets (dx, dy, dz) of the six unmirrored path tetrahedra
    path = np.array(_kuhn_tets((0, 0, 0)), dtype=np.int64)  # (6, 4, 3)
    corner = [
        c[:, None, None] + (path[:, :, a] ^ mirror[c][:, None, None])
        for a, c in enumerate((i, j, k))
    ]
    tets = ((corner[2] * n + corner[1]) * n + corner[0]).reshape(-1, 4)

    norm2 = np.linalg.norm(verts, axis=1)
    norm_inf = np.abs(verts).max(axis=1)
    safe = np.where(norm2 > 0.0, norm2, 1.0)
    scale = np.where(norm2 > 0.0, norm_inf / safe, 0.0)
    return SimplicialMesh(verts * scale[:, None], tets, 3)


def delaunay2d(points) -> np.ndarray:
    """Delaunay triangulation of distinct planar points, by qhull.

    Each triangle is oriented counterclockwise with the exact
    :func:`orient2d_signs_xy` predicate and rotated so that its largest index
    comes last, and the triangles are sorted. Cocircular ties are resolved
    by qhull, deterministically for a given input.

    Returns the (M, 3) int64 array of counterclockwise triangles over the
    input points. Raises ValueError for fewer than 3 points, duplicate
    points (which qhull would silently drop), or an all-collinear input.
    """
    from scipy.spatial import Delaunay, QhullError

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("delaunay2d expects (N, 2) points")
    n = pts.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    if np.unique(pts, axis=0).shape[0] != n:
        raise ValueError("duplicate points are not supported")
    try:
        tris = Delaunay(pts).simplices.astype(np.int64)
    except QhullError as exc:
        raise ValueError("points are collinear; no triangulation exists") from exc

    (ax, ay), (bx, by), (cx, cy) = pts[tris].transpose(1, 2, 0)
    cw = orient2d_signs_xy(ax, ay, bx, by, cx, cy) < 0
    tris[cw] = tris[cw][:, [0, 2, 1]]
    # a cyclic shift keeps the orientation; put the largest index last
    shift = np.argmax(tris, axis=1) + 1
    tris = np.take_along_axis(tris, (shift[:, None] + np.arange(3)) % 3, axis=1)
    return tris[np.lexsort(tris.T[::-1])]
