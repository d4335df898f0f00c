"""Simplicial mesh container, validation, and boundary structure.

A mesh is a d-simplex decomposition of a manifold sampled in an ambient
space R^l: vertex coordinates plus (d+1)-tuples of vertex indices. The
functions here check the decomposition properties (no repeated vertices,
faces shared by at most two simplices, face-connectivity, non-degenerate
volumes), extract the boundary complex, and locate dividing faces, i.e.
interior (d-1)-faces whose vertices all lie on the boundary.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .geometry import bbox_diameter, simplex_volumes


@dataclass(frozen=True, eq=False)
class SimplicialMesh:
    """Immutable d-dimensional simplicial mesh embedded in R^l.

    Parameters
    ----------
    vertices : (N, l) float array
        Sample coordinates in the ambient space.
    simplices : (M, d+1) int array
        Vertex indices of each d-simplex.
    intrinsic_dim : int
        Dimension d of the simplices, 1 <= d <= l.

    Index bounds and shapes are enforced at construction. The decomposition
    invariants themselves are checked by :func:`validate_mesh`, which
    reports violations as data rather than raising.
    """

    vertices: np.ndarray
    simplices: np.ndarray
    intrinsic_dim: int

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        s = np.ascontiguousarray(np.asarray(self.simplices, dtype=np.int64))
        d = int(self.intrinsic_dim)
        if v.ndim != 2:
            raise ValueError("vertices must be a 2-D array of coordinates")
        if s.ndim != 2:
            raise ValueError("simplices must be a 2-D array of index tuples")
        if d < 1:
            raise ValueError("intrinsic dimension must be at least 1")
        if d > v.shape[1]:
            raise ValueError(
                f"intrinsic dimension {d} exceeds ambient dimension {v.shape[1]}"
            )
        if s.shape[1] != d + 1:
            raise ValueError(
                f"simplices must have {d + 1} vertices each, got {s.shape[1]}"
            )
        if s.size and (s.min() < 0 or s.max() >= v.shape[0]):
            raise IndexError("simplex vertex index out of range")
        v.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "simplices", s)
        object.__setattr__(self, "intrinsic_dim", d)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class MeshViolation:
    """One broken decomposition invariant: the rule and the offending item."""

    rule: str
    where: tuple
    detail: str


@dataclass(frozen=True)
class BoundaryComplex:
    """Boundary of a mesh: the (d-1)-faces contained in exactly one simplex.

    ``boundary_cycles`` is populated for d = 2 only and lists each boundary
    loop as an ordered vertex tuple; other dimensions carry ``None``.
    """

    boundary_faces: np.ndarray
    boundary_vertices: np.ndarray
    boundary_cycles: tuple[tuple[int, ...], ...] | None


def mesh_faces(mesh: SimplicialMesh):
    """All (d-1)-faces with multiplicity counts.

    Returns
    -------
    faces : (K, d) int array
        Unique faces, each row sorted ascending.
    counts : (K,) int array
        Number of simplices containing each face.
    """
    s = mesh.simplices
    d = mesh.intrinsic_dim
    blocks = [np.delete(s, k, axis=1) for k in range(d + 1)]
    faces = np.sort(np.vstack(blocks), axis=1)
    return np.unique(faces, axis=0, return_counts=True)


def mesh_edges(mesh: SimplicialMesh) -> np.ndarray:
    """Unique 1-skeleton edges as an (E, 2) array with i < j per row."""
    s = mesh.simplices
    d = mesh.intrinsic_dim
    pairs = []
    for a in range(d + 1):
        for b in range(a + 1, d + 1):
            pairs.append(s[:, (a, b)])
    edges = np.sort(np.vstack(pairs), axis=1)
    return np.unique(edges, axis=0)


def validate_mesh(mesh: SimplicialMesh, vol_tol: float = 1e-12) -> list[MeshViolation]:
    """Check the d-simplex decomposition invariants.

    Verifies that every vertex coordinate is finite, no simplex repeats a
    vertex, every (d-1)-face is shared by at most two simplices, the
    face-adjacency graph is connected, and no simplex is degenerate, where
    degenerate means Gram-determinant volume below ``vol_tol`` times
    (bounding-box diameter)^d.

    Returns a list of violations, empty when the mesh is a valid
    decomposition. Violations are data; nothing raises here.
    """
    out: list[MeshViolation] = []
    s = mesh.simplices
    d = mesh.intrinsic_dim
    if s.shape[0] == 0:
        return [MeshViolation("empty", (), "mesh contains no simplices")]

    finite = np.isfinite(mesh.vertices).all(axis=1)
    for idx in np.flatnonzero(~finite):
        out.append(
            MeshViolation(
                "non-finite-vertex",
                (int(idx),),
                f"vertex {int(idx)} has a non-finite coordinate "
                f"{tuple(float(x) for x in mesh.vertices[idx])}",
            )
        )

    sorted_rows = np.sort(s, axis=1)
    repeated = (np.diff(sorted_rows, axis=1) == 0).any(axis=1)
    for idx in np.nonzero(repeated)[0]:
        out.append(
            MeshViolation(
                "repeated-vertex",
                (int(idx),),
                f"simplex {int(idx)} {tuple(s[idx])} repeats a vertex index",
            )
        )

    faces, counts = mesh_faces(mesh)
    for row in np.nonzero(counts > 2)[0]:
        face = tuple(int(x) for x in faces[row])
        out.append(
            MeshViolation(
                "face-overshared",
                face,
                f"face {face} is contained in {int(counts[row])} simplices; "
                "at most 2 are allowed",
            )
        )

    reached = _face_adjacency_reach(mesh)
    if not reached.all():
        missing = int(np.nonzero(~reached)[0][0])
        out.append(
            MeshViolation(
                "disconnected",
                (missing,),
                f"face-adjacency graph is disconnected; simplex {missing} is "
                "not reachable from simplex 0",
            )
        )

    # simplices on a non-finite vertex are reported above, not measured
    diam = bbox_diameter(mesh.vertices[finite])
    measured = finite[s].all(axis=1)
    vols = np.zeros(s.shape[0])
    vols[measured] = simplex_volumes(mesh.vertices, s[measured], d)
    threshold = vol_tol * diam**d
    if diam == 0.0:
        degenerate = measured
    else:
        degenerate = measured & (vols < threshold)
    for idx in np.nonzero(degenerate)[0]:
        out.append(
            MeshViolation(
                "degenerate-simplex",
                (int(idx),),
                f"simplex {int(idx)} has volume {vols[idx]:.3e}, below "
                f"{vol_tol:g} x diameter^{d} = {threshold:.3e}",
            )
        )
    return out


def _face_key_map(mesh: SimplicialMesh) -> dict:
    """Map sorted (d-1)-face tuple -> list of incident simplex indices."""
    d = mesh.intrinsic_dim
    incident: dict[tuple, list[int]] = defaultdict(list)
    for m, simplex in enumerate(mesh.simplices):
        row = [int(x) for x in simplex]
        for k in range(d + 1):
            face = tuple(sorted(row[:k] + row[k + 1 :]))
            incident[face].append(m)
    return incident


def _face_adjacency_reach(mesh: SimplicialMesh) -> np.ndarray:
    """Boolean mask of simplices reachable from simplex 0 across shared faces."""
    m_total = mesh.n_simplices
    incident = _face_key_map(mesh)
    neighbors: list[list[int]] = [[] for _ in range(m_total)]
    for members in incident.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                neighbors[members[i]].append(members[j])
                neighbors[members[j]].append(members[i])
    reached = np.zeros(m_total, dtype=bool)
    stack = [0]
    reached[0] = True
    while stack:
        cur = stack.pop()
        for nxt in neighbors[cur]:
            if not reached[nxt]:
                reached[nxt] = True
                stack.append(nxt)
    return reached


def detect_boundary(mesh: SimplicialMesh) -> BoundaryComplex:
    """Extract the boundary complex: faces contained in exactly one simplex.

    For d = 2 the boundary edges are walked into closed loops, each reported
    as an ordered vertex tuple; multiple loops are reported separately.

    Raises
    ------
    ValueError
        If d = 2 and some boundary vertex has more than two incident
        boundary edges (non-manifold boundary), which makes loop walking
        ill-defined.
    """
    faces, counts = mesh_faces(mesh)
    boundary_faces = faces[counts == 1]
    boundary_vertices = np.unique(boundary_faces)
    cycles = None
    if mesh.intrinsic_dim == 2:
        cycles = _walk_boundary_cycles(boundary_faces)
    return BoundaryComplex(
        boundary_faces=boundary_faces,
        boundary_vertices=boundary_vertices,
        boundary_cycles=cycles,
    )


def _walk_boundary_cycles(boundary_edges: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Order boundary edges into closed loops.

    The walk starts each loop at its smallest vertex and first steps toward
    the smaller-indexed neighbor, so output is deterministic. Direction is
    combinatorial only; callers needing an orientation-consistent direction
    should fix it against the canonical simplex orientation.
    """
    if boundary_edges.shape[0] == 0:
        return ()
    incident: dict[int, list[int]] = defaultdict(list)
    for u, v in boundary_edges:
        incident[int(u)].append(int(v))
        incident[int(v)].append(int(u))
    for vertex, nbrs in incident.items():
        if len(nbrs) != 2:
            raise ValueError(
                f"boundary vertex {vertex} has {len(nbrs)} incident boundary "
                "edges; the boundary is not a disjoint union of simple loops"
            )
    cycles = []
    visited: set[int] = set()
    for start in sorted(incident):
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        prev = start
        cur = min(incident[start])
        while cur != start:
            loop.append(cur)
            visited.add(cur)
            a, b = incident[cur]
            nxt = b if a == prev else a
            prev, cur = cur, nxt
        cycles.append(tuple(loop))
    return tuple(cycles)


def detect_dividing_simplices(
    mesh: SimplicialMesh, boundary: BoundaryComplex | None = None
) -> list[tuple]:
    """Interior (d-1)-faces whose vertices all lie on the boundary.

    Such faces (dividing edges for d = 2) split the mesh into parts that
    touch the boundary on both sides; their absence is the strong
    connectivity property that the two-round mapping relies on. Faces are
    returned as sorted tuples in lexicographic order.
    """
    if boundary is None:
        boundary = detect_boundary(mesh)
    faces, counts = mesh_faces(mesh)
    interior = faces[counts == 2]
    if interior.shape[0] == 0:
        return []
    on_boundary = np.isin(interior, boundary.boundary_vertices).all(axis=1)
    return [tuple(int(x) for x in row) for row in interior[on_boundary]]


def canonical_orientation(mesh: SimplicialMesh) -> np.ndarray:
    """Consistent combinatorial orientation signs, one per simplex.

    Starting from simplex 0 with sign +1, signs are propagated across
    shared (d-1)-faces so that every interior face is traversed in opposite
    directions by its two simplices. Works on any face-connected valid mesh.

    Returns
    -------
    (M,) array of +1 / -1 flip factors relative to the stored vertex order.

    Raises
    ------
    ValueError
        If the mesh is combinatorially non-orientable, or a face is shared
        by more than two simplices.
    """
    s = mesh.simplices
    d = mesh.intrinsic_dim
    m_total = s.shape[0]

    # parity[m][k]: induced orientation of face k of simplex m relative to
    # the sorted face tuple, including the (-1)^k face factor.
    incident: dict[tuple, list[tuple[int, int]]] = defaultdict(list)
    for m in range(m_total):
        row = [int(x) for x in s[m]]
        for k in range(d + 1):
            face = row[:k] + row[k + 1 :]
            parity = _perm_sign(face) * (1 if k % 2 == 0 else -1)
            incident[tuple(sorted(face))].append((m, parity))

    sign = np.zeros(m_total, dtype=np.int64)
    sign[0] = 1
    stack = [0]
    while stack:
        cur = stack.pop()
        row = [int(x) for x in s[cur]]
        for k in range(d + 1):
            face = tuple(sorted(row[:k] + row[k + 1 :]))
            members = incident[face]
            if len(members) > 2:
                raise ValueError(
                    f"face {face} is shared by {len(members)} simplices; "
                    "orientation is undefined"
                )
            for other, parity_other in members:
                if other == cur:
                    continue
                parity_cur = next(p for m, p in members if m == cur)
                required = -sign[cur] * parity_cur * parity_other
                if sign[other] == 0:
                    sign[other] = required
                    stack.append(other)
                elif sign[other] != required:
                    raise ValueError(
                        "mesh is combinatorially non-orientable: conflicting "
                        f"orientation constraints at face {face}"
                    )
    if (sign == 0).any():
        raise ValueError(
            "orientation could not reach every simplex; the mesh is not "
            "face-connected"
        )
    return sign


def _perm_sign(values) -> int:
    """Sign of the permutation sorting ``values``, by inversion count."""
    inversions = 0
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            if values[i] > values[j]:
                inversions += 1
    return 1 if inversions % 2 == 0 else -1


def triangulate_polygon_faces(faces, vertices) -> SimplicialMesh:
    """Fan-triangulate polygon faces into a triangle mesh.

    Each n-gon is rotated so its lowest-index vertex comes first, then
    fanned from that vertex, preserving the polygon's cyclic order: the
    quad (0, 1, 2, 3) becomes (0, 1, 2) and (0, 2, 3).

    Raises
    ------
    ValueError
        For faces with fewer than three vertices or repeated vertices.
    """
    triangles = []
    for fi, face in enumerate(faces):
        face = [int(x) for x in face]
        if len(face) < 3:
            raise ValueError(f"face {fi} has {len(face)} vertices; need >= 3")
        if len(set(face)) != len(face):
            raise ValueError(f"face {fi} {tuple(face)} repeats a vertex")
        pivot = face.index(min(face))
        rotated = face[pivot:] + face[:pivot]
        for k in range(1, len(rotated) - 1):
            triangles.append((rotated[0], rotated[k], rotated[k + 1]))
    return SimplicialMesh(
        vertices=np.asarray(vertices, dtype=float),
        simplices=np.asarray(triangles, dtype=np.int64),
        intrinsic_dim=2,
    )
