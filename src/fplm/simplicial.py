"""Simplicial mesh container, validation, and boundary structure.

A mesh is a d-simplex decomposition of a manifold sampled in an ambient
space R^l: vertex coordinates plus (d+1)-tuples of vertex indices. The
functions here check the decomposition properties (no repeated vertices,
faces shared by at most two simplices, face-connectivity, non-degenerate
volumes), extract the boundary complex, and locate dividing faces, i.e.
interior (d-1)-faces whose vertices all lie on the boundary.

All of this topology derives from one face table per mesh (see
:class:`FaceTable`), built on first use and cached on the immutable mesh
object together with the edge list, the boundary, the orientation signs
and the validation result, so every consumer of one mesh object shares a
single computation.
Two ``connected_components`` calls answer the rest, one per graph: the
star graph gives vertex manifoldness (see :func:`_adjacency_violations`),
and the orientation double cover, cached as ``_cover_labels``, gives both
face-connectivity to validation and the signs to the orientation property.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .geometry import bbox_diameter, simplex_volumes

# a simplex is degenerate below VOL_TOL x (bounding-box diameter)^d volume
VOL_TOL = 1e-12


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
    reports violations as data rather than raising. The topology
    (``face_table``, ``edges``, ``boundary``, ``orientation``) and the
    validation result (``violations``) are computed on first use and
    cached, which the read-only mesh arrays keep valid; the cached arrays
    are read-only too.
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

    @cached_property
    def face_table(self) -> FaceTable:
        """The (d-1)-faces and their simplex incidence, see :class:`FaceTable`."""
        s = self.simplices
        d = self.intrinsic_dim
        # row k lists the columns of face k, the face opposite vertex k
        omit = np.array([[j for j in range(d + 1) if j != k] for k in range(d + 1)])
        raw = s[:, omit]  # (M, d+1, d)
        inversions = np.zeros(raw.shape[:2], dtype=np.int64)
        for i, j in itertools.combinations(range(d), 2):
            inversions += raw[:, :, i] > raw[:, :, j]
        parity = np.where((inversions + np.arange(d + 1)) % 2 == 0, 1, -1)
        # sort each face's vertices, one column per position: d rounds of an
        # odd-even transposition network of np.minimum/np.maximum sort d values
        cols = [raw[:, :, i].ravel() for i in range(d)]
        for r in range(d):
            for i in range(r % 2, d - 1, 2):
                cols[i], cols[i + 1] = (
                    np.minimum(cols[i], cols[i + 1]),
                    np.maximum(cols[i], cols[i + 1]),
                )
        # one int64 key per face row, built a column at a time: the dense rank
        # of the row's prefix among all prefixes, times n, plus the next
        # column. Ranks keep lexicographic order, so the last rank is the face
        # id, and no key exceeds sides * n (a packed c0 * n^2 + c1 * n + c2
        # would overflow beyond 2^21 vertices).
        n, sides = self.n_vertices, s.size
        seen = np.zeros(n, dtype=bool)
        seen[cols[0]] = True
        face_id = np.cumsum(seen)[cols[0]] - 1  # the first column's rank, by counting
        for c in cols[1:]:
            face_id = _dense_rank(face_id * n + c)
        # one sort of id * sides + side (below sides^2) groups the sides by
        # face, each face's sides in ascending order
        grouped = np.sort(face_id * sides + np.arange(sides))
        order = grouped % sides
        counts = np.bincount(face_id)
        first = order[np.cumsum(counts) - counts]
        return FaceTable(
            faces=_frozen(np.column_stack([c[first] for c in cols])),
            counts=_frozen(counts),
            parity=_frozen(parity.astype(np.int8)),
            order=_frozen(order),
        )

    @cached_property
    def edges(self) -> np.ndarray:
        """The 1-skeleton edges returned by :func:`mesh_edges`."""
        if self.intrinsic_dim == 2:
            # the edges are the (d-1)-faces, in the same lexicographic order
            return self.face_table.faces
        pairs = itertools.combinations(range(self.intrinsic_dim + 1), 2)
        i, j = np.array(list(pairs)).T
        a, b = self.simplices[:, i], self.simplices[:, j]
        # one int64 key min * n + max per edge, ordered as the rows are; n^2
        # fits in int64 for any vertex count that fits in memory
        n = self.n_vertices
        keys = _unique_ints(np.minimum(a, b) * n + np.maximum(a, b))
        return _frozen(np.column_stack(np.divmod(keys, n)))

    @cached_property
    def boundary(self) -> BoundaryComplex:
        """The boundary complex returned by :func:`detect_boundary`."""
        faces, counts = mesh_faces(self)
        boundary_faces = faces[counts == 1]
        cycles = None
        if self.intrinsic_dim == 2:
            cycles = _walk_boundary_cycles(boundary_faces)
        return BoundaryComplex(
            boundary_faces=_frozen(boundary_faces),
            boundary_vertices=_frozen(_unique_ints(boundary_faces)),
            boundary_cycles=cycles,
        )

    @cached_property
    def orientation(self) -> np.ndarray:
        """The signs returned by :func:`canonical_orientation`, read from
        :attr:`_cover_labels`, the one pass that validation reads too."""
        table = self.face_table
        over = np.flatnonzero(table.counts > 2)
        if over.size:
            face = tuple(table.faces[over[0]].tolist())
            raise ValueError(
                f"face {face} is shared by {int(table.counts[over[0]])} "
                "simplices; orientation is undefined"
            )
        labels = self._cover_labels
        plus, minus = labels[: self.n_simplices], labels[self.n_simplices :]
        if plus[0] == minus[0]:
            raise ValueError(
                "mesh is combinatorially non-orientable: the orientation "
                "constraints across shared faces conflict"
            )
        if _unreached(labels).size:
            raise ValueError(
                "orientation could not reach every simplex; the mesh is not "
                "face-connected"
            )
        return _frozen(np.where(plus == plus[0], 1, -1))

    @cached_property
    def violations(self) -> tuple[MeshViolation, ...]:
        """The broken invariants :func:`validate_mesh` lists, as a tuple:
        one validation pass per mesh object, however many callers ask."""
        return tuple(_violations(self))

    @cached_property
    def _cover_labels(self) -> np.ndarray:
        """Component labels of the orientation double cover, read-only.

        Entry m labels node m+ and entry M + m node m- (see
        :func:`_cover_slots`). The cover lifts every path between two
        simplices to a path from either node of the first, so simplex m is
        reached from simplex 0 through faces iff m+ shares a label with 0+
        or 0- (:func:`_unreached`). When 0+ and 0- differ, the constraints
        agree and the label of m+ gives the sign of simplex m.
        """
        table = self.face_table
        width = self.intrinsic_dim + 1
        partner = _side_partners(table, _index_type(2 * table.order.size))
        return _frozen(_component_labels(_cover_slots(table, partner, width)))


@dataclass(frozen=True, eq=False)
class FaceTable:
    """The (d-1)-faces of a mesh with their simplex incidence.

    Built from the S = (d+1) * M faces of the simplices, each face row
    sorted first. One int64 key per row, the dense rank of its prefix times
    n plus its next column, is ranked again column by column; the last rank
    numbers the unique rows in lexicographic order. One sort of
    ``rank * S + side`` then groups the sides by face.

    faces : (K, d) int array
        Unique faces, each row sorted ascending, rows in lexicographic order.
    counts : (K,) int array
        Number of simplices containing each face.
    parity : (M, d+1) int8 array
        Orientation simplex m induces on its face k relative to the sorted
        face row: the sign of the sorting permutation times (-1)^k. The two
        simplices of a consistently oriented interior face induce opposite
        parities once multiplied by their orientation signs.
    order : ((d+1) * M,) int array
        The flat sides m * (d+1) + k grouped by face: the sort that built
        the table, so the sides of face f are ``order[start:start +
        counts[f]]`` with ``start = counts[:f].sum()``, in ascending order.
    """

    faces: np.ndarray
    counts: np.ndarray
    parity: np.ndarray
    order: np.ndarray


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _first_of_run(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted 1-D array that start a run of equal ones."""
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _unique_ints(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort and a first-of-run mask.

    numpy's hash-based ``np.unique`` takes about five times as long on the
    36,000 edge keys of ``ball3(10)``.
    """
    ordered = np.sort(values, axis=None)
    return ordered[_first_of_run(ordered)]


def _dense_rank(keys: np.ndarray) -> np.ndarray:
    """Rank of each key among the distinct keys, 0 for the smallest."""
    order = np.argsort(keys)
    rank = np.empty(keys.size, dtype=np.int64)
    rank[order] = np.cumsum(_first_of_run(keys[order])) - 1
    return rank


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
    """All (d-1)-faces with multiplicity counts, from the cached face table.

    Returns
    -------
    faces : (K, d) int array
        Unique faces, each row sorted ascending.
    counts : (K,) int array
        Number of simplices containing each face.
    """
    table = mesh.face_table
    return table.faces, table.counts


def mesh_edges(mesh: SimplicialMesh) -> np.ndarray:
    """Unique 1-skeleton edges as an (E, 2) array with i < j per row (cached)."""
    return mesh.edges


def validate_mesh(mesh: SimplicialMesh) -> list[MeshViolation]:
    """Check the d-simplex decomposition invariants.

    Verifies that every vertex coordinate is finite, every vertex belongs
    to a simplex, no simplex repeats a vertex, every (d-1)-face is shared
    by at most two simplices, every vertex's star is connected through
    faces that contain the vertex (no pinched, non-manifold vertex), the
    face-adjacency graph is connected, and no simplex is degenerate, where
    degenerate means Gram-determinant volume below ``VOL_TOL`` times
    (bounding-box diameter)^d. Coordinates so large that diameter^d is not
    a finite double get one violation instead of a volume check.

    Returns a list of violations, empty when the mesh is a valid
    decomposition. Violations are data; nothing raises here. The checks
    run once per mesh object: the list is a copy of the cached
    :attr:`SimplicialMesh.violations`.
    """
    return list(mesh.violations)


def _violations(mesh: SimplicialMesh) -> list[MeshViolation]:
    """The checks :func:`validate_mesh` describes, run on every call."""
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

    # a vertex in no simplex would leave the mapping's Laplacian singular
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[s] = True
    for idx in np.flatnonzero(~used).tolist():
        out.append(
            MeshViolation("unreferenced-vertex", (idx,), f"vertex {idx} belongs to no simplex")
        )

    sorted_rows = np.sort(s, axis=1)
    repeated = (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1)
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

    out.extend(_adjacency_violations(mesh, sorted_rows))

    diam = bbox_diameter(mesh.vertices[finite])
    with np.errstate(over="ignore"):
        scale = np.float64(diam) ** d
    if scale == np.inf:
        detail = (f"bounding-box diameter {diam:.3e} to the power d = {d} "
                  "is not a finite double")
        out.append(MeshViolation("coordinates-overflow", (), detail))
    # simplices on a non-finite vertex are reported above, not measured, and
    # none is measured against an infinite scale
    measured = finite[s].all(axis=1) & (scale < np.inf)
    vols = np.zeros(s.shape[0])
    vols[measured] = simplex_volumes(mesh.vertices, s[measured], d)
    threshold = VOL_TOL * scale
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
                f"{VOL_TOL:g} x diameter^{d} = {threshold:.3e}",
            )
        )
    return out


def _adjacency_violations(mesh: SimplicialMesh, sorted_rows: np.ndarray):
    """Non-manifold vertices and a disconnected mesh.

    One ``connected_components`` call on the star graph finds the
    non-manifold vertices. Each node holds a fixed number of neighbour
    slots, so the graph is laid out as CSR with no sort (see
    :func:`_component_labels`). Each side p = m * (d+1) + k is joined to
    its partner, the next side on its face, cyclically
    (:func:`_side_partners`).

    Node m * (d+1) + r is simplex m in the star of its r-th smallest vertex,
    ``sorted_rows[m, r]``, with one slot per face of m that holds the
    vertex. The face opposite vertex k holds every vertex but the one at
    sorted position rank[m, k], so both sides of a face list its vertices
    in the same ascending order, and a slot holds the partner side's node
    for the same vertex. The components of these nodes are the parts of
    every star.

    Face-connectivity is read from the cached orientation double cover,
    :attr:`SimplicialMesh._cover_labels`, which the orientation signs
    come from too.
    """
    table = mesh.face_table
    s = mesh.simplices
    m_total, width = s.shape
    d = width - 1
    n_star = m_total * width
    # node ids and slot offsets (at most n_star * d) in the index type
    # scipy's graphs use, so none is copied
    index = _index_type(n_star * d)
    partner = _side_partners(table, index)
    rank = np.zeros(s.shape, dtype=index)
    for i, j in itertools.combinations(range(width), 2):
        before = s[:, i] < s[:, j]
        rank[:, j] += before
        rank[:, i] += ~before
    inverse = np.empty_like(rank)  # inverse[m, rank[m, k]] = k
    np.put_along_axis(inverse, rank, np.arange(width, dtype=index)[None], axis=1)
    # slot j of star node r: the face opposite sorted position q, in which
    # vertex r comes t-th in ascending order
    r, j = np.divmod(np.arange(width * d, dtype=index), d)
    q = j + (j >= r)
    t = r - (r > q)
    p2 = partner[inverse[:, q] + (np.arange(m_total, dtype=index) * width)[:, None]]
    star = p2 - p2 % width + t + (t >= rank.ravel()[p2])
    part = _component_labels(star.reshape(n_star, d))

    # a star in one part gives all its nodes the label any one of them has
    vertex = sorted_rows.ravel()
    label = np.empty(vertex.max() + 1, dtype=part.dtype)
    label[vertex] = part
    out = [
        MeshViolation(
            "non-manifold-vertex",
            (v,),
            f"vertex {v} is non-manifold: its star is not connected through "
            "faces that contain it",
        )
        for v in _unique_ints(vertex[part != label[vertex]]).tolist()
    ]
    unreached = _unreached(mesh._cover_labels)
    if unreached.size:
        missing = int(unreached[0])
        out.append(
            MeshViolation(
                "disconnected",
                (missing,),
                f"face-adjacency graph is disconnected; simplex {missing} is "
                "not reachable from simplex 0",
            )
        )
    return out


def _unreached(cover_labels: np.ndarray) -> np.ndarray:
    """The simplices whose + node shares no cover label with 0+ or 0-."""
    plus, minus = np.split(cover_labels, 2)
    return np.flatnonzero((plus != plus[0]) & (plus != minus[0]))


def _index_type(size: int):
    """The index type scipy's graphs use for ids below ``size``."""
    return np.int32 if size < 2**31 else np.int64


def _side_partners(table: FaceTable, index) -> np.ndarray:
    """The side that follows each side on its face, cyclically.

    The sides of each face are joined in a cycle in the table's order: the
    two sides of an interior face are each other's partner, and a boundary
    side is its own.
    """
    order, counts = table.order, table.counts
    ends = np.cumsum(counts)
    after = np.arange(1, order.size + 1)  # the position after each in ``order``
    after[ends - 1] = ends - counts  # the last side of a face goes to its first
    partner = np.empty(order.size, dtype=index)
    partner[order] = order[after]
    return partner


def _cover_slots(table: FaceTable, partner: np.ndarray, width: int) -> np.ndarray:
    """Neighbour slots of the orientation double cover, ``width`` per node.

    Node m (m+) and node M + m (m-) stand for the two orientations of
    simplex m. Slot k of each holds its neighbour across side p = m * width
    + k, whose partner side p2 lies in simplex m2. The two sides induce
    opposite face orientations, sign[m] * parity[p] == -sign[m2] *
    parity[p2], so m+ is joined to m2+ and m- to m2- when the parities
    differ, m+ to m2- and m- to m2+ when they are equal. A side that is its
    own partner, or whose partner lies in the same simplex, leaves both
    nodes their own neighbour. Returns the slots of the M plus nodes, then
    those of the M minus nodes, one row per node.
    """
    m_total = partner.size // width
    m2 = partner // width
    m = np.arange(partner.size, dtype=partner.dtype) // width
    parity = table.parity.ravel()
    flip = (parity == parity[partner]) & (m != m2)
    opposite = m2 + m_total
    slots = np.concatenate([np.where(flip, opposite, m2), np.where(flip, m2, opposite)])
    return slots.reshape(2 * m_total, width)


def _component_labels(slots: np.ndarray) -> np.ndarray:
    """Component labels of the graph laid out as rows of neighbour slots.

    Node i is row i of ``slots`` and has an arc to every node in its row.
    Partners join the sides of each face in a cycle, and the cover lifts
    each such cycle to cycles, so every arc lies on a directed cycle. Then
    the strong components are the components of the undirected graph, and
    scipy finds them without building the transpose that its undirected
    search needs. Labels are compared for equality only.

    scipy's strong search (seen in 1.17) loops forever on a row that lists
    an unvisited node twice in succession. A row repeats a node only where
    two simplices share two faces (a repeated vertex, or two simplices on
    one vertex set), and each repeat is rewritten in place into an arc to
    the row's own node, which the search skips; the arcs stay the same set.
    """
    rows, width = slots.shape
    own = np.arange(rows, dtype=slots.dtype)
    for i, j in itertools.combinations(range(width), 2):
        np.copyto(slots[:, j], own, where=slots[:, j] == slots[:, i])
    indptr = np.arange(0, slots.size + 1, width, dtype=slots.dtype)
    # the search reads no weights: one 1.0 viewed nnz times stands for them
    weights = np.broadcast_to(1.0, slots.size)
    graph = sparse.csr_matrix((weights, slots.ravel(), indptr), shape=(rows, rows))
    return connected_components(graph, directed=True, connection="strong")[1]


def detect_boundary(mesh: SimplicialMesh) -> BoundaryComplex:
    """Extract the boundary complex: faces contained in exactly one simplex.

    For d = 2 the boundary edges are walked into closed loops, each reported
    as an ordered vertex tuple; multiple loops are reported separately. The
    result is cached on the mesh and its arrays are read-only.

    Raises
    ------
    ValueError
        If d = 2 and some boundary vertex has more than two incident
        boundary edges (non-manifold boundary), which makes loop walking
        ill-defined.
    """
    return mesh.boundary


def _walk_boundary_cycles(boundary_edges: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Order boundary edges into closed loops.

    The walk starts each loop at its smallest vertex and first steps toward
    the smaller-indexed neighbor, so output is deterministic. Direction is
    combinatorial only; callers needing an orientation-consistent direction
    should fix it against the canonical simplex orientation.
    """
    ends = boundary_edges.ravel()
    vertices, first, degree = np.unique(ends, return_index=True, return_counts=True)
    bad = np.flatnonzero(degree != 2)
    if bad.size:
        k = bad[np.argmin(first[bad])]  # the first bad vertex in edge order
        raise ValueError(
            f"boundary vertex {vertices[k]} has {degree[k]} incident boundary "
            "edges; the boundary is not a disjoint union of simple loops"
        )
    # each vertex's two neighbours, smaller first, as positions in `vertices`
    nbrs = boundary_edges[:, ::-1].ravel()
    order = np.lexsort((nbrs, ends))
    lo, hi = np.searchsorted(vertices, nbrs[order]).reshape(-1, 2).T.tolist()
    ids = vertices.tolist()
    seen = [False] * (len(ids) + 1)  # the sentinel stops the last search
    cycles, loop = [], []
    start = prev = cur = 0
    for _ in ids:
        loop.append(ids[cur])
        seen[cur] = True
        prev, cur = cur, hi[cur] if lo[cur] == prev else lo[cur]
        if cur == start:
            cycles.append(tuple(loop))
            loop = []
            start = prev = cur = seen.index(False, start)
    return tuple(cycles)


def detect_dividing_simplices(mesh: SimplicialMesh) -> list[tuple]:
    """Interior (d-1)-faces whose vertices all lie on the boundary.

    Such faces (dividing edges for d = 2) split the mesh into parts that
    touch the boundary on both sides; their absence is the strong
    connectivity property that the two-round mapping relies on. Faces are
    returned as sorted tuples in lexicographic order.
    """
    faces, counts = mesh_faces(mesh)
    interior = faces[counts == 2]
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[detect_boundary(mesh).boundary_vertices] = True
    return list(map(tuple, interior[on_boundary[interior].all(axis=1)].tolist()))


def canonical_orientation(mesh: SimplicialMesh) -> np.ndarray:
    """Consistent combinatorial orientation signs, one per simplex.

    Simplex 0 gets sign +1, and every interior face is traversed in
    opposite directions by its two simplices. Works on any face-connected
    valid mesh. The signs are cached on the mesh and read-only.

    Returns
    -------
    (M,) array of +1 / -1 flip factors relative to the stored vertex order.

    Raises
    ------
    ValueError
        If the mesh is combinatorially non-orientable, not face-connected,
        or a face is shared by more than two simplices.
    """
    return mesh.orientation


def triangulate_flat_faces(flat, sizes, vertices) -> SimplicialMesh:
    """Fan-triangulate polygon faces into a triangle mesh.

    The faces' vertex ids lie end to end in ``flat``, face k holding
    ``sizes[k]`` of them. Each n-gon is rotated so its lowest-index vertex
    comes first, then fanned from that vertex, preserving the polygon's
    cyclic order: the quad (0, 1, 2, 3) becomes (0, 1, 2) and (0, 2, 3).

    Raises
    ------
    ValueError
        For faces with fewer than three vertices or repeated vertices; the
        first offending face is reported.
    """
    owner = np.repeat(np.arange(sizes.size), sizes)
    by_value = np.lexsort((flat, owner))  # each face's entries, ascending
    repeat = np.zeros(sizes.size, dtype=bool)
    same = (np.diff(owner[by_value]) == 0) & (np.diff(flat[by_value]) == 0)
    repeat[owner[by_value][1:][same]] = True
    short = sizes < 3
    start = np.cumsum(sizes) - sizes
    bad = np.flatnonzero(short | repeat)
    if bad.size:
        fi = int(bad[0])
        face = tuple(flat[start[fi] : start[fi] + sizes[fi]].tolist())
        if short[fi]:
            raise ValueError(f"face {fi} has {len(face)} vertices; need >= 3")
        raise ValueError(f"face {fi} {face} repeats a vertex")

    pivot = by_value[start] - start  # position of each face's lowest index
    fans = sizes - 2
    tri_face = np.repeat(np.arange(sizes.size), fans)
    k = np.arange(tri_face.size) - np.repeat(np.cumsum(fans) - fans, fans) + 1

    def corner(step):  # vertex `step` places after the pivot of each fan's face
        return flat[start[tri_face] + (pivot[tri_face] + step) % sizes[tri_face]]

    triangles = np.column_stack([corner(0), corner(k), corner(k + 1)])
    return SimplicialMesh(
        vertices=np.asarray(vertices, dtype=float),
        simplices=triangles,
        intrinsic_dim=2,
    )
