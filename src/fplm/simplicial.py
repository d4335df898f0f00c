"""Simplicial mesh container, validation, and boundary structure.

A mesh is a d-simplex decomposition of a manifold sampled in an ambient
space R^l: vertex coordinates plus (d+1)-tuples of vertex indices. The
functions here check the decomposition properties (no repeated vertices,
faces shared by at most two simplices, face-connectivity, non-degenerate
volumes), extract the boundary complex, and locate dividing faces, i.e.
interior (d-1)-faces whose vertices all lie on the boundary.

All of this topology derives from one face table per mesh (see
:class:`FaceTable`), built on first use and cached on the immutable mesh
object together with the edge list, its symmetric CSR pattern, the
boundary, the orientation signs and the validation result, so every
consumer of one mesh object shares a single computation. The table's
sorting network is the one place a face's vertices are sorted: it gives
each side its parity and its vertex order, and the table links each side
to its partner across the face once.
Two ``connected_components`` calls answer the rest, one per graph, and
both read those partners: the star graph gives vertex manifoldness (see
:func:`_adjacency_violations`), and the orientation double cover, cached
as ``_cover_labels``, gives both face-connectivity to validation and the
signs to :func:`canonical_orientation`.
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


def integer_ids(ids, what: str, n: int | None = None) -> np.ndarray:
    """Vertex or simplex ids, one or many, as int64 of the same shape.

    Integers of any width, and empty input, are taken. Float or bool input,
    unsigned ids past int64 and, given ``n``, ids outside [0, n) raise
    ValueError naming ``what``: a cast would truncate 0.5 to 0, read a mask
    as ids 0 and 1, or wrap to < 0, and -1 would index the last row.
    """
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        count = "integers" if ids.ndim else "an integer"
        raise ValueError(f"{what} must be {count}, got dtype {ids.dtype}")
    if ids.dtype.kind == "u" and ids.size and ids.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{what} must fit in int64, got {ids.max()}")
    ids = ids.astype(np.int64, copy=False)
    # as uint64 a negative id lies past 2**63, so one max finds both ends
    if n is not None and ids.size and ids.view(np.uint64).max() >= n:
        bad = ids.min() if ids.min() < 0 else ids.max()
        raise ValueError(f"{what} {bad} out of range [0, {n})")
    return ids


def integer_id(id_, what: str, n: int | None = None) -> int:
    """One vertex or simplex id, or a mesh's ``intrinsic_dim``, as an int, by
    the rule of :func:`integer_ids`.

    A list or an array of any shape but a scalar's raises ValueError, as
    numpy's scalar conversion would raise TypeError.
    """
    shape = np.shape(id_)
    if shape:
        raise ValueError(f"{what} must be one integer, got shape {shape}")
    return int(integer_ids(id_, what, n))


@dataclass(frozen=True, eq=False)
class SimplicialMesh:
    """Immutable d-dimensional simplicial mesh embedded in R^l.

    Parameters
    ----------
    vertices : (N, l) float array
        Sample coordinates in the ambient space.
    simplices : (M, d+1) int array
        Vertex indices of each d-simplex; float or bool ids raise
        ValueError (see :func:`integer_ids`).
    intrinsic_dim : int
        Dimension d of the simplices: 2 (triangles) or 3 (tetrahedra), at
        most l. Any other value, or a float or bool, raises ValueError.

    Index bounds and shapes are enforced at construction. The decomposition
    invariants themselves are checked by :func:`validate_mesh`, which
    reports violations as data rather than raising. The topology and the
    validation result are computed on first use and cached, which the
    read-only mesh arrays keep valid; the cached arrays are read-only too.
    :func:`mesh_faces`, :func:`mesh_edges`, :func:`detect_boundary`,
    :func:`canonical_orientation` and :func:`validate_mesh` are the one
    entry point of their results and read private caches; the face table
    behind :func:`mesh_faces` is ``_face_table``, whose face parities, side
    order, side partners and vertex order only this module reads.
    ``_skeleton``, the symmetric 1-skeleton as one CSR pattern of edge ids,
    is the one sparse structure the graph layer reads: the seed search, and
    the adjacency and Laplacian of every weighted graph over the mesh.
    """

    vertices: np.ndarray
    simplices: np.ndarray
    intrinsic_dim: int

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        s = np.ascontiguousarray(integer_ids(self.simplices, "simplex vertex ids"))
        d = integer_id(self.intrinsic_dim, "intrinsic_dim")
        if v.ndim != 2:
            raise ValueError("vertices must be a 2-D array of coordinates")
        if s.ndim != 2:
            raise ValueError("simplices must be a 2-D array of index tuples")
        if d not in (2, 3):
            raise ValueError(f"intrinsic dimension must be 2 or 3, got {d}")
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
    def _face_table(self) -> FaceTable:
        """The (d-1)-faces and their simplex incidence, see :class:`FaceTable`."""
        s = self.simplices
        d = self.intrinsic_dim
        width = d + 1
        # row k lists the columns of face k, the face opposite vertex k
        omit = np.array([[j for j in range(width) if j != k] for k in range(width)])
        # each face entry packs its vertex with its column in the simplex,
        # vertex << shift | column, so sorting the packed keys sorts the
        # vertices and keeps tied ones in column order. d rounds of an
        # odd-even transposition network of np.minimum/np.maximum sort each
        # face's d keys, one column per position; the face opposite vertex k
        # starts at parity (-1)^k and every swap flips it
        shift = d.bit_length()  # a column 0..d takes this many bits
        packed = (s << shift | np.arange(width))[:, omit]
        keys = [packed[:, :, i].ravel() for i in range(d)]
        odd = np.tile(np.arange(width) % 2 == 1, s.shape[0])
        for r in range(d):
            for i in range(r % 2, d - 1, 2):
                a, b = keys[i], keys[i + 1]
                odd ^= a > b
                keys[i], keys[i + 1] = np.minimum(a, b), np.maximum(a, b)
        cols = [k >> shift for k in keys]
        mask, small = (1 << shift) - 1, np.min_scalar_type(d)
        local = np.column_stack([(k & mask).astype(small) for k in keys])
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
            parity=_frozen(np.where(odd, -1, 1).astype(np.int8).reshape(s.shape)),
            order=_frozen(order),
            # in scipy's graph index type, wide enough for the star graph's
            # width slots per side (the cover has two)
            partner=_frozen(_side_partners(order, counts, _index_type(width * sides))),
            local=_frozen(local),
        )

    @cached_property
    def _edges(self) -> np.ndarray:
        """The 1-skeleton edges returned by :func:`mesh_edges`."""
        if self.intrinsic_dim == 2:
            # the edges are the (d-1)-faces, in the same lexicographic order
            return self._face_table.faces
        pairs = itertools.combinations(range(self.intrinsic_dim + 1), 2)
        i, j = np.array(list(pairs)).T
        a, b = self.simplices[:, i], self.simplices[:, j]
        # one int64 key min * n + max per edge, ordered as the rows are; n^2
        # fits in int64 for any vertex count that fits in memory
        n = self.n_vertices
        keys = _unique_ints(np.minimum(a, b) * n + np.maximum(a, b))
        return _frozen(np.column_stack(np.divmod(keys, n)))

    @cached_property
    def _skeleton(self) -> sparse.csr_matrix:
        """The symmetric 1-skeleton as an n x n CSR pattern, read-only.

        Entries (i, j) and (j, i) of edge k = (i, j) of :attr:`_edges` both
        hold k, as a float64 (exact below 2^53): scipy's graph searches
        copy any other data type to float64 first, which on a 400-vertex
        paraboloid took longer than the unweighted search itself. The COO
        lists each row's lower partners first, then its upper ones, so
        every row's columns come out sorted and scipy builds canonical CSR
        with no per-row sort. Every graph over the mesh shares this
        pattern: a weighted adjacency is the edge weights taken at its data.
        """
        i, j = self._edges.T
        ids = np.arange(i.size, dtype=float)
        n = self.n_vertices
        skeleton = sparse.csr_matrix(
            (np.concatenate([ids, ids]), (np.concatenate([j, i]), np.concatenate([i, j]))),
            shape=(n, n),
        )
        for array in (skeleton.data, skeleton.indices, skeleton.indptr):
            _frozen(array)
        return skeleton

    @cached_property
    def _boundary(self) -> BoundaryComplex:
        """The boundary complex returned by :func:`detect_boundary`."""
        faces, counts = mesh_faces(self)
        boundary_faces = faces[counts == 1]
        vertices = _unique_ints(boundary_faces)
        cycles = None
        if self.intrinsic_dim == 2:
            cycles = _walk_boundary_cycles(boundary_faces, vertices)
        return BoundaryComplex(
            boundary_faces=_frozen(boundary_faces),
            boundary_vertices=_frozen(vertices),
            boundary_cycles=cycles,
        )

    @cached_property
    def _orientation(self) -> np.ndarray:
        """The signs returned by :func:`canonical_orientation`, read from
        :attr:`_cover_labels`, the one pass that validation reads too."""
        table = self._face_table
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
    def _violations(self) -> tuple[MeshViolation, ...]:
        """The broken invariants :func:`validate_mesh` lists, as a tuple:
        one validation pass per mesh object, however many callers ask."""
        return tuple(_mesh_violations(self))

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
        table = self._face_table
        return _frozen(_component_labels(_cover_slots(table, self.intrinsic_dim + 1)))


@dataclass(frozen=True, eq=False)
class FaceTable:
    """The (d-1)-faces of a mesh with their simplex incidence.

    Built from the S = (d+1) * M sides of the simplices: side p = m * (d+1)
    + k is the face of simplex m opposite its vertex k. One sorting network
    sorts every side's vertices, the only sort of a face's vertices in this
    module, and records the parity and the vertex order below on the way.
    One int64 key per sorted row, the dense rank of its prefix times n plus
    its next column, is ranked again column by column; the last rank
    numbers the unique rows in lexicographic order. One sort of
    ``rank * S + side`` then groups the sides by face.

    faces : (K, d) int array
        Unique faces, each row sorted ascending, rows in lexicographic order.
    counts : (K,) int array
        Number of simplices containing each face.
    parity : (M, d+1) int8 array
        Orientation simplex m induces on its face k relative to the sorted
        face row: the sign of the sorting permutation, from the network's
        swaps, times (-1)^k. The two simplices of a consistently oriented
        interior face induce opposite parities once multiplied by their
        orientation signs.
    order : (S,) int array
        The sides grouped by face: the sort that built the table, so the
        sides of face f are ``order[start:start + counts[f]]`` with ``start
        = counts[:f].sum()``, in ascending order.
    partner : (S,) int array
        The side that follows each side on its face, cyclically (see
        :func:`_side_partners`), in the index type of scipy's graphs. Both
        graphs of the module read it: the star graph and the orientation
        double cover.
    local : (S, d) small unsigned int array
        The vertex order of each side: ``local[p, t]`` is the column of
        simplex m whose vertex comes t-th in the sorted face row, so
        ``simplices[m, local[p]]`` is that row. Tied vertices, in a simplex
        that repeats one, keep their column order.
    """

    faces: np.ndarray
    counts: np.ndarray
    parity: np.ndarray
    order: np.ndarray
    partner: np.ndarray
    local: np.ndarray


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
    loop as an ordered vertex tuple; d = 3 carries ``None``.
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
    table = mesh._face_table
    return table.faces, table.counts


def mesh_edges(mesh: SimplicialMesh) -> np.ndarray:
    """Unique 1-skeleton edges as an (E, 2) array with i < j per row (cached)."""
    return mesh._edges


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
    ``SimplicialMesh._violations``.
    """
    return list(mesh._violations)


def _mesh_violations(mesh: SimplicialMesh) -> list[MeshViolation]:
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

    repeated = np.zeros(s.shape[0], dtype=bool)
    for i, j in itertools.combinations(range(d + 1), 2):
        repeated |= s[:, i] == s[:, j]
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

    out.extend(_adjacency_violations(mesh))

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


def _adjacency_violations(mesh: SimplicialMesh):
    """Non-manifold vertices and a disconnected mesh.

    One ``connected_components`` call on the star graph finds the
    non-manifold vertices. Each node holds a fixed number of neighbour
    slots, so the graph is laid out as CSR with no sort (see
    :func:`_component_labels`).

    Node m * (d+1) + i is simplex m in the star of its vertex
    ``simplices[m, i]``, so ``simplices.ravel()`` is the vertex of every
    node. Slot k of the node is the face of m opposite vertex k: it holds
    the node of the partner side (:func:`_side_partners`) for the same
    vertex. Both sides of a face list its vertices in the same sorted order,
    recorded in the face table's ``local``, so one scatter fills every
    slot. The face opposite vertex i lacks it, and slot i holds the node
    itself, an arc the search skips. The components of these nodes are the
    parts of every star.

    Face-connectivity is read from the cached orientation double cover,
    :attr:`SimplicialMesh._cover_labels`, which the orientation signs
    come from too.
    """
    table = mesh._face_table
    s = mesh.simplices
    m_total, width = s.shape
    # node ids and slot offsets in the partners' index type, the one scipy's
    # graphs use, so none is copied
    sides = np.arange(s.size, dtype=table.partner.dtype)
    column = sides % width
    # the node of each side's t-th sorted vertex, one column per position t
    node = (sides - column)[:, None] + table.local
    star = np.empty((m_total, width * width), dtype=sides.dtype)
    star[:, :: width + 1] = sides.reshape(m_total, width)
    star.ravel()[node * width + column[:, None]] = node[table.partner]
    part = _component_labels(star.reshape(s.size, width))

    # a star in one part gives all its nodes the label any one of them has
    vertex = s.ravel()
    label = np.empty(mesh.n_vertices, dtype=part.dtype)
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


def _side_partners(order: np.ndarray, counts: np.ndarray, index) -> np.ndarray:
    """The side that follows each side on its face, cyclically.

    The sides of each face are joined in a cycle in the face table's
    ``order``: the two sides of an interior face are each other's partner,
    and a boundary side is its own.
    """
    ends = np.cumsum(counts)
    after = np.arange(1, order.size + 1)  # the position after each in ``order``
    after[ends - 1] = ends - counts  # the last side of a face goes to its first
    partner = np.empty(order.size, dtype=index)
    partner[order] = order[after]
    return partner


def _cover_slots(table: FaceTable, width: int) -> np.ndarray:
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
    partner = table.partner
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
    return mesh._boundary


def _walk_boundary_cycles(
    boundary_edges: np.ndarray, vertices: np.ndarray
) -> tuple[tuple[int, ...], ...]:
    """Order boundary edges into closed loops.

    ``vertices`` lists the edges' ends once each, ascending. The walk starts
    each loop at its smallest vertex and first steps toward the
    smaller-indexed neighbor, so output is deterministic. Direction is
    combinatorial only; callers needing an orientation-consistent direction
    should fix it against the canonical simplex orientation.
    """
    # every edge end as its position in `vertices`, in edge order
    ends = np.searchsorted(vertices, boundary_edges).ravel()
    degree = np.bincount(ends, minlength=vertices.size)
    bad = degree[ends] != 2
    if bad.any():
        k = ends[np.argmax(bad)]  # the first bad vertex in edge order
        raise ValueError(
            f"boundary vertex {vertices[k]} has {degree[k]} incident boundary "
            "edges; the boundary is not a disjoint union of simple loops"
        )
    # each vertex's two neighbours, smaller first, as positions in `vertices`
    nbrs = ends.reshape(-1, 2)[:, ::-1].ravel()
    lo, hi = nbrs[np.lexsort((nbrs, ends))].reshape(-1, 2).T.tolist()
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
    return mesh._orientation


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
