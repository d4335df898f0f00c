"""Edge weights and graph Laplacian blocks for the fixed-point solve.

Weights live on the 1-skeleton of the mesh: w_ij = exp(-gamma * ||x_i - x_j||)
with plain Euclidean distance in the ambient space. The Laplacian L = D - A
is partitioned by a free/fixed vertex split into the blocks L_y (free x free)
and L_yc (free x fixed) that define the linear system of the mapping.

scipy builds one sparse structure per mesh, the symmetric CSR pattern of the
1-skeleton that the mesh caches (``SimplicialMesh._skeleton``). Every matrix
here is numpy work on its arrays: the adjacency takes the edge weights at its
entries, the Laplacian inserts the degrees into it, and each system's blocks
are cut from the Laplacian's arrays by one free/fixed vertex mask.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .simplicial import SimplicialMesh, integer_ids, mesh_edges


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted 1-skeleton of a mesh.

    Edges are stored once with i < j; weights are strictly positive and
    read-only, since :func:`build_weights` hands one graph per (mesh,
    gamma) to every caller. ``skeleton`` is the mesh's cached symmetric CSR
    pattern, whose entries hold edge ids. The adjacency, degrees, Laplacian
    and component labels are built from it once per graph on first use and
    shared, read-only; every system assembled on the graph slices its
    blocks from the one Laplacian's arrays.
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray
    gamma: float
    skeleton: sparse.csr_matrix

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric sparse adjacency matrix with the edge weights: the
        skeleton's pattern with ``weights[edge]`` as its data."""
        pattern = self.skeleton
        edge = pattern.data.astype(np.intp)
        return _frozen(sparse.csr_matrix(
            (self.weights[edge], pattern.indices, pattern.indptr),
            shape=pattern.shape,
        ))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted vertex degrees, the row sums of the adjacency."""
        degrees = np.asarray(self.adjacency.sum(axis=1)).ravel()
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def laplacian(self) -> sparse.csr_matrix:
        """Graph Laplacian L = D - A.

        The adjacency's pattern with -w as data and each nonzero degree
        inserted between its row's lower and upper partners, which keeps
        every row's columns sorted. These are the arrays
        ``(sparse.diags(degrees) - A).tocsr()`` holds, a zero degree
        dropped, without the sparse subtraction.
        """
        a = self.adjacency
        has_diagonal = self.degrees != 0
        # row r gains its diagonal after the lower partners, edges (i, r)
        lower = np.bincount(self.edges[:, 1], minlength=self.n)
        indptr = a.indptr.copy()
        indptr[1:] += np.cumsum(has_diagonal, dtype=indptr.dtype)
        diagonal = np.flatnonzero(has_diagonal)
        slots = indptr[diagonal] + lower[diagonal]
        off = np.ones(indptr[-1], dtype=bool)
        off[slots] = False
        indices = np.empty(indptr[-1], dtype=a.indices.dtype)
        data = np.empty(indptr[-1])
        indices[off], indices[slots] = a.indices, diagonal
        data[off], data[slots] = -a.data, self.degrees[diagonal]
        return _frozen(sparse.csr_matrix((data, indices, indptr), shape=a.shape))

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Connected-component label of each vertex.

        The adjacency stores both directions of every edge, so its strong
        components are the undirected ones, found with no transpose.
        """
        _, labels = connected_components(
            self.adjacency, directed=True, connection="strong"
        )
        labels.setflags(write=False)
        return labels


def _frozen(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    matrix.sum_duplicates()  # canonical form, so no later call sorts in place
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.setflags(write=False)
    return matrix


@dataclass(frozen=True, eq=False)
class LaplacianSystem:
    """Partitioned Laplacian L = D - A for one free/fixed vertex split.

    ``free_indices`` and ``fixed_indices`` are each sorted ascending, and
    the rows/columns of the blocks follow that order; vertices are never
    physically reordered.
    """

    free_indices: np.ndarray
    fixed_indices: np.ndarray
    lap_free: sparse.csr_matrix
    lap_free_fixed: sparse.csr_matrix


def build_weights(mesh: SimplicialMesh, gamma: float = 0.1) -> WeightedGraph:
    """Exponential-of-distance weights on the mesh 1-skeleton.

    w_ij = exp(-gamma * d_ij) with d_ij the Euclidean distance between the
    ambient coordinates of the edge endpoints. Every d_ij must be finite
    (a NaN or inf coordinate raises ValueError naming the edge). ``gamma``
    must be positive and finite, and small enough that no weight falls
    below the smallest normal double, ``np.finfo(float).tiny``; otherwise
    ValueError (a subnormal weight makes the reciprocal diagonal of the
    iterative route overflow). Coincident connected points get weight
    exactly 1, which is allowed but flagged with a warning since it usually
    indicates duplicated samples.

    The graph is memoised on the immutable mesh object, one per
    ``float(gamma)``, so ``run_fplm`` and a later ``audit(graph=...)`` on
    one mesh share one graph and its cached adjacency and degrees. The
    coincident-point warning is raised when a (mesh, gamma) graph is first
    built, not again when the memo returns it.
    """
    gamma = float(gamma)
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    # stored in the instance dict, as functools.cached_property does
    graphs = mesh.__dict__.setdefault("_weighted_graphs", {})
    if gamma in graphs:
        return graphs[gamma]
    edges = mesh_edges(mesh)
    diffs = mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]]
    dists = np.linalg.norm(diffs, axis=1)
    finite = dists < np.inf  # False for NaN too
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(
            f"edge ({edges[k, 0]}, {edges[k, 1]}) has length {dists[k]}; "
            "edge lengths must be finite"
        )
    if (dists == 0.0).any():
        n_zero = int((dists == 0.0).sum())
        warnings.warn(
            f"{n_zero} edge(s) connect coincident points; their weight is 1",
            RuntimeWarning,
            stacklevel=2,
        )
    weights = np.exp(-gamma * dists)
    if weights.size and weights.min() < np.finfo(float).tiny:
        k = int(np.argmin(weights))
        raise ValueError(
            f"gamma {gamma} underflows the weight of edge "
            f"({edges[k, 0]}, {edges[k, 1]}), length {dists[k]:.3e}, to "
            f"{weights[k]:.3g}; weights must be at least "
            f"{np.finfo(float).tiny:.3g}, the smallest normal double"
        )
    weights.setflags(write=False)
    graphs[gamma] = WeightedGraph(
        n=mesh.n_vertices, edges=edges, weights=weights, gamma=gamma,
        skeleton=mesh._skeleton,
    )
    return graphs[gamma]


def assemble_system(graph: WeightedGraph, fixed) -> LaplacianSystem:
    """Partition L = D - A into the free/fixed blocks of the mapping system.

    One free/fixed vertex mask splits the entries of the graph's cached
    Laplacian: those in free rows go to the free block or to the
    free-by-fixed block by their column, and each column is renumbered by
    its rank among the free or the fixed vertices. The blocks hold the
    arrays ``laplacian[free][:, free]`` and ``laplacian[free][:, fixed]``
    would, with no sparse slicing.

    Parameters
    ----------
    graph : WeightedGraph
    fixed : array-like of int
        Indices of constrained vertices. Must be integers (float or bool
        input raises ValueError), nonempty, distinct, and in range; every
        connected component of the graph must contain at least one fixed
        vertex, otherwise the free block is singular.
    """
    fixed = integer_ids(fixed, "fixed vertex indices", graph.n).ravel()
    if fixed.size == 0:
        raise ValueError("fixed vertex set is empty")
    fixed_sorted = np.sort(fixed)
    if (np.diff(fixed_sorted) == 0).any():
        raise ValueError("fixed vertex indices contain duplicates")

    labels = graph.component_labels
    has_fixed = np.bincount(labels[fixed_sorted], minlength=labels.max() + 1) > 0
    if not has_fixed.all():
        comp = int(np.argmin(has_fixed))
        example = int(np.argmax(labels == comp))
        raise ValueError(
            f"connected component {comp} (example vertex {example}) "
            "contains no fixed vertex; its block is singular"
        )

    lap = graph.laplacian
    fixed_mask = np.zeros(graph.n, dtype=bool)
    fixed_mask[fixed_sorted] = True
    free = np.flatnonzero(~fixed_mask)
    # each vertex's column in its block: its rank among the free vertices,
    # or -1 - its rank among the fixed ones, read once per entry
    column = np.empty(graph.n, dtype=lap.indices.dtype)
    column[free] = np.arange(free.size)
    column[fixed_sorted] = -1 - np.arange(fixed_sorted.size)
    entry_column = column.take(lap.indices)
    row_sizes = np.diff(lap.indptr)
    in_free_row = np.repeat(~fixed_mask, row_sizes)
    at_free = np.flatnonzero(in_free_row & (entry_column >= 0))
    at_fixed = np.flatnonzero(in_free_row & (entry_column < 0))
    # the fixed columns of each free row, counted by the rows of those entries
    rows_of_fixed = np.searchsorted(lap.indptr, at_fixed, side="right") - 1
    n_fixed_cols = np.bincount(rows_of_fixed, minlength=graph.n)[free]
    return LaplacianSystem(
        free_indices=free,
        fixed_indices=fixed_sorted,
        lap_free=_block(lap.data.take(at_free), entry_column.take(at_free),
                        row_sizes[free] - n_fixed_cols, free.size),
        lap_free_fixed=_block(lap.data.take(at_fixed), -1 - entry_column.take(at_fixed),
                              n_fixed_cols, fixed_sorted.size),
    )


def _block(data, indices, row_sizes, n_cols) -> sparse.csr_matrix:
    """The CSR matrix whose consecutive rows hold ``row_sizes`` entries each."""
    indptr = np.zeros(row_sizes.size + 1, dtype=indices.dtype)
    np.cumsum(row_sizes, out=indptr[1:])
    return sparse.csr_matrix((data, indices, indptr), shape=(row_sizes.size, n_cols))
