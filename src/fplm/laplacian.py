"""Edge weights and graph Laplacian blocks for the fixed-point solve.

Weights live on the 1-skeleton of the mesh: w_ij = exp(-gamma * ||x_i - x_j||)
with plain Euclidean distance in the ambient space. The Laplacian L = D - A
is partitioned by a free/fixed vertex split into the blocks L_y (free x free)
and L_yc (free x fixed) that define the linear system of the mapping.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .simplicial import SimplicialMesh, mesh_edges


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted 1-skeleton of a mesh.

    Edges are stored once with i < j; weights are strictly positive and
    read-only, since :func:`build_weights` hands one graph per (mesh,
    gamma) to every caller. The adjacency, degrees, Laplacian and component
    labels are built once per graph on first use and shared, read-only;
    every system assembled on the graph slices its blocks from the one
    Laplacian.
    """

    n: int
    edges: np.ndarray
    weights: np.ndarray
    gamma: float

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric sparse adjacency matrix with the edge weights."""
        return _frozen(symmetric_csr(self.n, self.edges, self.weights))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted vertex degrees, the row sums of the adjacency."""
        degrees = np.asarray(self.adjacency.sum(axis=1)).ravel()
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def laplacian(self) -> sparse.csr_matrix:
        """Graph Laplacian L = D - A.

        One COO of the lower entries -w, the nonzero degrees and the upper
        entries -w, in that order: each row then lists its columns sorted,
        so scipy builds canonical CSR with no sort. These are the arrays
        ``(sparse.diags(degrees) - A).tocsr()`` holds, a zero degree
        dropped, without the sparse subtraction.
        """
        i, j = self.edges.T
        diagonal = np.flatnonzero(self.degrees)
        rows = np.concatenate([j, diagonal, i])
        cols = np.concatenate([i, diagonal, j])
        data = np.concatenate([-self.weights, self.degrees[diagonal], -self.weights])
        return _frozen(sparse.csr_matrix((data, (rows, cols)), shape=(self.n, self.n)))

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Connected-component label of each vertex."""
        _, labels = connected_components(self.adjacency, directed=False)
        labels.setflags(write=False)
        return labels


def symmetric_csr(n: int, edges: np.ndarray, values: np.ndarray) -> sparse.csr_matrix:
    """The symmetric n x n matrix with ``values[k]`` at (i, j) and (j, i)
    for edge k = (i, j).

    ``edges`` holds unique pairs i < j in lexicographic order (as
    :func:`mesh_edges` returns them), so taking each row's lower partners
    first, then its upper ones, lists every row's columns sorted: scipy
    builds canonical CSR from it with no per-row sort.
    """
    i, j = edges.T
    data = np.concatenate([values, values])
    return sparse.csr_matrix(
        (data, (np.concatenate([j, i]), np.concatenate([i, j]))), shape=(n, n), dtype=float
    )


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
        n=mesh.n_vertices, edges=edges, weights=weights, gamma=gamma
    )
    return graphs[gamma]


def assemble_system(graph: WeightedGraph, fixed) -> LaplacianSystem:
    """Partition L = D - A into the free/fixed blocks of the mapping system.

    Parameters
    ----------
    graph : WeightedGraph
    fixed : array-like of int
        Indices of constrained vertices. Must be nonempty, distinct, and in
        range; every connected component of the graph must contain at least
        one fixed vertex, otherwise the free block is singular.
    """
    fixed = np.asarray(fixed, dtype=np.int64).ravel()
    if fixed.size == 0:
        raise ValueError("fixed vertex set is empty")
    if fixed.min() < 0 or fixed.max() >= graph.n:
        raise ValueError("fixed vertex index out of range")
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

    fixed_mask = np.zeros(graph.n, dtype=bool)
    fixed_mask[fixed_sorted] = True
    free = np.flatnonzero(~fixed_mask)
    free_rows = graph.laplacian[free]
    return LaplacianSystem(
        free_indices=free,
        fixed_indices=fixed_sorted,
        lap_free=free_rows[:, free].tocsr(),
        lap_free_fixed=free_rows[:, fixed_sorted].tocsr(),
    )
