"""Fixed-point Laplacian mapping: the two-round embedding pipeline.

The mapping minimizes the Laplacian quadratic form tr(Y' L Y) subject to a
small set of vertices pinned at fixed targets. With the free block written
L_y and the free-by-fixed block L_yc, the minimizer solves
L_y Y_free = -L_yc C, which makes every free vertex the weighted convex
combination of its neighbors.

The driver picks one of two branches:

* no dividing faces (strongly connected): round 1 pins one d-simplex, the
  seed, to a regular simplex; if the mesh has a boundary beyond those seed
  vertices, round 2 re-solves with the boundary pinned where round 1
  placed it, freeing everything else. Closed meshes stop after round 1.
* dividing edges present (d = 2 only): the whole boundary loop is pinned to
  a regular polygon and a single solve finishes the job.

The seed is the caller's simplex index when one is given, and otherwise
the one rule of :func:`select_seed_simplex`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .laplacian import WeightedGraph, assemble_system, build_weights
from .simplicial import (
    SimplicialMesh,
    canonical_orientation,
    detect_boundary,
    detect_dividing_simplices,
    integer_id,
    integer_ids,
    validate_mesh,
)
from .solver import SolveConfig, solve_spd


@dataclass(frozen=True, eq=False)
class FixedPointSet:
    """Constrained vertices and their target coordinates.

    ``indices`` and ``targets`` are aligned row by row: a seed simplex at a
    regular simplex (:func:`make_c1`), the boundary at its round-1 image,
    or the boundary cycle at a regular polygon (:func:`make_regular_polygon`).
    """

    indices: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        # a copy: a later write to the caller's array cannot reach idx
        idx = integer_ids(self.indices, "fixed vertex indices").flatten()
        tgt = np.asarray(self.targets, dtype=float)
        if tgt.ndim != 2:
            raise ValueError("targets must be a (p, d) array")
        if idx.shape[0] != tgt.shape[0]:
            raise ValueError("indices and targets disagree on p")
        d = tgt.shape[1]
        if idx.shape[0] < d + 1:
            raise ValueError(
                f"need at least d + 1 = {d + 1} fixed vertices, got {idx.shape[0]}"
            )
        if len(set(idx.tolist())) != idx.shape[0]:
            raise ValueError("fixed vertex indices contain duplicates")
        idx.setflags(write=False)
        tgt.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "targets", tgt)

    @property
    def dim(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True, eq=False)
class Embedding:
    """Result of a mapping run.

    coords holds the final (N, d) embedding; rows of fixed vertices equal
    their targets exactly, they are scattered rather than solved for.
    coords_round1 keeps the round-1 image (identical to coords for
    single-round runs; round 2 pins the boundary at its round-1 image, so
    both hold the same boundary bytes). seed_simplex is the simplex round 1
    pinned, None on the polygon branch, the one branch with no seed; branch
    is read from it and from rounds_run.
    residuals and routes are keyed by round ("round1", "round2"): the
    achieved relative residual, and the solver route record of that round
    (see :func:`fplm.solver.solve_spd`), e.g. {"route": "band",
    "band_width": 44}. rounds_run is 2 when round 2 ran (fixed_round2 is
    set) and 1 otherwise.
    """

    coords: np.ndarray
    fixed_round1: FixedPointSet
    fixed_round2: FixedPointSet | None
    coords_round1: np.ndarray
    seed_simplex: int | None
    residuals: dict = field(default_factory=dict)
    routes: dict = field(default_factory=dict)

    @property
    def rounds_run(self) -> int:
        return 1 if self.fixed_round2 is None else 2

    @property
    def branch(self) -> str:
        if self.seed_simplex is None:
            return "p-gon"
        return "two-round" if self.rounds_run == 2 else "one-round"


def regular_simplex(d: int) -> np.ndarray:
    """Vertices of the regular d-simplex with unit circumradius at the origin.

    Canonical placements: d = 2 puts the corners at angles 90, 210 and 330
    degrees on the unit circle; d = 3 uses the alternating cube corners
    scaled to unit length. Any other d raises ``ValueError``: meshes are
    triangles or tetrahedra.
    """
    if d == 2:
        s = math.sqrt(3.0) / 2.0
        return np.array([[0.0, 1.0], [-s, -0.5], [s, -0.5]])
    if d == 3:
        r = 1.0 / math.sqrt(3.0)
        return np.array(
            [
                [r, r, r],
                [r, -r, -r],
                [-r, r, -r],
                [-r, -r, r],
            ]
        )
    raise ValueError(f"regular simplex is defined for d = 2 or 3, got {d}")


def select_seed_simplex(mesh: SimplicialMesh) -> int:
    """The simplex whose vertices round 1 pins when no seed is given.

    It maximizes the minimum breadth-first graph distance of its vertices
    to the boundary, ties broken by lowest simplex index; on a closed mesh
    every simplex ties, so simplex 0 wins. The search runs on the mesh's
    cached 1-skeleton pattern, the one the weighted graph's matrices share.
    """
    sources = detect_boundary(mesh).boundary_vertices
    if sources.size == 0:
        return 0
    n = mesh.n_vertices
    # both directions stored, so the directed search needs no transpose; an
    # unweighted search reads the pattern only, not the edge ids it holds
    hops = dijkstra(
        mesh._skeleton, directed=True, indices=sources, unweighted=True, min_only=True
    )
    # unreachable vertices sit infinitely deep; keep them maximal
    depth = np.where(np.isinf(hops), n + 1, hops).astype(np.int64)
    score = depth[mesh.simplices].min(axis=1)
    return int(np.argmax(score))


def make_c1(mesh: SimplicialMesh, simplex_index: int) -> FixedPointSet:
    """Round-1 constraints: the selected simplex pinned to a regular simplex.

    The simplex vertices are taken in ascending index order and matched to
    the canonical regular-simplex corners in that order. A ``simplex_index``
    that :func:`~fplm.simplicial.integer_id` refuses raises ValueError.
    """
    simplex_index = integer_id(simplex_index, "seed simplex", mesh.n_simplices)
    idx = np.sort(mesh.simplices[simplex_index])
    return FixedPointSet(indices=idx, targets=regular_simplex(mesh.intrinsic_dim))


def make_regular_polygon(mesh: SimplicialMesh) -> FixedPointSet:
    """Pin the (single) boundary loop of a d = 2 mesh to a regular polygon.

    The loop is the cached boundary cycle of the mesh (see
    :func:`~fplm.simplicial.detect_boundary`), its direction first aligned
    with the canonical simplex orientation so that triangles map with
    positive orientation. The k-th cycle vertex then goes to
    (cos 2 pi k / p, sin 2 pi k / p).
    """
    boundary = detect_boundary(mesh)
    if boundary.boundary_cycles is None:
        raise ValueError("regular polygon targets are defined for d = 2 only")
    if len(boundary.boundary_cycles) == 0:
        raise ValueError("mesh has no boundary; cannot pin a boundary polygon")
    if len(boundary.boundary_cycles) > 1:
        raise ValueError(
            f"boundary has {len(boundary.boundary_cycles)} loops; the "
            "polygon construction needs exactly one"
        )
    cycle = list(boundary.boundary_cycles[0])
    if len(cycle) < 3:
        raise ValueError("boundary loop has fewer than 3 vertices")
    if not _cycle_matches_orientation(mesh, cycle):
        cycle = [cycle[0]] + cycle[:0:-1]
    p = len(cycle)
    angles = 2.0 * math.pi * np.arange(p) / p
    targets = np.column_stack([np.cos(angles), np.sin(angles)])
    return FixedPointSet(indices=np.asarray(cycle, dtype=np.int64), targets=targets)


def _cycle_matches_orientation(mesh: SimplicialMesh, cycle: list[int]) -> bool:
    """True when the cycle walks boundary edges the way canonically oriented
    triangles traverse them (interior on the left for ccw triangles)."""
    first, second = cycle[0], cycle[1]
    tris = mesh.simplices
    # the boundary edge (first, second) is a side of exactly one triangle
    m = int(np.argmax((tris == first).any(axis=1) & (tris == second).any(axis=1)))
    tri = tris[m].tolist()
    # the stored order (t0, t1, t2) walks first -> second when second follows first
    forward = tri[(tri.index(first) + 1) % 3] == second
    return forward == (canonical_orientation(mesh)[m] > 0)


def solve_fixed_point(
    graph: WeightedGraph,
    fixed: FixedPointSet,
    config: SolveConfig | None = None,
) -> tuple[np.ndarray, float, dict]:
    """Solve the constrained Laplacian system for one fixed-point set.

    Returns the full (N, d) coordinate array, with fixed rows copied from
    the targets verbatim, the achieved relative residual of the free block
    solve, and the solver's route record (see :func:`fplm.solver.solve_spd`).
    """
    system = assemble_system(graph, fixed.indices)
    coords = np.zeros((graph.n, fixed.dim))
    coords[fixed.indices] = fixed.targets
    rhs = -(system.lap_free_fixed @ coords[system.fixed_indices])
    solution, residual, route = solve_spd(system.lap_free, rhs, config)
    coords[system.free_indices] = solution
    return coords, residual, route


def run_fplm(
    mesh: SimplicialMesh,
    gamma: float = 0.1,
    config: SolveConfig | None = None,
    *,
    seed_simplex: int | None = None,
) -> Embedding:
    """Run the full mapping pipeline on a validated mesh.

    Strongly connected meshes (and all meshes with d != 2) go through the
    seed-simplex rounds; d = 2 meshes with dividing edges are instead pinned
    to a regular polygon in one solve. Round 1 pins simplex ``seed_simplex``,
    or the one :func:`select_seed_simplex` picks when it is None; the
    polygon branch pins no simplex and ignores it. Raises ValueError when
    ``seed_simplex`` is not one simplex index (a float, a bool, an array or
    an id outside [0, M) included, on either branch), or when the mesh
    fails validation, is not orientable, or has multiple boundary loops
    (d = 2).
    """
    if seed_simplex is not None:
        seed_simplex = integer_id(seed_simplex, "seed simplex", mesh.n_simplices)
    violations = validate_mesh(mesh)
    if violations:
        head = "; ".join(v.detail for v in violations[:3])
        raise ValueError(
            f"mesh fails validation with {len(violations)} violation(s): {head}"
        )
    # the two-round branch reads no orientation, so a non-orientable mesh
    # would pass it; the signs come from the cover labels validation cached
    canonical_orientation(mesh)
    boundary = detect_boundary(mesh)
    if boundary.boundary_cycles is not None and len(boundary.boundary_cycles) > 1:
        raise ValueError(
            f"mesh boundary has {len(boundary.boundary_cycles)} loops; "
            "only a single boundary loop is supported"
        )
    # The dividing-simplex reroute exists for d = 2 only, where the regular
    # polygon substitutes for the two-round construction. Tetrahedral meshes
    # of solid regions always carry interior faces with all vertices on the
    # boundary (a lone 5-tet cube already has four), so in higher dimensions
    # the two-round path runs unconditionally. A closed mesh has no
    # boundary, hence no dividing faces.
    dividing = detect_dividing_simplices(mesh) if mesh.intrinsic_dim == 2 else []
    graph = build_weights(mesh, gamma)

    if dividing:
        seed_ix = None
        fixed1 = make_regular_polygon(mesh)
    else:
        seed_ix = select_seed_simplex(mesh) if seed_simplex is None else seed_simplex
        fixed1 = make_c1(mesh, seed_ix)
    coords1, res1, route1 = solve_fixed_point(graph, fixed1, config)
    coords, residuals, routes = coords1, {"round1": res1}, {"round1": route1}

    fixed2 = None
    bverts = boundary.boundary_vertices  # ascending, as the seed's indices
    if (seed_ix is not None and bverts.size
            and not np.array_equal(bverts, fixed1.indices)):
        fixed2 = FixedPointSet(indices=bverts, targets=coords1[bverts])
        coords, residuals["round2"], routes["round2"] = solve_fixed_point(
            graph, fixed2, config
        )
    return Embedding(
        coords=coords,
        fixed_round1=fixed1,
        fixed_round2=fixed2,
        coords_round1=coords1,
        seed_simplex=seed_ix,
        residuals=residuals,
        routes=routes,
    )
