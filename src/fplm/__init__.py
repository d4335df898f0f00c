"""Provably injective low-dimensional embeddings of simplicial meshes.

The package builds a weighted graph Laplacian over a d-simplex
decomposition, pins a small set of vertices, and solves the resulting
positive-definite system so every free vertex lands at the weighted average
of its neighbors. It pins the seed simplex first, then the manifold
boundary at its first-round image. For triangle meshes that image has been
convex on every run checked; for tetrahedral meshes it is not (on ball3 10
only 528 of the 602 boundary vertices lie on its hull). The
:mod:`fplm.validity` auditor certifies each map numerically with exact
geometric predicates instead of taking injectivity on faith.
"""

from .generators import GENERATOR_KINDS, GeneratorSpec, ball3, delaunay2d, generate, icosphere
from .laplacian import LaplacianSystem, WeightedGraph, assemble_system, build_weights
from .mapping import (
    Embedding,
    FixedPointSet,
    make_c1,
    make_regular_polygon,
    regular_simplex,
    run_fplm,
    select_seed_simplex,
    solve_fixed_point,
)
from .meshio import (
    ParseError,
    mesh_from_json,
    mesh_to_json,
    parse_off,
    parse_tetgen,
    read_embedding_csv,
    render_svg,
    write_embedding_csv,
)
from .simplicial import (
    BoundaryComplex,
    MeshViolation,
    SimplicialMesh,
    canonical_orientation,
    detect_boundary,
    detect_dividing_simplices,
    mesh_edges,
    mesh_faces,
    validate_mesh,
)
from .solver import SolveConfig, SolverError, solve_spd
from .validity import (
    CrossingResult,
    ValidityReport,
    audit,
    check_boundary_convexity,
    check_hull_containment,
    convex_combination_residual,
    count_crossings,
    orientation_histogram,
)

__version__ = "0.1.0"

__all__ = [
    "GENERATOR_KINDS",
    "GeneratorSpec",
    "ball3",
    "delaunay2d",
    "generate",
    "icosphere",
    "LaplacianSystem",
    "WeightedGraph",
    "assemble_system",
    "build_weights",
    "Embedding",
    "FixedPointSet",
    "make_c1",
    "make_regular_polygon",
    "regular_simplex",
    "run_fplm",
    "select_seed_simplex",
    "solve_fixed_point",
    "ParseError",
    "mesh_from_json",
    "mesh_to_json",
    "parse_off",
    "parse_tetgen",
    "read_embedding_csv",
    "render_svg",
    "write_embedding_csv",
    "BoundaryComplex",
    "MeshViolation",
    "SimplicialMesh",
    "canonical_orientation",
    "detect_boundary",
    "detect_dividing_simplices",
    "mesh_edges",
    "mesh_faces",
    "validate_mesh",
    "SolveConfig",
    "SolverError",
    "solve_spd",
    "CrossingResult",
    "ValidityReport",
    "audit",
    "check_boundary_convexity",
    "check_hull_containment",
    "convex_combination_residual",
    "count_crossings",
    "orientation_histogram",
    "__version__",
]
