"""Command-line pipelines: generate, embed, validate, render.

Exit codes are script-friendly: 0 success (or certified), 2 usage/input
error, 3 validity violation, 4 solver failure. Commands raise ValueError
for any bad input, and :func:`main` alone turns it, a SolverError, and the
MemoryError of an input too large for memory, into one ``error: ...`` line
on stderr and its exit code. Every run with the same inputs and seed
writes byte-identical outputs, apart from the stage timings; ``embed``
records the fully resolved configuration, timings, and output list in a
manifest next to the embedding, and the JSON report of ``validate``
records its stage timings too. ``validate`` reads the mesh and the
drawing alone: the audit finds a closed mesh's outer simplex itself.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .generators import GENERATOR_KINDS, TRIANGULATIONS, GeneratorSpec, generate
from .mapping import run_fplm
from .meshio import (
    mesh_from_json,
    mesh_to_json,
    parse_off,
    parse_tetgen,
    read_embedding_csv,
    render_svg,
    write_embedding_csv,
    write_latent_csv,
)
from .simplicial import mesh_edges
from .solver import SolveConfig, SolverError
from .validity import audit, crossing_locations

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATED = 3
EXIT_SOLVER = 4


def _read(what: str, path):
    """Read a mesh (.json, .off, or TetGen .node with its sibling .ele) or
    an embedding CSV; a failure to read or parse the file is raised as the
    ValueError ``cannot read {what} {path}: ...``."""
    p = Path(path)
    try:
        if what == "embedding":
            return read_embedding_csv(p.read_text())
        suffix = p.suffix.lower()
        if suffix == ".node":
            ele = p.with_suffix(".ele")
            if not ele.exists():
                raise FileNotFoundError(f"no matching .ele file for {p}")
            return parse_tetgen(p.read_text(), ele.read_text())
        if suffix == ".off":
            return parse_off(p.read_text())
        return mesh_from_json(p.read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc


def _parse_resolution(text: str):
    # GeneratorSpec judges the numbers
    try:
        return tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"resolution must be an integer or AxB, got {text!r}"
        )


# ------------------------------------------------------------------ commands


def cmd_generate(args) -> int:
    spec = GeneratorSpec(
        kind=args.kind,
        resolution=args.resolution,
        seed=args.seed,
        triangulation=args.triangulation,
    )
    mesh, latent = generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(mesh_to_json(mesh))
    written = [str(out)]
    if latent is not None:
        stem = str(out)[: -len(out.suffix)] if out.suffix else str(out)
        latent_path = Path(stem + ".latent.csv")
        latent_path.write_text(write_latent_csv(latent))
        written.append(str(latent_path))

    print(
        f"generated {args.kind}: {mesh.n_vertices} vertices, "
        f"{mesh.n_simplices} simplices (d = {mesh.intrinsic_dim})"
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_embed(args) -> int:
    config = SolveConfig(rel_tol=args.rel_tol)
    t0 = time.perf_counter()
    mesh = _read("mesh", args.mesh)
    t_load = time.perf_counter()
    embedding = run_fplm(
        mesh, gamma=args.gamma, config=config, seed_simplex=args.seed_simplex
    )
    t_embed = time.perf_counter()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(write_embedding_csv(embedding.coords))
    manifest_path = Path(str(out) + ".manifest.json")

    manifest = {
        "command": "embed",
        "config": {
            "mesh": str(args.mesh),
            "gamma": args.gamma,
            "seed_simplex": args.seed_simplex,
            "solver": {"rel_tol": config.rel_tol},
        },
        "versions": _versions(),
        "result": {
            "branch": embedding.branch,
            "rounds_run": embedding.rounds_run,
            "seed_simplex": embedding.seed_simplex,
            "residuals": embedding.residuals,
            "routes": embedding.routes,
            "n_vertices": mesh.n_vertices,
            "n_simplices": mesh.n_simplices,
            "intrinsic_dim": mesh.intrinsic_dim,
        },
        "timings_ms": {
            "load": round((t_load - t0) * 1000.0, 3),
            "embed": round((t_embed - t_load) * 1000.0, 3),
            "write": None,  # patched below, after writing completes
        },
        "outputs": [str(out), str(manifest_path)],
    }
    t_write = time.perf_counter()
    manifest["timings_ms"]["write"] = round((t_write - t_embed) * 1000.0, 3)
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")

    print(f"branch: {embedding.branch}")
    print(f"rounds_run: {embedding.rounds_run}")
    for name, value in embedding.residuals.items():
        route = embedding.routes[name]
        iterations = (f", {route['iterations']} iterations"
                      if "iterations" in route else "")
        print(f"residual {name}: {value:.3e} ({route['route']}{iterations})")
    print(f"wrote {out}")
    print(f"wrote {manifest_path}")
    return EXIT_OK


def _versions() -> dict:
    import scipy

    return {
        "fplm": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    mesh = _read("mesh", args.mesh)
    t_load = time.perf_counter()
    coords = _read("embedding", args.embedding)
    t_read = time.perf_counter()
    report = audit(mesh, coords)
    timings_ms = {
        "load": round((t_load - t0) * 1000.0, 3),
        "read": round((t_read - t_load) * 1000.0, 3),
        "audit": round((time.perf_counter() - t_read) * 1000.0, 3),
    }

    text = report.to_text()
    print(text)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        json_path = Path(str(out) + ".json")
        blob = {**report.to_dict(), "timings_ms": timings_ms}
        json_path.write_text(json.dumps(blob, indent=1) + "\n")
        print(f"wrote {out}")
        print(f"wrote {json_path}")
    return EXIT_OK if report.verdict == "injective-certified" else EXIT_VIOLATED


def cmd_render(args) -> int:
    mesh = _read("mesh", args.mesh)
    coords = _read("embedding", args.embedding)
    markers = None
    if args.mark_crossings:
        # the audit skips the full count when the degree theorem certifies
        pairs = audit(mesh, coords).crossing_pairs
        if pairs:
            markers = crossing_locations(mesh_edges(mesh), coords, pairs)
        print(f"crossings marked: {len(pairs)}")

    svg = render_svg(
        mesh,
        coords,
        highlight_boundary=args.highlight_boundary,
        crossing_points=markers,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(svg)
    print(f"wrote {out}")
    return EXIT_OK


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fplm",
        description=(
            "Injective low-dimensional embeddings of simplicial meshes via "
            "fixed-point Laplacian mapping, with geometric certification."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="produce a built-in dataset mesh")
    g.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    g.add_argument(
        "--resolution",
        required=True,
        type=_parse_resolution,
        help="points per axis (AxB), subdivision level, or cells per axis",
    )
    g.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    g.add_argument(
        "--triangulation",
        choices=TRIANGULATIONS,
        default="structured-grid",
        help="surface triangulation mode (default structured-grid)",
    )
    g.add_argument("--out", required=True, help="mesh JSON output path")
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("embed", help="run the fixed-point Laplacian mapping")
    e.add_argument("--mesh", required=True, help="mesh file (.json/.off/.node)")
    e.add_argument(
        "--gamma", type=float, default=0.1, help="weight decay rate (default 0.1)"
    )
    e.add_argument(
        "--seed-simplex",
        type=int,
        metavar="N",
        help="simplex that round 1 pins (default: the most interior one)",
    )
    e.add_argument(
        "--rel-tol",
        type=float,
        default=1e-10,
        help="relative residual tolerance (default 1e-10)",
    )
    e.add_argument("--out", required=True, help="embedding CSV output path")
    e.set_defaults(func=cmd_embed)

    v = sub.add_parser("validate", help="audit an embedding against its mesh")
    v.add_argument("--mesh", required=True)
    v.add_argument("--embedding", required=True, help="embedding CSV")
    v.add_argument("--out", default=None, help="report path (text; JSON beside)")
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("render", help="draw a 2-D embedding wireframe as SVG")
    r.add_argument("--mesh", required=True)
    r.add_argument("--embedding", required=True, help="embedding CSV")
    r.add_argument("--out", required=True, help="SVG output path")
    r.add_argument("--highlight-boundary", action="store_true")
    r.add_argument("--mark-crossings", action="store_true")
    r.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        message, code = str(exc), EXIT_USAGE
    except SolverError as exc:
        message, code = f"solver failed: {exc}", EXIT_SOLVER
    except MemoryError as exc:
        # an input too large for memory is bad input too
        message, code = f"out of memory: {exc}", EXIT_USAGE
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
