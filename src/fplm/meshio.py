"""Mesh and embedding interchange: OFF, TetGen, JSON, CSV, and SVG output.

All writers format floats with repr, the shortest representation that
round-trips exactly, so write/read cycles are lossless and repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .simplicial import SimplicialMesh, detect_boundary, mesh_edges, triangulate_polygon_faces


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- OFF files


def parse_off(text: str) -> SimplicialMesh:
    """Parse an OFF surface file into a triangle mesh.

    Polygon faces with more than three vertices are fan-triangulated from
    their lowest-index vertex. Comment lines (#) and blank lines are
    skipped; trailing tokens after the vertex list of a face (e.g. color
    attributes) are ignored.
    """
    rows = _numeric_rows(text)
    if not rows:
        raise ParseError(1, "empty OFF file")

    pos = 0
    lineno, header = rows[pos]
    if header != ["OFF"]:
        raise ParseError(lineno, f"expected OFF header, got {' '.join(header)!r}")
    pos += 1
    if pos >= len(rows):
        raise ParseError(lineno, "missing counts line")
    lineno, parts = rows[pos]
    if len(parts) != 3:
        raise ParseError(lineno, f"counts line must have 3 integers, got {' '.join(parts)!r}")
    n_verts, n_faces, _n_edges = _ints(lineno, parts, "counts line")
    if n_verts < 0 or n_faces < 0:
        raise ParseError(lineno, f"counts must not be negative, got {' '.join(parts)!r}")
    pos += 1

    if len(rows) - pos < n_verts:
        last = rows[-1][0] if rows else lineno
        raise ParseError(last, f"file ends before {n_verts} vertex lines")
    verts = np.zeros((n_verts, 3))
    for i in range(n_verts):
        lineno, parts = rows[pos]
        if len(parts) < 3:
            raise ParseError(lineno, f"vertex line needs 3 coordinates, got {' '.join(parts)!r}")
        verts[i] = _floats(lineno, parts[:3], "vertex coordinates")
        pos += 1

    if len(rows) - pos < n_faces:
        last = rows[-1][0]
        raise ParseError(last, f"file ends before {n_faces} face lines")
    faces = []
    for _ in range(n_faces):
        lineno, parts = rows[pos]
        (k,) = _ints(lineno, parts[:1], "face vertex count")
        if k < 3:
            raise ParseError(lineno, f"face with {k} vertices is not a polygon")
        if len(parts) < 1 + k:
            raise ParseError(lineno, f"face declares {k} vertices but lists fewer")
        face = _ints(lineno, parts[1 : 1 + k], "face indices")
        for v in face:
            if not (0 <= v < n_verts):
                raise ParseError(lineno, f"face index {v} out of range [0, {n_verts})")
        faces.append(face)
        pos += 1

    return triangulate_polygon_faces(faces, verts)


# -------------------------------------------------------------- TetGen files


def parse_tetgen(node_text: str, ele_text: str) -> SimplicialMesh:
    """Parse TetGen .node/.ele file contents into a tetrahedral mesh.

    Handles both 0-based and 1-based numbering by inspecting the first node
    index. Raises ParseError for dimension mismatches, a node file with no
    nodes, non-numeric tokens, non-tetrahedral cells, or dangling indices.
    """
    node_rows = _numeric_rows(node_text)
    if not node_rows:
        raise ParseError(1, "empty .node file")
    lineno, header = node_rows[0]
    if len(header) < 2:
        raise ParseError(lineno, ".node header needs at least count and dimension")
    n_nodes, dim = _ints(lineno, header[:2], ".node header")
    if dim != 3:
        raise ParseError(lineno, f".node dimension must be 3, got {dim}")
    if n_nodes < 1:
        raise ParseError(lineno, f".node file must declare at least one node, got {n_nodes}")
    if len(node_rows) - 1 < n_nodes:
        raise ParseError(node_rows[-1][0], f"file ends before {n_nodes} node lines")

    (base,) = _ints(node_rows[1][0], node_rows[1][1][:1], "node index")
    if base not in (0, 1):
        raise ParseError(node_rows[1][0], f"node numbering must start at 0 or 1, got {base}")

    verts = np.zeros((n_nodes, 3))
    seen = np.zeros(n_nodes, dtype=bool)
    for lineno, parts in node_rows[1 : 1 + n_nodes]:
        if len(parts) < 4:
            raise ParseError(lineno, "node line needs an index and 3 coordinates")
        (index,) = _ints(lineno, parts[:1], "node index")
        idx = index - base
        if not (0 <= idx < n_nodes):
            raise ParseError(lineno, f"node index {index} out of range")
        verts[idx] = _floats(lineno, parts[1:4], "node coordinates")
        seen[idx] = True
    if not seen.all():
        raise ParseError(node_rows[-1][0], "node indices do not cover the declared range")

    ele_rows = _numeric_rows(ele_text)
    if not ele_rows:
        raise ParseError(1, "empty .ele file")
    lineno, header = ele_rows[0]
    if len(header) < 2:
        raise ParseError(lineno, ".ele header needs count and nodes-per-cell")
    n_cells, npt = _ints(lineno, header[:2], ".ele header")
    if npt != 4:
        raise ParseError(lineno, f"cells must be tetrahedra (4 nodes), got {npt}")
    if n_cells < 0:
        raise ParseError(lineno, f".ele cell count must not be negative, got {n_cells}")
    if len(ele_rows) - 1 < n_cells:
        raise ParseError(ele_rows[-1][0], f"file ends before {n_cells} cell lines")

    cells = np.zeros((n_cells, 4), dtype=np.int64)
    for row, (lineno, parts) in enumerate(ele_rows[1 : 1 + n_cells]):
        if len(parts) < 5:
            raise ParseError(lineno, "cell line needs an index and 4 node ids")
        ids = [v - base for v in _ints(lineno, parts[1:5], "cell node ids")]
        for v in ids:
            if not (0 <= v < n_nodes):
                raise ParseError(
                    lineno, f"cell references node {v + base}, outside the node file"
                )
        cells[row] = ids

    return SimplicialMesh(verts, cells, 3)


def _numeric_rows(text: str):
    """Non-comment, non-blank lines split into tokens, with line numbers."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((lineno, stripped.split()))
    return rows


def _ints(lineno: int, tokens, what: str):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(lineno, f"{what} must be integers, got {' '.join(tokens)!r}") from None


def _floats(lineno: int, tokens, what: str):
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise ParseError(lineno, f"{what} must be numbers, got {' '.join(tokens)!r}") from None


# ------------------------------------------------------------- JSON and CSV


def mesh_to_json(mesh: SimplicialMesh) -> str:
    payload = {
        "ambient_dim": mesh.ambient_dim,
        "intrinsic_dim": mesh.intrinsic_dim,
        "vertices": [[float(x) for x in row] for row in mesh.vertices],
        "simplices": [[int(x) for x in row] for row in mesh.simplices],
    }
    return json.dumps(payload, indent=1)


def mesh_from_json(text: str) -> SimplicialMesh:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"mesh JSON must be an object, got {json.dumps(payload)[:40]}")
    for key in ("ambient_dim", "intrinsic_dim", "vertices", "simplices"):
        if key not in payload:
            raise ValueError(f"mesh JSON is missing the {key!r} field")
    for key in ("ambient_dim", "intrinsic_dim"):
        if type(payload[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {json.dumps(payload[key])}")
    # numpy infers the dtypes below, so a string, null or object entry stays
    # non-numeric; a JSON bool mixed into number rows is inferred as a number
    # (true -> 1), and the text test keeps the per-entry scan for it off
    # bool-free meshes
    maybe_bool = "true" in text or "false" in text
    try:
        verts = np.array(payload["vertices"])
    except ValueError as exc:
        raise ValueError(f"vertices must be rows of numbers: {exc}") from None
    if verts.dtype.kind not in "if" or maybe_bool and _has_bool(payload["vertices"]):
        raise ValueError("vertices must be rows of numbers (no strings, nulls or bools)")
    verts = verts.astype(float, copy=False)
    if verts.ndim != 2 or verts.shape[1] != payload["ambient_dim"]:
        raise ValueError("vertex array does not match ambient_dim")
    # a float, string or beyond-int64 entry, or bools only, leave the
    # simplices non-integer, where a cast would truncate or overflow
    simplices = np.array(payload["simplices"])
    dtype = simplices.dtype
    if dtype.kind == "i" and maybe_bool and _has_bool(payload["simplices"]):
        dtype = np.dtype(bool)
    if simplices.size and dtype.kind != "i":
        raise ValueError(
            "simplex vertex ids must be integers in the int64 range, got "
            f"{dtype} entries"
        )
    try:
        return SimplicialMesh(verts, simplices, payload["intrinsic_dim"])
    except IndexError as exc:
        raise ValueError(
            f"simplex vertex id out of range [0, {verts.shape[0]})"
        ) from exc


def _has_bool(rows) -> bool:
    return any(type(v) is bool for v in np.array(rows, dtype=object).ravel())


def write_embedding_csv(coords: np.ndarray) -> str:
    """Embedding as CSV text: header id,y0,...; floats at full precision."""
    return _write_csv(coords, "y")


def write_latent_csv(latent: np.ndarray) -> str:
    """Latent parameters as CSV text: header id,u0,...; as the embedding."""
    return _write_csv(latent, "u")


def _write_csv(coords, letter: str) -> str:
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise ValueError("coords must be a 2-D array")
    d = coords.shape[1]
    lines = ["id," + ",".join(f"{letter}{k}" for k in range(d))]
    for i, row in enumerate(coords):
        lines.append(str(i) + "," + ",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def read_embedding_csv(text: str) -> np.ndarray:
    """Read an id,y0,... CSV back into an (N, d) array, id-ordered.

    Accepts third-party embeddings as long as the header starts with an id
    column; ids must cover 0..N-1 and every coordinate must be finite.
    Malformed rows raise :class:`ParseError` with their 1-based line number.
    """
    rows = [
        (lineno, ln)
        for lineno, ln in enumerate(text.splitlines(), start=1)
        if ln.strip()
    ]
    if len(rows) < 2:
        raise ValueError("embedding CSV has no data rows")
    header = [h.strip() for h in rows[0][1].split(",")]
    if header[0] != "id" or len(header) < 2:
        raise ValueError("embedding CSV header must be id,y0,...")
    d = len(header) - 1
    n = len(rows) - 1
    ids = []
    values = []
    for lineno, ln in rows[1:]:
        parts = ln.split(",")
        if len(parts) != d + 1:
            raise ParseError(lineno, f"expected {d + 1} fields, got {len(parts)}")
        try:
            i = int(parts[0])
            values.append([float(p) for p in parts[1:]])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if not (0 <= i < n):
            raise ParseError(lineno, f"id {i} out of range [0, {n})")
        ids.append(i)
    values = np.array(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ParseError(rows[1 + bad[0]][0], "coordinate is not finite (NaN or inf)")
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    if not seen.all():
        missing = int(np.argmin(seen))
        raise ValueError(f"embedding CSV ids do not cover 0..N-1 (id {missing} is missing)")
    coords = np.empty((n, d))
    coords[ids] = values
    return coords


# --------------------------------------------------------------- SVG output


def render_svg(
    mesh: SimplicialMesh,
    coords: np.ndarray,
    *,
    highlight_boundary: bool = False,
    crossing_points: np.ndarray | None = None,
) -> str:
    """Deterministic wireframe drawing of a 2-D embedding.

    Every unique mesh edge becomes exactly one line element, in sorted edge
    order; boundary edges go to a separately styled group when highlighted.
    ``crossing_points`` adds circle markers, e.g. at crossing locations
    found by the auditor. Output bytes depend only on the inputs.
    """
    size = 800  # width of the drawing in SVG user units
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (mesh.n_vertices, 2):
        raise ValueError(f"coords must be ({mesh.n_vertices}, 2)")
    edges = mesh_edges(mesh)

    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    margin = 0.05 * float(span.max())
    width = float(span[0] + 2 * margin)
    height = float(span[1] + 2 * margin)

    def sx(x):
        return _fmt((x - lo[0] + margin) / max(width, 1e-30) * size)

    def sy(y):
        # flip y so the drawing keeps the mathematical orientation
        return _fmt((hi[1] - y + margin) / max(height, 1e-30) * size * height / width)

    boundary_set = set()
    if highlight_boundary:
        bfaces = detect_boundary(mesh).boundary_faces
        if mesh.intrinsic_dim == 2:
            boundary_set = {(int(u), int(v)) for u, v in bfaces}

    interior_lines = []
    boundary_lines = []
    for u, v in edges:
        u, v = int(u), int(v)
        line = (
            f'<line x1="{sx(coords[u, 0])}" y1="{sy(coords[u, 1])}" '
            f'x2="{sx(coords[v, 0])}" y2="{sy(coords[v, 1])}"/>'
        )
        if (u, v) in boundary_set:
            boundary_lines.append(line)
        else:
            interior_lines.append(line)

    vb_h = size * height / width
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {_fmt(vb_h)}" '
        f'width="{size}" height="{_fmt(vb_h)}">',
        f'<g stroke="#555555" stroke-width="{_fmt(size / 1000)}" fill="none">',
        *interior_lines,
        "</g>",
    ]
    if boundary_lines:
        parts.append(
            f'<g stroke="#c43131" stroke-width="{_fmt(size / 500)}" fill="none">'
        )
        parts.extend(boundary_lines)
        parts.append("</g>")
    if crossing_points is not None and len(crossing_points):
        parts.append('<g fill="#c43131" stroke="none">')
        for x, y in np.asarray(crossing_points, dtype=float):
            parts.append(
                f'<circle cx="{sx(x)}" cy="{sy(y)}" r="{_fmt(size / 160)}"/>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
