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
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((lineno, stripped))
    if not rows:
        raise ParseError(1, "empty OFF file")

    pos = 0
    lineno, header = rows[pos]
    if header != "OFF":
        raise ParseError(lineno, f"expected OFF header, got {header!r}")
    pos += 1
    if pos >= len(rows):
        raise ParseError(lineno, "missing counts line")
    lineno, counts_line = rows[pos]
    parts = counts_line.split()
    if len(parts) != 3:
        raise ParseError(lineno, f"counts line must have 3 integers, got {counts_line!r}")
    try:
        n_verts, n_faces, _n_edges = (int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(lineno, f"bad counts line {counts_line!r}") from exc
    pos += 1

    if len(rows) - pos < n_verts:
        last = rows[-1][0] if rows else lineno
        raise ParseError(last, f"file ends before {n_verts} vertex lines")
    verts = np.zeros((n_verts, 3))
    for i in range(n_verts):
        lineno, line = rows[pos]
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(lineno, f"vertex line needs 3 coordinates, got {line!r}")
        try:
            verts[i] = [float(parts[k]) for k in range(3)]
        except ValueError as exc:
            raise ParseError(lineno, f"bad vertex coordinates {line!r}") from exc
        pos += 1

    if len(rows) - pos < n_faces:
        last = rows[-1][0]
        raise ParseError(last, f"file ends before {n_faces} face lines")
    faces = []
    for _ in range(n_faces):
        lineno, line = rows[pos]
        parts = line.split()
        try:
            k = int(parts[0])
        except (IndexError, ValueError) as exc:
            raise ParseError(lineno, f"bad face line {line!r}") from exc
        if k < 3:
            raise ParseError(lineno, f"face with {k} vertices is not a polygon")
        if len(parts) < 1 + k:
            raise ParseError(lineno, f"face declares {k} vertices but lists fewer")
        try:
            face = [int(p) for p in parts[1 : 1 + k]]
        except ValueError as exc:
            raise ParseError(lineno, f"bad face indices {line!r}") from exc
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
    index. Raises ParseError for dimension mismatches, non-tetrahedral
    cells, or dangling indices.
    """
    node_rows = _numeric_rows(node_text)
    if not node_rows:
        raise ParseError(1, "empty .node file")
    lineno, header = node_rows[0]
    if len(header) < 2:
        raise ParseError(lineno, ".node header needs at least count and dimension")
    n_nodes = int(header[0])
    dim = int(header[1])
    if dim != 3:
        raise ParseError(lineno, f".node dimension must be 3, got {dim}")
    if len(node_rows) - 1 < n_nodes:
        raise ParseError(node_rows[-1][0], f"file ends before {n_nodes} node lines")

    first_index = int(node_rows[1][1][0])
    if first_index not in (0, 1):
        raise ParseError(node_rows[1][0], f"node numbering must start at 0 or 1, got {first_index}")
    base = first_index

    verts = np.zeros((n_nodes, 3))
    seen = np.zeros(n_nodes, dtype=bool)
    for lineno, parts in node_rows[1 : 1 + n_nodes]:
        if len(parts) < 4:
            raise ParseError(lineno, "node line needs an index and 3 coordinates")
        idx = int(parts[0]) - base
        if not (0 <= idx < n_nodes):
            raise ParseError(lineno, f"node index {int(parts[0])} out of range")
        verts[idx] = [float(parts[k]) for k in (1, 2, 3)]
        seen[idx] = True
    if not seen.all():
        raise ParseError(node_rows[-1][0], "node indices do not cover the declared range")

    ele_rows = _numeric_rows(ele_text)
    if not ele_rows:
        raise ParseError(1, "empty .ele file")
    lineno, header = ele_rows[0]
    if len(header) < 2:
        raise ParseError(lineno, ".ele header needs count and nodes-per-cell")
    n_cells = int(header[0])
    npt = int(header[1])
    if npt != 4:
        raise ParseError(lineno, f"cells must be tetrahedra (4 nodes), got {npt}")
    if len(ele_rows) - 1 < n_cells:
        raise ParseError(ele_rows[-1][0], f"file ends before {n_cells} cell lines")

    cells = np.zeros((n_cells, 4), dtype=np.int64)
    for row, (lineno, parts) in enumerate(ele_rows[1 : 1 + n_cells]):
        if len(parts) < 5:
            raise ParseError(lineno, "cell line needs an index and 4 node ids")
        ids = [int(parts[k]) - base for k in (1, 2, 3, 4)]
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
    for key in ("ambient_dim", "intrinsic_dim", "vertices", "simplices"):
        if key not in payload:
            raise ValueError(f"mesh JSON is missing the {key!r} field")
    verts = np.asarray(payload["vertices"], dtype=float)
    if verts.ndim != 2 or verts.shape[1] != int(payload["ambient_dim"]):
        raise ValueError("vertex array does not match ambient_dim")
    # numpy infers the dtype: a float, string or beyond-int64 entry, or bools
    # only, leave it non-integer, where a cast would truncate or overflow
    simplices = np.array(payload["simplices"])
    dtype = simplices.dtype
    # a JSON bool mixed into integer rows is inferred as int64 (true -> 1);
    # the text test keeps the per-entry scan off bool-free meshes
    if dtype.kind == "i" and ("true" in text or "false" in text):
        entries = np.array(payload["simplices"], dtype=object).ravel()
        if any(type(v) is bool for v in entries):
            dtype = np.dtype(bool)
    if simplices.size and dtype.kind != "i":
        raise ValueError(
            "simplex vertex ids must be integers in the int64 range, got "
            f"{dtype} entries"
        )
    try:
        return SimplicialMesh(verts, simplices, int(payload["intrinsic_dim"]))
    except IndexError as exc:
        raise ValueError(
            f"simplex vertex id out of range [0, {verts.shape[0]})"
        ) from exc


def write_embedding_csv(coords: np.ndarray) -> str:
    """Embedding as CSV text: header id,y0,...; floats at full precision."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise ValueError("coords must be a 2-D array")
    d = coords.shape[1]
    lines = ["id," + ",".join(f"y{k}" for k in range(d))]
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


def write_latent_csv(latent: np.ndarray) -> str:
    latent = np.asarray(latent, dtype=float)
    k = latent.shape[1]
    lines = ["id," + ",".join(f"u{j}" for j in range(k))]
    for i, row in enumerate(latent):
        lines.append(str(i) + "," + ",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- SVG output


def render_svg(
    mesh: SimplicialMesh,
    coords: np.ndarray,
    *,
    highlight_boundary: bool = False,
    crossing_points: np.ndarray | None = None,
    size: int = 800,
) -> str:
    """Deterministic wireframe drawing of a 2-D embedding.

    Every unique mesh edge becomes exactly one line element, in sorted edge
    order; boundary edges go to a separately styled group when highlighted.
    ``crossing_points`` adds circle markers, e.g. at crossing locations
    found by the auditor. Output bytes depend only on the inputs.
    """
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
