"""Mesh and embedding interchange: OFF, TetGen, JSON, CSV, and SVG output.

Writers repr each float once (the shortest text that round-trips) into one
join or line template, byte for byte as ``json.dumps(payload, indent=1)`` or
a row-by-row repr loop would. Readers tokenize once and convert each column
with one ``map(int)``/``map(float)``, checked by numpy masks; only when that
fails are the rows rescanned, so errors name the first bad 1-based line.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from operator import getitem, itemgetter

import numpy as np

from .simplicial import SimplicialMesh, mesh_edges, mesh_faces, triangulate_flat_faces


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------- OFF files


def parse_off(text: str) -> SimplicialMesh:
    """Parse an OFF surface file into a triangle mesh.

    Polygon faces with more than three vertices are fan-triangulated from
    their lowest-index vertex. Comment lines (#) and blank lines are
    skipped; trailing tokens after the vertex list of a face (e.g. color
    attributes) are ignored.
    """
    rows, lines = _numeric_rows(text, "OFF")
    if rows[0] != ["OFF"]:
        raise ParseError(lines[0], f"expected OFF header, got {' '.join(rows[0])!r}")
    if len(rows) < 2:
        raise ParseError(lines[0], "missing counts line")
    parts = rows[1]
    if len(parts) != 3:
        raise ParseError(lines[1], f"counts line must have 3 integers, got {' '.join(parts)!r}")
    n_verts, n_faces, _n_edges = _numbers(lines[1], parts, "counts line")
    if n_verts < 0 or n_faces < 0:
        raise ParseError(lines[1], f"counts must not be negative, got {' '.join(parts)!r}")

    def check_vertex(lineno, parts):
        if len(parts) < 3:
            raise ParseError(lineno, f"vertex line needs 3 coordinates, got {' '.join(parts)!r}")
        _numbers(lineno, parts[:3], "vertex coordinates", float)

    def check_face(lineno, parts):
        (k,) = _numbers(lineno, parts[:1], "face vertex count")
        if k < 3:
            raise ParseError(lineno, f"face with {k} vertices is not a polygon")
        if len(parts) < 1 + k:
            raise ParseError(lineno, f"face declares {k} vertices but lists fewer")
        for v in _numbers(lineno, parts[1 : 1 + k], "face indices"):
            if not (0 <= v < n_verts):
                raise ParseError(lineno, f"face index {v} out of range [0, {n_verts})")

    vrows, vlines = _section(rows, lines, 2, n_verts, "vertex")
    # a line of fewer than 3 tokens leaves the column short, which fails too
    verts = _column(chain.from_iterable(map(itemgetter(slice(3)), vrows)), float, 3 * n_verts)
    if verts is None:
        _raise_first(vrows, vlines, check_vertex)

    frows, flines = _section(rows, lines, 2 + n_verts, n_faces, "face")
    sizes = _column(map(itemgetter(0), frows), int, n_faces)
    lens = np.fromiter(map(len, frows), np.int64, n_faces)
    flat = None
    if sizes is not None and (sizes >= 3).all() and (lens > sizes).all():
        ends = map(slice, repeat(1), (sizes + 1).tolist())
        flat = _column(chain.from_iterable(map(getitem, frows, ends)), int, int(sizes.sum()))
    if flat is None or ((flat < 0) | (flat >= n_verts)).any():
        _raise_first(frows, flines, check_face)
    return triangulate_flat_faces(flat, sizes, verts.reshape(n_verts, 3))


# -------------------------------------------------------------- TetGen files


def parse_tetgen(node_text: str, ele_text: str) -> SimplicialMesh:
    """Parse TetGen .node/.ele file contents into a tetrahedral mesh.

    Handles both 0-based and 1-based numbering by inspecting the first node
    index. Raises ParseError for dimension mismatches, a node file with no
    nodes, non-numeric tokens, non-tetrahedral cells, or dangling indices.
    """
    rows, lines = _numeric_rows(node_text, ".node")
    if len(rows[0]) < 2:
        raise ParseError(lines[0], ".node header needs at least count and dimension")
    n_nodes, dim = _numbers(lines[0], rows[0][:2], ".node header")
    if dim != 3:
        raise ParseError(lines[0], f".node dimension must be 3, got {dim}")
    if n_nodes < 1:
        raise ParseError(lines[0], f".node file must declare at least one node, got {n_nodes}")
    nrows, nlines = _section(rows, lines, 1, n_nodes, "node")
    (base,) = _numbers(lines[1], rows[1][:1], "node index")
    if base not in (0, 1):
        raise ParseError(lines[1], f"node numbering must start at 0 or 1, got {base}")

    def check_node(lineno, parts):
        if len(parts) < 4:
            raise ParseError(lineno, "node line needs an index and 3 coordinates")
        (index,) = _numbers(lineno, parts[:1], "node index")
        if not (0 <= index - base < n_nodes):
            raise ParseError(lineno, f"node index {index} out of range")
        _numbers(lineno, parts[1:4], "node coordinates", float)

    def check_cell(lineno, parts):
        if len(parts) < 5:
            raise ParseError(lineno, "cell line needs an index and 4 node ids")
        for v in _numbers(lineno, parts[1:5], "cell node ids"):
            if not (0 <= v - base < n_nodes):
                raise ParseError(lineno, f"cell references node {v}, outside the node file")

    index = _column(map(itemgetter(0), nrows), int, n_nodes)
    xyz = _column(chain.from_iterable(map(itemgetter(slice(1, 4)), nrows)), float, 3 * n_nodes)
    if index is None or xyz is None or ((index < base) | (index >= base + n_nodes)).any():
        _raise_first(nrows, nlines, check_node)
    if not np.bincount(index - base, minlength=n_nodes).all():
        raise ParseError(lines[-1], "node indices do not cover the declared range")
    verts = xyz.reshape(n_nodes, 3)[np.argsort(index)]  # index is a permutation here

    rows, lines = _numeric_rows(ele_text, ".ele")
    if len(rows[0]) < 2:
        raise ParseError(lines[0], ".ele header needs count and nodes-per-cell")
    n_cells, npt = _numbers(lines[0], rows[0][:2], ".ele header")
    if npt != 4:
        raise ParseError(lines[0], f"cells must be tetrahedra (4 nodes), got {npt}")
    if n_cells < 0:
        raise ParseError(lines[0], f".ele cell count must not be negative, got {n_cells}")
    crows, clines = _section(rows, lines, 1, n_cells, "cell")
    cells = _column(chain.from_iterable(map(itemgetter(slice(1, 5)), crows)), int, 4 * n_cells)
    if cells is None or ((cells < base) | (cells >= base + n_nodes)).any():
        _raise_first(crows, clines, check_cell)
    return SimplicialMesh(verts, (cells - base).reshape(n_cells, 4), 3)


# ------------------------------------------------------ tokens and columns


def _numeric_rows(text: str, kind: str):
    """Token lists of the non-comment, non-blank lines, and their line numbers."""
    code = map(itemgetter(0), map(str.partition, text.splitlines(), repeat("#")))
    tokens = list(map(str.split, code))
    kept = np.flatnonzero(np.fromiter(map(len, tokens), np.int64, len(tokens)))
    if not kept.size:
        raise ParseError(1, f"empty {kind} file")
    return list(filter(None, tokens)), (kept + 1).tolist()


def _section(rows, lines, start: int, count: int, what: str):
    """The ``count`` rows from ``start`` on, and their line numbers."""
    if len(rows) - start < count:
        raise ParseError(lines[-1], f"file ends before {count} {what} lines")
    return rows[start : start + count], lines[start : start + count]


def _column(tokens, kind, count: int):
    """One ``map(kind)`` over the tokens as a numpy column; None when a token
    does not convert, the tokens run short or an int overflows int64."""
    try:
        return np.fromiter(map(kind, tokens), np.int64 if kind is int else float, count)
    except (ValueError, OverflowError):
        return None


def _raise_first(rows, linenos, check):
    """Raise the ParseError of the first row that ``check`` rejects."""
    for lineno, row in zip(linenos, rows):
        check(lineno, row)
    raise AssertionError("a column check failed on rows that each pass")


def _numbers(lineno: int, tokens, what: str, kind=int):
    try:
        return list(map(kind, tokens))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ParseError(lineno, f"{what} must be {noun}, got {' '.join(tokens)!r}") from None


# ------------------------------------------------------------- JSON and CSV


def mesh_to_json(mesh: SimplicialMesh) -> str:
    """The bytes of ``json.dumps(payload, indent=1)``, one row template per array."""
    blocks = []
    for array in (mesh.vertices, mesh.simplices):
        cells = array.ravel().tolist()
        for i in np.flatnonzero(~np.isfinite(array.ravel())).tolist():
            cells[i] = json.dumps(cells[i])  # NaN, Infinity, -Infinity
        row = "  [\n   " + ",\n   ".join(["%s"] * array.shape[1]) + "\n  ]"
        blocks.append(",\n".join([row] * len(array)) % tuple(cells))
    vertices, simplices = (f"[\n{b}\n ]" if b else "[]" for b in blocks)
    return (
        f'{{\n "ambient_dim": {mesh.ambient_dim},\n "intrinsic_dim": {mesh.intrinsic_dim},'
        f'\n "vertices": {vertices},\n "simplices": {simplices}\n}}'
    )


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
    # the vertices are read against ambient_dim, so it is checked here;
    # intrinsic_dim is judged by SimplicialMesh's rule, as for arrays
    ambient_dim = payload["ambient_dim"]
    if type(ambient_dim) is not int:
        raise ValueError(f"ambient_dim must be an integer, got {json.dumps(ambient_dim)}")
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
    if verts.ndim != 2 or verts.shape[1] != ambient_dim:
        raise ValueError("vertex array does not match ambient_dim")
    # SimplicialMesh's integer-id rule judges the simplices; an int row
    # holding a bool is handed on as bools, so the rule names that dtype
    simplices = np.array(payload["simplices"])
    if simplices.dtype.kind == "i" and maybe_bool and _has_bool(payload["simplices"]):
        simplices = simplices.astype(bool)
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
    if not np.isfinite(coords).all():
        raise ValueError("coords must be finite (found NaN or inf)")
    d = coords.shape[1]
    header = "id," + ",".join(f"{letter}{k}" for k in range(d)) + "\n"
    line = "%d," + ",".join(["%r"] * d) + "\n"
    return header + "".join(map(line.__mod__, zip(range(len(coords)), *coords.T.tolist())))


def read_embedding_csv(text: str) -> np.ndarray:
    """Read an id,y0,... CSV back into an (N, d) array, id-ordered.

    Accepts third-party embeddings as long as the header starts with an id
    column; ids must cover 0..N-1 and every coordinate must be finite.
    Malformed rows raise :class:`ParseError` with their 1-based line number.
    """
    lines = text.splitlines()
    rows = list(filter(str.strip, lines))
    if len(rows) < 2:
        raise ValueError("embedding CSV has no data rows")
    header = [h.strip() for h in rows[0].split(",")]
    if header[0] != "id" or len(header) < 2:
        raise ValueError("embedding CSV header must be id,y0,...")
    n, d = len(rows) - 1, len(header) - 1
    body = rows[1:]

    def check_row(lineno, line):
        parts = line.split(",")
        if len(parts) != d + 1:
            raise ParseError(lineno, f"expected {d + 1} fields, got {len(parts)}")
        try:
            i = int(parts[0])
            list(map(float, parts[1:]))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        if not (0 <= i < n):
            raise ParseError(lineno, f"id {i} out of range [0, {n})")

    ids = values = None
    if (np.fromiter(map(str.count, body, repeat(",")), np.int64, n) == d).all():
        fields = ",".join(body).split(",")
        ids = _column(fields[:: d + 1], int, n)
        del fields[:: d + 1]
        values = _column(fields, float, n * d)
    if ids is None or values is None or ((ids < 0) | (ids >= n)).any():
        linenos = [k for k, line in enumerate(lines, start=1) if line.strip()]
        _raise_first(body, linenos[1:], check_row)
    values = values.reshape(n, d)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        lineno = [k for k, line in enumerate(lines, start=1) if line.strip()][1 + bad[0]]
        raise ParseError(lineno, "coordinate is not finite (NaN or inf)")
    seen = np.bincount(ids, minlength=n)
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

    lo, hi = coords.min(axis=0), coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    margin = 0.05 * float(span.max())
    width = float(span[0] + 2 * margin)
    height = float(span[1] + 2 * margin)

    def svg_xy(points):  # repr strings; y flipped to keep the mathematical orientation
        x = (points[:, 0] - lo[0] + margin) / max(width, 1e-30) * size
        y = (hi[1] - points[:, 1] + margin) / max(height, 1e-30) * size * height / width
        return list(map(repr, x.tolist())), list(map(repr, y.tolist()))

    is_boundary = np.zeros(len(edges), dtype=bool)
    if highlight_boundary and mesh.intrinsic_dim == 2:
        # a triangle mesh's edges are its face rows, in the same order
        is_boundary = mesh_faces(mesh)[1] == 1

    xs, ys = svg_xy(coords)
    line = '<line x1="%s" y1="%s" x2="%s" y2="%s"/>\n'

    def lines(group):  # one line element per edge, endpoints' strings looked up
        ends = (map(c.__getitem__, w) for w in group.T.tolist() for c in (xs, ys))
        return "".join(map(line.__mod__, zip(*ends)))

    vb_h = repr(size * height / width)
    text = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {vb_h}" '
        f'width="{size}" height="{vb_h}">\n'
        f'<g stroke="#555555" stroke-width="{size / 1000!r}" fill="none">\n'
        f"{lines(edges[~is_boundary])}</g>\n"
    )
    if is_boundary.any():
        text += (
            f'<g stroke="#c43131" stroke-width="{size / 500!r}" fill="none">\n'
            f"{lines(edges[is_boundary])}</g>\n"
        )
    if crossing_points is not None and len(crossing_points):
        circle = f'<circle cx="%s" cy="%s" r="{size / 160!r}"/>\n'
        marks = zip(*svg_xy(np.asarray(crossing_points, dtype=float)))
        text += f'<g fill="#c43131" stroke="none">\n{"".join(map(circle.__mod__, marks))}</g>\n'
    return text + "</svg>\n"
