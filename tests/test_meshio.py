"""File format tests: OFF, TetGen, JSON, CSV, SVG."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fplm.generators import icosphere, structured_grid_triangles
from fplm.meshio import (
    ParseError,
    mesh_from_json,
    mesh_to_json,
    parse_off,
    parse_tetgen,
    read_embedding_csv,
    render_svg,
    write_embedding_csv,
    write_latent_csv,
)
from fplm.simplicial import SimplicialMesh, detect_boundary, mesh_edges


TRIANGLE_OFF = """OFF
3 1 3
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
3 0 1 2
"""

TWO_TETS_NODE = """# five points
5 3 0 0
0  0.0 0.0 0.0
1  1.0 0.0 0.0
2  0.0 1.0 0.0
3  0.0 0.0 1.0
4  1.0 1.0 1.0
"""

TWO_TETS_ELE = """2 4 0
0  0 1 2 3
1  1 2 3 4
"""


def triangle_mesh():
    return SimplicialMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
        2,
    )


class TestParseOff:
    def test_single_triangle(self):
        mesh = parse_off(TRIANGLE_OFF)
        assert mesh.n_vertices == 3
        assert mesh.n_simplices == 1
        assert mesh.intrinsic_dim == 2
        assert mesh.ambient_dim == 3
        np.testing.assert_array_equal(mesh.simplices, [[0, 1, 2]])

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\nOFF\n# counts\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n\n3 0 1 2\n"
        mesh = parse_off(text)
        assert mesh.n_simplices == 1

    def test_quad_fan_triangulated(self):
        text = (
            "OFF\n4 1 4\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        )
        mesh = parse_off(text)
        assert mesh.n_simplices == 2
        got = {tuple(t) for t in mesh.simplices.tolist()}
        assert got == {(0, 1, 2), (0, 2, 3)}

    def test_trailing_color_tokens_ignored(self):
        text = "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 255 0 0\n"
        mesh = parse_off(text)
        assert mesh.n_simplices == 1

    def test_missing_header(self):
        with pytest.raises(ParseError) as e:
            parse_off("3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert e.value.line == 1

    def test_bad_counts_line(self):
        with pytest.raises(ParseError) as e:
            parse_off("OFF\n3 1\n")
        assert e.value.line == 2

    def test_negative_count(self):
        with pytest.raises(ParseError, match="must not be negative") as e:
            parse_off("OFF\n-1 0 0\n")
        assert e.value.line == 2

    def test_truncated_vertices(self):
        with pytest.raises(ParseError, match="ends before"):
            parse_off("OFF\n3 1 3\n0 0 0\n1 0 0\n")

    def test_bad_vertex_coordinates(self):
        with pytest.raises(ParseError) as e:
            parse_off("OFF\n3 1 3\n0 0 0\n1 0 zzz\n0 1 0\n3 0 1 2\n")
        assert e.value.line == 4

    def test_face_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range") as e:
            parse_off("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n")
        assert e.value.line == 6

    def test_degenerate_face_rejected(self):
        with pytest.raises(ParseError, match="not a polygon"):
            parse_off("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n")

    def test_face_shorter_than_declared(self):
        with pytest.raises(ParseError, match="lists fewer"):
            parse_off("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_off("")

    def test_parse_error_is_value_error(self):
        with pytest.raises(ValueError):
            parse_off("not OFF")


class TestParseTetgen:
    def test_two_tets(self):
        mesh = parse_tetgen(TWO_TETS_NODE, TWO_TETS_ELE)
        assert mesh.n_vertices == 5
        assert mesh.n_simplices == 2
        assert mesh.intrinsic_dim == 3
        np.testing.assert_array_equal(mesh.simplices, [[0, 1, 2, 3], [1, 2, 3, 4]])
        np.testing.assert_array_equal(mesh.vertices[4], [1.0, 1.0, 1.0])

    def test_one_based_equals_zero_based(self):
        node1 = TWO_TETS_NODE.replace("0  0.0", "1  0.0").replace(
            "1  1.0 0.0 0.0", "2  1.0 0.0 0.0"
        ).replace("2  0.0 1.0", "3  0.0 1.0").replace(
            "3  0.0 0.0 1.0", "4  0.0 0.0 1.0"
        ).replace("4  1.0 1.0", "5  1.0 1.0")
        ele1 = "2 4 0\n1  1 2 3 4\n2  2 3 4 5\n"
        a = parse_tetgen(TWO_TETS_NODE, TWO_TETS_ELE)
        b = parse_tetgen(node1, ele1)
        assert a.vertices.tobytes() == b.vertices.tobytes()
        assert a.simplices.tobytes() == b.simplices.tobytes()

    def test_wrong_dimension(self):
        with pytest.raises(ParseError, match="dimension must be 3"):
            parse_tetgen("3 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\n", TWO_TETS_ELE)

    def test_non_tet_cells(self):
        with pytest.raises(ParseError, match="tetrahedra"):
            parse_tetgen(TWO_TETS_NODE, "1 3 0\n0 0 1 2\n")

    def test_dangling_cell_reference(self):
        with pytest.raises(ParseError, match="outside the node file"):
            parse_tetgen(TWO_TETS_NODE, "1 4 0\n0  0 1 2 9\n")

    def test_missing_node_coverage(self):
        node = "3 3 0 0\n0 0.0 0.0 0.0\n0 1.0 0.0 0.0\n2 0.0 1.0 0.0\n"
        with pytest.raises(ParseError, match="cover"):
            parse_tetgen(node, "1 4 0\n0 0 1 2 2\n")

    def test_empty_inputs(self):
        with pytest.raises(ParseError):
            parse_tetgen("", TWO_TETS_ELE)
        with pytest.raises(ParseError):
            parse_tetgen(TWO_TETS_NODE, "")

    def test_zero_nodes_names_the_header_line(self):
        with pytest.raises(ParseError, match="at least one node") as e:
            parse_tetgen("# nothing here\n0 3 0 0\n", "0 4 0\n")
        assert e.value.line == 2

    def test_negative_cell_count_names_the_header_line(self):
        with pytest.raises(ParseError, match="must not be negative") as e:
            parse_tetgen(TWO_TETS_NODE, "-1 4 0\n")
        assert e.value.line == 1

    @pytest.mark.parametrize(
        "node, ele, line",
        [
            (TWO_TETS_NODE.replace("5 3 0 0", "five 3 0 0"), TWO_TETS_ELE, 2),
            (TWO_TETS_NODE.replace("5 3 0 0", "5 3.0 0 0"), TWO_TETS_ELE, 2),
            (TWO_TETS_NODE.replace("0  0.0", "a  0.0"), TWO_TETS_ELE, 3),
            (TWO_TETS_NODE.replace("2  0.0", "2.0  0.0"), TWO_TETS_ELE, 5),
            (TWO_TETS_NODE.replace("1.0 1.0 1.0", "1.0 x 1.0"), TWO_TETS_ELE, 7),
            (TWO_TETS_NODE, TWO_TETS_ELE.replace("2 4 0", "2 four 0"), 1),
            (TWO_TETS_NODE, TWO_TETS_ELE.replace("1 2 3 4", "1 2 c 4"), 3),
        ],
        ids=["node-count", "node-dim", "first-index", "later-index",
             "coordinate", "ele-header", "cell-id"],
    )
    def test_non_numeric_token_names_its_line(self, node, ele, line):
        with pytest.raises(ParseError, match="must be") as e:
            parse_tetgen(node, ele)
        assert e.value.line == line


class TestJsonRoundTrip:
    def test_bit_exact(self):
        mesh = icosphere(1)
        text = mesh_to_json(mesh)
        back = mesh_from_json(text)
        assert back.vertices.tobytes() == mesh.vertices.tobytes()
        assert back.simplices.tobytes() == mesh.simplices.tobytes()
        assert back.intrinsic_dim == mesh.intrinsic_dim
        assert mesh_to_json(back) == text

    def test_awkward_floats_survive(self):
        verts = np.array(
            [[0.1, 1e-300], [1 / 3, 2.0**-40], [np.pi, 1.0000000000000002]]
        )
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2]]), 2)
        back = mesh_from_json(mesh_to_json(mesh))
        assert back.vertices.tobytes() == mesh.vertices.tobytes()

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            mesh_from_json('{"ambient_dim": 2}')

    def test_not_json(self):
        with pytest.raises(ValueError, match="JSON"):
            mesh_from_json("OFF\n3 1 3")

    @pytest.mark.parametrize("text", ["3", "[1, 2]", '"mesh"', "null"])
    def test_top_level_must_be_an_object(self, text):
        with pytest.raises(ValueError, match="must be an object"):
            mesh_from_json(text)

    @pytest.mark.parametrize(
        "key, value",
        [("ambient_dim", "null"), ("intrinsic_dim", "2.5"), ("ambient_dim", '"2"'),
         ("intrinsic_dim", "true")],
    )
    def test_dimension_must_be_a_json_integer(self, key, value):
        blob = self.triangle_blob("[[0, 1, 2]]").replace(f'"{key}": 2', f'"{key}": {value}')
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            mesh_from_json(blob)

    @pytest.mark.parametrize("value", ["2.5", "2.0", "true", '"2"', "null"])
    def test_intrinsic_dim_has_one_rule_for_json_and_arrays(self, value):
        # a JSON intrinsic_dim is judged by SimplicialMesh's own rule, so the
        # file and the array give one message
        blob = self.triangle_blob("[[0, 1, 2]]")
        blob = blob.replace('"intrinsic_dim": 2', f'"intrinsic_dim": {value}')
        with pytest.raises(ValueError) as from_json:
            mesh_from_json(blob)
        with pytest.raises(ValueError) as from_arrays:
            SimplicialMesh(np.eye(3)[:, :2], np.array([[0, 1, 2]]), json.loads(value))
        assert str(from_json.value) == str(from_arrays.value)
        assert str(from_json.value).startswith("intrinsic_dim must be an integer, got dtype")

    @pytest.mark.parametrize(
        "vertices",
        ['{"a": 1}', '[[0, 0], [1, "x"], [0, 1]]', '[[0, 0], [1, null], [0, 1]]',
         '[[0, 0], [1], [0, 1]]', '[[true, false], [false, true], [true, true]]',
         '[[0, 0], [1, true], [0, 1]]', '[[0.5, 0], [1, false], [0, 1]]'],
        ids=["object", "string", "null", "ragged", "bool", "true-in-int-row",
             "false-in-float-row"],
    )
    def test_vertices_must_be_numeric_rows(self, vertices):
        blob = (
            '{"ambient_dim": 2, "intrinsic_dim": 2,'
            f' "vertices": {vertices}, "simplices": [[0, 1, 2]]}}'
        )
        with pytest.raises(ValueError, match="vertices must be rows of numbers"):
            mesh_from_json(blob)

    @pytest.mark.parametrize("field, rows, message", [
        ("vertices", "[[0, 0], [1], [0, 1]]", "vertices must be rows of numbers of one length"),
        ("vertices", "[[0, 0], [1, [0]], [0, 1]]", "vertices must be rows of numbers of one length"),
        ("simplices", "[[0, 1, 2], [1, 3]]", "simplices must be rows of vertex ids of one length"),
        ("simplices", "[[0, 1, 2], [1, 3, [2]]]", "simplices must be rows of vertex ids of one length"),
    ], ids=["vertices-short-row", "vertices-nested-entry", "simplices-short-row",
            "simplices-nested-entry"])
    def test_ragged_rows_get_one_message(self, field, rows, message):
        # numpy's "setting an array element with a sequence ..." used to be
        # the whole simplices message and the tail of the vertices one
        payload = {"ambient_dim": 2, "intrinsic_dim": 2,
                   "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]], "simplices": [[0, 1, 2]]}
        payload[field] = json.loads(rows)
        with pytest.raises(ValueError, match=f"^{message}$"):
            mesh_from_json(json.dumps(payload))

    def test_dim_mismatch(self):
        blob = (
            '{"ambient_dim": 3, "intrinsic_dim": 2,'
            ' "vertices": [[0, 0], [1, 0], [0, 1]],'
            ' "simplices": [[0, 1, 2]]}'
        )
        with pytest.raises(ValueError, match="ambient_dim"):
            mesh_from_json(blob)

    @staticmethod
    def triangle_blob(simplices):
        return (
            '{"ambient_dim": 2, "intrinsic_dim": 2,'
            ' "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]],'
            f' "simplices": {simplices}}}'
        )

    @pytest.mark.parametrize(
        "simplices",
        [
            "[[0, 1, 2], [1, 3, 2.7]]",  # a cast would truncate it to vertex 2
            '[[0, 1, 2], [1, 3, "2"]]',
            "[[true, false, true]]",
            "[[0, 1, 2], [true, 3, 2]]",  # numpy would read it as (1, 3, 2)
            "[[0, 1, 2], [1, 3, false]]",
            f"[[0, 1, 2], [1, 3, {2**70}]]",  # beyond int64: no OverflowError
            f"[[0, 1, 2], [1, 3, {2**63}]]",
        ],
        ids=["fraction", "string", "bool-row", "true-in-int-row",
             "false-in-int-row", "2**70", "2**63"],
    )
    def test_non_integer_simplex_ids_rejected(self, simplices):
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            mesh_from_json(self.triangle_blob(simplices))

    @pytest.mark.parametrize("entry", ["1.5", '"1"', str(2**70), "true"],
                             ids=["fraction", "string", "2**70", "true"])
    def test_json_ids_meet_the_mesh_id_rule(self, entry):
        # one id rule and message for a mesh from JSON and from arrays; a
        # true in an int row, which numpy reads as 1, reaches it as bools
        simplices = f"[[0, 1, 2], [1, 3, {entry}]]"
        with pytest.raises(ValueError) as from_json:
            mesh_from_json(self.triangle_blob(simplices))
        ids = np.array(json.loads(simplices), dtype=bool if entry == "true" else None)
        with pytest.raises(ValueError) as from_mesh:
            SimplicialMesh(np.zeros((4, 2)), ids, 2)
        assert str(from_json.value) == str(from_mesh.value)
        assert str(from_json.value) == ("simplex vertex ids must be integers, "
                                        f"got dtype {ids.dtype}")

    def test_bool_outside_the_simplices_is_accepted(self):
        blob = self.triangle_blob("[[0, 1, 2], [1, 3, 2]]")
        mesh = mesh_from_json(blob[:-1] + ', "closed": false, "note": "true"}')
        np.testing.assert_array_equal(mesh.simplices, [[0, 1, 2], [1, 3, 2]])

    @pytest.mark.parametrize("bad", [-1, 4, 2**63 - 1])
    def test_out_of_range_simplex_id_rejected(self, bad):
        # SimplicialMesh's own range rule, where an IndexError used to be
        # translated into a message of the reader's
        with pytest.raises(ValueError, match=rf"^simplex vertex ids {bad} out of range \[0, 4\)$"):
            mesh_from_json(self.triangle_blob(f"[[0, 1, 2], [1, 3, {bad}]]"))


class TestEmbeddingCsv:
    def test_example_format(self):
        text = write_embedding_csv(np.array([[0.5, -0.25]]))
        assert text == "id,y0,y1\n0,0.5,-0.25\n"

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(17, 2)) * np.pi
        back = read_embedding_csv(write_embedding_csv(coords))
        assert back.tobytes() == coords.tobytes()

    def test_three_columns(self):
        coords = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        text = write_embedding_csv(coords)
        assert text.splitlines()[0] == "id,y0,y1,y2"
        assert read_embedding_csv(text).tobytes() == coords.tobytes()

    def test_rows_out_of_order_accepted(self):
        text = "id,y0,y1\n1,3.0,4.0\n0,1.0,2.0\n"
        back = read_embedding_csv(text)
        np.testing.assert_array_equal(back, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_must_start_with_id(self):
        with pytest.raises(ValueError, match="header"):
            read_embedding_csv("vertex,y0\n0,1.0\n")

    def test_missing_id_detected(self):
        with pytest.raises(ValueError, match="cover"):
            read_embedding_csv("id,y0,y1\n0,1.0,2.0\n0,3.0,4.0\n")

    def test_id_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            read_embedding_csv("id,y0,y1\n5,1.0,2.0\n")

    def test_field_count_mismatch(self):
        with pytest.raises(ValueError, match="fields"):
            read_embedding_csv("id,y0,y1\n0,1.0\n")

    def test_no_data_rows(self):
        with pytest.raises(ValueError, match="no data"):
            read_embedding_csv("id,y0,y1\n")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_names_its_line(self, bad):
        # blank lines still count toward the reported line number
        text = f"id,y0,y1\n0,1.0,2.0\n\n1,{bad},4.0\n"
        with pytest.raises(ParseError, match="not finite") as e:
            read_embedding_csv(text)
        assert e.value.line == 4

    def test_unparsable_value_names_its_line(self):
        with pytest.raises(ParseError, match="abc") as e:
            read_embedding_csv("id,y0\n0,1.0\n1,abc\n")
        assert e.value.line == 3

    def test_missing_id_is_named(self):
        with pytest.raises(ValueError, match="id 1 is missing"):
            read_embedding_csv("id,y0\n0,1.0\n2,3.0\n0,4.0\n")

    def test_latent_header(self):
        text = write_latent_csv(np.array([[0.25, -1.5]]))
        assert text == "id,u0,u1\n0,0.25,-1.5\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("writer", [write_embedding_csv, write_latent_csv])
    def test_writers_refuse_what_the_reader_refuses(self, writer, bad):
        with pytest.raises(ValueError, match="must be finite"):
            writer(np.array([[0.0, 1.0], [bad, 2.0]]))


class TestRenderSvg:
    def test_single_triangle_three_lines(self):
        mesh = triangle_mesh()
        svg = render_svg(mesh, mesh.vertices)
        assert svg.count("<line ") == 3
        assert svg.count("<circle") == 0
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_byte_identical_re_render(self):
        mesh = triangle_mesh()
        a = render_svg(mesh, mesh.vertices, highlight_boundary=True)
        b = render_svg(mesh, mesh.vertices, highlight_boundary=True)
        assert a == b

    def test_one_line_per_unique_edge(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2], [1, 3, 2]]), 2)
        svg = render_svg(mesh, verts)
        # 5 unique edges, the shared one drawn once
        assert svg.count("<line ") == 5

    def test_boundary_group_styled(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2], [1, 3, 2]]), 2)
        svg = render_svg(mesh, verts, highlight_boundary=True)
        assert '#c43131' in svg
        boundary_group = svg.split('#c43131')[1]
        assert boundary_group.count("<line ") == 4

    def test_crossing_markers(self):
        mesh = triangle_mesh()
        svg = render_svg(
            mesh, mesh.vertices, crossing_points=np.array([[0.5, 0.5]])
        )
        assert svg.count("<circle") == 1

    def test_y_axis_points_up(self):
        # vertex with larger y must get the smaller svg y coordinate
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        mesh = SimplicialMesh(verts, np.array([[0, 1, 2]]), 2)
        svg = render_svg(mesh, verts)
        # edge (0, 2) is vertical in input; parse its two y attributes
        lines = [ln for ln in svg.splitlines() if ln.startswith("<line")]
        ys = []
        for ln in lines:
            fields = dict(
                kv.split("=") for kv in ln[6:-2].replace('"', "").split()
            )
            ys.append((float(fields["y1"]), float(fields["y2"])))
        flat = sorted({y for pair in ys for y in pair})
        assert len(flat) == 2  # only two distinct input heights

    def test_shape_validation(self):
        mesh = triangle_mesh()
        with pytest.raises(ValueError, match="coords"):
            render_svg(mesh, np.zeros((3, 3)))

    def test_viewbox_is_finite_for_degenerate_embedding(self):
        mesh = triangle_mesh()
        svg = render_svg(mesh, np.zeros((3, 2)))
        assert "nan" not in svg
        assert "inf" not in svg


# ---------------------------------------------------- byte identity, parity

FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def meshes(draw):
    ambient = draw(st.integers(2, 4))
    d = draw(st.integers(2, min(ambient, 3)))
    n = draw(st.integers(0, 6))
    verts = draw(st.lists(ANY_FLOAT, min_size=n * ambient, max_size=n * ambient))
    m = draw(st.integers(0, 5)) if n else 0
    ids = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=m * (d + 1), max_size=m * (d + 1)))
    return SimplicialMesh(
        np.array(verts, dtype=float).reshape(n, ambient),
        np.array(ids, dtype=np.int64).reshape(m, d + 1),
        d,
    )


def csv_oracle(coords, letter):
    """The row-by-row CSV writer the column writer must match byte for byte."""
    lines = ["id," + ",".join(f"{letter}{k}" for k in range(coords.shape[1]))]
    for i, row in enumerate(coords):
        lines.append(str(i) + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def svg_oracle(mesh, coords, highlight_boundary=False, crossing_points=None):
    """The row-by-row SVG writer the column writer must match byte for byte."""
    size = 800
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-30)
    margin = 0.05 * float(span.max())
    width, height = float(span[0] + 2 * margin), float(span[1] + 2 * margin)

    def sx(x):
        return repr(float((x - lo[0] + margin) / max(width, 1e-30) * size))

    def sy(y):
        return repr(float((hi[1] - y + margin) / max(height, 1e-30) * size * height / width))

    boundary = set()
    if highlight_boundary:
        boundary = {(int(u), int(v)) for u, v in detect_boundary(mesh).boundary_faces}
    groups = {False: [], True: []}
    for u, v in mesh_edges(mesh).tolist():
        groups[(u, v) in boundary].append(
            f'<line x1="{sx(coords[u, 0])}" y1="{sy(coords[u, 1])}" '
            f'x2="{sx(coords[v, 0])}" y2="{sy(coords[v, 1])}"/>'
        )
    vb_h = repr(float(size * height / width))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {vb_h}" '
        f'width="{size}" height="{vb_h}">',
        '<g stroke="#555555" stroke-width="0.8" fill="none">', *groups[False], "</g>",
    ]
    if groups[True]:
        parts += ['<g stroke="#c43131" stroke-width="1.6" fill="none">', *groups[True], "</g>"]
    if crossing_points is not None and len(crossing_points):
        parts.append('<g fill="#c43131" stroke="none">')
        for x, y in crossing_points:
            parts.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="5.0"/>')
        parts.append("</g>")
    return "\n".join(parts + ["</svg>"]) + "\n"


class TestWritersByteIdentical:
    @settings(max_examples=150, deadline=None)
    @given(meshes())
    def test_mesh_json_matches_json_dumps(self, mesh):
        payload = {
            "ambient_dim": mesh.ambient_dim,
            "intrinsic_dim": mesh.intrinsic_dim,
            "vertices": mesh.vertices.tolist(),
            "simplices": mesh.simplices.tolist(),
        }
        assert mesh_to_json(mesh) == json.dumps(payload, indent=1)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 3), st.data())
    def test_csv_matches_row_loop(self, n, d, data):
        values = data.draw(st.lists(FINITE, min_size=n * d, max_size=n * d))
        coords = np.array(values, dtype=float).reshape(n, d)
        assert write_embedding_csv(coords) == csv_oracle(coords, "y")
        assert write_latent_csv(coords) == csv_oracle(coords, "u")

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.booleans(), st.integers(0, 3))
    def test_svg_matches_row_loop(self, data, highlight, n_marks):
        mesh = SimplicialMesh(np.zeros((12, 2)), structured_grid_triangles(4, 3), 2)
        coords = np.array(data.draw(st.lists(FINITE, min_size=24, max_size=24))).reshape(12, 2)
        marks = np.array(data.draw(st.lists(FINITE, min_size=2 * n_marks, max_size=2 * n_marks)))
        marks = marks.reshape(n_marks, 2)
        with np.errstate(all="ignore"):
            got = render_svg(mesh, coords, highlight_boundary=highlight, crossing_points=marks)
            assert got == svg_oracle(mesh, coords, highlight, marks)


BIG = 10**23

OFF_HEAD = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
NODE = "# 1-based\n3 3 0 0\n1 0 0 0\n2 1 0 0\n\n3 0 1 0\n"


@pytest.mark.parametrize(
    "read, text, line, message",
    [
        (parse_off, OFF_HEAD + "4 0 1 2 x\n", 7, "face indices must be integers, got '0 1 2 x'"),
        (parse_off, OFF_HEAD + "4 0 1 2 9\n", 7, "face index 9 out of range [0, 4)"),
        (parse_off, OFF_HEAD + f"3 0 1 {BIG} 255 0 0\n", 7, f"face index {BIG} out of range [0, 4)"),
        (parse_off, "OFF\n# c\n\n3 1 0\n0 0 0\n# c\n\n1 0 zz\n0 1 0\n3 0 1 2\n", 8,
         "vertex coordinates must be numbers, got '1 0 zz'"),
        (parse_off, OFF_HEAD.replace("1 1 0", "1 1") + "2 0 1\n", 5,
         "vertex line needs 3 coordinates, got '1 1'"),
        (parse_off, OFF_HEAD + f"{BIG} 0 1 2\n", 7, f"face declares {BIG} vertices but lists fewer"),
        (read_embedding_csv, "id,y0,y1\n0,1.0,2.0\n1,3.0,x\n", 3,
         "could not convert string to float: 'x'"),
        (read_embedding_csv, "id,y0\n\n0,1.0\n  \n1,bad\n", 5,
         "could not convert string to float: 'bad'"),
        (read_embedding_csv, f"id,y0\n0,1.0\n{BIG},2.0\n", 3, f"id {BIG} out of range [0, 2)"),
        (read_embedding_csv, "id,y0\n0,x\n1,1.0,3\n", 2, "could not convert string to float: 'x'"),
        (read_embedding_csv, "id,y0\n0,1.0,3\n1,x\n", 2, "expected 2 fields, got 3"),
        (read_embedding_csv, "id,y0\n5,1.0\n1,nan\n", 2, "id 5 out of range [0, 2)"),
        (lambda t: parse_tetgen(NODE, t), "1 4 0\n1 1 2 3 q\n", 2,
         "cell node ids must be integers, got '1 2 3 q'"),
        (lambda t: parse_tetgen(NODE, t), f"1 4 0\n1 1 2 {BIG} 3\n", 2,
         f"cell references node {BIG}, outside the node file"),
        (lambda t: parse_tetgen(NODE, t), "\n1 4 0\n1 0 1 2 3\n", 3,
         "cell references node 0, outside the node file"),
        (lambda t: parse_tetgen(t, "0 4 0\n"), NODE.replace("3 0 1 0", f"{BIG} 0 1 0"), 6,
         f"node index {BIG} out of range"),
        (lambda t: parse_tetgen(t, "0 4 0\n"), NODE.replace("3 0 1 0", "3 0 1"), 6,
         "node line needs an index and 3 coordinates"),
    ],
    ids=["off-last-token", "off-4gon-range", "off-big-index-colors", "off-blank-comment",
         "off-short-vertex", "off-big-count", "csv-last-token", "csv-blank", "csv-big-id",
         "csv-token-before-fields", "csv-fields-before-token", "csv-range-before-nan",
         "ele-last-token", "ele-big-id", "ele-one-based", "node-big-index", "node-short"],
)
def test_first_bad_line_is_named(read, text, line, message):
    with pytest.raises(ParseError) as e:
        read(text)
    assert (str(e.value), e.value.line) == (f"line {line}: {message}", line)
