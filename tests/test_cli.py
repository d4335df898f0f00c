"""End-to-end command-line tests: pipelines, exit codes, manifests."""

import itertools
import json

import numpy as np
import pytest

from fplm import solver, validity
from fplm.cli import main
from fplm.generators import ball3
from fplm.meshio import mesh_from_json, mesh_to_json, read_embedding_csv, write_embedding_csv
from fplm.simplicial import SimplicialMesh, mesh_edges
from test_simplicial import mobius_strip


def run_pipeline(tmp_path, kind="grid-disk", resolution="5x5", extra_embed=()):
    mesh = tmp_path / "mesh.json"
    emb = tmp_path / "emb.csv"
    rc = main(
        ["generate", "--kind", kind, "--resolution", resolution, "--out", str(mesh)]
    )
    assert rc == 0
    rc = main(["embed", "--mesh", str(mesh), "--out", str(emb), *extra_embed])
    return mesh, emb, rc


class TestGenerate:
    def test_writes_mesh_and_latent(self, tmp_path):
        out = tmp_path / "disk.json"
        rc = main(
            ["generate", "--kind", "grid-disk", "--resolution", "4x4", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()
        latent = tmp_path / "disk.latent.csv"
        assert latent.exists()
        assert latent.read_text().startswith("id,u0,u1\n")

    def test_sphere_has_no_latent_file(self, tmp_path):
        out = tmp_path / "sphere.json"
        rc = main(
            ["generate", "--kind", "sphere", "--resolution", "1", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()
        assert not (tmp_path / "sphere.latent.csv").exists()

    @pytest.mark.parametrize("kind, resolution, message", [
        ("sphere", "2x5", "sphere resolution must be one number, got (2, 5)"),
        ("ball3", "3x9", "ball3 resolution must be one number, got (3, 9)"),
        ("paraboloid", "4x4x4", "surface resolution must be nx x ny, got (4, 4, 4)"),
        ("grid-disk", "0", "resolution entries must be positive, got (0,)"),
    ], ids=["sphere-2x5", "ball3-3x9", "paraboloid-4x4x4", "grid-disk-0"])
    def test_resolution_judged_by_the_spec(self, tmp_path, capsys, kind, resolution, message):
        # the sphere and the ball take one number, which used to build
        # sphere 2 and ball3 3 from the first entry; a nonpositive entry is
        # refused by the spec too, through main's one error line
        argv = ["generate", "--kind", kind, "--resolution", resolution,
                "--out", str(tmp_path / "m.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("triangulation", ["structured-grid", "delaunay2d"])
    def test_negative_seed_judged_by_the_spec(self, tmp_path, capsys, triangulation):
        # the structured grid used to take -1, and delaunay2d printed
        # numpy's "expected non-negative integer"
        argv = ["generate", "--kind", "paraboloid", "--resolution", "4x4", "--seed", "-1",
                "--triangulation", triangulation, "--out", str(tmp_path / "m.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_creates_parent_directories(self, tmp_path):
        out = tmp_path / "a" / "b" / "mesh.json"
        rc = main(
            ["generate", "--kind", "grid-disk", "--resolution", "3x3", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_bad_resolution_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(
                [
                    "generate",
                    "--kind",
                    "grid-disk",
                    "--resolution",
                    "4xq",
                    "--out",
                    str(tmp_path / "m.json"),
                ]
            )
        assert e.value.code == 2

    def test_unknown_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(
                [
                    "generate",
                    "--kind",
                    "torus",
                    "--resolution",
                    "4x4",
                    "--out",
                    str(tmp_path / "m.json"),
                ]
            )
        assert e.value.code == 2

    def test_too_small_resolution_returns_2(self, tmp_path):
        rc = main(
            [
                "generate",
                "--kind",
                "grid-disk",
                "--resolution",
                "1x5",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2


class TestEmbed:
    def test_pipeline_writes_csv_and_manifest(self, tmp_path, capsys):
        mesh, emb, rc = run_pipeline(tmp_path)
        assert rc == 0
        assert emb.exists()
        manifest_path = tmp_path / "emb.csv.manifest.json"
        assert manifest_path.exists()
        out = capsys.readouterr().out
        assert "branch: two-round" in out
        assert "rounds_run: 2" in out

        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "embed"
        assert manifest["config"]["gamma"] == 0.1
        assert manifest["config"]["seed_simplex"] is None
        assert manifest["config"]["solver"] == {"rel_tol": 1e-10}
        assert manifest["result"]["branch"] == "two-round"
        assert manifest["result"]["n_vertices"] == 25
        assert manifest["result"]["intrinsic_dim"] == 2
        assert set(manifest["result"]["residuals"]) == {"round1", "round2"}
        for route in manifest["result"]["routes"].values():
            assert route["route"] == "band" and route["band_width"] >= 1
        assert set(manifest["result"]["routes"]) == {"round1", "round2"}
        assert "residual round1: " in out and "(band)" in out
        for key in ("load", "embed", "write"):
            assert manifest["timings_ms"][key] >= 0
        assert manifest["outputs"] == [str(emb), str(manifest_path)]
        for path in manifest["outputs"]:
            assert tmp_path.joinpath(path).exists()

    def test_seed_simplex_round_trip(self, tmp_path):
        # sphere 2: the pinned seed 7 is recorded in the manifest, and
        # validate finds it as the outer simplex from the drawing alone; a
        # manifest naming another seed changes nothing
        mesh, emb, rc = run_pipeline(
            tmp_path, kind="sphere", resolution="2", extra_embed=("--seed-simplex", "7")
        )
        assert rc == 0
        path = tmp_path / "emb.csv.manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["config"]["seed_simplex"] == 7
        assert manifest["result"]["seed_simplex"] == 7
        report = tmp_path / "report.txt"
        argv = ["validate", "--mesh", str(mesh), "--embedding", str(emb), "--out", str(report)]
        assert main(argv) == 0
        want = (tmp_path / "report.txt.json").read_text()
        assert json.loads(want)["outer_simplex"] == 7
        manifest["result"]["seed_simplex"] = 0
        path.write_text(json.dumps(manifest))
        assert main(argv) == 0
        blob = json.loads((tmp_path / "report.txt.json").read_text())
        assert {**blob, "timings_ms": None} == {**json.loads(want), "timings_ms": None}

    def test_open_mesh_seed_is_audited(self, tmp_path):
        # an open mesh keeps its seed in the audit: the manifest's seed 7
        # changes nothing, and all 98 triangles of paraboloid 8x8 are counted
        mesh, emb, rc = run_pipeline(
            tmp_path, kind="paraboloid", resolution="8x8", extra_embed=("--seed-simplex", "7")
        )
        assert rc == 0
        report = tmp_path / "report.txt"
        argv = ["validate", "--mesh", str(mesh), "--embedding", str(emb), "--out", str(report)]
        assert main(argv) == 0
        counts = json.loads((tmp_path / "report.txt.json").read_text())["orientation_counts"]
        assert sum(counts.values()) == 98 and counts["near_zero"] == 0

    @pytest.mark.parametrize("seed", ["320", "-1"])
    def test_out_of_range_seed_simplex_returns_2(self, tmp_path, capsys, seed):
        mesh, emb, rc = run_pipeline(
            tmp_path, kind="sphere", resolution="2", extra_embed=("--seed-simplex", seed)
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: seed simplex {seed} out of range [0, 320)\n"
        assert not emb.exists()

    @pytest.mark.parametrize("seed", ["99999", "-1"])
    def test_polygon_branch_judges_seed_simplex(self, tmp_path, capsys, seed):
        # grid-disk 2x6 takes the regular-polygon branch, which pins no
        # simplex; it used to ignore the seed, exit 0 and record it
        mesh, emb, rc = run_pipeline(
            tmp_path, resolution="2x6", extra_embed=("--seed-simplex", seed)
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: seed simplex {seed} out of range [0, 10)\n"
        assert not emb.exists()
        assert not (tmp_path / "emb.csv.manifest.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        mesh, emb, rc = run_pipeline(tmp_path)
        assert rc == 0
        first = emb.read_bytes()
        rc = main(["embed", "--mesh", str(mesh), "--out", str(emb)])
        assert rc == 0
        assert emb.read_bytes() == first

    def test_missing_mesh_returns_2(self, tmp_path):
        rc = main(
            ["embed", "--mesh", str(tmp_path / "nope.json"), "--out", str(tmp_path / "e.csv")]
        )
        assert rc == 2

    @pytest.mark.parametrize("gamma", ["nan", "5000"])
    def test_bad_gamma_returns_2(self, tmp_path, capsys, gamma):
        # 5000 underflows every weight of the 5x5 grid disk, whose shortest
        # edge is 0.5 long; neither may yield an all-zero embedding
        mesh, emb, rc = run_pipeline(tmp_path, extra_embed=("--gamma", gamma))
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not emb.exists()

    def test_nonconvergent_solver_returns_4(self, tmp_path, capsys, monkeypatch):
        # main runs in this process, so a band-size limit of 0 sends every
        # solve to PCG; past rounding it reports the residual it reached
        monkeypatch.setattr(solver, "BAND_LIMIT", 0)
        mesh = tmp_path / "mesh.json"
        rc = main(
            ["generate", "--kind", "grid-disk", "--resolution", "8x8", "--out", str(mesh)]
        )
        assert rc == 0
        rc = main(
            [
                "embed",
                "--mesh",
                str(mesh),
                "--out",
                str(tmp_path / "e.csv"),
                "--rel-tol",
                "1e-300",
            ]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error: solver failed: ") and err.count("\n") == 1
        assert "pcg solve missed tolerance" in err and "nan" not in err
        assert not (tmp_path / "e.csv").exists()

    def test_solver_flag_is_gone(self, tmp_path):
        # the matrix picks the route; an old --solver is an argparse error
        with pytest.raises(SystemExit) as e:
            main(["embed", "--mesh", str(tmp_path / "m.json"),
                  "--out", str(tmp_path / "e.csv"), "--solver", "direct"])
        assert e.value.code == 2

    @pytest.mark.parametrize("route", ["auto", "iterative"])
    @pytest.mark.parametrize("gamma", ["3000", "4000"])
    def test_tiny_weights_are_solved_or_refused(self, tmp_path, capsys, monkeypatch,
                                                route, gamma):
        # on icosphere 3 these weights lie between ~1e-286 and ~1e-180, so
        # every right-hand-side entry squares to 0; the system is not empty
        # and must not come back as an all-zero embedding of route none; on
        # the rule's route and by PCG (a band-size limit of 0)
        if route == "iterative":
            monkeypatch.setattr(solver, "BAND_LIMIT", 0)
        _, emb, rc = run_pipeline(tmp_path, "sphere", "3", extra_embed=("--gamma", gamma))
        if rc == 2:
            assert capsys.readouterr().err.startswith("error: ")
            assert not emb.exists()
            return
        assert rc == 0
        result = json.loads((tmp_path / "emb.csv.manifest.json").read_text())["result"]
        assert [r["route"] for r in result["routes"].values()] == (
            ["band"] if route == "auto" else ["pcg"]
        )
        assert all(0.0 < v <= 1e-10 for v in result["residuals"].values())
        coords = read_embedding_csv(emb.read_text())
        assert np.count_nonzero(np.abs(coords).sum(axis=1)) > 3

    def test_iterative_route_in_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver, "BAND_LIMIT", 0)  # every block takes PCG
        _, emb, rc = run_pipeline(tmp_path)
        assert rc == 0
        manifest = json.loads((tmp_path / "emb.csv.manifest.json").read_text())
        routes = manifest["result"]["routes"]
        assert set(routes) == {"round1", "round2"}
        out = capsys.readouterr().out
        # 22 free vertices in round 1, the 3 x 3 interior in round 2
        for name, n_free in (("round1", 22), ("round2", 9)):
            route = routes[name]
            assert route.keys() == {"route", "iterations"}
            assert route["route"] == "pcg"
            assert 1 <= route["iterations"] <= 2 * n_free
            assert f"(pcg, {route['iterations']} iterations)" in out

    def test_off_input(self, tmp_path):
        off = tmp_path / "tri.off"
        off.write_text("OFF\n3 1 3\n0 0 0\n2 0 0\n0 2 0\n3 0 1 2\n")
        emb = tmp_path / "tri.csv"
        rc = main(["embed", "--mesh", str(off), "--out", str(emb)])
        assert rc == 0
        assert read_embedding_csv(emb.read_text()).shape == (3, 2)

    def test_tetgen_input(self, tmp_path):
        corners = [
            (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
            (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
        ]
        node_lines = ["9 3 0 0"]
        for i, c in enumerate(corners):
            node_lines.append(f"{i} {c[0]} {c[1]} {c[2]}")
        node_lines.append("8 0.5 0.5 0.5")
        quads = [
            (0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4),
            (2, 3, 7, 6), (1, 2, 6, 5), (3, 0, 4, 7),
        ]
        tets = []
        for q in quads:
            tets.append((q[0], q[1], q[2], 8))
            tets.append((q[0], q[2], q[3], 8))
        ele_lines = [f"{len(tets)} 4 0"]
        for i, t in enumerate(tets):
            ele_lines.append(f"{i} {t[0]} {t[1]} {t[2]} {t[3]}")
        (tmp_path / "cube.node").write_text("\n".join(node_lines) + "\n")
        (tmp_path / "cube.ele").write_text("\n".join(ele_lines) + "\n")

        emb = tmp_path / "cube.csv"
        rc = main(["embed", "--mesh", str(tmp_path / "cube.node"), "--out", str(emb)])
        assert rc == 0
        manifest = json.loads((tmp_path / "cube.csv.manifest.json").read_text())
        assert manifest["result"]["intrinsic_dim"] == 3
        assert read_embedding_csv(emb.read_text()).shape == (9, 3)

    def test_node_without_ele_returns_2(self, tmp_path):
        (tmp_path / "only.node").write_text("1 3 0 0\n0 0 0 0\n")
        rc = main(
            ["embed", "--mesh", str(tmp_path / "only.node"), "--out", str(tmp_path / "e.csv")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "files, message",
        [
            ({"mesh.json": "3"}, "must be an object"),
            ({"mesh.json": '{"ambient_dim": null, "intrinsic_dim": 2, "vertices": [],'
              ' "simplices": []}'}, "ambient_dim must be an integer"),
            ({"mesh.json": '{"ambient_dim": 2, "intrinsic_dim": 2.5, "vertices": [[0, 0],'
              ' [1, 0], [0, 1]], "simplices": [[0, 1, 2]]}'}, "intrinsic_dim must be an integer"),
            ({"mesh.json": '{"ambient_dim": 2, "intrinsic_dim": 2, "vertices": {"a": 1},'
              ' "simplices": []}'}, "vertices must be rows of numbers"),
            ({"mesh.node": "0 3 0 0\n", "mesh.ele": "0 4 0\n"}, "line 1: .node file"),
            ({"mesh.node": "1 3 0 0\nx 0 0 0\n", "mesh.ele": "0 4 0\n"}, "line 2: node index"),
        ],
        ids=["top-level-3", "ambient-null", "intrinsic-2.5", "vertices-object",
             "zero-nodes", "non-numeric-index"],
    )
    def test_malformed_mesh_returns_2(self, tmp_path, capsys, files, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        mesh = tmp_path / next(iter(files))
        rc = main(["embed", "--mesh", str(mesh), "--out", str(tmp_path / "e.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry, message",
        [
            (2.7, "vertex ids must be integers"),
            (2**70, "vertex ids must be integers"),
            (10**6, "vertex ids 1000000 out of range"),
        ],
    )
    def test_bad_simplex_id_returns_2(self, tmp_path, capsys, entry, message):
        path = tmp_path / "mesh.json"
        main(["generate", "--kind", "paraboloid", "--resolution", "4x4", "--out", str(path)])
        blob = json.loads(path.read_text())
        blob["simplices"][3][1] = entry
        path.write_text(json.dumps(blob))
        rc = main(["embed", "--mesh", str(path), "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_unreferenced_vertex_returns_2(self, tmp_path, capsys):
        # validation names the vertex; the solve would only report a
        # component with no fixed vertex
        path = tmp_path / "mesh.json"
        main(["generate", "--kind", "paraboloid", "--resolution", "5x5", "--out", str(path)])
        blob = json.loads(path.read_text())
        blob["vertices"].append([0.0, 0.0, 0.0])
        path.write_text(json.dumps(blob))
        rc = main(["embed", "--mesh", str(path), "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "vertex 25 belongs to no simplex" in err
        assert "contains no fixed vertex" not in err
        assert not (tmp_path / "e.csv").exists()

    def test_non_finite_mesh_vertex_returns_2(self, tmp_path, capsys):
        path = tmp_path / "mesh.json"
        main(["generate", "--kind", "paraboloid", "--resolution", "6x6", "--out", str(path)])
        blob = json.loads(path.read_text())
        blob["vertices"][14][2] = float("nan")
        path.write_text(json.dumps(blob))
        rc = main(["embed", "--mesh", str(path), "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "vertex 14 has a non-finite coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, resolution, pinch",
        [
            ("sphere", "1", "farthest"),  # two far vertices of a closed mesh
            ("paraboloid", "6x2", "corners"),  # a strip pinched at one vertex
        ],
    )
    def test_non_manifold_vertex_returns_2(self, tmp_path, capsys, kind, resolution, pinch):
        path = tmp_path / "mesh.json"
        main(["generate", "--kind", kind, "--resolution", resolution, "--out", str(path)])
        blob = json.loads(path.read_text())
        vertices = np.array(blob["vertices"])
        simplices = np.array(blob["simplices"])
        if pinch == "farthest":
            drop = int(np.argmax(np.linalg.norm(vertices - vertices[0], axis=1)))
        else:
            drop = 5  # the other end of the strip's first row
        simplices = np.where(simplices == drop, 0, simplices)
        blob["simplices"] = (simplices - (simplices > drop)).tolist()
        blob["vertices"] = np.delete(vertices, drop, axis=0).tolist()
        path.write_text(json.dumps(blob))
        rc = main(["embed", "--mesh", str(path), "--out", str(tmp_path / "e.csv")])
        assert rc == 2
        assert "vertex 0 is non-manifold" in capsys.readouterr().err


class TestValidate:
    def test_certified_returns_0(self, tmp_path, capsys):
        mesh, emb, rc = run_pipeline(tmp_path)
        assert rc == 0
        rc = main(["validate", "--mesh", str(mesh), "--embedding", str(emb)])
        assert rc == 0
        assert "verdict: injective-certified" in capsys.readouterr().out

    def test_folded_embedding_returns_3(self, tmp_path, capsys):
        mesh, emb, rc = run_pipeline(tmp_path)
        coords = read_embedding_csv(emb.read_text())
        # drag an interior vertex far outside its star
        manifest = json.loads((tmp_path / "emb.csv.manifest.json").read_text())
        assert manifest["result"]["branch"] == "two-round"
        coords[12] = [5.0, 5.0]
        folded = tmp_path / "folded.csv"
        folded.write_text(write_embedding_csv(coords))
        rc = main(["validate", "--mesh", str(mesh), "--embedding", str(folded)])
        assert rc == 3
        out = capsys.readouterr().out
        assert "verdict: violated" in out

    def test_sphere_certified_via_sibling_manifest(self, tmp_path):
        mesh, emb, rc = run_pipeline(tmp_path, kind="sphere", resolution="2")
        assert rc == 0
        rc = main(["validate", "--mesh", str(mesh), "--embedding", str(emb)])
        assert rc == 0

    def test_sphere_without_manifest_shows_seed_cover(self, tmp_path, capsys):
        # with the manifest deleted the report still names the seed, whose
        # image covers the rest of the drawing, as the outer simplex
        mesh, emb, rc = run_pipeline(tmp_path, kind="sphere", resolution="2")
        path = tmp_path / "emb.csv.manifest.json"
        seed = json.loads(path.read_text())["result"]["seed_simplex"]
        path.unlink()
        capsys.readouterr()
        report = tmp_path / "report.txt"
        rc = main(["validate", "--mesh", str(mesh), "--embedding", str(emb), "--out", str(report)])
        assert rc == 0
        assert f"outer simplex: {seed}" in capsys.readouterr().out.splitlines()
        assert json.loads((tmp_path / "report.txt.json").read_text())["outer_simplex"] == seed

    def test_explicit_manifest_path(self, tmp_path, capsys):
        # validate reads no manifest: --manifest is an argparse error
        mesh, emb, rc = run_pipeline(tmp_path, kind="sphere", resolution="2")
        argv = ["validate", "--mesh", str(mesh), "--embedding", str(emb),
                "--manifest", str(tmp_path / "emb.csv.manifest.json")]
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "unrecognized arguments: --manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["{not json", "[1, 2]", '{"result": {"seed_simplex": 1000000}}']
    )
    def test_sibling_manifest_is_not_read(self, tmp_path, text):
        # a sibling manifest, however broken, changes nothing
        mesh, emb, rc = run_pipeline(tmp_path, kind="sphere", resolution="1")
        report = tmp_path / "report.txt"
        argv = ["validate", "--mesh", str(mesh), "--embedding", str(emb), "--out", str(report)]
        assert main(argv) == 0
        want = report.read_text()
        (tmp_path / "emb.csv.manifest.json").write_text(text)
        assert main(argv) == 0
        assert report.read_text() == want

    def test_shape_mismatch_returns_2(self, tmp_path):
        mesh, emb, rc = run_pipeline(tmp_path)
        (tmp_path / "short.csv").write_text("id,y0,y1\n0,0.0,0.0\n")
        rc = main(
            ["validate", "--mesh", str(mesh), "--embedding", str(tmp_path / "short.csv")]
        )
        assert rc == 2

    def test_report_files_written(self, tmp_path):
        mesh, emb, rc = run_pipeline(tmp_path)
        report = tmp_path / "report.txt"
        rc = main(
            [
                "validate",
                "--mesh",
                str(mesh),
                "--embedding",
                str(emb),
                "--out",
                str(report),
            ]
        )
        assert rc == 0
        assert report.read_text().startswith("verdict: injective-certified")
        blob = json.loads((tmp_path / "report.txt.json").read_text())
        assert blob["verdict"] == "injective-certified"
        assert blob["crossing_count"] == 0

    def test_report_records_stage_timings(self, tmp_path):
        mesh, emb, rc = run_pipeline(tmp_path)
        report = tmp_path / "report.txt"
        rc = main(["validate", "--mesh", str(mesh), "--embedding", str(emb), "--out", str(report)])
        assert rc == 0
        timings = json.loads((tmp_path / "report.txt.json").read_text())["timings_ms"]
        assert set(timings) == {"load", "read", "audit"}
        assert all(value >= 0 for value in timings.values())

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_embedding_returns_2(self, tmp_path, capsys, bad):
        mesh, emb, rc = run_pipeline(tmp_path)
        lines = emb.read_text().splitlines()
        lines[5] = f"4,{bad},0.1"
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        rc = main(["validate", "--mesh", str(mesh), "--embedding", str(broken)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 6: coordinate is not finite" in err

    def test_third_party_embedding_accepted(self, tmp_path):
        # hand-written CSV with valid planar coordinates for a tiny mesh
        mesh = tmp_path / "mesh.json"
        main(["generate", "--kind", "grid-disk", "--resolution", "2x2", "--out", str(mesh)])
        csv = tmp_path / "own.csv"
        csv.write_text(
            "id,y0,y1\n0,0.0,0.0\n1,1.0,0.0\n2,0.0,1.0\n3,1.0,1.0\n"
        )
        rc = main(["validate", "--mesh", str(mesh), "--embedding", str(csv)])
        assert rc == 0


class TestRender:
    def test_writes_svg(self, tmp_path):
        mesh, emb, rc = run_pipeline(tmp_path)
        out = tmp_path / "drawing.svg"
        rc = main(
            [
                "render",
                "--mesh",
                str(mesh),
                "--embedding",
                str(emb),
                "--out",
                str(out),
                "--highlight-boundary",
            ]
        )
        assert rc == 0
        svg = out.read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<line ") == 56  # 5x5 grid: 56 unique edges

    def test_mark_crossings(self, tmp_path, capsys):
        mesh, emb, rc = run_pipeline(tmp_path)
        coords = read_embedding_csv(emb.read_text())
        coords[12] = [5.0, 5.0]
        folded = tmp_path / "folded.csv"
        folded.write_text(write_embedding_csv(coords))
        out = tmp_path / "folded.svg"
        rc = main(
            [
                "render",
                "--mesh",
                str(mesh),
                "--embedding",
                str(folded),
                "--out",
                str(out),
                "--mark-crossings",
            ]
        )
        assert rc == 0
        assert "crossings marked:" in capsys.readouterr().out
        assert "<circle" in out.read_text()

    @pytest.mark.parametrize("mark", [False, True], ids=["plain", "mark-crossings"])
    def test_shape_mismatch_returns_2(self, tmp_path, capsys, mark):
        # the shape rule is the callee's: render_svg's, or the audit's when
        # crossings are marked; either way one error line and no SVG
        mesh, emb, rc = run_pipeline(tmp_path)
        short = tmp_path / "short.csv"
        short.write_text("id,y0,y1\n0,0.0,0.0\n")
        out = tmp_path / "short.svg"
        argv = ["render", "--mesh", str(mesh), "--embedding", str(short), "--out", str(out)]
        capsys.readouterr()
        assert main(argv + ["--mark-crossings"] * mark) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "(25, 2)" in err and not out.exists()

    def test_mark_crossings_trusts_the_certificate(self, tmp_path, capsys,
                                                   monkeypatch):
        # a certified drawing is decided on its boundary loop: no sweep
        # runs over all the mesh edges, as the full count's does
        sweeps = []
        sweep = validity._sweep_columns

        def spy(edges, coords):
            sweeps.append(len(edges))
            return sweep(edges, coords)

        mesh, emb, rc = run_pipeline(tmp_path, "paraboloid", "8x8")
        assert rc == 0
        monkeypatch.setattr(validity, "_sweep_columns", spy)
        out = tmp_path / "drawing.svg"
        rc = main(["render", "--mesh", str(mesh), "--embedding", str(emb),
                   "--out", str(out), "--mark-crossings"])
        assert rc == 0
        assert "crossings marked: 0" in capsys.readouterr().out
        n_edges = len(mesh_edges(mesh_from_json(mesh.read_text())))
        assert sweeps and n_edges not in sweeps
        assert "<circle" not in out.read_text()

    def test_mark_crossings_refused_drawing_returns_2(self, tmp_path, capsys):
        # a tetrahedral mesh drawn in two columns is no drawing the audit
        # accepts, so there are no crossings to mark
        mesh = tmp_path / "mesh.json"
        main(["generate", "--kind", "ball3", "--resolution", "2", "--out", str(mesh)])
        flat = tmp_path / "flat.csv"
        flat.write_text("id,y0,y1\n" + "".join(
            f"{i},{i % 3}.0,{i // 3}.0\n" for i in range(27)))
        rc = main(["render", "--mesh", str(mesh), "--embedding", str(flat),
                   "--out", str(tmp_path / "x.svg"), "--mark-crossings"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: embedding must be")

    def test_mark_crossings_non_finite_returns_2(self, tmp_path, capsys):
        mesh, emb, rc = run_pipeline(tmp_path)
        lines = emb.read_text().splitlines()
        lines[4] = "3,-inf,0.0"
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n")
        rc = main(
            ["render", "--mesh", str(mesh), "--embedding", str(broken),
             "--out", str(tmp_path / "x.svg"), "--mark-crossings"]
        )
        assert rc == 2
        assert "not finite" in capsys.readouterr().err

    def test_byte_identical_re_render(self, tmp_path):
        mesh, emb, rc = run_pipeline(tmp_path)
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        main(["render", "--mesh", str(mesh), "--embedding", str(emb), "--out", str(out1)])
        main(["render", "--mesh", str(mesh), "--embedding", str(emb), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_three_dimensional_embedding_rejected(self, tmp_path):
        mesh = tmp_path / "mesh.json"
        main(["generate", "--kind", "ball3", "--resolution", "2", "--out", str(mesh)])
        emb = tmp_path / "b.csv"
        rc = main(["embed", "--mesh", str(mesh), "--out", str(emb)])
        assert rc == 0
        rc = main(
            ["render", "--mesh", str(mesh), "--embedding", str(emb), "--out", str(tmp_path / "x.svg")]
        )
        assert rc == 2


def kuhn_4cube():
    """The unit 4-cube split into 24 simplices, one per order of the axes:
    each walks from the origin to (1, 1, 1, 1), adding one axis a step."""
    verts = np.array([[k >> axis & 1 for axis in range(4)] for k in range(16)], dtype=float)
    paths = [np.cumsum([0] + [1 << a for a in order]).tolist()
             for order in itertools.permutations(range(4))]
    return verts, paths, 4


# meshes that are neither triangles nor tetrahedra, as (vertices, simplices, d)
OTHER_DIMENSIONS = {
    "path-d1": (np.arange(4.0)[:, None], [[0, 1], [1, 2], [2, 3]], 1),
    "kuhn-4cube": kuhn_4cube(),
}


class TestInputErrors:
    """Every command reports bad input the same way, through main: exit 2
    and one stderr line ``error: ...``, never a traceback."""

    @pytest.mark.parametrize("name", sorted(OTHER_DIMENSIONS))
    def test_meshes_of_other_dimensions_are_refused(self, tmp_path, capsys, name):
        # a d = 1 path used to embed and certify, and the Kuhn 4-cube to
        # embed with an audit that could never certify it
        vertices, simplices, d = OTHER_DIMENSIONS[name]
        refusal = f"intrinsic dimension must be 2 or 3, got {d}"
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            SimplicialMesh(vertices, simplices, d)
        mesh, drawing = tmp_path / "mesh.json", tmp_path / "drawing.csv"
        mesh.write_text(json.dumps({"ambient_dim": d, "intrinsic_dim": d,
                                    "vertices": vertices.tolist(), "simplices": simplices}))
        drawing.write_text(write_embedding_csv(vertices))
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            mesh_from_json(mesh.read_text())
        for argv in (
            ["embed", "--mesh", str(mesh), "--out", str(tmp_path / "e.csv")],
            ["validate", "--mesh", str(mesh), "--embedding", str(drawing),
             "--out", str(tmp_path / "report.txt")],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: cannot read mesh {mesh}: {refusal}\n"
        # neither command wrote anything
        assert sorted(tmp_path.iterdir()) == [drawing, mesh]

    @pytest.mark.parametrize("command", ["generate", "embed", "validate", "render"])
    def test_one_error_line_per_command(self, tmp_path, capsys, command):
        mesh, emb, rc = run_pipeline(tmp_path)
        assert rc == 0
        (tmp_path / "wide.csv").write_text(
            "id,y0,y1,y2\n" + "".join(f"{i},0.0,0.0,0.0\n" for i in range(25))
        )
        capsys.readouterr()
        argv = {
            "generate": ["generate", "--kind", "grid-disk", "--resolution", "1x1",
                         "--out", str(tmp_path / "tiny.json")],
            "embed": ["embed", "--mesh", str(mesh), "--gamma", "nan",
                      "--out", str(tmp_path / "nan.csv")],
            "validate": ["validate", "--mesh", str(mesh),
                         "--embedding", str(tmp_path / "wide.csv")],
            "render": ["render", "--mesh", str(mesh),
                       "--embedding", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "x.svg")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, message", [
        ("vertices", "vertices must be rows of numbers of one length"),
        ("simplices", "simplices must be rows of vertex ids of one length"),
    ], ids=["vertices", "simplices"])
    def test_ragged_rows_are_input_errors(self, tmp_path, capsys, field, message):
        # one row two entries short: the package's own message, not numpy's
        mesh, emb, rc = run_pipeline(tmp_path)
        assert rc == 0
        blob = json.loads(mesh.read_text())
        blob[field][3] = blob[field][3][:-2]
        ragged = tmp_path / "ragged.json"
        ragged.write_text(json.dumps(blob))
        capsys.readouterr()
        for argv in (
            ["embed", "--mesh", str(ragged), "--out", str(tmp_path / "e.csv")],
            ["validate", "--mesh", str(ragged), "--embedding", str(emb)],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: cannot read mesh {ragged}: {message}\n"
        assert not (tmp_path / "e.csv").exists()

    def test_overflowing_coordinates_are_input_errors(self, tmp_path, capsys):
        # ball3 2 scaled by 1e103: its bounding-box diameter cubed is not a
        # finite double, so neither the mesh nor a drawing of it is judged
        big = SimplicialMesh(ball3(2).vertices * 1e103, ball3(2).simplices, 3)
        mesh, drawing = tmp_path / "big.json", tmp_path / "big.csv"
        mesh.write_text(mesh_to_json(big))
        drawing.write_text(write_embedding_csv(big.vertices))
        for argv in (
            ["embed", "--mesh", str(mesh), "--out", str(tmp_path / "e.csv")],
            ["validate", "--mesh", str(mesh), "--embedding", str(drawing)],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "to the power d = 3 is not a finite double" in err

    def test_non_orientable_mesh_is_an_input_error(self, tmp_path, capsys):
        # a 12 x 3 Mobius band takes the two-round branch, which used to
        # embed it and exit 0
        mesh, out = tmp_path / "mobius.json", tmp_path / "mobius.csv"
        mesh.write_text(mesh_to_json(mobius_strip(12, 3)))
        assert main(["embed", "--mesh", str(mesh), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "non-orientable" in err
        assert sorted(tmp_path.iterdir()) == [mesh]

    def test_input_too_large_for_memory_is_an_input_error(self, tmp_path, capsys):
        # ball3 300000 asks numpy for 576 PiB at once, past even a 57-bit
        # address space, so the allocation fails before any memory is taken
        out = tmp_path / "huge.json"
        argv = ["generate", "--kind", "ball3", "--resolution", "300000", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
        assert not out.exists()


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert "fplm" in capsys.readouterr().out

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2
