"""SPD solver tests: band route, PCG route, the route rule, failure modes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from fplm import solver
from fplm.generators import GeneratorSpec, generate
from fplm.laplacian import assemble_system, build_weights
from fplm.mapping import make_c1, run_fplm
from fplm.simplicial import SimplicialMesh
from fplm.solver import SolveConfig, SolverError, solve_spd


def random_spd(rng, n, density=0.4):
    """Random sparse SPD matrix: A = M Mt + n I on a sprinkled pattern."""
    m = sparse.random(n, n, density=density, random_state=rng, format="csr")
    a = (m @ m.T).toarray() + n * np.eye(n)
    return sparse.csr_matrix(a)


@pytest.fixture
def force_route(monkeypatch):
    """``force_route(name)`` sends every later solve of the test down one
    route by moving the band-size limit the route rule reads: "direct"
    takes the band (no limit), "iterative" takes PCG (a limit of 0), and
    "auto" keeps the rule's own limit."""
    def force(name):
        limit = {"direct": math.inf, "iterative": 0,
                 "auto": solver.BAND_LIMIT}[name]
        monkeypatch.setattr(solver, "BAND_LIMIT", limit)
    return force


@pytest.fixture
def solve_direct(force_route):
    """Band solve; checks that the solve took the band route."""
    def solve(a, b, config=None):
        force_route("direct")
        y, _, route = solve_spd(a, b, config)
        assert route["route"] == "band"
        return y
    return solve


def relabelled(kind, resolution, seed):
    """Generated mesh with its vertex ids shuffled by ``seed``, so the band
    comes from the ordering, not from the generator's numbering."""
    mesh, _ = generate(GeneratorSpec(kind, resolution))
    new_id = np.random.default_rng(seed).permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    return SimplicialMesh(vertices, new_id[mesh.simplices], mesh.intrinsic_dim)


def strip_system():
    """Two equilateral triangles in a strip, ends 0 and 3 fixed: every edge
    has length 1, so every weight is exp(-0.1), and the free block of
    vertices 1 and 2 is 2 x 2 with band width 1."""
    h = math.sqrt(3.0) / 2.0
    verts = np.array([[0.0, 0.0], [0.5, h], [1.0, 0.0], [1.5, h]])
    mesh = SimplicialMesh(verts, np.array([[0, 2, 1], [1, 2, 3]]), 2)
    g = build_weights(mesh, gamma=0.1)
    return assemble_system(g, [0, 3])


class TestSolveConfig:
    def test_defaults(self):
        c = SolveConfig()
        assert c.rel_tol == 1e-10
        # the tolerance is the one setting: the matrix picks the route
        assert [f.name for f in dataclasses.fields(SolveConfig)] == ["rel_tol"]

    def test_rejects_bad_rel_tol(self):
        with pytest.raises(ValueError):
            SolveConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(rel_tol=1.0)
        with pytest.raises(ValueError):
            SolveConfig(rel_tol=-1e-3)


class TestSolveSpd:
    def test_one_by_one(self, solve_direct):
        a = sparse.csr_matrix(np.array([[2.0]]))
        y = solve_direct(a, np.array([[1.0]]))
        assert y.shape == (1, 1)
        assert y[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_path_interior_interpolates(self):
        # fixed ends at 0 and 1 with uniform weights: each free vertex is the
        # mean of its three neighbours, both fixed ends and the other free
        # vertex, which puts both at 1/2
        sys = strip_system()
        rhs = -sys.lap_free_fixed @ np.array([[0.0], [1.0]])
        y = solve_spd(sys.lap_free, rhs)[0]
        np.testing.assert_allclose(y.ravel(), [0.5, 0.5], rtol=1e-12)

    def test_matches_dense_oracle(self, solve_direct):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, 4))
            a = random_spd(rng, n)
            b = rng.normal(size=(n, k))
            expect = np.linalg.solve(a.toarray(), b)
            y = solve_direct(a, b)
            np.testing.assert_allclose(y, expect, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("route", ["direct", "iterative"])
    @pytest.mark.parametrize("rhs_scale, matrix_scale", [
        (1e-160, 1.0), (1e-300, 1.0), (1e-200, 1e-200),
    ])
    def test_tiny_right_hand_side_is_solved(self, force_route, route, rhs_scale,
                                            matrix_scale):
        # every entry of b squares to 0 below ~1e-154; the system is still
        # solved, not taken for an empty one, and passes the gate
        force_route(route)
        sys = strip_system()
        rhs = -sys.lap_free_fixed @ np.array([[0.0], [1.0]])
        config = SolveConfig()
        y, _, record = solve_spd(sys.lap_free, rhs, config)
        got, achieved, got_record = solve_spd(
            sys.lap_free * matrix_scale, rhs * rhs_scale, config
        )
        assert got_record["route"] == record["route"] != "none"
        assert achieved <= config.rel_tol
        np.testing.assert_allclose(got, y * (rhs_scale / matrix_scale), rtol=1e-12)

    def test_scaled_gate_keeps_the_residual(self, force_route):
        # the gate scales b by a power of two, so its value is unchanged
        force_route("iterative")
        rng = np.random.default_rng(3)
        a = random_spd(rng, 30)
        b = rng.normal(size=(30, 2)) * 1e3
        config = SolveConfig(rel_tol=1e-6)
        y, achieved, _ = solve_spd(a, b, config)
        assert achieved == np.linalg.norm(a @ y - b) / np.linalg.norm(b)

    def test_duplicate_entries_are_summed(self, solve_direct):
        # A = [[2, -0.5], [-0.5, 2]] with its (0, 0) and (0, 1) entries
        # split in two, as COO triplets and as an unsummed CSR matrix
        data = np.array([1.0, 1.0, -0.25, -0.25, -0.5, 2.0])
        rows = np.array([0, 0, 0, 0, 1, 1])
        cols = np.array([0, 0, 1, 1, 0, 1])
        coo = sparse.coo_matrix((data, (rows, cols)), shape=(2, 2))
        csr = sparse.csr_matrix((data, cols, np.array([0, 4, 6])), shape=(2, 2))
        assert not csr.has_canonical_format
        b = np.array([[1.0], [2.0]])
        expect = np.linalg.solve([[2.0, -0.5], [-0.5, 2.0]], b)
        for a in (coo, csr):
            y = solve_direct(a, b)
            np.testing.assert_allclose(y, expect, rtol=1e-14)

    def test_block_diagonal_pattern(self, solve_direct):
        # two disconnected blocks, interleaved so the ordering must split them
        rng = np.random.default_rng(3)
        blocks = sparse.block_diag([random_spd(rng, 7), random_spd(rng, 5)])
        shuffle = rng.permutation(12)
        a = sparse.csr_matrix(blocks)[shuffle][:, shuffle]
        b = rng.normal(size=(12, 2))
        expect = np.linalg.solve(a.toarray(), b)
        y = solve_direct(a, b)
        np.testing.assert_allclose(y, expect, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "kind, resolution",
        [("paraboloid", (12, 12)), ("sphere", (2,)), ("ball3", (5,))],
    )
    def test_paths_agree_on_relabelled_meshes(self, force_route, solve_direct,
                                              kind, resolution):
        # round-1 free block of a relabelled mesh: the band matches a dense
        # solve to rounding, and PCG at a tight tolerance matches the band
        mesh = relabelled(kind, resolution, 11)
        fixed = make_c1(mesh, 0)
        sys = assemble_system(build_weights(mesh), fixed.indices)
        rhs = -sys.lap_free_fixed @ fixed.targets
        expect = np.linalg.solve(sys.lap_free.toarray(), rhs)
        y_band = solve_direct(sys.lap_free, rhs)
        force_route("iterative")
        y_pcg = solve_spd(sys.lap_free, rhs, SolveConfig(rel_tol=1e-13))[0]
        scale = np.abs(expect).max()
        assert np.abs(y_band - expect).max() <= 1e-12 * scale
        assert np.abs(y_pcg - y_band).max() <= 1e-9 * scale

    def test_auto_takes_band_up_to_the_limit(self, monkeypatch):
        # the strip system's free block is 2 x 2 with band width 1: 4 entries
        sys = strip_system()
        rhs = np.array([[1.0], [1.0]])
        for limit, route in ((4, "band"), (3, "pcg")):
            monkeypatch.setattr(solver, "BAND_LIMIT", limit)
            _, _, got = solve_spd(sys.lap_free, rhs)
            assert got["route"] == route

    @pytest.mark.parametrize(
        "kind, resolution",
        [("paraboloid", (20, 20)), ("sphere", (3,)), ("ball3", (10,)),
         ("twin-peaks", (20, 20))],
    )
    def test_auto_keeps_the_band_on_benchmark_sizes(self, kind, resolution):
        # every round of the benchmark's mesh kinds and sizes stays on the
        # band under auto, whatever the vertex numbering
        for seed in (0, 1, 2):
            emb = run_fplm(relabelled(kind, resolution, seed))
            assert [r["route"] for r in emb.routes.values()] == \
                ["band"] * emb.rounds_run

    def test_route_records(self, force_route):
        sys = strip_system()
        rhs = np.array([[1.0], [2.0]])

        def route(b, name):
            force_route(name)
            return solve_spd(sys.lap_free, b)[2]

        assert route(rhs, "direct") == {"route": "band", "band_width": 1}
        # PCG solves a 2 x 2 system in at most 2 iterations
        assert route(rhs, "iterative") == {"route": "pcg", "iterations": 2}
        assert route(np.zeros((2, 1)), "direct") == {"route": "none"}

    def test_pcg_iterations_are_the_largest_over_columns(self, force_route):
        # (1/sqrt(3), 1/2) is an eigenvector of A D^-1, so Jacobi PCG solves
        # it in one iteration; (1, 2) takes two and the zero column none
        force_route("iterative")
        a = sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        one_step = np.array([[1 / np.sqrt(3.0)], [0.5]])
        b = np.hstack([[[1.0], [2.0]], one_step, np.zeros((2, 1))])

        def iterations(rhs):
            _, _, route = solve_spd(a, rhs)
            assert route["route"] == "pcg"
            return route["iterations"]

        assert iterations(one_step) == 1
        assert iterations(b) == 2

    def test_pcg_zero_column_is_positive_zero(self, force_route):
        # -L_yc C holds -0.0 where a row has no fixed neighbour; a column
        # of them solves to +0.0 in no iterations, written to CSV as 0.0
        force_route("iterative")
        a = sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        b = np.array([[1.0, -0.0], [2.0, -0.0]])
        y, _, route = solve_spd(a, b)
        assert not np.signbit(y[:, 1]).any()
        assert route == {"route": "pcg", "iterations": 2}

    def test_direct_and_iterative_agree(self, force_route, solve_direct):
        rng = np.random.default_rng(13)
        for trial in range(5):
            n = int(rng.integers(5, 60))
            a = random_spd(rng, n)
            b = rng.normal(size=(n, 2))
            yd = solve_direct(a, b)
            force_route("iterative")
            yi = solve_spd(a, b, SolveConfig(rel_tol=1e-12))[0]
            np.testing.assert_allclose(yd, yi, rtol=1e-8, atol=1e-8)

    def test_residual_bound_holds(self, force_route, solve_direct):
        rng = np.random.default_rng(21)
        a = random_spd(rng, 30)
        b = rng.normal(size=(30, 3))
        solutions = [solve_direct(a, b)]
        force_route("iterative")
        solutions.append(solve_spd(a, b)[0])
        for y in solutions:
            res = np.linalg.norm(a @ y - b) / np.linalg.norm(b)
            assert res <= 1e-10

    def test_zero_rhs(self):
        sys = strip_system()
        y = solve_spd(sys.lap_free, np.zeros((2, 2)))[0]
        np.testing.assert_array_equal(y, 0.0)

    def test_one_dimensional_rhs_rejected(self):
        sys = strip_system()
        rhs = (-sys.lap_free_fixed @ np.array([[0.0], [3.0]])).ravel()
        with pytest.raises(ValueError, match=r"\(n, k\) array, got shape \(2,\)"):
            solve_spd(sys.lap_free, rhs)

    def test_empty_system(self):
        a = sparse.csr_matrix((0, 0))
        y = solve_spd(a, np.zeros((0, 2)))[0]
        assert y.shape == (0, 2)

    def test_shape_mismatch_rejected(self):
        sys = strip_system()
        with pytest.raises(ValueError, match="rows"):
            solve_spd(sys.lap_free, np.zeros((5, 1)))

    def test_non_square_rejected(self):
        a = sparse.csr_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            solve_spd(a, np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("route", ["direct", "iterative", "auto"])
    def test_non_finite_rhs_rejected_before_solving(self, monkeypatch, force_route,
                                                    bad, route):
        # it used to factor the matrix and then fail the residual gate with
        # a NaN residual, as if the solver had missed its tolerance
        def no_route(*args, **kwargs):
            raise AssertionError("a route ran on a non-finite right-hand side")

        force_route(route)
        monkeypatch.setattr(solver, "_solve_band", no_route)
        monkeypatch.setattr(solver, "_solve_pcg", no_route)
        sys = strip_system()
        rhs = np.ones((2, 2))
        rhs[1, 0] = bad
        with pytest.raises(ValueError, match=rf"^rhs entry \(1, 0\) is {bad}; the "
                                             "right-hand side must be finite$"):
            solve_spd(sys.lap_free, rhs)

    def test_bit_exact_determinism(self, force_route, solve_direct):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 50)
        b = rng.normal(size=(50, 2))
        y1 = solve_direct(a, b)
        y2 = solve_direct(a, b)
        assert y1.tobytes() == y2.tobytes()
        force_route("iterative")
        y1 = solve_spd(a, b)[0]
        y2 = solve_spd(a, b)[0]
        assert y1.tobytes() == y2.tobytes()

    def test_pcg_bytes_do_not_depend_on_the_blas_thread_count(self):
        # ball3(24) takes PCG in both rounds. Every sum in the loop and in
        # the gate is numpy's own, not a BLAS dot, whose order of summation
        # follows the thread count: so 1 and 2 OpenBLAS threads give the
        # same coordinates and residuals, bit for bit. The gate's sums over
        # a 100k x 2 block (a diagonal system) are the case a BLAS norm
        # gets wrong in the last bit
        code = (
            "import hashlib, json\n"
            "import numpy as np\n"
            "from scipy import sparse\n"
            "from fplm.generators import GeneratorSpec, generate\n"
            "from fplm.mapping import run_fplm\n"
            "from fplm.solver import solve_spd\n"
            "e = run_fplm(generate(GeneratorSpec('ball3', (24,)))[0])\n"
            "rng = np.random.default_rng(0)\n"
            "a = sparse.diags(rng.uniform(1, 2, 100000)).tocsr()\n"
            "gate = solve_spd(a, rng.normal(size=(100000, 2)))[1]\n"
            "print(json.dumps([[r['route'] for r in e.routes.values()],"
            " hashlib.sha256(e.coords.tobytes()).hexdigest(),"
            " {k: float(v).hex() for k, v in e.residuals.items()},"
            " float(gate).hex()]))\n"
        )
        src = str(Path(solver.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=300)
            runs.append(json.loads(proc.stdout))
        assert runs[0][0] == ["pcg", "pcg"]
        assert runs[1] == runs[0]


class TestSolverFailures:
    def test_indefinite_direct_reports_pivot(self, solve_direct):
        diagonal = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        tridiagonal = sparse.csr_matrix(np.array([[4.0, 1.0, 0.0],
                                                  [1.0, 4.0, 1.0],
                                                  [0.0, 1.0, -4.0]]))
        for a in (diagonal, tridiagonal):
            n = a.shape[0]
            with pytest.raises(
                SolverError, match="not positive definite: pivot"
            ) as exc_info:
                solve_direct(a, np.ones((n, 1)))
            assert exc_info.value.pivot in range(n)

    def test_singular_direct(self, solve_direct):
        # the band names step 1, whose pivot 1 - 1 * 1 is exactly 0
        a = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError, match="pivot 1 is 0.000e") as exc_info:
            solve_direct(a, np.ones((2, 1)))
        assert exc_info.value.pivot == 1

    def test_nan_entry_direct(self, solve_direct):
        # dpbtrf lets a NaN pivot through; the pivot check must not
        a = sparse.csr_matrix(np.array([[2.0, 0.0], [0.0, np.nan]]))
        with pytest.raises(SolverError):
            solve_direct(a, np.ones((2, 1)))

    @pytest.mark.parametrize("route", ["direct", "iterative"])
    def test_nan_residual_fails_the_gate(self, monkeypatch, force_route, route):
        # a route that returns NaN without raising must not pass as solved
        def nan_route(lap_free, b, *args, **kwargs):
            return np.full_like(b, np.nan), {"route": "nan"}

        force_route(route)
        name = {"direct": "_solve_band", "iterative": "_solve_pcg"}[route]
        monkeypatch.setattr(solver, name, nan_route)
        sys = strip_system()
        with pytest.raises(SolverError, match="missed tolerance") as exc_info:
            solve_spd(sys.lap_free, np.ones((2, 1)))
        assert np.isnan(exc_info.value.achieved)

    def test_nonpositive_diagonal_iterative(self, force_route):
        force_route("iterative")
        a = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SolverError) as exc_info:
            solve_spd(a, np.ones((2, 1)))
        assert exc_info.value.pivot is not None

    def test_singular_iterative_fails_the_gate(self, force_route):
        # a positive diagonal passes the PCG entry check; CG breaks down on
        # the null space at step 2 (p'Ap = 0), so the gate measures step 1's
        # iterate (1, 0), whose residual (0, 1) is as large as b, and names
        # no pivot
        force_route("iterative")
        a = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError, match="missed tolerance") as exc_info:
            solve_spd(a, np.array([[1.0], [0.0]]))
        assert exc_info.value.pivot is None
        assert exc_info.value.achieved == 1.0

    def test_indefinite_iterative_is_judged_by_the_gate(self, force_route):
        # CG does not stop at p'Ap <= 0; here it still meets the gate
        force_route("iterative")
        a = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        y = solve_spd(a, np.array([[1.0], [0.0]]))[0]
        np.testing.assert_allclose(y, [[-1.0 / 3.0], [2.0 / 3.0]], rtol=1e-12)

    def test_nonconvergence_reports_achieved(self, solve_direct):
        rng = np.random.default_rng(17)
        a = random_spd(rng, 60)
        b = rng.normal(size=(60, 1))
        # no route meets a tolerance of 1e-300 in double precision: the band
        # solves to rounding, and the gate reports the residual it measured
        with pytest.raises(SolverError) as exc_info:
            solve_direct(a, b, SolveConfig(rel_tol=1e-300))
        assert 1e-300 < exc_info.value.achieved < 1e-10

    @pytest.mark.parametrize("kind", ["random", "grid-disk"])
    def test_pcg_past_rounding_reports_the_residual_it_reached(self, force_route,
                                                               kind):
        # iterating on past rounding, CG meets r'z = p'Ap = 0, a NaN step
        # (step 130 of 600 on the random matrix); the loop stops before it
        # and keeps the last iterate, so the gate reports a rounding-level
        # residual as the band does, not NaN
        if kind == "random":
            rng = np.random.default_rng(17)
            a = random_spd(rng, 60)
            b = rng.normal(size=(60, 1))
        else:
            mesh, _ = generate(GeneratorSpec("grid-disk", (8, 8)))
            fixed = make_c1(mesh, 0)
            sys = assemble_system(build_weights(mesh), fixed.indices)
            a, b = sys.lap_free, -sys.lap_free_fixed @ fixed.targets
        force_route("iterative")
        with pytest.raises(SolverError, match="pcg solve missed") as exc_info:
            solve_spd(a, b, SolveConfig(rel_tol=1e-300))
        assert 1e-300 < exc_info.value.achieved < 1e-10

    def test_pcg_breakdown_stops_at_once(self):
        # the column breaks down at step 130 of its cap of 600: one product
        # per step taken, plus one for the step refused, and no run on to
        # the cap in NaN arithmetic
        class CountingCSR(sparse.csr_matrix):
            products = 0

            def __matmul__(self, other):
                self.products += 1
                return super().__matmul__(other)

        rng = np.random.default_rng(17)
        a = CountingCSR(random_spd(rng, 60))
        b = rng.normal(size=(60, 1))
        y, route = solver._solve_pcg(a, b, SolveConfig(rel_tol=1e-300))
        assert np.isfinite(y).all()
        assert 0 < route["iterations"] < 10 * 60
        assert a.products <= route["iterations"] + 1

    def test_small_indefinite_reports_the_band_pivot(self):
        # indirect check of the route rule: under the default limit a small
        # indefinite matrix fails through the band route's pivot report
        a = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(SolverError, match="pivot"):
            solve_spd(a, np.ones((2, 1)))
