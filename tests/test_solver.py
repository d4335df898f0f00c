"""SPD solver tests: direct route, iterative route, failure modes.

The direct route has two paths, the banded Cholesky and SuperLU; tests of
the direct route run on both, reaching SuperLU through a band limit of 0.
"""

import contextlib

import numpy as np
import pytest
from scipy import sparse

from fplm import solver
from fplm.generators import GeneratorSpec, generate
from fplm.laplacian import assemble_system, build_weights
from fplm.mapping import make_c1
from fplm.simplicial import SimplicialMesh
from fplm.solver import SolveConfig, SolverError, solve_spd

DIRECT_PATHS = ("band", "superlu")


def random_spd(rng, n, density=0.4):
    """Random sparse SPD matrix: A = M Mt + n I on a sprinkled pattern."""
    m = sparse.random(n, n, density=density, random_state=rng, format="csr")
    a = (m @ m.T).toarray() + n * np.eye(n)
    return sparse.csr_matrix(a)


@contextlib.contextmanager
def direct_path(path):
    """Send direct solves down ``path``: the banded Cholesky, or SuperLU
    through a band limit of 0."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "superlu":
            mp.setattr(solver, "BAND_LIMIT", 0)
        yield


def solve_direct(a, b, path):
    """Direct solve on one path; checks that the solve took that path."""
    with direct_path(path):
        y, _, route = solve_spd(a, b, SolveConfig(method="direct"),
                                _residual=True)
    assert route["route"] == path
    return y


def path_system():
    verts = np.arange(4, dtype=float)[:, None]
    mesh = SimplicialMesh(verts, np.array([[0, 1], [1, 2], [2, 3]]), 1)
    g = build_weights(mesh, gamma=0.1)
    return assemble_system(g, [0, 3])


class TestSolveConfig:
    def test_defaults(self):
        c = SolveConfig()
        assert c.rel_tol == 1e-10
        assert c.max_iter is None
        assert c.method == "auto"

    def test_rejects_bad_rel_tol(self):
        with pytest.raises(ValueError):
            SolveConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(rel_tol=1.0)
        with pytest.raises(ValueError):
            SolveConfig(rel_tol=-1e-3)

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError):
            SolveConfig(max_iter=0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            SolveConfig(method="magic")


class TestSolveSpd:
    def test_one_by_one(self):
        a = sparse.csr_matrix(np.array([[2.0]]))
        for path in DIRECT_PATHS:
            y = solve_direct(a, np.array([[1.0]]), path)
            assert y.shape == (1, 1)
            assert y[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_path_interior_interpolates(self):
        # fixed endpoints at 0 and 1 with uniform weights put the interior
        # at thirds
        sys = path_system()
        # all edges have length 1, so all weights are equal
        rhs = -sys.lap_free_fixed @ np.array([[0.0], [1.0]])
        y = solve_spd(sys.lap_free, rhs)
        np.testing.assert_allclose(y.ravel(), [1 / 3, 2 / 3], rtol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, 4))
            a = random_spd(rng, n)
            b = rng.normal(size=(n, k))
            expect = np.linalg.solve(a.toarray(), b)
            for path in DIRECT_PATHS:
                y = solve_direct(a, b, path)
                np.testing.assert_allclose(y, expect, rtol=1e-8, atol=1e-10)

    def test_duplicate_entries_are_summed(self):
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
            for path in DIRECT_PATHS:
                y = solve_direct(a, b, path)
                np.testing.assert_allclose(y, expect, rtol=1e-14)

    def test_block_diagonal_pattern(self):
        # two disconnected blocks, interleaved so the ordering must split them
        rng = np.random.default_rng(3)
        blocks = sparse.block_diag([random_spd(rng, 7), random_spd(rng, 5)])
        shuffle = rng.permutation(12)
        a = sparse.csr_matrix(blocks)[shuffle][:, shuffle]
        b = rng.normal(size=(12, 2))
        expect = np.linalg.solve(a.toarray(), b)
        for path in DIRECT_PATHS:
            y = solve_direct(a, b, path)
            np.testing.assert_allclose(y, expect, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "kind, resolution",
        [("paraboloid", (12, 12)), ("sphere", (2,)), ("ball3", (5,))],
    )
    def test_paths_agree_on_relabelled_meshes(self, kind, resolution):
        # round-1 free block of a mesh whose vertex ids are shuffled, so the
        # band comes from the ordering, not from the generator's numbering
        mesh, _ = generate(GeneratorSpec(kind, resolution))
        rng = np.random.default_rng(11)
        new_id = rng.permutation(mesh.n_vertices)
        vertices = np.empty_like(mesh.vertices)
        vertices[new_id] = mesh.vertices
        mesh = SimplicialMesh(vertices, new_id[mesh.simplices], mesh.intrinsic_dim)
        fixed = make_c1(mesh, 0)
        sys = assemble_system(build_weights(mesh), fixed.indices)
        rhs = -sys.lap_free_fixed @ fixed.targets
        y_band, y_lu = (solve_direct(sys.lap_free, rhs, p) for p in DIRECT_PATHS)
        assert np.abs(y_band - y_lu).max() <= 1e-12 * np.abs(y_lu).max()

    def test_band_over_the_limit_calls_splu(self, monkeypatch):
        # the path system's free block is 2 x 2 with band width 1: 4 entries
        calls = []
        splu = solver.splu

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(solver, "splu", spy)
        sys = path_system()
        rhs = np.array([[1.0], [1.0]])
        for limit, route in ((4, "band"), (3, "superlu")):
            monkeypatch.setattr(solver, "BAND_LIMIT", limit)
            _, _, got = solve_spd(sys.lap_free, rhs, _residual=True)
            assert got["route"] == route
        assert calls == [(2, 2)]

    def test_route_records(self):
        sys = path_system()
        rhs = np.array([[1.0], [2.0]])

        def route(b, method):
            return solve_spd(sys.lap_free, b, SolveConfig(method=method),
                             _residual=True)[2]

        assert route(rhs, "direct") == {"route": "band", "band_width": 1}
        assert route(rhs, "iterative") == {"route": "pcg"}
        assert route(np.zeros((2, 1)), "direct") == {"route": "none"}

    def test_direct_and_iterative_agree(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            n = int(rng.integers(5, 60))
            a = random_spd(rng, n)
            b = rng.normal(size=(n, 2))
            yd = solve_spd(a, b, SolveConfig(method="direct"))
            yi = solve_spd(a, b, SolveConfig(method="iterative", rel_tol=1e-12))
            np.testing.assert_allclose(yd, yi, rtol=1e-8, atol=1e-8)

    def test_residual_bound_holds(self):
        rng = np.random.default_rng(21)
        a = random_spd(rng, 30)
        b = rng.normal(size=(30, 3))
        solutions = [solve_direct(a, b, path) for path in DIRECT_PATHS]
        solutions.append(solve_spd(a, b, SolveConfig(method="iterative")))
        for y in solutions:
            res = np.linalg.norm(a @ y - b) / np.linalg.norm(b)
            assert res <= 1e-10

    def test_zero_rhs(self):
        sys = path_system()
        y = solve_spd(sys.lap_free, np.zeros((2, 2)))
        np.testing.assert_array_equal(y, 0.0)

    def test_one_dimensional_rhs_squeezed(self):
        sys = path_system()
        rhs = (-sys.lap_free_fixed @ np.array([[0.0], [3.0]])).ravel()
        y = solve_spd(sys.lap_free, rhs)
        assert y.shape == (2,)
        np.testing.assert_allclose(y, [1.0, 2.0], rtol=1e-12)

    def test_empty_system(self):
        a = sparse.csr_matrix((0, 0))
        y = solve_spd(a, np.zeros((0, 2)))
        assert y.shape == (0, 2)

    def test_shape_mismatch_rejected(self):
        sys = path_system()
        with pytest.raises(ValueError, match="rows"):
            solve_spd(sys.lap_free, np.zeros((5, 1)))

    def test_non_square_rejected(self):
        a = sparse.csr_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            solve_spd(a, np.zeros(2))

    def test_bit_exact_determinism(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 50)
        b = rng.normal(size=(50, 2))
        for path in DIRECT_PATHS:
            y1 = solve_direct(a, b, path)
            y2 = solve_direct(a, b, path)
            assert y1.tobytes() == y2.tobytes()
        y1 = solve_spd(a, b, SolveConfig(method="iterative"))
        y2 = solve_spd(a, b, SolveConfig(method="iterative"))
        assert y1.tobytes() == y2.tobytes()


class TestSolverFailures:
    def test_indefinite_direct_reports_pivot(self):
        diagonal = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        tridiagonal = sparse.csr_matrix(np.array([[4.0, 1.0, 0.0],
                                                  [1.0, 4.0, 1.0],
                                                  [0.0, 1.0, -4.0]]))
        for a in (diagonal, tridiagonal):
            n = a.shape[0]
            for path in DIRECT_PATHS:
                with direct_path(path), pytest.raises(
                    SolverError, match="not positive definite: pivot"
                ) as exc_info:
                    solve_spd(a, np.ones((n, 1)), SolveConfig(method="direct"))
                assert exc_info.value.pivot in range(n)

    def test_singular_direct(self):
        # SuperLU reports an exactly singular factor without a pivot; the
        # band path names step 1, whose pivot 1 - 1 * 1 is exactly 0
        a = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        for path in DIRECT_PATHS:
            with direct_path(path), pytest.raises(SolverError) as exc_info:
                solve_spd(a, np.ones((2, 1)), SolveConfig(method="direct"))
        with pytest.raises(SolverError, match="pivot 1 is 0.000e") as exc_info:
            solve_direct(a, np.ones((2, 1)), "band")
        assert exc_info.value.pivot == 1

    def test_nan_entry_direct(self):
        # dpbtrf lets a NaN pivot through; the pivot check must not
        a = sparse.csr_matrix(np.array([[2.0, 0.0], [0.0, np.nan]]))
        for path in DIRECT_PATHS:
            with direct_path(path), pytest.raises(SolverError):
                solve_spd(a, np.ones((2, 1)), SolveConfig(method="direct"))

    def test_nonpositive_diagonal_iterative(self):
        a = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SolverError) as exc_info:
            solve_spd(a, np.ones((2, 1)), SolveConfig(method="iterative"))
        assert exc_info.value.pivot is not None

    def test_nonconvergence_reports_achieved(self):
        rng = np.random.default_rng(17)
        a = random_spd(rng, 60)
        b = rng.normal(size=(60, 1))
        with pytest.raises(SolverError) as exc_info:
            solve_spd(a, b, SolveConfig(method="iterative", max_iter=1))
        assert exc_info.value.achieved is not None
        assert exc_info.value.achieved > 1e-10

    def test_auto_picks_direct_for_small(self):
        # indirect check: an indefinite matrix fails through the direct
        # route's pivot report when method is auto and the system is small
        a = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(SolverError, match="pivot"):
            solve_spd(a, np.ones((2, 1)), SolveConfig(method="auto"))
