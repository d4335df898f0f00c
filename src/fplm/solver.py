"""Deterministic SPD solver for the free-block Laplacian system.

Two routes solve L_y Y = B. The direct route orders the unknowns by reverse
Cuthill-McKee and, while the lower band of the reordered matrix holds at
most ``BAND_LIMIT`` entries (8 bytes each), factors it with LAPACK's banded
Cholesky (``dpbtrf``/``dpbtrs``); a wider band, as on large tetrahedral
meshes where it grows like n^(2/3), goes to a SuperLU factorization with a
minimum-degree ordering instead. The iterative route is a
Jacobi-preconditioned conjugate gradient loop; ``auto`` switches to it at
20,000 free vertices. Every route is deterministic for fixed inputs, and
the Frobenius-norm residual is verified before returning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

AUTO_DIRECT_LIMIT = 20_000

# Most lower-band entries, (band width + 1) * n, that the direct route
# factors by banded Cholesky (80 MB of float64). Band and SuperLU times
# cross between about 9.4M entries (ball3(19) round 1, band 17% faster) and
# 12.8M (ball3(20) round 1, band 11% slower).
BAND_LIMIT = 10_000_000

_METHODS = ("direct", "iterative", "auto")


class SolverError(RuntimeError):
    """Factorization failure or iteration that did not reach tolerance."""

    def __init__(self, message: str, *, achieved: float | None = None,
                 pivot: int | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.pivot = pivot


@dataclass(frozen=True)
class SolveConfig:
    """Solver controls.

    rel_tol bounds ||L_y Y - B||_F <= rel_tol * ||B||_F. max_iter of None
    means 10 * n_free. method is one of direct, iterative, auto.
    """

    rel_tol: float = 1e-10
    max_iter: int | None = None
    method: str = "auto"

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if self.method not in _METHODS:
            raise ValueError(
                f"method must be one of {_METHODS}, got {self.method!r}"
            )


def solve_spd(lap_free: sparse.spmatrix, rhs: np.ndarray,
              config: SolveConfig | None = None, *, _residual: bool = False):
    """Solve the SPD system L_y Y = rhs for all right-hand-side columns.

    Parameters
    ----------
    lap_free : (n, n) sparse matrix
        Free-block Laplacian, symmetric positive definite.
    rhs : (n, k) or (n,) array
    config : SolveConfig, optional

    Returns
    -------
    (n, k) array (or (n,) matching a 1-D input) with
    ||L_y Y - rhs||_F <= rel_tol * ||rhs||_F.

    The keyword ``_residual`` is internal to the package: it makes the call
    return ``(Y, ||L_y Y - rhs||_F / ||rhs||_F, route)``. The middle value
    is the relative residual the tolerance gate measured (0.0 for a zero or
    empty right-hand side), so :func:`fplm.mapping.solve_fixed_point`
    reports it without a second product. ``route`` is a dict naming the
    route that solved the system, ``{"route": "band", "band_width": w}``,
    ``{"route": "superlu"}`` or ``{"route": "pcg"}``, or
    ``{"route": "none"}`` when there was nothing to solve.
    """
    if config is None:
        config = SolveConfig()
    rhs = np.asarray(rhs, dtype=float)
    squeeze = rhs.ndim == 1
    b = rhs[:, None] if squeeze else rhs
    n = lap_free.shape[0]
    if lap_free.shape[0] != lap_free.shape[1]:
        raise ValueError("lap_free must be square")
    if b.shape[0] != n:
        raise ValueError(
            f"rhs has {b.shape[0]} rows but the system has {n} unknowns"
        )
    achieved = 0.0
    b_norm = float(np.linalg.norm(b))
    if n == 0 or b_norm == 0.0:
        y = np.zeros_like(b)
        return _solution(y[:, 0] if squeeze else y, achieved, {"route": "none"},
                         _residual)

    method = config.method
    if method == "auto":
        method = "direct" if n < AUTO_DIRECT_LIMIT else "iterative"

    if method == "direct":
        y, route = _solve_direct(lap_free, b)
    else:
        y, route = _solve_pcg(lap_free, b, config), {"route": "pcg"}

    achieved = float(np.linalg.norm(lap_free @ y - b)) / b_norm
    if achieved > config.rel_tol:
        raise SolverError(
            f"{method} solve missed tolerance: relative residual "
            f"{achieved:.3e} > {config.rel_tol:.3e}",
            achieved=achieved,
        )
    return _solution(y[:, 0] if squeeze else y, achieved, route, _residual)


def _solution(y, achieved, route, with_residual):
    return (y, achieved, route) if with_residual else y


def _solve_direct(lap_free, b):
    """Banded Cholesky on a reverse Cuthill-McKee ordering, or SuperLU when
    the band would hold more than ``BAND_LIMIT`` entries.

    Returns the solution and the route record of :func:`solve_spd`.
    """
    a = sparse.csr_matrix(lap_free)
    n = a.shape[0]
    perm = reverse_cuthill_mckee(a, symmetric_mode=True)
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    rows = np.repeat(rank, np.diff(a.indptr))
    cols = rank[a.indices]
    lower = rows >= cols
    offset = rows[lower] - cols[lower]
    width = int(offset.max(initial=0))
    if (width + 1) * n > BAND_LIMIT:
        return _solve_superlu(lap_free, b), {"route": "superlu"}
    # LAPACK lower band storage: A[i, j] with i >= j sits at band[i - j, j].
    # The band is Fortran-ordered so that dpbtrf factors it in place, and
    # np.add.at sums duplicate entries of an unsummed input.
    band = np.zeros((width + 1, n), order="F")
    np.add.at(band.reshape(-1, order="F"),
              offset + (width + 1) * cols[lower], a.data[lower])
    factor, _ = dpbtrf(band, lower=1, overwrite_ab=1)
    # a failed step k leaves its non-positive pivot at factor[0, k]
    # (info = k + 1); a NaN pivot passes dpbtrf's test, so check them all
    _check_pivots(factor[0])
    x, _ = dpbtrs(factor, b[perm], lower=1, overwrite_b=1)
    y = np.empty_like(b)
    y[perm] = x
    return y, {"route": "band", "band_width": width}


def _solve_superlu(lap_free, b):
    a = sparse.csc_matrix(lap_free)
    try:
        lu = splu(
            a,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    _check_pivots(lu.U.diagonal())
    return lu.solve(b)


def _check_pivots(pivots):
    bad = np.nonzero(~(pivots > 0.0))[0]
    if bad.size:
        k = int(bad[0])
        raise SolverError(
            f"matrix is not positive definite: pivot {k} is {pivots[k]:.3e}",
            pivot=k,
        )


def _solve_pcg(lap_free, b, config):
    """Jacobi-preconditioned conjugate gradients, one column at a time.

    Plain numpy loop with a fixed iteration order, hence bit-reproducible
    for fixed inputs on one platform.
    """
    a = sparse.csr_matrix(lap_free)
    n = a.shape[0]
    diag = a.diagonal()
    bad = np.nonzero(~(diag > 0.0))[0]
    if bad.size:
        k = int(bad[0])
        raise SolverError(
            f"matrix is not positive definite: diagonal entry {k} is "
            f"{diag[k]:.3e}",
            pivot=k,
        )
    inv_diag = 1.0 / diag
    max_iter = config.max_iter if config.max_iter is not None else 10 * n
    y = np.zeros_like(b)
    for col in range(b.shape[1]):
        y[:, col] = _pcg_column(a, b[:, col], inv_diag, config.rel_tol, max_iter)
    return y


def _pcg_column(a, b, inv_diag, rel_tol, max_iter):
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b)
    tol = rel_tol * b_norm
    x = np.zeros_like(b)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for k in range(max_iter):
        r_norm = float(np.linalg.norm(r))
        if r_norm <= tol:
            return x
        ap = a @ p
        p_ap = float(p @ ap)
        if p_ap <= 0.0:
            raise SolverError(
                f"matrix is not positive definite: p'Ap = {p_ap:.3e} at "
                f"iteration {k}",
                pivot=k,
            )
        alpha = rz / p_ap
        x = x + alpha * p
        r = r - alpha * ap
        z = inv_diag * r
        rz_next = float(r @ z)
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p
    r_norm = float(np.linalg.norm(r))
    if r_norm <= tol:
        return x
    raise SolverError(
        f"conjugate gradient did not converge in {max_iter} iterations: "
        f"relative residual {r_norm / b_norm:.3e} > {rel_tol:.3e}",
        achieved=r_norm / b_norm,
    )
