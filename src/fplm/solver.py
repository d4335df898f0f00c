"""Deterministic SPD solver for the free-block Laplacian system.

Two routes solve L_y Y = B, and the matrix picks one. The ``band`` route
orders the unknowns by reverse Cuthill-McKee and factors the lower band of
the reordered matrix, (w + 1) * n entries of 8 bytes for band width w, with
LAPACK's banded Cholesky (``dpbtrf``/``dpbtrs``). It runs while the band
holds at most ``BAND_LIMIT`` entries. Past that, where the band's n * w^2
factorisation cost (large tetrahedral meshes, whose band grows like
n^(2/3)) loses, the ``pcg`` route runs: this module's Jacobi-preconditioned
conjugate-gradient loop, one right-hand-side column at a time. Both routes
are deterministic for fixed inputs on one platform, and one gate, the
Frobenius-norm residual, accepts every solution. PCG and the gate sum by
numpy's own loop, not BLAS, so PCG's bytes and every residual are the same
at any BLAS thread count; the band's bytes may change with it.

The band names the first non-positive pivot of an indefinite matrix. PCG
checks only the diagonal: past it, the residual gate decides
(``[[1, 2], [2, 1]]`` solves exactly; ``[[1, 1], [1, 1]]`` with b = (1, 0)
breaks down at step 2 and fails with the residual 1.0 of step 1's iterate).
fplm's free blocks are positive definite by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

# Most lower-band entries, (band width + 1) * n, that the band route factors
# by banded Cholesky (80 MB of float64). Past it PCG wins on tetrahedral
# meshes: ball3(20) round 1 (12.8M entries) solves in 89 ms by PCG against
# 480 ms on the band, one BLAS thread. The benchmark inputs stay far below
# it (at most 0.45M).
BAND_LIMIT = 10_000_000


class SolverError(RuntimeError):
    """Factorization failure or iteration that did not reach tolerance."""

    def __init__(self, message: str, *, achieved: float | None = None,
                 pivot: int | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.pivot = pivot


@dataclass(frozen=True)
class SolveConfig:
    """Solver control: rel_tol bounds ||L_y Y - B||_F <= rel_tol * ||B||_F.

    The route is not a setting; the matrix picks it (see the module
    docstring). PCG stops after at most 10 * n_free iterations per column.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")


def solve_spd(lap_free: sparse.spmatrix, rhs: np.ndarray,
              config: SolveConfig | None = None):
    """Solve the SPD system L_y Y = rhs for all right-hand-side columns.

    Parameters
    ----------
    lap_free : (n, n) sparse matrix
        Free-block Laplacian, symmetric positive definite.
    rhs : (n, k) array
        Any other number of dimensions, and a NaN or inf entry, raise
        ValueError before any factorisation or iteration.
    config : SolveConfig, optional

    Returns
    -------
    ``(Y, residual, route)``: the (n, k) solution Y, with
    ||L_y Y - rhs||_F <= rel_tol * ||rhs||_F; the relative residual
    ||L_y Y - rhs||_F / ||rhs||_F that the tolerance gate measured (0.0 for
    a zero or empty right-hand side); and a dict naming the route that
    solved the system, ``{"route": "band", "band_width": w}`` or
    ``{"route": "pcg", "iterations": k}`` (k the largest iteration count
    over the columns), or ``{"route": "none"}`` when there was nothing to
    solve.
    """
    if config is None:
        config = SolveConfig()
    b = np.asarray(rhs, dtype=float)
    n = lap_free.shape[0]
    if lap_free.shape[0] != lap_free.shape[1]:
        raise ValueError("lap_free must be square")
    if b.ndim != 2:
        raise ValueError(f"rhs must be an (n, k) array, got shape {b.shape}")
    if b.shape[0] != n:
        raise ValueError(
            f"rhs has {b.shape[0]} rows but the system has {n} unknowns"
        )
    if not np.isfinite(b).all():
        row, col = np.argwhere(~np.isfinite(b))[0]
        raise ValueError(
            f"rhs entry ({row}, {col}) is {b[row, col]}; the right-hand side "
            "must be finite"
        )
    achieved = 0.0
    if n == 0 or not b.any():
        y, route = np.zeros_like(b), {"route": "none"}
    else:
        # a CSR block is taken as it is; any other format is converted once
        a = lap_free.tocsr()
        y, route = _solve_band(a, b) or _solve_pcg(a, b, config)
        # both norms on b / max|b|, max|b| rounded to a power of two so the
        # scaling is exact: the sum of squares of a b whose entries are all
        # below ~1e-154 would underflow
        k = -np.frexp(np.abs(b).max())[1]
        r, bk = np.ldexp(lap_free @ y - b, k), np.ldexp(b, k)
        achieved = float(np.sqrt(_dot(r, r) / _dot(bk, bk)))
        # written so that a NaN residual fails the gate too
        if not achieved <= config.rel_tol:
            raise SolverError(
                f"{route['route']} solve missed tolerance: relative residual "
                f"{achieved:.3e} > {config.rel_tol:.3e}",
                achieved=achieved,
            )
    return y, achieved, route


def _solve_band(a, b):
    """Banded Cholesky on a reverse Cuthill-McKee ordering of the CSR
    matrix ``a``, which may hold unsummed duplicates.

    Returns the solution and the route record of :func:`solve_spd`, or
    None when the band would hold more than ``BAND_LIMIT`` entries.
    """
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
        return None
    # LAPACK lower band storage: A[i, j] with i >= j sits at band[i - j, j].
    # The band is Fortran-ordered so that dpbtrf factors it in place, and
    # np.add.at sums duplicate entries of an unsummed input.
    band = np.zeros((width + 1, n), order="F")
    np.add.at(band.reshape(-1, order="F"),
              offset + (width + 1) * cols[lower], a.data[lower])
    factor, _ = dpbtrf(band, lower=1, overwrite_ab=1)
    # a failed step k leaves its non-positive pivot at factor[0, k]
    # (info = k + 1); a NaN pivot passes dpbtrf's test, so check them all
    bad = np.nonzero(~(factor[0] > 0.0))[0]
    if bad.size:
        k = int(bad[0])
        raise SolverError(
            f"matrix is not positive definite: pivot {k} is {factor[0, k]:.3e}",
            pivot=k,
        )
    x, _ = dpbtrs(factor, b[perm], lower=1, overwrite_b=1)
    y = np.empty_like(b)
    y[perm] = x
    return y, {"route": "band", "band_width": width}


def _solve_pcg(a, b, config):
    """Jacobi-preconditioned conjugate gradients (Hestenes and Stiefel,
    1952) on the CSR matrix ``a``, one column at a time. A column stops
    once ||r|| <= rel_tol * ||b||, after 10 * n steps, or before a step
    whose p'Ap or alpha is not finite (a breakdown, or iterating on past
    rounding), keeping its last iterate. Returns the solution and the
    route record of :func:`solve_spd`.
    """
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
    y, iterations = np.zeros_like(b), 0  # a zero column keeps +0.0
    for col in np.flatnonzero(b.any(axis=0)):
        # the column scaled by a power of two near 1/max|b|: the iterates
        # scale exactly, and the norm of b cannot underflow
        k = -np.frexp(np.abs(b[:, col]).max())[1]
        r = np.ldexp(b[:, col], k)
        tol = config.rel_tol * np.sqrt(_dot(r, r))
        x, p, steps = np.zeros(n), np.zeros(n), 0
        with np.errstate(all="ignore"):
            while steps < 10 * n and np.sqrt(_dot(r, r)) > tol:
                z = inv_diag * r
                rho = _dot(r, z)
                p *= rho / rho_prev if steps else 0.0
                p += z
                q = a @ p
                pq = _dot(p, q)
                alpha = rho / pq
                # p'Ap is not finite if p is not (the diagonal is positive),
                # and on SPD input ||x||_D grows only up to the solution's
                if not (math.isfinite(pq) and math.isfinite(alpha)):
                    break
                x += alpha * p
                r -= alpha * q
                rho_prev, steps = rho, steps + 1
        y[:, col] = np.ldexp(x, -k)
        iterations = max(iterations, steps)
    return y, {"route": "pcg", "iterations": iterations}


def _dot(u, v):
    """sum(u * v) by einsum's own loop, not BLAS: the same at any thread count."""
    return np.einsum("i,i->", u.ravel(), v.ravel())
