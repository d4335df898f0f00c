"""Filtered exact geometric predicates and simplex volume helpers.

Each predicate has one filter, written over whole arrays in numpy
(:func:`orient2d_signs_xy`, :func:`orient3d_signs`): it evaluates a
floating-point determinant per row and accepts its sign when the magnitude
clears a forward error bound (Shewchuk, "Adaptive precision floating-point
arithmetic and fast robust geometric predicates", DCG 1997). Rows inside the
uncertainty band go to an integer stage in one pass: every finite double is
n / 2**k exactly, so scaling a row's coordinates by its largest 2**k turns
them into Python ints, and the same determinant evaluated in ints has the
exact sign (exactness needs no rational arithmetic). Callers always receive
the mathematically exact sign, at float speed for all but near-degenerate
configurations. The scalar forms :func:`orient2d`, :func:`orient3d` and
:func:`simplex_orientation` are one-row calls of the batched filters. Only
the d >= 4 simplex orientation uses ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Rounding unit 2^-53 and static filter coefficients for the two
# determinant shapes used below (Shewchuk-style bounds).
_EPS = 1.1102230246251565e-16
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_O3D_BOUND = (7.0 + 56.0 * _EPS) * _EPS
# Those bounds assume no underflow. A product that underflows is off by up
# to half the smallest subnormal _ETA, not by a relative _EPS, and a later
# factor scales that error; each filter adds an absolute term for it (for
# orient3d: 4 _ETA (1 + max |z difference|)).
_ETA = 2.0**-1074


def _sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def orient2d(ax, ay, bx, by, cx, cy):
    """Exact sign of the signed area of triangle (a, b, c).

    Returns +1 when the triangle winds counterclockwise, -1 clockwise and
    0 when the three points are collinear. One row of
    :func:`orient2d_signs_xy`.
    """
    cols = (np.array([v], dtype=float) for v in (ax, ay, bx, by, cx, cy))
    return int(orient2d_signs_xy(*cols)[0])


def orient3d(pa, pb, pc, pd):
    """Exact sign of det[a - d; b - d; c - d] for points in R^3.

    Positive when d sees triangle (a, b, c) in counterclockwise order, i.e.
    the tetrahedron (a, b, c, d) has negative conventional orientation; the
    caller owns the convention mapping. One row of :func:`orient3d_signs`.
    """
    return int(orient3d_signs(*(np.array([p], dtype=float) for p in (pa, pb, pc, pd)))[0])


def _scaled(values):
    """The coordinates ``values`` as Python ints, all times one power of two.

    Each float is n / 2**k exactly (``float.as_integer_ratio``); shifting
    every n up to the row's largest k multiplies the whole row by that 2**k,
    which leaves the sign of any homogeneous determinant of it unchanged.
    Exact for every finite double, subnormals and -0.0 included.
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    k = max(d for _, d in ratios).bit_length()
    return [n << (k - d.bit_length()) for n, d in ratios]


def _orient2d_exact(rows):
    """Exact :func:`orient2d` signs of rows (ax, ay, bx, by, cx, cy), in ints."""
    signs = []
    for row in rows:
        ax, ay, bx, by, cx, cy = _scaled(row)
        signs.append(_sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx)))
    return signs


def _orient3d_exact(rows):
    """Exact :func:`orient3d` signs of rows (pa, pb, pc, pd) of 12 coordinates."""
    signs = []
    for row in rows:
        v = _scaled(row)
        signs.append(_sign(_det3([[v[r + i] - v[9 + i] for i in range(3)] for r in (0, 3, 6)])))
    return signs


def _det3(rows):
    return (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )


def _det_fraction(rows):
    """Determinant of a small square Fraction matrix, cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        return _det3(rows)
    total = Fraction(0)
    sign = 1
    for k in range(n):
        if rows[0][k] != 0:
            minor = [[rows[i][j] for j in range(n) if j != k] for i in range(1, n)]
            total += sign * rows[0][k] * _det_fraction(minor)
        sign = -sign
    return total


def simplex_orientation(points):
    """Exact sign of det(p_1 - p_0, ..., p_d - p_0) for d+1 points in R^d.

    Matches the sign convention of :func:`signed_volumes`. One simplex of
    :func:`simplex_orientations`.
    """
    return int(simplex_orientations(np.asarray(points, dtype=float)[None])[0])


def orient2d_signs(a, b, c):
    """Exact :func:`orient2d` signs for K point triples at once.

    ``a``, ``b`` and ``c`` are (K, 2) arrays; row k of the int8 result is
    ``orient2d(*a[k], *b[k], *c[k])``.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    return orient2d_signs_xy(a[:, 0], a[:, 1], b[:, 0], b[:, 1], c[:, 0], c[:, 1])


def orient2d_signs_xy(ax, ay, bx, by, cx, cy):
    """:func:`orient2d_signs` on six coordinate columns of length K.

    The float determinant det[a - c; b - c] decides a row when it clears the
    error bound; the rows it cannot decide are settled together by the
    integer stage.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        acx, acy = ax - cx, ay - cy
        bcx, bcy = bx - cx, by - cy
        # a float difference is 0 only when its operands are equal, so a
        # product with a zero factor is exactly 0; a product that merely
        # underflowed to 0 has nonzero factors and goes on to the exact stage
        zero = ((acx == 0.0) | (bcy == 0.0)) & ((acy == 0.0) | (bcx == 0.0))
        # the products and the error bound overwrite the differences, which
        # keeps the temporaries of a large batch few
        detleft = np.multiply(acx, bcy, out=acx)
        detright = np.multiply(acy, bcx, out=acy)
        det = detleft - detright
        bound = np.abs(detleft, out=detleft)
        bound += np.abs(detright, out=detright)
        bound *= _CCW_BOUND
        bound += 2.0 * _ETA
        decided = np.abs(det, out=bcx) > bound
    out = np.where(det > 0.0, np.int8(1), np.int8(-1))
    out[zero] = 0
    rest = np.flatnonzero(~decided & ~zero)
    if rest.size:
        cols = np.column_stack([v[rest] for v in (ax, ay, bx, by, cx, cy)])
        out[rest] = _orient2d_exact(cols.tolist())
    return out


def orient3d_signs(pa, pb, pc, pd):
    """Exact :func:`orient3d` signs for K point quadruples at once.

    Each argument is a (K, 3) array; row k of the int8 result is
    ``orient3d(pa[k], pb[k], pc[k], pd[k])``. The float determinant decides
    a row when it clears the error bound; the rows it cannot decide are
    settled together by the integer stage.
    """
    pa, pb, pc, pd = (np.asarray(v, dtype=float) for v in (pa, pb, pc, pd))
    with np.errstate(over="ignore", invalid="ignore"):
        adx, ady, adz = (pa - pd).T
        bdx, bdy, bdz = (pb - pd).T
        cdx, cdy, cdz = (pc - pd).T

        bdxcdy = bdx * cdy
        cdxbdy = cdx * bdy
        cdxady = cdx * ady
        adxcdy = adx * cdy
        adxbdy = adx * bdy
        bdxady = bdx * ady

        det = (
            adz * (bdxcdy - cdxbdy)
            + bdz * (cdxady - adxcdy)
            + cdz * (adxbdy - bdxady)
        )
        permanent = (
            (np.abs(bdxcdy) + np.abs(cdxbdy)) * np.abs(adz)
            + (np.abs(cdxady) + np.abs(adxcdy)) * np.abs(bdz)
            + (np.abs(adxbdy) + np.abs(bdxady)) * np.abs(cdz)
        )
        underflow = 4.0 * _ETA * (1.0 + np.maximum(np.maximum(abs(adz), abs(bdz)), abs(cdz)))
        decided = np.abs(det) > _O3D_BOUND * permanent + underflow
    out = np.where(det > 0.0, 1, -1).astype(np.int8)
    rest = np.flatnonzero(~decided)
    if rest.size:
        out[rest] = _orient3d_exact(np.hstack([pa[rest], pb[rest], pc[rest], pd[rest]]).tolist())
    return out


def simplex_orientations(points):
    """Exact :func:`simplex_orientation` signs for M simplices at once.

    ``points`` is an (M, d+1, d) array of simplex vertex coordinates. The
    result is an int8 array of signs; d = 2 and 3 go through the batched
    filters, d = 1 compares coordinates directly, and higher dimensions
    evaluate each determinant in ``Fraction`` arithmetic.
    """
    p = np.asarray(points, dtype=float)
    d = p.shape[2]
    if d == 1:
        return np.sign(p[:, 1, 0] - p[:, 0, 0]).astype(np.int8)
    if d == 2:
        # det[b - a; c - a] equals the orient2d determinant det[a - c; b - c]
        return orient2d_signs(p[:, 0], p[:, 1], p[:, 2])
    if d == 3:
        # orient3d(a, b, c, d) is det[a - d; b - d; c - d]; passing
        # (p1, p2, p3, p0) yields det[p1 - p0; p2 - p0; p3 - p0] verbatim.
        return orient3d_signs(p[:, 1], p[:, 2], p[:, 3], p[:, 0])
    signs = []
    for q in p:
        rows = [
            [Fraction(q[i + 1][j]) - Fraction(q[0][j]) for j in range(d)]
            for i in range(d)
        ]
        signs.append(_sign(_det_fraction(rows)))
    return np.array(signs, dtype=np.int8)


def signed_volumes(coords, simplices):
    """Signed volumes of d-simplices whose vertices live in R^d.

    Parameters
    ----------
    coords : (N, d) array
    simplices : (M, d+1) int array

    Returns
    -------
    (M,) array of det(edge matrix) / d!, float evaluation. For d <= 3 the
    determinant is written out over all simplices at once, as in
    :func:`simplex_volumes`; higher dimensions call LAPACK per matrix.
    """
    coords = np.asarray(coords, dtype=float)
    simplices = np.asarray(simplices, dtype=np.int64)
    d = coords.shape[1]
    if d > 3:
        dets = np.linalg.det(coords[simplices[:, 1:]] - coords[simplices[:, :1]])
    else:
        # e[i][j] is coordinate j of edge i of every simplex, one row each
        ct, st = coords.T, simplices.T
        base = np.take(ct, st[0], axis=1)
        e = [np.take(ct, st[i], axis=1) - base for i in range(1, d + 1)]
        if d == 1:
            dets = e[0][0]
        elif d == 2:
            dets = e[0][0] * e[1][1] - e[0][1] * e[1][0]
        else:
            dets = _det3(e)
    return dets / math.factorial(d)


def simplex_volumes(vertices, simplices, intrinsic_dim):
    """Unsigned k-volumes of simplices with vertices in R^l, l >= k.

    Full-dimensional simplices (k = l) get |det E| / k! from
    :func:`signed_volumes`, E the edge matrix: the Gram determinant equals
    det(E)^2 there and would square its conditioning. Otherwise the volume
    is sqrt(det(E E^T)) / k!, and tiny negative Gram determinants from
    roundoff are clamped. Zero is returned for degenerate simplices.
    """
    v = np.asarray(vertices, dtype=float)
    s = np.asarray(simplices, dtype=np.int64)
    k = intrinsic_dim
    if k == v.shape[1]:
        return np.abs(signed_volumes(v, s))
    edges = v[s[:, 1:]] - v[s[:, :1]]           # (M, k, l)
    if k > 3:
        dets = np.linalg.det(edges @ np.transpose(edges, (0, 2, 1)))
    else:
        # the Gram entries and determinant written out over all simplices at
        # once: per-matrix matmul and LAPACK calls cost several times more
        c = np.ascontiguousarray(edges.transpose(1, 2, 0))  # (k, l, M)
        g = [[np.einsum("lm,lm->m", c[i], c[j]) for j in range(k)] for i in range(k)]
        if k == 1:
            dets = g[0][0]
        elif k == 2:
            dets = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        else:
            dets = _det3(g)
    dets = np.where(dets > 0.0, dets, 0.0)
    return np.sqrt(dets) / math.factorial(k)


def bbox_diameter(points):
    """Diagonal length of the axis-aligned bounding box of a point set."""
    p = np.asarray(points, dtype=float)
    if p.size == 0:
        return 0.0
    span = p.max(axis=0) - p.min(axis=0)
    return float(np.linalg.norm(span))
