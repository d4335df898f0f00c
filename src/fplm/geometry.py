"""Filtered exact geometric predicates and simplex volume helpers.

Each predicate evaluates a floating-point determinant and accepts its sign
when the magnitude clears a forward error bound. Inputs inside the
uncertainty band are re-evaluated in rational arithmetic, so callers always
receive the mathematically exact sign, at float speed for all but
near-degenerate configurations. The batched forms run the same filter over
whole arrays in numpy and hand only the undecided rows to the scalar
predicate.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Rounding unit 2^-53 and static filter coefficients for the three
# determinant shapes used below (Shewchuk-style bounds).
_EPS = 1.1102230246251565e-16
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_O3D_BOUND = (7.0 + 56.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS


def _sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def orient2d(ax, ay, bx, by, cx, cy):
    """Exact sign of the signed area of triangle (a, b, c).

    Returns +1 when the triangle winds counterclockwise, -1 clockwise and
    0 when the three points are collinear.
    """
    acx, bcy = ax - cx, by - cy
    acy, bcx = ay - cy, bx - cx
    detleft = acx * bcy
    detright = acy * bcx
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if abs(det) > _CCW_BOUND * detsum:
        return 1 if det > 0.0 else -1
    # a float difference is 0 only when its operands are equal, so a product
    # with a zero factor is exactly 0; a product that merely underflowed to 0
    # has nonzero factors and goes on to the exact path
    if (acx == 0.0 or bcy == 0.0) and (acy == 0.0 or bcx == 0.0):
        return 0
    fax, fay = Fraction(ax), Fraction(ay)
    fbx, fby = Fraction(bx), Fraction(by)
    fcx, fcy = Fraction(cx), Fraction(cy)
    return _sign((fax - fcx) * (fby - fcy) - (fay - fcy) * (fbx - fcx))


def orient3d(pa, pb, pc, pd):
    """Exact sign of det[a - d; b - d; c - d] for points in R^3.

    Positive when d sees triangle (a, b, c) in counterclockwise order, i.e.
    the tetrahedron (a, b, c, d) has negative conventional orientation; the
    caller owns the convention mapping.
    """
    adx = pa[0] - pd[0]
    ady = pa[1] - pd[1]
    adz = pa[2] - pd[2]
    bdx = pb[0] - pd[0]
    bdy = pb[1] - pd[1]
    bdz = pb[2] - pd[2]
    cdx = pc[0] - pd[0]
    cdy = pc[1] - pd[1]
    cdz = pc[2] - pd[2]

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    cdxady = cdx * ady
    adxcdy = adx * cdy
    adxbdy = adx * bdy
    bdxady = bdx * ady

    det = adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) + cdz * (adxbdy - bdxady)
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * abs(adz)
        + (abs(cdxady) + abs(adxcdy)) * abs(bdz)
        + (abs(adxbdy) + abs(bdxady)) * abs(cdz)
    )
    if abs(det) > _O3D_BOUND * permanent:
        return 1 if det > 0.0 else -1
    rows = [
        [Fraction(pa[i]) - Fraction(pd[i]) for i in range(3)],
        [Fraction(pb[i]) - Fraction(pd[i]) for i in range(3)],
        [Fraction(pc[i]) - Fraction(pd[i]) for i in range(3)],
    ]
    return _sign(_det3(rows))


def incircle(pa, pb, pc, pd):
    """Exact sign of the incircle determinant.

    Positive when pd lies strictly inside the circumcircle of the
    counterclockwise triangle (pa, pb, pc), negative strictly outside,
    0 when the four points are cocircular.
    """
    adx = pa[0] - pd[0]
    ady = pa[1] - pd[1]
    bdx = pb[0] - pd[0]
    bdy = pb[1] - pd[1]
    cdx = pc[0] - pd[0]
    cdy = pc[1] - pd[1]

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady
    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy
    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady)
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    if abs(det) > _ICC_BOUND * permanent:
        return 1 if det > 0.0 else -1

    fadx = Fraction(pa[0]) - Fraction(pd[0])
    fady = Fraction(pa[1]) - Fraction(pd[1])
    fbdx = Fraction(pb[0]) - Fraction(pd[0])
    fbdy = Fraction(pb[1]) - Fraction(pd[1])
    fcdx = Fraction(pc[0]) - Fraction(pd[0])
    fcdy = Fraction(pc[1]) - Fraction(pd[1])
    rows = [
        [fadx, fady, fadx * fadx + fady * fady],
        [fbdx, fbdy, fbdx * fbdx + fbdy * fbdy],
        [fcdx, fcdy, fcdx * fcdx + fcdy * fcdy],
    ]
    return _sign(_det3(rows))


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

    Matches the sign convention of :func:`signed_volumes`. Dimensions 1..3
    go through the filtered predicates; higher dimensions fall back to
    rational arithmetic directly.
    """
    p = points
    d = len(p) - 1
    if d == 1:
        return _sign(p[1][0] - p[0][0])
    if d == 2:
        # det[b - a; c - a] equals the orient2d determinant det[a - c; b - c]
        return orient2d(p[0][0], p[0][1], p[1][0], p[1][1], p[2][0], p[2][1])
    if d == 3:
        # orient3d(a, b, c, d) is det[a - d; b - d; c - d]; passing
        # (p1, p2, p3, p0) yields det[p1 - p0; p2 - p0; p3 - p0] verbatim.
        return orient3d(p[1], p[2], p[3], p[0])
    rows = [
        [Fraction(p[i + 1][j]) - Fraction(p[0][j]) for j in range(d)]
        for i in range(d)
    ]
    return _sign(_det_fraction(rows))


def orient2d_signs(a, b, c):
    """Exact :func:`orient2d` signs for K point triples at once.

    ``a``, ``b`` and ``c`` are (K, 2) arrays; row k of the int8 result is
    ``orient2d(*a[k], *b[k], *c[k])``. The determinant, its error bound
    and the exact-zero rule are the scalar filter's float operations,
    evaluated in numpy; rows they cannot decide are settled by
    :func:`orient2d` itself.
    """
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    with np.errstate(over="ignore", invalid="ignore"):
        ac = a - c
        bc = b - c
        detleft = ac[:, 0] * bc[:, 1]
        detright = ac[:, 1] * bc[:, 0]
        det = detleft - detright
        detsum = np.abs(detleft) + np.abs(detright)
        decided = np.abs(det) > _CCW_BOUND * detsum
    zero = ((ac[:, 0] == 0.0) | (bc[:, 1] == 0.0)) & (
        (ac[:, 1] == 0.0) | (bc[:, 0] == 0.0)
    )
    out = np.where(det > 0.0, 1, -1).astype(np.int8)
    out[zero] = 0
    for k in np.flatnonzero(~decided & ~zero).tolist():
        out[k] = orient2d(*a[k].tolist(), *b[k].tolist(), *c[k].tolist())
    return out


def orient3d_signs(pa, pb, pc, pd):
    """Exact :func:`orient3d` signs for K point quadruples at once.

    Each argument is a (K, 3) array; row k of the int8 result is
    ``orient3d(pa[k], pb[k], pc[k], pd[k])``, filtered in numpy with the
    scalar bound and settled by :func:`orient3d` where the bound cannot
    decide.
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
        decided = np.abs(det) > _O3D_BOUND * permanent
    out = np.where(det > 0.0, 1, -1).astype(np.int8)
    for k in np.flatnonzero(~decided).tolist():
        out[k] = orient3d(pa[k].tolist(), pb[k].tolist(), pc[k].tolist(), pd[k].tolist())
    return out


def simplex_orientations(points):
    """Exact :func:`simplex_orientation` signs for M simplices at once.

    ``points`` is an (M, d+1, d) array of simplex vertex coordinates. The
    result is an int8 array of signs; d = 2 and 3 go through the batched
    filters, d = 1 compares coordinates directly, and higher dimensions
    evaluate each simplex with :func:`simplex_orientation`.
    """
    p = np.asarray(points, dtype=float)
    d = p.shape[2]
    if d == 1:
        return np.sign(p[:, 1, 0] - p[:, 0, 0]).astype(np.int8)
    if d == 2:
        return orient2d_signs(p[:, 0], p[:, 1], p[:, 2])
    if d == 3:
        return orient3d_signs(p[:, 1], p[:, 2], p[:, 3], p[:, 0])
    return np.array([simplex_orientation(q) for q in p], dtype=np.int8)


def signed_volumes(coords, simplices):
    """Signed volumes of d-simplices whose vertices live in R^d.

    Parameters
    ----------
    coords : (N, d) array
    simplices : (M, d+1) int array

    Returns
    -------
    (M,) array of det(edge matrix) / d!, float evaluation.
    """
    coords = np.asarray(coords, dtype=float)
    simplices = np.asarray(simplices, dtype=np.int64)
    d = coords.shape[1]
    edges = coords[simplices[:, 1:]] - coords[simplices[:, :1]]
    if d == 1:
        dets = edges[:, 0, 0]
    else:
        dets = np.linalg.det(edges)
    return dets / math.factorial(d)


def simplex_volumes(vertices, simplices, intrinsic_dim):
    """Unsigned k-volumes via Gram determinants, for vertices in R^l, l >= k.

    Zero is returned for degenerate simplices; tiny negative Gram
    determinants from roundoff are clamped.
    """
    v = np.asarray(vertices, dtype=float)
    s = np.asarray(simplices, dtype=np.int64)
    k = intrinsic_dim
    edges = v[s[:, 1:]] - v[s[:, :1]]           # (M, k, l)
    gram = edges @ np.transpose(edges, (0, 2, 1))
    dets = np.linalg.det(gram)
    dets = np.where(dets > 0.0, dets, 0.0)
    return np.sqrt(dets) / math.factorial(k)


def bbox_diameter(points):
    """Diagonal length of the axis-aligned bounding box of a point set."""
    p = np.asarray(points, dtype=float)
    if p.size == 0:
        return 0.0
    span = p.max(axis=0) - p.min(axis=0)
    return float(np.linalg.norm(span))
