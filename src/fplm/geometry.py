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
configurations. The scalar forms :func:`orient2d` and :func:`orient3d` are
one-row calls of the batched filters. Other dimensions take the integer
stage only, the determinant's sign found by Bareiss's fraction-free
elimination (Math. Comp. 1968) on the same scaled ints.

Simplices take the filters through :func:`simplex_determinants`: one
gather of the coordinate columns, the edges from vertex 0 as the
predicate's base point, and one filter pass whose determinant is also the
volume (:func:`signed_volumes` is the same expression over d!, without the
error bound). A caller that needs both, as the audit's orientation
histogram does, evaluates each determinant once, and
:func:`exact_orientations` settles only the rows it still needs.
"""

from __future__ import annotations

import math
from fractions import Fraction  # unused; perfbench's tracer patches it by name

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


def _bareiss_sign(v, n):
    """Exact sign of det(p_1 - p_0, ..., p_n - p_0) of one :func:`_scaled`
    row (p_1, ..., p_n, p_0), by Bareiss's fraction-free elimination.

    After step k every entry below and right of the pivot is a (k+1)-minor
    of the edge matrix, so each division by the previous pivot is exact and
    the last entry is the determinant. A zero pivot swaps in a lower row
    with a nonzero entry in its column, flipping the sign; a column with
    none makes the determinant 0.
    """
    a = [[v[i * n + j] - v[n * n + j] for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row = a[k][k], a[k]
        for below in a[k + 1 :]:
            lead = below[k]
            for j in range(k + 1, n):
                below[j] = (below[j] * pivot - lead * row[j]) // prev
        prev = pivot
    return sign * _sign(a[-1][-1])


def orient2d_signs_xy(ax, ay, bx, by, cx, cy):
    """Exact :func:`orient2d` signs for K point triples at once.

    The six arguments are coordinate columns of length K; row k of the int8
    result is ``orient2d(ax[k], ay[k], bx[k], by[k], cx[k], cy[k])``. The
    float determinant det[a - c; b - c] decides a row when it clears the
    error bound; the rows it cannot decide are settled together by the
    integer stage.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, out, undecided = _orient2d_filter(ax - cx, ay - cy, bx - cx, by - cy)
    rest = np.flatnonzero(undecided)
    if rest.size:
        cols = np.column_stack([v[rest] for v in (ax, ay, bx, by, cx, cy)])
        out[rest] = _orient2d_exact(cols.tolist())
    return out


def _orient2d_det(acx, acy, bcx, bcy):
    """det[a - c; b - c] of K rows from the differences a - c and b - c,
    with its two products, which overwrite ``acx`` and ``acy``."""
    detleft = np.multiply(acx, bcy, out=acx)
    detright = np.multiply(acy, bcx, out=acy)
    return detleft - detright, detleft, detright


def _orient2d_filter(acx, acy, bcx, bcy):
    """The orient2d filter on the differences a - c and b - c of K rows.

    Returns the float determinant of :func:`_orient2d_det`, the int8 signs
    it decides, and the mask of rows it leaves to the integer stage. The
    difference arrays are overwritten.
    """
    # a float difference is 0 only when its operands are equal, so a
    # product with a zero factor is exactly 0; a product that merely
    # underflowed to 0 has nonzero factors and goes on to the exact stage
    zero = ((acx == 0.0) | (bcy == 0.0)) & ((acy == 0.0) | (bcx == 0.0))
    # the products and the error bound overwrite the differences, which
    # keeps the temporaries of a large batch few
    det, detleft, detright = _orient2d_det(acx, acy, bcx, bcy)
    bound = np.abs(detleft, out=detleft)
    bound += np.abs(detright, out=detright)
    bound *= _CCW_BOUND
    bound += 2.0 * _ETA
    decided = np.abs(det, out=bcx) > bound
    sign = np.where(det > 0.0, np.int8(1), np.int8(-1))
    sign[zero] = 0
    return det, sign, ~(decided | zero)


def orient3d_signs(pa, pb, pc, pd):
    """Exact :func:`orient3d` signs for K point quadruples at once.

    Each argument is a (K, 3) array; row k of the int8 result is
    ``orient3d(pa[k], pb[k], pc[k], pd[k])``. The float determinant decides
    a row when it clears the error bound; the rows it cannot decide are
    settled together by the integer stage.
    """
    pa, pb, pc, pd = (np.asarray(v, dtype=float) for v in (pa, pb, pc, pd))
    with np.errstate(over="ignore", invalid="ignore"):
        _, out, undecided = _orient3d_filter((pa - pd).T, (pb - pd).T, (pc - pd).T)
    rest = np.flatnonzero(undecided)
    if rest.size:
        out[rest] = _orient3d_exact(np.hstack([pa[rest], pb[rest], pc[rest], pd[rest]]).tolist())
    return out


def _orient3d_det(ad, bd, cd):
    """det[a - d; b - d; c - d] of K rows, expanded along the z column.

    Each argument holds the x, y and z columns of one difference. Returns
    the determinant, adz (bdx cdy - cdx bdy) + bdz (cdx ady - adx cdy) +
    cdz (adx bdy - bdx ady) summed in that order, and for each term its z
    column and the two products of its minor, in arrays the caller owns.
    """
    adx, ady, adz = ad
    bdx, bdy, bdz = bd
    cdx, cdy, cdz = cd
    det, terms = None, []
    for z, p, q, r, t in ((adz, bdx, cdy, cdx, bdy), (bdz, cdx, ady, adx, cdy), (cdz, adx, bdy, bdx, ady)):
        left, right = p * q, r * t
        minor = left - right
        minor *= z
        if det is None:
            det = minor
        else:
            det += minor
        terms.append((z, left, right))
    return det, terms


def _orient3d_filter(ad, bd, cd):
    """The orient3d filter on the differences a - d, b - d, c - d of K rows.

    Returns the float determinant of :func:`_orient3d_det`, the int8 signs
    it decides, and the mask of rows it leaves to the integer stage.
    """
    det, terms = _orient3d_det(ad, bd, cd)
    # the bound _O3D_BOUND * permanent + 4 _ETA (1 + max |z difference|),
    # the permanent summed term by term into the products' arrays
    permanent = height = None
    for z, left, right in terms:
        term = np.abs(left, out=left)
        term += np.abs(right, out=right)
        zabs = np.abs(z)
        term *= zabs
        if permanent is None:
            permanent, height = term, zabs
        else:
            permanent += term
            np.maximum(height, zabs, out=height)
    permanent *= _O3D_BOUND
    height += 1.0
    height *= 4.0 * _ETA
    permanent += height
    decided = np.abs(det) > permanent
    sign = np.where(det > 0.0, np.int8(1), np.int8(-1))
    return det, sign, ~decided


def _edge_columns(coords, simplices):
    """The coordinate columns gathered once: e[i][j] is coordinate j of
    edge i (p_{i+1} - p_0) of every simplex, one row each."""
    ct, st = coords.T, simplices.T
    base = np.take(ct, st[0], axis=1)
    # a difference past the largest double is inf, which no filter decides
    with np.errstate(over="ignore", invalid="ignore"):
        return [np.take(ct, st[i], axis=1) - base for i in range(1, st.shape[0])]


def simplex_determinants(coords, simplices):
    """det(p_1 - p_0, ..., p_d - p_0) of every simplex, with its filtered sign.

    Parameters
    ----------
    coords : (N, d) array
    simplices : (M, d+1) int array

    Returns
    -------
    det : (M,) float array
        The float determinant of each simplex's edge matrix.
    sign : (M,) int8 array
        Its exact sign wherever the filter decides it.
    undecided : (M,) bool array
        The rows whose sign :func:`exact_orientations` must settle.

    One pass: the coordinate columns are gathered once and the edges from
    vertex 0 feed the predicate's filter, whose determinant is also the
    volume, so one evaluation serves both. For d = 2 vertex 0 is orient2d's
    base point c (det[p_1 - p_0; p_2 - p_0]); for d = 3 it is orient3d's
    base point d. d = 1 signs are those of the float difference, always
    exact. For d >= 4 the determinant comes from LAPACK and every row is
    left undecided.
    """
    coords = np.asarray(coords, dtype=float)
    simplices = np.asarray(simplices, dtype=np.int64)
    m, d = simplices.shape[0], coords.shape[1]
    if d > 3:
        # LAPACK's LU may overflow or divide by a subnormal pivot: such rows
        # are undecided like all others here, so the signs stay exact
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            det = np.linalg.det(coords[simplices[:, 1:]] - coords[simplices[:, :1]])
        return det, np.zeros(m, dtype=np.int8), np.ones(m, dtype=bool)
    e = _edge_columns(coords, simplices)
    if d == 1:
        det = e[0][0]
        return det, np.sign(det).astype(np.int8), np.zeros(m, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        if d == 2:
            return _orient2d_filter(e[0][0], e[0][1], e[1][0], e[1][1])
        return _orient3d_filter(*e)


def exact_orientations(coords, simplices):
    """Exact signs of det(p_1 - p_0, ..., p_d - p_0), with no float filter.

    The integer stage of :func:`simplex_determinants`, for the rows it
    leaves undecided. Each row's coordinates become Python ints by
    :func:`_scaled`; d = 2 and 3 evaluate the orient2d and orient3d
    determinants, other dimensions take the sign by Bareiss elimination
    (:func:`_bareiss_sign`), so no dimension uses rational arithmetic.
    """
    p = np.asarray(coords, dtype=float)[np.asarray(simplices, dtype=np.int64)]
    m, d = p.shape[0], p.shape[2]
    # rows (p_1, ..., p_d, p_0): the predicate's base point last
    rows = np.roll(p, -1, axis=1).reshape(m, (d + 1) * d).tolist()
    if d in (2, 3):
        return np.array((_orient2d_exact if d == 2 else _orient3d_exact)(rows), dtype=np.int8)
    return np.array([_bareiss_sign(_scaled(row), d) for row in rows], dtype=np.int8)


def signed_volumes(coords, simplices):
    """Signed volumes of d-simplices whose vertices live in R^d.

    Parameters
    ----------
    coords : (N, d) array
    simplices : (M, d+1) int array

    Returns
    -------
    (M,) array of det(edge matrix) / d!, float evaluation. For d <= 3 the
    determinant is the one the orientation filters of
    :func:`simplex_determinants` test, written out over all simplices at
    once, without their error bounds; higher dimensions call LAPACK per
    matrix.
    """
    coords = np.asarray(coords, dtype=float)
    simplices = np.asarray(simplices, dtype=np.int64)
    d = coords.shape[1]
    # coordinates near the largest double, or subnormal LU pivots for d > 3,
    # give inf or nan volumes, not warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if d > 3:
            dets = np.linalg.det(coords[simplices[:, 1:]] - coords[simplices[:, :1]])
        else:
            e = _edge_columns(coords, simplices)
            if d == 1:
                dets = e[0][0]
            elif d == 2:
                dets = _orient2d_det(e[0][0], e[0][1], e[1][0], e[1][1])[0]
            else:
                dets = _orient3d_det(*e)[0]
    return dets / math.factorial(d)


def simplex_volumes(vertices, simplices, intrinsic_dim):
    """Unsigned k-volumes of simplices with vertices in R^l, l >= k.

    Full-dimensional simplices (k = l) get |det E| / k! from
    :func:`signed_volumes`, E the edge matrix: the Gram determinant equals
    det(E)^2 there and would square its conditioning. Otherwise the volume
    is sqrt(det(E E^T)) / k!, and tiny negative Gram determinants from
    roundoff are clamped. Zero is returned for degenerate simplices. The
    edges are first scaled by the power of two nearest 1 / max |edge|, and
    the volumes back by its k-th power: both steps are exact, and the Gram
    products of very large or very small edges neither overflow nor
    underflow.
    """
    v = np.asarray(vertices, dtype=float)
    s = np.asarray(simplices, dtype=np.int64)
    k = intrinsic_dim
    if k == v.shape[1]:
        return np.abs(signed_volumes(v, s))
    edges = v[s[:, 1:]] - v[s[:, :1]]           # (M, k, l)
    shift = -int(np.frexp(np.max(np.abs(edges), initial=0.0))[1])
    edges = np.ldexp(edges, shift)
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
    return np.ldexp(np.sqrt(dets) / math.factorial(k), -k * shift)


def bbox_diameter(points):
    """Diagonal length of the axis-aligned bounding box of a point set."""
    p = np.asarray(points, dtype=float)
    if p.size == 0:
        return 0.0
    # each coordinate reduced along one contiguous row: numpy reduces the
    # short rows of an (N, d) array across axis 0 many times slower
    pt = np.ascontiguousarray(p.T)
    # past the largest double the diameter is inf, which callers refuse
    with np.errstate(over="ignore"):
        span = pt.max(axis=-1) - pt.min(axis=-1)
        return float(np.linalg.norm(span))
