"""Filtered exact geometric predicates and simplex volume helpers.

Each predicate has one filter, written over whole arrays in numpy: it
evaluates a floating-point determinant per row and accepts its sign when the
magnitude clears a forward error bound (Shewchuk, "Adaptive precision
floating-point arithmetic and fast robust geometric predicates", DCG 1997).
Rows inside the uncertainty band go to one integer stage, also one numpy
pass: ``np.frexp`` writes every finite double as a 53-bit integer mantissa
times 2**e, shifting each row's mantissas up to that row's smallest e turns
its coordinates into Python ints times one power of two, and the same
determinant evaluated in those ints has the exact sign (exactness needs no
rational arithmetic). A NaN or infinite coordinate that reaches the stage
raises ValueError. Callers always receive the mathematically exact sign, at
float speed for all but near-degenerate configurations. Meshes are
triangles or tetrahedra (d = 2 or 3), so these two determinants are the
only ones the package evaluates.

Simplices take the filters through :func:`simplex_determinants`: one
gather of the coordinate columns, the edges from vertex 0 as the
predicate's base point, and one filter pass whose determinant is also the
volume (:func:`signed_volumes` is that determinant over d!). A caller that
needs both, as the audit's orientation histogram does, evaluates each
determinant once, and :func:`exact_orientations` settles only the rows it
still needs. The scalar :func:`orient3d` is one simplex of that path. The
crossing count's segment pairs are not simplices of a mesh: they take the
orient2d filter through :func:`orient2d_signs_xy`, of which the scalar
:func:`orient2d` is one row.
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
    caller owns the convention mapping. One row of the audit's path: the
    simplex (d, a, b, c), whose edges from vertex 0 are a - d, b - d and
    c - d, through :func:`simplex_determinants`, and through
    :func:`exact_orientations` when the filter leaves it undecided.
    """
    coords, simplex = np.array([pd, pa, pb, pc], dtype=float), np.arange(4)[None]
    _, sign, undecided = simplex_determinants(coords, simplex)
    if undecided[0]:
        sign = exact_orientations(coords, simplex)
    return int(sign[0])


def _det3(rows):
    return (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )


def orient2d_signs_xy(ax, ay, bx, by, cx, cy):
    """Exact :func:`orient2d` signs for K point triples at once.

    The six arguments are coordinate columns of length K; row k of the int8
    result is ``orient2d(ax[k], ay[k], bx[k], by[k], cx[k], cy[k])``. The
    float determinant det[a - c; b - c] decides a row when it clears the
    error bound; the rows it cannot decide are settled together by the
    integer stage as the triangles (c, a, b).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, out, undecided = _orient2d_filter(ax - cx, ay - cy, bx - cx, by - cy)
    rest = np.flatnonzero(undecided)
    if rest.size:
        cols = np.column_stack([v[rest] for v in (cx, cy, ax, ay, bx, by)])
        out[rest] = _exact_signs(cols.reshape(-1, 3, 2))
    return out


def _orient2d_filter(acx, acy, bcx, bcy):
    """The orient2d filter on the differences a - c and b - c of K rows.

    Returns the float determinant det[a - c; b - c], the int8 signs it
    decides, and the mask of rows it leaves to the integer stage. The
    difference arrays are overwritten.
    """
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
    sign = np.where(det > 0.0, np.int8(1), np.int8(-1))
    sign[zero] = 0
    return det, sign, ~(decided | zero)


def _orient3d_filter(ad, bd, cd):
    """The orient3d filter on the differences a - d, b - d, c - d of K rows.

    Each argument holds the x, y and z columns of one difference. Returns
    the float determinant det[a - d; b - d; c - d], expanded along the z
    column as adz (bdx cdy - cdx bdy) + bdz (cdx ady - adx cdy) +
    cdz (adx bdy - bdx ady) summed in that order, the int8 signs it
    decides, and the mask of rows it leaves to the integer stage.
    """
    adx, ady, adz = ad
    bdx, bdy, bdz = bd
    cdx, cdy, cdz = cd
    # the bound _O3D_BOUND * permanent + 4 _ETA (1 + max |z difference|),
    # the permanent summed term by term into the products' arrays
    det = permanent = height = None
    for z, p, q, r, t in ((adz, bdx, cdy, cdx, bdy), (bdz, cdx, ady, adx, cdy), (cdz, adx, bdy, bdx, ady)):
        left, right = p * q, r * t
        minor = left - right
        minor *= z
        term = np.abs(left, out=left)
        term += np.abs(right, out=right)
        zabs = np.abs(z)
        term *= zabs
        if det is None:
            det, permanent, height = minor, term, zabs
        else:
            det += minor
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
    volume, so one evaluation serves both. d is 2 or 3: for d = 2 vertex 0
    is orient2d's base point c (det[p_1 - p_0; p_2 - p_0]); for d = 3 it is
    orient3d's base point d.
    """
    coords = np.asarray(coords, dtype=float)
    e = _edge_columns(coords, np.asarray(simplices, dtype=np.int64))
    with np.errstate(over="ignore", invalid="ignore"):
        if coords.shape[1] == 2:
            return _orient2d_filter(e[0][0], e[0][1], e[1][0], e[1][1])
        return _orient3d_filter(*e)


def exact_orientations(coords, simplices):
    """Exact signs of det(p_1 - p_0, ..., p_d - p_0), with no float filter.

    The integer stage of :func:`simplex_determinants`, for the rows it
    leaves undecided, d = 2 or 3: :func:`_exact_signs` of
    ``coords[simplices]``. A NaN or infinite coordinate of those simplices
    raises ValueError.
    """
    return _exact_signs(np.asarray(coords, dtype=float)[np.asarray(simplices, dtype=np.int64)])


def _exact_signs(points):
    """The integer stage: exact signs of det(p_1 - p_0, ..., p_d - p_0) of
    an (M, d+1, d) array of points, d = 2 or 3, in one numpy pass.

    ``np.frexp`` writes each double exactly as an int64 53-bit mantissa n
    times 2**e, subnormals and -0.0 included. Shifting each row's nonzero
    mantissas up to that row's smallest e multiplies the row by one power
    of two, which leaves the sign of its homogeneous determinant unchanged;
    the determinant of the shifted Python ints, held in object arrays, is
    exact. Without a finiteness check NaN and inf would become wrong
    mantissas, so they raise ValueError.
    """
    if not np.isfinite(points).all():
        raise ValueError("exact orientation needs finite coordinates (found NaN or inf)")
    mantissa, exponent = np.frexp(points)
    n = (mantissa * 2.0**53).astype(np.int64)
    # 0 stays 0 under any shift: the largest exponent, 1024, keeps a zero out
    # of its row's minimum
    exponent[n == 0] = 1024
    low = exponent.min(axis=(1, 2), keepdims=True)
    shifted = n.astype(object) << (exponent - low).astype(object)
    e = (shifted[:, 1:] - shifted[:, :1]).transpose(1, 2, 0)  # e[i][j]: coordinate j of edge i
    det = e[0][0] * e[1][1] - e[0][1] * e[1][0] if points.shape[2] == 2 else _det3(e)
    return np.sign(det).astype(np.int8)


def signed_volumes(coords, simplices):
    """Signed volumes of d-simplices whose vertices live in R^d, d = 2 or 3.

    Parameters
    ----------
    coords : (N, d) array
    simplices : (M, d+1) int array

    Returns
    -------
    (M,) array of det(edge matrix) / d!, the float determinant of
    :func:`simplex_determinants`.
    """
    coords = np.asarray(coords, dtype=float)
    return simplex_determinants(coords, simplices)[0] / math.factorial(coords.shape[1])


def simplex_volumes(vertices, simplices, intrinsic_dim):
    """Unsigned k-volumes of simplices with vertices in R^l, k in {2, 3},
    l >= k.

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
    # the Gram entries and determinant written out over all simplices at
    # once: per-matrix matmul and LAPACK calls cost several times more
    c = np.ascontiguousarray(edges.transpose(1, 2, 0))  # (k, l, M)
    g = [[np.einsum("lm,lm->m", c[i], c[j]) for j in range(k)] for i in range(k)]
    dets = g[0][0] * g[1][1] - g[0][1] * g[1][0] if k == 2 else _det3(g)
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
