"""Rational orientation signs: the oracle for every sign the package computes.

``Fraction`` holds every finite double exactly, so these determinants have
the exact sign on any input, with no filter and no integer scaling. They
share no code with :mod:`fplm.geometry`, whose filtered predicates and
integer stage the tests check against them.
"""

from fractions import Fraction


def _sign(x):
    return (x > 0) - (x < 0)


def det_rational(rows):
    """Determinant of a square Fraction matrix by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for c, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        total += (-1) ** c * head * det_rational(minor)
    return total


def orient2d_rational(ax, ay, bx, by, cx, cy):
    """Sign of the signed area of triangle (a, b, c): +1 counterclockwise."""
    ax, ay, bx, by, cx, cy = (Fraction(v) for v in (ax, ay, bx, by, cx, cy))
    return _sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def orient3d_rational(pa, pb, pc, pd):
    """Sign of det[a - d; b - d; c - d] for points in R^3."""
    d = [Fraction(x) for x in pd]
    return _sign(det_rational([[Fraction(x) - y for x, y in zip(p, d)] for p in (pa, pb, pc)]))


def simplex_orientation_rational(points):
    """Sign of det(p_1 - p_0, ..., p_d - p_0) for d + 1 points in R^d."""
    p0 = [Fraction(x) for x in points[0]]
    return _sign(det_rational([[Fraction(x) - x0 for x, x0 in zip(q, p0)] for q in points[1:]]))


def simplex_orientations_rational(points):
    """:func:`simplex_orientation_rational` of each simplex in an (M, d+1, d)
    array, as a list."""
    return [simplex_orientation_rational(p) for p in points.tolist()]
