"""The exact incircle predicate: the Delaunay postcondition oracle.

The package itself never needs it (``delaunay2d`` is qhull), so it lives
with the tests that check qhull's output. It is the package's filtered
predicate pattern: a float determinant accepted when it clears its forward
error bound, otherwise settled in ``Fraction``, as
:mod:`orientation_oracle` settles every orientation.
"""

from fractions import Fraction

from fplm.geometry import _EPS, _ETA
from orientation_oracle import det_rational

_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS


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
    underflow = 4.0 * _ETA * (
        1.0
        + max(alift, blift, clift)
        + max(abs(bdxcdy) + abs(cdxbdy), abs(cdxady) + abs(adxcdy), abs(adxbdy) + abs(bdxady))
    )
    if abs(det) > _ICC_BOUND * permanent + underflow:
        return 1 if det > 0.0 else -1
    d = [Fraction(v) for v in pd]
    rows = [[Fraction(v) - w for v, w in zip(p, d)] for p in (pa, pb, pc)]
    det = det_rational([[x, y, x * x + y * y] for x, y in rows])
    return (det > 0) - (det < 0)
