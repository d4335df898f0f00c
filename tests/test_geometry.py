"""Exact predicate and volume tests.

The predicates claim exactness on float inputs, so the tests drive them
through degenerate and nearly-degenerate configurations where naive float
evaluation gets the sign wrong, cross-checking against rational arithmetic.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delaunay_oracle import incircle
from fplm import geometry
from fplm.generators import ball3
from fplm.geometry import (
    bbox_diameter,
    exact_orientations,
    orient2d,
    orient2d_signs_xy,
    orient3d,
    signed_volumes,
    simplex_determinants,
    simplex_volumes,
)
from orientation_oracle import (
    det_rational,
    orient2d_rational,
    orient3d_rational,
    simplex_orientations_rational,
)


def filtered_signs(points):
    """Exact signs of an (M, d+1, d) array of simplices through the package's
    one route: the filter of ``simplex_determinants``, then
    ``exact_orientations`` for the rows it leaves undecided."""
    points = np.asarray(points, dtype=float)
    m, k, d = points.shape
    coords, simplices = points.reshape(m * k, d), np.arange(m * k).reshape(m, k)
    _, sign, undecided = simplex_determinants(coords, simplices)
    rest = np.flatnonzero(undecided)
    if rest.size:
        sign[rest] = exact_orientations(coords, simplices[rest])
    return sign


def orientation(points):
    """:func:`filtered_signs` of one simplex, as an int."""
    return int(filtered_signs(np.asarray(points, dtype=float)[None])[0])


def orient3d_rows(pa, pb, pc, pd):
    """:func:`orient3d` signs of four (K, 3) arrays of points, as the audit
    takes them: the simplices (pd, pa, pb, pc), whose edges from vertex 0
    are a - d, b - d and c - d, through :func:`filtered_signs`."""
    return filtered_signs(np.stack([pd, pa, pb, pc], axis=1))


def orient2d_rows(pa, pb, pc):
    """``orient2d_signs_xy`` on three (K, 2) arrays of points."""
    return orient2d_signs_xy(*np.column_stack([pa, pb, pc]).T)


class TestOrient2d:
    def test_ccw(self):
        assert orient2d(0, 0, 1, 0, 0, 1) > 0

    def test_cw(self):
        assert orient2d(0, 0, 0, 1, 1, 0) < 0

    def test_collinear_exact(self):
        assert orient2d(0, 0, 1, 1, 2, 2) == 0

    def test_collinear_non_representable_slope(self):
        # points on y = x/3: the slope is not a float, but the orientation
        # of actual float triples is still decided exactly
        a = (0.0, 0.0)
        b = (3.0, 1.0)
        c = (6.0, 2.0)
        assert orient2d(*a, *b, *c) == 0

    def test_near_degenerate_matches_rational(self):
        rng = np.random.default_rng(42)
        base = rng.uniform(-1, 1, size=(200, 2))
        for ax, ay in base:
            bx, by = ax + 1e-3, ay + 1e-3
            # c close to the line through a and b
            for k in range(-3, 4):
                cx = ax + 2e-3
                cy = ay + 2e-3 + k * 1e-19
                got = orient2d(ax, ay, bx, by, cx, cy)
                want = orient2d_rational(ax, ay, bx, by, cx, cy)
                assert got == want

    def test_tiny_perturbations_of_collinear_grid(self):
        eps = math.ulp(1.0)
        for da in (-eps, 0.0, eps):
            for db in (-eps, 0.0, eps):
                got = orient2d(0.5, 0.5, 0.75 + da, 0.75 + db, 1.0, 1.0)
                want = orient2d_rational(0.5, 0.5, 0.75 + da, 0.75 + db, 1.0, 1.0)
                assert got == want


class TestExactZeroRule:
    """Rows whose two products each have an exactly-zero factor are collinear
    with no exact integer stage; products that only underflow to 0 are not."""

    # one row per pair of zero factors: a vertical line (ax = cx, bx = cx),
    # a = c, a horizontal line (ay = cy, by = cy), b = c; then a = b = c
    ZERO_ROWS = [
        ((1.0, 2.0), (1.0, 5.0), (1.0, 7.0)),
        ((0.3, 0.7), (0.9, 0.1), (0.3, 0.7)),
        ((2.0, 4.0), (6.0, 4.0), (-1.0, 4.0)),
        ((0.4, 0.9), (0.1, 0.2), (0.1, 0.2)),
        ((0.5, 0.25), (0.5, 0.25), (0.5, 0.25)),
    ]
    # 1e-200 * 1e-200 underflows to 0.0 in both products, yet the exact
    # determinant 1e-400 - 6e-400 is negative
    UNDERFLOW = ((1e-200, 3e-200), (2e-200, 1e-200), (0.0, 0.0))

    @staticmethod
    def _count_exact_rows(monkeypatch):
        made = []
        real = geometry._exact_signs

        def counting(points):
            made.extend(points.tolist())
            return real(points)

        monkeypatch.setattr(geometry, "_exact_signs", counting)
        return made

    def test_exactly_collinear_rows_skip_rational(self, monkeypatch):
        made = self._count_exact_rows(monkeypatch)
        for a, b, c in self.ZERO_ROWS:
            assert orient2d(*a, *b, *c) == 0
        pa, pb, pc = (np.array(col) for col in zip(*self.ZERO_ROWS))
        assert orient2d_rows(pa, pb, pc).tolist() == [0] * len(self.ZERO_ROWS)
        assert made == []

    def test_underflowed_products_take_exact_path(self, monkeypatch):
        a, b, c = self.UNDERFLOW
        assert (a[0] - c[0]) * (b[1] - c[1]) == 0.0
        assert (a[1] - c[1]) * (b[0] - c[0]) == 0.0
        made = self._count_exact_rows(monkeypatch)
        assert orient2d(*a, *b, *c) == orient2d_rational(*a, *b, *c) == -1
        assert made
        made.clear()
        got = orient2d_rows(np.array([a]), np.array([b]), np.array([c]))
        assert got.tolist() == [-1]
        assert made


class TestNonFiniteInput:
    """NaN and inf have no integer mantissa, so a row that reaches the
    integer stage with one raises one ValueError rather than taking a wrong
    sign."""

    MESSAGE = "^exact orientation needs finite coordinates"

    # (ay, bx, by, cx, cy) of a row whose ax is bad and whose two filter
    # products each have a zero factor: 0 times inf or NaN is NaN, so the
    # filter's zero rule must not settle it as 0
    ZERO_FACTOR = (0.0, 1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_orient2d(self, bad):
        for row in ((0.0, 1.0, 1.0, 0.0, 0.0), self.ZERO_FACTOR):
            with pytest.raises(ValueError, match=self.MESSAGE):
                orient2d(bad, *row)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_orient2d_signs_xy(self, bad):
        # the filter settles the all-zero second row; the first reaches the stage
        for row in ((1.0, 1.0, 2.0, 0.0, 3.0), self.ZERO_FACTOR):
            cols = (np.array([x, 0.0]) for x in (bad, *row))
            with pytest.raises(ValueError, match=self.MESSAGE):
                orient2d_signs_xy(*cols)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_orientations(self, bad, d):
        coords = np.vstack([np.zeros(d), np.eye(d)])
        coords[1, 0] = bad
        with pytest.raises(ValueError, match=self.MESSAGE):
            exact_orientations(coords, np.arange(d + 1)[None])


class TestOrient3d:
    def test_sign_is_det_a_b_c_minus_d(self):
        # documented convention: sign of det[a-d; b-d; c-d]; for the
        # conventionally positive tet (origin, e1, e2, e3) that det is -1
        assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)) < 0

    def test_swapped_base_flips(self):
        assert orient3d((0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)) > 0

    def test_coplanar_exact(self):
        assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0.25, 0.25, 0.0)) == 0

    def test_coplanar_skewed(self):
        # all four points on the plane x + y + z = 1 with float coordinates
        pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.5, 0.25, 0.25)]
        assert orient3d(*pts) == 0

    def test_near_coplanar_sign_matches_rational(self):
        eps = math.ulp(1.0)
        pa, pb, pc = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        for dz in (-2 * eps, -eps, 0.0, eps, 2 * eps):
            pd = (0.3, 0.3, dz)
            assert orient3d(pa, pb, pc, pd) == orient3d_rational(pa, pb, pc, pd)


def ulp_grid(center, k=2):
    """Points within k units in the last place of ``center`` on each axis."""
    steps = [math.ulp(c) for c in center]
    offsets = itertools.product(range(-k, k + 1), repeat=len(center))
    return [tuple(c + o * h for c, o, h in zip(center, off, steps)) for off in offsets]


class TestBatchedPredicates:
    """The numpy filters must return the rational oracles' signs row by row."""

    def test_orient2d_signs_on_near_collinear_grid(self):
        a, b = (0.5, 0.5), (1.0, 1.0)
        rows = [(a, b, c) for c in ulp_grid((0.75, 0.75))]
        rows += [(a, c, b) for c in ulp_grid((0.75, 0.75))]
        # collinear points on a slope that is not a float, and coincident ones
        rows += [((0.0, 0.0), (3.0, 1.0), c) for c in ulp_grid((6.0, 2.0))]
        rows += [((0.1, 0.2), (0.1, 0.2), (0.3, 0.7)), ((0.1, 0.2), (0.3, 0.7), (0.1, 0.2))]
        # points a few ulps off the line through (12, 12) and (24, 24), where
        # the unfiltered float determinant is nonzero with the wrong sign
        near = (0.5 + 44 * 2.0**-53, 0.5 + 52 * 2.0**-53)
        rows += [((12.0, 12.0), (24.0, 24.0), c) for c in ulp_grid(near, k=4)]
        rng = np.random.default_rng(8)
        rows += [tuple(map(tuple, rng.uniform(-1, 1, size=(3, 2)))) for _ in range(50)]
        pa, pb, pc = (np.array(col) for col in zip(*rows))
        got = orient2d_rows(pa, pb, pc)
        want = [orient2d_rational(*x, *y, *z) for x, y, z in rows]
        assert got.dtype == np.int8
        assert got.tolist() == want
        assert set(want) == {-1, 0, 1}

    def test_orient3d_signs_on_near_coplanar_grid(self):
        pa, pb, pc = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        rows = [(pa, pb, pc, pd) for pd in ulp_grid((0.3, 0.3, 0.0), k=1)]
        # skewed plane x + y + z = 1 and a coincident point
        sa, sb, sc = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)
        rows += [(sa, sb, sc, pd) for pd in ulp_grid((0.5, 0.25, 0.25), k=1)]
        rows += [(sa, sb, sc, sa)]
        rng = np.random.default_rng(9)
        rows += [tuple(map(tuple, rng.uniform(-1, 1, size=(4, 3)))) for _ in range(50)]
        cols = [np.array(col) for col in zip(*rows)]
        got = orient3d_rows(*cols)
        want = [orient3d_rational(*row) for row in rows]
        assert got.dtype == np.int8
        assert got.tolist() == want
        assert set(want) == {-1, 0, 1}

    @pytest.mark.parametrize("d", [2, 3])
    def test_simplex_orientations_match_scalar(self, d):
        rng = np.random.default_rng(d)
        points = rng.integers(-2, 3, size=(60, d + 1, d)).astype(float)
        points[::7, 0] += math.ulp(2.0)
        want = simplex_orientations_rational(points)
        assert filtered_signs(points).tolist() == want
        # the integer stage alone, on every row
        coords, simplices = points.reshape(-1, d), np.arange(60 * (d + 1)).reshape(60, d + 1)
        assert exact_orientations(coords, simplices).tolist() == want

    def test_empty_batches(self):
        empty = np.zeros((0, 2))
        assert orient2d_rows(empty, empty, empty).shape == (0,)
        empty = np.zeros((0, 3))
        assert orient3d_rows(empty, empty, empty, empty).shape == (0,)


# Coordinates for the integer-stage property tests: ordinary floats, values
# n * 2**e with exponents across +-1000 (products overflow or underflow in
# the float filter), subnormals and both zeros.
scaled_floats = st.builds(
    lambda n, e: math.ldexp(n, e), st.integers(-(2**53), 2**53), st.integers(-1100, 970)
)
coordinates = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    scaled_floats,
    st.floats(min_value=-1e-307, max_value=1e-307),  # subnormals and tiny normals
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**1000]),
)


def _nudge(value, step):
    """``value`` moved ``step`` units in the last place."""
    for _ in range(abs(step)):
        value = math.nextafter(value, math.copysign(math.inf, step))
    return value


@st.composite
def collinear_triples(draw):
    """Exactly collinear points (small integers on one lattice line, times a
    power of two), with c optionally moved a few ulps off the line."""
    scale = math.ldexp(1.0, draw(st.integers(-1070, 960)))
    x0, y0, p, q = (draw(st.integers(-1000, 1000)) for _ in range(4))
    k1, k2 = draw(st.integers(-50, 50)), draw(st.integers(-50, 50))
    pts = [((x0 + k * p) * scale, (y0 + k * q) * scale) for k in (0, k1, k2)]
    (ax, ay), (bx, by), (cx, cy) = pts
    step = draw(st.integers(-2, 2))
    if draw(st.booleans()):
        cx = _nudge(cx, step)
    else:
        cy = _nudge(cy, step)
    return ax, ay, bx, by, cx, cy


@st.composite
def coplanar_quadruples(draw):
    """Exactly coplanar points (a + i*u + j*v on an integer lattice, times a
    power of two), with d optionally moved a few ulps off the plane."""
    scale = math.ldexp(1.0, draw(st.integers(-1070, 960)))
    ints = st.integers(-200, 200)
    a, u, v = ([draw(ints) for _ in range(3)] for _ in range(3))
    pts = []
    for _ in range(4):
        i, j = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
        pts.append(tuple((a[t] + i * u[t] + j * v[t]) * scale for t in range(3)))
    axis, step = draw(st.integers(0, 2)), draw(st.integers(-2, 2))
    d = list(pts[3])
    d[axis] = _nudge(d[axis], step)
    return pts[0], pts[1], pts[2], tuple(d)


# rows whose float differences overflow to inf, so only the integer stage
# can decide them: a counterclockwise and a collinear triangle, and a
# tetrahedron and a coplanar quadruple
BIG = 1.5e308
OVERFLOW_2D = [(BIG, -BIG, -BIG, BIG, -BIG, -BIG), (BIG, BIG, 1e308, 1e308, -BIG, -BIG)]
OVERFLOW_3D = [((BIG, 0.0, 0.0), (0.0, BIG, 0.0), (0.0, 0.0, BIG), (-BIG, -BIG, -BIG)),
               ((BIG, BIG, BIG), (-BIG, -BIG, -BIG), (BIG, -BIG, 0.0), (-BIG, BIG, 0.0))]
# one batch whose rows need different shifts: rows at 1e-300 and 1e300
# scale, most of them near-collinear or coplanar, with -0.0 and subnormals
MIXED_2D = [(1e-300, 1e-300, 2e-300, 2e-300, 3e-300, 3.0000000000000003e-300),
            (1e300, 1e300, -1e300, -1e300, 3e300, 3e300),
            (-0.0, 5e-324, 5e-324, -0.0, 1e-310, -5e-324),
            (1e300, -0.0, 5e-324, 1e-300, -1e300, 2.5e-308)]
MIXED_3D = [((1e-300, 0.0, 0.0), (0.0, 1e-300, 0.0), (0.0, 0.0, 1e-300), (-0.0, -0.0, 5e-324)),
            ((1e300, 1e300, 0.0), (-1e300, 1e300, 0.0), (0.0, -1e300, 0.0), (2e300, 1e300, -0.0)),
            ((5e-324, -0.0, 1e300), (-0.0, 1e-310, 5e-324), (1e-300, 1e300, -5e-324),
             (0.0, 0.0, 0.0))]


class TestIntegerStageAgainstFraction:
    """The integer stage must give the Fraction determinant's sign, scalar and
    batched, on every finite double."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(*[coordinates] * 6), collinear_triples()))
    @example((5e-324, 0.0, -0.0, 5e-324, 0.0, -5e-324))
    @example((1e-200, 3e-200, 2e-200, 1e-200, 0.0, 0.0))  # products underflow
    @example((2.0**1000, 2.0**1000, -(2.0**1000), 2.0**999, 0.0, 1.0))  # overflow
    # both products underflow to subnormals and round apart by one unit in
    # the direction opposite to the exact determinant's sign
    @example((3.277591141640716e-156, 7.236093307563692e-155, 6.282049688144705e-156,
              1.3869178839497077e-154, -1.2143032037315589e-170, -2.5563817609819563e-169))
    @example(OVERFLOW_2D[0])
    @example(OVERFLOW_2D[1])
    def test_orient2d(self, row):
        want = orient2d_rational(*row)
        assert orient2d(*row) == want
        assert orient2d_rows(*(np.array([row[k:k + 2]]) for k in (0, 2, 4))).tolist() == [want]
        triangle = np.array(row[4:] + row[:4]).reshape(3, 2)  # (c, a, b)
        assert exact_orientations(triangle, np.arange(3)[None]).tolist() == [want]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.tuples(*[coordinates] * 6), collinear_triples()),
                    min_size=1, max_size=40))
    @example(MIXED_2D + OVERFLOW_2D)
    def test_orient2d_signs(self, rows):
        pa, pb, pc = (np.array(list(zip(*rows))[k:k + 2]).T for k in (0, 2, 4))
        got = orient2d_rows(pa, pb, pc)
        assert got.tolist() == [orient2d_rational(*row) for row in rows]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(*[st.tuples(*[coordinates] * 3)] * 4), coplanar_quadruples()))
    @example(((5e-324, 0.0, 0.0), (0.0, 5e-324, 0.0), (0.0, 0.0, 5e-324), (-0.0, -0.0, 0.0)))
    # cdx * ady underflows to -5e-324 (exactly -2.77e-324) and bdz = -4e16
    # scales that error past the static bound: the float sign is wrong
    @example(((0.0, 0.0, 0.0), (0.0, 1.0, -4.0357455435200504e16),
              (9.969616142050816e-308, 0.0, 0.0), (0.0, 2.0**-55, -2.0)))
    @example(OVERFLOW_3D[0])
    @example(OVERFLOW_3D[1])
    def test_orient3d(self, points):
        want = orient3d_rational(*points)
        assert orient3d(*points) == want
        assert orient3d_rows(*(np.array([p]) for p in points)).tolist() == [want]
        simplex = np.array([points[3], *points[:3]])  # (d, a, b, c)
        assert exact_orientations(simplex, np.arange(4)[None]).tolist() == [want]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.tuples(*[st.tuples(*[coordinates] * 3)] * 4),
                             coplanar_quadruples()), min_size=1, max_size=30))
    @example(MIXED_3D + OVERFLOW_3D)
    def test_orient3d_signs(self, rows):
        cols = [np.array([row[k] for row in rows]) for k in range(4)]
        got = orient3d_rows(*cols)
        assert got.tolist() == [orient3d_rational(*row) for row in rows]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.tuples(*[coordinates] * 6), collinear_triples()),
                    min_size=1, max_size=40))
    @example(MIXED_2D + OVERFLOW_2D)
    def test_simplex_determinants_2d(self, rows):
        self.check_filter_and_integer_stage(np.array(rows).reshape(-1, 3, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.tuples(*[st.tuples(*[coordinates] * 3)] * 4),
                             coplanar_quadruples()), min_size=1, max_size=30))
    @example(MIXED_3D + OVERFLOW_3D)
    def test_simplex_determinants_3d(self, rows):
        self.check_filter_and_integer_stage(np.array(rows))

    @pytest.mark.parametrize("d", [2, 3])
    def test_no_rows(self, d):
        signs = exact_orientations(np.zeros((d + 1, d)), np.zeros((0, d + 1), dtype=np.int64))
        assert signs.dtype == np.int8 and signs.shape == (0,)

    @staticmethod
    def check_filter_and_integer_stage(points):
        # the filter's decided signs and the integer stage's signs of every
        # row, decided or not, are the Fraction determinant's
        want = simplex_orientations_rational(points)
        m, k, d = points.shape
        coords, simplices = points.reshape(m * k, d), np.arange(m * k).reshape(m, k)
        _, sign, undecided = simplex_determinants(coords, simplices)
        assert sign[~undecided].tolist() == np.array(want)[~undecided].tolist()
        assert exact_orientations(coords, simplices).tolist() == want


class TestIncircle:
    def test_inside(self):
        tri = ((0, 0), (1, 0), (0, 1))
        assert incircle(*tri, (0.5, 0.5 - 1e-9)) > 0

    def test_outside(self):
        tri = ((0, 0), (1, 0), (0, 1))
        assert incircle(*tri, (2.0, 2.0)) < 0

    def test_cocircular_exact(self):
        # unit circle points with exact float coordinates
        assert incircle((1, 0), (0, 1), (-1, 0), (0, -1)) == 0

    def test_on_circle_quarter_points(self):
        # circumcircle of the right triangle (0,0),(2,0),(0,2) is centered
        # at (1,1) with radius sqrt(2); (2,2) lies on it exactly
        assert incircle((0, 0), (2, 0), (0, 2), (2, 2)) == 0

    def test_near_cocircular_perturbations(self):
        eps = math.ulp(2.0)
        inside = incircle((0, 0), (2, 0), (0, 2), (2, 2 - eps))
        outside = incircle((0, 0), (2, 0), (0, 2), (2, 2 + eps))
        assert inside > 0
        assert outside < 0


class TestSimplexOrientation:
    def test_d2_matches_orient2d(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert orientation(pts) > 0
        assert orientation(pts[[1, 0, 2]]) < 0

    def test_d3_right_hand_rule(self):
        pts = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert orientation(pts) > 0

    def test_swap_flips_sign(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.uniform(-1, 1, size=(4, 3))
            s = orientation(pts)
            assert orientation(pts[[1, 0, 2, 3]]) == -s


class TestVolumes:
    def test_signed_volumes_triangle(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vols = signed_volumes(coords, np.array([[0, 1, 2]]))
        assert vols.shape == (1,)
        assert vols[0] == pytest.approx(0.5)

    def test_signed_volumes_orientation_sign(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vols = signed_volumes(coords, np.array([[0, 1, 2], [1, 0, 2]]))
        assert vols[0] == pytest.approx(0.5)
        assert vols[1] == pytest.approx(-0.5)

    def test_signed_volumes_tet(self):
        coords = np.eye(4, 3, k=-1)  # origin + unit basis
        vols = signed_volumes(coords, np.array([[0, 1, 2, 3]]))
        assert vols[0] == pytest.approx(1.0 / 6.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_signed_volumes_match_lapack_determinant(self, d):
        rng = np.random.default_rng(d)
        coords = rng.uniform(-1, 1, size=(60, d))
        simp = np.array([rng.choice(60, size=d + 1, replace=False) for _ in range(500)])
        edges = coords[simp[:, 1:]] - coords[simp[:, :1]]
        want = np.linalg.det(edges) / math.factorial(d)
        got = signed_volumes(coords, simp)
        # the same determinant rounded in another order: a few ulps of the
        # largest cofactor product, which on a near-flat simplex is more than
        # 1e-12 of its volume
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)
        assert np.array_equal(np.sign(got), np.sign(want))

    @pytest.mark.parametrize("d", [2, 3])
    def test_signed_volumes_exact_on_small_integers(self, d):
        # every product and sum is an integer below 2^53, so both evaluations
        # are exact, and flat simplices come out exactly 0
        rng = np.random.default_rng(10 + d)
        coords = rng.integers(-8, 9, size=(30, d))
        # the first six points lie on a line, so the first 20 simplices are
        # flat
        coords[:6] = np.arange(-3, 3)[:, None] * [2, -1, 3][:d]
        simp = np.array([rng.choice(30, size=d + 1, replace=False) for _ in range(400)])
        simp[:20] = [rng.choice(6, size=d + 1, replace=False) for _ in range(20)]
        edges = (coords[simp[:, 1:]] - coords[simp[:, :1]]).tolist()

        def leibniz(e):  # the determinant in Python ints, one term per permutation
            return sum(
                (-1) ** sum(p[i] > p[j] for i in range(d) for j in range(i + 1, d))
                * math.prod(e[i][p[i]] for i in range(d))
                for p in itertools.permutations(range(d))
            )

        want = [leibniz(e) for e in edges]
        got = signed_volumes(coords.astype(float), simp) * math.factorial(d)
        assert got.tolist() == want
        assert want[:20] == [0] * 20
        assert np.array_equal(np.rint(np.linalg.det(np.array(edges, dtype=float))), want)

    def test_triangle_volumes_keep_the_written_out_formula_bit_for_bit(self):
        # the filter's determinant with base point c = p_0 is the formula
        # (e00 e11 - e01 e10) / 2 over the edges from p_0, in the same order
        rng = np.random.default_rng(4)
        coords = np.vstack([
            rng.uniform(-1, 1, size=(100, 2)),
            np.round(rng.uniform(-4, 4, size=(100, 2)) * 2) / 2,  # exact zeros
            rng.uniform(-1, 1, size=(100, 2)) * [1.0, 1e-16],  # squashed
            rng.uniform(-1, 1, size=(100, 2)) * 1e-160,  # products underflow
        ])
        simp = np.array([rng.choice(100, size=3, replace=False) for _ in range(400)])
        simp += np.repeat(np.arange(4) * 100, 100)[:, None]
        e = coords[simp[:, 1:]] - coords[simp[:, :1]]
        want = (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]) / 2
        got = signed_volumes(coords, simp)
        assert got.tobytes() == want.tobytes()
        assert (want == 0.0).any()

    def test_tet_volumes_within_the_filter_bound_of_the_exact_determinant(self):
        # d = 3 volumes are orient3d's z-column expansion: the sign is the
        # exact one wherever the volume is nonzero on general-position
        # drawings, and everywhere 6 V is within the filter's forward error
        # bound of the Fraction determinant, near-coplanar rows included
        rng = np.random.default_rng(6)
        mesh = ball3(3)
        jittered = mesh.vertices + rng.normal(0, 0.05, mesh.vertices.shape)
        vols = signed_volumes(jittered, mesh.simplices)
        p = jittered[mesh.simplices]
        assert (vols != 0.0).all()
        assert np.array_equal(np.sign(vols), orient3d_rows(p[:, 1], p[:, 2], p[:, 3], p[:, 0]))

        rows = [(pa, pb, pc, pd) for pd in ulp_grid((0.3, 0.3, 0.0), k=1)
                for pa, pb, pc in [((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))]]
        rows += [((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), pd)
                 for pd in ulp_grid((0.5, 0.25, 0.25), k=1)]
        rows += [tuple(map(tuple, q)) for q in rng.uniform(-1, 1, size=(200, 4, 3))]
        points = np.array(rows)
        coords, simp = points.reshape(-1, 3), np.arange(4 * len(rows)).reshape(-1, 4)
        got = signed_volumes(coords, simp) * 6
        e = np.abs(points[:, 1:] - points[:, :1])  # |edge j, coordinate i|
        permanent = (
            (e[:, 1, 0] * e[:, 2, 1] + e[:, 2, 0] * e[:, 1, 1]) * e[:, 0, 2]
            + (e[:, 2, 0] * e[:, 0, 1] + e[:, 0, 0] * e[:, 2, 1]) * e[:, 1, 2]
            + (e[:, 0, 0] * e[:, 1, 1] + e[:, 1, 0] * e[:, 0, 1]) * e[:, 2, 2]
        )
        # the filter's bound: relative to the permanent, plus its absolute
        # term for products that underflow
        bound = geometry._O3D_BOUND * permanent + 4 * geometry._ETA * (1 + e[:, :, 2].max(axis=1))
        for row, det, b in zip(points.tolist(), got.tolist(), bound.tolist()):
            p0 = [Fraction(x) for x in row[0]]
            exact = det_rational([[Fraction(x) - x0 for x, x0 in zip(q, p0)] for q in row[1:]])
            assert abs(Fraction(det) - exact) <= Fraction(b)
            if abs(det) > b:
                assert (det > 0) - (det < 0) == (exact > 0) - (exact < 0)

    def test_unsigned_volumes_embedded_triangle(self):
        # unit right triangle living in 3-space: area 1/2 via Gram determinant
        verts = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [0.0, 1.0, 5.0]])
        vols = simplex_volumes(verts, np.array([[0, 1, 2]]), 2)
        assert vols[0] == pytest.approx(0.5)

    def test_unsigned_volumes_match_signed_in_full_dim(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(-1, 1, size=(10, 3))
        simp = np.array([[0, 1, 2, 3], [4, 5, 6, 7], [1, 3, 5, 9]])
        unsigned = simplex_volumes(coords, simp, 3)
        signed = signed_volumes(coords, simp)
        assert np.allclose(unsigned, np.abs(signed))

    @pytest.mark.parametrize("k, ambient", [(2, 2), (2, 3), (3, 3), (3, 4)])
    def test_unsigned_volumes_match_lapack_gram_determinant(self, k, ambient):
        rng = np.random.default_rng(10 * k + ambient)
        coords = rng.uniform(-1, 1, size=(40, ambient))
        simp = np.array([rng.choice(40, size=k + 1, replace=False) for _ in range(200)])
        simp[:5, -1] = simp[:5, 0]  # five degenerate simplices repeat a vertex
        edges = coords[simp[:, 1:]] - coords[simp[:, :1]]
        dets = np.linalg.det(edges @ np.transpose(edges, (0, 2, 1)))
        want = np.sqrt(np.where(dets > 0.0, dets, 0.0)) / math.factorial(k)
        got = simplex_volumes(coords, simp, k)
        # the same Gram determinant, rounded in another order: it differs by
        # a few ulps of the Gram scale (entries below 4 * ambient), and the
        # square root turns that into up to ~1e-7 near a zero volume
        assert np.allclose(got, want, rtol=1e-12, atol=1e-7)
        assert (got[:5] == 0.0).all()

    @pytest.mark.parametrize("d", [2, 3])
    def test_full_dimensional_volumes_are_the_determinant(self, d):
        rng = np.random.default_rng(d)
        coords = rng.uniform(-1, 1, size=(30, d))
        simp = np.array([rng.choice(30, size=d + 1, replace=False) for _ in range(50)])
        got = simplex_volumes(coords, simp, d)
        assert np.array_equal(got, np.abs(signed_volumes(coords, simp)))

    def test_thin_triangle_keeps_its_area(self):
        # the Gram determinant 1 * (1 + 1e-18) - 1 rounds to 0; det E does not
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-9]])
        vols = simplex_volumes(verts, np.array([[0, 1, 2]]), 2)
        assert vols[0] == 5e-10

    def test_degenerate_volume_zero(self):
        verts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        vols = simplex_volumes(verts, np.array([[0, 1, 2]]), 2)
        assert vols[0] == pytest.approx(0.0, abs=1e-15)

    def test_bbox_diameter(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert bbox_diameter(pts) == pytest.approx(5.0)
        assert bbox_diameter(np.array([[1.0, 1.0]])) == 0.0
