"""Numerical certification of embedding validity.

The auditor measures the geometric guarantees of a finished embedding:
zero edge crossings in the drawn 1-skeleton (d = 2), a single orientation
sign across all simplex images with no near-degenerate ones, containment of
free vertices in the convex hull of the fixed targets, convexity of the
boundary image, and the convex-combination identity at free vertices.

For d = 2 a certificate rests on the degree theorem (Lipman, "Bijective
mappings of meshes with boundary and the degree in mesh processing", SIAM
J. Imaging Sci. 2014). Take a connected, orientable triangle mesh whose
audited triangles all map with one nonzero orientation sign, and whose
audited triangles are bounded by one loop that maps to a simple closed
polygon. Then the map is injective, so no two edges cross. Each hypothesis
has its check: :func:`canonical_orientation` establishes
face-connectivity, orientability and at most two triangles per edge (it
raises otherwise); the boundary walk rejects a boundary vertex with more
than two boundary edges; and :func:`orientation_histogram` gives the
signs, with no near-zero image allowed.

The loop of a closed mesh is its outer triangle, the one whose image
covers the rest of the drawing (fplm's seed), and it needs no test. Over a
closed, consistently oriented surface the signed areas of the triangle
images sum to exactly 0, since every edge is walked once in each
direction. So when all other triangles share one nonzero exact sign, the
outer triangle's exact area is nonzero with the opposite sign: its image
is not flat, and a triangle that is not flat is a simple loop. The
histogram therefore names the outer triangle itself: the one simplex of
the minority sign, when the other sign has more than one. A closed mesh is
decided by its histogram alone. The loop of an open mesh is its single
boundary cycle. With no such loop (several boundary loops), a one-signed
drawing is injective when its whole 1-skeleton is drawn as a plane graph.
Both cases ask one question, whether the tested edges are drawn as a plane
graph, and :func:`_meetings` answers it exactly for both. So a one-signed
drawing costs nothing more when closed, a test of its B loop edges when
open, or one sweep of its E edges when it has no loop. The full
:func:`count_crossings` runs only for the report of a drawing that is not
certified this way, so violated reports keep their crossing pairs; a loop
that is not simple and a touch with no crossing (a T-junction, or two
vertices drawn at one point) each add their own reason. A drawing whose
near-zero triangles have exact signs that agree with all the others meets
the theorem too: it has no crossings, yet stays violated for its near-zero
images; only those triangles take the exact stage a second time.

For d = 3 no crossing test runs, and ``injective-certified`` shows local
injectivity only (one orientation sign, no near-zero tetrahedron): the
boundary surface of a coiled bar can overlap itself while every tetrahedron
keeps its sign. A mesh has d = 2 or 3 (see
:class:`~fplm.simplicial.SimplicialMesh`), so these two cases are the
whole audit.

Crossing and orientation signs come from exact predicates, so the counts
are discrete facts rather than tolerance judgments; only the near-zero
volume classification and the convexity margin use tolerances, the
constants ``NEAR_ZERO_TOL`` and ``CONVEXITY_TOL``. Both run vectorised: a
sweep-and-prune over segment bounding boxes finds the candidate edge
pairs, and the batched filtered predicates of
:mod:`fplm.geometry` decide every pair and simplex in numpy, leaving only
near-degenerate rows to the exact integer stage (each row's float
mantissas shifted to Python ints by one power of two, in one numpy pass).
Edge pairs that share a vertex index need no extra test (see
:func:`count_crossings`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    bbox_diameter,
    exact_orientations,
    orient2d_signs_xy,
    simplex_determinants,
)
from .laplacian import WeightedGraph
from .mapping import Embedding, FixedPointSet
from .simplicial import (
    SimplicialMesh,
    canonical_orientation,
    detect_boundary,
    integer_ids,
    mesh_edges,
)


@dataclass(frozen=True)
class CrossingResult:
    """Number of crossing edge pairs plus the offending pairs themselves.

    Pairs are positions into the edge list that was tested, each (i, j)
    with i < j.
    """

    count: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BoundaryConvexityResult:
    """Outcome of the boundary convexity check.

    ``worst`` is the most sign-violating normalized cross product (the sine
    of the turn angle against the dominant winding); nonnegative values mean
    every turn agrees with the winding.
    """

    convex: bool
    worst: float
    reflex_vertex: int | None


@dataclass(frozen=True)
class ValidityReport:
    """Composite audit result.

    crossing_count is None for d = 3, where no planar drawing exists.
    verdict is "injective-certified" exactly when one orientation sign
    occurs, no simplex image is near-degenerate and, for d = 2, the tested
    edges are drawn as a plane graph (the certificate of the module
    docstring); otherwise "violated" with reasons. A d = 2
    drawing that passes its plane test has crossing_count 0 and no
    crossing_pairs without a full count; every other one counts all edge
    pairs (:func:`count_crossings`), so a violated report lists all its
    crossing pairs, and crossing_count stays the count of proper crossings
    and overlaps.
    hull_violation, boundary_convexity and max_convex_residual are
    diagnostics: they are reported but do not gate the verdict.
    hull_violation is the largest signed distance of a free vertex outside
    the hull of the final fixed targets. It is exact however many free
    vertices are evaluated: on a one-signed drawing only those that can
    attain it (see :func:`_hull_candidates`), otherwise the vertices of
    their own convex hull (see :func:`_free_hull_vertices`).

    outer_simplex is the simplex of a closed mesh whose image covers the
    rest of the drawing, found by :func:`audit` and left out of
    orientation_counts; None on an open mesh and on a closed one where no
    single simplex has the minority sign.

    For d = 3, "injective-certified" shows local injectivity only: every
    tetrahedron keeps one orientation, but the boundary surface is not
    tested for self-intersection.
    """

    crossing_count: int | None
    crossing_pairs: tuple[tuple[int, int], ...]
    orientation_counts: tuple[int, int, int]
    max_convex_residual: float | None
    hull_violation: float | None
    boundary_convexity: BoundaryConvexityResult | None
    verdict: str
    reasons: tuple[str, ...] = ()
    outer_simplex: int | None = None

    def to_dict(self) -> dict:
        return {
            "crossing_count": self.crossing_count,
            "crossing_pairs": [list(p) for p in self.crossing_pairs],
            "orientation_counts": {
                "positive": self.orientation_counts[0],
                "negative": self.orientation_counts[1],
                "near_zero": self.orientation_counts[2],
            },
            "outer_simplex": self.outer_simplex,
            "max_convex_residual": self.max_convex_residual,
            "hull_violation": _json_float(self.hull_violation),
            "boundary_convexity": (
                None
                if self.boundary_convexity is None
                else {
                    "convex": self.boundary_convexity.convex,
                    "worst": self.boundary_convexity.worst,
                    "reflex_vertex": self.boundary_convexity.reflex_vertex,
                }
            ),
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.crossing_count is None:
            lines.append("crossings: not applicable (d != 2)")
        else:
            lines.append(f"crossings: {self.crossing_count}")
            for a, b in self.crossing_pairs[:20]:
                lines.append(f"  edge pair ({a}, {b})")
            if len(self.crossing_pairs) > 20:
                lines.append(f"  ... {len(self.crossing_pairs) - 20} more")
        pos, neg, zero = self.orientation_counts
        lines.append(
            f"orientation: {pos} positive, {neg} negative, {zero} near zero"
        )
        if self.outer_simplex is not None:
            lines.append(f"outer simplex: {self.outer_simplex}")
        if self.hull_violation is not None:
            lines.append(f"hull violation: {self.hull_violation:.6e}")
        if self.max_convex_residual is not None:
            lines.append(f"max convex residual: {self.max_convex_residual:.6e}")
        if self.boundary_convexity is not None:
            bc = self.boundary_convexity
            lines.append(
                f"boundary convexity: {'ok' if bc.convex else 'VIOLATED'} "
                f"(worst {bc.worst:.6e}"
                + (f", reflex vertex {bc.reflex_vertex}" if not bc.convex else "")
                + ")"
            )
        for reason in self.reasons:
            lines.append(f"reason: {reason}")
        return "\n".join(lines)


def _json_float(x):
    if x is None:
        return None
    if math.isinf(x):
        return None
    return x


def count_crossings(edges, coords) -> CrossingResult:
    """Count crossing pairs among 2-D segments with exact predicates.

    A pair counts when the open segments properly intersect, or when the
    segments are collinear and overlap over positive length. Pairs sharing
    a vertex index are intersection-free unless they overlap beyond the
    shared point.

    The broad phase is a sweep-and-prune over bounding boxes: segments are
    sorted by min-x, each one's x-overlap range is found by binary search,
    and the pairs in it are kept when their y-ranges overlap too. The kept
    pairs reach the narrow phase in blocks of at most ``_PAIR_BLOCK``, so
    memory stays O(E) plus one block. The narrow phase gathers each block's
    coordinate columns once and decides every pair in one pass of the
    batched filtered predicate (:func:`orient2d_signs_xy`), whose undecided
    rows take the exact integer stage together. The turns of the second segment's
    endpoints against the first decide most pairs alone: a pair with both
    turns 0 is collinear (or its first segment is a single point) and goes
    straight to the 1-D overlap test, and only straddling pairs need the
    turns of the first segment's endpoints against the second. A pair that
    shares a vertex index needs no test of its own: the shared point's turn
    is exactly 0, so the pair never straddles, and both turns are 0 exactly
    when the other endpoint is collinear with the first segment. Bad edge
    ids and non-finite coordinates raise ``ValueError``.
    """
    p = np.asarray(coords, dtype=float)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError("count_crossings expects (N, 2) coordinates")
    e = integer_ids(edges, "edge vertex ids", p.shape[0])
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be index pairs")
    if not np.isfinite(p).all():
        raise ValueError("coordinates must be finite (found NaN or inf)")
    pairs, _ = _hits(e, p, touching=False)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return CrossingResult(len(pairs), tuple(map(tuple, pairs.tolist())))


def _hits(e, p, touching: bool):
    """The sweep loop of :func:`count_crossings` and :func:`_meetings`: the
    pairs of segments ``e`` over points ``p`` that :func:`_pairs_cross`
    hits, as (min, max) positions into ``e``, and, when ``touching``, the
    number of zero-length edges; then the pairs that share no vertex index
    and have no zero-length edge take the closed test (see :func:`_meetings`)."""
    order, cols = _sweep_columns(e, p)
    points, closed = 0, None
    if touching:
        point = (cols[0] == cols[2]) & (cols[1] == cols[3])
        points = int(np.count_nonzero(point))
        u, v = e[order].T
    hits = []
    for i, j in _sweep_pairs(cols):
        if touching:
            closed = (u[i] != u[j]) & (u[i] != v[j]) & (v[i] != u[j]) & (v[i] != v[j])
            closed &= ~(point[i] | point[j])
        crossed = _pairs_cross([c[i] for c in cols], [c[j] for c in cols], closed)
        # a block with no hit, the common case of a plane test, adds nothing
        if crossed.any():
            a, b = order[i[crossed]], order[j[crossed]]
            hits.append(np.column_stack([np.minimum(a, b), np.maximum(a, b)]))
    return (np.vstack(hits) if hits else np.zeros((0, 2), dtype=np.int64)), points


# kept pairs per narrow-phase block: large enough to spread numpy's per-call
# cost, small enough that a block's temporaries (about 200 bytes a pair) do
# not raise the audit's peak memory
_PAIR_BLOCK = 6144


def _sweep_columns(e, p):
    """Sweep order of segments ``e`` over points ``p`` and their columns.

    Returns the permutation that sorts the segments by min-x and the
    coordinate columns (x0, y0, x1, y1) of the segments in that order.
    """
    x0, y0 = p[e[:, 0]].T
    x1, y1 = p[e[:, 1]].T
    order = np.argsort(np.minimum(x0, x1), kind="stable")
    return order, [np.ascontiguousarray(v[order]) for v in (x0, y0, x1, y1)]


def _sweep_pairs(cols):
    """Yield blocks of box-overlapping pairs (i, j), i < j, of x-sorted segments.

    ``cols`` are the columns from :func:`_sweep_columns`. Closed boxes
    overlap, so segments that merely touch are paired too. Box j > i
    overlaps box i in x exactly when lo_x[j] <= hi_x[i], so the x-partners
    of i are the run i+1 .. stop[i]-1 found by binary search. Runs are
    expanded in chunks of at most ``_PAIR_BLOCK`` candidates (or one row's
    run), the y-overlap test filters each chunk, and the kept pairs are
    handed on in blocks of exactly ``_PAIR_BLOCK`` (the last one shorter).
    """
    lo_x, lo_y = np.minimum(cols[0], cols[2]), np.minimum(cols[1], cols[3])
    hi_x, hi_y = np.maximum(cols[0], cols[2]), np.maximum(cols[1], cols[3])
    n = lo_x.shape[0]
    stop = np.searchsorted(lo_x, hi_x, side="right")
    counts = stop - np.arange(1, n + 1)
    first = np.concatenate([[0], np.cumsum(counts)])  # pairs before row r
    held_i, held_j, held = [], [], 0
    r0 = 0
    while r0 < n:
        r1 = int(np.searchsorted(first, first[r0] + _PAIR_BLOCK, side="right")) - 1
        r1 = max(r1, r0 + 1)
        rows = np.arange(r0, r1)
        i = np.repeat(rows, counts[r0:r1])
        # position of each pair within its row's run: 0, 1, ..., counts[i] - 1
        offset = np.arange(first[r0], first[r1]) - np.repeat(first[r0:r1], counts[r0:r1])
        j = i + 1 + offset
        keep = (lo_y[j] <= hi_y[i]) & (lo_y[i] <= hi_y[j])
        held_i.append(i[keep])
        held_j.append(j[keep])
        held += held_i[-1].size
        r0 = r1
        while held >= _PAIR_BLOCK or (r0 == n and held):
            i, j = np.concatenate(held_i), np.concatenate(held_j)
            yield i[:_PAIR_BLOCK], j[:_PAIR_BLOCK]
            held_i, held_j = [i[_PAIR_BLOCK:]], [j[_PAIR_BLOCK:]]
            held = held_i[0].size


def _pairs_cross(si, sj, closed=None):
    """Exact narrow phase for K segment pairs, as a boolean mask.

    si and sj are the coordinate columns (x0, y0, x1, y1) of the two
    segments of each pair: segment i runs from a to b, segment j from c to d.
    A pair is hit when the open segments properly cross or overlap over
    positive length. Where the mask ``closed`` is true, the closed segments
    are tested instead: any common point, a touching endpoint included, is
    a hit. Closed pairs must have segments of positive length (for a point
    ab every turn is 0, which the 1-D overlap test cannot tell from
    collinear).
    """
    ax, ay, bx, by = si
    cx, cy, dx, dy = sj
    o1 = orient2d_signs_xy(ax, ay, bx, by, cx, cy)
    o2 = orient2d_signs_xy(ax, ay, bx, by, dx, dy)
    hit = np.zeros(ax.size, dtype=bool)
    # c and d on line ab: the segments are collinear, or ab is one point;
    # the 1-D overlap test is right for both
    flat = (o1 == 0) & (o2 == 0)
    # a crossing: c and d straddle line ab, then a and b line cd; a closed
    # pair also meets when an endpoint lies on the other segment's line
    side = o1 * o2
    straddle = side < 0
    if closed is not None:
        straddle |= closed & (side == 0) & ~flat
    k = np.flatnonzero(straddle)
    ck, dk = (cx[k], cy[k]), (dx[k], dy[k])
    o3 = orient2d_signs_xy(*ck, *dk, ax[k], ay[k])
    o4 = orient2d_signs_xy(*ck, *dk, bx[k], by[k])
    side = o3 * o4
    crossed = side < 0
    if closed is not None:
        crossed |= closed[k] & (side == 0)
    hit[k] = crossed
    flat = np.flatnonzero(flat)
    hit[flat] = _collinear_overlap(
        *(v[flat] for v in (*si, *sj)), None if closed is None else closed[flat]
    )
    return hit


def _collinear_overlap(ax, ay, bx, by, cx, cy, dx, dy, closed=None):
    """1-D overlap of collinear segment pairs (exact on floats).

    Each pair ab, cd is compared along the axis of its larger extent. Open
    pairs need an overlap of positive length; pairs where the mask
    ``closed`` is true need one common point.
    """
    along_x = np.maximum(np.abs(ax - bx), np.abs(cx - dx)) >= np.maximum(
        np.abs(ay - by), np.abs(cy - dy)
    )
    a, b, c, d = (np.where(along_x, u, v) for u, v in ((ax, ay), (bx, by), (cx, cy), (dx, dy)))
    lo = np.maximum(np.minimum(a, b), np.minimum(c, d))
    hi = np.minimum(np.maximum(a, b), np.maximum(c, d))
    overlap = lo < hi
    if closed is not None:
        overlap |= closed & (lo == hi)
    return overlap


def _meetings(edges, coords) -> int:
    """Edges of zero length plus edge pairs that meet other than at a shared
    vertex index: 0 exactly when ``edges`` are drawn as a plane graph.

    This is the one plane test behind every 2-D certificate. A pair that
    shares a vertex index takes the open test of :func:`_pairs_cross`: the
    shared point has turn exactly 0, so the pair is hit only when the edges
    overlap beyond it. Every other pair takes the closed test, so a touching
    endpoint or a T-junction is a hit. The closed test needs segments of
    positive length (for a point every turn is 0, which the 1-D overlap test
    cannot tell from collinear), so a zero-length edge is counted once by
    itself and its pairs take the open test, which never hits a point. One
    pass of the sweep of :func:`count_crossings` (:func:`_hits`) decides
    all pairs.

    A boundary loop never repeats a vertex, so on a loop the pairs that
    share an index are the adjacent ones, and 0 means the loop is a simple
    polygon; on three edges every pair is adjacent, and 0 means the three
    vertices are distinct and not collinear. On the whole 1-skeleton of a
    one-signed drawing, 0 means the drawing is injective: the link of a
    vertex whose star wraps more than once is not a simple polygon, so its
    edges would meet, and a vertex drawn inside a triangle it does not
    belong to could reach that triangle's corners only along edges inside
    it, which a one-to-one star at the corner does not allow. A pair hit by
    the open test is one that :func:`count_crossings` counts, so on edges
    with no crossing the count is the number of touches.
    """
    hits, points = _hits(np.asarray(edges, dtype=np.int64), coords, touching=True)
    return points + len(hits)


def crossing_locations(edges, coords, pairs) -> np.ndarray:
    """Approximate intersection points for reported crossing pairs.

    Float arithmetic is fine here: the points only place markers on a
    drawing, they carry no certification weight. Collinear overlaps get the
    midpoint of the shared interval. Ids follow :func:`count_crossings`.
    """
    p = np.asarray(coords, dtype=float)
    e = integer_ids(edges, "edge vertex ids", p.shape[0])
    ij = integer_ids(pairs, "edge pair ids", e.shape[0]).reshape(-1, 2)
    # (pair, edge, end, coordinate): edge i runs from a to b, edge j from c
    ends = p[e[ij]]
    a, b, c = ends[:, 0, 0], ends[:, 0, 1], ends[:, 1, 0]
    r, s = b - a, ends[:, 1, 1] - c
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    # parallel pairs: the overlap's midpoint on the axis where they spread
    # more; each where() keeps the first of equal values, as min and max do
    rows, axis = np.arange(len(ij)), np.argmax(np.maximum(abs(r), abs(s)), axis=1)
    x = ends[rows, :, :, axis]  # (pair, edge, end)
    low = np.where(x[..., 1] < x[..., 0], x[..., 1], x[..., 0])
    high = np.where(x[..., 1] > x[..., 0], x[..., 1], x[..., 0])
    lo = np.where(low[:, 1] > low[:, 0], low[:, 1], low[:, 0])
    hi = np.where(high[:, 1] < high[:, 0], high[:, 1], high[:, 0])
    r_axis = r[rows, axis]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = c - a
        cross = (u[:, 0] * s[:, 1] - u[:, 1] * s[:, 0]) / denom
        t = np.where(denom != 0.0, cross, (0.5 * (lo + hi) - x[:, 0, 0]) / r_axis)
        point = a + t[:, None] * r
    # an edge i with no extent on that axis marks its own midpoint
    own = (denom == 0.0) & (r_axis == 0.0)
    return np.where(own[:, None], 0.5 * (a + b), point)


def orientation_histogram(mesh: SimplicialMesh, coords: np.ndarray) -> tuple[int, int, int]:
    """Classify simplex image volumes as (positive, negative, near-zero).

    The mesh orientation is first canonicalized combinatorially, so a
    consistently mapped mesh lands in a single sign bucket regardless of
    stored vertex order. One filtered pass of
    :func:`~fplm.geometry.simplex_determinants` gives every image's
    determinant and, for all but near-degenerate images, its exact sign. A
    simplex is near-zero when its absolute volume, det / d!, is below
    ``NEAR_ZERO_TOL`` times (embedding bounding-box diameter)^d; the other
    images the filter left undecided get their sign from the exact integer
    stage (:func:`~fplm.geometry.exact_orientations`). A diameter^d that is
    not a finite double raises ``ValueError``: the near-zero band would be
    infinite or meaningless.
    """
    coords = np.asarray(coords, dtype=float)
    d = mesh.intrinsic_dim
    if coords.shape != (mesh.n_vertices, d):
        raise ValueError(
            f"coords must be ({mesh.n_vertices}, {d}), got {coords.shape}"
        )
    diam = bbox_diameter(coords)
    with np.errstate(over="ignore"):
        scale = np.float64(diam) ** d
    if scale == np.inf:
        raise ValueError(
            f"embedding bounding-box diameter {diam:.3e} to the power d = {d} "
            "is not a finite double; scale the coordinates down"
        )
    det, signs, undecided = simplex_determinants(coords, mesh.simplices)
    near = np.abs(det / math.factorial(d)) < NEAR_ZERO_TOL * scale
    settle = np.flatnonzero(~near & undecided)
    if settle.size:
        signs[settle] = exact_orientations(coords, mesh.simplices[settle])
    signs *= canonical_orientation(mesh)
    signs[near] = 0
    pos = int(np.count_nonzero(signs > 0))
    neg = int(np.count_nonzero(signs < 0))
    counts = _Counts((pos, neg, mesh.n_simplices - pos - neg))
    counts.signs = signs
    return counts


class _Counts(tuple):
    """The (positive, negative, near-zero) counts of
    :func:`orientation_histogram`, a plain 3-tuple to every caller, that
    also carry ``signs``: each simplex's oriented sign as int8, 0 where it
    was counted near-zero. :func:`audit` reads the outer simplex of a
    closed mesh and the near-zero rows whose exact signs it checks from
    them, so the histogram's pass, the layer the benchmark traces by name,
    runs once."""


def check_hull_containment(
    fixed: FixedPointSet, coords: np.ndarray, free_indices
) -> float:
    """Largest signed distance of a vertex of ``free_indices`` outside
    conv(fixed targets).

    Negative values mean every vertex evaluated lies strictly inside the
    hull. Every vertex passed is evaluated against every facet; :func:`audit`
    passes only the free vertices that can attain the maximum (see
    :func:`_hull_candidates` and :func:`_free_hull_vertices`). Defined for
    d in {2, 3}; raises for other dimensions or affinely degenerate
    targets. d + 1 targets, the seed simplex of a closed mesh, get their
    facets in closed form (:func:`_simplex_facets`); more go to qhull.
    """
    coords = np.asarray(coords, dtype=float)
    d = fixed.dim
    if d not in (2, 3):
        raise ValueError(f"hull containment is defined for d in {{2, 3}}, got {d}")
    if fixed.targets.shape[0] == d + 1:
        equations = _simplex_facets(fixed.targets)
    else:
        from scipy.spatial import ConvexHull, QhullError

        try:
            equations = ConvexHull(fixed.targets).equations
        except QhullError:
            equations = None
    if equations is None:
        raise ValueError(
            "fixed targets are affinely degenerate; no full-dimensional hull"
        )
    free_indices = integer_ids(free_indices, "free vertex ids", coords.shape[0])
    if free_indices.size == 0:
        return float("-inf")
    pts = coords[free_indices]
    # equations rows are unit outward normals with offsets: n.x + b <= 0
    normals = equations[:, :d].T
    offsets = equations[:, d]
    # blocks of about _HULL_ENTRIES products instead of one P x F array,
    # reduced to each facet's largest product; its offset is added once.
    # Rounding is monotone, so max_i fl(p_i + b) = fl(max_i p_i + b), and
    # the value is the one the full P x F array of distances gives
    block = max(1, _HULL_ENTRIES // offsets.size)
    top = np.full(offsets.size, -np.inf)
    for r0 in range(0, pts.shape[0], block):
        np.maximum(top, (pts[r0 : r0 + block] @ normals).max(axis=0), out=top)
    return float((top + offsets).max())


# products per hull block (512 KiB): F facets take budget // F rows
# a block, 62 on the 1,052 facets of ball3 10, all rows on a 3-facet hull
_HULL_ENTRIES = 2**16


def _simplex_facets(corners) -> np.ndarray | None:
    """The facets of the d-simplex ``corners`` (d + 1, d), d in {2, 3}.

    Row i holds the unit outward normal n and the offset b of the facet
    opposite corner i, so n.x + b <= 0 inside, as in qhull's ``equations``.
    The formula is qhull's own (``qh_sethyperplane_det``): the cofactor
    vector of the facet's edges from its first corner a, divided by its
    length, and b = -(a . n). So the rows equal qhull's up to the rounding
    of the corner qhull starts from, and bit for bit on
    :func:`~fplm.mapping.regular_simplex` for d = 2 and 3. The raw normal
    satisfies n . (x - a) = det[edges; x - a], which at corner i is s (-1)^(d
    - i) for the exact orientation s of the simplex, so that sign, negated,
    turns it outward. A flat simplex (s = 0) has no facets: None.
    """
    d = corners.shape[1]
    s = int(exact_orientations(corners, np.arange(d + 1)[None])[0])
    if s == 0:
        return None
    facet = corners[[[j for j in range(d + 1) if j != i] for i in range(d + 1)]]
    e = facet[:, 1:] - facet[:, :1]
    if d == 2:
        n = np.column_stack([-e[:, 0, 1], e[:, 0, 0]])
    else:
        n = np.cross(e[:, 0], e[:, 1])
    n *= (-s * (-1) ** (d - np.arange(d + 1)))[:, None]
    n /= np.sqrt((n * n).sum(axis=1))[:, None]
    return np.column_stack([n, -(facet[:, 0] * n).sum(axis=1)])


# orientation_histogram's near-zero volume gate, times (bbox diameter)^d
NEAR_ZERO_TOL = 1e-12

# the most negative normalized boundary turn (sine of the turn angle) that
# check_boundary_convexity still counts as convex
CONVEXITY_TOL = 1e-9


def check_boundary_convexity(cycle, coords: np.ndarray) -> BoundaryConvexityResult:
    """Do all boundary turns share the winding sign of the loop?

    Cross products of consecutive cycle edges are normalized by the edge
    lengths (giving the sine of the turn angle) and compared against the
    loop's dominant winding from the shoelace area. The loop is convex when
    the worst normalized turn is not below -``CONVEXITY_TOL``.
    """
    cycle = integer_ids(cycle, "boundary cycle vertex ids", len(coords))
    if cycle.ndim != 1 or len(cycle) < 3:
        raise ValueError("boundary cycle needs at least 3 vertices")
    p = np.asarray(coords, dtype=float)[cycle]
    nxt = np.roll(p, -1, axis=0)
    edges = nxt - p
    area2 = float(np.sum(p[:, 0] * nxt[:, 1] - nxt[:, 0] * p[:, 1]))
    winding = 1.0 if area2 >= 0.0 else -1.0
    prev_edges = np.roll(edges, 1, axis=0)
    cross = prev_edges[:, 0] * edges[:, 1] - prev_edges[:, 1] * edges[:, 0]
    norms = np.linalg.norm(prev_edges, axis=1) * np.linalg.norm(edges, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        turns = np.where(norms > 0.0, cross / np.where(norms > 0, norms, 1.0), 0.0)
    turns = winding * turns
    worst_pos = int(np.argmin(turns))
    worst = float(turns[worst_pos])
    convex = worst >= -CONVEXITY_TOL
    return BoundaryConvexityResult(
        convex=convex,
        worst=worst,
        reflex_vertex=None if convex else int(cycle[worst_pos]),
    )


def convex_combination_residual(
    graph: WeightedGraph,
    coords: np.ndarray,
    free_indices,
) -> float:
    """Max distance of a free vertex from its weighted neighbor average.

    At the optimum every free vertex satisfies y_i = sum_j lambda_ij y_j
    with lambda_ij = w_ij / deg_i over all neighbors j; this returns the
    largest Euclidean deviation from that identity.
    """
    coords = np.asarray(coords, dtype=float)
    free_indices = integer_ids(free_indices, "free vertex ids", coords.shape[0])
    if free_indices.size == 0:
        return 0.0
    # the free rows of the full product equal the product of the extracted
    # free rows bit for bit, and extracting sparse rows costs more than the
    # extra rows
    averages = (
        (graph.adjacency @ coords)[free_indices] / graph.degrees[free_indices, None]
    )
    deviation = np.linalg.norm(coords[free_indices] - averages, axis=1)
    return float(deviation.max())


def audit(
    mesh: SimplicialMesh,
    embedding,
    *,
    graph: WeightedGraph | None = None,
) -> ValidityReport:
    """Run every applicable check and render the verdict.

    ``embedding`` is either an :class:`Embedding` (full audit, including
    hull containment and, with ``graph``, the convex-combination residual)
    or a bare (N, d) coordinate array, e.g. a third-party embedding read
    from CSV, in which case only the geometric checks run. Non-finite
    coordinates raise ``ValueError``.

    On a closed mesh one simplex image, fplm's seed, covers the rest of the
    drawing with opposite orientation: it plays the role of the removed
    outer face. The histogram names it: when exactly one counted simplex
    has the minority sign and more than one has the other, that simplex is
    the outer one, reported as ``outer_simplex`` and left out of the
    counts. Every simplex of an open mesh is audited.

    For d = 2 the orientation histogram runs first; when the counted images
    share one sign, the near-zero rows alone take the exact stage to be
    compared with it. A closed mesh with an outer simplex whose other exact
    signs all agree, near-zero images included, is decided by the histogram
    alone: the images' signed areas sum to 0, so the outer loop is simple.
    An open drawing bounded by one loop whose exact signs all agree is
    decided on that loop; a one-signed drawing with no loop, on one sweep
    of all its edges (the certificate of the module docstring). Every other
    drawing, and one that fails its plane test, gets the full crossing
    count for its report.

    The hull check evaluates only the free vertices that can lie farthest
    outside the fixed targets' hull when the histogram finds one exact sign
    and no near-zero image: those next to a fixed vertex, on the boundary,
    in the outer simplex or in no simplex. Every other free vertex lies
    strictly inside the hull of its free neighbours, so skipping it leaves
    the maximum unchanged (see :func:`_hull_candidates`). Any other drawing
    has the vertices of the free vertices' own convex hull evaluated
    (:func:`_free_hull_vertices`).
    """
    d = mesh.intrinsic_dim
    if isinstance(embedding, Embedding):
        coords = embedding.coords
        emb = embedding
    else:
        coords = np.asarray(embedding, dtype=float)
        emb = None
    if coords.shape != (mesh.n_vertices, d):
        raise ValueError(
            f"embedding must be ({mesh.n_vertices}, {d}), got {coords.shape}"
        )
    if not np.isfinite(coords).all():
        raise ValueError("embedding coordinates must be finite (found NaN or inf)")

    boundary = detect_boundary(mesh)
    counts = orientation_histogram(mesh, coords)
    pos, neg, zero = counts
    outer = None
    if boundary.boundary_vertices.size == 0 and min(pos, neg) == 1 < max(pos, neg):
        # the one simplex of the minority sign is the closed mesh's outer one
        minority = 1 if pos == 1 else -1
        outer = int(np.flatnonzero(counts.signs == minority)[0])
        pos, neg = (0, neg) if pos == 1 else (pos, 0)
    one_sign = zero == 0 and (pos > 0) != (neg > 0)

    reasons: list[str] = []
    simple = True
    touches = 0
    if d == 2:
        cycles = boundary.boundary_cycles
        loop = outer is not None or len(cycles) == 1
        plane = loop and one_sign
        if loop and zero and (pos > 0) != (neg > 0):
            # near-zero images still meet the degree theorem when their exact
            # signs agree with the rest; the verdict stays violated below
            near = counts.signs == 0
            exact = exact_orientations(coords, mesh.simplices[near])
            plane = bool((canonical_orientation(mesh)[near] * exact == (1 if pos else -1)).all())
        # an open mesh's boundary cycle takes the plane test; a closed mesh's
        # outer loop needs none: the exact signed areas of a closed,
        # consistently oriented surface's images sum to 0, so with the rest
        # one-signed the outer image has the other sign and is not flat
        if plane and outer is None:
            cycle = np.asarray(cycles[0])
            simple = plane = not _meetings(np.column_stack([cycle, np.roll(cycle, -1)]), coords)
        if one_sign and not loop:
            # with no loop to test, the whole 1-skeleton takes the plane test
            touches = _meetings(mesh_edges(mesh), coords)
            plane = not touches
        # a plane drawing is injective, so no edges cross
        crossing = CrossingResult(0, ()) if plane else count_crossings(mesh_edges(mesh), coords)
        crossing_count: int | None = crossing.count
        crossing_pairs = crossing.pairs
        if crossing.count:
            reasons.append(f"{crossing.count} edge crossing(s)")
        if not simple:
            # an injective map keeps its boundary loop simple
            reasons.append("boundary loop image is not simple")
        if touches and not crossing.count:
            # with a crossing the plane test's count is not the touch count
            reasons.append(f"{touches} touching edge pair(s)")
    else:
        crossing_count = None
        crossing_pairs = ()

    if zero:
        reasons.append(f"{zero} near-degenerate simplex image(s)")
    if pos and neg:
        reasons.append(
            f"mixed orientations: {pos} positive vs {neg} negative"
        )

    hull_violation = None
    max_convex_residual = None
    boundary_convexity = None
    if emb is not None:
        final_fixed = emb.fixed_round2 or emb.fixed_round1
        is_free = np.ones(mesh.n_vertices, dtype=bool)
        is_free[final_fixed.indices] = False
        free = np.flatnonzero(is_free)
        candidates = (
            _hull_candidates(mesh, boundary, is_free, outer)
            if one_sign
            else _free_hull_vertices(coords, free)
        )
        hull_violation = check_hull_containment(final_fixed, coords, candidates)
        if graph is not None:
            max_convex_residual = convex_combination_residual(
                graph, coords, free
            )
    if d == 2 and len(boundary.boundary_cycles) == 1:
        boundary_convexity = check_boundary_convexity(
            boundary.boundary_cycles[0], coords
        )

    certified = one_sign and not crossing_count and simple and not touches
    return ValidityReport(
        crossing_count=crossing_count,
        crossing_pairs=crossing_pairs,
        orientation_counts=(pos, neg, zero),
        max_convex_residual=max_convex_residual,
        hull_violation=hull_violation,
        boundary_convexity=boundary_convexity,
        verdict="injective-certified" if certified else "violated",
        reasons=tuple(reasons),
        outer_simplex=outer,
    )


def _hull_candidates(mesh: SimplicialMesh, boundary, is_free, outer) -> np.ndarray:
    """The free vertices of a one-signed drawing that can attain the maximum
    of :func:`check_hull_containment`.

    These are the free vertices next to a fixed vertex, on the mesh
    boundary, in the outer simplex ``outer`` (None for none), or in no
    simplex at all. The other free vertices, called sealed here, are
    dropped without changing the maximum.

    Proof. Take a sealed vertex v. The audit found no near-zero image and
    one exact sign across the audited simplices (all but ``outer``), which
    include every simplex of v's star. :func:`canonical_orientation` orients
    the simplices consistently and v is not on the boundary, so every face
    through v joins two star simplices and cancels in the boundary of the
    star: that boundary is the link of v. No star image is flat, so the
    link's image misses v, and its winding number w about points near v is
    constant. About a point that no face image holds, w counts the star
    images that cover it with their signs, which are all equal; a point
    inside one star image near v gives w >= 1. (Floater, "One-to-one
    piecewise linear mappings over triangulations", Math. Comp. 2003, rests
    on the same fact.) If v were not strictly inside the hull of its
    neighbours, some n != 0 would have n . (u - v) <= 0 for every neighbour
    u; the open half-space n . (x - v) > 0 would then meet no star image,
    and points in it near v would have w = 0. So v is strictly inside the
    hull of its neighbours, which are all free, and for every facet some
    neighbour has a strictly larger signed distance. A walk along such
    neighbours never repeats a vertex, so it ends at a free vertex that is
    not sealed, and the maximum over the candidates is the maximum over all
    free vertices. In floating point each distance is one rounded dot
    product, so a sealed vertex can only tie the reported maximum to
    within the rounding of one dot product.
    """
    # the edges' ends in pairs: end k ^ 1 is the other end of the edge of end k
    ends = mesh_edges(mesh).ravel()
    sealed = np.zeros(mesh.n_vertices, dtype=bool)
    sealed[ends] = True
    sealed[ends[np.flatnonzero(~is_free[ends]) ^ 1]] = False
    sealed[boundary.boundary_vertices] = False
    if outer is not None:
        sealed[mesh.simplices[outer]] = False
    return np.flatnonzero(is_free & ~sealed)


def _free_hull_vertices(coords: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The free vertices at the corners of their own convex hull, ascending.

    Every facet's signed distance is a linear function of the point, and a
    linear function's maximum over a point set is reached at a vertex of
    the set's hull, so :func:`check_hull_containment` gives the maximum over
    all free vertices from these alone, up to rounding: a skipped point can
    tie it only to within one dot product's rounding plus qhull's precision,
    within which qhull may leave a point off the hull. All free vertices
    are returned when there is no hull to build: none or too few of them,
    or all on one hyperplane.
    """
    from scipy.spatial import ConvexHull, QhullError

    if free.size == 0:
        return free
    try:
        hull = ConvexHull(coords[free])
    except QhullError:
        return free
    return free[np.sort(hull.vertices)]
