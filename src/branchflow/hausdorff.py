"""Hausdorff distance between embedded graphs, viewed as segment unions.

The distance is the larger of the two directed distances, the sup over
the points x of one graph's edges of dist(x, other graph's segments).
Both are exact up to rounding (the method of Alt, Behrends & Blömer,
"Approximate matching of polygonal shapes", Ann. Math. Artif. Intell.
1995, for segment sets).

Along an edge a(t) = p + t v, t in [0, 1], the squared distance to one
segment of the other graph is convex in t, and at each t it is one of
three quadratics ("pieces"): |a(t) - tail|^2 where the segment's nearest
point is its tail, |a(t) - head|^2 where it is its head, and the squared
distance to the segment's line in between.  The distance to the graph is
the minimum over its segments.  Where one segment stays nearest, that
minimum is convex and peaks at an end of the stretch.  A stretch ends at
t = 0, at t = 1 or where another segment becomes nearest, and there a
piece of one segment equals a piece of the other: t is a real root in
[0, 1] of one of the 9 piece differences of the pair.  So the directed
distance is the largest exact distance (``points_to_segments``) over the
points at those t.  A root of a piece outside its own stretch, or of a
pair of which neither segment is nearest, only adds a point of the edge,
and no point of the edge lies farther than the sup.  Every point-segment
distance comes from ``transport._segment_offsets``, and every other length
from ``transport._squared_lengths``.

A segment whose distance along an edge never drops to another segment's
larger end distance is never nearest there, so it forms no pairs on that
edge.  With |E| segments that can be nearest on an edge, that edge has
9 |E| (|E| - 1) / 2 differences and up to twice as many points to
measure against the other graph's segments.  Edges are handled in
blocks of at most BLOCK pairs, or one at a time when one edge has more,
so memory is O(|E|^2) per edge however many edges the graphs have.
"""

from __future__ import annotations

import numpy as np

from .graphs import WeightedDigraph
from .transport import _segment_offsets, _squared_lengths

#: most point-segment or piece pairs held at once, unless one edge has more
BLOCK = 1 << 16


def _segments(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray]:
    """Edge endpoint arrays (A, B), one row per edge."""
    if not g.n_edges:
        raise ValueError("graph has no edges; Hausdorff distance undefined")
    return g.positions.take(g.tail, axis=0), g.positions.take(g.head, axis=0)


def points_to_segments(points: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest closed segment [A_i, B_i],
    taking the points in chunks of at most BLOCK point-segment pairs;
    ValueError when points and segments differ in coordinate count."""
    step = max(1, BLOCK // max(len(A), 1))
    D = B - A
    parts = [np.sqrt(_segment_offsets(points[lo:lo + step, None], A, D)[1].min(
        axis=1, initial=np.inf)) for lo in range(0, len(points), step)]
    return np.concatenate(parts) if parts else np.zeros(0)


def hausdorff(g1: WeightedDigraph, g2: WeightedDigraph) -> float:
    """Exact Hausdorff distance between the segment unions of two graphs.

    Symmetric; 0 when each graph's segments lie on the other's.  Raises
    ValueError for graphs in different dimensions or without edges.
    """
    if g1.dimension != g2.dimension:
        raise ValueError("graphs live in different dimensions")
    return max(_directed(g1, g2), _directed(g2, g1))


def _directed(g1: WeightedDigraph, g2: WeightedDigraph) -> float:
    """Largest distance from a point of g1's edges to g2's segments."""
    P, Q = _segments(g1)
    A, B = _segments(g2)
    V = Q - P
    ends = np.sqrt(_segment_offsets(np.concatenate([P, Q])[:, None], A, B - A)[1])
    near_p, near_q = ends[:len(P)], ends[len(P):]
    # each segment's distance is convex along an edge, so it peaks at an end
    # and the distance to g2 never exceeds the least such peak; it falls no
    # faster than the point moves, so nowhere below (near_p + near_q - L) / 2
    peak = np.maximum(near_p, near_q).min(axis=1)
    floor = 0.5 * (near_p + near_q - np.sqrt(_squared_lengths(V))[:, None])
    can_be_nearest = floor <= peak[:, None]
    # pairs of pieces of different segments; piece k belongs to segment k % m
    m = len(A)
    piece = np.arange(3 * m)
    i, j = np.nonzero((piece[:, None] < piece) & (piece[:, None] % m != piece % m))
    seg_i, seg_j = i % m, j % m
    best = float(ends.min(axis=1).max())
    step = max(1, BLOCK // max(len(i), 1))
    for lo in range(0, len(P), step):
        p, v, near = P[lo:lo + step], V[lo:lo + step], can_be_nearest[lo:lo + step]
        a, b, c = _pieces(p, v, A, B)
        rows, k = np.nonzero(near[:, seg_i] & near[:, seg_j])
        t = _unit_roots(a[rows, i[k]] - a[rows, j[k]], b[rows, i[k]] - b[rows, j[k]],
                        c[rows, i[k]] - c[rows, j[k]])
        found = t >= 0.0
        rows = np.concatenate([rows, rows])[found]
        points = p[rows] + t[found, None] * v[rows]
        if len(points):
            best = max(best, float(points_to_segments(points, A, B).max()))
    return best


def _pieces(
    P: np.ndarray, V: np.ndarray, A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients (a, b, c), each of shape (edges, 3 m) for m segments, of
    the squared-distance pieces a t^2 + b t + c along each edge P_e + t V_e:
    column k is the tail, head or line piece (k // m = 0, 1 or 2) of
    segment k % m."""
    D = B - A
    DD = _squared_lengths(D)
    # the part of x perpendicular to segment i's line is x - (x . D_i) along_i;
    # a segment of length 0 has no line, and its line piece repeats its tail
    along = np.divide(1.0, DD, out=np.zeros_like(DD), where=DD > 0)[:, None] * D
    W = P[:, None, :] - A
    offsets = np.concatenate(
        [W, P[:, None, :] - B, W - np.einsum("eij,ij->ei", W, D)[..., None] * along], axis=1)
    slopes = np.concatenate([np.tile(V[:, None, :], (1, 2 * len(A), 1)),
                             V[:, None, :] - (V @ D.T)[..., None] * along], axis=1)
    return (_squared_lengths(slopes),
            2.0 * np.einsum("eij,eij->ei", offsets, slopes),
            _squared_lengths(offsets))


def _unit_roots(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The roots in [0, 1] of each a t^2 + b t + c, first roots then second
    roots (2n values), with -1 where there is none; a polynomial that is
    identically 0 has none.

    A discriminant that rounds below zero counts as 0 and yields the
    vertex -b / 2a, an extra point at worst.  The roots are q / a and c / q
    with q = -(b + sign(b) sqrt(disc)) / 2, which cancels no digits, and a
    quotient is formed only where it lies in [-1, 1], so no division by
    zero and no overflow occurs.
    """
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
    roots = []
    for num, den in ((q, a), (c, q)):
        ok = (den != 0) & (np.abs(num) <= np.abs(den))
        roots.append(np.divide(num, den, out=np.full_like(num, -1.0), where=ok))
    return np.concatenate(roots)
