import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchflow import hausdorff
from branchflow.hausdorff import _directed, points_to_segments
from conftest import graph_of


def segment(y=0.0, x0=0.0, x1=1.0, weight=1.0):
    pos = np.array([[x0, y], [x1, y]])
    return graph_of(pos, ("source", "sink"), [(0, 1, weight, abs(x1 - x0))])


def polyline(points):
    """Edges 0 -> 1 -> ... through the points."""
    n = len(points)
    return graph_of(points, ("free",) * n, [(v, v + 1, 1.0, 1.0) for v in range(n - 1)])


def diameter(g1, g2):
    P = np.vstack([g1.positions, g2.positions])
    return float(np.linalg.norm(P.max(axis=0) - P.min(axis=0)))


def sampled_directed(g1, g2, resolution):
    """Reference: g1's edges sampled at spacing <= resolution, ends included,
    with exact distances to g2's segments, one segment at a time.  Every
    point of an edge lies within resolution / 2 of a sample, so this is at
    most resolution / 2 below the directed distance, and never above it."""
    samples = []
    for a, b in zip(g1.positions[g1.tail], g1.positions[g1.head]):
        steps = max(1, math.ceil(float(np.linalg.norm(b - a)) / resolution))
        samples.append(a + np.linspace(0.0, 1.0, steps + 1)[:, None] * (b - a))
    points = np.vstack(samples)
    best = np.full(len(points), np.inf)
    for a, b in zip(g2.positions[g2.tail], g2.positions[g2.head]):
        d = b - a
        denom = float(d @ d)
        t = np.clip((points - a) @ d / denom, 0.0, 1.0) if denom else np.zeros(len(points))
        best = np.minimum(best, np.linalg.norm(points - (a + t[:, None] * d), axis=1))
    return float(best.max())


def sampled(g1, g2, resolution):
    return max(sampled_directed(g1, g2, resolution), sampled_directed(g2, g1, resolution))


@st.composite
def graph_pairs(draw):
    """Two small graphs in one dimension d in {1, 2, 3}.  Vertices sit on a
    half-integer lattice or anywhere in a box, so edges share ends, overlap
    on one line, cross, repeat and shrink to points (tail == head)."""
    dim = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())

    def graph():
        V = int(rng.integers(1, 6))
        if lattice:
            pos = rng.integers(-2, 3, size=(V, dim)) / 2.0
        else:
            pos = rng.uniform(-2.0, 2.0, size=(V, dim))
        edges = [(int(rng.integers(V)), int(rng.integers(V)), 1.0, 1.0)
                 for _ in range(int(rng.integers(1, 6)))]
        return graph_of(pos, ("free",) * V, edges)

    return graph(), graph()


def relabelled(g, rng):
    """The same segment union: vertices and edges permuted, some edges reversed."""
    V = g.n_vertices
    new_id = rng.permutation(V)
    pos = np.empty_like(g.positions)
    pos[new_id] = g.positions
    flip = rng.random(g.n_edges) < 0.5
    tail = np.where(flip, g.head, g.tail)
    head = np.where(flip, g.tail, g.head)
    order = rng.permutation(g.n_edges)
    edges = [(int(new_id[tail[e]]), int(new_id[head[e]]), 1.0, 1.0) for e in order]
    return graph_of(pos, ("free",) * V, edges)


class TestHausdorff:
    def test_identical_graphs_give_zero(self):
        g = segment()
        assert hausdorff(g, g) <= 1e-12

    def test_parallel_segments_offset(self):
        d = hausdorff(segment(y=0.0), segment(y=0.3))
        assert d == pytest.approx(0.3, abs=1e-3)

    def test_symmetry(self, rng):
        g1 = segment(y=0.0, x1=2.0)
        g2 = segment(y=0.5, x0=0.5, x1=1.5)
        assert hausdorff(g1, g2) == pytest.approx(hausdorff(g2, g1))

    def test_subset_distance_comes_from_the_larger_set(self):
        # short middle piece vs full segment: sup over the full side dominates
        whole = segment(x0=0.0, x1=2.0)
        middle = segment(x0=0.9, x1=1.1)
        assert hausdorff(whole, middle) == pytest.approx(0.9, abs=1e-3)

    def test_dimension_mismatch_rejected(self):
        g2 = segment()
        pos3 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        g3 = graph_of(pos3, ("source", "sink"), [(0, 1, 1.0, 1.0)])
        with pytest.raises(ValueError, match="dimension"):
            hausdorff(g2, g3)

    def test_empty_graph_rejected(self):
        empty = graph_of(np.zeros((1, 2)), ("source",))
        with pytest.raises(ValueError):
            hausdorff(segment(), empty)

    def test_point_to_segment_distance_is_exact(self):
        A = np.array([[0.0, 0.0]])
        B = np.array([[2.0, 0.0]])
        pts = np.array([[1.0, 1.0], [-1.0, 0.0], [3.0, 4.0]])
        d = points_to_segments(pts, A, B)
        assert d == pytest.approx([1.0, 1.0, np.hypot(1.0, 4.0)])

    def test_point_to_segment_coordinate_mismatch_rejected(self):
        # summed one coordinate at a time, the distance would read only the
        # points' coordinates and pass over the segments' third one
        A2, B2 = np.zeros((1, 2)), np.array([[2.0, 0.0]])
        A3, B3 = np.zeros((1, 3)), np.array([[2.0, 0.0, 5.0]])
        for pts, A, B in ((np.ones((3, 2)), A3, B3), (np.ones((3, 3)), A2, B2),
                          (np.ones((3, 2)), A2[:, :1], B2)):
            with pytest.raises(ValueError, match="coordinates"):
                points_to_segments(pts, A, B)

    def test_memory_stays_bounded_on_large_graphs(self):
        # two closed curves of 200 edges each: 179,100 piece pairs per edge,
        # 36 million (0.9 GB of coefficients) for all edges of one graph;
        # held one edge at a time they stay far below that
        rng = np.random.default_rng(5)
        s = np.linspace(0.0, 2.0 * np.pi, 201)
        g1 = polyline(np.c_[np.cos(s), np.sin(s)])
        g2 = polyline(np.c_[1.1 * np.cos(s + 0.01), np.sin(s + 0.01)]
                      + rng.normal(scale=0.01, size=(201, 2)))
        tracemalloc.start()
        try:
            exact = hausdorff(g1, g2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        diam = diameter(g1, g2)
        reference = sampled(g1, g2, 1e-3 * diam)
        assert exact >= reference - 1e-12 * diam
        assert exact - reference <= 0.5e-3 * diam + 1e-12 * diam


class TestExactValues:
    """Hand-checked distances, each asserted to the last few bits."""

    def test_parallel_segments_at_half_offset(self):
        assert hausdorff(segment(y=0.0), segment(y=0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_segment_against_its_own_half(self):
        # the far end (2, 0) is 1 from [0, 1]; [0, 1] lies on [0, 2]
        assert hausdorff(segment(x1=2.0), segment(x1=1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_shared_endpoints(self):
        # path (0,0) -> (1,0) -> (1,1) against its chord: the corner is
        # 1/sqrt(2) from the chord, and the chord's midpoint is 1/2 from both
        # path edges
        path = polyline(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        chord = polyline(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert hausdorff(path, chord) == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_maximum_between_two_nearest_segments(self):
        # a segment against its two ends as zero-length edges: the midpoint,
        # 1 from both, is the only farthest point, so samples that miss it
        # (thirds of the segment) fall short
        ends = graph_of(np.array([[0.0, 0.0], [2.0, 0.0]]), ("free", "free"),
                        [(0, 0, 1.0, 0.0), (1, 1, 1.0, 0.0)])
        whole = segment(x1=2.0)
        assert hausdorff(whole, ends) == pytest.approx(1.0, abs=1e-15)
        assert sampled(whole, ends, 0.7) == pytest.approx(2.0 / 3.0)

    def test_maximum_where_two_segment_interiors_are_nearest(self):
        # [0, 2] on the x-axis between two uprights at x = -1 and x = 3: the
        # midpoint (1, 0) is 2 from the inside of both, which their ends
        # (at most sqrt(2) from the axis segment) do not reach
        axis = segment(x1=2.0)
        uprights = graph_of(np.array([[-1.0, -0.5], [-1.0, 1.0], [3.0, -1.0], [3.0, 0.5]]),
                            ("free",) * 4, [(0, 1, 1.0, 1.5), (2, 3, 1.0, 1.5)])
        assert hausdorff(axis, uprights) == pytest.approx(2.0, abs=1e-15)

    def test_segment_far_from_both_ends_can_be_nearest(self):
        # along [0, 2]: the point (0, 0), the point (1.5, 0.3) and the bar
        # y = 0.85 over the whole edge.  The point (1.5, 0.3) is more than
        # 0.85 from both ends of the edge, yet it is nearest in the middle,
        # and the farthest point, x = 0.78, is where it takes over from
        # (0, 0).  (The bar's own ends make the symmetric distance 0.85.)
        edge = segment(x1=2.0)
        others = graph_of(np.array([[0.0, 0.0], [1.5, 0.3], [0.0, 0.85], [2.0, 0.85]]),
                          ("free",) * 4, [(0, 0, 1.0, 0.0), (1, 1, 1.0, 0.0), (2, 3, 1.0, 2.0)])
        assert _directed(edge, others) == pytest.approx(0.78, abs=1e-15)

    def test_collinear_overlapping_segments(self):
        assert hausdorff(segment(x0=0.0, x1=2.0), segment(x0=1.0, x1=3.0)) == pytest.approx(
            1.0, abs=1e-15)
        # one line cut in two places against the whole: the same point set
        pieces = polyline(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
        assert hausdorff(pieces, segment(x1=3.0)) <= 1e-15

    def test_zero_length_edges_on_either_side(self):
        point = graph_of(np.array([[1.0, 1.0]]), ("free",), [(0, 0, 1.0, 0.0)])
        base = segment(x1=2.0)
        # the point is 1 from the segment; the segment's ends are sqrt(2) from it
        assert hausdorff(point, base) == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert hausdorff(base, point) == hausdorff(point, base)
        assert hausdorff(point, point) == 0.0


class TestAgainstSampling:
    @given(graph_pairs())
    def test_exact_brackets_dense_sampling(self, pair):
        # each directed distance on its own, so that neither hides the other
        g1, g2 = pair
        diam = diameter(g1, g2)
        resolution = diam / 4096 if diam else 1.0
        for exact, reference in ((_directed(g1, g2), sampled_directed(g1, g2, resolution)),
                                 (_directed(g2, g1), sampled_directed(g2, g1, resolution)),
                                 (hausdorff(g1, g2), sampled(g1, g2, resolution))):
            assert exact >= reference - 1e-12 * diam
            assert exact - reference <= resolution / 2 + 1e-12 * diam

    @given(graph_pairs())
    def test_symmetric(self, pair):
        g1, g2 = pair
        assert hausdorff(g1, g2) == hausdorff(g2, g1)

    @given(graph_pairs())
    def test_zero_on_identical_graphs(self, pair):
        g, _ = pair
        assert hausdorff(g, g) <= 1e-12 * diameter(g, g)

    @given(graph_pairs(), st.integers(0, 2**32 - 1))
    def test_invariant_under_relabelling_and_reversal(self, pair, seed):
        g1, g2 = pair
        rng = np.random.default_rng(seed)
        diam = diameter(g1, g2)
        moved = hausdorff(relabelled(g1, rng), relabelled(g2, rng))
        assert abs(moved - hausdorff(g1, g2)) <= 1e-12 * diam
