import numpy as np
import pytest

from branchflow import hausdorff
from branchflow.graphs import Edge, WeightedDigraph
from branchflow.hausdorff import points_to_segments, sample_points


def segment(y=0.0, x0=0.0, x1=1.0, weight=1.0):
    pos = np.array([[x0, y], [x1, y]])
    return WeightedDigraph(pos, ("source", "sink"),
                           (Edge(0, 1, weight, abs(x1 - x0)),))


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

    def test_finer_resolution_tightens_the_estimate(self):
        g1 = segment(y=0.0)
        g2 = segment(y=0.25)
        coarse = hausdorff(g1, g2, resolution=0.2)
        fine = hausdorff(g1, g2, resolution=1e-4)
        assert abs(fine - 0.25) <= abs(coarse - 0.25) + 1e-12
        assert fine == pytest.approx(0.25, abs=1e-4)

    def test_dimension_mismatch_rejected(self):
        g2 = segment()
        pos3 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        g3 = WeightedDigraph(pos3, ("source", "sink"), (Edge(0, 1, 1.0, 1.0),))
        with pytest.raises(ValueError, match="dimension"):
            hausdorff(g2, g3)

    @pytest.mark.parametrize("resolution", [0.0, -1.0, np.nan, np.inf])
    def test_resolution_must_be_finite_and_positive(self, resolution):
        with pytest.raises(ValueError, match="resolution must be finite and positive"):
            hausdorff(segment(), segment(y=0.5), resolution)

    def test_empty_graph_rejected(self):
        empty = WeightedDigraph(np.zeros((1, 2)), ("source",), ())
        with pytest.raises(ValueError):
            hausdorff(segment(), empty)


class TestSampling:
    def test_sample_points_cover_endpoints(self):
        pts = sample_points(segment(x1=2.0), resolution=0.3)
        assert any(np.allclose(p, [0.0, 0.0]) for p in pts)
        assert any(np.allclose(p, [2.0, 0.0]) for p in pts)
        gaps = np.diff(np.sort(pts[:, 0]))
        assert gaps.max() <= 0.3 + 1e-12

    def test_point_to_segment_distance_is_exact(self):
        A = np.array([[0.0, 0.0]])
        B = np.array([[2.0, 0.0]])
        pts = np.array([[1.0, 1.0], [-1.0, 0.0], [3.0, 4.0]])
        d = points_to_segments(pts, A, B)
        assert d == pytest.approx([1.0, 1.0, np.hypot(1.0, 4.0)])
