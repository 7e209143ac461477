import numpy as np
import pytest

from branchflow import oracle, render, y_instance
from branchflow.render import render_svg
from conftest import graph_of


class TestRenderSvg:
    def test_y_network_has_arrows_and_terminals(self):
        sol = oracle(y_instance(), 2.0)
        svg = render_svg(sol.graph, q=2.0)
        assert svg.lstrip().startswith("<svg")
        assert svg.count("<line") == 3
        assert "marker-end" in svg  # arrows show flow direction
        assert svg.count("<circle") >= 3

    def test_stroke_width_tracks_edge_weight(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        roles = ("source", "free", "sink")
        g = graph_of(pos, roles, [(0, 1, 9.0, 1.0), (1, 2, 1.0, 1.0)])
        svg = render_svg(g, q=2.0)
        widths = [
            float(part.split('"')[1])
            for part in svg.split("stroke-width=")[1:]
        ]
        assert widths[0] > widths[1]

    def test_three_dimensional_graphs_rejected(self):
        pos = np.zeros((2, 3))
        g = graph_of(pos, ("source", "sink"), [(0, 1, 1.0, 1.0)])
        with pytest.raises(ValueError, match="plane"):
            render_svg(g)

    def test_render_writes_file(self, tmp_path):
        sol = oracle(y_instance(), 2.0)
        out = tmp_path / "y.svg"
        render(sol.graph, out, q=2.0)
        assert out.read_text().lstrip().startswith("<svg")
