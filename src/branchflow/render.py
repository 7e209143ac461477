"""SVG rendering of embedded plane graphs.

Terminals draw as labeled disks (sources filled, sinks hollow), free
vertices as small dots, edges as arrows whose stroke width scales with
weight^(1/q).  Output is deterministic text, written atomically.
"""

from __future__ import annotations

import numpy as np

from .graphs import WeightedDigraph
from .measures import atomic_write_text, validate_exponent

_SOURCE_FILL = "#2563eb"
_SINK_FILL = "#ffffff"
_SINK_STROKE = "#dc2626"
_FREE_FILL = "#6b7280"
_EDGE_STROKE = "#111827"
_SIZE = 640  # width and height of the drawing, px


def render_svg(g: WeightedDigraph, q: float = 2.0) -> str:
    """SVG document for a 2-d graph; raises on other dimensions and on an
    exponent that is not finite and >= 1."""
    validate_exponent(q)
    if g.dimension != 2:
        raise ValueError(f"can only render plane graphs, got dimension {g.dimension}")
    if g.n_vertices == 0:
        raise ValueError("cannot render an empty graph")
    low = g.positions.min(axis=0)
    high = g.positions.max(axis=0)
    extent = np.maximum(high - low, 1e-9)
    pad = 0.12 * float(extent.max())
    low = low - pad
    span = float((extent + 2 * pad).max())
    scale = _SIZE / span

    def to_px(p: np.ndarray) -> tuple[float, float]:
        # flip y so larger coordinates draw upward
        x = (p[0] - low[0]) * scale
        y = _SIZE - (p[1] - low[1]) * scale
        return x, y

    wmax = max((e.weight ** (1.0 / q) for e in g.edges), default=1.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
        f'<path d="M 0 0 L 10 5 L 0 10 z" fill="{_EDGE_STROKE}"/></marker></defs>',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="#fafafa"/>',
    ]
    for e in g.edges:
        x1, y1 = to_px(g.positions[e.tail])
        x2, y2 = to_px(g.positions[e.head])
        width = 1.0 + 5.0 * (e.weight ** (1.0 / q)) / wmax
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{_EDGE_STROKE}" stroke-width="{width:.2f}" '
            'marker-end="url(#arrow)" stroke-linecap="round"/>'
        )
    for v in range(g.n_vertices):
        x, y = to_px(g.positions[v])
        role = g.roles[v]
        if role == "source":
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="7" fill="{_SOURCE_FILL}"/>'
            )
        elif role == "sink":
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="7" fill="{_SINK_FILL}" '
                f'stroke="{_SINK_STROKE}" stroke-width="2.5"/>'
            )
        else:
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{_FREE_FILL}"/>'
            )
        if role != "free":
            parts.append(
                f'<text x="{x + 9:.2f}" y="{y - 9:.2f}" font-family="sans-serif" '
                f'font-size="13" fill="#111827">{v}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(g: WeightedDigraph, out_path: str, q: float = 2.0) -> None:
    """Write the SVG for g to out_path (atomic replace)."""
    atomic_write_text(out_path, render_svg(g, q=q))
