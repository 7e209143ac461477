"""Hausdorff distance between embedded graphs, viewed as segment unions.

The distance is the usual max of the two directed sup-inf distances
between the closed point sets swept by the edges.  One side of each
directed distance is discretized (edge samples at spacing <= resolution)
while point-to-segment distances stay exact, so the result overshoots
the true value by at most the sampling resolution and never undershoots
by more than that.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import WeightedDigraph
from .measures import InvalidConfigError

DEFAULT_RESOLUTION_FRACTION = 1e-4


def check_resolution(resolution: float) -> None:
    """Raise InvalidConfigError (a ValueError) unless the sampling
    resolution is finite and positive."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise InvalidConfigError(
            f"Hausdorff resolution must be finite and positive, got {resolution}")


def _segments(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray]:
    """Edge endpoint arrays (A, B), one row per edge."""
    if not g.edges:
        raise ValueError("graph has no edges; Hausdorff distance undefined")
    A = np.array([g.positions[e.tail] for e in g.edges], dtype=float)
    B = np.array([g.positions[e.head] for e in g.edges], dtype=float)
    return A, B


def sample_points(g: WeightedDigraph, resolution: float) -> np.ndarray:
    """Points covering every edge at spacing <= resolution (endpoints included)."""
    A, B = _segments(g)
    rows = []
    for a, b in zip(A, B):
        length = float(np.linalg.norm(b - a))
        steps = max(1, int(np.ceil(length / resolution)))
        t = np.linspace(0.0, 1.0, steps + 1)
        rows.append(a + t[:, None] * (b - a))
    return np.vstack(rows)


def points_to_segments(points: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest closed segment [A_i, B_i]."""
    best = np.full(points.shape[0], np.inf)
    for a, b in zip(A, B):
        d = b - a
        denom = float(d @ d)
        if denom == 0.0:
            dist = np.linalg.norm(points - a, axis=1)
        else:
            t = np.clip((points - a) @ d / denom, 0.0, 1.0)
            feet = a + t[:, None] * d
            dist = np.linalg.norm(points - feet, axis=1)
        np.minimum(best, dist, out=best)
    return best


def _combined_diameter(g1: WeightedDigraph, g2: WeightedDigraph) -> float:
    P = np.vstack([g1.positions, g2.positions])
    return float(np.linalg.norm(P.max(axis=0) - P.min(axis=0)))


def hausdorff(
    g1: WeightedDigraph, g2: WeightedDigraph, resolution: float | None = None
) -> float:
    """Hausdorff distance between the segment unions of two graphs.

    resolution defaults to (combined bounding-box diameter) * 1e-4.
    Symmetric by construction; 0 exactly when each sampled set lies on
    the other graph's segments.
    """
    if g1.dimension != g2.dimension:
        raise ValueError("graphs live in different dimensions")
    if resolution is None:
        diam = _combined_diameter(g1, g2)
        resolution = max(diam * DEFAULT_RESOLUTION_FRACTION, 1e-12)
    check_resolution(resolution)
    A1, B1 = _segments(g1)
    A2, B2 = _segments(g2)
    p1 = sample_points(g1, resolution)
    p2 = sample_points(g2, resolution)
    d12 = float(points_to_segments(p1, A2, B2).max())
    d21 = float(points_to_segments(p2, A1, B1).max())
    return max(d12, d21)
