"""Hausdorff distance between embedded graphs, viewed as segment unions.

The distance is the usual max of the two directed sup-inf distances
between the closed point sets swept by the edges.  One side of each
directed distance is discretized (edge samples at spacing <= resolution)
while point-to-segment distances stay exact.  A sampled directed distance
is a maximum over some of the edge's points, so it never overshoots the
true value (up to rounding); it only undershoots, by at most half the
resolution, as every point of an edge lies that close to a sample and the
distance to a set moves no faster than the point.  The larger of the two
directed distances keeps both properties.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .graphs import WeightedDigraph
from .measures import InvalidConfigError

DEFAULT_RESOLUTION_FRACTION = 1e-4
#: most sample points held at once: 1.5 MB of coordinates in 3-d
SAMPLE_BLOCK = 1 << 16


def check_resolution(resolution: float) -> None:
    """Raise InvalidConfigError (a ValueError) unless the sampling
    resolution is finite and positive."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise InvalidConfigError(
            f"Hausdorff resolution must be finite and positive, got {resolution}")


def _segments(g: WeightedDigraph) -> tuple[np.ndarray, np.ndarray]:
    """Edge endpoint arrays (A, B), one row per edge."""
    if not g.n_edges:
        raise ValueError("graph has no edges; Hausdorff distance undefined")
    return g.positions.take(g.tail, axis=0), g.positions.take(g.head, axis=0)


def sample_blocks(g: WeightedDigraph, resolution: float) -> Iterator[np.ndarray]:
    """Points covering every edge at spacing <= resolution (endpoints
    included), edge by edge, in blocks of at most SAMPLE_BLOCK rows.

    Edge a -> b gets the points a + t (b - a) at t = k/steps, k = 0..steps,
    steps = max(1, ceil(|b - a| / resolution)); t is ``np.linspace(0, 1,
    steps + 1)`` bit for bit.  A block holds the samples of several edges
    and an edge's samples may span blocks, so memory stays bounded however
    fine the resolution.
    """
    A, B = _segments(g)
    parts: list[np.ndarray] = []
    size = 0
    for a, b in zip(A, B):
        d = b - a
        steps = max(1, math.ceil(float(np.linalg.norm(d)) / resolution))
        lo = 0
        while lo <= steps:
            hi = min(steps + 1, lo + SAMPLE_BLOCK - size)
            t = np.arange(lo, hi) * (1.0 / steps)
            if hi == steps + 1:
                t[-1] = 1.0
            parts.append(a + t[:, None] * d)
            size += hi - lo
            lo = hi
            if size == SAMPLE_BLOCK:
                yield np.concatenate(parts)
                parts, size = [], 0
    if parts:
        yield np.concatenate(parts)


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
    return max(_directed(g1, g2, resolution), _directed(g2, g1, resolution))


def _directed(g1: WeightedDigraph, g2: WeightedDigraph, resolution: float) -> float:
    """Largest distance from a sample of g1 to g2's segments."""
    A, B = _segments(g2)
    return max(float(points_to_segments(p, A, B).max()) for p in sample_blocks(g1, resolution))
