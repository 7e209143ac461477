"""Closed-form atom allocation over a network's edges.

Given a weighted graph realizing the limit network and a budget of n
atoms, one atom sits at each vertex that passes flow on, and the
continuous optimum spreads the rest over edges proportionally to
weight^(1/q) * length; placing n_e atoms equally spaced inside edge e
then costs weight * length^q * (n_e+1)^(1-q) on that edge.  The rounded
layout of all n atoms yields a certified upper bound for the n-atom
transport optimum over the same terminals.

The layout is one broadcast over all atoms (``spread_on_segments``),
which the W_1 seed of the position solver shares; the per-edge scores
and the bound keep Python's scalar ``**``, whose libm ``pow`` NumPy's
vectorized power does not match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import WeightedDigraph
from .transport import integer_mass_units


@dataclass(frozen=True)
class Allocation:
    """Integer atom counts per edge plus the whole layout and its bound."""

    counts: tuple[int, ...]
    atom_positions: np.ndarray
    upper_bound: float


def optimal_fractions(g: WeightedDigraph, q: float) -> np.ndarray:
    """Continuous allocation fractions w_e = weight^(1/q)*length / total.

    These minimize sum(weight*length^q / w^(q-1)) over the probability
    simplex; the minimum value is (sum weight^(1/q)*length)^q, the q-th
    power of the network cost.
    """
    if not g.n_edges:
        raise ValueError("graph has no edges")
    # a graph's weights are positive and its lengths >= 0, none NaN
    lengths = g.length.tolist()
    if min(lengths) == 0.0:
        raise ValueError(
            f"allocation requires positive edge lengths, got 0 on edge {lengths.index(0.0)}")
    p = 1.0 / q
    scores = np.array([w ** p * l for w, l in zip(g.weight.tolist(), lengths)])
    return scores / scores.sum()


def allocation_objective(g: WeightedDigraph, w: np.ndarray, q: float) -> float:
    """sum(weight * length^q / w^(q-1)); +inf on a zero fraction."""
    w = np.asarray(w, dtype=float)
    out = 0.0
    for weight, length, we in zip(g.weight.tolist(), g.length.tolist(), w):
        if we <= 0:
            return float("inf")
        out += weight * length**q / we ** (q - 1.0)
    return float(out)


def allocate(g: WeightedDigraph, n: int, q: float) -> Allocation:
    """Lay out all n atoms on g and bound the layout's cost.

    One atom sits at every vertex that passes flow on: each free vertex,
    and each terminal with an edge in and an edge out (a branch point
    contracted onto it, Gilbert 1967), since a plan's sources only send
    and its sinks only receive.  These J atoms come first, in vertex
    order.  The spare n - J are rounded over the edges by largest
    remainder of (n - J) * w_e, ties broken by edge index; edges rounded
    to zero are raised to one atom, paid for by the fullest edges, and
    each edge's atoms are equally spaced inside it.  Raises ValueError
    when n - J < |E|.  The bound is the cost of routing each edge's flow
    through its atoms, (sum weight*length^q*(count+1)^(1-q))^(1/q).
    """
    tails, heads = g.tail.tolist(), g.head.tolist()
    through = set(tails).intersection(heads)  # an edge in and an edge out
    passing = [v for v, r in enumerate(g.roles) if r == "free" or v in through]
    spare = n - len(passing)
    if spare < g.n_edges:
        raise ValueError(f"need at least one atom per edge: n={n} < {len(passing)} "
                         f"vertex atoms + |E|={g.n_edges}")
    counts = integer_mass_units(optimal_fractions(g, q), units=spare).tolist()
    while 0 in counts:
        zero = counts.index(0)
        counts[counts.index(max(counts))] -= 1
        counts[zero] = 1

    bound_pow = sum(
        w * l**q * (c + 1.0) ** (1.0 - q)
        for w, l, c in zip(g.weight.tolist(), g.length.tolist(), counts)
    )
    return Allocation(
        counts=tuple(counts),
        atom_positions=np.concatenate([
            g.positions.take(passing, axis=0),
            spread_on_segments(g.positions, tails, heads, counts)]),
        upper_bound=float(bound_pow ** (1.0 / q)),
    )


def spread_on_segments(
    points: np.ndarray, tails: list[int], heads: list[int], counts: list[int]
) -> np.ndarray:
    """Atoms equally spaced inside segments, in one broadcast.

    Segment e runs from a = ``points[tails[e]]`` to b = ``points[heads[e]]``
    and gets c = ``counts[e]`` atoms at a + (l/(c+1))*(b-a), l = 1..c.
    Returns the (sum(counts), k) positions, segment by segment.
    """
    seg = [e for e, c in enumerate(counts) for _ in range(c)]
    frac = np.array([l / (c + 1.0) for c in counts for l in range(1, c + 1)])
    a = points.take([tails[e] for e in seg], axis=0)
    b = points.take([heads[e] for e in seg], axis=0)
    return a + frac.reshape(-1, 1) * (b - a)
