"""Closed-form atom allocation over a network's edges.

Given a weighted graph realizing the limit network and a budget of n
relay atoms, the continuous optimum spreads the budget over edges
proportionally to weight^(1/q) * length; placing n_e atoms equally
spaced inside edge e then costs weight * length^q * (n_e+1)^(1-q) on
that edge.  The rounded construction yields a certified upper bound for
the n-atom transport optimum over the same terminals.

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
    """Integer atom counts per edge plus the induced layout and bound."""

    counts: tuple[int, ...]
    fractions: tuple[float, ...]
    atom_positions: np.ndarray
    atom_masses: np.ndarray
    atom_edges: tuple[int, ...]
    upper_bound: float

    @property
    def n(self) -> int:
        return int(sum(self.counts))


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
    """Integer allocation of n atoms over the edges of g.

    Largest-remainder rounding of n * w_e with deterministic tie-break by
    edge index; edges rounded to zero are raised to one atom, paid for by
    the fullest edges, so every edge stays usable.  Requires n >= |E|.
    Returns equally spaced interior atom layouts (masses equal to their
    edge's weight) and the exact bound
    (sum weight*length^q*(count+1)^(1-q))^(1/q).
    """
    m = g.n_edges
    if n < m:
        raise ValueError(f"need at least one atom per edge: n={n} < |E|={m}")
    w = optimal_fractions(g, q)
    counts = integer_mass_units(w, units=n).tolist()
    while 0 in counts:
        zero = counts.index(0)
        counts[counts.index(max(counts))] -= 1
        counts[zero] = 1

    weights = g.weight.tolist()
    lengths = g.length.tolist()
    positions, edge_of = spread_on_segments(g.positions, g.tail.tolist(), g.head.tolist(), counts)
    bound_pow = sum(
        w * l**q * (c + 1.0) ** (1.0 - q) for w, l, c in zip(weights, lengths, counts)
    )
    return Allocation(
        counts=tuple(counts),
        fractions=tuple(c / n for c in counts) if n else (),
        atom_positions=positions,
        atom_masses=np.array([weights[e] for e in edge_of]),
        atom_edges=tuple(edge_of),
        upper_bound=float(bound_pow ** (1.0 / q)),
    )


def spread_on_segments(
    points: np.ndarray, tails: list[int], heads: list[int], counts: list[int]
) -> tuple[np.ndarray, list[int]]:
    """Atoms equally spaced inside segments, in one broadcast.

    Segment e runs from a = ``points[tails[e]]`` to b = ``points[heads[e]]``
    and gets c = ``counts[e]`` atoms at a + (l/(c+1))*(b-a), l = 1..c.
    Returns the (sum(counts), k) positions, segment by segment, and each
    atom's segment index.
    """
    seg = [e for e, c in enumerate(counts) for _ in range(c)]
    frac = np.array([l / (c + 1.0) for c in counts for l in range(1, c + 1)])
    a = points.take([tails[e] for e in seg], axis=0)
    b = points.take([heads[e] for e in seg], axis=0)
    return a + frac.reshape(-1, 1) * (b - a), seg
