"""Exhaustive ground truth for the limit network cost at desk scale.

Every tree whose branch points have degree >= 3, and every forest its
zero-flow edges leave, is a full Steiner topology (each terminal a leaf,
T - 2 branch points of degree 3) with some edges shrunk to length zero
(Gilbert, "Minimum cost communication networks", 1967; Smith,
Algorithmica 1992).  So the oracle enumerates the (2T-5)!! full
topologies of the T positive-mass terminals, derives each edge's flow
from conservation (unique on a tree), optimizes the branch positions for
the concave-weight cost sum(|flow|^(1/q) * length), and realizes the
cheapest: collapsed edges contracted, zero-flow edges dropped.  Intended
for instances with a handful of terminals; the topology count is capped.

The fixed-topology solve runs on the same edge kernel, damped Newton
loop and iteration budget as the position step of ``positions``
(exponent 1, weights |flow|^(1/q), smoothed lengths, each topology's
flow forest), so one geometric kernel serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import SignedConfig, total_mass, validate, validate_exponent
from .graphs import WeightedDigraph, graph_cost, reduce_graph
from .allocate import spread_on_segments
from .positions import NEWTON_ITERS, _EdgeKernel, _newton
from .transport import ZERO_FLOW_RTOL

#: most topologies one oracle call solves: up to 7 terminals (945)
ENUMERATION_BUDGET = 1000
#: a flow edge shorter than this times the diameter is contracted when the
#: solution is realized.  At the last smoothing radius (1e-12 * diameter) an
#: exactly balanced collapse stops about eps^(2/3) ~ 1e-8 * diameter short
#: (8.4e-9 * diameter on the balanced collapse in the oracle tests), and
#: contracting a branch point's edge of length l moves the cost only at
#: second order in l.
DEGENERATE_RTOL = 1e-6
#: smoothing radii of the fixed-topology continuation, times the diameter
SMOOTHING = (1e-1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-12)
#: Newton stop test: gradient sup-norm at most this times the total weight
GRAD_RTOL = 1e-12
#: ... or Newton step sup-norm at most this times the diameter
STEP_RTOL = 1e-14


class EnumerationBudgetError(RuntimeError):
    """The oracle would solve more than ENUMERATION_BUDGET topologies."""


@dataclass(frozen=True)
class Topology:
    """Full Steiner tree: labels 0..n_terminals-1 are terminals (positive-mass
    sources first, then positive-mass sinks), each a leaf, and the
    n_steiner = n_terminals - 2 labels after them branch points of degree 3.

    ``flows`` are signed: positive means the edge as written carries flow
    tail -> head.  Edges are sorted pairs in sorted order; an edge whose
    flow is at most ZERO_FLOW_RTOL of the total mass has flow exactly 0.
    """

    n_terminals: int
    n_steiner: int
    edges: tuple[tuple[int, int], ...]
    flows: tuple[float, ...]


@dataclass(frozen=True)
class Terminals:
    """The positive-mass terminals of a validated config in topology label
    order (positive sources first, then positive sinks), their signed
    supplies, and the config's diameter."""

    positions: np.ndarray
    supply: np.ndarray
    n_sources: int
    diameter: float

    @classmethod
    def of(cls, config: SignedConfig) -> "Terminals":
        config = validate(config)
        pos = []
        supply = []
        n_src = 0
        for a in config.sources:
            if a.mass > 0:
                pos.append(a.position)
                supply.append(a.mass)
                n_src += 1
        for a in config.sinks:
            if a.mass > 0:
                pos.append(a.position)
                supply.append(-a.mass)
        return cls(np.array(pos, dtype=float), np.array(supply), n_src,
                   config.diameter())


@dataclass(frozen=True)
class OracleSolution:
    cost: float
    graph: WeightedDigraph
    steiner_positions: np.ndarray
    topology: Topology
    table: tuple[tuple[Topology, float], ...]


def _tree_flows(
    edges: list[tuple[int, int]], supply: np.ndarray, n_labels: int
) -> np.ndarray:
    """Signed flow per edge from conservation (root the tree at label 0)."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n_labels)}
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    sub = np.zeros(n_labels)
    flows = np.zeros(len(edges))
    order = []
    parent = {0: (-1, -1)}
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        for v, idx in adj[u]:
            if v not in parent:
                parent[v] = (u, idx)
                stack.append(v)
    for u in reversed(order):
        s = supply[u] if u < len(supply) else 0.0
        sub[u] += s
        pu, idx = parent[u]
        if pu >= 0:
            sub[pu] += sub[u]
            # net supply below flows up toward the root
            u0, v0 = edges[idx]
            flows[idx] = sub[u] if v0 == pu else -sub[u]
    return flows


def _full_trees(T: int) -> list[list[tuple[int, int]]]:
    """Edge lists of the full Steiner trees on terminals 0..T-1: terminal k
    joins every edge of every full tree on terminals 0..k-1 through a new
    branch point, labeled T + k - 2."""
    if T == 2:
        return [[(0, 1)]]
    trees = [[(0, T), (1, T), (2, T)]]
    for k in range(3, T):
        b = T + k - 2
        trees = [
            tree[:i] + [(u, b), (v, b), (k, b)] + tree[i + 1:]
            for tree in trees
            for i, (u, v) in enumerate(tree)
        ]
    return trees


def enumerate_topologies(config: SignedConfig) -> list[Topology]:
    """The full Steiner topologies of the positive-mass terminals.

    One edge for two terminals, else (2T-5)!! trees with T - 2 branch
    points each.  Every edge keeps its conservation flow; an edge that
    carries none (two far-apart source-sink pairs, for instance) stays
    with weight 0, and the solve and the realization treat the forest the
    others leave.  Raises EnumerationBudgetError when there are more
    than ENUMERATION_BUDGET topologies.
    """
    supply = Terminals.of(config).supply
    T = len(supply)
    if T < 2:
        raise ValueError("need at least two positive-mass terminals")
    count = math.prod(range(1, 2 * T - 4, 2))
    if count > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{count} topologies exceed budget {ENUMERATION_BUDGET}"
        )
    zero_tol = ZERO_FLOW_RTOL * total_mass(config)
    out = []
    for edges in _full_trees(T):
        edges.sort()
        flows = _tree_flows(edges, supply, 2 * T - 2)
        out.append(Topology(
            n_terminals=T,
            n_steiner=T - 2,
            edges=tuple(edges),
            flows=tuple(float(f) if abs(f) > zero_tol else 0.0 for f in flows),
        ))
    return out


def solve_topology(
    topology: Topology, terminals: Terminals, q: float
) -> tuple[np.ndarray, float]:
    """Optimal branch positions and cost for a fixed topology.

    ``terminals`` is ``Terminals.of(config)`` for the topology's config.
    The cost sum(|flow|^(1/q) * length) is a convex sum of weighted
    Euclidean norms of the branch positions.  On the topology's flow
    forest (zero-flow edges dropped, the others oriented along their flow,
    relay chains contracted by ``_EdgeKernel.from_chains``) it is the q = 1
    cost of the position step's edge kernel with weights |flow|^(1/q).
    Smoothed to sum(w * sqrt(length^2 + eps^2)) it is twice
    differentiable, and strictly convex in every branch point left, so
    damped Newton (``positions._newton``) finds its one minimizer from any
    start.  The smoothing radius runs down SMOOTHING (times the diameter);
    the first level starts at the terminal centroid, the second at the
    first's minimizer, and every later one at a secant prediction from the
    last two.  Each level stops when the gradient or the Newton step is
    negligible (GRAD_RTOL, STEP_RTOL).  A chain's branch points are spread
    evenly between its ends, as cheap as any points between them; one
    without a flow edge stays at the centroid.  Returns one row per branch
    label and the unsmoothed cost at the final point.
    """
    T, s = topology.n_terminals, topology.n_steiner
    if T != len(terminals.supply):
        raise ValueError("topology/config terminal count mismatch")
    # the flow forest, each edge oriented along its flow
    tails, heads, flows = zip(*[(u, v, f) if f > 0 else (v, u, -f)
                                for (u, v), f in zip(topology.edges, topology.flows) if f])
    kernel, free, relays, segments = _EdgeKernel.from_chains(
        terminals.positions, tails, heads, (np.array(flows) ** (1.0 / q)).tolist(), s, 1.0)
    P = np.vstack([terminals.positions, np.tile(terminals.positions.mean(axis=0), (s, 1))])
    S = S_before = P[free]
    scale = max(terminals.diameter, 1e-12)
    tol = GRAD_RTOL * float(kernel.weights.sum())
    for k, eps in enumerate(SMOOTHING):
        start = S
        if k >= 2:
            # secant predictor in eps from the last two minimizers: exact
            # for a branch point at a distance proportional to eps from
            # where it collapses, a small correction for any other
            t = (eps - SMOOTHING[k - 1]) / (SMOOTHING[k - 1] - SMOOTHING[k - 2])
            start = S + t * (S - S_before)
        kernel.eps = eps * scale
        S_before, S = S, _newton(kernel, start, tol, 1e-16 * scale,
                                 NEWTON_ITERS, step_tol=STEP_RTOL * scale)[0]
    kernel.eps = 0.0
    cost = kernel.cost(S)
    P[free] = S
    P[relays] = spread_on_segments(P, *segments)
    return P[T:], cost


def _realize(
    topology: Topology, terminals: Terminals, S: np.ndarray
) -> WeightedDigraph:
    """Embed a solved topology as a forest whose free vertices have degree
    >= 3.

    A flow edge shorter than DEGENERATE_RTOL times the diameter is
    contracted onto its smaller label, except that two terminals at
    different points never merge.  Zero-flow edges are dropped, and so are
    the branch points left without a flow edge; ``reduce_graph`` splices
    out those left with one edge in and one out.
    """
    n_src = terminals.n_sources
    T = topology.n_terminals
    P = np.vstack([terminals.positions, S])
    tol = DEGENERATE_RTOL * terminals.diameter
    flow_edges = [(e, f) for e, f in zip(topology.edges, topology.flows) if f]

    parent = list(range(len(P)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), _ in flow_edges:
        if np.linalg.norm(P[u] - P[v]) <= tol:
            ru, rv = sorted((find(u), find(v)))
            # a group's representative is its smallest label: a terminal
            # if it has one
            if ru != rv and (rv >= T or np.array_equal(P[ru], P[rv])):
                parent[rv] = ru
    arcs = []
    for (u, v), f in flow_edges:
        a, b = find(u), find(v)
        if a != b:
            arcs.append(((a, b) if f > 0 else (b, a), abs(f)))
    keep = sorted({find(v) for v in range(T)}.union(*(ab for ab, _ in arcs)))
    index = {v: i for i, v in enumerate(keep)}
    # edges in (tail, head) order; the sort is stable
    arcs.sort(key=lambda arc: (index[arc[0][0]], index[arc[0][1]]))
    return reduce_graph(WeightedDigraph(
        positions=P[keep],
        roles=tuple("source" if v < n_src else "sink" if v < T else "free"
                    for v in keep),
        tail=[index[a] for (a, _), _ in arcs],
        head=[index[b] for (_, b), _ in arcs],
        weight=[w for _, w in arcs],
        length=[np.linalg.norm(P[a] - P[b]) for (a, b), _ in arcs],
    ))


def oracle(config: SignedConfig, q: float) -> OracleSolution:
    """Cheapest realized topology over the full Steiner topologies.

    Costs within 1e-12 relative of each other tie, and ties break on
    enumeration order, so results are stable run to run and under a
    change of scale.  The cost reported is the realized graph's.
    """
    terminals = Terminals.of(config)
    validate_exponent(q)
    table: list[tuple[Topology, float]] = []
    best: tuple[float, Topology, np.ndarray] | None = None
    for t in enumerate_topologies(config):
        S, cost = solve_topology(t, terminals, q)
        table.append((t, cost))
        if best is None or cost < best[0] * (1.0 - 1e-12):
            best = (cost, t, S)
    cost, t, S = best
    table.sort(key=lambda item: item[1])
    graph = _realize(t, terminals, S)
    return OracleSolution(
        cost=graph_cost(graph, q),
        graph=graph,
        steiner_positions=graph.positions[graph.free_indices()],
        topology=t,
        table=tuple(table),
    )
