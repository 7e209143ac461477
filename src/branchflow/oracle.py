"""Exhaustive ground truth for the limit network cost at desk scale.

Enumerates every tree topology on the positive-mass terminals plus up to
s_max extra branch points (labeled trees via Pruefer sequences, deduped
up to branch-label permutation, branch degrees >= 3), derives each
edge's flow from conservation (unique on a tree), optimizes the branch
positions for the concave-weight cost sum(|flow|^(1/q) * length), and
returns the cheapest realization.  Intended for instances with a handful
of terminals; the raw tree count is hard-capped.

The fixed-topology solve runs on the same edge kernel and damped Newton
loop as the position step of ``positions`` (exponent 1, weights
|flow|^(1/q), smoothed lengths), so one geometric kernel serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .measures import SignedConfig, total_mass, validate
from .graphs import Edge, WeightedDigraph
from .positions import _EdgeKernel, _newton

ENUMERATION_BUDGET = 10**6
DEGENERATE_RTOL = 1e-9
#: smoothing radii of the fixed-topology continuation, times the diameter
SMOOTHING = (1e-1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11, 1e-12)
#: Newton stop test: gradient sup-norm at most this times the total weight
GRAD_RTOL = 1e-12
#: ... or Newton step sup-norm at most this times the diameter
STEP_RTOL = 1e-14
#: cap on Newton iterations per smoothing level; levels take 0 to about 15,
#: and only a cost that is flat along some direction (in one dimension,
#: branch points between balanced terminal weights) runs into the cap
NEWTON_ITERS = 50


class EnumerationBudgetError(RuntimeError):
    """Topology enumeration would exceed the raw tree budget."""


@dataclass(frozen=True)
class Topology:
    """Abstract forest: labels 0..n_terminals-1 are terminals (positive-mass
    sources first, then positive-mass sinks), the rest branch points.

    ``flows`` are signed: positive means the edge as written carries flow
    tail -> head.  Each edge pair is sorted; duplicates across different
    spanning trees are removed via a branch-relabeling canonical key.
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


def _pruefer_trees(n_labels: int, n_terminals: int):
    """Labeled trees on n_labels vertices in which every branch label
    (n_terminals and up) has degree >= 3, as edge lists, in Pruefer order.

    A label's degree is one more than its count in the Pruefer sequence, so
    a sequence with a branch label fewer than twice is skipped undecoded:
    that label is a leaf or a chain vertex, so the forest its tree carries
    either leaves a used branch label below degree 3 or is one that fewer
    branch labels already yield.
    """
    if n_labels == 2:
        yield [(0, 1)]
        return
    branch = range(n_terminals, n_labels)
    if 2 * len(branch) > n_labels - 2:
        return
    for seq in product(range(n_labels), repeat=n_labels - 2):
        if any(seq.count(b) < 2 for b in branch):
            continue
        degree = [1] * n_labels
        for v in seq:
            degree[v] += 1
        edges = []
        ptr = 0
        leaf = -1
        deg = degree[:]
        # standard linear-time Pruefer decode
        while deg[ptr] != 1:
            ptr += 1
        leaf = ptr
        for v in seq:
            edges.append((leaf, v))
            deg[v] -= 1
            if deg[v] == 1 and v < ptr:
                leaf = v
            else:
                ptr += 1
                while deg[ptr] != 1:
                    ptr += 1
                leaf = ptr
        edges.append((leaf, n_labels - 1))
        yield edges


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


def _canonical(
    edges: list[tuple[int, int]], n_term: int, n_steiner: int
) -> tuple[tuple[int, int], ...]:
    """Lexicographically smallest edge set over branch-label permutations."""
    base = list(range(n_term))
    best = None
    for perm in permutations(range(n_term, n_term + n_steiner)):
        relabel = base + list(perm)
        cand = tuple(
            sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in edges)
        )
        if best is None or cand < best:
            best = cand
    return best


def enumerate_topologies(config: SignedConfig, s_max: int) -> list[Topology]:
    """All flow-carrying forest topologies with up to s_max branch points.

    Every labeled spanning tree on terminals + s branch labels whose branch
    labels all have degree >= 3 is decoded (the others cannot yield a new
    forest, see ``_pruefer_trees``), its unique conservation flows derived,
    and zero-flow edges dropped;
    what remains is the forest the tree actually uses (two far-apart
    source-sink pairs, for instance, keep two disjoint segments).  Forests
    leaving a used branch label below degree 3 are skipped (a smaller
    topology realizes the same network at least as cheaply) and duplicates
    arising from different spanning completions or branch relabelings are
    removed.  Raises EnumerationBudgetError when the raw Pruefer count
    would exceed the cap.
    """
    supply = Terminals.of(config).supply
    T = len(supply)
    if T < 2:
        raise ValueError("need at least two positive-mass terminals")
    raw = 0
    for s in range(s_max + 1):
        L = T + s
        raw += max(1, L ** max(L - 2, 0))
    if raw > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{raw} raw trees exceeds budget {ENUMERATION_BUDGET}"
        )
    zero_tol = 1e-12 * total_mass(config)
    out: list[Topology] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    for s in range(s_max + 1):
        L = T + s
        for edges in _pruefer_trees(L, T):
            flows = _tree_flows(edges, supply, L)
            kept: list[tuple[tuple[int, int], float]] = []
            for (u, v), f in zip(edges, flows):
                if abs(f) <= zero_tol:
                    continue
                if u < v:
                    kept.append(((u, v), float(f)))
                else:
                    kept.append(((v, u), float(-f)))
            kept.sort()
            deg: dict[int, int] = {}
            for (u, v), _ in kept:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            used_steiner = sorted(x for x in deg if x >= T)
            if any(deg[x] < 3 for x in used_steiner):
                continue
            relabel = {x: x for x in range(T)}
            relabel.update({x: T + i for i, x in enumerate(used_steiner)})
            pos_edges = tuple(
                (relabel[u], relabel[v]) for (u, v), _ in kept
            )
            pos_flows = tuple(f for _, f in kept)
            key = _canonical(list(pos_edges), T, len(used_steiner))
            if key in seen:
                continue
            seen.add(key)
            out.append(
                Topology(
                    n_terminals=T,
                    n_steiner=len(used_steiner),
                    edges=pos_edges,
                    flows=pos_flows,
                )
            )
    return out


def solve_topology(
    topology: Topology, terminals: Terminals, q: float
) -> tuple[np.ndarray, float]:
    """Optimal branch positions and cost for a fixed topology.

    ``terminals`` is ``Terminals.of(config)`` for the topology's config.
    The cost sum(|flow|^(1/q) * length) is a convex sum of weighted
    Euclidean norms of the branch positions: the q = 1 cost of the position
    step's edge kernel with weights |flow|^(1/q).  Smoothed to
    sum(w * sqrt(length^2 + eps^2)) it is strictly convex and twice
    differentiable, so damped Newton (``positions._newton``) finds its one
    minimizer from any start.  The smoothing radius runs down SMOOTHING
    (times the diameter); the first level starts at the terminal centroid,
    the second at the first's minimizer, and every later one at a secant
    prediction from the last two.  Each level stops when the gradient or
    the Newton step is negligible (GRAD_RTOL, STEP_RTOL).  The returned
    cost is the unsmoothed cost at the final point.
    """
    T, s = topology.n_terminals, topology.n_steiner
    if T != len(terminals.supply):
        raise ValueError("topology/config terminal count mismatch")
    tails, heads = zip(*topology.edges)
    weights = np.abs(np.array(topology.flows)) ** (1.0 / q)
    kernel = _EdgeKernel.from_arcs(
        terminals.positions, tails, heads, weights, s, 1.0, 0.0
    )
    S = np.tile(terminals.positions.mean(axis=0), (s, 1))
    if s:
        scale = max(terminals.diameter, 1e-12)
        tol = GRAD_RTOL * float(weights.sum())
        S_before = S
        for k, eps in enumerate(SMOOTHING):
            start = S
            if k >= 2:
                # secant predictor in eps from the last two minimizers: exact
                # for a branch point at a distance proportional to eps from
                # where it collapses, a small correction for any other
                t = (eps - SMOOTHING[k - 1]) / (SMOOTHING[k - 1] - SMOOTHING[k - 2])
                start = S + t * (S - S_before)
            kernel.eps = eps * scale
            S_before, S = S, _newton(kernel, start, tol, 1e-16 * scale, scale,
                                     NEWTON_ITERS, step_tol=STEP_RTOL * scale)[0]
        kernel.eps = 0.0
    return S, kernel.cost(S)


def _realize(
    topology: Topology, terminals: Terminals, S: np.ndarray
) -> WeightedDigraph:
    """Embed a solved topology, contracting degenerate (zero-length) edges."""
    n_src = terminals.n_sources
    T = topology.n_terminals
    s = topology.n_steiner
    all_pos = np.vstack([terminals.positions, S]) if s else terminals.positions
    tol = DEGENERATE_RTOL * max(1.0, terminals.diameter)

    parent = list(range(T + s))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), f in zip(topology.edges, topology.flows):
        if np.linalg.norm(all_pos[u] - all_pos[v]) < tol:
            ru, rv = find(u), find(v)
            if ru != rv:
                # keep the terminal (smaller label) as representative
                parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, int] = {}
    keep: list[int] = []
    for v in range(T + s):
        r = find(v)
        if r not in groups:
            groups[r] = len(keep)
            keep.append(r)
    roles = tuple(
        "source" if v < n_src else "sink" if v < T else "free" for v in keep
    )
    merged: dict[tuple[int, int], float] = {}
    for (u, v), f in zip(topology.edges, topology.flows):
        a, b = groups[find(u)], groups[find(v)]
        if a == b:
            continue
        tail, head = (a, b) if f >= 0 else (b, a)
        w = abs(f)
        merged[(tail, head)] = merged.get((tail, head), 0.0) + w
    # opposite directions between the same pair net out
    edges = []
    for (a, b), w in sorted(merged.items()):
        back = merged.get((b, a), 0.0)
        if back > w or (back == w and (b, a) < (a, b)):
            continue
        net = w - back
        if net <= 0:
            continue
        length = float(np.linalg.norm(all_pos[keep[a]] - all_pos[keep[b]]))
        edges.append(Edge(a, b, net, length))
    return WeightedDigraph(
        positions=all_pos[keep],
        roles=roles,
        edges=tuple(edges),
        labels=tuple(keep),
    )


def oracle(
    config: SignedConfig, q: float, s_max: int | None = None
) -> OracleSolution:
    """Cheapest realized topology over the bounded enumeration.

    s_max defaults to 2N-2 (N = max terminal count per side), enough for
    every tree whose branch points all have degree >= 3.  Costs within
    1e-12 relative of each other tie, and ties break on enumeration order,
    so results are stable run to run and under a change of scale.
    """
    terminals = Terminals.of(config)
    if q < 1.0:
        raise ValueError(f"network exponent must be >= 1, got {q}")
    N = config.n_pairs
    if s_max is None:
        s_max = max(2 * N - 2, 0)
    topologies = enumerate_topologies(config, s_max)
    table: list[tuple[Topology, float]] = []
    best: tuple[float, Topology, np.ndarray] | None = None
    for t in topologies:
        S, cost = solve_topology(t, terminals, q)
        table.append((t, cost))
        if best is None or cost < best[0] * (1.0 - 1e-12):
            best = (cost, t, S)
    cost, t, S = best
    table.sort(key=lambda item: item[1])
    graph = _realize(t, terminals, S)
    # contraction can only shorten; recompute the realized cost
    realized = sum(e.length * e.weight ** (1.0 / q) for e in graph.edges)
    return OracleSolution(
        cost=float(realized),
        graph=graph,
        steiner_positions=S,
        topology=t,
        table=tuple(table),
    )
