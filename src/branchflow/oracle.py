"""Exhaustive ground truth for the limit network cost at desk scale.

Enumerates every tree topology on the positive-mass terminals plus up to
s_max extra branch points (labeled trees via Pruefer sequences, deduped
up to branch-label permutation, branch degrees >= 3), derives each
edge's flow from conservation (unique on a tree), optimizes the branch
positions for the concave-weight cost sum(|flow|^(1/q) * length), and
returns the cheapest realization.  Intended for instances with a handful
of terminals; the raw tree count is hard-capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .measures import SignedConfig, total_mass, validate
from .graphs import Edge, WeightedDigraph

ENUMERATION_BUDGET = 10**6
DEGENERATE_RTOL = 1e-9
STATIONARITY_RTOL = 1e-6


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
class OracleSolution:
    cost: float
    graph: WeightedDigraph
    steiner_positions: np.ndarray
    topology: Topology
    table: tuple[tuple[Topology, float], ...]


def _positive_terminals(config: SignedConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """(positions, signed supplies, number of positive sources)."""
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
    return np.array(pos, dtype=float), np.array(supply), n_src


def _pruefer_trees(n_labels: int):
    """All labeled trees on n_labels vertices, as edge lists."""
    if n_labels == 1:
        yield []
        return
    if n_labels == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n_labels), repeat=n_labels - 2):
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

    Every labeled spanning tree on terminals + s branch labels is decoded,
    its unique conservation flows derived, and zero-flow edges dropped;
    what remains is the forest the tree actually uses (two far-apart
    source-sink pairs, for instance, keep two disjoint segments).  Forests
    leaving a used branch label below degree 3 are skipped (a smaller
    topology realizes the same network at least as cheaply) and duplicates
    arising from different spanning completions or branch relabelings are
    removed.  Raises EnumerationBudgetError when the raw Pruefer count
    would exceed the cap.
    """
    config = validate(config)
    pos, supply, _ = _positive_terminals(config)
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
        for edges in _pruefer_trees(L):
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


def _steiner_objective(
    topology: Topology, term_pos: np.ndarray, S: np.ndarray, q: float
) -> float:
    total = 0.0
    T = topology.n_terminals
    for (u, v), f in zip(topology.edges, topology.flows):
        pu = term_pos[u] if u < T else S[u - T]
        pv = term_pos[v] if v < T else S[v - T]
        total += abs(f) ** (1.0 / q) * float(np.linalg.norm(pu - pv))
    return total


def _steiner_gradient_residual(
    topology: Topology, term_pos: np.ndarray, S: np.ndarray, q: float, coincide_tol: float
) -> float:
    """Max gradient norm over branch points not coincident with a neighbor."""
    T = topology.n_terminals
    worst = 0.0
    for i in range(topology.n_steiner):
        z = S[i]
        g = np.zeros_like(z)
        singular = False
        for (u, v), f in zip(topology.edges, topology.flows):
            other = None
            if u == T + i:
                other = term_pos[v] if v < T else S[v - T]
            elif v == T + i:
                other = term_pos[u] if u < T else S[u - T]
            if other is None:
                continue
            d = z - other
            r = float(np.linalg.norm(d))
            if r <= coincide_tol:
                singular = True
                break
            g += abs(f) ** (1.0 / q) * d / r
        if not singular:
            worst = max(worst, float(np.linalg.norm(g)))
    return worst


def solve_topology(
    topology: Topology,
    config: SignedConfig,
    q: float,
    max_passes: int = 20_000,
) -> tuple[np.ndarray, float]:
    """Optimal branch positions and cost for a fixed topology.

    The objective is a convex sum of weighted Euclidean norms; smoothed
    reweighted least-squares (a Weiszfeld generalization) drives each
    branch point to the weighted geometric median of its neighbors while
    the smoothing radius shrinks to zero.  Restarts from perturbed
    positions when the stationarity residual check fails away from
    coincidences.
    """
    config = validate(config)
    pos, supply, _ = _positive_terminals(config)
    T = topology.n_terminals
    s = topology.n_steiner
    if T != len(supply):
        raise ValueError("topology/config terminal count mismatch")
    diam = config.diameter()
    scale = max(diam, 1e-12)
    if s == 0:
        return np.zeros((0, config.dimension)), _steiner_objective(
            topology, pos, np.zeros((0, config.dimension)), q
        )

    weights = [abs(f) ** (1.0 / q) for f in topology.flows]
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(s)]
    # neighbor encoding: index < T terminal, else branch index + T
    for (u, v), w in zip(topology.edges, weights):
        if u >= T:
            nbrs[u - T].append((v, w))
        if v >= T:
            nbrs[v - T].append((u, w))

    def neighbor_pos(code: int, S: np.ndarray) -> np.ndarray:
        return pos[code] if code < T else S[code - T]

    best: tuple[float, np.ndarray] | None = None
    rng = np.random.default_rng(0)
    centroid = pos.mean(axis=0)
    for attempt in range(4):
        if attempt == 0:
            S = np.vstack(
                [centroid + 1e-3 * scale * (k + 1) * np.ones(config.dimension) for k in range(s)]
            )
            S = S + 1e-4 * scale * rng.standard_normal(S.shape)
        else:
            S = centroid + scale * 0.3 * rng.standard_normal((s, config.dimension))
        eps = scale * 0.1
        passes = 0
        while passes < max_passes:
            passes += 1
            move = 0.0
            for i in range(s):
                num = np.zeros(config.dimension)
                den = 0.0
                for code, w in nbrs[i]:
                    p = neighbor_pos(code, S)
                    r = float(np.sqrt(((S[i] - p) ** 2).sum() + eps * eps))
                    num += w * p / r
                    den += w / r
                new = num / den
                move = max(move, float(np.linalg.norm(new - S[i])))
                S[i] = new
            if move < 0.01 * eps:
                if eps <= 1e-12 * scale:
                    break
                eps = max(eps * 0.25, 1e-12 * scale * 0.99)
        resid = _steiner_gradient_residual(
            topology, pos, S, q, coincide_tol=1e-9 * scale
        )
        cost = _steiner_objective(topology, pos, S, q)
        if best is None or cost < best[0]:
            best = (cost, S.copy())
        if resid < STATIONARITY_RTOL * max(1.0, sum(weights)):
            break
    cost, S = best
    return S, float(cost)


def _realize(
    topology: Topology, config: SignedConfig, S: np.ndarray
) -> WeightedDigraph:
    """Embed a solved topology, contracting degenerate (zero-length) edges."""
    pos, supply, n_src = _positive_terminals(config)
    T = topology.n_terminals
    s = topology.n_steiner
    all_pos = np.vstack([pos, S]) if s else pos
    diam = config.diameter()
    tol = DEGENERATE_RTOL * max(1.0, diam)

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
    every tree whose branch points all have degree >= 3.  Ties break on
    enumeration order, so results are stable run to run.
    """
    config = validate(config)
    if q < 1.0:
        raise ValueError(f"network exponent must be >= 1, got {q}")
    N = config.n_pairs
    if s_max is None:
        s_max = max(2 * N - 2, 0)
    topologies = enumerate_topologies(config, s_max)
    table: list[tuple[Topology, float]] = []
    best: tuple[float, Topology, np.ndarray] | None = None
    for t in topologies:
        S, cost = solve_topology(t, config, q)
        table.append((t, cost))
        if best is None or cost < best[0] - 1e-15:
            best = (cost, t, S)
    cost, t, S = best
    table.sort(key=lambda item: item[1])
    graph = _realize(t, config, S)
    # contraction can only shorten; recompute the realized cost
    realized = sum(e.length * e.weight ** (1.0 / q) for e in graph.edges)
    return OracleSolution(
        cost=float(realized),
        graph=graph,
        steiner_positions=S,
        topology=t,
        table=tuple(table),
    )
