"""Embedded weighted digraphs induced by plans, chain reduction, checks.

A plan on vertices (sources, sinks, free atoms) induces a directed graph
embedded in R^k: one vertex per terminal and per free atom that actually
relays mass, one weighted edge per positive plan entry.  Collapsing every
maximal chain (runs of relay vertices with one arc in and one arc out)
yields the reduced graph, whose interior vertices all branch.  On solver
output the reduced graph should be a tree with straight, evenly filled
chains; ``verify_structure`` checks that, item by item, with witnesses.

Both constructions work on whole index lists and arrays rather than one
entry or one chain at a time: vertex ids come from index arithmetic, the
edge and chain lengths from one stacked matmul each, and every chain's
perpendicular distances from one pass over all chains.  Small graphs
dominate the solver's use (a few dozen edges), so index bookkeeping stays
in plain lists and NumPy is called a fixed number of times per graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import SignedConfig, total_mass
from .transport import TransportPlan, MARGINAL_RTOL, vertex_positions
from .regularize import edges_form_forest, zero_flow_threshold

ROLES = ("source", "sink", "free")
CHAIN_FLOW_RTOL = 1e-6
COLLINEAR_RTOL = 1e-5
SPACING_RTOL = 1e-5


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    weight: float
    length: float


@dataclass(frozen=True)
class WeightedDigraph:
    """Vertices with roles embedded in R^k plus weighted directed edges.

    ``labels`` preserves each vertex's id in whatever indexing the graph
    was built from (plan vertex ids for plan_to_graph, input vertex ids
    for reduce_graph); purely diagnostic.
    """

    positions: np.ndarray
    roles: tuple[str, ...]
    edges: tuple[Edge, ...]
    labels: tuple[int, ...] = ()

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2:
            raise ValueError("positions must be a (V, k) array")
        object.__setattr__(self, "positions", pos)
        V = pos.shape[0]
        if len(self.roles) != V:
            raise ValueError("one role per vertex required")
        for r in self.roles:
            if r not in ROLES:
                raise ValueError(f"unknown vertex role {r!r}")
        for e in self.edges:
            if not (0 <= e.tail < V and 0 <= e.head < V):
                raise ValueError(f"edge {e} references a missing vertex")
            if not e.weight > 0:
                raise ValueError(f"edge {e} must carry positive weight")
            if e.length < 0:
                raise ValueError(f"edge {e} has negative length")

    @property
    def n_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(in-degree, out-degree) arrays over vertices."""
        indeg = np.zeros(self.n_vertices, dtype=int)
        outdeg = np.zeros(self.n_vertices, dtype=int)
        for e in self.edges:
            outdeg[e.tail] += 1
            indeg[e.head] += 1
        return indeg, outdeg

    def free_indices(self) -> list[int]:
        return [v for v, r in enumerate(self.roles) if r == "free"]

    def in_flow(self, v: int) -> float:
        return sum(e.weight for e in self.edges if e.head == v)

    def out_flow(self, v: int) -> float:
        return sum(e.weight for e in self.edges if e.tail == v)


@dataclass(frozen=True)
class ChainGeometry:
    """Geometry report for one collapsed maximal chain.

    ``vertices`` are input-graph vertex ids from junction to junction;
    ``path_length`` sums the hops, ``straight_length`` is the endpoint
    distance, ``max_perp`` the largest perpendicular deviation of an
    interior vertex from the endpoint segment, ``gap_spread`` the relative
    spread (max-min)/mean of consecutive hop lengths.
    """

    vertices: tuple[int, ...]
    flow: float
    path_length: float
    straight_length: float
    max_perp: float
    gap_spread: float

    @property
    def n_interior(self) -> int:
        return len(self.vertices) - 2


@dataclass(frozen=True)
class ReducedTree(WeightedDigraph):
    chains: tuple[ChainGeometry, ...] = ()


def _squared_norms(d: np.ndarray) -> np.ndarray:
    """Squared Euclidean length of each row of ``d``.

    One stacked matmul takes each row's dot with itself, the BLAS dot that
    ``np.linalg.norm`` takes of a single vector, so the square root of each
    entry equals ``np.linalg.norm(row)`` bit for bit.
    """
    return (d[:, None, :] @ d[:, :, None]).ravel()


def plan_to_graph(config: SignedConfig, Z, plan: TransportPlan) -> WeightedDigraph:
    """Embed a plan as a weighted digraph.

    Vertices are every terminal plus each free atom whose throughput
    exceeds 10^-12 of total mass; edges carry the plan flows above that
    threshold, in sorted (row, column) order.  The support's structure is
    not judged here: a cycle, a free self-loop included, is embedded as it
    is, and ``reduce_graph`` refuses it.  Raises ValueError when a kept
    flow enters a dropped atom.  Vertex ids come from index arithmetic on
    the entry keys, and every edge length from one stacked matmul.
    """
    P = vertex_positions(config, Z)
    if P.shape[0] - config.n_sources - config.n_sinks != plan.n_free:
        raise ValueError("Z and plan disagree on the number of free atoms")
    ns, nk = plan.n_sources, plan.n_sinks
    n_term = ns + nk
    pruned = plan.pruned(zero_flow_threshold(config))

    keys = sorted(pruned.entries)
    tails = [i if i < ns else i + nk for i, _ in keys]
    heads = [ns + j for _, j in keys]
    # every kept entry exceeds the threshold, so a free atom's throughput
    # does exactly when the atom is the row of a kept entry
    keep = list(range(n_term)) + sorted({v for v in tails if v >= n_term})
    new_id = [-1] * plan.n_vertices
    for i, v in enumerate(keep):
        new_id[v] = i
    # rows are gathered with take, which costs less than indexing by a list
    lengths = np.sqrt(_squared_norms(P.take(tails, axis=0) - P.take(heads, axis=0))).tolist()
    return WeightedDigraph(
        positions=P.take(keep, axis=0),
        roles=("source",) * ns + ("sink",) * nk + ("free",) * (len(keep) - n_term),
        edges=tuple(map(
            Edge,
            [new_id[v] for v in tails],
            [new_id[v] for v in heads],
            [pruned.entries[k] for k in keys],
            lengths,
        )),
        labels=tuple(keep),
    )


def is_forest(g: WeightedDigraph) -> bool:
    """True when the undirected support has no cycle (parallel edges count)."""
    return edges_form_forest((e.tail, e.head) for e in g.edges)


def reduce_graph(g: WeightedDigraph) -> ReducedTree:
    """Collapse maximal relay chains into single straight edges.

    Relay vertices are free vertices with exactly one incoming and one
    outgoing edge; each junction-to-junction run through relays becomes
    one edge between its endpoints, weighted by the common chain flow.
    Chains run in order of their start vertex, then of their first edge.
    Raises when the input has an undirected cycle or a chain whose hop
    flows disagree beyond CHAIN_FLOW_RTOL relatively.

    One walk lists the edges chain by chain.  The chains' straight lengths
    and the distances behind ``max_perp`` are whole-array passes over all
    chains; each chain's flows, gaps and distances are list slices.
    """
    V = g.n_vertices
    edges = g.edges
    tails = [e.tail for e in edges]
    heads = [e.head for e in edges]
    if not edges_form_forest(zip(tails, heads)):
        raise ValueError("reduce_graph requires an acyclic (forest) input")
    indeg = [0] * V
    outdeg = [0] * V
    out_edge = [-1] * V
    for idx, (t, h) in enumerate(zip(tails, heads)):
        outdeg[t] += 1
        indeg[h] += 1
        out_edge[t] = idx
    relay = [r == "free" and i == 1 and o == 1 for r, i, o in zip(g.roles, indeg, outdeg)]
    # chain c's hops are order[bounds[c]:bounds[c + 1]]; it runs from
    # starts[c] to ends[c]
    first = sorted((idx for idx, t in enumerate(tails) if not relay[t]), key=tails.__getitem__)
    order: list[int] = []
    bounds = [0]
    for idx in first:
        while True:
            order.append(idx)
            if not relay[heads[idx]]:
                break
            idx = out_edge[heads[idx]]
        bounds.append(len(order))
    hop_heads = [heads[h] for h in order]
    starts = [tails[idx] for idx in first]
    ends = [hop_heads[hi - 1] for hi in bounds[1:]]

    # one row per hop: its chain's start and end, and its own head; every
    # hop but a chain's last ends at one of the chain's interior vertices
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    hop_starts = [v for v, k in zip(starts, sizes) for _ in range(k)]
    hop_ends = [v for v, k in zip(ends, sizes) for _ in range(k)]
    a, b, p = g.positions.take(hop_starts + hop_ends + hop_heads, axis=0).reshape(
        3, len(order), g.dimension)
    d = b - a
    d_sq = _squared_norms(d)
    straight = np.sqrt(d_sq.take(bounds[:-1])).tolist()
    dist = _segment_distances(p, a, d, d_sq).tolist()

    hop_flows = [edges[h].weight for h in order]
    hop_lengths = [edges[h].length for h in order]
    chains: list[ChainGeometry] = []
    for c, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        f = hop_flows[lo:hi]
        spread = (max(f) - min(f)) / max(abs(f[0]), 1e-300)
        if spread > CHAIN_FLOW_RTOL:
            raise ValueError(
                f"chain {[starts[c], *hop_heads[lo:hi]]} hop flows differ by "
                f"{spread:.3e} relative"
            )
        gaps = hop_lengths[lo:hi]
        path_length = float(sum(gaps))
        mean_gap = path_length / len(gaps)
        chains.append(ChainGeometry(
            (starts[c], *hop_heads[lo:hi]),
            f[0],
            path_length,
            straight[c],
            max(dist[lo:hi - 1], default=0.0),
            (max(gaps) - min(gaps)) / mean_gap if mean_gap > 0 else 0.0,
        ))

    keep = [v for v in range(V) if not relay[v]]
    new_id = [-1] * V
    for i, v in enumerate(keep):
        new_id[v] = i
    return ReducedTree(
        positions=g.positions.take(keep, axis=0),
        roles=tuple(g.roles[v] for v in keep),
        edges=tuple(
            Edge(new_id[s], new_id[e], c.flow, c.straight_length)
            for s, e, c in zip(starts, ends, chains)
        ),
        labels=tuple(keep),
        chains=tuple(chains),
    )


def _segment_distances(
    points: np.ndarray, a: np.ndarray, d: np.ndarray, d_sq: np.ndarray
) -> np.ndarray:
    """Distance from each point to its closed segment [a, a + d].

    Row by row: ``d_sq`` is |d|^2, and a zero-length segment gives the
    distance to ``a``.
    """
    # clipping the numerator to [0, d_sq] first gives t = clip(num/d_sq, 0, 1),
    # and t = 0 on a zero-length segment
    rel = points - a
    num = (rel * d).sum(axis=1)
    t = np.minimum(np.maximum(num, 0.0), d_sq) / np.where(d_sq > 0.0, d_sq, 1.0)
    off = rel - t[:, None] * d
    return np.sqrt((off * off).sum(axis=1))


def graph_cost(g: WeightedDigraph, q: float) -> float:
    """Network cost sum(length * weight^(1/q)) over edges."""
    return float(sum(e.length * e.weight ** (1.0 / q) for e in g.edges))


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class StructureReport:
    items: tuple[CheckItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.ok]


def verify_structure(t: ReducedTree, config: SignedConfig) -> StructureReport:
    """Item-by-item structural audit of a reduced tree.

    Checks: interior degrees >= 3, undirected acyclicity, vertex budget
    <= 2N^3 + 2N, edge weights inside the instance-derived bracket
    [smallest positive terminal mass / (2N)^2, total mass], all vertices
    inside the terminal bounding box inflated by 10%, chain collinearity
    and even spacing, terminal flux, and interior conservation.
    """
    items: list[CheckItem] = []
    indeg, outdeg = t.degrees()
    deg = indeg + outdeg

    bad = [
        (v, int(deg[v]))
        for v in t.free_indices()
        if deg[v] > 0 and deg[v] < 3
    ]
    items.append(
        CheckItem(
            "interior_degree_ge_3",
            not bad,
            f"free vertices with degree < 3: {bad}" if bad else "",
        )
    )

    forest = is_forest(t)
    items.append(
        CheckItem("acyclic_undirected", forest, "" if forest else "undirected cycle")
    )

    N = config.n_pairs
    budget = 2 * N**3 + 2 * N
    items.append(
        CheckItem(
            "vertex_budget",
            t.n_vertices <= budget,
            f"{t.n_vertices} vertices > budget {budget}"
            if t.n_vertices > budget
            else "",
        )
    )

    M = total_mass(config)
    positive = [a.mass for a in config.sources + config.sinks if a.mass > 0]
    lo = min(positive) / (2 * N) ** 2 if positive else 0.0
    slack = 1e-12 * max(1.0, M)
    bad_w = [
        (i, e.weight)
        for i, e in enumerate(t.edges)
        if e.weight < lo - slack or e.weight > M + slack
    ]
    items.append(
        CheckItem(
            "edge_weight_bracket",
            not bad_w,
            f"edges outside [{lo:.3e}, {M:.3e}]: {bad_w}" if bad_w else "",
        )
    )

    low, high = config.bbox()
    extent = high - low
    pad = 0.10 * np.where(extent > 0, extent, config.diameter() or 1.0)
    inside = np.all(t.positions >= low - pad, axis=1) & np.all(
        t.positions <= high + pad, axis=1
    )
    out_ids = [int(v) for v in np.nonzero(~inside)[0]]
    items.append(
        CheckItem(
            "vertices_in_inflated_bbox",
            not out_ids,
            f"vertices outside box: {out_ids}" if out_ids else "",
        )
    )

    bent = [
        (c.vertices, c.max_perp)
        for c in t.chains
        if c.path_length > 0 and c.max_perp > COLLINEAR_RTOL * c.path_length
    ]
    items.append(
        CheckItem(
            "chains_collinear",
            not bent,
            f"chains bending beyond tolerance: {bent}" if bent else "",
        )
    )

    uneven = [
        (c.vertices, c.gap_spread) for c in t.chains if c.gap_spread > SPACING_RTOL
    ]
    items.append(
        CheckItem(
            "chains_evenly_spaced",
            not uneven,
            f"chains with uneven gaps: {uneven}" if uneven else "",
        )
    )

    tol = MARGINAL_RTOL * max(1.0, M)
    inflow = [t.in_flow(v) for v in range(t.n_vertices)]
    outflow = [t.out_flow(v) for v in range(t.n_vertices)]
    flux_bad: list[str] = []
    ordinal = {"source": 0, "sink": 0, "free": 0}
    for v, role in enumerate(t.roles):
        k = ordinal[role]
        ordinal[role] += 1
        if role == "source":
            err = abs(outflow[v] - inflow[v] - config.sources[k].mass)
            if err > tol:
                flux_bad.append(f"source v{v} net out {err:.3e} off")
        elif role == "sink":
            err = abs(inflow[v] - outflow[v] - config.sinks[k].mass)
            if err > tol:
                flux_bad.append(f"sink v{v} net in {err:.3e} off")
    items.append(
        CheckItem("terminal_flux", not flux_bad, "; ".join(flux_bad))
    )

    cons_bad = [
        (v, abs(inflow[v] - outflow[v]))
        for v in t.free_indices()
        if abs(inflow[v] - outflow[v]) > tol
    ]
    items.append(
        CheckItem(
            "interior_conservation",
            not cons_bad,
            f"unbalanced free vertices: {cons_bad}" if cons_bad else "",
        )
    )
    return StructureReport(tuple(items))


def graph_to_dict(g: WeightedDigraph) -> dict:
    doc = {
        "vertices": [
            {"id": v, "role": g.roles[v], "position": [float(c) for c in g.positions[v]]}
            for v in range(g.n_vertices)
        ],
        "edges": [
            {
                "tail": e.tail,
                "head": e.head,
                "weight": e.weight,
                "length": e.length,
            }
            for e in g.edges
        ],
    }
    return doc


def graph_from_dict(doc: dict) -> WeightedDigraph:
    verts = sorted(doc["vertices"], key=lambda r: r["id"])
    positions = np.array([r["position"] for r in verts], dtype=float)
    if positions.size == 0:
        positions = positions.reshape(0, 0)
    roles = tuple(r["role"] for r in verts)
    edges = tuple(
        Edge(int(r["tail"]), int(r["head"]), float(r["weight"]), float(r["length"]))
        for r in doc["edges"]
    )
    return WeightedDigraph(positions=positions, roles=roles, edges=edges)
