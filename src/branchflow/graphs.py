"""Embedded weighted digraphs induced by plans, chain reduction, checks.

A plan on vertices (sources, sinks, free atoms) induces a directed graph
embedded in R^k: one vertex per terminal and per free atom that actually
relays mass, one weighted edge per positive plan entry.  Collapsing every
maximal chain (runs of relay vertices with one arc in and one arc out)
yields the reduced graph, whose interior vertices all branch.  On solver
output the reduced graph should be a tree with straight, evenly filled
chains; ``verify_structure`` checks that, item by item, with witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import SignedConfig, total_mass
from .transport import TransportPlan, MARGINAL_RTOL, as_positions, vertex_positions
from .regularize import edges_form_forest, is_regular, zero_flow_threshold, NotRegularError

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
        if len(self.roles) != pos.shape[0]:
            raise ValueError("one role per vertex required")
        for r in self.roles:
            if r not in ROLES:
                raise ValueError(f"unknown vertex role {r!r}")
        for e in self.edges:
            if not (0 <= e.tail < pos.shape[0] and 0 <= e.head < pos.shape[0]):
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

    def terminal_indices(self) -> list[int]:
        return [v for v, r in enumerate(self.roles) if r != "free"]

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


def plan_to_graph(config: SignedConfig, Z, plan: TransportPlan) -> WeightedDigraph:
    """Embed a regular plan as a weighted digraph.

    Vertices are every terminal plus each free atom whose throughput
    exceeds 10^-12 of total mass; edges carry the plan flows.  Raises
    NotRegularError on a plan that is not regular.
    """
    Z = as_positions(Z, config.dimension)
    if Z.shape[0] != plan.n_free:
        raise ValueError("Z and plan disagree on the number of free atoms")
    tol = zero_flow_threshold(plan, config)
    pruned = plan.pruned(tol)
    report = is_regular(pruned)
    if not report:
        raise NotRegularError(f"plan is not regular: {report.kind} {report.detail}")
    P = vertex_positions(config, Z)
    throughput = pruned.throughputs()

    n_term = plan.n_sources + plan.n_sinks
    keep = list(range(n_term))
    keep.extend(
        v for v in range(n_term, plan.n_vertices) if throughput[v - n_term] > tol
    )
    remap = {v: i for i, v in enumerate(keep)}
    roles = tuple(
        "source" if v < plan.n_sources else "sink" if v < n_term else "free"
        for v in keep
    )
    items = sorted(pruned.entries.items())
    tails = [pruned.row_to_vertex(i) for (i, _), _ in items]
    heads = [pruned.col_to_vertex(j) for (_, j), _ in items]
    # each squared length is the BLAS dot np.linalg.norm takes of one vector
    d = P[tails] - P[heads]
    lengths = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel()).tolist()
    edges = [
        Edge(remap[t], remap[h], g, length)
        for t, h, (_, g), length in zip(tails, heads, items, lengths)
    ]
    return WeightedDigraph(
        positions=P[keep],
        roles=roles,
        edges=tuple(edges),
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
    Raises when the input has an undirected cycle or a chain whose hop
    flows disagree beyond CHAIN_FLOW_RTOL relatively.
    """
    if not is_forest(g):
        raise ValueError("reduce_graph requires an acyclic (forest) input")
    indeg, outdeg = g.degrees()
    out_edges: dict[int, list[int]] = {v: [] for v in range(g.n_vertices)}
    for idx, e in enumerate(g.edges):
        out_edges[e.tail].append(idx)

    def is_relay(v: int) -> bool:
        return g.roles[v] == "free" and indeg[v] == 1 and outdeg[v] == 1

    keep = [v for v in range(g.n_vertices) if not is_relay(v)]
    remap = {v: i for i, v in enumerate(keep)}
    chains: list[ChainGeometry] = []
    new_edges: list[Edge] = []
    for u in keep:
        for idx in out_edges[u]:
            verts = [u]
            flows = []
            lengths = []
            e = g.edges[idx]
            while True:
                verts.append(e.head)
                flows.append(e.weight)
                lengths.append(e.length)
                if not is_relay(e.head):
                    break
                e = g.edges[out_edges[e.head][0]]
            flow = flows[0]
            spread = (max(flows) - min(flows)) / max(abs(flow), 1e-300)
            if spread > CHAIN_FLOW_RTOL:
                raise ValueError(
                    f"chain {verts} hop flows differ by {spread:.3e} relative"
                )
            a = g.positions[verts[0]]
            b = g.positions[verts[-1]]
            straight = float(np.linalg.norm(b - a))
            path_length = float(sum(lengths))
            max_perp = 0.0
            if len(verts) > 2:
                interior = g.positions[verts[1:-1]]
                max_perp = _max_perpendicular(interior, a, b)
            gaps = np.asarray(lengths, dtype=float)
            mean_gap = float(gaps.mean()) if gaps.size else 0.0
            gap_spread = (
                float((gaps.max() - gaps.min()) / mean_gap) if mean_gap > 0 else 0.0
            )
            chains.append(
                ChainGeometry(
                    vertices=tuple(verts),
                    flow=flow,
                    path_length=path_length,
                    straight_length=straight,
                    max_perp=max_perp,
                    gap_spread=gap_spread,
                )
            )
            new_edges.append(Edge(remap[verts[0]], remap[verts[-1]], flow, straight))
    return ReducedTree(
        positions=g.positions[keep],
        roles=tuple(g.roles[v] for v in keep),
        edges=tuple(new_edges),
        labels=tuple(keep),
        chains=tuple(chains),
    )


def _max_perpendicular(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from ``points`` to the closed segment [a, b]."""
    d = b - a
    denom = float(d @ d)
    if denom == 0.0:
        return float(np.max(np.linalg.norm(points - a, axis=1)))
    t = np.clip((points - a) @ d / denom, 0.0, 1.0)
    feet = a + t[:, None] * d
    return float(np.max(np.linalg.norm(points - feet, axis=1)))


def graph_cost(g: WeightedDigraph, q: float) -> float:
    """Network cost sum(length * weight^(1/q)) over edges."""
    return float(sum(e.length * e.weight ** (1.0 / q) for e in g.edges))


def graph_power_cost(g: WeightedDigraph, q: float) -> float:
    """Plan-side power cost sum(weight * length^q) over edges."""
    return float(sum(e.weight * e.length**q for e in g.edges))


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
    flux_bad: list[str] = []
    for v, role in enumerate(t.roles):
        if role == "source":
            atom = config.sources[_terminal_ordinal(t, v)]
            err = abs(t.out_flow(v) - t.in_flow(v) - atom.mass)
            if err > tol:
                flux_bad.append(f"source v{v} net out {err:.3e} off")
        elif role == "sink":
            atom = config.sinks[_terminal_ordinal(t, v)]
            err = abs(t.in_flow(v) - t.out_flow(v) - atom.mass)
            if err > tol:
                flux_bad.append(f"sink v{v} net in {err:.3e} off")
    items.append(
        CheckItem("terminal_flux", not flux_bad, "; ".join(flux_bad))
    )

    cons_bad = [
        (v, abs(t.in_flow(v) - t.out_flow(v)))
        for v in t.free_indices()
        if abs(t.in_flow(v) - t.out_flow(v)) > tol
    ]
    items.append(
        CheckItem(
            "interior_conservation",
            not cons_bad,
            f"unbalanced free vertices: {cons_bad}" if cons_bad else "",
        )
    )
    return StructureReport(tuple(items))


def _terminal_ordinal(g: WeightedDigraph, v: int) -> int:
    """Position of terminal vertex v among vertices sharing its role."""
    role = g.roles[v]
    return sum(1 for u in range(v) if g.roles[u] == role)


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
