"""Embedded weighted digraphs induced by plans, chain reduction, checks.

A plan on vertices (sources, sinks, free atoms) induces a directed graph
embedded in R^k: one vertex per terminal and per free atom that actually
relays mass, one weighted edge per positive plan entry.  Collapsing every
maximal chain (runs of relay vertices with one arc in and one arc out)
yields the reduced graph, whose interior vertices all branch.  On solver
output the reduced graph should be a tree with straight, evenly filled
chains; ``verify_structure`` checks that, item by item, with witnesses.

A graph keeps its edges as four columns of one length: ``tail`` and
``head`` (vertex indices), ``weight`` and ``length``.  Producers fill the
columns from the lists they build, and consumers read them whole: degrees
and flows are one ``np.bincount`` each, and the file format
(``graph_to_dict``/``graph_from_dict``) is one record per vertex and per
edge.

Both constructions work on whole index lists and arrays rather than one
entry or one chain at a time: vertex ids come from index arithmetic, the
edge and chain lengths from one stacked matmul each, and every chain's
perpendicular distances from one pass over all chains.  Small graphs
dominate the solver's use (a few dozen edges), so index bookkeeping stays
in plain lists and NumPy is called a fixed number of times per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .measures import SignedConfig, total_mass
from .transport import TransportPlan, MARGINAL_RTOL, vertex_positions, zero_flow_threshold

ROLES = ("source", "sink", "free")
CHAIN_FLOW_RTOL = 1e-6
COLLINEAR_RTOL = 1e-5
SPACING_RTOL = 1e-5


@dataclass(frozen=True)
class WeightedDigraph:
    """Vertices with roles embedded in R^k plus weighted directed edges.

    Edge e runs from vertex ``tail[e]`` to vertex ``head[e]``, carries
    ``weight[e]`` > 0 and is ``length[e]`` >= 0 long.  The four columns are
    1-d arrays of one length, the ends intp and the rest float; any
    sequence given is converted.  ``labels`` preserves each vertex's id in
    whatever indexing the graph was built from (plan vertex ids for
    plan_to_graph, input vertex ids for reduce_graph); purely diagnostic.
    """

    positions: np.ndarray
    roles: tuple[str, ...]
    tail: np.ndarray
    head: np.ndarray
    weight: np.ndarray
    length: np.ndarray
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
        tail = np.asarray(self.tail, dtype=np.intp)
        head = np.asarray(self.head, dtype=np.intp)
        weight = np.asarray(self.weight, dtype=float)
        length = np.asarray(self.length, dtype=float)
        if not (tail.ndim == 1 and tail.shape == head.shape == weight.shape == length.shape):
            raise ValueError("tail, head, weight and length must be 1-d and of one length")
        for name, col in (("tail", tail), ("head", head), ("weight", weight), ("length", length)):
            object.__setattr__(self, name, col)
        if not tail.size:
            return
        # one pass per check: the ends' bounds from their lists, which costs
        # less than a NumPy reduction on a graph of a few dozen edges, and
        # the float minima from np.minimum, which a NaN propagates through
        tails, heads = tail.tolist(), head.tolist()
        if not (0 <= min(tails) and 0 <= min(heads) and max(tails) < V and max(heads) < V):
            e = int(np.argmax((tail < 0) | (tail >= V) | (head < 0) | (head >= V)))
            raise ValueError(f"edge {e} ({tails[e]}->{heads[e]}) references a missing vertex")
        if not np.minimum.reduce(weight) > 0:
            e = int(np.argmin(weight > 0))
            raise ValueError(f"edge {e} must carry positive weight, not {weight[e]}")
        if not np.minimum.reduce(length) >= 0:
            e = int(np.argmin(length >= 0))
            raise ValueError(f"edge {e} has a negative or NaN length, {length[e]}")

    @property
    def n_vertices(self) -> int:
        return self.positions.shape[0]

    @property
    def n_edges(self) -> int:
        return self.tail.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(in-degree, out-degree) arrays over vertices."""
        V = self.n_vertices
        return np.bincount(self.head, minlength=V), np.bincount(self.tail, minlength=V)

    def flows(self) -> tuple[np.ndarray, np.ndarray]:
        """(inflow, outflow) arrays over vertices: each vertex's sum of the
        weights entering and leaving it, added in edge order."""
        V = self.n_vertices
        return (np.bincount(self.head, self.weight, minlength=V),
                np.bincount(self.tail, self.weight, minlength=V))

    def free_indices(self) -> list[int]:
        return [v for v, r in enumerate(self.roles) if r == "free"]


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
    return WeightedDigraph(
        positions=P.take(keep, axis=0),
        roles=("source",) * ns + ("sink",) * nk + ("free",) * (len(keep) - n_term),
        tail=[new_id[v] for v in tails],
        head=[new_id[v] for v in heads],
        weight=[pruned.entries[k] for k in keys],
        length=np.sqrt(_squared_norms(P.take(tails, axis=0) - P.take(heads, axis=0))),
        labels=tuple(keep),
    )


def edges_form_forest(edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the edges u-v, read as an undirected multigraph, have no cycle.

    Union-find over the vertex ids seen, with path halving.  A self-loop
    u-u closes a cycle, and so does a pair joined twice, in either
    direction.
    """
    parent: dict[int, int] = {}
    up = parent.get
    for u, v in edges:
        # climb to each root, pointing every vertex passed at its grandparent
        while (p := up(u)) is not None:
            parent[u] = up(p, p)
            u = parent[u]
        while (p := up(v)) is not None:
            parent[v] = up(p, p)
            v = parent[v]
        if u == v:
            return False
        parent[u] = v
    return True


def is_forest(g: WeightedDigraph) -> bool:
    """True when the undirected support has no cycle (parallel edges count)."""
    return edges_form_forest(zip(g.tail.tolist(), g.head.tolist()))


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
    tails = g.tail.tolist()
    heads = g.head.tolist()
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

    weights = g.weight.tolist()
    lengths = g.length.tolist()
    hop_flows = [weights[h] for h in order]
    hop_lengths = [lengths[h] for h in order]
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
        tail=[new_id[v] for v in starts],
        head=[new_id[v] for v in ends],
        weight=[c.flow for c in chains],
        length=straight,
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
    """Network cost sum(length * weight^(1/q)) over edges.

    Summed left to right in edge order with Python's scalar ``**``: the
    oracle reports this value, which NumPy's vectorized power and pairwise
    sum would move at rounding level.
    """
    p = 1.0 / q
    return float(sum(l * w ** p for l, w in zip(g.length.tolist(), g.weight.tolist())))


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

    def check(name: str, bad: list, what: str) -> None:
        # an item passes without witnesses; its detail lists them
        items.append(CheckItem(name, not bad, f"{what}: {bad}" if bad else ""))

    indeg, outdeg = t.degrees()
    deg = indeg + outdeg
    check("interior_degree_ge_3",
          [(v, int(deg[v])) for v in t.free_indices() if 0 < deg[v] < 3],
          "free vertices with degree < 3")

    forest = is_forest(t)
    items.append(CheckItem("acyclic_undirected", forest, "" if forest else "undirected cycle"))

    N = config.n_pairs
    budget = 2 * N**3 + 2 * N
    over = t.n_vertices > budget
    items.append(CheckItem("vertex_budget", not over,
                           f"{t.n_vertices} vertices > budget {budget}" if over else ""))

    M = total_mass(config)
    positive = [a.mass for a in config.sources + config.sinks if a.mass > 0]
    lo = min(positive) / (2 * N) ** 2 if positive else 0.0
    slack = 1e-12 * max(1.0, M)
    check("edge_weight_bracket",
          [(int(i), float(t.weight[i]))
           for i in np.flatnonzero((t.weight < lo - slack) | (t.weight > M + slack))],
          f"edges outside [{lo:.3e}, {M:.3e}]")

    low, high = config.bbox()
    extent = high - low
    pad = 0.10 * np.where(extent > 0, extent, config.diameter() or 1.0)
    inside = np.all(t.positions >= low - pad, axis=1) & np.all(
        t.positions <= high + pad, axis=1
    )
    check("vertices_in_inflated_bbox", np.flatnonzero(~inside).tolist(), "vertices outside box")

    check("chains_collinear",
          [(c.vertices, c.max_perp) for c in t.chains
           if c.path_length > 0 and c.max_perp > COLLINEAR_RTOL * c.path_length],
          "chains bending beyond tolerance")
    check("chains_evenly_spaced",
          [(c.vertices, c.gap_spread) for c in t.chains if c.gap_spread > SPACING_RTOL],
          "chains with uneven gaps")

    tol = MARGINAL_RTOL * max(1.0, M)
    inflow, outflow = (f.tolist() for f in t.flows())
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
    items.append(CheckItem("terminal_flux", not flux_bad, "; ".join(flux_bad)))

    check("interior_conservation",
          [(v, abs(inflow[v] - outflow[v])) for v in t.free_indices()
           if abs(inflow[v] - outflow[v]) > tol],
          "unbalanced free vertices")
    return StructureReport(tuple(items))


def graph_to_dict(g: WeightedDigraph) -> dict:
    """JSON-ready document: one record per vertex (id, role, position) and
    one per edge (tail, head, weight, length), in plain Python numbers."""
    return {
        "vertices": [
            {"id": v, "role": r, "position": p}
            for v, (r, p) in enumerate(zip(g.roles, g.positions.tolist()))
        ],
        "edges": [
            {"tail": t, "head": h, "weight": w, "length": l}
            for t, h, w, l in zip(
                g.tail.tolist(), g.head.tolist(), g.weight.tolist(), g.length.tolist())
        ],
    }


def graph_from_dict(doc: dict) -> WeightedDigraph:
    """The graph of a ``graph_to_dict`` document.

    Edge ends are integer vertex ids, so the ids must be 0..V-1, each once,
    in any order; every position, weight and length must be finite.
    Raises ValueError otherwise, and on anything the graph itself refuses.
    """
    verts = sorted(doc["vertices"], key=lambda r: r["id"])
    ids = [r["id"] for r in verts]
    if ids != list(range(len(verts))):
        raise ValueError(f"vertex ids must be 0..{len(verts) - 1}, each once; got {ids}")
    positions = np.array([r["position"] for r in verts], dtype=float)
    if positions.size == 0:
        positions = positions.reshape(0, 0)
    edges = doc["edges"]
    tail = [r["tail"] for r in edges]
    head = [r["head"] for r in edges]
    if not all(type(v) is int for v in tail + head):
        raise ValueError("edge ends must be integer vertex ids")
    weight = np.array([float(r["weight"]) for r in edges])
    length = np.array([float(r["length"]) for r in edges])
    if not (np.isfinite(positions).all() and np.isfinite(weight).all()
            and np.isfinite(length).all()):
        raise ValueError("vertex positions, edge weights and lengths must be finite")
    return WeightedDigraph(positions, tuple(r["role"] for r in verts), tail, head, weight, length)
