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
entry or one chain at a time: vertex ids come from index arithmetic, edge
and chain lengths from one ``transport._squared_lengths`` pass each, and
every ``max_perp`` from one ``transport._segment_offsets`` pass.
Small graphs dominate the solver's use (a few dozen edges), so index
bookkeeping stays in plain lists and NumPy is called a fixed number of
times per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .measures import SignedConfig, _number, total_mass
from .transport import (
    MARGINAL_RTOL,
    TransportPlan,
    _segment_offsets,
    _squared_lengths,
    vertex_positions,
)

ROLES = ("source", "sink", "free")
CHAIN_FLOW_RTOL = 1e-6
COLLINEAR_RTOL = 1e-5
SPACING_RTOL = 1e-5


def _vertex_ids(name: str, ends) -> np.ndarray:
    """An end column as an intp array; ValueError for an end that the cast
    would change (0.5 would read as vertex 0)."""
    given = np.asarray(ends)
    if given.dtype == np.intp:
        return given
    with np.errstate(invalid="ignore"):  # NaN and out-of-range ends are refused below
        ids = given.astype(np.intp)
    changed = np.flatnonzero(ids != given)
    if changed.size:
        e = int(changed[0])
        raise ValueError(f"edge {e}'s {name} {given.flat[e].item()!r} is not a whole vertex id")
    return ids


@dataclass(frozen=True)
class WeightedDigraph:
    """Vertices with roles embedded in R^k plus weighted directed edges.

    Edge e runs from vertex ``tail[e]`` to vertex ``head[e]``, carries
    ``weight[e]`` > 0 and is ``length[e]`` >= 0 long.  The four columns are
    1-d arrays of one length, the ends intp and the rest float; any
    sequence given is converted, and an end that is not a whole number is
    refused.
    """

    positions: np.ndarray
    roles: tuple[str, ...]
    tail: np.ndarray
    head: np.ndarray
    weight: np.ndarray
    length: np.ndarray

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
        tail, head = _vertex_ids("tail", self.tail), _vertex_ids("head", self.head)
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


def plan_to_graph(config: SignedConfig, Z, plan: TransportPlan) -> WeightedDigraph:
    """Embed a plan as a weighted digraph.

    Vertices are every terminal plus each free atom with positive outflow;
    edges carry every positive plan flow, however small (prune a hand-made
    plan's dust first), in sorted (row, column) order.  The support's
    structure is not judged here: a cycle, a free self-loop included, is
    embedded as it is, and ``reduce_graph`` refuses it.  Raises ValueError
    when a flow enters an atom without outflow.  Vertex ids and flows come
    from the arcs (:meth:`TransportPlan.arcs`), and every edge length from
    one ``_squared_lengths`` pass: its entry's q = 1 plan network cost.
    """
    P = vertex_positions(config, Z)
    if P.shape[0] - config.n_sources - config.n_sinks != plan.n_free:
        raise ValueError("Z and plan disagree on the number of free atoms")
    ns, nk = plan.n_sources, plan.n_sinks
    n_term = ns + nk
    # only a hand-made plan stores a zero flow; a solver plan prunes to itself
    tail_ids, head_ids, weights = plan.pruned(0.0).arcs()
    tails = tail_ids.tolist()
    # a free atom has positive outflow exactly when it is the tail of an arc
    keep = list(range(n_term)) + sorted({v for v in tails if v >= n_term})
    new_id = [-1] * plan.n_vertices
    for i, v in enumerate(keep):
        new_id[v] = i
    # rows are gathered with take, which costs less than indexing by a list
    return WeightedDigraph(
        positions=P.take(keep, axis=0),
        roles=("source",) * ns + ("sink",) * nk + ("free",) * (len(keep) - n_term),
        tail=[new_id[v] for v in tails],
        head=[new_id[v] for v in head_ids.tolist()],
        weight=weights,
        length=np.sqrt(_squared_lengths(P.take(tail_ids, axis=0) - P.take(head_ids, axis=0))),
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


def relay_chains(
    tails: list[int], heads: list[int], free: list[bool]
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """The maximal runs of arcs ``tails[k] -> heads[k]`` through relays,
    free vertices with one arc in and one out, in order of their start
    vertex, then of their first arc; arcs on a cycle of relays are in none.
    Returns (order, bounds, starts, ends, inner): chain c's arcs, in path
    order, are ``order[bounds[c]:bounds[c + 1]]``, it runs from
    ``starts[c]`` to ``ends[c]``, and ``inner`` lists the relays, chain by
    chain.  ``reduce_graph``, the position step and the oracle share it.
    """
    V = len(free)
    indeg = [0] * V
    outdeg = [0] * V
    out_edge = [-1] * V
    for idx, (t, h) in enumerate(zip(tails, heads)):
        outdeg[t] += 1
        indeg[h] += 1
        out_edge[t] = idx
    relay = [f and i == 1 and o == 1 for f, i, o in zip(free, indeg, outdeg)]
    first = sorted((idx for idx, t in enumerate(tails) if not relay[t]), key=tails.__getitem__)
    order: list[int] = []
    bounds = [0]
    ends: list[int] = []
    inner: list[int] = []
    for idx in first:
        while relay[heads[idx]]:
            order.append(idx)
            inner.append(heads[idx])
            idx = out_edge[heads[idx]]
        order.append(idx)
        bounds.append(len(order))
        ends.append(heads[idx])
    return order, bounds, [tails[idx] for idx in first], ends, inner


def reduce_graph(g: WeightedDigraph) -> ReducedTree:
    """Collapse maximal relay chains into single straight edges.

    Each chain of ``relay_chains`` becomes one edge between its endpoints,
    weighted by the common chain flow.  Raises when the input has an
    undirected cycle or a chain whose hop flows disagree beyond
    CHAIN_FLOW_RTOL relatively.

    The chains' straight lengths and the distances behind ``max_perp`` are
    whole-array passes over all chains; each chain's flows, gaps and
    distances are list slices.
    """
    V = g.n_vertices
    tails = g.tail.tolist()
    heads = g.head.tolist()
    if not edges_form_forest(zip(tails, heads)):
        raise ValueError("reduce_graph requires an acyclic (forest) input")
    order, bounds, starts, ends, inner = relay_chains(
        tails, heads, [r == "free" for r in g.roles])
    hop_heads = [heads[h] for h in order]

    # one row per hop: its chain's start and end, and its own head; every
    # hop but a chain's last ends at one of the chain's interior vertices
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    hop_starts = [v for v, k in zip(starts, sizes) for _ in range(k)]
    hop_ends = [v for v, k in zip(ends, sizes) for _ in range(k)]
    a, b, p = g.positions.take(hop_starts + hop_ends + hop_heads, axis=0).reshape(
        3, len(order), g.dimension)
    d = b - a
    straight = np.sqrt(_squared_lengths(d.take(bounds[:-1], axis=0))).tolist()
    dist = np.sqrt(_segment_offsets(p, a, d)[1]).tolist()

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

    # in a forest every relay is inside a chain
    keep = sorted(set(range(V)).difference(inner))
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
        chains=tuple(chains),
    )


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

    Vertex ids and edge ends are integers (``false`` and ``1.0`` are not),
    the ids 0..V-1, each once, in any order; every position, weight and
    length must be a finite JSON number.  Raises TypeError for one that is
    not a number, ValueError otherwise, and on anything the graph itself
    refuses.
    """
    ids = [r["id"] for r in doc["vertices"]]
    # [False, 1.0] == [0, 1], so the types are checked on their own
    if not all(type(v) is int for v in ids) or sorted(ids) != list(range(len(ids))):
        raise ValueError(f"vertex ids must be the integers 0..{len(ids) - 1}, once; got {ids}")
    verts = sorted(doc["vertices"], key=lambda r: r["id"])
    positions = np.array(
        [[_number(c, "a coordinate") for c in r["position"]] for r in verts], dtype=float)
    if positions.size == 0:
        positions = positions.reshape(0, 0)
    edges = doc["edges"]
    tail = [r["tail"] for r in edges]
    head = [r["head"] for r in edges]
    if not all(type(v) is int for v in tail + head):
        raise ValueError("edge ends must be integer vertex ids")
    weight = np.array([float(_number(r["weight"], "an edge weight")) for r in edges])
    length = np.array([float(_number(r["length"], "an edge length")) for r in edges])
    if not (np.isfinite(positions).all() and np.isfinite(weight).all()
            and np.isfinite(length).all()):
        raise ValueError("vertex positions, edge weights and lengths must be finite")
    return WeightedDigraph(positions, tuple(r["role"] for r in verts), tail, head, weight, length)
