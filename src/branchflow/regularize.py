"""Rewrite transport plans into their regular normal form.

A feasible plan is *regular* when, viewed as a digraph on vertices
(sources, sinks, free atoms):

(a) no directed cycle carries positive flow — self-loops and two-cycles
    between free atoms included; and
(b) no ordered pair of vertices is joined by two distinct positive-flow
    directed paths.

Sources only emit and sinks only absorb, so directed cycles can involve
free atoms alone; cancelling such a cycle touches conservation nodes only
and never breaks feasibility.  Duplicate paths between any two vertices
extend (backwards to a source, forwards to a sink, on an acyclic support)
to duplicate source->sink paths, so (b) is checked per terminal pair.

The full pipeline :func:`regularize` additionally cancels *undirected*
cycles in the support, pushing circulation in whichever direction does not
increase the q-power cost.  Neither (a) nor (b) forbids these, but an
acyclic (forest) support is what lets chain collapse produce trees, so the
pipeline removes them too; every step is feasibility-preserving and
non-increasing in cost.  A forest support, which min-cost-flow plans
usually have, satisfies all three at once; one union-find pass certifies
it, and :func:`regularize` and :func:`is_regular` then skip their searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .measures import SignedConfig, total_mass
from .transport import (
    TransportPlan,
    ZERO_FLOW_RTOL,
    as_positions,
    vertex_positions,
)


class NotRegularError(ValueError):
    """An operation required a regular plan but got a witnessed violation."""


class PathBudgetError(RuntimeError):
    """Path enumeration exceeded its budget (pathological parallel structure)."""


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    kind: str | None = None          # "self_loop" | "cycle" | "parallel_paths"
    detail: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Chain:
    """Maximal positive-flow path whose interior vertices relay exactly once.

    ``vertices`` are plan vertex ids (endpoints are terminals or junction
    atoms, interior vertices are free atoms with in- and out-degree one);
    ``arcs`` are the matrix keys of the hops; ``flow`` is the common flow
    value; ``flow_spread`` the max relative deviation observed across hops.
    """

    vertices: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]
    flow: float
    flow_spread: float


def zero_flow_threshold(plan: TransportPlan, config: SignedConfig) -> float:
    return ZERO_FLOW_RTOL * total_mass(config)


def prune_zeros(plan: TransportPlan, config: SignedConfig) -> TransportPlan:
    """Drop flows below 10^-12 of total mass."""
    return plan.pruned(zero_flow_threshold(plan, config))


def edges_form_forest(edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the edges u-v, read as an undirected multigraph, have no cycle.

    Union-find over the vertex ids seen.  A self-loop u-u closes a cycle,
    and so does a pair joined twice, in either direction.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _is_forest(plan: TransportPlan) -> bool:
    """Whether the plan's support is a forest; every stored entry is an edge.

    A free-atom two-cycle u->v, v->u and a free self-loop count as cycles.
    A forest support has no directed cycle, at most one directed path
    between any two vertices and no undirected cycle: it is regular, and
    every regularization stage returns it as it is.
    """
    return edges_form_forest(
        (plan.row_to_vertex(i), plan.col_to_vertex(j)) for i, j in plan.entries
    )


# ---------------------------------------------------------------------------
# directed cycles

def _free_adjacency(plan: TransportPlan) -> dict[int, list[tuple[int, tuple[int, int]]]]:
    """Free-vertex -> [(free head vertex, key)] for free->free arcs only."""
    first_free = plan.n_sources + plan.n_sinks
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for (i, j) in sorted(plan.entries):
        if i >= plan.n_sources and j >= plan.n_sinks:
            u = plan.row_to_vertex(i)
            v = plan.col_to_vertex(j)
            assert u >= first_free and v >= first_free
            adj.setdefault(u, []).append((v, (i, j)))
    return adj


def _find_directed_cycle(plan: TransportPlan) -> list[tuple[int, int]] | None:
    """Arc keys of one positive-flow directed cycle among free atoms, or None."""
    adj = _free_adjacency(plan)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    for root in sorted(adj):
        if color.get(root, WHITE) != WHITE:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = GRAY
        path: list[tuple[int, tuple[int, int]]] = []  # (vertex, arc taken into it)
        while stack:
            u, idx = stack[-1]
            arcs = adj.get(u, ())
            if idx < len(arcs):
                stack[-1] = (u, idx + 1)
                v, key = arcs[idx]
                if u == v:
                    return [key]  # self-loop
                state = color.get(v, WHITE)
                if state == GRAY:
                    # cycle v -> ... -> u -> v; path entries hold the arc
                    # *into* each stack vertex, so stop before v's own entry
                    cycle = [key]
                    for w, k in reversed(path):
                        if w == v:
                            break
                        cycle.append(k)
                    cycle.reverse()
                    return cycle
                if state == WHITE:
                    color[v] = GRAY
                    stack.append((v, 0))
                    path.append((v, key))
            else:
                color[u] = BLACK
                stack.pop()
                if path and path[-1][0] == u:
                    path.pop()
    return None


def cancel_cycles(plan: TransportPlan, config: SignedConfig) -> TransportPlan:
    """Subtract the minimum arc flow around each positive directed cycle.

    Repeats until no directed cycle carries positive flow.  Arc costs are
    nonnegative, so the q-power cost never increases; conservation at free
    atoms is untouched because every cycle vertex loses equal in- and
    out-flow.
    """
    out = prune_zeros(plan, config).copy()
    tol = zero_flow_threshold(plan, config)
    while True:
        cycle = _find_directed_cycle(out)
        if cycle is None:
            return out
        delta = min(out.entries[k] for k in cycle)
        for k in cycle:
            left = out.entries[k] - delta
            if left > tol:
                out.entries[k] = left
            else:
                del out.entries[k]


# ---------------------------------------------------------------------------
# duplicate directed paths

def _enumerate_paths(
    plan: TransportPlan,
    start: int,
    goal: int,
    budget: list[int],
    limit: int | None = None,
) -> list[list[tuple[int, int]]]:
    """All positive-flow directed paths start -> goal, as arc-key lists.

    Requires an acyclic support.  ``budget`` is a single-element mutable
    counter shared across calls; exceeding it raises PathBudgetError.
    """
    adj = {}
    for (i, j) in sorted(plan.entries):
        adj.setdefault(plan.row_to_vertex(i), []).append(
            (plan.col_to_vertex(j), (i, j))
        )
    paths: list[list[tuple[int, int]]] = []
    stack: list[tuple[int, int]] = [(start, 0)]
    trail: list[tuple[int, int]] = []
    while stack:
        u, idx = stack[-1]
        if u == goal and trail:
            paths.append(list(trail))
            if limit is not None and len(paths) >= limit:
                return paths
            stack.pop()
            if trail:
                trail.pop()
            continue
        arcs = adj.get(u, ())
        if idx < len(arcs):
            stack[-1] = (u, idx + 1)
            budget[0] -= 1
            if budget[0] < 0:
                raise PathBudgetError("path enumeration budget exhausted")
            v, key = arcs[idx]
            stack.append((v, 0))
            trail.append(key)
        else:
            stack.pop()
            if trail:
                trail.pop()
    return paths


def merge_parallel_paths(
    plan: TransportPlan,
    config: SignedConfig,
    Z: np.ndarray,
    q: float,
    path_budget: int = 100_000,
) -> TransportPlan:
    """Reroute flow so at most one directed path joins each terminal pair.

    Wherever two distinct positive paths share a source and a sink, flow
    moves from the path with the larger sum of q-power hop lengths onto the
    cheaper one, by the minimum flow found on the expensive path's own
    arcs; that zeroes at least one arc per merge, so the scan terminates.
    Pairs are processed in lexicographic order and re-scanned to a fixed
    point.  Requires an acyclic (cancelled) support.
    """
    Z = as_positions(Z, config.dimension)
    P = vertex_positions(config, Z)
    out = prune_zeros(plan, config).copy()
    tol = zero_flow_threshold(plan, config)
    budget = [path_budget]

    def hop_cost(key: tuple[int, int]) -> float:
        i, j = key
        d = float(np.linalg.norm(P[out.row_to_vertex(i)] - P[out.col_to_vertex(j)]))
        return d**q

    changed = True
    while changed:
        changed = False
        for s in range(out.n_sources):
            for t in range(out.n_sinks):
                sv = s
                tv = out.n_sources + t
                while True:
                    paths = _enumerate_paths(out, sv, tv, budget, limit=2)
                    if len(paths) < 2:
                        break
                    a, b = paths[0], paths[1]
                    cost_a = sum(hop_cost(k) for k in a)
                    cost_b = sum(hop_cost(k) for k in b)
                    expensive, cheap = (a, b) if cost_a >= cost_b else (b, a)
                    only_exp = [k for k in expensive if k not in set(cheap)]
                    delta = min(out.entries[k] for k in only_exp)
                    for k in expensive:
                        out.entries[k] -= delta
                    for k in cheap:
                        out.entries[k] = out.entries.get(k, 0.0) + delta
                    for k in list(only_exp):
                        if out.entries.get(k, 0.0) <= tol:
                            out.entries.pop(k, None)
                    changed = True
    return out


# ---------------------------------------------------------------------------
# undirected cycles (cost-neutral or better)

def _undirected_cycle(plan: TransportPlan) -> list[tuple[tuple[int, int], int]] | None:
    """One cycle in the undirected support: [(arc key, +1 forward / -1 back)]."""
    adj: dict[int, list[tuple[int, tuple[int, int], int]]] = {}
    for (i, j) in sorted(plan.entries):
        u = plan.row_to_vertex(i)
        v = plan.col_to_vertex(j)
        adj.setdefault(u, []).append((v, (i, j), +1))
        adj.setdefault(v, []).append((u, (i, j), -1))
    seen: set[int] = set()
    for root in sorted(adj):
        if root in seen:
            continue
        parent: dict[int, tuple[int, tuple[int, int], int] | None] = {root: None}
        order = [root]
        seen.add(root)
        qi = 0
        while qi < len(order):
            u = order[qi]
            qi += 1
            for v, key, sign in adj[u]:
                pu = parent[u]
                if pu is not None and pu[1] == key:
                    continue  # the tree arc we arrived by
                if v not in parent:
                    parent[v] = (u, key, sign)
                    seen.add(v)
                    order.append(v)
                else:
                    # non-tree arc u-v closes a cycle through the BFS tree
                    anc_u = [u]
                    x = u
                    while parent[x] is not None:
                        x = parent[x][0]
                        anc_u.append(x)
                    anc_set = set(anc_u)
                    path_v: list[tuple[tuple[int, int], int]] = []
                    x = v
                    while x not in anc_set:
                        px, k, sg = parent[x]
                        path_v.append((k, -sg))  # child->parent flips orientation
                        x = px
                    meet = x
                    path_u: list[tuple[tuple[int, int], int]] = []
                    y = u
                    while y != meet:
                        py, k, sg = parent[y]
                        path_u.append((k, sg))
                        y = py
                    # cycle: meet -> u (tree, reversed), u -> v (non-tree), v -> meet
                    cycle = [(k, sg) for k, sg in reversed(path_u)]
                    cycle.append((key, sign))
                    cycle.extend(path_v)
                    return cycle
    return None


def cancel_flat_cycles(
    plan: TransportPlan,
    config: SignedConfig,
    Z: np.ndarray,
    q: float,
) -> TransportPlan:
    """Remove undirected cycles by circulating flow in the cheaper direction.

    Pushing delta around an undirected cycle adds to arcs traversed along
    their orientation and subtracts from arcs traversed against it, which
    leaves marginals and conservation untouched.  The direction whose signed
    q-power length sum is <= 0 is chosen, so cost never increases; delta is
    the minimum flow on the arcs being decreased, so each pass deletes an
    arc and the loop terminates with a forest support.
    """
    Z = as_positions(Z, config.dimension)
    P = vertex_positions(config, Z)
    out = prune_zeros(plan, config).copy()
    tol = zero_flow_threshold(plan, config)

    def hop_cost(key: tuple[int, int]) -> float:
        i, j = key
        d = float(np.linalg.norm(P[out.row_to_vertex(i)] - P[out.col_to_vertex(j)]))
        return d**q

    while True:
        cycle = _undirected_cycle(out)
        if cycle is None:
            return out
        signed = sum(sign * hop_cost(k) for k, sign in cycle)
        if signed > 0 or not any(sign < 0 for _, sign in cycle):
            cycle = [(k, -sign) for k, sign in cycle]
        dec = [k for k, sign in cycle if sign < 0]
        inc = [k for k, sign in cycle if sign > 0]
        delta = min(out.entries[k] for k in dec)
        for k in inc:
            out.entries[k] = out.entries.get(k, 0.0) + delta
        for k in dec:
            left = out.entries[k] - delta
            if left > tol:
                out.entries[k] = left
            else:
                del out.entries[k]


def regularize(
    plan: TransportPlan,
    config: SignedConfig,
    Z: np.ndarray,
    q: float,
) -> TransportPlan:
    """Full pipeline: cancel directed cycles, merge duplicate paths, then
    cancel undirected cycles.  Feasibility-preserving, cost non-increasing,
    and the result has forest support.

    A plan whose pruned support is already a forest, as min-cost-flow plans
    usually are, passes every stage unchanged, so it is returned pruned
    without running them; its entries keep their order.
    """
    pruned = prune_zeros(plan, config)
    if _is_forest(pruned):
        return pruned
    out = cancel_cycles(pruned, config)
    out = merge_parallel_paths(out, config, Z, q)
    out = cancel_flat_cycles(out, config, Z, q)
    return out


# ---------------------------------------------------------------------------
# verification and chain decomposition

def is_regular(plan: TransportPlan, tol: float = 0.0) -> RegularityReport:
    """Check conditions (a) and (b); returns the first violation as witness.

    ``tol``: flows at or below this value are ignored (callers typically
    pass the 10^-12-of-total-mass threshold); with ``tol=0`` every stored
    entry counts, zero flows included.  A forest support is regular, so it
    is accepted without enumerating paths.
    """
    view = plan.pruned(tol) if tol > 0 else plan
    if _is_forest(view):
        return RegularityReport(True)
    for (i, j), g in sorted(view.entries.items()):
        if (
            i >= view.n_sources
            and j >= view.n_sinks
            and i - view.n_sources == j - view.n_sinks
            and g > 0
        ):
            return RegularityReport(False, "self_loop", ((i, j),))
    cycle = _find_directed_cycle(view)
    if cycle is not None:
        return RegularityReport(False, "cycle", tuple(cycle))
    budget = [1_000_000]
    for s in range(view.n_sources):
        for t in range(view.n_sinks):
            paths = _enumerate_paths(view, s, view.n_sources + t, budget, limit=2)
            if len(paths) >= 2:
                return RegularityReport(
                    False, "parallel_paths", (s, t, tuple(paths[0]), tuple(paths[1]))
                )
    return RegularityReport(True)


def maximal_chains(plan: TransportPlan, flow_rtol: float = 1e-9) -> list[Chain]:
    """Decompose a regular plan's support into maximal chains.

    Junctions are terminals plus every free atom whose in- or out-degree
    differs from one; chains run junction to junction through relay-only
    interiors.  Conservation forces one flow value along each chain; the
    observed spread must stay within ``flow_rtol`` relatively.
    """
    report = is_regular(plan)
    if not report:
        raise NotRegularError(f"plan is not regular: {report.kind} {report.detail}")
    out_adj = plan.out_adjacency()
    indeg: dict[int, int] = {}
    outdeg: dict[int, int] = {}
    for u, arcs in out_adj.items():
        outdeg[u] = outdeg.get(u, 0) + len(arcs)
        for v, _, _ in arcs:
            indeg[v] = indeg.get(v, 0) + 1
    first_free = plan.n_sources + plan.n_sinks

    def is_interior(v: int) -> bool:
        return v >= first_free and indeg.get(v, 0) == 1 and outdeg.get(v, 0) == 1

    chains: list[Chain] = []
    for u in sorted(out_adj):
        if is_interior(u):
            continue
        for v, g, key in out_adj[u]:
            vertices = [u, v]
            arcs = [key]
            flows = [g]
            w = v
            while is_interior(w):
                w2, g2, key2 = out_adj[w][0]
                vertices.append(w2)
                arcs.append(key2)
                flows.append(g2)
                w = w2
            flow = flows[0]
            spread = (max(flows) - min(flows)) / max(abs(flow), 1e-300)
            if spread > flow_rtol:
                raise NotRegularError(
                    f"chain {vertices} carries uneven flow (spread {spread:.3e})"
                )
            chains.append(Chain(tuple(vertices), tuple(arcs), flow, spread))
    return chains
