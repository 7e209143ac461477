"""Rewrite transport plans onto a forest support, and check regularity.

A feasible plan is *regular* when, viewed as a digraph on vertices
(sources, sinks, free atoms):

(a) no directed cycle carries positive flow — self-loops and two-cycles
    between free atoms included; and
(b) no ordered pair of vertices is joined by two distinct positive-flow
    directed paths.

Sources only emit and sinks only absorb, so directed cycles can involve
free atoms alone.  Duplicate paths between any two vertices extend
(backwards to a source, forwards to a sink, on an acyclic support) to
duplicate source->sink paths, so (b) is checked per terminal pair.

:func:`regularize` asks for more: a support with no *undirected* cycle,
which is what lets chain collapse produce trees.  It pushes flow around
each undirected cycle in whichever direction does not increase the
q-power cost, until the support is a forest.  A directed cycle and a pair
of parallel paths are undirected cycles too, so the forest it returns
satisfies (a) and (b); every push is feasibility-preserving.
Min-cost-flow plans always have a forest support already, since the
simplex returns a basic solution, and the solver does not call
:func:`regularize`; these are tools for arbitrary plans.  One union-find
pass certifies a forest, and :func:`regularize` and :func:`is_regular` then
skip their searches.
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


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    kind: str | None = None          # "self_loop" | "cycle" | "parallel_paths"
    detail: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def zero_flow_threshold(config: SignedConfig) -> float:
    return ZERO_FLOW_RTOL * total_mass(config)


def prune_zeros(plan: TransportPlan, config: SignedConfig) -> TransportPlan:
    """Drop flows below 10^-12 of total mass."""
    return plan.pruned(zero_flow_threshold(config))


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


def _is_forest(plan: TransportPlan) -> bool:
    """Whether the plan's support is a forest; every stored entry is an edge.

    A free-atom two-cycle u->v, v->u and a free self-loop count as cycles.
    A forest support has no directed cycle, at most one directed path
    between any two vertices and no undirected cycle: it is regular, and
    :func:`regularize` returns it as it is.
    """
    ns, nk = plan.n_sources, plan.n_sinks
    return edges_form_forest(
        (i if i < ns else i + nk, ns + j) for i, j in plan.entries
    )


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
    tol = zero_flow_threshold(config)

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
    """Prune dust flows, then cancel undirected cycles until the support is
    a forest.  Feasibility-preserving and cost non-increasing; the result
    is regular.

    A plan whose pruned support is already a forest, as min-cost-flow plans
    always are, is returned pruned without a cycle search; its entries
    keep their order.
    """
    pruned = prune_zeros(plan, config)
    if _is_forest(pruned):
        return pruned
    return cancel_flat_cycles(pruned, config, Z, q)


# ---------------------------------------------------------------------------
# verification

def is_regular(plan: TransportPlan, tol: float = 0.0) -> RegularityReport:
    """Check conditions (a) and (b); returns the first violation as witness.

    ``tol``: flows at or below this value are ignored (callers typically
    pass the 10^-12-of-total-mass threshold); with ``tol=0`` every stored
    entry counts, zero flows included.  A forest support is regular, so it
    is accepted without a search.

    Witnesses: ``self_loop`` gives the key of a positive free self-loop;
    ``cycle`` gives arc keys in order, each arc's head the next one's tail
    and the last arc's head the first one's tail; ``parallel_paths`` gives
    ``(s, t, path, path)`` for the first source-sink pair joined twice,
    with two distinct arc-key tuples from source ``s`` to sink ``t``.
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

    n = view.n_vertices
    out_arcs: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in range(n)]
    indeg = [0] * n
    for key in sorted(view.entries):
        v = view.col_to_vertex(key[1])
        out_arcs[view.row_to_vertex(key[0])].append((v, key))
        indeg[v] += 1

    # Kahn's topological sort; the vertices it never reaches lie on or
    # downstream of a directed cycle
    order = [v for v in range(n) if indeg[v] == 0]
    for u in order:  # the list grows while it is scanned
        for v, _ in out_arcs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) < n:
        return RegularityReport(False, "cycle", _cycle_in(out_arcs, indeg))

    # per source, count paths to every vertex in topological order, capped
    # at two, keeping the arc that first reached each vertex and the arc
    # that brought its count to two
    for s in range(view.n_sources):
        count = [0] * n
        count[s] = 1
        first: dict[int, tuple[int, tuple[int, int]]] = {}
        second: dict[int, tuple[int, tuple[int, int]]] = {}
        for u in order:
            if not count[u]:
                continue
            for v, key in out_arcs[u]:
                if count[v] == 2:
                    continue
                if count[v] == 0:
                    first[v] = (u, key)
                count[v] = min(2, count[v] + count[u])
                if count[v] == 2:
                    second[v] = (u, key)
        for t in range(view.n_sinks):
            tv = view.n_sources + t
            if count[tv] == 2:
                paths = (
                    _read_path(first, second, s, tv, False),
                    _read_path(first, second, s, tv, True),
                )
                return RegularityReport(False, "parallel_paths", (s, t) + paths)
    return RegularityReport(True)


def _cycle_in(
    out_arcs: list[list[tuple[int, tuple[int, int]]]], indeg: list[int]
) -> tuple[tuple[int, int], ...]:
    """Arc keys of one directed cycle among the vertices Kahn's sort left.

    Each such vertex keeps an in-arc from another one left, so walking
    those in-arcs backwards from any of them must repeat a vertex.
    """
    into: dict[int, tuple[int, tuple[int, int]]] = {}
    for u, arcs in enumerate(out_arcs):
        if indeg[u]:
            for v, key in arcs:
                if indeg[v]:
                    into.setdefault(v, (u, key))
    v = min(into)
    seen: dict[int, int] = {}
    walk: list[tuple[int, int]] = []
    while v not in seen:
        seen[v] = len(walk)
        v, key = into[v]
        walk.append(key)
    return tuple(reversed(walk[seen[v]:]))


def _read_path(
    first: dict[int, tuple[int, tuple[int, int]]],
    second: dict[int, tuple[int, tuple[int, int]]],
    s: int,
    v: int,
    use_second: bool,
) -> tuple[tuple[int, int], ...]:
    """Arc keys of a path s -> v read back from the counting pass.

    The first path follows first-reaching arcs.  The second takes the arc
    that brought v's count to two; when that is also its first arc, the
    tail had count two already and the second path continues from there.
    The two paths differ in the last arc where they split.
    """
    keys = []
    while v != s:
        if use_second and second[v] != first[v]:
            v, key = second[v]
            use_second = False
        else:
            v, key = first[v]
        keys.append(key)
    return tuple(reversed(keys))
