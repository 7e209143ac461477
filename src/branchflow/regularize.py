"""Rewrite transport plans onto a forest support.

A plan's support, read on vertices (sources, sinks, free atoms) as an
undirected multigraph, is a *forest* when it has no cycle; a free
self-loop and a free two-cycle u->v, v->u count as cycles.  A forest has
no directed cycle and joins any two vertices by at most one path, which is
what lets chain collapse (``graphs.reduce_graph``) produce trees.

:func:`regularize` pushes flow around each undirected cycle in whichever
direction does not increase the q-power cost, until the support is a
forest; every push is feasibility-preserving.  Min-cost-flow plans always
have a forest support already, since the simplex returns a basic
solution, and the solver does not call :func:`regularize`; it is a tool
for arbitrary plans.  One union-find pass certifies a forest, and
:func:`regularize` then skips its search.
"""

from __future__ import annotations

import numpy as np

from .graphs import edges_form_forest
from .measures import SignedConfig
from .transport import TransportPlan, as_positions, vertex_positions, zero_flow_threshold


def prune_zeros(plan: TransportPlan, config: SignedConfig) -> TransportPlan:
    """Drop flows below 10^-12 of total mass."""
    return plan.pruned(zero_flow_threshold(config))


def _is_forest(plan: TransportPlan) -> bool:
    """Whether the plan's support is a forest; every stored entry is an edge.

    A free-atom two-cycle u->v, v->u and a free self-loop count as cycles.
    :func:`regularize` returns a plan with a forest support as it is.
    """
    tails, heads, _ = plan.arcs()
    return edges_form_forest(zip(tails.tolist(), heads.tolist()))


# ---------------------------------------------------------------------------
# undirected cycles (cost-neutral or better)

def _undirected_cycle(plan: TransportPlan, keys) -> list[tuple[tuple[int, int], int]] | None:
    """One cycle among the entries ``keys`` of ``plan``'s matrix: [(key, +1 / -1)]."""
    adj: dict[int, list[tuple[int, tuple[int, int], int]]] = {}
    for (i, j) in sorted(keys):
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
    tol = zero_flow_threshold(config)
    flow = {(i, j): g for i, j, g in plan.pruned(tol).to_triplets()}

    def hop_cost(key: tuple[int, int]) -> float:
        i, j = key
        d = float(np.linalg.norm(P[plan.row_to_vertex(i)] - P[plan.col_to_vertex(j)]))
        return d**q

    while (cycle := _undirected_cycle(plan, flow)) is not None:
        signed = sum(sign * hop_cost(k) for k, sign in cycle)
        if signed > 0 or not any(sign < 0 for _, sign in cycle):
            cycle = [(k, -sign) for k, sign in cycle]
        dec = [k for k, sign in cycle if sign < 0]
        inc = [k for k, sign in cycle if sign > 0]
        delta = min(flow[k] for k in dec)
        for k in inc:
            flow[k] = flow.get(k, 0.0) + delta
        for k in dec:
            left = flow[k] - delta
            if left > tol:
                flow[k] = left
            else:
                del flow[k]
    return TransportPlan.from_triplets(
        plan.n_sources, plan.n_sinks, plan.n_free, ((i, j, g) for (i, j), g in flow.items()))


def regularize(
    plan: TransportPlan,
    config: SignedConfig,
    Z: np.ndarray,
    q: float,
) -> TransportPlan:
    """Prune dust flows, then cancel undirected cycles until the support is
    a forest.  Feasibility-preserving and cost non-increasing.

    A plan whose pruned support is already a forest, as min-cost-flow plans
    always are, is returned pruned without a cycle search; its entries
    keep their order.
    """
    pruned = prune_zeros(plan, config)
    if _is_forest(pruned):
        return pruned
    return cancel_flat_cycles(pruned, config, Z, q)
