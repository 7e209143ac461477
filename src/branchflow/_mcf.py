"""Exact min-cost flow on small networks.

Successive shortest paths with Dijkstra over reduced costs (Johnson
potentials).  Capacities are nonnegative integers, so every intermediate
flow is exact; arc costs are nonnegative floats.  Deterministic: arcs are
relaxed in insertion order and distance ties keep the earlier-discovered
predecessor, so identical inputs produce identical flows.

Each search stops as soon as the sink is popped.  Popped distances never
decrease, so every node still in the heap at that point has distance at
least ``d_t``: it cannot shorten the sink's path, and the potential update
``pi[v] += min(dist[v], d_t)`` gives it exactly ``d_t`` whether its label is
final or not.  Flows and potentials are therefore the same as those of a
search run to exhaustion.

A search scans, per node, only the arcs with residual capacity, kept in
adjacency order as augmentations saturate and open them; most reverse
arcs stay empty.  Scanning them in the same order as
the full adjacency list keeps every tie-break unchanged.

The plan step runs it on candidate arcs, a few cheapest per row and per
column of the cost matrix, so networks stay at a few thousand arcs; the
search is plain Python on purpose.  :meth:`solve` leaves its final Johnson
potentials on the network as :attr:`MinCostFlowNetwork.pi`, and the plan
step prices the omitted arcs with them (``transport._solve_flow_network``).
:meth:`add_arcs` lays out a whole arc list with a few NumPy calls: the arc
arrays, and the adjacency lists from one stable sort of the arc ends by
node.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Sequence

import numpy as np

#: augmentations one :meth:`MinCostFlowNetwork.solve` may run before it fails
MAX_AUGMENTATIONS = 100_000


class SolverError(RuntimeError):
    """The flow solver failed to terminate within its augmentation budget."""


class MinCostFlowNetwork:
    __slots__ = ("n", "to", "cap", "cost", "adj", "pi")

    def __init__(self, n_nodes: int) -> None:
        self.n = n_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[float] = []
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        #: node potentials left by the last :meth:`solve`
        self.pi: list[float] = [0.0] * n_nodes

    def add_arcs(
        self,
        tails: Sequence[int],
        heads: Sequence[int],
        caps: Sequence[int],
        costs: Sequence[float],
    ) -> int:
        """Add tails[k]->heads[k] for every k, in order; returns the first arc id.

        Arc k gets id ``first + 2 * k`` and its residual arc, with capacity 0
        and negated cost, id ``first + 2 * k + 1``.  Both ids are appended to
        their tail's adjacency list, so every list stays in id order.
        """
        first = len(self.to)
        m = len(tails)
        # slot 2k is arc k (tail -> head), slot 2k + 1 its residual arc
        to = np.empty(2 * m, dtype=np.int64)
        to[0::2] = heads
        to[1::2] = tails
        cap = np.zeros(2 * m, dtype=np.int64)
        cap[0::2] = caps
        cost = np.empty(2 * m)
        cost[0::2] = costs
        np.negative(cost[0::2], out=cost[1::2])
        self.to.extend(to.tolist())
        self.cap.extend(cap.tolist())
        self.cost.extend(cost.tolist())
        # slot k leaves node to[k ^ 1]; a stable sort by that node lists each
        # node's new arc ids in id order, after the ids it already has
        owner = to.reshape(-1, 2)[:, ::-1].ravel()
        order = np.argsort(owner, kind="stable")
        ids = (order + first).tolist()
        adj = self.adj
        start = 0
        for u, end in enumerate(np.bincount(owner, minlength=self.n).cumsum().tolist()):
            adj[u] += ids[start:end]
            start = end
        return first

    def flows(self, first: int, count: int) -> list[int]:
        """Flow currently routed through ``count`` arcs added from id ``first`` on."""
        return self.cap[first + 1 : first + 2 * count : 2]

    def solve(self, s: int, t: int) -> int:
        """Push maximum flow from s to t at minimum cost; returns the value.

        The final Johnson potentials stay on the network as :attr:`pi`: every
        arc with residual capacity has reduced cost
        ``cost[a] + pi[tail] - pi[head] >= 0`` up to float dust.
        """
        n = self.n
        to, cap, cost, adj = self.to, self.cap, self.cost, self.adj
        heappush, heappop = heapq.heappush, heapq.heappop
        # residual arcs of each node, in adjacency (= arc id) order
        live = [[a for a in arcs if cap[a] > 0] for arcs in adj]
        pi = self.pi = [0.0] * n
        inf = float("inf")
        pushed = 0
        for _ in range(MAX_AUGMENTATIONS):
            dist = [inf] * n
            prev_arc = [-1] * n
            dist[s] = 0.0
            heap = [(0.0, s)]
            while heap:
                d, u = heappop(heap)
                if d > dist[u]:
                    continue
                if u == t:
                    break  # the rest of the heap is no closer than t
                pu = pi[u]
                for a in live[u]:
                    v = to[a]
                    # reduced cost; clamp float dust so Dijkstra stays valid
                    rc = cost[a] + pu - pi[v]
                    if rc < 0.0:
                        rc = 0.0
                    nd = d + rc
                    if nd < dist[v]:
                        dist[v] = nd
                        prev_arc[v] = a
                        heappush(heap, (nd, v))
            if dist[t] == inf:
                return pushed
            d_t = dist[t]
            for v in range(n):
                pi[v] += dist[v] if dist[v] < d_t else d_t
            # bottleneck along the shortest path
            delta = None
            v = t
            while v != s:
                a = prev_arc[v]
                if delta is None or cap[a] < delta:
                    delta = cap[a]
                v = to[a ^ 1]
            v = t
            while v != s:
                a = prev_arc[v]
                b = a ^ 1
                u = to[b]
                cap[a] -= delta
                if cap[a] == 0:
                    live[u].remove(a)
                if cap[b] == 0:
                    insort(live[v], b)
                cap[b] += delta
                v = u
            pushed += delta
        raise SolverError(
            f"min-cost flow did not finish within {MAX_AUGMENTATIONS} augmentations"
        )
