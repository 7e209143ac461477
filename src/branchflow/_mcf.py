"""Exact plan-step linear program by primal network simplex.

The plan LP is an uncapacitated transportation problem with transshipment
nodes.  Sources supply their integer mass units (the 10^9 grid of
``transport.integer_mass_units``), sinks demand theirs, and free atoms
conserve flow.  Node ids are sources, sinks, then free atoms.  An arc runs
from every row of the cost matrix (sources, then free atoms) to every column
(sinks, then free atoms), except a free atom's self-loop.  Arc k is the k-th
allowed pair in row-major order; :attr:`MinCostFlowNetwork.to` keeps its
head in slot 2k and its tail in slot 2k + 1.

:meth:`MinCostFlowNetwork.solve` is the primal network simplex (Ahuja,
Magnanti & Orlin, *Network Flows*, 1993, ch. 11) on a spanning tree of the
nodes plus a root:

* **Start.**  A caller's ``start`` tree, checked to be a strongly feasible
  spanning tree whose flows balance the supplies (the plan step passes
  one to the first solve of each start: the W_1 coupling's final tree with
  the relays threaded onto its segments, ``transport._threaded_start``),
  else the tree the network kept from its last solve, else the artificial
  tree, which joins
  every node to the root by an artificial arc of cost ``M = max F`` (1 when
  F is 0) carrying the node's supply.  A node with supply >= 0 points its arc
  at the root, the others get one from it.  An optimal tree carries no
  artificial flow: a source's artificial flow and a sink's or free atom's
  would price their direct arc at ``F - 2M < 0``.
* **Pricing (Dantzig).**  The dense reduced-cost matrix
  ``(F + pi[row node]) - pi[col node]``, with free self-loops at +inf, is
  kept across the pivots of a solve.  Its first most negative entry in
  row-major order enters while it is below ``-ENTER_RTOL * max F``, a
  tolerance that scales with the costs.  A solve prices the whole matrix in
  one NumPy pass at its start; a pivot then re-prices only the rows and
  columns of the nodes whose potentials it moved (Ahuja, Magnanti & Orlin,
  §11.5), with the same elementwise operations in the same order, so the
  matrix is bit for bit what a full pass would give.  When those rows and
  columns could cover more than ``_REFRESH_SHARE`` of the matrix, the next
  pivot prices it in full instead.
* **Leaving (Cunningham, "A network simplex method", Math. Programming
  1976).**  The last blocking arc met when walking the pivot cycle in the
  entering arc's direction, starting from the apex.  The tree stays strongly
  feasible, every zero-flow tree arc pointing toward the root, so degenerate
  pivots cannot cycle.
* **Update.**  The subtree cut off by the leaving arc is re-hung from the
  entering arc: the tree path from the entering arc's end to the leaving arc
  reverses, and only the subtree's potentials (shifted by the entering
  reduced cost) and depths change.

Flows are Python integers throughout, so every basis is exact.  Ties break
by position (row-major pricing, then the rule above), so identical inputs
give identical flows.  A basic solution lies on a spanning tree, so the
plan's support is a forest.

**State between solves.**  A network is built once and may be solved many
times; it keeps its final tree, the only copy, as the working lists of the
solve (parent, arc, flow, direction and children of every node).  Between
solves a subclass may write new costs into :attr:`MinCostFlowNetwork.F`; it
keeps the free self-loops at +inf and sets ``_fmax`` to the largest finite
cost.  The supplies and the arcs stay, so the kept tree stays feasible, and
the next solve skips the start checks and only re-derives the potentials
along the tree, then prices.  Potentials depend only on tree paths, so that
solve is bit-identical to one on a fresh network started from the same
tree (:attr:`MinCostFlowNetwork.tree`).  A tree's flows depend only on the
tree and the supplies, so a solve without a pivot leaves
:meth:`MinCostFlowNetwork.support` as it was.

**Hand-off.**  :meth:`MinCostFlowNetwork.support` scatters each tree
arc's flow to its arc id, so the positive plan arcs come out in arc-id
order without a sort, and maps them to matrix rows and columns in array
passes; the flows leave as float64 mass units.  The scatter buffer and
the reduced-cost matrix are allocated with the network, once, and every
solve on it reuses them.  A caller's start is
checked node by node with plain reads of :attr:`MinCostFlowNetwork.to`:
on a tree of a few dozen nodes, NumPy's per-call cost exceeds the loop.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: pivots one :meth:`MinCostFlowNetwork.solve` may run before it fails
MAX_PIVOTS = 100_000

#: an arc enters the basis while it prices below -ENTER_RTOL * max F
ENTER_RTOL = 1e-12

# A pivot re-prices only the rows and columns of the nodes it re-hangs, one
# NumPy call each, unless they could cover more than this share of the
# reduced-cost matrix; then the next pivot prices the whole matrix in one
# pass.  On a 96 x 96 matrix a full pass took 13.4 us and a row or column
# 1.1-1.3 us (timeit, one thread), so the break-even is about 11 refreshes,
# and 1/8 admits a subtree of 6 nodes.  One alternate_minimize on 64 + 64
# terminals at 32 relays, 2 restarts, took 16.2 ms (median of 60) at 1/8,
# 16.4 ms at both 1/16 and 1/4, 18.6 ms pricing every pivot in full and
# 18.8 ms refreshing every subtree however large; on Y at 384 relays 1.25 s
# at 1/8 against 1.89 s in full.
_REFRESH_SHARE = 1 / 8


class SolverError(RuntimeError):
    """The flow solver failed: no optimal tree within its pivot budget."""


class MinCostFlowNetwork:
    """The plan LP on cost matrix ``F``: ``n_src`` source rows, ``n_snk`` sink
    columns, one row and one column per free atom after them."""

    __slots__ = (
        "n", "m", "to", "pi", "pivots", "F",
        "_fmax", "_supply", "_row_node", "_col_node", "_row_list", "_col_list",
        "_row_of", "_col_of", "_rows", "_cols", "_arc_of", "_tree", "_R", "_by_arc",
    )

    def __init__(
        self,
        F: np.ndarray,
        n_src: int,
        n_snk: int,
        src_units: np.ndarray,
        snk_units: np.ndarray,
    ) -> None:
        n_rows, n_cols = F.shape
        n_free = n_rows - n_src
        if n_cols - n_snk != n_free or len(src_units) != n_src or len(snk_units) != n_snk:
            raise ValueError("cost matrix, supplies and free atoms disagree")
        n_term = n_src + n_snk
        self.n = n = n_term + n_free
        self._supply = np.concatenate(
            (src_units, np.negative(snk_units), np.zeros(n_free, dtype=np.int64))
        ).tolist()
        self._row_node = np.concatenate((np.arange(n_src), np.arange(n_term, n)))
        self._col_node = np.arange(n_src, n)
        self._row_list, self._col_list = self._row_node.tolist(), self._col_node.tolist()
        # each node's matrix row and column, -1 where it has none
        self._row_of, self._col_of = [-1] * (n + 1), [-1] * (n + 1)
        for i, u in enumerate(self._row_list):
            self._row_of[u] = i
        for j, u in enumerate(self._col_list):
            self._col_of[u] = j
        # free self-loops are the only pairs without an arc; pricing sees +inf
        #: the costs, +inf on the free self-loops
        self.F = F = F.astype(float, copy=True)
        #: the largest finite cost, which scales the pricing tolerance
        self._fmax = float(F.max())
        F[np.arange(n_src, n_rows), np.arange(n_snk, n_cols)] = np.inf
        allowed = F != np.inf
        self._arc_of = np.cumsum(allowed.ravel()) - 1
        self._rows, self._cols = np.nonzero(allowed)
        self.m = len(self._rows)
        self.to = np.empty(2 * self.m, dtype=np.int64)
        self.to[0::2] = self._col_node[self._cols]
        self.to[1::2] = self._row_node[self._rows]
        # the reduced costs of a solve and the arc-id scatter of support(),
        # allocated with the network and reused by every solve on it
        self._R = np.empty_like(F)
        self._by_arc = np.zeros(self.m + n)
        #: node potentials of the last :meth:`solve`, the root's last
        self.pi = np.zeros(n + 1)
        #: pivots of the last :meth:`solve`
        self.pivots = 0
        # the last solve's final tree as its working lists (parent with the
        # root's entry, arc, flow, direction, children); None before the
        # first solve, during a solve and after a failed one
        self._tree: tuple[list, list, list, list, list] | None = None

    def _arc_ends(self, a: int, u: int) -> tuple[int, int]:
        """(tail, head) of arc ``a``, which is plan arc ``a`` or node ``u``'s
        artificial arc; ValueError for any other id."""
        if 0 <= a < self.m:
            to = self.to.item
            return to(2 * a + 1), to(2 * a)
        if a == self.m + u:
            return (u, self.n) if self._supply[u] >= 0 else (self.n, u)
        raise ValueError(f"arc {a} cannot join node {u} to its parent")

    def _start(self, start: Sequence[Sequence[int]] | None) -> tuple[list, list, list, list, list]:
        """Parent (the root's entry -1 last), arc, flow, direction (toward
        the root) and children of every node at the start of a solve."""
        kept, self._tree = self._tree, None
        if start is None and kept is not None:
            return kept
        n, supply = self.n, self._supply
        if start is None:
            up = [s >= 0 for s in supply]
            parent, pred, flow = [n] * n, list(range(self.m, self.m + n)), [abs(s) for s in supply]
        else:
            parent, pred, flow = (list(seq) for seq in start)
            if not len(parent) == len(pred) == len(flow) == n:
                raise ValueError(f"start has {len(parent)} nodes, the network {n}")
            excess = [0] * (n + 1)
            up = []
            for u in range(n):
                tail, head = self._arc_ends(pred[u], u)
                if {tail, head} != {u, parent[u]}:
                    raise ValueError(f"arc {pred[u]} does not join node {u} to its parent")
                f = flow[u]
                if f < 0 or (f == 0 and tail != u):
                    raise ValueError(f"start is not strongly feasible at node {u}")
                up.append(tail == u)
                excess[tail] += f
                excess[head] -= f
            if excess[:n] != supply:
                raise ValueError("start flows do not balance the network's supplies")
        children: list[list[int]] = [[] for _ in range(n + 1)]
        for u in range(n):
            children[parent[u]].append(u)
        parent.append(-1)
        return parent, pred, flow, up, children

    def solve(self, start: Sequence[Sequence[int]] | None = None) -> int:
        """Optimal flow by primal network simplex; returns the pivot count.

        Starts from ``start``, a ``(parent, pred, flow)`` tree such as
        :attr:`tree` returns, when given (ValueError when it does not fit
        this network), else from the tree this network kept from its last
        solve, else from the artificial tree.  The final potentials stay on
        the network as :attr:`pi`: every allowed pair (i, j) has reduced
        cost ``F[i, j] + pi[row node] - pi[col node] >= -ENTER_RTOL * max F``,
        and every tree arc 0 up to rounding.
        """
        n, m = self.n, self.m
        root = n
        F, fmax = self.F, self._fmax
        big = fmax if fmax > 0.0 else 1.0
        parent, pred, flow, up, children = self._start(start)
        # depths and potentials by a walk from the root; a tree arc
        # tail -> head has cost + pi[tail] - pi[head] == 0
        rows, cols = self._rows, self._cols
        arcs = np.array(pred)
        plan = arcs < m
        costs = np.full(n, big)
        costs[plan] = F[rows[arcs[plan]], cols[arcs[plan]]]
        costs = costs.tolist()
        depth = [0] * (n + 1)
        pot = [0.0] * (n + 1)
        order = [root]
        for u in order:
            for v in children[u]:
                depth[v] = depth[u] + 1
                pot[v] = pot[u] - costs[v] if up[v] else pot[u] + costs[v]
                order.append(v)
        if len(order) != n + 1:
            raise ValueError("start parents do not form a tree")
        # the potentials as Python floats, copied to an array over the
        # matrix rows (pr) and one over its columns (pc) for pricing
        pi = np.array(pot)
        pr, pc = pi[self._row_node], pi[self._col_node]
        row_of, col_of = self._row_of, self._col_of
        row_list, col_list = self._row_list, self._col_list
        n_rows, n_cols = F.shape
        # a pivot re-prices a row and a column per re-hung node at most
        max_refresh = _REFRESH_SHARE * n_rows * n_cols / (n_rows + n_cols)
        tol = -ENTER_RTOL * fmax
        R = self._R
        full = True
        inf = float("inf")
        for pivots in range(MAX_PIVOTS + 1):
            if full:
                np.add(F, pr[:, None], out=R)
                R -= pc
            flat = int(R.argmin())
            rc = float(R.flat[flat])
            if not rc < tol:
                break
            if pivots == MAX_PIVOTS:
                raise SolverError(f"network simplex did not finish within {MAX_PIVOTS} pivots")
            i, j = divmod(flat, n_cols)
            k, l = row_list[i], col_list[j]
            # walk both ends up to the apex; blocking arcs are those the
            # cycle k -> l -> apex -> k runs against.  Ties go to the arc met
            # last from the apex: nearest k on k's side, nearest the apex on
            # l's, and l's side over k's
            path_k, path_l = [], []
            dk = dl = inf
            xk = xl = -1
            u, v = k, l
            while u != v:
                du, dv = depth[u], depth[v]
                if du >= dv:
                    path_k.append(u)
                    if up[u] and flow[u] < dk:
                        dk, xk = flow[u], u
                    u = parent[u]
                if dv >= du:
                    path_l.append(v)
                    if not up[v] and flow[v] <= dl:
                        dl, xl = flow[v], v
                    v = parent[v]
            on_l = dl <= dk
            x, delta = (xl, dl) if on_l else (xk, dk)
            if x < 0:
                raise SolverError("network simplex found an unbounded cycle")
            if delta:
                for u in path_k:
                    flow[u] += -delta if up[u] else delta
                for v in path_l:
                    flow[v] += delta if up[v] else -delta
            # re-hang the subtree of x from the entering arc, reversing the
            # tree path from the arc's end q up to x
            q, p, shift = (l, k, rc) if on_l else (k, l, -rc)
            new_parent, new_pred, new_up, new_flow = p, int(self._arc_of[flat]), not on_l, delta
            u = q
            while True:
                old = parent[u], pred[u], up[u], flow[u]
                parent[u], pred[u], up[u], flow[u] = new_parent, new_pred, new_up, new_flow
                children[old[0]].remove(u)
                children[new_parent].append(u)
                if u == x:
                    break
                new_parent, new_pred, new_up, new_flow = u, old[1], not old[2], old[3]
                u = old[0]
            depth[q] = depth[p] + 1
            subtree = [q]
            for u in subtree:
                d = depth[u] + 1
                for v in children[u]:
                    depth[v] = d
                    subtree.append(v)
            full = len(subtree) > max_refresh
            for u in subtree:
                pot[u] += shift
                r, c = row_of[u], col_of[u]
                if r >= 0:
                    pr[r] = pot[u]
                if c >= 0:
                    pc[c] = pot[u]
            if not full:
                # the full pass's (F + pr) - pc, elementwise and in the same
                # order, on the rows and columns whose potential moved
                for u in subtree:
                    r, c = row_of[u], col_of[u]
                    if r >= 0:
                        Rr = R[r]
                        np.add(F[r], pot[u], out=Rr)
                        Rr -= pc
                    if c >= 0:
                        Rc = R[:, c]
                        np.add(F[:, c], pr, out=Rc)
                        Rc -= pot[u]
        if any(flow[u] for u in range(n) if pred[u] >= m):
            raise SolverError("network simplex left flow on an artificial arc")
        self.pi, self.pivots = np.array(pot), pivots
        self._tree = parent, pred, flow, up, children
        return pivots

    @property
    def tree(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None:
        """The last solve's final tree as ``(parent, pred, flow)``: for every
        node (the root, node ``n``, excluded) its parent, the arc joining it
        to the parent (a plan arc id, or ``m + node`` for the node's
        artificial arc) and that arc's flow in mass units.  None before the
        first solve and after a failed one."""
        if self._tree is None:
            return None
        parent, pred, flow = self._tree[:3]
        return tuple(parent[:self.n]), tuple(pred), tuple(flow)

    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The last :meth:`solve`'s positive plan-arc flows, by increasing arc
        id, so row-major: their matrix rows and columns, and their flows in
        mass units as float64 (whole numbers below 2^53, so exact)."""
        _, pred, flow = self._tree[:3]
        # each tree arc's flow at its id (ids are distinct, flows >= 0), so
        # the nonzero plan slots come out in arc-id order without a sort;
        # the tree's slots are zeroed again for the next call
        by_arc = self._by_arc
        by_arc[pred] = flow
        arcs = np.flatnonzero(by_arc[:self.m] > 0)
        support = self._rows[arcs], self._cols[arcs], by_arc[arcs]
        by_arc[pred] = 0.0
        return support
