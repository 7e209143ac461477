"""The network simplex re-prices only the rows and columns a pivot moved.

The reference is the simplex as it was when every pivot priced the whole
reduced-cost matrix in one pass.  Both price with the same elementwise
``(F + pi[row]) - pi[col]``, so every solve must match it bit for bit: the
same pivots, potentials, tree and flows.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from branchflow import Atom, CostParams, SignedConfig, positions, random_instance, y_instance
from branchflow._mcf import _REFRESH_SHARE, ENTER_RTOL, MAX_PIVOTS, MinCostFlowNetwork
from branchflow.transport import _PlanNetwork
from conftest import support_flows


def _full_pricing_solve(net, start=None, subtrees=None):
    """``MinCostFlowNetwork.solve`` pricing every arc at every pivot; appends
    each pivot's re-hung subtree size to ``subtrees`` when given."""
    n, m = net.n, net.m
    root = n
    F, fmax = net.F, net._fmax
    big = fmax if fmax > 0.0 else 1.0
    parent, pred, flow, up, children = net._start(start)
    rows, cols = net._rows, net._cols
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
    assert len(order) == n + 1
    pi = np.array(pot)
    row_node, col_node = net._row_node, net._col_node
    row_list, col_list = net._row_list, net._col_list
    n_cols = F.shape[1]
    tol = -ENTER_RTOL * fmax
    R = np.empty_like(F)
    inf = float("inf")
    for pivots in range(MAX_PIVOTS + 1):
        np.add(F, pi[row_node][:, None], out=R)
        R -= pi[col_node]
        flat = int(R.argmin())
        rc = float(R.flat[flat])
        if not rc < tol:
            break
        assert pivots < MAX_PIVOTS
        i, j = divmod(flat, n_cols)
        k, l = row_list[i], col_list[j]
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
        assert x >= 0
        if delta:
            for u in path_k:
                flow[u] += -delta if up[u] else delta
            for v in path_l:
                flow[v] += delta if up[v] else -delta
        q, p, shift = (l, k, rc) if on_l else (k, l, -rc)
        new_parent, new_pred, new_up, new_flow = p, int(net._arc_of[flat]), not on_l, delta
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
        pi[subtree] += shift
        if subtrees is not None:
            subtrees.append(len(subtree))
    assert not any(flow[u] for u in range(n) if pred[u] >= m)
    net.pi, net.pivots = pi, pivots
    net._tree = parent, pred, flow, up, children
    return pivots


def _assert_same_solve(net, ref):
    assert net.pivots == ref.pivots
    assert net.pi.tobytes() == ref.pi.tobytes()
    assert net.tree == ref.tree
    assert list(support_flows(net).items()) == list(support_flows(ref).items())  # order included


def _solve_both(config, Zs, q, subtrees=None):
    """A cold solve at Zs[0], then a warm re-solve after moving to each later
    Z, on one network solved as it is and one by the reference."""
    net, ref = _PlanNetwork(config, Zs[0], q), _PlanNetwork(config, Zs[0], q)
    for step, Z in enumerate(Zs):
        if step:
            net.move(Z)
            ref.move(Z)
        net.solve()
        _full_pricing_solve(ref, subtrees=subtrees)
        _assert_same_solve(net, ref)


@st.composite
def _lattice_instances(draw):
    """Sources, sinks and relays on a small integer lattice, so many costs
    tie, with relays on terminals and on each other; then two moves."""
    n_free = draw(st.integers(0, 20))
    n_src = draw(st.integers(1, 40 - n_free))
    n_snk = draw(st.integers(1, 40 - n_free))
    q = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def atoms(k):
        pos = rng.integers(0, 4, size=(k, 2)).astype(float)
        mass = rng.integers(1, 3, size=k).astype(float)
        return tuple(Atom(tuple(p), float(w)) for p, w in zip(pos.tolist(), mass))

    config = SignedConfig(atoms(n_src), atoms(n_snk), 2)
    terminals = config.terminal_positions()

    def relays():
        Z = rng.integers(0, 7, size=(n_free, 2)) / 2.0  # half-lattice points
        if n_free:
            on_terminal = rng.random(n_free) < 0.3
            Z[on_terminal] = terminals[rng.integers(0, len(terminals), on_terminal.sum())]
            twin = rng.random(n_free) < 0.3  # coincident relays
            Z[twin] = Z[rng.integers(0, n_free, twin.sum())]
        return Z

    return config, [relays(), relays(), relays()], q


class TestIncrementalPricing:
    @given(_lattice_instances())
    def test_matches_full_pricing_on_lattice_networks(self, instance):
        config, Zs, q = instance
        _solve_both(config, Zs, q)

    def test_matches_full_pricing_on_y_at_96_relays(self):
        # 98 x 97 networks: many pivots re-hang more nodes than the
        # refresh share admits, so both pricing paths run
        rng = np.random.default_rng(96)
        Z = rng.uniform([-1.0, 0.0], [1.0, 2.0], size=(96, 2))
        Zs = [Z, Z + rng.normal(scale=0.05, size=Z.shape), Z[::-1].copy()]
        subtrees = []
        _solve_both(y_instance(), Zs, 2.0, subtrees)
        n_rows, n_cols = 2 + 96, 1 + 96
        limit = _REFRESH_SHARE * n_rows * n_cols / (n_rows + n_cols)
        assert any(s > limit for s in subtrees) and any(s <= limit for s in subtrees)


def test_wide_plan_shape_solves_and_pivots(monkeypatch):
    # the benchmark's wide_plan instance: 64 + 64 terminals, 32 relays,
    # two restarts; a pricing change that moved any pivot moves the count
    counts = []
    solve = MinCostFlowNetwork.solve

    def counting(self, *args, **kwargs):
        counts.append(solve(self, *args, **kwargs))
        return counts[-1]

    monkeypatch.setattr(MinCostFlowNetwork, "solve", counting)
    config = random_instance(np.random.default_rng([0, 0]), 64, 64, total_mass=64)
    positions.alternate_minimize(config, 32, CostParams(q=2.0, restarts=2))
    assert (len(counts), sum(counts)) == (13, 497)
