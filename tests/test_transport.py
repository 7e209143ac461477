import heapq
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

from branchflow import (
    Atom,
    CostParams,
    InvalidConfigError,
    SignedConfig,
    TransportPlan,
    min_cost_plan,
    random_instance,
    single_edge,
    wasserstein_q,
    y_instance,
)
from branchflow import positions, transport
from branchflow._mcf import MinCostFlowNetwork
from branchflow.measures import total_mass
from branchflow.graphs import edges_form_forest
from branchflow.regularize import _is_forest, regularize
from branchflow.transport import (
    MASS_UNITS,
    TreeBasis,
    _PlanNetwork,
    _pair_costs,
    _segment_offsets,
    _threaded_start,
    as_positions,
    check_plan,
    cost_matrix,
    integer_mass_units,
    plan_cost,
    wasserstein_coupling,
    zero_flow_threshold,
)
from conftest import (
    enumerate_basic_optimum,
    plan_of,
    random_config,
    random_feasible_plan,
    support_flows,
)


class TestCostMatrix:
    def test_entries_are_q_powers_of_distances(self):
        cfg = single_edge()
        Z = np.array([[0.5, 0.5]])
        F = cost_matrix(cfg, Z, 2.0)
        assert F.shape == (2, 2)
        assert F[0, 0] == pytest.approx(1.0)          # source -> sink
        assert F[0, 1] == pytest.approx(0.5)          # source -> relay
        assert F[1, 0] == pytest.approx(0.5)          # relay -> sink
        assert F[1, 1] == 0.0                          # self pairing, excluded from plans

    def test_no_free_atoms(self):
        F = cost_matrix(single_edge(), None, 3.0)
        assert F.shape == (1, 1) and F[0, 0] == pytest.approx(1.0)


class TestIntegerMassUnits:
    def test_exact_for_power_of_two_masses(self):
        units = integer_mass_units(np.array([1.0, 3.0, 4.0]))
        assert units.tolist() == [MASS_UNITS // 8, 3 * MASS_UNITS // 8, MASS_UNITS // 2]

    def test_tie_break_is_by_index(self):
        assert integer_mass_units(np.array([1.0, 1.0, 1.0]), units=10).tolist() == [4, 3, 3]

    @given(
        masses=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=8)
        .filter(lambda m: sum(m) > 1.0),
        units=st.integers(10, 10**9),
    )
    def test_rounding_properties(self, masses, units):
        arr = np.array(masses)
        out = integer_mass_units(arr, units=units)
        assert out.sum() == units
        assert (out >= 0).all()
        exact = arr / arr.sum() * units
        assert np.abs(out - exact).max() < 1.0  # largest-remainder stays within one unit


class TestMinCostPlan:
    def test_direct_shipment_without_relays(self):
        plan, cost = min_cost_plan(single_edge(), None, 2.0)
        assert plan.entries == {(0, 0): pytest.approx(1.0)}
        assert cost == pytest.approx(1.0)

    def test_relay_on_segment_is_used(self):
        # midpoint relay halves each hop: cost 2 * 0.5^q < 1 for q > 1
        plan, cost = min_cost_plan(single_edge(), np.array([[0.5, 0.0]]), 2.0)
        assert cost == pytest.approx(0.5)
        assert plan.entries[(0, 1)] == pytest.approx(1.0)   # source -> relay
        assert plan.entries[(1, 0)] == pytest.approx(1.0)   # relay -> sink

    def test_far_relay_is_ignored(self):
        plan, cost = min_cost_plan(single_edge(), np.array([[50.0, 50.0]]), 2.0)
        assert cost == pytest.approx(1.0)
        assert plan.entries == {(0, 0): pytest.approx(1.0)}

    def test_two_relays_chain(self):
        Z = np.array([[1.0 / 3.0, 0.0], [2.0 / 3.0, 0.0]])
        _, cost = min_cost_plan(single_edge(), Z, 2.0)
        assert cost == pytest.approx(3.0 ** (1.0 - 2.0))

    def test_feasibility_on_random_instances(self, rng):
        for _ in range(10):
            cfg = random_config(rng)
            n = int(rng.integers(0, 5))
            Z = rng.uniform(-1, 1, size=(n, 2))
            plan, cost = min_cost_plan(cfg, Z, 2.0)
            assert check_plan(plan, cfg) == []
            assert cost == pytest.approx(plan_cost(cfg, Z, plan, 2.0))

    def test_every_entry_carries_at_least_one_mass_unit(self, rng):
        # flows are whole units of total_mass / MASS_UNITS, 1000 times the
        # zero-flow threshold, so no solved entry lies at or below it; cold,
        # warm and threaded solves, zero-mass and coincident terminals
        solves = 0
        for trial in range(12):
            dim = 1 + trial % 3
            cfg = _awkward_instance(rng, dim, 4.0 ** (trial % 5 - 2), trial % 2 == 0,
                                    trial % 3 == 0)
            unit = total_mass(cfg) / MASS_UNITS
            assert unit > 999 * zero_flow_threshold(cfg)
            q = (1.5, 2.0, 3.0)[trial % 3]
            basis = TreeBasis(_coupling_tree(cfg) if trial % 4 == 1 else None)
            for Z in _moves(rng, rng.normal(size=(int(rng.integers(0, 9)), dim))):
                plan, _ = min_cost_plan(cfg, Z, q, basis)
                assert min(plan.entries.values()) >= unit
                solves += 1
        assert solves == 12 * 6

    def test_deterministic(self, rng):
        cfg = random_config(rng)
        Z = rng.uniform(-1, 1, size=(3, 2))
        p1, c1 = min_cost_plan(cfg, Z, 2.0)
        p2, c2 = min_cost_plan(cfg, Z, 2.0)
        assert c1 == c2 and p1.entries == p2.entries

    def test_matches_reference_lp_solver(self, rng):
        # independent check: scipy HiGHS on the marginal/conservation LP
        for _ in range(8):
            cfg = random_config(rng)
            n = int(rng.integers(0, 4))
            Z = rng.uniform(-1, 1, size=(n, 2))
            _, cost = min_cost_plan(cfg, Z, 2.0)
            assert cost == pytest.approx(_lp_reference(cfg, Z, 2.0), rel=1e-7)
            _assert_flows_match_per_arc_reference(cfg, Z)
        # wide networks: many nodes are still unsettled when the sink pops
        for _ in range(4):
            n_src, n_snk = (int(k) for k in rng.integers(8, 13, size=2))
            cfg = random_instance(rng, n_src, n_snk, total_mass=16)
            n = int(rng.integers(4, 9))
            Z = rng.uniform(-1, 1, size=(n, 2))
            _, cost = min_cost_plan(cfg, Z, 2.0)
            assert cost == pytest.approx(_lp_reference(cfg, Z, 2.0), rel=1e-7)
            _assert_flows_match_per_arc_reference(cfg, Z)

    def test_matches_basic_solution_enumeration(self, rng):
        for _ in range(4):
            cfg = random_config(rng, n_sources=2, n_sinks=2)
            Z = rng.uniform(-1, 1, size=(2, 2))
            _, cost = min_cost_plan(cfg, Z, 2.0)
            ref = enumerate_basic_optimum(cfg, Z, 2.0)
            assert abs(cost - ref) <= 1e-9 * max(1.0, abs(ref))


def _cold_flows(*args):
    """Positive flows in mass units per matrix key of a new network's cold solve."""
    net = MinCostFlowNetwork(*args)
    net.solve()
    return support_flows(net)


def _plan_network_args(cfg, Z, q=2.0):
    """The arguments of ``MinCostFlowNetwork`` for the plan step at Z."""
    return (
        cost_matrix(cfg, Z, q), cfg.n_sources, cfg.n_sinks,
        integer_mass_units(cfg.source_masses()), integer_mass_units(cfg.sink_masses()),
    )


def _assert_flows_match_per_arc_reference(cfg, Z, q=2.0):
    args = _plan_network_args(cfg, Z, q)
    got = _cold_flows(*args)
    want = _reference_flow_dict(*args)
    assert list(got.items()) == list(want.items())  # order included
    # whole mass units, handed over as floats
    assert all(type(f) is float and f.is_integer() for f in got.values())


def _lp_reference(cfg, Z, q):
    Z = as_positions(Z, cfg.dimension)
    F = cost_matrix(cfg, Z, q)
    n_src, n_snk, n_free = cfg.n_sources, cfg.n_sinks, len(Z)
    arcs = [
        (i, j)
        for i in range(n_src + n_free)
        for j in range(n_snk + n_free)
        if not (i >= n_src and j >= n_snk and i - n_src == j - n_snk)
    ]
    V = n_src + n_snk + n_free
    A = np.zeros((V, len(arcs)))
    b = np.zeros(V)
    b[:n_src] = cfg.source_masses()
    b[n_src:n_src + n_snk] = cfg.sink_masses()
    for k, (i, j) in enumerate(arcs):
        if i < n_src:
            A[i, k] += 1.0
        else:
            A[n_src + n_snk + (i - n_src), k] -= 1.0  # outflow of free atom
        if j < n_snk:
            A[n_src + j, k] += 1.0
        else:
            A[n_src + n_snk + (j - n_snk), k] += 1.0  # inflow of free atom
    # HiGHS' default feasibility tolerances (1e-7) leave its objective up
    # to 1e-7 relative above the optimum; the property tests need 1e-9
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(np.array([F[i, j] for i, j in arcs]), A_eq=A, b_eq=b, method="highs",
                  options=tight)
    assert res.success
    return float(res.fun)


class TestMinCostFlowNetwork:
    def test_arc_layout(self, rng):
        # every pair of the matrix but the free self-loops, row-major: the
        # head of arc k in slot 2k, its tail in slot 2k + 1
        n_src, n_snk, n_free = 3, 2, 4
        F = rng.uniform(0.0, 5.0, size=(n_src + n_free, n_snk + n_free))
        src, snk = np.array([3, 1, 4]), np.array([5, 3])
        _, plan_arcs = _flow_network_arcs(F, n_src, n_snk, n_free, src, snk)
        net = MinCostFlowNetwork(F, n_src, n_snk, src, snk)
        assert (net.n, net.m) == (n_src + n_snk + n_free, (n_src + n_free) * (n_snk + n_free) - n_free)
        assert len(net.to) == 2 * len(plan_arcs) == 2 * net.m
        assert net.to.tolist() == [x for tail, head, _, _ in plan_arcs for x in (head, tail)]
        with pytest.raises(ValueError):
            MinCostFlowNetwork(F[:, :-1], n_src, n_snk, src, snk)


def _per_arc_layout(n_nodes, arcs):
    """Reference network layout, one arc at a time: forward arc, then its
    empty residual, each appended to its tail's adjacency list."""
    to, cap, cost, adj = [], [], [], [[] for _ in range(n_nodes)]
    for u, v, c, w in arcs:
        adj[u].append(len(to))
        adj[v].append(len(to) + 1)
        to += [v, u]
        cap += [c, 0]
        cost += [w, -w]
    return to, cap, cost, adj


def _flow_network_arcs(F, n_src, n_snk, n_free, src_units, snk_units):
    """The plan step's arcs as (tail, head, cap, cost), by explicit loops:
    terminal arcs, then matrix keys row-major minus free self-loops."""
    n_term = n_src + n_snk
    s_star, t_star = n_term + n_free, n_term + n_free + 1
    terminal = [(s_star, i, int(src_units[i]), 0.0) for i in range(n_src)]
    terminal += [(n_src + j, t_star, int(snk_units[j]), 0.0) for j in range(n_snk)]
    plan_arcs = [
        (i if i < n_src else n_snk + i, n_src + j, MASS_UNITS, float(F[i, j]))
        for i in range(n_src + n_free)
        for j in range(n_snk + n_free)
        if not (i >= n_src and j >= n_snk and i - n_src == j - n_snk)
    ]
    return terminal, plan_arcs


def _ssp_solve(n, to, cap, cost, adj, s, t):
    """Successive shortest paths, the plan step's solver before the network
    simplex, kept as a reference: push maximum flow from s to t at minimum
    cost, in place on ``cap``; returns the flow value.

    Dijkstra over reduced costs with Johnson potentials, arcs relaxed in
    adjacency order, distance ties kept by the earlier predecessor, each
    search stopped when the sink pops.
    """
    pi = [0.0] * n
    pushed = 0
    while True:
        dist = [float("inf")] * n
        prev_arc = [-1] * n
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if u == t:
                break
            for a in adj[u]:
                if cap[a] == 0:
                    continue
                v = to[a]
                nd = d + max(cost[a] + pi[u] - pi[v], 0.0)
                if nd < dist[v]:
                    dist[v] = nd
                    prev_arc[v] = a
                    heapq.heappush(heap, (nd, v))
        if dist[t] == float("inf"):
            return pushed
        for v in range(n):
            pi[v] += min(dist[v], dist[t])
        path = []
        v = t
        while v != s:
            path.append(prev_arc[v])
            v = to[prev_arc[v] ^ 1]
        delta = min(cap[a] for a in path)
        for a in path:
            cap[a] -= delta
            cap[a ^ 1] += delta
        pushed += delta


def _reference_flow_dict(F, n_src, n_snk, src_units, snk_units):
    """The plan step solved by successive shortest paths on the complete
    per-arc network: positive flows in row-major key order."""
    n_free = F.shape[0] - n_src
    terminal, plan_arcs = _flow_network_arcs(F, n_src, n_snk, n_free, src_units, snk_units)
    n = n_src + n_snk + n_free + 2
    to, cap, cost, adj = _per_arc_layout(n, terminal + plan_arcs)
    assert _ssp_solve(n, to, cap, cost, adj, n - 2, n - 1) == MASS_UNITS
    flows = cap[2 * len(terminal) + 1::2]
    # plan arcs run from row nodes to column nodes: back to matrix keys
    return {
        (i if i < n_src else i - n_snk, j - n_src): f
        for (i, j, _, _), f in zip(plan_arcs, flows)
        if f > 0
    }


@pytest.fixture
def solved_networks(monkeypatch):
    """Every network MinCostFlowNetwork.solve runs on, in call order."""
    nets = []
    solve = MinCostFlowNetwork.solve

    def recording(self, *args, **kwargs):
        nets.append(self)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(MinCostFlowNetwork, "solve", recording)
    return nets


def _scaled(cfg, Z, s):
    """The same instance with every coordinate multiplied by s."""
    def move(atoms):
        return tuple(Atom(tuple(s * c for c in a.position), a.mass) for a in atoms)

    return SignedConfig(move(cfg.sources), move(cfg.sinks), cfg.dimension), s * Z


class TestPricingLoop:
    """The simplex prices every allowed pair each pivot, so its potentials
    certify the flow for the complete network; the complete-arc successive
    shortest paths above are the reference."""

    def test_matches_full_arc_solve_on_wide_networks(self, rng):
        for _ in range(8):
            n_src, n_snk = (int(k) for k in rng.integers(20, 41, size=2))
            cfg = random_instance(rng, n_src, n_snk, total_mass=64)
            Z = rng.uniform(-1, 1, size=(int(rng.integers(8, 17)), 2))
            _assert_flows_match_per_arc_reference(cfg, Z)
        # sink 8 and a cluster of nine relays far from everything else
        near = [(0.1 * k, 0.0) for k in range(8)]
        cfg = SignedConfig(
            sources=tuple(Atom((0.1 * k, 0.5), 1.0) for k in range(9)),
            sinks=tuple(Atom(p, 1.0) for p in near) + (Atom((50.0, 0.0), 1.0),),
            dimension=2,
        )
        _assert_flows_match_per_arc_reference(cfg, np.array([[50.0 + 0.01 * k, 1.0] for k in range(9)]))

    def test_tie_heavy_inputs_reach_the_optimum(self, rng):
        # lattice points: coincident relays, relays on terminals, duplicate
        # terminals, and many equal costs.  Several plans tie for the
        # optimum, and the simplex may return another of them than the
        # reference: the costs must agree
        for q in (2.0, 1.5):
            for _ in range(4):
                pts = rng.integers(0, 4, size=(12, 2)).astype(float)
                cfg = SignedConfig(
                    sources=tuple(Atom(tuple(pts[k % 6]), 2.0) for k in range(12)),
                    sinks=tuple(Atom(tuple(pts[6 + k % 6]), 3.0) for k in range(8)),
                    dimension=2,
                )
                Z = np.vstack([pts[rng.integers(0, 12, size=6)], np.repeat(pts[:2], 3, axis=0)])
                basis = TreeBasis()
                plan, cost = min_cost_plan(cfg, Z, q, basis)
                assert check_plan(plan, cfg) == []
                args = _plan_network_args(cfg, Z, q)
                unit = 24.0 / MASS_UNITS
                ref = sum(f * unit * args[0][key] for key, f in _reference_flow_dict(*args).items())
                assert abs(cost - ref) <= 1e-12 * ref
                again, cost2 = min_cost_plan(cfg, Z, q)
                assert cost2.hex() == cost.hex()
                assert list(again.entries.items()) == list(plan.entries.items())
                # the final tree is a strongly feasible start, already optimal
                warm, cost3 = min_cost_plan(cfg, Z, q, basis)
                assert cost3.hex() == cost.hex()
                assert list(warm.entries.items()) == list(plan.entries.items())

    def test_potentials_certify_every_arc(self, rng, solved_networks):
        for _ in range(6):
            cfg = random_instance(rng, 24, 24, total_mass=32)
            Z = rng.uniform(-1, 1, size=(12, 2))
            args = _plan_network_args(cfg, Z)
            F, n_src, n_snk = args[:3]
            n_free = len(Z)
            solved_networks.clear()
            got = _cold_flows(*args)
            (net,) = solved_networks
            tol = 1e-12 * F.max()
            pi = net.pi
            row_node = np.r_[np.arange(n_src), n_src + n_snk + np.arange(n_free)]
            rc = F + pi[row_node][:, None] - pi[n_src:n_src + n_snk + n_free]
            rc[n_src + np.arange(n_free), n_snk + np.arange(n_free)] = np.inf  # no arc
            assert rc.min() >= -tol
            # tree arcs price at 0, and the flow lies on them
            tree = [a for a in net.tree[1] if a < net.m]
            tails, heads = net.to[1::2][tree], net.to[0::2][tree]
            rows, cols = np.where(tails < n_src, tails, tails - n_snk), heads - n_src
            assert np.abs(rc[rows, cols]).max() <= tol
            assert set(got) <= set(zip(rows.tolist(), cols.tolist()))
            assert len(tree) <= n_src + n_snk + n_free - 1


def _recorded_descent(monkeypatch, solved_networks, cfg, Z0, q):
    """Positions, plan and pivot count of every plan solve of one descent."""
    calls = []
    plan_step = positions.min_cost_plan

    def recording(config, Z, q, basis=None):
        out = plan_step(config, Z, q, basis)
        calls.append((Z.copy(), out[0], solved_networks[-1].pivots))
        return out

    with monkeypatch.context() as patched:
        patched.setattr(positions, "min_cost_plan", recording)
        positions._descend(cfg, Z0, q, TreeBasis())
    return calls


class TestWarmStart:
    @pytest.mark.parametrize("instance", ["wide_plan", "y"])
    def test_replayed_descent_matches_cold_solves(self, instance, monkeypatch, solved_networks):
        # the starts of the benchmark: the W1 seed on the wide plan, and on
        # the Y, whose W1 seed is a fixed point, the first random restart
        if instance == "wide_plan":
            cfg = random_instance(np.random.default_rng([0, 0]), 64, 64, total_mass=64)
            Z0 = positions.w1_seed(cfg, 32)
        else:
            cfg = y_instance()
            rng = np.random.default_rng(np.random.SeedSequence([0, 0]))
            Z0 = positions._random_seed_positions(cfg, 24, rng)
        calls = _recorded_descent(monkeypatch, solved_networks, cfg, Z0, 2.0)
        assert len(calls) >= 3
        cold = []
        for Z, plan, _ in calls:
            solved_networks.clear()
            again, _ = min_cost_plan(cfg, Z, 2.0)
            cold.append(solved_networks[-1].pivots)
            assert list(again.entries.items()) == list(plan.entries.items())
        warm = [pivots for *_, pivots in calls]
        assert warm[0] == cold[0]  # the descent's first solve starts cold
        assert sum(warm) < sum(cold)

    @pytest.mark.parametrize("case", ["y_n24_q2", "2+2_n16_q1.5"])
    def test_rebalance_proposals_solve_warm(self, case, monkeypatch, solved_networks):
        # a rebalance proposal's plan solves start from the tree its start's
        # descent or last accepted proposal left; replayed cold, each reaches
        # the same optimal cost, and the warm plan is a forest
        if case == "y_n24_q2":
            cfg, n, q = y_instance(), 24, 2.0
        else:
            cfg, n, q = random_instance(np.random.default_rng([0, 0]), 2, 2), 16, 1.5
        calls = []
        in_proposal = False
        real_descend, real_layout = positions._descend, positions._rebalance_layout
        plan_step = positions.min_cost_plan

        def descend(*args):
            nonlocal in_proposal
            in_proposal = False
            return real_descend(*args)

        def layout(*args):
            nonlocal in_proposal
            out = real_layout(*args)
            in_proposal = out is not None
            return out

        def recording(config, Z, q, basis=None):
            # a proposal never solves on an empty basis
            warm = basis is not None and basis.network is not None
            out = plan_step(config, Z, q, basis)
            if in_proposal:
                assert warm
                calls.append((Z.copy(), *out, solved_networks[-1].pivots))
            return out

        monkeypatch.setattr(positions, "_descend", descend)
        monkeypatch.setattr(positions, "_rebalance_layout", layout)
        monkeypatch.setattr(positions, "min_cost_plan", recording)
        positions.alternate_minimize(cfg, n, CostParams(q=q))
        assert len(calls) > 0
        warm, cold = 0, 0
        for Z, plan, cost, pivots in calls:
            again, cost_cold = plan_step(cfg, Z, q)
            assert abs(cost - cost_cold) <= 1e-12 * cost_cold
            assert edges_form_forest(
                (plan.row_to_vertex(i), plan.col_to_vertex(j)) for i, j in plan.entries
            )
            warm += pivots
            cold += solved_networks[-1].pivots
        assert warm < cold

    def test_rejects_a_basis_from_another_network(self, rng):
        def config(src, snk):
            return SignedConfig(
                sources=tuple(Atom((float(k), 0.0), m) for k, m in enumerate(src)),
                sinks=tuple(Atom((float(k), 1.0), m) for k, m in enumerate(snk)),
                dimension=2,
            )

        cfg = config((1.0, 2.0, 3.0, 2.0), (4.0, 2.0, 2.0))
        Z = rng.uniform(0, 3, size=(3, 2))
        basis = TreeBasis()
        plan, _ = min_cost_plan(cfg, Z, 2.0, basis)
        kept = basis.network
        # the same network at other positions starts from its tree
        min_cost_plan(cfg, Z + 0.1, 2.0, basis)
        # another config, an equal config object, another q or relay count
        for args in (
            (config((2.0, 2.0, 2.0, 2.0), (3.0, 3.0, 2.0)), Z, 2.0),
            (config((1.0, 2.0, 3.0, 2.0), (4.0, 2.0, 2.0)), Z, 2.0),
            (cfg, Z, 1.5),
            (cfg, Z[:2], 2.0),
        ):
            with pytest.raises(ValueError, match="another config"):
                min_cost_plan(*args, basis)
        assert basis.network is kept
        # a caller's start is checked against the network it is passed to
        units = integer_mass_units(cfg.source_masses()), integer_mass_units(cfg.sink_masses())
        fresh = MinCostFlowNetwork(cost_matrix(cfg, Z, 2.0), cfg.n_sources, cfg.n_sinks, *units)
        other = config((2.0, 2.0, 2.0, 2.0), (3.0, 3.0, 2.0))
        other_units = (integer_mass_units(other.source_masses()),
                       integer_mass_units(other.sink_masses()))
        other_net = MinCostFlowNetwork(cost_matrix(other, Z, 2.0), 4, 3, *other_units)
        with pytest.raises(ValueError, match="balance"):
            other_net.solve(start=kept.tree)
        fewer = MinCostFlowNetwork(cost_matrix(cfg, Z[:2], 2.0), 4, 3, *units)
        with pytest.raises(ValueError, match="nodes"):
            fewer.solve(start=kept.tree)
        parent, pred, flow = (list(seq) for seq in kept.tree)
        u = next(u for u, f in enumerate(flow) if f > 0)
        flow[u] += 1
        with pytest.raises(ValueError, match="balance"):
            fresh.solve(start=(parent, pred, flow))
        flow[u] -= 1
        parent[u] = u  # a loop, not a tree
        with pytest.raises(ValueError, match=f"does not join node {u} to its parent"):
            fresh.solve(start=(parent, pred, flow))


def _config(src, snk):
    """A config from (position, mass) pairs of sources and sinks."""
    return SignedConfig(
        sources=tuple(Atom(p, m) for p, m in src),
        sinks=tuple(Atom(p, m) for p, m in snk),
        dimension=len(src[0][0]),
    )


#: (sources, sinks, relays): points and masses that make the plan LP degenerate
DEGENERATE = {
    "coincident relays and a zero-mass sink": (
        [((0.0, 0.0), 1.0), ((2.0, 0.0), 1.0)], [((1.0, 1.0), 2.0), ((1.0, -1.0), 0.0)],
        [(1.0, 0.0)] * 4,
    ),
    "relays on terminals": (
        [((0.0, 0.0), 1.0), ((2.0, 0.0), 3.0)], [((0.0, 2.0), 2.0), ((2.0, 2.0), 2.0)],
        [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)],
    ),
    "duplicate terminals": (
        [((0.0, 0.0), 1.0)] * 3 + [((1.0, 0.0), 1.0)], [((1.0, 1.0), 2.0)] * 2,
        [(0.5, 0.5), (0.5, 0.5), (1.0, 1.0)],
    ),
    "idle relays": (
        [((0.0, 0.0), 2.0), ((1.0, 0.0), 2.0)], [((0.0, 1.0), 1.0), ((1.0, 1.0), 3.0)],
        [(50.0, 50.0), (-40.0, 60.0), (0.5, 0.5)],
    ),
}


class TestDegenerateInputs:
    @pytest.mark.parametrize("case", list(DEGENERATE))
    def test_ends_with_a_feasible_forest(self, case):
        src, snk, relays = DEGENERATE[case]
        cfg = _config(src, snk)
        Z = np.array(relays)
        for q in (1.5, 2.0, 3.0):
            plan, cost = min_cost_plan(cfg, Z, q)
            assert check_plan(plan, cfg) == []
            assert edges_form_forest(
                (plan.row_to_vertex(i), plan.col_to_vertex(j)) for i, j in plan.entries
            )
            ref = _lp_reference(cfg, Z, q)
            assert abs(cost - ref) <= 1e-9 * ref

    @given(
        n_src=st.integers(2, 6),
        n_snk=st.integers(2, 6),
        n_free=st.integers(0, 5),
        dim=st.sampled_from([1, 2, 3]),
        q=st.floats(1.0, 4.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_linprog_at_every_scale(self, n_src, n_snk, n_free, dim, q, seed):
        rng = np.random.default_rng(seed)
        cfg = random_instance(rng, n_src, n_snk, dim=dim)
        Z = rng.uniform(-1, 1, size=(n_free, dim))
        plan, cost = min_cost_plan(cfg, Z, q)
        ref = _lp_reference(cfg, Z, q)
        assert abs(cost - ref) <= 1e-9 * ref
        # as q -> 1, collinear routes tie to within the entering tolerance
        # (in one dimension every route between two points does), so which
        # of them is kept depends on rounding; away from 1 the optimum is
        # unique and must not depend on the scale
        if q >= 1.1:
            flows = list(_cold_flows(*_plan_network_args(cfg, Z, q)).items())
            for k in (-2, -1, 1, 2):
                args = _plan_network_args(*_scaled(cfg, Z, 4.0**k), q)
                assert list(_cold_flows(*args).items()) == flows
        again, cost2 = min_cost_plan(cfg, Z, q)
        assert cost2.hex() == cost.hex()
        assert list(again.entries.items()) == list(plan.entries.items())

    def test_flows_do_not_depend_on_extreme_scales(self, rng):
        # costs from 1e-36 to 1e36: every tolerance must scale with max F
        for q in (1.5, 2.0, 3.0):
            cfg = random_instance(rng, 5, 4)
            Z = rng.uniform(-1, 1, size=(4, 2))
            flows = list(_cold_flows(*_plan_network_args(cfg, Z, q)).items())
            for k in (-20, -8, 8, 20):
                args = _plan_network_args(*_scaled(cfg, Z, 4.0**k), q)
                assert list(_cold_flows(*args).items()) == flows


def _assert_simplex_plan(plan, cfg, Z, q):
    """What a plan fresh from the simplex is: sorted, dust-free, a forest,
    feasible, and left as it is by ``regularize``."""
    keys = list(plan.entries)
    assert keys == sorted(keys)
    tol = zero_flow_threshold(cfg)
    assert all(g > tol for g in plan.entries.values())
    assert _is_forest(plan)
    assert check_plan(plan, cfg) == []
    assert list(regularize(plan, cfg, Z, q).entries.items()) == list(plan.entries.items())


def _replay_on_fresh_networks(monkeypatch, cfg, Zs, q):
    """Warm plan solves on one basis at each Z in turn, each checked against
    a fresh network started from the tree the basis's network kept, which
    that solve checks and rebuilds, and checked by ``_assert_simplex_plan``.
    Returns the pivot count of every solve."""
    arc_checks = 0
    arc_ends = MinCostFlowNetwork._arc_ends

    def counting(self, a, u):
        nonlocal arc_checks
        arc_checks += 1
        return arc_ends(self, a, u)

    units = integer_mass_units(cfg.source_masses()), integer_mass_units(cfg.sink_masses())
    unit = total_mass(cfg) / MASS_UNITS
    basis = TreeBasis()
    pivots, prev, kept = [], None, None
    for Z in Zs:
        start = None if basis.network is None else basis.network.tree
        arc_checks = 0
        with monkeypatch.context() as patched:
            patched.setattr(MinCostFlowNetwork, "_arc_ends", counting)
            plan, cost = min_cost_plan(cfg, Z, q, basis)
        # the network built by the first solve serves every later one, whose
        # start is not checked node by node
        net = basis.network
        assert kept is None or net is kept
        assert arc_checks == 0
        kept = net
        F = cost_matrix(cfg, Z, q)
        fresh = MinCostFlowNetwork(F, cfg.n_sources, cfg.n_sinks, *units)
        assert fresh.solve(start=start) == net.pivots
        assert net.F.tobytes() == fresh.F.tobytes()
        assert net.pi.tobytes() == fresh.pi.tobytes()
        assert net.tree == fresh.tree
        flows = support_flows(fresh)
        assert list(support_flows(net).items()) == list(flows.items())  # order included
        assert list(plan.entries.items()) == [(key, f * unit) for key, f in flows.items()]
        _assert_simplex_plan(plan, cfg, Z, q)
        assert cost.hex() == float(sum(f * unit * F[key] for key, f in flows.items())).hex()
        if net.pivots == 0 and prev is not None:
            # no pivot: the previous plan's entries, the cost at the new F
            assert list(plan.entries.items()) == list(prev.entries.items())
        pivots.append(net.pivots)
        prev = plan
    return pivots


def _moves(rng, Z0, steps=(0.3, 0.1, 0.01, 1e-3, 0.0)):
    """Z0 and then ever smaller random moves of it, the last one none."""
    Zs = [Z0]
    for step in steps:
        Zs.append(Zs[-1] + step * rng.normal(size=Z0.shape))
    return Zs


class TestKeptNetwork:
    """A basis keeps its plan network: warm re-solves re-price it and start
    from its tree, bit for bit the same as a fresh network from that tree."""

    def test_wide_networks(self, rng, monkeypatch):
        pivots = []
        for _ in range(3):
            n_src, n_snk = (int(k) for k in rng.integers(12, 33, size=2))
            cfg = random_instance(rng, n_src, n_snk, total_mass=64)
            Z0 = rng.uniform(-1, 1, size=(int(rng.integers(8, 33)), 2))
            pivots += _replay_on_fresh_networks(monkeypatch, cfg, _moves(rng, Z0), 2.0)
        assert 0 in pivots and max(pivots) > 0

    def test_y_descent(self, monkeypatch, solved_networks):
        cfg = y_instance()
        rng = np.random.default_rng(np.random.SeedSequence([0, 0]))
        Z0 = positions._random_seed_positions(cfg, 24, rng)
        Zs = [Z for Z, *_ in _recorded_descent(monkeypatch, solved_networks, cfg, Z0, 2.0)]
        # the descent's positions, then its last ones again
        pivots = _replay_on_fresh_networks(monkeypatch, cfg, Zs + Zs[-1:], 2.0)
        assert 0 in pivots and max(pivots) > 0

    @pytest.mark.parametrize("case", list(DEGENERATE))
    def test_degenerate_inputs(self, case, rng, monkeypatch):
        src, snk, relays = DEGENERATE[case]
        cfg = _config(src, snk)
        Z0 = np.array(relays)
        for q in (1.5, 2.0, 3.0):
            # moved off the degenerate points, then back onto them
            Zs = _moves(rng, Z0, (0.1, 1e-3))
            _replay_on_fresh_networks(monkeypatch, cfg, Zs + [Z0, Z0], q)

    @pytest.mark.parametrize("case", ["y_n24_q2", "2+2_n16_q1.5"])
    def test_each_start_solves_on_one_network(self, case, monkeypatch):
        # every plan solve of the call, each start's and its rebalance
        # proposals', runs on the one network the first start's first solve
        # built.  Each start's first solve passes a start tree, the W1
        # seed's coupling tree with the relays threaded on; every later one
        # starts from the tree the network kept.  The coupling is the
        # zero-relay plan LP, solved before any start, from the artificial tree
        if case == "y_n24_q2":
            cfg, n, q = y_instance(), 24, 2.0
        else:
            cfg, n, q = random_instance(np.random.default_rng([0, 0]), 2, 2), 16, 1.5
        starts = []
        real_descend, solve = positions._descend, MinCostFlowNetwork.solve

        def descend(*args):
            starts.append([])
            return real_descend(*args)

        def recording(self, start=None):
            if isinstance(self, _PlanNetwork) and self.n_free:
                starts[-1].append((self, start is not None))
            else:
                assert start is None
            return solve(self, start=start)

        monkeypatch.setattr(positions, "_descend", descend)
        monkeypatch.setattr(MinCostFlowNetwork, "solve", recording)
        params = CostParams(q=q)
        positions.alternate_minimize(cfg, n, params)
        assert len(starts) == 1 + params.restarts
        net = starts[0][0][0]
        for solves in starts:
            assert len(solves) > 1
            assert all(other is net for other, _ in solves)
            assert [passed for _, passed in solves] == [True] + [False] * (len(solves) - 1)

    @pytest.mark.parametrize("case", ["y_n24_q2", "2+2_n16_q1.5", "12+12_n24_q2", "3d_n16_q2"])
    def test_shared_network_matches_a_network_per_start(self, case, monkeypatch):
        # alternate_minimize against itself with a fresh basis, so a fresh
        # plan network, for every start: re-pricing one network at each
        # start's positions and threading the coupling onto it gives the
        # same solve, bit for bit
        if case == "y_n24_q2":
            cfg, n, params = y_instance(), 24, CostParams(q=2.0)
        elif case == "2+2_n16_q1.5":
            cfg = random_instance(np.random.default_rng([0, 0]), 2, 2)
            n, params = 16, CostParams(q=1.5)
        elif case == "12+12_n24_q2":
            cfg = random_instance(np.random.default_rng([0, 0]), 12, 12, total_mass=16)
            n, params = 24, CostParams(q=2.0, restarts=2)
        else:
            cfg = random_instance(np.random.default_rng([0, 0]), 6, 6, dim=3)
            n, params = 16, CostParams(q=2.0)
        shared = positions.alternate_minimize(cfg, n, params)
        run_start = positions._run_start
        bases = []

        def network_per_start(config, Z0, q, n, basis, settled):
            fresh = TreeBasis(basis.coupling)
            bases.append(fresh)
            return run_start(config, Z0, q, n, fresh, settled)

        monkeypatch.setattr(positions, "_run_start", network_per_start)
        reference = positions.alternate_minimize(cfg, n, params)
        assert len(bases) == 1 + params.restarts
        assert len({id(basis.network) for basis in bases}) == len(bases)
        assert shared.Z.tobytes() == reference.Z.tobytes()
        for name in ("rows", "cols", "flows"):
            assert getattr(shared.plan, name).tobytes() == getattr(reference.plan, name).tobytes()
        assert shared.cost_q.hex() == reference.cost_q.hex()
        assert [c.hex() for c in shared.start_costs] == [c.hex() for c in reference.start_costs]
        assert (shared.start_index, shared.iterations, shared.converged,
                shared.inner_budget_hits) == (reference.start_index, reference.iterations,
                                              reference.converged, reference.inner_budget_hits)

    def test_repriced_costs_equal_a_fresh_cost_matrix(self, rng):
        # the relay blocks are re-priced on their own; every entry and the
        # pricing scale must equal those of a network built at the new Z
        for dim in (1, 2, 3, 8, 9):
            for q in (1.5, 2.0, 3.0, float(rng.uniform(1.0, 4.0))):
                cfg = random_config(rng, dim=dim)
                n_free = int(rng.integers(1, 12))
                scale = 16.0 ** int(rng.integers(-2, 3))
                basis = TreeBasis()
                min_cost_plan(cfg, rng.normal(size=(n_free, dim)) * scale, q, basis)
                kept = basis.network
                for _ in range(3):
                    Z = rng.normal(size=(n_free, dim)) * scale
                    min_cost_plan(cfg, Z, q, basis)
                    assert basis.network is kept
                    units = (integer_mass_units(cfg.source_masses()),
                             integer_mass_units(cfg.sink_masses()))
                    fresh = MinCostFlowNetwork(
                        cost_matrix(cfg, Z, q), cfg.n_sources, cfg.n_sinks, *units
                    )
                    assert kept.F.tobytes() == fresh.F.tobytes()
                    assert kept._fmax.hex() == fresh._fmax.hex()

    def test_a_start_the_caller_passes_is_checked(self, rng):
        cfg = random_instance(rng, 4, 3)
        Z = rng.uniform(-1, 1, size=(3, 2))
        basis = TreeBasis()
        min_cost_plan(cfg, Z, 2.0, basis)
        kept = basis.network
        parent, pred, flow = (list(seq) for seq in kept.tree)
        u = next(u for u, f in enumerate(flow) if f > 0)
        flow[u] += 1
        with pytest.raises(ValueError, match="balance"):
            kept.solve(start=(parent, pred, flow))
        # a solve that fails keeps no tree: the next one on the basis
        # starts cold, and from a start that fits, a solve succeeds
        assert kept.tree is None
        plan, cost = min_cost_plan(cfg, Z + 0.1, 2.0, basis)
        assert basis.network is kept
        again, cost_cold = min_cost_plan(cfg, Z + 0.1, 2.0)
        assert list(plan.entries.items()) == list(again.entries.items())
        assert cost.hex() == cost_cold.hex()
        flow[u] -= 1
        kept.solve(start=(parent, pred, flow))
        cold = _cold_flows(*_plan_network_args(cfg, Z + 0.1))
        assert list(support_flows(kept).items()) == list(cold.items())

    def test_settle_matches_the_regularizing_settle(self, monkeypatch):
        # _settle as it was when every pass regularized its new plan and
        # compared pruned supports; both settle the same starts to the same
        # result, bit for bit, also through solves that make no pivot.  The
        # cost is the LP objective of the last plan solve.  Both stop, with
        # the support unstable, at a pass that no longer lowers the cost
        def reference(config, Z, plan, q, basis):
            tol = zero_flow_threshold(config)
            passes, last = 0, float("inf")
            while True:
                passes += 1
                Z = positions.polish_positions(config, plan, Z, q)[0]
                plan2, cost = min_cost_plan(config, Z, q, basis)
                plan2 = regularize(plan2, config, Z, q)
                stable = set(plan2.pruned(tol).entries) == set(plan.pruned(tol).entries)
                plan = plan2
                if stable or cost >= last * (1.0 - positions.COST_ROUNDING):
                    return Z, plan, cost, stable, passes
                last = cost

        def start(cfg, Z0, q, regularized):
            basis = TreeBasis()
            plan = min_cost_plan(cfg, Z0, q, basis)[0]
            if regularized:
                plan = regularize(plan, cfg, Z0, q)
            return positions.optimize_positions(cfg, plan, Z0, q)[0], plan, basis

        still = 0

        def counting_plan_step(*args):
            nonlocal still
            out = min_cost_plan(*args)
            still += args[3].network.pivots == 0
            return out

        for cfg, n, q in (
            (y_instance(), 24, 2.0),
            (random_instance(np.random.default_rng([0, 0]), 2, 2), 16, 1.5),
        ):
            for k in range(4):
                rng = np.random.default_rng(np.random.SeedSequence([0, k]))
                Z0 = positions._random_seed_positions(cfg, n, rng)
                Z, plan, basis = start(cfg, Z0, q, True)
                want = reference(cfg, Z, plan, q, basis)
                Z, plan, basis = start(cfg, Z0, q, False)
                with monkeypatch.context() as patched:
                    patched.setattr(positions, "min_cost_plan", counting_plan_step)
                    got = positions._settle(cfg, Z, plan, q, basis)
                assert got[0].tobytes() == want[0].tobytes()
                assert list(got[1].entries.items()) == list(want[1].entries.items())
                assert got[2].hex() == want[2].hex()
                assert got[3:5] == want[3:5]
        assert still > 0


def _awkward_instance(rng, dim, scale, zero_mass, coincident):
    """Integer masses summing to 8 on 1-4 sources and sinks at the given
    coordinate scale; optionally a zero-mass source and sink, and a sink on
    the first source."""
    def atoms(masses):
        return [Atom(tuple(scale * rng.uniform(-1, 1, dim)), float(m)) for m in masses]

    n_src, n_snk = (int(k) for k in rng.integers(1, 5, size=2))
    sources = atoms(rng.multinomial(8, np.full(n_src, 1.0 / n_src)))
    sinks = atoms(rng.multinomial(8, np.full(n_snk, 1.0 / n_snk)))
    if zero_mass:
        sources += atoms([0.0])
        sinks += atoms([0.0])
    if coincident:
        sinks[0] = Atom(sources[0].position, sinks[0].mass)
    return SignedConfig(tuple(sources), tuple(sinks), dim)


def _coupling_tree(cfg):
    """The final tree of cfg's zero-relay plan network at q = 1, the W1
    coupling w1_seed solves."""
    basis = TreeBasis()
    min_cost_plan(cfg, None, 1.0, basis)
    return basis.network.tree


def _on_segments(rng, cfg, k, noise):
    """k points on random segments between cfg's terminals, moved by noise."""
    src, snk = cfg.source_positions(), cfg.sink_positions()
    i, j = rng.integers(cfg.n_sources, size=k), rng.integers(cfg.n_sinks, size=k)
    t = rng.uniform(0.0, 1.0, size=(k, 1))
    return src[i] + t * (snk[j] - src[i]) + noise * rng.normal(size=(k, cfg.dimension))


class TestThreadedStart:
    """The first solve on a basis that carries a coupling starts from the
    coupling's tree with the relays threaded onto its segments."""

    @staticmethod
    def _check(cfg, Z, q, same_flows):
        """Solve from the threaded tree and cold; returns the tree and the
        number of plan arcs."""
        coupling = _coupling_tree(cfg)
        net = _PlanNetwork(cfg, Z, q)
        start = _threaded_start(coupling, net, Z)
        net.solve(start=start)  # ValueError if the start fails solve's checks
        cold = _PlanNetwork(cfg, Z, q)
        cold.solve()

        def cost(flows):
            return float(sum(f * net.F[key] for key, f in flows.items()))

        got, want = support_flows(net), support_flows(cold)
        assert abs(cost(got) - cost(want)) <= 1e-12 * cost(want)
        if same_flows:
            assert list(got.items()) == list(want.items())
        # each insertion lowers its route's cost: the start costs no more
        # than the coupling does at q
        m_c = cfg.n_sources * cfg.n_sinks  # coupling arc a is the pair divmod(a, n_sinks)
        coupling_cost = sum(f * net.F[divmod(a, cfg.n_sinks)]
                            for a, f in zip(*coupling[1:]) if a < m_c)
        start_cost = sum(f * net.F[net._rows[a], net._cols[a]]
                         for a, f in zip(*start[1:]) if a < net.m)
        assert start_cost <= coupling_cost * (1.0 + 1e-12)
        return start, net.m

    def test_random_instances(self, rng):
        threaded = 0
        for _ in range(40):
            n_src, n_snk = (int(k) for k in rng.integers(1, 9, size=2))
            dim = int(rng.integers(1, 4))
            q = float(rng.choice([1.5, 2.0, 3.0]))
            cfg = random_instance(rng, n_src, n_snk, dim=dim)
            k = int(rng.integers(1, 41))
            near = int(rng.integers(0, k + 1))
            low, high = cfg.bbox()
            Z = np.vstack([_on_segments(rng, cfg, near, 0.01),
                           rng.uniform(low - 0.1, high + 0.1, size=(k - near, dim))])
            (_, pred, _), m = self._check(cfg, Z, q, same_flows=True)
            threaded += sum(a < m for a in pred[n_src + n_snk:])
        assert threaded > 0

    def test_degenerate_inputs(self, rng):
        cases = dict(DEGENERATE)
        # a source and a sink at one point make a segment of length zero
        cases["zero-length segment"] = (
            [((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0)], [((0.0, 0.0), 1.0), ((1.0, 1.0), 1.0)],
            [(0.0, 0.0), (0.0, 0.0), (1.0, 0.5), (0.3, 0.3)],
        )
        cases["relays on every terminal"] = (
            [((0.0, 0.0), 1.0), ((2.0, 0.0), 1.0)], [((1.0, 2.0), 1.0), ((3.0, 1.0), 1.0)],
            [(0.0, 0.0), (2.0, 0.0), (1.0, 2.0), (3.0, 1.0), (1.0, 2.0)],
        )
        for src, snk, relays in cases.values():
            for q in (1.5, 2.0, 3.0):
                self._check(_config(src, snk), np.array(relays), q, same_flows=False)

    def test_every_relay_nearest_one_segment(self, rng):
        # relays strictly inside one segment, coincident ones among them:
        # each lowers the route's cost, so all go on, in order along it
        cfg = _config([((0.0, 0.0), 1.0), ((0.0, 5.0), 1.0)],
                      [((4.0, 0.0), 1.0), ((4.0, 5.0), 1.0)])
        t = np.concatenate([rng.uniform(0.05, 0.95, size=9), [0.5, 0.5]])
        Z = np.stack([4.0 * t, np.zeros_like(t)], axis=1)
        for q in (1.5, 2.0, 3.0):
            (parent, _, flow), _ = self._check(cfg, Z, q, same_flows=False)
            relays = list(range(4, 4 + len(Z)))
            assert all(flow[u] > 0 for u in relays)
            # the chain source 0 -> relays by increasing t -> sink 0, in
            # either hanging direction; ties keep the relays' order
            chain = [int(r) for r in np.argsort(t, kind="stable")]
            nodes = [0] + [4 + r for r in chain] + [2]
            hops = {(parent[u], u) for u in range(len(flow)) if parent[u] < len(flow)}
            steps = set(zip(nodes, nodes[1:]))
            assert steps <= hops or {(b, a) for a, b in steps} <= hops

    def test_starts_take_at_most_60_percent_of_cold_pivots(self):
        # the three starts of the benchmark's wide_plan instance
        cfg = random_instance(np.random.default_rng([0, 0]), 64, 64, total_mass=64)
        params = CostParams(q=2.0, restarts=2)
        w1_basis = TreeBasis()
        starts = [positions.w1_seed(cfg, 32, w1_basis)] + [
            positions._random_seed_positions(
                cfg, 32, np.random.default_rng(np.random.SeedSequence([params.seed, k])))
            for k in range(params.restarts)
        ]
        threaded = cold = 0
        for Z in starts:
            warm_basis, cold_basis = TreeBasis(w1_basis.network.tree), TreeBasis()
            plan, cost = min_cost_plan(cfg, Z, params.q, warm_basis)
            again, cost_cold = min_cost_plan(cfg, Z, params.q, cold_basis)
            assert list(plan.entries.items()) == list(again.entries.items())
            assert cost.hex() == cost_cold.hex()
            threaded += warm_basis.network.pivots
            cold += cold_basis.network.pivots
        assert threaded <= 0.6 * cold

    def test_rejects_a_coupling_that_does_not_fit(self, rng):
        cfg = random_instance(rng, 3, 3, total_mass=8)
        Z = rng.uniform(0, 1, size=(4, 2))
        with pytest.raises(ValueError, match="coupling tree has 7 nodes"):
            min_cost_plan(cfg, Z, 2.0, TreeBasis(_coupling_tree(random_instance(rng, 4, 3))))
        # other masses on as many terminals: the solve's balance check
        other = SignedConfig(cfg.sources, cfg.sinks[1:] + cfg.sinks[:1], cfg.dimension)
        assert other.sink_masses().tolist() != cfg.sink_masses().tolist()
        with pytest.raises(ValueError, match="balance"):
            min_cost_plan(cfg, Z, 2.0, TreeBasis(_coupling_tree(other)))


#: (config, n, q): the Y ladder, the benchmark's certify_q instances at
#: n=16, and a 3+2 instance
_SOLVES = {
    **{f"y_n{n}": (y_instance(), n, 2.0) for n in (6, 12, 24)},
    **{
        f"certify_q-{k}": (random_instance(np.random.default_rng([0, k]), 2, 2),
                           16, 1.5 if k % 2 == 0 else 3.0)
        for k in range(4)
    },
    "3+2_q2.5": (random_instance(np.random.default_rng([13, 3]), 3, 2), 16, 2.5),
}


class TestForestByConstruction:
    """Every simplex plan is a basic solution: its support is a spanning-tree
    subset, so a forest, and each flow is at least one mass unit.  The solver
    therefore needs no regularization, and none of it runs.  The replays of
    ``TestKeptNetwork``, the ``DEGENERATE`` cases among them, check the same
    of every plan they solve."""

    @given(
        dim=st.sampled_from([1, 2, 3]),
        q=st.floats(1.0, 4.0, exclude_min=True),
        k=st.integers(-6, 6),
        n_free=st.integers(0, 6),
        zero_mass=st.booleans(),
        coincident=st.booleans(),
        relay_on_terminal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_warm_and_cold_plans_are_forests(
        self, dim, q, k, n_free, zero_mass, coincident, relay_on_terminal, seed
    ):
        rng = np.random.default_rng(seed)
        scale = 4.0**k
        cfg = _awkward_instance(rng, dim, scale, zero_mass, coincident)
        Z0 = scale * rng.uniform(-1, 1, size=(n_free, dim))
        if relay_on_terminal and n_free:
            terminals = cfg.terminal_positions()
            Z0[0] = terminals[rng.integers(len(terminals))]
        steps = tuple(scale * s for s in (0.3, 0.1, 0.01, 1e-3, 0.0))
        basis = TreeBasis()  # a cold solve, then warm re-solves on it
        for Z in _moves(rng, Z0, steps):
            plan, _ = min_cost_plan(cfg, Z, q, basis)
            _assert_simplex_plan(plan, cfg, Z, q)

    @pytest.mark.parametrize("case", list(_SOLVES))
    def test_solves_equal_those_that_regularize_every_plan(self, case, monkeypatch):
        # the solver as it was, with every plan regularized, gives the same
        # answer bit for bit
        cfg, n, q = _SOLVES[case]

        def regularizing(config, Z, q, basis=None):
            plan, cost = min_cost_plan(config, Z, q, basis)
            return regularize(plan, config, Z, q), cost

        plain = positions.alternate_minimize(cfg, n, CostParams(q=q))
        monkeypatch.setattr(positions, "min_cost_plan", regularizing)
        old = positions.alternate_minimize(cfg, n, CostParams(q=q))
        assert plain.cost_q.hex() == old.cost_q.hex()
        assert plain.Z.tobytes() == old.Z.tobytes()
        assert list(plain.plan.entries.items()) == list(old.plan.entries.items())
        assert (plain.iterations, plain.converged) == (old.iterations, old.converged)
        assert [c.hex() for c in plain.start_costs] == [c.hex() for c in old.start_costs]

    def test_the_solver_never_regularizes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("regularize called")

        monkeypatch.setattr(positions, "regularize", refuse)
        positions.alternate_minimize(y_instance(), 12, CostParams(q=2.0))
        cfg = random_instance(np.random.default_rng([0, 1]), 2, 2)
        positions.alternate_minimize(cfg, 8, CostParams(q=3.0))


class TestTransportPlan:
    def test_vertex_indexing_convention(self):
        plan = plan_of(n_sources=2, n_sinks=3, n_free=2)
        assert [plan.row_to_vertex(i) for i in range(4)] == [0, 1, 5, 6]
        assert [plan.col_to_vertex(j) for j in range(5)] == [2, 3, 4, 5, 6]

    def test_from_triplets_accumulates_and_drops_zero(self):
        plan = TransportPlan.from_triplets(1, 1, 1, [(0, 0, 0.25), (0, 0, 0.25), (1, 1, 0.0)])
        assert plan.entries == {(0, 0): 0.5}

    def test_check_plan_reports_violations(self):
        cfg = single_edge()
        bad = plan_of(1, 1, 1, {(0, 0): 0.5})  # ships half the mass
        msgs = check_plan(bad, cfg)
        assert any("source 0" in m for m in msgs) and any("sink 0" in m for m in msgs)

    def test_check_plan_flags_self_loop(self):
        cfg = single_edge()
        bad = plan_of(1, 1, 2, {(0, 0): 1.0, (1, 1): 0.3})
        assert any("self-loop" in m for m in check_plan(bad, cfg))
        # a zero-flow self-loop is no fault; each loop with flow is named
        bad = plan_of(1, 1, 2, {(0, 0): 1.0, (1, 1): 0.0, (2, 2): 0.3})
        assert check_plan(bad, cfg) == ["self-loop flow at free atom 1"]

    @pytest.mark.parametrize("rows, cols, flows, fault", [
        # a cast would read row 0.5 as row 0, and plan_cost would price it
        (np.array([0.5]), np.array([0]), [1.0], "integers"),
        (np.array([0, 1.0]), np.array([0, 0]), [1.0, 0.5], "integers"),
        (np.array([0]), np.array([np.float64(1)]), [1.0], "integers"),
        ([0, 2], [0, 0], [1.0, 0.5], "outside"),
        ([0, 0], [0, 2], [1.0, 0.5], "outside"),
        ([-1, 0], [0, 0], [1.0, 0.5], "outside"),
        ([0, 0], [-1, 0], [1.0, 0.5], "outside"),
        ([0, 0], [0, 0], [1.0, 0.5], "strictly increase"),
        ([1, 0], [0, 0], [0.5, 1.0], "strictly increase"),
        ([0, 0], [1, 0], [0.5, 1.0], "strictly increase"),
        ([0], [0], [float("nan")], "finite and nonnegative"),
        ([0], [0], [float("inf")], "finite and nonnegative"),
        ([0], [0], [-0.5], "finite and nonnegative"),
        ([0, 1], [0], [1.0], "one length"),
        ([[0]], [[0]], [[1.0]], "1-d"),
    ])
    def test_construction_refuses_a_bad_plan(self, rows, cols, flows, fault):
        with pytest.raises(InvalidConfigError, match=fault):
            TransportPlan(1, 1, 1, rows, cols, flows)

    def test_construction_keeps_read_only_copies(self):
        rows, cols, flows = np.array([0, 1], dtype=np.int32), np.array([1, 0]), [0.0, 1.0]
        plan = TransportPlan(1, 1, 1, rows, cols, flows)
        assert plan.rows.dtype == plan.cols.dtype == np.intp and plan.flows.dtype == float
        assert plan.flows.tolist() == [0.0, 1.0]  # a zero flow is legal
        rows[0] = 1
        assert plan.rows.tolist() == [0, 1]
        for arr in (plan.rows, plan.cols, plan.flows):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(TypeError):
            plan.entries[(0, 1)] = 2.0
        with pytest.raises(AttributeError):
            plan.rows = np.array([0, 1])

    def test_check_plan_reports_a_plan_of_another_shape(self):
        cfg = single_edge()
        # source 1, which the config lacks, ships 5.0: the shape is the fault
        extra = plan_of(2, 1, 0, {(0, 0): 1.0, (1, 0): 5.0})
        assert check_plan(extra, cfg) == ["plan has 2 sources and 1 sinks, config has 1 and 1"]
        # fewer sources than the config: a message, not an IndexError
        assert check_plan(plan_of(0, 1, 0), cfg) == [
            "plan has 0 sources and 1 sinks, config has 1 and 1"]
        assert check_plan(plan_of(1, 2, 1, {(0, 0): 1.0}), cfg) == [
            "plan has 1 sources and 2 sinks, config has 1 and 1"]

    def test_check_plan_prints_plain_floats(self):
        msgs = check_plan(plan_of(1, 1, 1, {(0, 0): 0.5, (0, 1): 0.25}), single_edge())
        assert msgs == [
            "source 0 ships 0.75, mass is 1.0",
            "sink 0 receives 0.5, mass is 1.0",
            "free atom 0 violates conservation: in 0.25 out 0.0",
        ]

    @pytest.mark.parametrize("key", [(0.5, 0), (0, 0.5), (np.float64(1.9), 0), (1.0, 0),
                                     (0, "0"), (None, 0)])
    def test_from_triplets_refuses_an_index_that_is_not_an_integer(self, key):
        # int() would truncate 0.5 to row 0 and np.float64(1.9) to row 1
        with pytest.raises(InvalidConfigError, match="not a pair of integers"):
            TransportPlan.from_triplets(2, 1, 1, [(*key, 1.0)])

    def test_from_triplets_takes_numpy_integers(self):
        plan = TransportPlan.from_triplets(2, 1, 1, [(np.int64(1), np.intp(0), 1.0)])
        assert plan.entries == {(1, 0): 1.0}
        assert all(type(i) is int for key in plan.entries for i in key)

    def test_from_triplets_refuses_non_finite_flows(self):
        for g in (float("nan"), float("inf"), -float("inf"), -0.5):
            with pytest.raises(InvalidConfigError, match="not finite"):
                TransportPlan.from_triplets(1, 1, 0, [(0, 0, g)])

    def test_arcs_in_sorted_key_order_as_vertex_ids(self):
        plan = plan_of(2, 3, 2, {(3, 1): 0.5, (0, 4): 0.25, (2, 0): 1.0, (0, 0): 2.0})
        tails, heads, flows = plan.arcs()
        assert tails.dtype == heads.dtype == np.intp and flows.dtype == float
        keys = sorted(plan.entries)
        assert tails.tolist() == [plan.row_to_vertex(i) for i, _ in keys] == [0, 0, 5, 6]
        assert heads.tolist() == [plan.col_to_vertex(j) for _, j in keys] == [2, 6, 2, 3]
        assert flows.tolist() == [2.0, 0.25, 1.0, 0.5]
        empty = plan_of(2, 3, 2).arcs()
        assert [a.size for a in empty] == [0, 0, 0]

    def test_vertex_flows_are_the_marginals(self, rng):
        for _ in range(20):
            cfg = random_config(rng)
            n_free = int(rng.integers(0, 6))
            plan = random_feasible_plan(cfg, n_free, rng)
            inflow, outflow = plan.vertex_flows()
            assert inflow.shape == outflow.shape == (plan.n_vertices,)
            want_in, want_out = np.zeros(plan.n_vertices), np.zeros(plan.n_vertices)
            for (i, j), g in sorted(plan.entries.items()):
                want_out[plan.row_to_vertex(i)] += g
                want_in[plan.col_to_vertex(j)] += g
            assert inflow.tolist() == want_in.tolist()
            assert outflow.tolist() == want_out.tolist()
            assert plan.throughputs().tolist() == want_out[cfg.n_sources + cfg.n_sinks:].tolist()

    def test_plan_cost_equals_the_per_entry_loop(self, rng):
        # one norm per entry, summed left to right in sorted key order: the
        # vectorized plan_cost must reproduce it bit for bit
        def reference(cfg, Z, plan, q):
            P = np.vstack([cfg.source_positions(), cfg.sink_positions(), Z])
            total = 0.0
            for (i, j), g in sorted(plan.entries.items()):
                d = float(np.linalg.norm(P[plan.row_to_vertex(i)] - P[plan.col_to_vertex(j)]))
                total += g * d**q
            return total

        for trial in range(60):
            dim = 1 + trial % 3
            cfg = random_config(rng, dim=dim)
            n_free = int(rng.integers(0, 6))
            plan = random_feasible_plan(cfg, n_free, rng)
            Z = rng.normal(size=(n_free, dim)) * 16.0 ** int(rng.integers(-2, 3))
            for q in (1.5, 2.0, 3.0, float(rng.uniform(1.0, 4.0))):
                assert plan_cost(cfg, Z, plan, q) == reference(cfg, Z, plan, q)
        assert plan_cost(cfg, Z, plan_of(cfg.n_sources, cfg.n_sinks, n_free), 2.0) == 0.0


def _dict_arcs(plan):
    """``arcs()`` as it was when a plan held an entries dict: the keys
    sorted in Python, then the rows from the first free one on moved past
    the sinks."""
    keys = sorted(plan.entries)
    rows, cols = zip(*keys) if keys else ((), ())
    tails = np.array(rows).astype(np.intp, copy=False)
    tails[bisect_left(rows, plan.n_sources):] += plan.n_sinks
    heads = np.array(cols).astype(np.intp, copy=False) + plan.n_sources
    return tails, heads, np.array([plan.entries[k] for k in keys], dtype=float)


def _assert_dict_arcs(plan):
    for got, want in zip(plan.arcs(), _dict_arcs(plan)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestPlanArrays:
    """The relabelling ``arcs()`` equals the dict-sorting one it replaced,
    and ``_settle``'s array stability test equals its key-set test."""

    def test_solver_plans_match_the_dict_arcs(self, monkeypatch):
        plans = []

        def recording(config, Z, q, basis=None):
            out = min_cost_plan(config, Z, q, basis)
            plans.append((id(basis), out[0]))
            return out

        monkeypatch.setattr(positions, "min_cost_plan", recording)
        for n in (6, 24, 48):
            positions.alternate_minimize(y_instance(), n, CostParams(q=2.0))
        assert len(plans) > 100
        last, seen = {}, set()
        for basis, plan in plans:
            _assert_dict_arcs(plan)
            # consecutive solves on one basis: what _settle compares
            prev = last.get(basis)
            if prev is not None:
                stable = (np.array_equal(plan.rows, prev.rows)
                          and np.array_equal(plan.cols, prev.cols))
                assert stable == (plan.entries.keys() == prev.entries.keys())
                seen.add(stable)
            last[basis] = plan
        assert seen == {True, False}

    def test_hand_made_plans_match_the_dict_arcs(self, rng):
        for trial in range(60):
            cfg = random_config(rng)
            n_free = int(rng.integers(0, 6))
            if trial % 2:
                plan = random_feasible_plan(cfg, n_free, rng)
            else:
                # any support, zero flows included
                n_rows, n_cols = cfg.n_sources + n_free, cfg.n_sinks + n_free
                keys = [(i, j) for i in range(n_rows) for j in range(n_cols)
                        if rng.random() < 0.4]
                flows = rng.choice([0.0, 0.25, 1.0, float(rng.uniform())], size=len(keys))
                plan = plan_of(cfg.n_sources, cfg.n_sinks, n_free, dict(zip(keys, flows)))
            _assert_dict_arcs(plan)

    def test_solver_plans_equal_checked_ones(self, rng, monkeypatch):
        # the simplex's arrays skip the constructor's checks; the plan they
        # make equals the checked constructor's in values, dtypes and
        # read-only flags, and no later solve on the basis writes into it
        cases = [(y_instance(), 24, 2.0), (random_instance(np.random.default_rng([0, 0]), 2, 2), 16, 1.5),
                 (random_instance(np.random.default_rng([0, 0]), 12, 12, total_mass=16), 24, 2.0),
                 (random_instance(np.random.default_rng([0, 0]), 6, 6, dim=3), 16, 3.0)]
        solved = []
        for cfg, n, q in cases:
            basis = TreeBasis()
            for _ in range(3):
                Z = rng.uniform(*cfg.bbox(), size=(n, cfg.dimension))
                plan, _ = min_cost_plan(cfg, Z, q, basis)
                solved.append((plan, [a.tobytes() for a in (plan.rows, plan.cols, plan.flows)]))
        for plan, kept in solved:
            checked = TransportPlan(plan.n_sources, plan.n_sinks, plan.n_free,
                                    plan.rows, plan.cols, plan.flows)
            for name, before in zip(("rows", "cols", "flows"), kept):
                got, want = getattr(plan, name), getattr(checked, name)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes() == before
                assert not got.flags.writeable and not want.flags.writeable
            assert plan.pruned(0.0) is plan
        # the solver path runs no check at all
        monkeypatch.setattr(TransportPlan, "__post_init__", lambda self: pytest.fail("checked"))
        min_cost_plan(y_instance(), np.zeros((6, 2)), 2.0)

    def test_pruned_copies_only_when_it_drops(self):
        plan = plan_of(1, 1, 1, {(0, 0): 1.0, (0, 1): 0.5, (1, 0): 0.0})
        assert plan.pruned(-1.0) is plan
        dropped = plan.pruned(0.0)
        assert dropped is not plan and dropped.to_triplets() == [(0, 0, 1.0), (0, 1, 0.5)]
        assert plan.pruned(0.75).to_triplets() == [(0, 0, 1.0)]


class TestWasserstein:
    def test_identical_measures_have_zero_distance(self):
        atoms = (Atom((0.0, 0.0), 1.0), Atom((2.0, 1.0), 3.0))
        assert wasserstein_q(atoms, atoms, 2.0) == 0.0

    def test_two_point_closed_form(self):
        plus = (Atom((0.0, 0.0), 2.0),)
        minus = (Atom((3.0, 4.0), 2.0),)
        for q in (1.0, 1.5, 2.0, 3.0):
            assert wasserstein_q(plus, minus, q) == pytest.approx(5.0 * 2.0 ** (1.0 / q))

    def test_symmetry(self, rng):
        for _ in range(5):
            cfg = random_config(rng)
            d1 = wasserstein_q(cfg.sources, cfg.sinks, 2.0)
            d2 = wasserstein_q(cfg.sinks, cfg.sources, 2.0)
            assert d1 == pytest.approx(d2, rel=1e-9)

    def test_triangle_inequality_unit_masses(self, rng):
        for q in (1.0, 2.0):
            for _ in range(5):
                a, b, c = (
                    tuple(Atom(tuple(p), 1.0) for p in rng.uniform(-1, 1, size=(4, 2)))
                    for _ in range(3)
                )
                dab = wasserstein_q(a, b, q)
                dbc = wasserstein_q(b, c, q)
                dac = wasserstein_q(a, c, q)
                assert dac <= dab + dbc + 1e-9

    def test_matches_assignment_solver_on_unit_masses(self, rng):
        for q in (1.0, 2.0, 3.0):
            P = rng.uniform(-1, 1, size=(5, 2))
            Q = rng.uniform(-1, 1, size=(5, 2))
            plus = tuple(Atom(tuple(p), 1.0) for p in P)
            minus = tuple(Atom(tuple(p), 1.0) for p in Q)
            D = np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=2) ** q
            r, c = linear_sum_assignment(D)
            assert wasserstein_q(plus, minus, q) ** q == pytest.approx(
                D[r, c].sum(), rel=1e-9
            )

    def test_w1_cancels_shared_mass(self, rng):
        # the q = 1 distance depends only on the signed difference of the
        # two measures: adding the same atom to both sides changes nothing
        cfg = random_config(rng, n_sources=2, n_sinks=2)
        base = wasserstein_q(cfg.sources, cfg.sinks, 1.0)
        shared = Atom((0.123, -0.456), 2.5)
        padded = wasserstein_q(cfg.sources + (shared,), cfg.sinks + (shared,), 1.0)
        assert padded == pytest.approx(base, rel=1e-9)

    def test_coupling_marginals(self, rng):
        cfg = random_config(rng)
        coupling, _ = wasserstein_coupling(cfg.sources, cfg.sinks, 2.0)
        src_out = np.zeros(cfg.n_sources)
        snk_in = np.zeros(cfg.n_sinks)
        for (i, j), g in coupling.items():
            src_out[i] += g
            snk_in[j] += g
        assert np.allclose(src_out, cfg.source_masses(), atol=1e-8)
        assert np.allclose(snk_in, cfg.sink_masses(), atol=1e-8)

    def test_rejects_unbalanced_and_sub_one_exponents(self):
        plus = (Atom((0.0, 0.0), 1.0),)
        minus = (Atom((1.0, 0.0), 2.0),)
        with pytest.raises(Exception, match="unbalanced"):
            wasserstein_q(plus, minus, 2.0)
        with pytest.raises(Exception, match=">= 1"):
            wasserstein_q(plus, plus, 0.5)
        # every invalid instance or exponent is refused as such, not left to
        # the flow solver
        far = (Atom((1.0, 0.0), 1.0),)
        bad = [
            ((Atom((0.0, 0.0), -1.0), Atom((1.0, 0.0), 2.0)), plus, 2.0),
            ((Atom((0.0, 0.0), float("nan")),), plus, 2.0),
            ((Atom((float("nan"), 0.0), 1.0),), plus, 2.0),
            ((Atom((0.0, float("inf")), 1.0),), plus, 2.0),
            (plus, far, float("nan")),
            (plus, far, float("inf")),
        ]
        for a, b, q in bad:
            with pytest.raises(InvalidConfigError):
                wasserstein_q(a, b, q)


def test_random_instance_masses_are_integer_compositions(rng):
    for _ in range(10):
        cfg = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        src = cfg.source_masses()
        snk = cfg.sink_masses()
        assert src.sum() == snk.sum() == 8.0
        assert all(m == int(m) and m >= 1 for m in np.concatenate([src, snk]))


def _broadcast_pair_costs(A, B, q):
    """The pair costs as one (rows, cols, dim) array summed over its last axis."""
    return np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)) ** q


def _broadcast_segment_offsets(X, A, D):
    """The projection as (..., dim) arrays summed over their last axis."""
    rel = X - A
    length2 = (D * D).sum(axis=-1)
    t = np.clip((rel * D).sum(axis=-1) / np.where(length2 > 0.0, length2, 1.0), 0.0, 1.0)
    gap = t[..., None] * D - rel
    return t, (gap * gap).sum(axis=-1)


# The three projections that _segment_offsets replaced, as they were: the
# threaded start's, reduce_graph's chain distances and the Hausdorff
# distance's.

def _nearest_segments(Z, A, D):
    """For each point of Z, the nearest of the segments A[k] + t D[k] (ties
    to the first) and its projection t there, summed coordinate by
    coordinate."""
    length2 = (D * D).sum(axis=1)
    AZ = [Z[:, k, None] - A[:, k] for k in range(Z.shape[1])]
    dot = np.zeros_like(AZ[0])
    for k, az in enumerate(AZ):
        dot += az * D[:, k]
    t = np.clip(dot / np.where(length2 > 0.0, length2, 1.0), 0.0, 1.0)
    gap = t * D[:, 0] - AZ[0]
    gap2 = gap * gap
    for k in range(1, len(AZ)):
        gap = t * D[:, k] - AZ[k]
        gap2 += gap * gap
    nearest = gap2.argmin(axis=1)
    return nearest, t[np.arange(len(Z)), nearest]


def _segment_distances(points, a, d, d_sq):
    """Distance from each point to its segment [a, a + d], row by row."""
    rel = points - a
    num = (rel * d).sum(axis=1)
    t = np.minimum(np.maximum(num, 0.0), d_sq) / np.where(d_sq > 0.0, d_sq, 1.0)
    off = rel - t[:, None] * d
    return np.sqrt((off * off).sum(axis=1))


def _distances(X, A, B):
    """Distance from points X to segments [A, B], broadcast, through einsum."""
    D = B - A
    DD = np.einsum("...j,...j->...", D, D)
    rel = X - A
    along = np.einsum("...j,...j->...", rel, D)
    t = np.clip(np.divide(along, DD, out=np.zeros_like(along), where=DD > 0), 0.0, 1.0)
    off = rel - t[..., None] * D
    return np.sqrt(np.einsum("...j,...j->...", off, off))


def _projection_cases(rng):
    """(dim, Z, A, D) over dims 1-3 and scales 4^-2..4^2: nine segments, one
    of length zero, and points on four of them, off them, and on two of
    their starts."""
    for dim in (1, 2, 3):
        for scale in 4.0 ** np.arange(-2, 3):
            A = scale * rng.normal(size=(9, dim))
            D = scale * rng.normal(size=(9, dim))
            D[3] = 0.0
            Z = np.vstack([A[:4] + 0.5 * D[:4], scale * rng.normal(size=(12, dim)), A[:2]])
            yield dim, Z, A, D


class TestPerCoordinateSums:
    """Squared lengths summed one coordinate at a time equal, bit for bit,
    the sums over the coordinate axis of the broadcast arrays."""

    def test_pair_costs_equal_the_broadcast_formula(self, rng):
        blocks = 0
        for dim in (1, 2, 3):
            for scale in 4.0 ** np.arange(-2, 3):
                for n_rows, n_cols in ((0, 3), (2, 2), (7, 11), (32, 96), (64, 64)):
                    A = scale * rng.normal(size=(n_rows, dim))
                    B = scale * rng.normal(size=(n_cols, dim))
                    # coincident points: a column on a row, and a repeated row
                    B[: min(n_rows, 2)] = A[:2]
                    A[1:2] = A[:1]
                    for q in (1, 1.5, 2, 3, 1.0, 2.0, 3.0):
                        got = _pair_costs(A, B, q)
                        want = _broadcast_pair_costs(A, B, q)
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes()
                        blocks += 1
        assert blocks == 3 * 5 * 5 * 7

    def test_segment_offsets_equal_the_broadcast_projection(self, rng):
        cases = 0
        for dim, Z, A, D in _projection_cases(rng):
            for X, a, d in ((Z[:, None], A, D), (Z[:9], A, D), (Z[:9], A[0], D)):
                got, want = _segment_offsets(X, a, d), _broadcast_segment_offsets(X, a, d)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
            cases += 1
        assert cases == 3 * 5

    def test_nearest_segments_equal_the_former_projection(self, rng):
        for dim, Z, A, D in _projection_cases(rng):
            t, gap2 = _segment_offsets(Z[:, None], A, D)
            nearest = gap2.argmin(axis=1)
            want = _nearest_segments(Z, A, D)
            assert nearest.tolist() == want[0].tolist()
            assert t[np.arange(len(Z)), nearest].tobytes() == want[1].tobytes()

    def test_chain_distances_equal_the_former_ones(self, rng):
        # reduce_graph's rows: a point against its own segment, the segment's
        # squared length summed as the projection sums it (the former code
        # took it from a BLAS dot, which may differ in the last bit)
        for dim, Z, A, D in _projection_cases(rng):
            # each segment against a point of Z, its start and its end
            a, d = np.vstack([A, A, A]), np.vstack([D, D, D])
            p = np.vstack([Z[:9], A, A + D])
            got = np.sqrt(_segment_offsets(p, a, d)[1])
            assert got.tobytes() == _segment_distances(p, a, d, (d * d).sum(axis=1)).tobytes()

    def test_hausdorff_distances_within_4_ulp_of_the_former_ones(self, rng):
        for dim, Z, A, D in _projection_cases(rng):
            # off the segments, on the segments' ends, and zero-length ones;
            # a point inside a segment lies at a distance of rounding size,
            # which is not known to a relative ulp either way
            B = A + D
            X = np.vstack([Z[4:], B])[:, None]
            got = np.sqrt(_segment_offsets(X, A, B - A)[1])
            want = _distances(X, A, B)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    @pytest.mark.parametrize("size, mass, n", [(12, 16, 24), (64, 64, 32)])
    def test_threaded_start_equals_the_broadcast_one(self, size, mass, n, monkeypatch):
        # the CI determinism instance and the benchmark's wide_plan instance,
        # at the W_1 seed and two random starts
        cfg = random_instance(np.random.default_rng([0, 0]), size, size, total_mass=mass)
        w1_basis = TreeBasis()
        starts = [positions.w1_seed(cfg, n, w1_basis)] + [
            positions._random_seed_positions(
                cfg, n, np.random.default_rng(np.random.SeedSequence([0, k])))
            for k in range(2)
        ]
        coupling = w1_basis.network.tree
        threaded = 0
        for Z in starts:
            net = _PlanNetwork(cfg, Z, 2.0)
            got = _threaded_start(coupling, net, Z)
            with monkeypatch.context() as patched:
                patched.setattr(transport, "_segment_offsets", _broadcast_segment_offsets)
                want = _threaded_start(coupling, net, Z)
            assert got == want
            threaded += sum(a < net.m for a in got[1][2 * size:])
        assert threaded > 0


def _per_entry_flows(net):
    """``support()`` one tree arc at a time: sorted by arc id, each key read
    from the arc's row and column."""
    _, pred, flow = net.tree
    arcs = sorted((a, f) for a, f in zip(pred, flow) if a < net.m and f > 0)
    return {(int(net._rows[a]), int(net._cols[a])): f for a, f in arcs}


class TestArrayHandOff:
    """The simplex hands its plan over as arrays, with the keys, order and
    types of a per-entry walk."""

    def test_flows_equal_the_per_entry_reference(self, rng):
        solves = 0
        for trial in range(16):
            dim = 1 + trial % 3
            if trial % 2:
                cfg = _awkward_instance(rng, dim, 4.0 ** (trial % 5 - 2), trial % 4 == 1,
                                        trial % 3 == 0)
            else:
                cfg = random_instance(rng, *(int(k) for k in rng.integers(1, 9, size=2)),
                                      dim=dim)
            n_free = 0 if trial < 3 else int(rng.integers(1, 16))
            q = (1.5, 2.0, 3.0)[trial % 3]
            unit = total_mass(cfg) / MASS_UNITS
            basis = TreeBasis()
            for Z in _moves(rng, rng.normal(size=(n_free, dim))):  # cold, then warm
                plan, cost = min_cost_plan(cfg, Z, q, basis)
                net = basis.network
                got, want = support_flows(net), _per_entry_flows(net)
                assert list(got.items()) == list(want.items())  # order included
                assert all(type(i) is type(j) is int and type(f) is float and f.is_integer()
                           for (i, j), f in got.items())
                assert list(plan.entries.items()) == [(key, f * unit) for key, f in want.items()]
                F = net.F
                assert cost.hex() == float(sum(f * unit * F[key] for key, f in want.items())).hex()
                solves += 1
        assert solves == 16 * 6

    def test_edge_kernel_arcs_equal_the_per_entry_build(self, rng):
        # arcs in sorted key order, ends by the plan's vertex ids, weights
        # the flows
        for trial in range(20):
            cfg = random_config(rng, dim=1 + trial % 3)
            n_free = int(rng.integers(0, 6))
            plan = random_feasible_plan(cfg, n_free, rng)
            if trial == 0:
                plan = TransportPlan(cfg.n_sources, cfg.n_sinks, n_free)
            kernel = positions._EdgeKernel(cfg, plan, 2.0)
            keys = sorted(plan.entries)
            ends = ([plan.row_to_vertex(i) for i, _ in keys]
                    + [plan.col_to_vertex(j) for _, j in keys])
            assert kernel.ends.dtype == np.intp and kernel.ends.tolist() == ends
            assert kernel.weights.tolist() == [plan.entries[k] for k in keys]
            assert kernel.m == len(keys)

    def test_each_start_refusal_names_its_fault(self, rng):
        cfg = random_instance(rng, 4, 3)
        Z = rng.uniform(-1, 1, size=(3, 2))
        net = _PlanNetwork(cfg, Z, 2.0)
        n, m = net.n, net.m
        supply = net._supply
        # the artificial tree: a sink's arc comes from the root with its demand
        artificial = ([n] * n, list(range(m, m + n)), [abs(s) for s in supply])

        def refused(edit, message):
            parent, pred, flow = (list(seq) for seq in artificial)
            edit(parent, pred, flow)
            with pytest.raises(ValueError, match=message):
                net.solve(start=(parent, pred, flow))

        sink = cfg.n_sources
        assert supply[sink] < 0

        def away_from_the_root(parent, pred, flow):
            flow[sink] = 0

        def another_nodes_artificial_arc(parent, pred, flow):
            pred[0] = m + 1

        def arc_not_to_the_parent(parent, pred, flow):
            # plan arc 0 joins source 0 and sink 0, not source 0 and the root
            pred[0] = 0

        refused(away_from_the_root, f"not strongly feasible at node {sink}")
        refused(another_nodes_artificial_arc, f"arc {m + 1} cannot join node 0 to its parent")
        refused(arc_not_to_the_parent, "arc 0 does not join node 0 to its parent")
        refused(lambda parent, pred, flow: flow.__setitem__(sink, -1),
                f"not strongly feasible at node {sink}")
        refused(lambda parent, pred, flow: pred.__setitem__(0, m + n),
                f"arc {m + n} cannot join node 0 to its parent")
        refused(lambda parent, pred, flow: flow.__setitem__(0, flow[0] + 1), "balance")
        refused(lambda parent, pred, flow: parent.pop(), f"start has {n - 1} nodes")
        # the artificial tree itself is a valid start
        parent, pred, flow = artificial
        net.solve(start=(parent, pred, flow))
        cold = _PlanNetwork(cfg, Z, 2.0)
        cold.solve()
        assert net.tree == cold.tree
