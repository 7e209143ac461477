import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment, linprog

from branchflow import (
    Atom,
    SignedConfig,
    TransportPlan,
    min_cost_plan,
    random_instance,
    single_edge,
    wasserstein_q,
)
from branchflow._mcf import MinCostFlowNetwork
from branchflow.transport import (
    MASS_UNITS,
    _candidate_arcs,
    _solve_flow_network,
    as_positions,
    check_plan,
    cost_matrix,
    integer_mass_units,
    plan_cost,
    wasserstein_coupling,
)
from conftest import enumerate_basic_optimum, random_config


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


def _plan_network_args(cfg, Z, q=2.0):
    """The arguments of ``_solve_flow_network`` for the plan step at Z."""
    return (
        cost_matrix(cfg, Z, q), cfg.n_sources, cfg.n_sinks, len(Z),
        integer_mass_units(cfg.source_masses()), integer_mass_units(cfg.sink_masses()),
    )


def _assert_flows_match_per_arc_reference(cfg, Z):
    args = _plan_network_args(cfg, Z)
    got = _solve_flow_network(*args)
    want = _reference_flow_dict(*args)
    assert list(got.items()) == list(want.items())  # order included
    assert all(type(f) is int for f in got.values())


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
    res = linprog(np.array([F[i, j] for i, j in arcs]), A_eq=A, b_eq=b, method="highs")
    assert res.success
    return float(res.fun)


class TestMinCostFlowNetwork:
    def test_add_arcs_layout(self, rng):
        arcs = [
            (int(u), int(v), int(c), 0.5 * k)
            for k, (u, v, c) in enumerate(rng.integers(0, 6, size=(20, 3)))
        ]
        net = MinCostFlowNetwork(6)
        assert net.add_arcs(*zip(*arcs[:5])) == 0
        assert net.add_arcs(*zip(*arcs[5:])) == 10
        assert (net.to, net.cap, net.cost, net.adj) == _per_arc_layout(6, arcs)
        # the network of the plan step: s* -> sources, sinks -> t*, then a
        # complete row-major bipartite arc set without free self-loops
        n_src, n_snk, n_free = 3, 2, 4
        terminal, plan_arcs = _flow_network_arcs(
            rng.uniform(0.0, 5.0, size=(n_src + n_free, n_snk + n_free)),
            n_src, n_snk, n_free, np.array([3, 1, 4]), np.array([5, 3]),
        )
        net = MinCostFlowNetwork(n_src + n_snk + n_free + 2)
        assert net.add_arcs(*(np.array(c) for c in zip(*terminal))) == 0
        assert net.add_arcs(*(np.array(c) for c in zip(*plan_arcs))) == 2 * len(terminal)
        assert len(net.to) == 2 * len(terminal + plan_arcs)
        assert (net.to, net.cap, net.cost, net.adj) == _per_arc_layout(
            net.n, terminal + plan_arcs
        )
        assert all(type(x) is int for x in net.to + net.cap + sum(net.adj, []))
        assert all(type(x) is float for x in net.cost)


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


def _reference_flow_dict(F, n_src, n_snk, n_free, src_units, snk_units):
    """The plan step on a per-arc network, read out by a comprehension over
    every plan arc: positive flows in row-major key order."""
    terminal, plan_arcs = _flow_network_arcs(F, n_src, n_snk, n_free, src_units, snk_units)
    net = MinCostFlowNetwork(n_src + n_snk + n_free + 2)
    net.to, net.cap, net.cost, net.adj = _per_arc_layout(net.n, terminal + plan_arcs)
    assert net.solve(net.n - 2, net.n - 1) == MASS_UNITS
    keys = [
        (i, j)
        for i in range(n_src + n_free)
        for j in range(n_snk + n_free)
        if not (i >= n_src and j >= n_snk and i - n_src == j - n_snk)
    ]
    return {
        key: f
        for key, f in zip(keys, net.flows(2 * len(terminal), len(plan_arcs)))
        if f > 0
    }


@pytest.fixture
def solved_networks(monkeypatch):
    """Every network MinCostFlowNetwork.solve runs on, in call order."""
    nets = []
    solve = MinCostFlowNetwork.solve

    def recording(self, s, t, *args):
        nets.append(self)
        return solve(self, s, t, *args)

    monkeypatch.setattr(MinCostFlowNetwork, "solve", recording)
    return nets


class TestPricingLoop:
    """The plan step solves on candidate arcs and prices the omitted ones."""

    def test_candidates_are_the_cheapest_per_row_and_column(self, rng):
        # integer costs with many ties, which go to the lower index
        F = rng.integers(0, 5, size=(14, 12)).astype(float)
        allowed = np.ones(F.shape, dtype=bool)
        allowed[np.arange(4, 14), np.arange(2, 12)] = False  # free self-loops
        want = np.zeros(F.shape, dtype=bool)
        for i in range(14):
            for j in sorted((j for j in range(12) if allowed[i, j]), key=lambda j: F[i, j])[:8]:
                want[i, j] = True
        for j in range(12):
            for i in sorted((i for i in range(14) if allowed[i, j]), key=lambda i: F[i, j])[:8]:
                want[i, j] = True
        assert (_candidate_arcs(F, allowed) == want).all()
        # a line with at most 8 allowed pairs keeps all of them
        assert (_candidate_arcs(F[:9, :6], allowed[:9, :6]) == allowed[:9, :6]).all()

    def test_matches_full_arc_solve_on_wide_networks(self, rng, solved_networks):
        rounds = []
        for _ in range(8):
            n_src, n_snk = (int(k) for k in rng.integers(20, 41, size=2))
            cfg = random_instance(rng, n_src, n_snk, total_mass=64)
            Z = rng.uniform(-1, 1, size=(int(rng.integers(8, 17)), 2))
            args = _plan_network_args(cfg, Z)
            solved_networks.clear()
            got = _solve_flow_network(*args)
            rounds.append(len(solved_networks))
            assert list(got.items()) == list(_reference_flow_dict(*args).items())
        assert max(rounds) > 1  # some omitted arc priced negative

    def test_widens_when_candidates_cannot_carry_the_flow(self, solved_networks):
        # sink 8 and a cluster of nine relays sit far from everything else:
        # the sink's and the relays' cheapest rows are relays, and every
        # source's cheapest columns are the eight near sinks, so no
        # candidate path reaches sink 8
        near = [(0.1 * k, 0.0) for k in range(8)]
        cfg = SignedConfig(
            sources=tuple(Atom((0.1 * k, 0.5), 1.0) for k in range(9)),
            sinks=tuple(Atom(p, 1.0) for p in near) + (Atom((50.0, 0.0), 1.0),),
            dimension=2,
        )
        Z = np.array([[50.0 + 0.01 * k, 1.0] for k in range(9)])
        args = _plan_network_args(cfg, Z)
        want = _reference_flow_dict(*args)
        solved_networks.clear()
        assert list(_solve_flow_network(*args).items()) == list(want.items())
        assert len(solved_networks) == 2
        first, last = solved_networks
        assert sum(first.flows(0, 9)) < MASS_UNITS  # the candidates fall short
        # 18 terminal arcs, then every pair of the 18 x 18 matrix but the
        # 9 free self-loops
        assert len(last.to) // 2 == 18 + 18 * 18 - 9

    def test_tie_heavy_inputs_reach_the_optimum(self, rng):
        # lattice points: coincident relays, relays on terminals, duplicate
        # terminals, and many equal costs
        for q in (2.0, 1.5):
            for _ in range(4):
                pts = rng.integers(0, 4, size=(12, 2)).astype(float)
                cfg = SignedConfig(
                    sources=tuple(Atom(tuple(pts[k % 6]), 2.0) for k in range(12)),
                    sinks=tuple(Atom(tuple(pts[6 + k % 6]), 3.0) for k in range(8)),
                    dimension=2,
                )
                Z = np.vstack([pts[rng.integers(0, 12, size=6)], np.repeat(pts[:2], 3, axis=0)])
                plan, cost = min_cost_plan(cfg, Z, q)
                assert check_plan(plan, cfg) == []
                args = _plan_network_args(cfg, Z, q)
                unit = 24.0 / MASS_UNITS
                ref = sum(f * unit * args[0][key] for key, f in _reference_flow_dict(*args).items())
                assert abs(cost - ref) <= 1e-12 * ref
                again, cost2 = min_cost_plan(cfg, Z, q)
                assert cost2.hex() == cost.hex()
                assert list(again.entries.items()) == list(plan.entries.items())

    def test_potentials_certify_every_arc(self, rng, solved_networks):
        for _ in range(6):
            cfg = random_instance(rng, 24, 24, total_mass=32)
            Z = rng.uniform(-1, 1, size=(12, 2))
            args = _plan_network_args(cfg, Z)
            solved_networks.clear()
            got = _solve_flow_network(*args)
            F, n_src, n_snk, n_free = args[:4]
            tol = 1e-12 * F.max()
            for net in solved_networks:
                to, cap, cost, pi = net.to, net.cap, net.cost, net.pi
                worst = min(
                    cost[a] + pi[to[a ^ 1]] - pi[to[a]] for a in range(len(to)) if cap[a] > 0
                )
                assert worst >= -tol
            # the last potentials also price every arc of the complete network
            pi = np.array(solved_networks[-1].pi)
            row_node = np.r_[np.arange(n_src), n_src + n_snk + np.arange(n_free)]
            rc = F + pi[row_node][:, None] - pi[n_src:n_src + n_snk + n_free]
            rc[n_src + np.arange(n_free), n_snk + np.arange(n_free)] = 0.0
            assert rc.min() >= -tol
            assert all(abs(rc[key]) <= tol for key in got)  # complementary slackness


class TestTransportPlan:
    def test_vertex_indexing_convention(self):
        plan = TransportPlan(n_sources=2, n_sinks=3, n_free=2)
        assert [plan.row_to_vertex(i) for i in range(4)] == [0, 1, 5, 6]
        assert [plan.col_to_vertex(j) for j in range(5)] == [2, 3, 4, 5, 6]
        roles = [plan.vertex_role(v) for v in range(7)]
        assert roles == ["source", "source", "sink", "sink", "sink", "free", "free"]

    def test_from_triplets_accumulates_and_drops_zero(self):
        plan = TransportPlan.from_triplets(1, 1, 1, [(0, 0, 0.25), (0, 0, 0.25), (1, 1, 0.0)])
        assert plan.entries == {(0, 0): 0.5}

    def test_check_plan_reports_violations(self):
        cfg = single_edge()
        bad = TransportPlan(1, 1, 1, {(0, 0): 0.5})  # ships half the mass
        msgs = check_plan(bad, cfg)
        assert any("source 0" in m for m in msgs) and any("sink 0" in m for m in msgs)

    def test_check_plan_flags_self_loop(self):
        cfg = single_edge()
        bad = TransportPlan(1, 1, 2, {(0, 0): 1.0, (1, 1): 0.3})
        assert any("self-loop" in m for m in check_plan(bad, cfg))


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


def test_random_instance_masses_are_integer_compositions(rng):
    for _ in range(10):
        cfg = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        src = cfg.source_masses()
        snk = cfg.sink_masses()
        assert src.sum() == snk.sum() == 8.0
        assert all(m == int(m) and m >= 1 for m in np.concatenate([src, snk]))
