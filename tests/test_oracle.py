import importlib
import math
from collections import Counter
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchflow import (
    Atom,
    CostParams,
    SignedConfig,
    Terminals,
    Topology,
    graph_cost,
    oracle,
    random_instance,
    single_edge,
    solve_topology,
    sweep,
    y_instance,
)
from branchflow.measures import total_mass
from branchflow.oracle import EnumerationBudgetError, enumerate_topologies
from conftest import random_config

# branchflow.oracle is rebound to the function of that name by the package
oracle_module = importlib.import_module("branchflow.oracle")


def rotate(cfg: SignedConfig, theta: float, shift=(0.0, 0.0)) -> SignedConfig:
    R = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    move = lambda a: Atom(tuple(R @ np.array(a.position) + np.array(shift)), a.mass)
    return SignedConfig(
        sources=tuple(move(a) for a in cfg.sources),
        sinks=tuple(move(a) for a in cfg.sinks),
        dimension=2,
    )


# Y's terminals joined without a branch point: each source straight to the sink
V_SHAPE = Topology(3, 0, ((0, 2), (1, 2)), (1.0, 1.0))


def config(sources, sinks, dim=2):
    return SignedConfig(tuple(Atom(p, m) for p, m in sources),
                        tuple(Atom(p, m) for p, m in sinks), dim)


class TestClosedForms:
    def test_single_edge_is_direct(self):
        sol = oracle(single_edge(), 2.0)
        assert sol.cost == pytest.approx(1.0, abs=1e-12)
        assert sol.graph.n_edges == 1
        assert sol.topology.n_steiner == 0

    def test_y_instance_branches_at_unit_height(self):
        sol = oracle(y_instance(), 2.0)
        assert sol.cost == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-9)
        assert sol.steiner_positions.shape == (1, 2)
        assert sol.steiner_positions[0] == pytest.approx([0.0, 1.0], abs=1e-6)
        assert graph_cost(sol.graph, 2.0) == pytest.approx(sol.cost)

    def test_without_branch_points_the_v_shape_wins(self):
        _, cost = solve_topology(V_SHAPE, Terminals.of(y_instance()), 2.0)
        assert cost == pytest.approx(2.0 * math.sqrt(5.0), abs=1e-9)

    def test_branch_points_only_help(self):
        for q in (1.5, 2.0, 4.0):
            v = solve_topology(V_SHAPE, Terminals.of(y_instance()), q)[1]
            y = oracle(y_instance(), q).cost
            assert y <= v + 1e-12

    def test_disconnected_optimum_two_far_pairs(self):
        cfg = SignedConfig(
            sources=(Atom((0.0, 0.0), 1.0), Atom((100.0, 0.0), 1.0)),
            sinks=(Atom((0.0, 1.0), 1.0), Atom((100.0, 1.0), 1.0)),
            dimension=2,
        )
        sol = oracle(cfg, 2.0)
        assert sol.cost == pytest.approx(2.0, abs=1e-9)
        assert sol.graph.n_edges == 2  # two disjoint unit segments


class TestInvariances:
    def test_rigid_motions_preserve_cost(self, rng):
        for _ in range(3):
            cfg = random_config(rng, n_sources=2, n_sinks=2)
            base = oracle(cfg, 2.0).cost
            moved = oracle(rotate(cfg, theta=0.7, shift=(3.0, -1.0)), 2.0).cost
            assert moved == pytest.approx(base, rel=1e-9)

    def test_terminal_relabeling_preserves_cost(self, rng):
        cfg = random_config(rng, n_sources=2, n_sinks=2)
        flipped = SignedConfig(
            sources=tuple(reversed(cfg.sources)),
            sinks=tuple(reversed(cfg.sinks)),
            dimension=2,
        )
        assert oracle(flipped, 2.0).cost == pytest.approx(oracle(cfg, 2.0).cost, rel=1e-9)

    def test_uniform_scaling_scales_cost_linearly(self):
        cfg = y_instance()
        scaled = SignedConfig(
            sources=tuple(Atom(tuple(2.0 * c for c in a.position), a.mass) for a in cfg.sources),
            sinks=tuple(Atom(tuple(2.0 * c for c in a.position), a.mass) for a in cfg.sinks),
            dimension=2,
        )
        assert oracle(scaled, 2.0).cost == pytest.approx(2.0 * oracle(cfg, 2.0).cost, rel=1e-9)


class TestStationarity:
    def test_branch_point_force_balance(self, rng):
        # at an interior optimum the weighted unit vectors out of each branch
        # point sum to zero (first-order condition of the network cost)
        for trial in range(3):
            cfg = random_config(np.random.default_rng(300 + trial), n_sources=2, n_sinks=2)
            sol = oracle(cfg, 2.0)
            g = sol.graph
            for v in g.free_indices():
                force = np.zeros(2)
                for tail, head, weight in zip(g.tail, g.head, g.weight):
                    if tail == v or head == v:
                        other = head if tail == v else tail
                        d = g.positions[other] - g.positions[v]
                        norm = np.linalg.norm(d)
                        if norm > 1e-12:
                            force += weight ** 0.5 * d / norm
                assert np.linalg.norm(force) < 1e-5, f"unbalanced branch point {v}"


class TestEnumeration:
    def test_more_branch_points_never_increase_cost(self):
        cfg = y_instance()
        costs = [_pruefer_reference(cfg, 2.0, s)[0] for s in (0, 1, 2)]
        assert costs == sorted(costs, reverse=True)
        assert costs[0] == pytest.approx(2.0 * math.sqrt(5.0), abs=1e-9)
        assert oracle(cfg, 2.0).cost <= costs[-1] * (1.0 + 1e-12)

    def test_table_is_sorted_by_cost(self):
        sol = oracle(y_instance(), 2.0)
        costs = [c for _, c in sol.table]
        assert costs == sorted(costs)
        assert costs[0] == pytest.approx(sol.cost, abs=1e-9)

    def test_topology_count_y_instance(self):
        # 3 terminals: one full topology, the star on one branch point
        (t,) = enumerate_topologies(y_instance())
        assert (t.n_steiner, t.edges, t.flows) == (1, ((0, 3), (1, 3), (2, 3)), (1.0, 1.0, -2.0))
        # T terminals: (2T - 5)!! topologies, each with T - 2 branch points
        for shape, count in (((1, 1), 1), ((2, 2), 3), ((3, 2), 15), ((3, 3), 105),
                             ((4, 3), 945)):
            tops = enumerate_topologies(random_instance(np.random.default_rng(1), *shape))
            assert len(tops) == count
            T = sum(shape)
            assert len({t.edges for t in tops}) == count
            assert all(t.n_steiner == T - 2 and len(t.edges) == 2 * T - 3 for t in tops)

    def test_budget_guard_trips_on_large_enumerations(self):
        rng = np.random.default_rng(4)
        cfg = random_config(rng, n_sources=4, n_sinks=4)
        with pytest.raises(EnumerationBudgetError):
            enumerate_topologies(cfg)

    def test_flows_respect_conservation(self):
        for t in enumerate_topologies(y_instance()):
            # terminals 0,1 supply 1 each, terminal 2 absorbs 2
            net = {v: 0.0 for v in range(t.n_terminals + t.n_steiner)}
            for (a, b), f in zip(t.edges, t.flows):
                net[a] -= f
                net[b] += f
            assert net[0] == pytest.approx(-1.0)
            assert net[1] == pytest.approx(-1.0)
            assert net[2] == pytest.approx(2.0)
            for v in range(t.n_terminals, t.n_terminals + t.n_steiner):
                assert net[v] == pytest.approx(0.0, abs=1e-12)


class TestParity:
    """Answers recorded from the smoothed Weiszfeld solver this one replaced."""

    # (cost, realized branch points, realized roles, realized edges)
    PINS = [
        (3.0 * math.sqrt(2.0), 1, ("source", "source", "sink", "free"),
         [(0, 3), (1, 3), (3, 2)]),
        (8.033612147972326, 1, ("source", "source", "sink", "sink", "free"),
         [(0, 4), (1, 3), (4, 2), (4, 3)]),
        (4.425677660764054, 1, ("source", "source", "sink", "sink", "free"),
         [(0, 4), (1, 4), (2, 3), (4, 2)]),
        (1.2743737646377313, 0, ("source", "source", "sink", "sink"),
         [(0, 3), (1, 2)]),
        (2.1974402652370157, 1, ("source", "source", "sink", "sink", "free"),
         [(0, 4), (1, 2), (4, 2), (4, 3)]),
    ]

    def test_y_and_certify_q_instances(self):
        # the benchmark's certify_q instances alternate q = 1.5 and 3
        cases = [(y_instance(), 2.0)] + [
            (random_instance(np.random.default_rng([0, k]), 2, 2), 1.5 if k % 2 == 0 else 3.0)
            for k in range(4)
        ]
        for (cfg, q), (cost, n_steiner, roles, edges) in zip(cases, self.PINS):
            sol = oracle(cfg, q)
            assert sol.cost == pytest.approx(cost, rel=1e-12, abs=0.0)
            assert len(sol.steiner_positions) == n_steiner
            assert sol.graph.roles == roles
            assert list(zip(sol.graph.tail.tolist(), sol.graph.head.tolist())) == edges


def _unpruned_pruefer_trees(n_labels):
    """Every labeled tree on n_labels vertices, by the smallest-leaf Pruefer
    decode, in sequence order."""
    if n_labels == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n_labels), repeat=n_labels - 2):
        degree = [1] * n_labels
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = degree.index(1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        edges.append(tuple(i for i in range(n_labels) if degree[i] == 1))
        yield edges


def _pruefer_reference(cfg, q, s_max=None):
    """(cost, topology, branch positions) of the cheapest solve over every
    labeled tree on the terminals plus s <= s_max (default T - 2) branch
    labels, its zero-flow edges dropped, skipping forests that leave a used
    branch label below degree 3: the enumeration full topologies replaced.

    A tree with a branch label as a leaf is skipped before its flows are
    derived: that leaf's edge carries no flow, and the forest left is one
    with fewer branch labels.  Forests equal up to a branch relabeling are
    solved once.
    """
    terminals = Terminals.of(cfg)
    T = len(terminals.supply)
    zero_tol = 1e-12 * total_mass(cfg)
    seen = set()
    best = None
    for s in range(T - 1 if s_max is None else s_max + 1):
        L = T + s
        for edges in _unpruned_pruefer_trees(L):
            degree = Counter(x for e in edges for x in e)
            if any(degree[b] < 2 for b in range(T, L)):
                continue
            flows = oracle_module._tree_flows(edges, terminals.supply, L)
            kept = sorted(((u, v), f) if u < v else ((v, u), -f)
                          for (u, v), f in zip(edges, flows) if abs(f) > zero_tol)
            used = Counter(x for (u, v), _ in kept for x in (u, v))
            branch = sorted(x for x in used if x >= T)
            if any(used[x] < 3 for x in branch):
                continue
            relabel = {x: x for x in range(T)}
            relabel.update({x: T + i for i, x in enumerate(branch)})
            pairs = tuple((relabel[u], relabel[v]) for (u, v), _ in kept)
            key = min(
                tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in pairs))
                for p in (list(range(T)) + list(perm)
                          for perm in permutations(range(T, T + len(branch))))
            )
            if key in seen:
                continue
            seen.add(key)
            t = Topology(T, len(branch), pairs, tuple(float(f) for _, f in kept))
            S, cost = solve_topology(t, terminals, q)
            if best is None or cost < best[0]:
                best = (cost, t, S)
    return best


def _same_up_to_free_labels(g1, g2):
    if g1.roles != g2.roles:
        return False
    free = g1.free_indices()
    arcs = set(zip(g2.tail.tolist(), g2.head.tolist()))
    for perm in permutations(free):
        label = dict(zip(free, perm))
        if {(label.get(t, t), label.get(h, h))
                for t, h in zip(g1.tail.tolist(), g1.head.tolist())} == arcs:
            return True
    return False


# the benchmark's certify_q instances alternate q = 1.5 and 3
REFERENCE_CASES = {
    "y": (y_instance(), 2.0),
    "1+3": (random_instance(np.random.default_rng([9, 0]), 1, 3), 2.0),
    **{f"certify_q-{k}": (random_instance(np.random.default_rng([0, k]), 2, 2),
                          1.5 if k % 2 == 0 else 3.0) for k in range(4)},
    **{f"{a}+{b}-d{d}": (random_instance(np.random.default_rng([21, a, b, d]), a, b, dim=d), q)
       for a, b in ((2, 2), (1, 3), (2, 1))
       for d, q in ((1, 1.3), (2, 2.5), (3, 3.7))},
    "3+2": (random_instance(np.random.default_rng([13, 3]), 3, 2), 2.5),
}


class TestPrueferReference:
    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_full_topologies_match_the_pruefer_enumeration(self, case):
        cfg, q = REFERENCE_CASES[case]
        cost, topology, S = _pruefer_reference(cfg, q)
        sol = oracle(cfg, q)
        assert sol.cost == pytest.approx(cost, rel=1e-12, abs=0.0)
        assert _same_up_to_free_labels(
            oracle_module._realize(topology, Terminals.of(cfg), S), sol.graph)


class TestRealization:
    def test_distinct_terminals_never_merge(self):
        # sink 0 sits 1e-10 from source 0, closer than the contraction
        # tolerance, through a collapsed branch point
        cfg = config([((0.0, 0.0), 1.0), ((1.0, 1.0), 1.0)],
                     [((1e-10, 0.0), 1.0), ((2.0, 0.0), 1.0)])
        for scale in (1.0, 1.0 / 16.0):
            sol = oracle(_scaled(cfg, scale), 2.0)
            assert sol.graph.roles == ("source", "source", "sink", "sink")
            g = sol.graph
            edges = dict(zip(zip(g.tail.tolist(), g.head.tolist()), g.length.tolist()))
            assert edges[(0, 2)] == pytest.approx(1e-10 * scale, rel=1e-9)
            assert sol.cost == pytest.approx(scale * (math.sqrt(2.0) + 1e-10), rel=1e-15)

    def test_balanced_collapse_leaves_no_branch_point(self):
        # sources (0,0) and (2,1), sinks (0,0) and (3,-1): the branch point
        # meets source (2,1) only in the limit of the smoothing
        cfg = config([((0.0, 0.0), 1.0), ((1.0, 0.0), 0.0), ((2.0, 1.0), 2.0)],
                     [((0.0, 0.0), 1.5), ((3.0, -1.0), 1.5)])
        sol = oracle(cfg, 2.0)
        assert sol.graph.roles == ("source", "source", "sink")
        assert sol.graph.n_edges == 2

    def test_three_far_pairs(self):
        cfg = config([((0.0, 0.0), 1.0), ((100.0, 0.0), 1.0), ((0.0, 100.0), 1.0)],
                     [((0.0, 1.0), 1.0), ((100.0, 1.0), 1.0), ((0.0, 101.0), 1.0)])
        sol = oracle(cfg, 2.0)
        assert len(sol.table) == 105
        assert sol.cost == pytest.approx(3.0, abs=1e-9)
        assert sol.graph.n_edges == 3 and not sol.graph.free_indices()

    def test_three_plus_two_sweep(self):
        cfg = random_instance(np.random.default_rng([13, 3]), 3, 2)
        sol = oracle(cfg, 2.5)
        indeg, outdeg = sol.graph.degrees()
        assert all(indeg[v] + outdeg[v] >= 3 for v in sol.graph.free_indices())
        (record,), _ = sweep(cfg, 2.5, [8], CostParams(q=2.5, restarts=2), oracle_solution=sol)
        assert record.lower <= record.rescaled


class TestNewtonLevels:
    @pytest.mark.parametrize("cfg, q", [
        # in one dimension two branch points collapse between terminal arcs
        # of equal weight, so the cost is flat along one direction
        (random_instance(np.random.default_rng([11, 0]), 2, 2, dim=1), 3.415),
        # 3+3 topologies with zero-flow edges, whose branch points are left
        # with two flow edges of equal flow: solved on the flow forest
        (random_instance(np.random.default_rng([13, 0]), 3, 3), 2.5),
    ], ids=["flat-1d", "3+3"])
    def test_every_level_converges_below_the_cap(self, monkeypatch, cfg, q):
        # every smoothing level of every topology must stop on its own
        # tests, not at the cap
        levels = []
        real = oracle_module._newton

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            levels.append(out)
            return out

        monkeypatch.setattr(oracle_module, "_newton", counting)
        oracle(cfg, q)
        assert levels
        for _, _, iters, converged in levels:
            assert iters < oracle_module.NEWTON_ITERS and converged


def _flow_neighbours(topology, v):
    return [b if a == v else a
            for (a, b), f in zip(topology.edges, topology.flows) if f and v in (a, b)]


def _assert_spliced_on_segments(topology, P, diam):
    """A branch point left with two flow edges by a zero-flow edge lies on
    the segment between its two flow neighbours (P: every label's point)."""
    for v in range(topology.n_terminals, topology.n_terminals + topology.n_steiner):
        ends = _flow_neighbours(topology, v)
        if len(ends) == 2:
            a, b = P[ends]
            detour = np.linalg.norm(P[v] - a) + np.linalg.norm(P[v] - b)
            assert detour <= np.linalg.norm(a - b) + 1e-12 * diam, f"branch point {v}"


#: the oracle costs of random_instance(default_rng([7, k]), 3, 3) at q = 2.5
#: when each topology's branch points with two flow edges were spliced out
#: one at a time, each placed midway between its neighbours
THREE_THREE_COSTS = (
    3.1952161148440408, 4.984774590501439, 3.759242135844326, 4.893809116536799,
    3.5348370551914456, 3.806681190877208, 2.792769964736373, 3.105362812882265,
    5.022230411133907, 2.9628622478050453, 3.297516334296787, 4.861137406452288,
)


def test_chain_contraction_keeps_the_oracle_costs():
    for k, cost in enumerate(THREE_THREE_COSTS):
        cfg = random_instance(np.random.default_rng([7, k]), 3, 3)
        assert oracle(cfg, 2.5).cost == pytest.approx(cost, rel=1e-12, abs=0.0)
    assert oracle(y_instance(), 2.0).cost == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-9)


def test_spliced_chains_lie_on_their_segments():
    # on this 3+3 instance some topologies join two branch points that each
    # keep two flow edges: the chain terminal - b - b' - terminal is one arc
    cfg = random_instance(np.random.default_rng([7, 1]), 3, 3)
    terminals = Terminals.of(cfg)
    chains = 0
    for t in enumerate_topologies(cfg):
        spliced = {v for v in range(t.n_terminals, t.n_terminals + t.n_steiner)
                   if len(_flow_neighbours(t, v)) == 2}
        if not any(f and u in spliced and v in spliced
                   for (u, v), f in zip(t.edges, t.flows)):
            continue
        chains += 1
        S, _ = solve_topology(t, terminals, 2.5)
        _assert_spliced_on_segments(t, np.vstack([terminals.positions, S]), terminals.diameter)
    assert chains > 0


def _network_cost(topology, terminals, S, q):
    P = np.vstack([terminals.positions, S])
    return sum(abs(f) ** (1.0 / q) * float(np.linalg.norm(P[u] - P[v]))
               for (u, v), f in zip(topology.edges, topology.flows))


def _scaled(cfg, s):
    move = lambda atoms: tuple(Atom(tuple(s * c for c in a.position), a.mass) for a in atoms)
    return SignedConfig(move(cfg.sources), move(cfg.sinks), cfg.dimension)


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(2, 2), (1, 3)]),
    dim=st.sampled_from([1, 2, 3]),
    q=st.floats(1.0, 4.0, exclude_min=True),
)
# in one dimension near q = 1 topologies tie to the last bit: the choice
# must still not depend on the coordinate scale
@example(seed=17, shape=(2, 2), dim=1, q=1.0000000000000002)
# two terminals 5e-6 apart, within the contraction tolerance: they must
# stay apart at every scale
@example(seed=370378, shape=(1, 3), dim=1, q=2.0)
# seed 2 draws sources of mass 6 and 2 and sinks of mass 2 and 6: the
# topology that pairs each source with the sink of its mass has a zero-flow
# edge, and both its branch points are spliced
@example(seed=2, shape=(2, 2), dim=2, q=2.5)
def test_solve_topology_properties(seed, shape, dim, q):
    cfg = random_instance(np.random.default_rng(seed), *shape, dim=dim)
    terminals = Terminals.of(cfg)
    diam = terminals.diameter
    rng = np.random.default_rng(seed)
    for t in enumerate_topologies(cfg):
        S, cost = solve_topology(t, terminals, q)
        assert cost == pytest.approx(_network_cost(t, terminals, S, q), rel=1e-13)
        # convex: no perturbation of the branch points is cheaper
        for _ in range(20):
            size = diam * 10.0 ** rng.uniform(-6.0, -1.0)
            moved = _network_cost(t, terminals, S + size * rng.standard_normal(S.shape), q)
            assert cost <= moved + 1e-12 * cost
        # nor is collapsing one onto a neighbor exactly, beyond the smoothing
        # bound: the minimizer at radius eps costs at most sum(w) * eps more
        slack = 2e-12 * diam * sum(abs(f) ** (1.0 / q) for f in t.flows)
        P = np.vstack([terminals.positions, S])
        for a, b in t.edges:
            for v, other in ((a, b), (b, a)):
                if v >= t.n_terminals:
                    snapped = S.copy()
                    snapped[v - t.n_terminals] = P[other]
                    assert cost <= _network_cost(t, terminals, snapped, q) + slack
        # force balance at branch points whose arcs all have positive length
        for v in range(t.n_terminals, t.n_terminals + t.n_steiner):
            force = np.zeros(dim)
            for (a, b), f in zip(t.edges, t.flows):
                if v in (a, b):
                    d = P[b if a == v else a] - P[v]
                    if np.linalg.norm(d) <= 1e-9 * max(1.0, diam):
                        break
                    force += abs(f) ** (1.0 / q) * d / np.linalg.norm(d)
            else:
                assert np.linalg.norm(force) < 1e-5, f"unbalanced branch point {v}"
        _assert_spliced_on_segments(t, P, diam)
        S2, cost2 = solve_topology(t, terminals, q)
        assert S2.tobytes() == S.tobytes() and cost2.hex() == cost.hex()
    # the benchmark's coordinate scales pick the same topology
    base = oracle(cfg, q)
    for k in (-2, -1, 1, 2):
        sol = oracle(_scaled(cfg, 4.0 ** k), q)
        assert sol.topology == base.topology
        assert sol.cost == pytest.approx(4.0 ** k * base.cost, rel=1e-12)
