import networkx as nx
import numpy as np
import pytest

from branchflow import (
    TransportPlan,
    min_cost_plan,
    plan_to_graph,
    reduce_graph,
    regularize,
    single_edge,
)
from branchflow.graphs import is_forest
from branchflow.regularize import (
    _is_forest,
    cancel_flat_cycles,
    prune_zeros,
)
from branchflow.transport import check_plan, plan_cost, zero_flow_threshold
from conftest import plan_of, random_config, random_feasible_plan, random_positions


def relay_arc(cfg, a: int, b: int) -> tuple[int, int]:
    """Matrix key for flow from free atom a to free atom b."""
    return (cfg.n_sources + a, cfg.n_sinks + b)


def nx_forest(plan: TransportPlan, tol: float = 0.0) -> bool:
    """Reference: whether the support, as an undirected multigraph, is a forest.

    Entries at or below ``tol`` are dropped when ``tol > 0``; at ``tol=0``
    every stored entry is an edge, as in ``_is_forest``.  A self-loop and
    a pair joined twice are cycles.
    """
    g = nx.MultiGraph()
    g.add_nodes_from(range(plan.n_vertices))
    g.add_edges_from(
        (plan.row_to_vertex(i), plan.col_to_vertex(j))
        for (i, j), flow in plan.entries.items()
        if tol == 0 or flow > tol
    )
    return nx.is_forest(g)


def refused(cfg, plan: TransportPlan, Z=None) -> bool:
    """Whether the one structural check, ``reduce_graph`` on the plan's
    embedding, refuses the plan; it must name the forest when it does."""
    if Z is None:
        Z = np.linspace(0.1, 0.9, plan.n_free)[:, None] * np.ones(cfg.dimension)
    g = plan_to_graph(cfg, Z, plan)
    try:
        reduce_graph(g)
    except ValueError as exc:
        assert "forest" in str(exc)
        return True
    return False


class TestIsRegular:
    """Regularity is the forest test.

    A plan is regular when its positive support is a forest.
    ``plan_to_graph`` embeds any plan, and ``reduce_graph`` refuses every
    cycle of the support, free self-loops, directed cycles and parallel
    paths included.  ``_is_forest`` counts every stored entry, and
    ``prune_zeros`` drops those at or below the zero-flow threshold.
    """

    def test_clean_chain_is_a_forest(self):
        cfg = single_edge()
        plan = plan_of(1, 1, 2, {(0, 1): 1.0, relay_arc(cfg, 0, 1): 1.0, (2, 0): 1.0})
        assert _is_forest(plan) and not refused(cfg, plan)

    def test_detects_self_loop(self):
        cfg = single_edge()
        plan = plan_of(1, 1, 1, {(0, 0): 1.0, (1, 1): 0.2})
        assert not _is_forest(plan) and refused(cfg, plan)

    def test_detects_directed_cycle(self):
        cfg = single_edge()
        plan = plan_of(
            1, 1, 2,
            {(0, 0): 1.0, relay_arc(cfg, 0, 1): 0.3, relay_arc(cfg, 1, 0): 0.3},
        )
        assert not _is_forest(plan) and refused(cfg, plan)

    def test_detects_parallel_paths(self):
        cfg = single_edge()
        plan = plan_of(
            1, 1, 1,
            {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5},  # direct arc and routed path
        )
        assert not _is_forest(plan) and refused(cfg, plan)
        # two routes through relays 0 and 1 that rejoin at relay 2
        plan = plan_of(
            1, 1, 3, {(0, 1): 0.5, (0, 2): 0.5, (1, 3): 0.5, (2, 3): 0.5, (3, 0): 1.0}
        )
        assert not _is_forest(plan) and refused(cfg, plan)

    def test_tolerance_hides_dust_flow(self):
        # plan_to_graph embeds every positive flow, so dust is pruned first
        cfg = single_edge()
        plan = plan_of(1, 1, 1, {(0, 0): 1.0, (1, 1): 1e-15})
        assert not _is_forest(plan) and refused(cfg, plan)
        pruned = prune_zeros(plan, cfg)
        assert _is_forest(pruned) and not refused(cfg, pruned)

    def test_matches_networkx_on_random_and_optimal_plans(self, rng):
        seen = set()
        for _ in range(40):
            cfg = random_config(rng)
            n = int(rng.integers(0, 7))
            Z = random_positions(cfg, n, rng)
            for plan in (random_feasible_plan(cfg, n, rng), min_cost_plan(cfg, Z, 2.0)[0]):
                tol = zero_flow_threshold(cfg)
                assert _is_forest(plan) == nx_forest(plan)
                forest = nx_forest(plan, tol)
                assert _is_forest(prune_zeros(plan, cfg)) == forest
                assert refused(cfg, plan, Z) == (not forest)
                seen.add(forest)
        assert seen == {True, False}

    def test_matches_networkx_on_forest_with_two_cycle(self):
        from branchflow import y_instance

        cfg = y_instance()
        # both sources feed free 0, which relays through free 1 to the sink
        forest = plan_of(
            2, 1, 2, {(0, 1): 1.0, (1, 1): 1.0, relay_arc(cfg, 0, 1): 2.0, (3, 0): 2.0}
        )
        assert _is_forest(forest) and nx_forest(forest) and not refused(cfg, forest)
        entries = dict(forest.entries)
        entries[relay_arc(cfg, 0, 1)] += 0.3
        entries[relay_arc(cfg, 1, 0)] = 0.3
        looped = plan_of(2, 1, 2, entries)
        assert not _is_forest(looped) and not nx_forest(looped) and refused(cfg, looped)

    def test_zero_flow_entry_counts_at_zero_tolerance(self):
        # a zero-flow detour through the relay parallels the direct arc
        cfg = single_edge()
        plan = plan_of(1, 1, 1, {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0})
        assert not _is_forest(plan) and not nx_forest(plan)
        assert _is_forest(prune_zeros(plan, cfg)) and nx_forest(plan, 1e-12)
        assert not refused(cfg, plan)

    def test_deep_diamond_ladder_needs_no_path_budget(self):
        # source -> sink 0 directly, and source -> 22 layers of two relays,
        # each joined to both of the next, -> sink 1: 2^22 paths to sink 1
        from branchflow import Atom, SignedConfig

        layers = 22
        arcs = {(0, 0): 1.0, (0, 2): 0.5, (0, 3): 0.5}
        for k in range(layers - 1):
            for a in (2 * k, 2 * k + 1):
                for b in (2 * k + 2, 2 * k + 3):
                    arcs[(1 + a, 2 + b)] = 0.25
        for a in (2 * layers - 2, 2 * layers - 1):
            arcs[(1 + a, 1)] = 0.5
        plan = plan_of(1, 2, 2 * layers, arcs)
        cfg = SignedConfig(
            sources=(Atom((0.0, 0.0), 2.0),),
            sinks=(Atom((1.0, 0.0), 1.0), Atom((1.0, 1.0), 1.0)),
            dimension=2,
        )
        assert not _is_forest(plan) and refused(cfg, plan)


class TestCancelCycles:
    def test_removes_injected_two_cycle(self):
        cfg = single_edge()
        plan = plan_of(
            1, 1, 2,
            {(0, 0): 1.0, relay_arc(cfg, 0, 1): 0.3, relay_arc(cfg, 1, 0): 0.3},
        )
        Z = np.array([[0.3, 0.2], [0.7, -0.1]])
        out = regularize(plan, cfg, Z, 2.0)
        assert _is_forest(out)
        assert out.entries == {(0, 0): 1.0}
        assert check_plan(out, cfg) == []

    def test_partial_cancellation_keeps_chain_flow(self):
        cfg = single_edge()
        # 0.4 units circulate on top of the 1.0-unit chain; only they cancel
        plan = plan_of(
            1, 1, 2,
            {
                (0, 1): 1.0,                 # source -> free 0
                relay_arc(cfg, 0, 1): 1.4,   # chain flow plus circulation
                (2, 0): 1.0,                 # free 1 -> sink
                relay_arc(cfg, 1, 0): 0.4,   # back edge closing the cycle
            },
        )
        Z = np.array([[0.3, 0.2], [0.7, -0.1]])
        out = regularize(plan, cfg, Z, 2.0)
        assert check_plan(out, cfg) == []
        assert _is_forest(out)
        assert out.entries[relay_arc(cfg, 0, 1)] == pytest.approx(1.0)
        assert relay_arc(cfg, 1, 0) not in out.entries

    def test_cost_never_increases(self, rng):
        for _ in range(20):
            cfg = random_config(rng)
            n = int(rng.integers(2, 6))
            plan = random_feasible_plan(cfg, n, rng, cycle_rate=1.0)
            Z = random_positions(cfg, n, rng)
            before = plan_cost(cfg, Z, plan, 2.0)
            out = regularize(plan, cfg, Z, 2.0)
            assert plan_cost(cfg, Z, out, 2.0) <= before + 1e-9 * max(1.0, before)


class TestMergeParallelPaths:
    def test_merges_onto_cheaper_route(self):
        cfg = single_edge()
        Z = np.array([[0.5, 0.8]])  # relay far off the segment: direct is cheaper
        plan = plan_of(1, 1, 1, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5})
        out = regularize(plan, cfg, Z, 2.0)
        assert out.entries == {(0, 0): pytest.approx(1.0)}
        assert _is_forest(out)

    def test_keeps_cheaper_routed_path(self):
        cfg = single_edge()
        Z = np.array([[0.5, 0.0]])  # relay on the segment: routing wins for q > 1
        plan = plan_of(1, 1, 1, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5})
        out = regularize(plan, cfg, Z, 2.0)
        assert out.entries == {
            (0, 1): pytest.approx(1.0),
            (1, 0): pytest.approx(1.0),
        }


class TestCancelFlatCycles:
    def test_undirected_circulation_is_removed(self):
        # two sources, two sinks, crossed shipments forming an undirected cycle
        from branchflow import Atom, SignedConfig

        cfg = SignedConfig(
            sources=(Atom((0.0, 0.0), 1.0), Atom((0.0, 1.0), 1.0)),
            sinks=(Atom((1.0, 0.0), 1.0), Atom((1.0, 1.0), 1.0)),
            dimension=2,
        )
        plan = plan_of(
            2, 2, 0, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}
        )
        Z = np.zeros((0, 2))
        out = cancel_flat_cycles(plan, cfg, Z, 2.0)
        assert check_plan(out, cfg) == []
        assert len(out.entries) <= 3  # the 4-arc circulation cannot survive
        assert plan_cost(cfg, Z, out, 2.0) <= plan_cost(cfg, Z, plan, 2.0) + 1e-12


class TestRegularizePipeline:
    def test_output_is_a_forest_feasible_and_no_pricier(self, rng):
        for _ in range(40):
            cfg = random_config(rng)
            n = int(rng.integers(0, 9))
            plan = random_feasible_plan(cfg, n, rng)
            Z = random_positions(cfg, n, rng)
            before = plan_cost(cfg, Z, plan, 2.0)
            out = regularize(plan, cfg, Z, 2.0)
            assert check_plan(out, cfg) == [], "feasibility lost"
            assert _is_forest(prune_zeros(out, cfg))
            assert is_forest(plan_to_graph(cfg, Z, out))
            after = plan_cost(cfg, Z, out, 2.0)
            assert after <= before + 1e-9 * max(1.0, before)

    def test_equals_one_cancellation_pass_exactly(self, rng):
        # the forest fast path changes nothing: entries, their values and
        # their order
        for k in range(40):
            cfg = random_config(rng)
            n = int(rng.integers(0, 7))
            Z = random_positions(cfg, n, rng)
            if k % 2:
                plan = random_feasible_plan(cfg, n, rng)
            else:
                plan, _ = min_cost_plan(cfg, Z, 2.0)
            cancelled = cancel_flat_cycles(prune_zeros(plan, cfg), cfg, Z, 2.0)
            out = regularize(plan, cfg, Z, 2.0)
            assert list(out.entries.items()) == list(cancelled.entries.items())

    def test_optimal_plans_pass_through_unchanged_in_cost(self, rng):
        for _ in range(5):
            cfg = random_config(rng)
            n = int(rng.integers(1, 5))
            Z = random_positions(cfg, n, rng)
            plan, cost = min_cost_plan(cfg, Z, 2.0)
            out = regularize(plan, cfg, Z, 2.0)
            assert plan_cost(cfg, Z, out, 2.0) == pytest.approx(cost, rel=1e-9)


class TestPruneZeros:
    def test_threshold_scales_with_total_mass(self):
        cfg = single_edge(mass=4.0)
        assert zero_flow_threshold(cfg) == pytest.approx(4e-12)

    def test_dust_entries_removed(self):
        cfg = single_edge()
        plan = plan_of(1, 1, 1, {(0, 0): 1.0, (0, 1): 1e-14})
        assert prune_zeros(plan, cfg).entries == {(0, 0): 1.0}


class TestMaximalChains:
    """Chain decomposition of a forest plan, through its embedded graph."""

    def test_single_chain_through_relays(self):
        cfg = single_edge()
        plan = plan_of(1, 1, 2, {(0, 1): 1.0, relay_arc(cfg, 0, 1): 1.0, (2, 0): 1.0})
        Z = np.array([[0.3, 0.0], [0.6, 0.0]])
        tree = reduce_graph(plan_to_graph(cfg, Z, plan))
        assert len(tree.chains) == 1
        (chain,) = tree.chains
        assert chain.vertices == (0, 2, 3, 1)  # source, free 0, free 1, sink
        assert chain.flow == pytest.approx(1.0)

    def test_branch_splits_chains(self):
        from branchflow import y_instance

        cfg = y_instance()
        # both sources feed relay 0, which ships the doubled mass to the sink
        plan = plan_of(2, 1, 1, {(0, 1): 1.0, (1, 1): 1.0, (2, 0): 2.0})
        tree = reduce_graph(plan_to_graph(cfg, np.array([[0.0, 0.5]]), plan))
        assert sorted(c.flow for c in tree.chains) == [1.0, 1.0, 2.0]

    def test_rejects_non_regular_input(self):
        # plan_to_graph embeds the loop; the forest test in reduce_graph refuses it
        cfg = single_edge()
        plan = plan_of(1, 1, 1, {(0, 0): 1.0, (1, 1): 0.5})
        g = plan_to_graph(cfg, np.array([[0.5, 0.0]]), plan)
        assert list(zip(g.tail.tolist(), g.head.tolist(), g.weight.tolist())) == [
            (0, 1, 1.0), (2, 2, 0.5)]
        with pytest.raises(ValueError, match="forest"):
            reduce_graph(g)

    def test_rejects_uneven_chain_flow(self):
        cfg = single_edge()
        plan = plan_of(
            1, 1, 2, {(0, 1): 1.0, relay_arc(cfg, 0, 1): 0.7, (2, 0): 1.0}
        )
        Z = np.array([[0.3, 0.0], [0.6, 0.0]])
        with pytest.raises(ValueError, match="hop flows differ"):
            reduce_graph(plan_to_graph(cfg, Z, plan))
