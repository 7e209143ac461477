import itertools

import networkx as nx
import numpy as np
import pytest

from branchflow import (
    NotRegularError,
    TransportPlan,
    is_regular,
    maximal_chains,
    min_cost_plan,
    regularize,
    single_edge,
)
from branchflow.regularize import (
    cancel_cycles,
    cancel_flat_cycles,
    merge_parallel_paths,
    prune_zeros,
    zero_flow_threshold,
)
from branchflow.transport import check_plan, plan_cost
from conftest import random_config, random_feasible_plan, random_positions


def relay_arc(cfg, a: int, b: int) -> tuple[int, int]:
    """Matrix key for flow from free atom a to free atom b."""
    return (cfg.n_sources + a, cfg.n_sinks + b)


def nx_regular(plan: TransportPlan, tol: float = 0.0) -> bool:
    """Reference: no directed cycle, at most one simple path per terminal pair.

    Entries at or below ``tol`` are dropped when ``tol > 0``; at ``tol=0``
    every stored entry is an arc, as in ``is_regular``.
    """
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(plan.n_vertices))
    for (i, j), flow in plan.entries.items():
        if tol == 0 or flow > tol:
            g.add_edge(plan.row_to_vertex(i), plan.col_to_vertex(j))
    if not nx.is_directed_acyclic_graph(g):
        return False
    return all(
        len(list(itertools.islice(nx.all_simple_edge_paths(g, s, plan.n_sources + t), 2))) < 2
        for s in range(plan.n_sources)
        for t in range(plan.n_sinks)
    )


class TestIsRegular:
    def test_clean_chain_is_regular(self):
        cfg = single_edge()
        plan = TransportPlan(1, 1, 2, {(0, 1): 1.0, relay_arc(cfg, 0, 1): 1.0, (2, 0): 1.0})
        assert is_regular(plan).ok

    def test_detects_self_loop(self):
        plan = TransportPlan(1, 1, 1, {(0, 0): 1.0, (1, 1): 0.2})
        report = is_regular(plan)
        assert not report.ok and report.kind == "self_loop"

    def test_detects_directed_cycle(self):
        cfg = single_edge()
        plan = TransportPlan(
            1, 1, 2,
            {(0, 0): 1.0, relay_arc(cfg, 0, 1): 0.3, relay_arc(cfg, 1, 0): 0.3},
        )
        report = is_regular(plan)
        assert not report.ok and report.kind == "cycle"

    def test_detects_parallel_paths(self):
        cfg = single_edge()
        plan = TransportPlan(
            1, 1, 1,
            {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5},  # direct arc and routed path
        )
        report = is_regular(plan)
        assert not report.ok and report.kind == "parallel_paths"

    def test_tolerance_hides_dust_flow(self):
        plan = TransportPlan(1, 1, 1, {(0, 0): 1.0, (1, 1): 1e-15})
        assert not is_regular(plan).ok
        assert is_regular(plan, tol=1e-12).ok

    def test_matches_networkx_on_random_and_optimal_plans(self, rng):
        seen = set()
        for _ in range(40):
            cfg = random_config(rng)
            n = int(rng.integers(0, 7))
            Z = random_positions(cfg, n, rng)
            for plan in (random_feasible_plan(cfg, n, rng), min_cost_plan(cfg, Z, 2.0)[0]):
                for tol in (0.0, zero_flow_threshold(plan, cfg)):
                    ok = is_regular(plan, tol=tol).ok
                    assert ok == nx_regular(plan, tol)
                    seen.add(ok)
        assert seen == {True, False}

    def test_matches_networkx_on_forest_with_two_cycle(self):
        from branchflow import y_instance

        cfg = y_instance()
        # both sources feed free 0, which relays through free 1 to the sink
        forest = TransportPlan(
            2, 1, 2, {(0, 1): 1.0, (1, 1): 1.0, relay_arc(cfg, 0, 1): 2.0, (3, 0): 2.0}
        )
        assert is_regular(forest).ok and nx_regular(forest)
        looped = forest.copy()
        looped.entries[relay_arc(cfg, 0, 1)] += 0.3
        looped.entries[relay_arc(cfg, 1, 0)] = 0.3
        report = is_regular(looped)
        assert not report.ok and report.kind == "cycle"
        assert not nx_regular(looped)

    def test_zero_flow_entry_counts_at_zero_tolerance(self):
        # a zero-flow detour through the relay parallels the direct arc
        plan = TransportPlan(1, 1, 1, {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0})
        report = is_regular(plan, tol=0)
        assert not report.ok and report.kind == "parallel_paths"
        assert not nx_regular(plan, 0.0)
        assert is_regular(plan, tol=1e-12).ok and nx_regular(plan, 1e-12)


class TestCancelCycles:
    def test_removes_injected_two_cycle(self):
        cfg = single_edge()
        plan = TransportPlan(
            1, 1, 2,
            {(0, 0): 1.0, relay_arc(cfg, 0, 1): 0.3, relay_arc(cfg, 1, 0): 0.3},
        )
        out = cancel_cycles(plan, cfg)
        assert is_regular(out).ok
        assert out.entries == {(0, 0): 1.0}
        assert check_plan(out, cfg) == []

    def test_partial_cancellation_keeps_chain_flow(self):
        cfg = single_edge()
        # 0.4 units circulate on top of the 1.0-unit chain; only they cancel
        plan = TransportPlan(
            1, 1, 2,
            {
                (0, 1): 1.0,                 # source -> free 0
                relay_arc(cfg, 0, 1): 1.4,   # chain flow plus circulation
                (2, 0): 1.0,                 # free 1 -> sink
                relay_arc(cfg, 1, 0): 0.4,   # back edge closing the cycle
            },
        )
        out = cancel_cycles(plan, cfg)
        assert check_plan(out, cfg) == []
        assert _find_no_cycles(out)
        assert out.entries[relay_arc(cfg, 0, 1)] == pytest.approx(1.0)
        assert relay_arc(cfg, 1, 0) not in out.entries

    def test_cost_never_increases(self, rng):
        for _ in range(20):
            cfg = random_config(rng)
            n = int(rng.integers(2, 6))
            plan = random_feasible_plan(cfg, n, rng, cycle_rate=1.0)
            Z = random_positions(cfg, n, rng)
            before = plan_cost(cfg, Z, plan, 2.0)
            out = cancel_cycles(plan, cfg)
            assert plan_cost(cfg, Z, out, 2.0) <= before + 1e-9 * max(1.0, before)


def _find_no_cycles(plan):
    from branchflow.regularize import _find_directed_cycle

    return _find_directed_cycle(plan) is None


class TestMergeParallelPaths:
    def test_merges_onto_cheaper_route(self):
        cfg = single_edge()
        Z = np.array([[0.5, 0.8]])  # relay far off the segment: direct is cheaper
        plan = TransportPlan(1, 1, 1, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5})
        out = merge_parallel_paths(plan, cfg, Z, 2.0)
        assert out.entries == {(0, 0): pytest.approx(1.0)}
        assert is_regular(out).ok

    def test_keeps_cheaper_routed_path(self):
        cfg = single_edge()
        Z = np.array([[0.5, 0.0]])  # relay on the segment: routing wins for q > 1
        plan = TransportPlan(1, 1, 1, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5})
        out = merge_parallel_paths(plan, cfg, Z, 2.0)
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
        plan = TransportPlan(
            2, 2, 0, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5}
        )
        Z = np.zeros((0, 2))
        out = cancel_flat_cycles(plan, cfg, Z, 2.0)
        assert check_plan(out, cfg) == []
        assert len(out.entries) <= 3  # the 4-arc circulation cannot survive
        assert plan_cost(cfg, Z, out, 2.0) <= plan_cost(cfg, Z, plan, 2.0) + 1e-12


class TestRegularizePipeline:
    def test_output_is_regular_feasible_and_no_pricier(self, rng):
        for _ in range(40):
            cfg = random_config(rng)
            n = int(rng.integers(0, 9))
            plan = random_feasible_plan(cfg, n, rng)
            Z = random_positions(cfg, n, rng)
            before = plan_cost(cfg, Z, plan, 2.0)
            out = regularize(plan, cfg, Z, 2.0)
            assert check_plan(out, cfg) == [], "feasibility lost"
            assert is_regular(out, tol=zero_flow_threshold(out, cfg)).ok
            after = plan_cost(cfg, Z, out, 2.0)
            assert after <= before + 1e-9 * max(1.0, before)

    def test_equals_the_three_stages_exactly(self, rng):
        # entries, their values and their order: plan_cost sums in dict order
        for k in range(40):
            cfg = random_config(rng)
            n = int(rng.integers(0, 7))
            Z = random_positions(cfg, n, rng)
            if k % 2:
                plan = random_feasible_plan(cfg, n, rng)
            else:
                plan, _ = min_cost_plan(cfg, Z, 2.0)
            staged = cancel_flat_cycles(
                merge_parallel_paths(cancel_cycles(plan, cfg), cfg, Z, 2.0), cfg, Z, 2.0
            )
            out = regularize(plan, cfg, Z, 2.0)
            assert list(out.entries.items()) == list(staged.entries.items())

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
        assert zero_flow_threshold(TransportPlan(1, 1, 0), cfg) == pytest.approx(4e-12)

    def test_dust_entries_removed(self):
        cfg = single_edge()
        plan = TransportPlan(1, 1, 1, {(0, 0): 1.0, (0, 1): 1e-14})
        assert prune_zeros(plan, cfg).entries == {(0, 0): 1.0}


class TestMaximalChains:
    def test_single_chain_through_relays(self):
        cfg = single_edge()
        plan = TransportPlan(1, 1, 2, {(0, 1): 1.0, relay_arc(cfg, 0, 1): 1.0, (2, 0): 1.0})
        chains = maximal_chains(plan)
        assert len(chains) == 1
        (chain,) = chains
        assert chain.vertices == (0, 2, 3, 1)  # source, free 0, free 1, sink
        assert chain.flow == pytest.approx(1.0)
        assert chain.flow_spread <= 1e-12

    def test_branch_splits_chains(self):
        from branchflow import y_instance

        cfg = y_instance()
        # both sources feed relay 0, which ships the doubled mass to the sink
        plan = TransportPlan(2, 1, 1, {(0, 1): 1.0, (1, 1): 1.0, (2, 0): 2.0})
        chains = maximal_chains(plan)
        assert sorted(c.flow for c in chains) == [1.0, 1.0, 2.0]

    def test_rejects_non_regular_input(self):
        plan = TransportPlan(1, 1, 1, {(0, 0): 1.0, (1, 1): 0.5})
        with pytest.raises(NotRegularError):
            maximal_chains(plan)

    def test_rejects_uneven_chain_flow(self):
        cfg = single_edge()
        plan = TransportPlan(
            1, 1, 2, {(0, 1): 1.0, relay_arc(cfg, 0, 1): 0.7, (2, 0): 1.0}
        )
        with pytest.raises(NotRegularError, match="uneven"):
            maximal_chains(plan)
