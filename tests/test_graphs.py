import math

import networkx as nx
import numpy as np
import pytest

from branchflow import (
    Atom,
    SignedConfig,
    TransportPlan,
    graph_cost,
    graph_from_dict,
    graph_to_dict,
    min_cost_plan,
    plan_to_graph,
    reduce_graph,
    single_edge,
    verify_structure,
    y_instance,
)
from branchflow.graphs import Edge, WeightedDigraph, is_forest
from conftest import random_config, random_feasible_plan, random_positions
from branchflow import regularize


def chain_graph(k=3, flow=2.0):
    """source - (k free) - sink along the x axis, unit spacing."""
    V = k + 2
    pos = np.array([[float(i), 0.0] for i in range(V)])
    roles = ("source",) + ("free",) * k + ("sink",)
    edges = tuple(Edge(i, i + 1, flow, 1.0) for i in range(V - 1))
    return WeightedDigraph(pos, roles, edges)


class TestWeightedDigraph:
    def test_validation_rejects_bad_edges(self):
        pos = np.zeros((2, 2))
        roles = ("source", "sink")
        with pytest.raises(ValueError, match="positive weight"):
            WeightedDigraph(pos, roles, (Edge(0, 1, 0.0, 1.0),))
        with pytest.raises(ValueError, match="missing vertex"):
            WeightedDigraph(pos, roles, (Edge(0, 5, 1.0, 1.0),))
        with pytest.raises(ValueError, match="one role per vertex"):
            WeightedDigraph(pos, ("source",), ())

    def test_degree_and_flow_accessors(self):
        g = chain_graph(k=1)
        indeg, outdeg = g.degrees()
        assert indeg.tolist() == [0, 1, 1] and outdeg.tolist() == [1, 1, 0]
        assert g.in_flow(1) == 2.0 and g.out_flow(1) == 2.0
        assert g.free_indices() == [1]

    def test_costs(self):
        g = chain_graph(k=0, flow=4.0)  # single edge, weight 4, length 1
        assert graph_cost(g, 2.0) == pytest.approx(2.0)           # |e| * m^(1/q)


class TestIsForest:
    def test_matches_networkx_on_random_graphs(self, rng):
        for _ in range(30):
            V = int(rng.integers(2, 8))
            pos = rng.uniform(-1, 1, size=(V, 2))
            roles = tuple(rng.choice(["source", "sink", "free"]) for _ in range(V))
            n_edges = int(rng.integers(0, V + 2))
            edges = []
            for _ in range(n_edges):
                a, b = rng.choice(V, size=2, replace=False)
                edges.append(Edge(int(a), int(b), 1.0, 1.0))
            g = WeightedDigraph(pos, roles, tuple(edges))
            ref = nx.MultiGraph()  # parallel edges count as cycles
            ref.add_nodes_from(range(V))
            ref.add_edges_from((e.tail, e.head) for e in g.edges)
            assert is_forest(g) == nx.is_forest(ref)


class TestPlanToGraph:
    def test_chain_plan_becomes_path_graph(self):
        cfg = single_edge()
        plan = TransportPlan(1, 1, 2, {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0})
        Z = np.array([[1.0 / 3.0, 0.0], [2.0 / 3.0, 0.0]])
        g = plan_to_graph(cfg, Z, plan)
        assert g.n_vertices == 4
        assert sorted(g.roles) == ["free", "free", "sink", "source"]
        assert len(g.edges) == 3
        assert sum(e.length for e in g.edges) == pytest.approx(1.0)
        assert all(e.weight == pytest.approx(1.0) for e in g.edges)

    def test_idle_atoms_are_dropped_terminals_kept(self):
        cfg = single_edge()
        plan = TransportPlan(1, 1, 1, {(0, 0): 1.0})  # relay idle
        g = plan_to_graph(cfg, np.array([[9.0, 9.0]]), plan)
        assert g.n_vertices == 2 and g.roles == ("source", "sink")

    def test_rejects_irregular_plans_by_default(self):
        # the direct arc and the routed path close a cycle: plan_to_graph
        # embeds it, and reduce_graph's forest test refuses it
        cfg = single_edge()
        plan = TransportPlan(1, 1, 1, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5})
        g = plan_to_graph(cfg, np.array([[0.5, 0.0]]), plan)
        assert [(e.tail, e.head, e.weight) for e in g.edges] == [
            (0, 1, 0.5), (0, 2, 0.5), (2, 1, 0.5)]
        with pytest.raises(ValueError, match="forest"):
            reduce_graph(g)

    def test_edge_lengths_equal_the_per_edge_norm(self, rng):
        # one np.linalg.norm per edge is the reference, bit for bit
        for trial in range(60):
            dim = 1 + trial % 3
            cfg = random_config(rng, dim=dim)
            n_free = int(rng.integers(0, 6))
            Z = rng.normal(size=(n_free, dim)) * 16.0 ** int(rng.integers(-2, 3))
            plan = regularize(random_feasible_plan(cfg, n_free, rng), cfg, Z, 2.0)
            g = plan_to_graph(cfg, Z, plan)
            P = g.positions
            want = [float(np.linalg.norm(P[e.tail] - P[e.head])).hex() for e in g.edges]
            assert [e.length.hex() for e in g.edges] == want


class TestReduceGraph:
    def test_chain_collapses_to_single_edge(self):
        g = chain_graph(k=3, flow=2.0)
        t = reduce_graph(g)
        assert len(t.edges) == 1
        (e,) = t.edges
        assert e.weight == pytest.approx(2.0)
        assert e.length == pytest.approx(4.0)  # straight-line endpoint distance
        assert len(t.chains) == 1
        assert t.chains[0].n_interior == 3
        assert t.chains[0].gap_spread == pytest.approx(0.0, abs=1e-12)

    def test_bent_chain_keeps_straight_length(self):
        pos = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        roles = ("source", "free", "sink")
        g = WeightedDigraph(pos, roles, (Edge(0, 1, 1.0, math.sqrt(2)), Edge(1, 2, 1.0, math.sqrt(2))))
        t = reduce_graph(g)
        assert t.edges[0].length == pytest.approx(2.0)
        assert t.chains[0].max_perp == pytest.approx(1.0)

    def test_junctions_are_preserved(self):
        cfg = y_instance()
        plan, _ = min_cost_plan(cfg, np.array([[0.0, 1.0]]), 2.0)
        g = plan_to_graph(cfg, np.array([[0.0, 1.0]]), plan)
        t = reduce_graph(g)
        assert len(t.edges) == 3
        assert sorted(round(e.weight, 9) for e in t.edges) == [1.0, 1.0, 2.0]

    def test_uneven_chain_flow_rejected(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        roles = ("source", "free", "sink")
        g = WeightedDigraph(pos, roles, (Edge(0, 1, 1.0, 1.0), Edge(1, 2, 0.5, 1.0)))
        with pytest.raises(ValueError, match="flow"):
            reduce_graph(g)

    def test_cycle_rejected(self):
        pos = np.zeros((3, 2))
        roles = ("free", "free", "free")
        edges = (Edge(0, 1, 1.0, 0.0), Edge(1, 2, 1.0, 0.0), Edge(2, 0, 1.0, 0.0))
        with pytest.raises(ValueError):
            reduce_graph(WeightedDigraph(pos, roles, edges))


class TestVerifyStructure:
    def solver_tree(self, cfg, n, rng, q=2.0):
        from branchflow import CostParams, alternate_minimize

        res = alternate_minimize(cfg, n, CostParams(q=q, restarts=2))
        return reduce_graph(plan_to_graph(cfg, res.Z, res.plan))

    def test_passes_on_solver_output(self, rng):
        cfg = y_instance()
        t = self.solver_tree(cfg, 6, rng)
        report = verify_structure(t, cfg)
        assert report.ok, [f"{c.name}: {c.detail}" for c in report.failures()]
        names = {c.name for c in report.items}
        assert {"interior_degree_ge_3", "acyclic_undirected", "vertex_budget",
                "edge_weight_bracket", "vertices_in_inflated_bbox",
                "chains_collinear", "chains_evenly_spaced",
                "terminal_flux", "interior_conservation"} <= names

    def test_flags_degree_two_interior(self):
        cfg = single_edge()
        # a free vertex with in=out=1 survives reduction only if hand-built
        g = chain_graph(k=1, flow=1.0)
        from branchflow.graphs import ReducedTree

        t = ReducedTree(g.positions, g.roles, g.edges)
        report = verify_structure(t, cfg)
        assert not report.ok
        assert any(c.name == "interior_degree_ge_3" for c in report.failures())

    def test_flags_vertex_outside_bbox(self):
        cfg = single_edge()
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 9.0]])
        roles = ("source", "sink", "free")
        from branchflow.graphs import ReducedTree

        edges = (Edge(0, 2, 1.0, float(np.hypot(0.5, 9.0))),
                 Edge(2, 1, 1.0, float(np.hypot(0.5, 9.0))))
        t = ReducedTree(pos, roles, edges)
        report = verify_structure(t, cfg)
        assert any(c.name == "vertices_in_inflated_bbox" for c in report.failures())

    def test_flags_wrong_terminal_flux(self):
        cfg = single_edge()
        from branchflow.graphs import ReducedTree

        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        t = ReducedTree(pos, ("source", "sink"), (Edge(0, 1, 0.25, 1.0),))
        report = verify_structure(t, cfg)
        assert any(c.name == "terminal_flux" for c in report.failures())


class TestRoundTrip:
    def test_graph_dict_round_trip(self, rng):
        cfg = random_config(rng)
        n = 3
        plan = random_feasible_plan(cfg, n, rng)
        Z = random_positions(cfg, n, rng)
        plan = regularize(plan, cfg, Z, 2.0)
        g = plan_to_graph(cfg, Z, plan)
        back = graph_from_dict(graph_to_dict(g))
        assert np.array_equal(back.positions, g.positions)
        assert back.roles == g.roles
        assert back.edges == g.edges
