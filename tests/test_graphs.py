import math

import networkx as nx
import numpy as np
import pytest

from branchflow import (
    Atom,
    SignedConfig,
    graph_cost,
    graph_from_dict,
    graph_to_dict,
    min_cost_plan,
    oracle,
    plan_to_graph,
    reduce_graph,
    single_edge,
    verify_structure,
    y_instance,
)
from branchflow.graphs import ReducedTree, WeightedDigraph, is_forest
from conftest import graph_of, plan_of, random_config, random_feasible_plan, random_positions
from branchflow import regularize


def chain_graph(k=3, flow=2.0):
    """source - (k free) - sink along the x axis, unit spacing."""
    V = k + 2
    pos = np.array([[float(i), 0.0] for i in range(V)])
    roles = ("source",) + ("free",) * k + ("sink",)
    return graph_of(pos, roles, [(i, i + 1, flow, 1.0) for i in range(V - 1)])


def edge_rows(g):
    """Each edge as a (tail, head, weight, length) tuple of Python numbers."""
    return list(zip(g.tail.tolist(), g.head.tolist(), g.weight.tolist(), g.length.tolist()))


def random_forest(rng, V, dim=2):
    """A random directed forest on V vertices: each vertex after the first
    joins an earlier one with probability 3/4, in a random direction; edge
    order and vertex roles are shuffled."""
    edges = []
    for v in range(1, V):
        if rng.random() < 0.75:
            u = int(rng.integers(v))
            t, h = (u, v) if rng.random() < 0.5 else (v, u)
            edges.append((t, h, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 2.0))))
    edges = [edges[i] for i in rng.permutation(len(edges))]
    roles = tuple(str(r) for r in rng.choice(["source", "sink", "free"], size=V))
    return graph_of(rng.normal(size=(V, dim)), roles, edges)


class TestWeightedDigraph:
    def test_validation_rejects_bad_edges(self):
        pos = np.zeros((2, 2))
        roles = ("source", "sink")
        with pytest.raises(ValueError, match="positive weight"):
            graph_of(pos, roles, [(0, 1, 0.0, 1.0)])
        with pytest.raises(ValueError, match="positive weight"):
            graph_of(pos, roles, [(0, 1, math.nan, 1.0)])
        with pytest.raises(ValueError, match="missing vertex"):
            graph_of(pos, roles, [(0, 5, 1.0, 1.0)])
        with pytest.raises(ValueError, match="missing vertex"):
            graph_of(pos, roles, [(0, 1, 1.0, 1.0), (-1, 1, 1.0, 1.0)])
        with pytest.raises(ValueError, match="negative or NaN length"):
            graph_of(pos, roles, [(0, 1, 1.0, -1.0)])
        with pytest.raises(ValueError, match="negative or NaN length"):
            graph_of(pos, roles, [(0, 1, 1.0, math.nan)])
        with pytest.raises(ValueError, match="one role per vertex"):
            graph_of(pos, ("source",))
        with pytest.raises(ValueError, match="of one length"):
            WeightedDigraph(pos, roles, [0], [1], [1.0, 2.0], [1.0])

    def test_fractional_edge_ends_refused(self):
        # a cast to intp would read 0.5 as vertex 0; every end must be whole
        pos, roles = np.zeros((2, 2)), ("source", "sink")
        for tail, head in (([0.5], [1]), ([0], [1.5]), ([math.nan], [1]), ([0], [math.inf]),
                           ([1e30], [1]), ([0, 0.999], [1, 1])):
            with pytest.raises(ValueError, match="not a whole vertex id"):
                WeightedDigraph(pos, roles, tail, head, [1.0] * len(tail), [0.0] * len(tail))
        # whole-valued ends of any numeric type keep working
        for tail, head in (([0.0], [1.0]), (np.array([0], np.int32), np.array([1], np.uint8)),
                           ((0,), (1,)), (np.array([0], np.intp), [True])):
            g = WeightedDigraph(pos, roles, tail, head, [1.0], [0.0])
            assert g.tail.dtype == g.head.dtype == np.intp
            assert (g.tail.tolist(), g.head.tolist()) == ([0], [1])

    def test_columns_are_arrays(self):
        g = chain_graph(k=1)
        assert g.tail.dtype == g.head.dtype == np.intp
        assert g.weight.dtype == g.length.dtype == float
        assert g.n_edges == 2
        empty = graph_of(np.zeros((2, 3)), ("source", "sink"))
        assert empty.n_edges == 0 and empty.tail.dtype == np.intp

    def test_degree_and_flow_accessors(self):
        g = chain_graph(k=1)
        indeg, outdeg = g.degrees()
        assert indeg.tolist() == [0, 1, 1] and outdeg.tolist() == [1, 1, 0]
        inflow, outflow = g.flows()
        assert inflow.tolist() == [0.0, 2.0, 2.0] and outflow.tolist() == [2.0, 2.0, 0.0]
        assert g.free_indices() == [1]

    def test_degrees_and_flows_match_per_edge_sums(self, rng):
        # the reference walks the edges one at a time; sums run in edge
        # order, so they agree bit for bit
        for trial in range(40):
            g = random_forest(rng, int(rng.integers(1, 12)), dim=1 + trial % 3)
            assert is_forest(g)
            V = g.n_vertices
            rows = edge_rows(g)
            indeg, outdeg = g.degrees()
            assert indeg.tolist() == [sum(1 for r in rows if r[1] == v) for v in range(V)]
            assert outdeg.tolist() == [sum(1 for r in rows if r[0] == v) for v in range(V)]
            inflow, outflow = g.flows()
            assert inflow.tolist() == [sum(r[2] for r in rows if r[1] == v) for v in range(V)]
            assert outflow.tolist() == [sum(r[2] for r in rows if r[0] == v) for v in range(V)]

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
                edges.append((int(a), int(b), 1.0, 1.0))
            g = graph_of(pos, roles, edges)
            ref = nx.MultiGraph()  # parallel edges count as cycles
            ref.add_nodes_from(range(V))
            ref.add_edges_from(zip(g.tail.tolist(), g.head.tolist()))
            assert is_forest(g) == nx.is_forest(ref)


class TestPlanToGraph:
    def test_chain_plan_becomes_path_graph(self):
        cfg = single_edge()
        plan = plan_of(1, 1, 2, {(0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0})
        Z = np.array([[1.0 / 3.0, 0.0], [2.0 / 3.0, 0.0]])
        g = plan_to_graph(cfg, Z, plan)
        assert g.n_vertices == 4
        assert sorted(g.roles) == ["free", "free", "sink", "source"]
        assert g.n_edges == 3
        assert g.length.sum() == pytest.approx(1.0)
        assert g.weight == pytest.approx([1.0] * 3)

    def test_idle_atoms_are_dropped_terminals_kept(self):
        cfg = single_edge()
        plan = plan_of(1, 1, 1, {(0, 0): 1.0})  # relay idle
        g = plan_to_graph(cfg, np.array([[9.0, 9.0]]), plan)
        assert g.n_vertices == 2 and g.roles == ("source", "sink")

    def test_rejects_irregular_plans_by_default(self):
        # the direct arc and the routed path close a cycle: plan_to_graph
        # embeds it, and reduce_graph's forest test refuses it
        cfg = single_edge()
        plan = plan_of(1, 1, 1, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5})
        g = plan_to_graph(cfg, np.array([[0.5, 0.0]]), plan)
        assert [r[:3] for r in edge_rows(g)] == [(0, 1, 0.5), (0, 2, 0.5), (2, 1, 0.5)]
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
            want = [float(np.linalg.norm(P[t] - P[h])).hex() for t, h, _, _ in edge_rows(g)]
            assert [length.hex() for length in g.length.tolist()] == want


class TestReduceGraph:
    def test_chain_collapses_to_single_edge(self):
        g = chain_graph(k=3, flow=2.0)
        t = reduce_graph(g)
        assert t.n_edges == 1
        assert t.weight[0] == pytest.approx(2.0)
        assert t.length[0] == pytest.approx(4.0)  # straight-line endpoint distance
        assert len(t.chains) == 1
        assert t.chains[0].n_interior == 3
        assert t.chains[0].gap_spread == pytest.approx(0.0, abs=1e-12)

    def test_bent_chain_keeps_straight_length(self):
        pos = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        roles = ("source", "free", "sink")
        g = graph_of(pos, roles, [(0, 1, 1.0, math.sqrt(2)), (1, 2, 1.0, math.sqrt(2))])
        t = reduce_graph(g)
        assert t.length[0] == pytest.approx(2.0)
        assert t.chains[0].max_perp == pytest.approx(1.0)

    def test_junctions_are_preserved(self):
        cfg = y_instance()
        plan, _ = min_cost_plan(cfg, np.array([[0.0, 1.0]]), 2.0)
        g = plan_to_graph(cfg, np.array([[0.0, 1.0]]), plan)
        t = reduce_graph(g)
        assert t.n_edges == 3
        assert sorted(round(w, 9) for w in t.weight.tolist()) == [1.0, 1.0, 2.0]

    def test_uneven_chain_flow_rejected(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        roles = ("source", "free", "sink")
        g = graph_of(pos, roles, [(0, 1, 1.0, 1.0), (1, 2, 0.5, 1.0)])
        with pytest.raises(ValueError, match="flow"):
            reduce_graph(g)

    def test_cycle_rejected(self):
        pos = np.zeros((3, 2))
        roles = ("free", "free", "free")
        edges = [(0, 1, 1.0, 0.0), (1, 2, 1.0, 0.0), (2, 0, 1.0, 0.0)]
        with pytest.raises(ValueError):
            reduce_graph(graph_of(pos, roles, edges))


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
        t = ReducedTree(g.positions, g.roles, g.tail, g.head, g.weight, g.length)
        report = verify_structure(t, cfg)
        assert not report.ok
        assert any(c.name == "interior_degree_ge_3" for c in report.failures())

    def test_flags_vertex_outside_bbox(self):
        cfg = single_edge()
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 9.0]])
        roles = ("source", "sink", "free")
        edges = [(0, 2, 1.0, float(np.hypot(0.5, 9.0))), (2, 1, 1.0, float(np.hypot(0.5, 9.0)))]
        t = graph_of(pos, roles, edges, cls=ReducedTree)
        report = verify_structure(t, cfg)
        assert any(c.name == "vertices_in_inflated_bbox" for c in report.failures())

    def test_flags_wrong_terminal_flux(self):
        cfg = single_edge()
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        t = graph_of(pos, ("source", "sink"), [(0, 1, 0.25, 1.0)], cls=ReducedTree)
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
        assert_round_trip(g)

    def test_round_trip_edgeless_3d_and_oracle_graphs(self, rng):
        assert_round_trip(graph_of(rng.normal(size=(3, 2)), ("source", "sink", "free")))
        cfg = random_config(rng, dim=3)
        Z = random_positions(cfg, 4, rng)
        plan, _ = min_cost_plan(cfg, Z, 2.0)
        g = plan_to_graph(cfg, Z, plan)
        assert g.dimension == 3 and g.n_edges
        assert_round_trip(g)
        assert_round_trip(reduce_graph(g))
        assert_round_trip(oracle(y_instance(), 2.0).graph)

    def test_document_holds_plain_python_numbers(self):
        doc = graph_to_dict(oracle(y_instance(), 2.0).graph)
        for record in doc["vertices"] + doc["edges"]:
            for value in record.values():
                for x in value if isinstance(value, list) else [value]:
                    assert type(x) in (int, float, str)

    def test_vertex_ids_must_be_zero_to_v_minus_one(self):
        doc = graph_to_dict(chain_graph(k=1))
        # listed in any order, each once: accepted
        doc["vertices"].reverse()
        assert edge_rows(graph_from_dict(doc)) == edge_rows(chain_graph(k=1))
        # ids 1, 2, 3: the edges would be drawn between the wrong vertices
        shifted = {**doc, "vertices": [{**r, "id": r["id"] + 1} for r in doc["vertices"]]}
        with pytest.raises(ValueError, match="vertex ids"):
            graph_from_dict(shifted)
        duplicate = {**doc, "vertices": [{**r, "id": min(r["id"], 1)} for r in doc["vertices"]]}
        with pytest.raises(ValueError, match="vertex ids"):
            graph_from_dict(duplicate)

    @pytest.mark.parametrize("field", ["weight", "length", "position"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_refused(self, field, value):
        doc = graph_to_dict(chain_graph(k=1))
        if field == "position":
            doc["vertices"][1]["position"][0] = value
        else:
            doc["edges"][1][field] = value
        with pytest.raises(ValueError, match="finite"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("field", ["weight", "length", "position"])
    @pytest.mark.parametrize("value", ["2.5", True, None])
    def test_values_must_be_json_numbers(self, field, value):
        # float() would have read "2.5" as 2.5 and True as 1.0
        doc = graph_to_dict(chain_graph(k=1))
        if field == "position":
            doc["vertices"][1]["position"][0] = value
        else:
            doc["edges"][1][field] = value
        with pytest.raises(TypeError, match="must be a JSON number"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("end", [1.5, 1.0, "1", True])
    def test_edge_ends_must_be_integers(self, end):
        # int() would have read 1.5 as vertex 1
        doc = graph_to_dict(chain_graph(k=1))
        doc["edges"][0]["head"] = end
        with pytest.raises(ValueError, match="integer vertex ids"):
            graph_from_dict(doc)


def assert_round_trip(g):
    """graph_from_dict(graph_to_dict(g)) keeps every column exactly."""
    back = graph_from_dict(graph_to_dict(g))
    assert back.positions.shape == g.positions.shape
    assert back.positions.tobytes() == g.positions.tobytes()
    assert back.roles == g.roles
    for name in ("tail", "head", "weight", "length"):
        got, want = getattr(back, name), getattr(g, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
