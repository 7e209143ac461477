import numpy as np
import pytest

from branchflow import allocate, graph_cost, optimal_fractions
from branchflow.allocate import allocation_objective
from conftest import graph_of


def star_tree(rng=None, n_leaves=3, dim=2):
    """Random star: one free hub shipping to n_leaves sinks."""
    rng = rng or np.random.default_rng(1)
    hub = np.zeros((1, dim))
    leaves = rng.uniform(0.5, 2.0, size=(n_leaves, dim)) * rng.choice([-1, 1], size=(n_leaves, dim))
    pos = np.vstack([hub, leaves])
    roles = ("free",) + ("sink",) * n_leaves
    edges = [
        (0, 1 + i, float(rng.uniform(0.5, 3.0)), float(np.linalg.norm(leaves[i])))
        for i in range(n_leaves)
    ]
    return graph_of(pos, roles, edges)


def y_tree():
    pos = np.array([[-1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [0.0, 1.0]])
    roles = ("source", "source", "sink", "free")
    s2 = float(np.sqrt(2.0))
    return graph_of(pos, roles, [(0, 3, 1.0, s2), (1, 3, 1.0, s2), (3, 2, 2.0, 1.0)])


class TestOptimalFractions:
    def test_symmetric_arms_share_equally(self):
        w = optimal_fractions(y_tree(), 2.0)
        assert w[0] == pytest.approx(w[1])
        assert w.sum() == pytest.approx(1.0)

    def test_closed_form_scores(self):
        # fraction of edge e is weight^(1/q) * length, normalized
        g = y_tree()
        w = optimal_fractions(g, 2.0)
        s2 = np.sqrt(2.0)
        scores = np.array([s2, s2, s2 * 1.0])
        assert np.allclose(w, scores / scores.sum())

    def test_minimum_value_is_cost_power(self):
        # at the optimal fractions the objective equals (graph cost)^q
        for q in (1.5, 2.0, 3.0):
            g = y_tree()
            w = optimal_fractions(g, q)
            assert allocation_objective(g, w, q) == pytest.approx(graph_cost(g, q) ** q)

    def test_rejects_degenerate_graphs(self):
        pos = np.zeros((2, 2))
        g = graph_of(pos, ("source", "sink"), [(0, 1, 1.0, 0.0)])
        with pytest.raises(ValueError, match="positive edge lengths"):
            optimal_fractions(g, 2.0)
        with pytest.raises(ValueError, match="no edges"):
            optimal_fractions(graph_of(pos, ("source", "sink")), 2.0)


class TestConvexityCertificate:
    def test_no_random_fraction_beats_the_closed_form(self, rng):
        # 100 random simplex points per graph never undercut the optimum
        for trial in range(5):
            g = star_tree(np.random.default_rng(trial), n_leaves=int(rng.integers(2, 6)))
            q = float(rng.choice([1.5, 2.0, 3.0]))
            w_star = optimal_fractions(g, q)
            f_star = allocation_objective(g, w_star, q)
            for _ in range(100):
                w = rng.dirichlet(np.ones(g.n_edges))
                assert allocation_objective(g, w, q) >= f_star * (1.0 - 1e-12)

    def test_objective_infinite_on_zero_fraction(self):
        g = y_tree()
        assert allocation_objective(g, np.array([0.0, 0.5, 0.5]), 2.0) == np.inf


class TestAllocate:
    def test_counts_sum_and_cover_every_edge(self, rng):
        for trial in range(10):
            g = star_tree(np.random.default_rng(100 + trial), n_leaves=int(rng.integers(2, 6)))
            n = int(rng.integers(g.n_edges, 40))
            alloc = allocate(g, n, 2.0)
            assert alloc.n == n
            assert all(c >= 1 for c in alloc.counts)

    def test_requires_one_atom_per_edge(self):
        with pytest.raises(ValueError, match="at least one atom per edge"):
            allocate(y_tree(), 2, 2.0)

    def test_layout_is_equally_spaced_inside_each_edge(self):
        g = y_tree()
        alloc = allocate(g, 8, 2.0)
        for idx, (t, h) in enumerate(zip(g.tail, g.head)):
            pts = alloc.atom_positions[np.array(alloc.atom_edges) == idx]
            c = alloc.counts[idx]
            a, b = g.positions[t], g.positions[h]
            expected = np.array([a + (l / (c + 1.0)) * (b - a) for l in range(1, c + 1)])
            assert np.allclose(pts, expected)

    def test_atom_masses_equal_edge_weight(self):
        g = y_tree()
        alloc = allocate(g, 6, 2.0)
        for m, idx in zip(alloc.atom_masses, alloc.atom_edges):
            assert m == g.weight[idx]

    def test_upper_bound_formula(self):
        g = y_tree()
        q = 2.0
        alloc = allocate(g, 7, q)
        expected = sum(
            w * l**q * (c + 1.0) ** (1.0 - q)
            for w, l, c in zip(g.weight, g.length, alloc.counts)
        ) ** (1.0 / q)
        assert alloc.upper_bound == pytest.approx(expected)

    def test_bound_decreases_with_more_atoms(self):
        g = y_tree()
        bounds = [allocate(g, n, 2.0).upper_bound for n in (3, 6, 12, 24, 48)]
        assert bounds == sorted(bounds, reverse=True)

    def test_bound_approaches_graph_cost(self):
        # rescaled bound n^((q-1)/q) * allocate(...).upper_bound -> cost
        g = y_tree()
        q = 2.0
        target = graph_cost(g, q)
        rescaled = [n ** ((q - 1) / q) * allocate(g, n, q).upper_bound for n in (12, 48, 192)]
        gaps = [abs(r - target) / target for r in rescaled]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.02

    def test_rounding_stays_within_two_percent_at_16_edges_budget(self, rng):
        # integer rounding of the fractions costs at most 2% at n = 16|E|,
        # measured in the large-n form sum(m * len^q * count^(1-q))
        for trial in range(10):
            g = star_tree(np.random.default_rng(200 + trial), n_leaves=int(rng.integers(2, 7)))
            q = float(rng.choice([1.5, 2.0, 3.0]))
            n = 16 * g.n_edges
            alloc = allocate(g, n, q)
            rounded = sum(
                w * l**q * float(c) ** (1.0 - q)
                for w, l, c in zip(g.weight, g.length, alloc.counts)
            )
            ideal = allocation_objective(g, optimal_fractions(g, q), q) / n ** (q - 1.0)
            assert rounded <= 1.02 * ideal
