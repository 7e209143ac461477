"""The rebalance layer: plan graph, chain reduction, allocation and the guard.

``plan_to_graph``, ``reduce_graph`` and ``allocate`` build their output in
whole-array passes; the ``_reference_*`` functions below are the earlier
entry-by-entry bodies, kept as oracles.  Graphs, trees and allocations must
match them field for field, bit for bit, in edge, chain and atom order.  The
two chain diagnostics are the exception, because their rounding changed:
``max_perp`` sums the projection's dot product in NumPy rather than BLAS
order and measures the offset as (p - a) - t*d rather than p - (a + t*d),
and ``gap_spread`` divides by the path length over the hop count rather
than by NumPy's pairwise mean.  They are held to 1e-12, relative to the
chain's path length and to the spread itself, and the structure checks
that read them must give the same verdicts.
"""

from typing import NamedTuple

import numpy as np
import pytest

from branchflow import (
    Atom,
    CostParams,
    SignedConfig,
    alternate_minimize,
    allocate,
    min_cost_plan,
    plan_to_graph,
    random_instance,
    reduce_graph,
    regularize,
    single_edge,
    validate,
    verify_structure,
    y_instance,
)
from branchflow import graphs, positions
from branchflow.allocate import Allocation, optimal_fractions
from branchflow.graphs import (
    CHAIN_FLOW_RTOL,
    ChainGeometry,
    ReducedTree,
    edges_form_forest,
    is_forest,
)
from branchflow.measures import total_mass
from branchflow.transport import (
    MARGINAL_RTOL,
    as_positions,
    integer_mass_units,
    vertex_positions,
    wasserstein_coupling,
    zero_flow_threshold,
)
from conftest import graph_of, one_pass_settle, plan_of


# ---------------------------------------------------------------------------
# references: the entry-by-entry bodies the array passes replaced


class Edge(NamedTuple):
    """One edge's record, as the references build and read them."""

    tail: int
    head: int
    weight: float
    length: float


def _edges(g):
    """g's edges as records, in edge order."""
    return [Edge(*r) for r in zip(g.tail.tolist(), g.head.tolist(),
                                  g.weight.tolist(), g.length.tolist())]


def _in_flow(g, v):
    return sum(e.weight for e in _edges(g) if e.head == v)


def _out_flow(g, v):
    return sum(e.weight for e in _edges(g) if e.tail == v)


def _reference_plan_to_graph(config, Z, plan):
    Z = as_positions(Z, config.dimension)
    if Z.shape[0] != plan.n_free:
        raise ValueError("Z and plan disagree on the number of free atoms")
    tol = 0.0  # every positive entry is an edge
    pruned = plan.pruned(tol)
    P = vertex_positions(config, Z)
    throughput = pruned.throughputs()
    n_term = plan.n_sources + plan.n_sinks
    keep = list(range(n_term))
    keep.extend(
        v for v in range(n_term, plan.n_vertices) if throughput[v - n_term] > tol
    )
    remap = {v: i for i, v in enumerate(keep)}
    roles = tuple(
        "source" if v < plan.n_sources else "sink" if v < n_term else "free"
        for v in keep
    )
    items = sorted(pruned.entries.items())
    tails = [pruned.row_to_vertex(i) for (i, _), _ in items]
    heads = [pruned.col_to_vertex(j) for (_, j), _ in items]
    d = P[tails] - P[heads]
    lengths = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel()).tolist()
    edges = [
        Edge(remap[t], remap[h], g, length)
        for t, h, (_, g), length in zip(tails, heads, items, lengths)
    ]
    return graph_of(P[keep], roles, edges)


def _reference_max_perpendicular(points, a, b):
    d = b - a
    denom = float(d @ d)
    if denom == 0.0:
        return float(np.max(np.linalg.norm(points - a, axis=1)))
    t = np.clip((points - a) @ d / denom, 0.0, 1.0)
    feet = a + t[:, None] * d
    return float(np.max(np.linalg.norm(points - feet, axis=1)))


def _reference_reduce_graph(g):
    if not is_forest(g):
        raise ValueError("reduce_graph requires an acyclic (forest) input")
    indeg, outdeg = g.degrees()
    out_edges = {v: [] for v in range(g.n_vertices)}
    edges = _edges(g)
    for idx, e in enumerate(edges):
        out_edges[e.tail].append(idx)

    def is_relay(v):
        return g.roles[v] == "free" and indeg[v] == 1 and outdeg[v] == 1

    keep = [v for v in range(g.n_vertices) if not is_relay(v)]
    remap = {v: i for i, v in enumerate(keep)}
    chains = []
    new_edges = []
    for u in keep:
        for idx in out_edges[u]:
            verts = [u]
            flows = []
            lengths = []
            e = edges[idx]
            while True:
                verts.append(e.head)
                flows.append(e.weight)
                lengths.append(e.length)
                if not is_relay(e.head):
                    break
                e = edges[out_edges[e.head][0]]
            flow = flows[0]
            spread = (max(flows) - min(flows)) / max(abs(flow), 1e-300)
            if spread > CHAIN_FLOW_RTOL:
                raise ValueError(
                    f"chain {verts} hop flows differ by {spread:.3e} relative"
                )
            a = g.positions[verts[0]]
            b = g.positions[verts[-1]]
            straight = float(np.linalg.norm(b - a))
            path_length = float(sum(lengths))
            max_perp = 0.0
            if len(verts) > 2:
                max_perp = _reference_max_perpendicular(g.positions[verts[1:-1]], a, b)
            gaps = np.asarray(lengths, dtype=float)
            mean_gap = float(gaps.mean()) if gaps.size else 0.0
            gap_spread = (
                float((gaps.max() - gaps.min()) / mean_gap) if mean_gap > 0 else 0.0
            )
            chains.append(ChainGeometry(
                tuple(verts), flow, path_length, straight, max_perp, gap_spread))
            new_edges.append(Edge(remap[verts[0]], remap[verts[-1]], flow, straight))
    return graph_of(g.positions[keep], tuple(g.roles[v] for v in keep), new_edges,
                    cls=ReducedTree, chains=tuple(chains))


def _reference_vertex_atoms(g):
    """Vertices that pass flow on: free ones, and any with an edge in and an
    edge out."""
    edges = _edges(g)
    return [v for v in range(g.n_vertices)
            if g.roles[v] == "free"
            or (any(e.head == v for e in edges) and any(e.tail == v for e in edges))]


def _reference_allocate(g, n, q):
    m = g.n_edges
    vertex_atoms = _reference_vertex_atoms(g)
    spare = n - len(vertex_atoms)
    if spare < m:
        raise ValueError(
            f"need at least one atom per edge: n={n} < {len(vertex_atoms)} vertex atoms "
            f"+ |E|={m}")
    w = optimal_fractions(g, q)
    counts = integer_mass_units(w, units=spare).astype(int)
    while True:
        zeros = np.nonzero(counts == 0)[0]
        if zeros.size == 0:
            break
        donor = int(np.argmax(counts))
        counts[donor] -= 1
        counts[zeros[0]] = 1
    rows = [g.positions[v] for v in vertex_atoms]
    for e, c in zip(_edges(g), counts):
        a = g.positions[e.tail]
        b = g.positions[e.head]
        for l in range(1, int(c) + 1):
            rows.append(a + (l / (c + 1.0)) * (b - a))
    positions_ = np.vstack(rows) if rows else np.zeros((0, g.dimension))
    bound_pow = sum(
        e.weight * e.length**q * (c + 1.0) ** (1.0 - q)
        for e, c in zip(_edges(g), counts)
    )
    return Allocation(
        counts=tuple(int(c) for c in counts),
        atom_positions=positions_,
        upper_bound=float(bound_pow ** (1.0 / q)),
    )


def _reference_w1_seed(config, n):
    coupling, _ = wasserstein_coupling(config.sources, config.sinks, 1.0)
    src = config.source_positions()
    snk = config.sink_positions()
    segments = []
    for (i, j), g in sorted(coupling.items()):
        if g <= 0:
            continue
        a, b = src[i], snk[j]
        segments.append((a, b, g * float(np.linalg.norm(b - a))))
    if not segments:
        anchor = src[0] if len(src) else np.zeros(config.dimension)
        return np.tile(anchor, (n, 1))
    weights = np.array([max(w, 0.0) for _, _, w in segments], dtype=float)
    if weights.sum() <= 0:
        weights = np.ones(len(segments))
    counts = integer_mass_units(weights, units=n)
    rows = []
    for (a, b, _), c in zip(segments, counts):
        for l in range(1, int(c) + 1):
            rows.append(a + (l / (c + 1.0)) * (b - a))
    return np.vstack(rows)


def _reference_flow_items(t, config):
    """verify_structure's flux and conservation items, vertex by vertex."""
    M = total_mass(config)
    tol = MARGINAL_RTOL * max(1.0, M)

    def ordinal(v):
        return sum(1 for u in range(v) if t.roles[u] == t.roles[v])

    flux_bad = []
    for v, role in enumerate(t.roles):
        if role == "source":
            err = abs(_out_flow(t, v) - _in_flow(t, v) - config.sources[ordinal(v)].mass)
            if err > tol:
                flux_bad.append(f"source v{v} net out {err:.3e} off")
        elif role == "sink":
            err = abs(_in_flow(t, v) - _out_flow(t, v) - config.sinks[ordinal(v)].mass)
            if err > tol:
                flux_bad.append(f"sink v{v} net in {err:.3e} off")
    cons_bad = [
        (v, abs(_in_flow(t, v) - _out_flow(t, v)))
        for v in t.free_indices()
        if abs(_in_flow(t, v) - _out_flow(t, v)) > tol
    ]
    return [
        ("terminal_flux", not flux_bad, "; ".join(flux_bad)),
        ("interior_conservation", not cons_bad,
         f"unbalanced free vertices: {cons_bad}" if cons_bad else ""),
    ]


# ---------------------------------------------------------------------------
# instances


def _solver_plans():
    """(config, Z, plan) triples: regularized exact plans, d in {1, 2, 3}.

    Random relay positions give bent, uneven chains; each plan's own
    allocation layout, re-planned, gives the long straight chains of
    solver output (up to 25 hops).
    """
    out = []
    for dim in (1, 2, 3):
        for s in range(22):
            rng = np.random.default_rng([7, dim, s])
            config = random_instance(
                rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), dim=dim)
            n = int(rng.integers(2, 14))
            low, high = config.bbox()
            Z = rng.uniform(low, high, size=(n, dim))
            plan, _ = min_cost_plan(config, Z, 2.0)
            out.append((config, Z, regularize(plan, config, Z, 2.0)))
    for config, n in ((y_instance(), 48), (y_instance(), 24),
                      (random_instance(np.random.default_rng([7, 9]), 2, 3), 30),
                      (random_instance(np.random.default_rng([7, 10]), 3, 2, dim=3), 20),
                      (random_instance(np.random.default_rng([7, 11]), 2, 2, dim=1), 16)):
        res = alternate_minimize(config, n, CostParams(q=2.0, restarts=0))
        out.append((config, res.Z, res.plan))
        Z = positions._rebalance_layout(config, res.Z, res.plan, 2.0, n)
        if Z is not None:
            plan, _ = min_cost_plan(config, Z, 2.0)
            out.append((config, Z, regularize(plan, config, Z, 2.0)))
    return out


SOLVER_PLANS = _solver_plans()


def _shuffled(g, rng):
    """The same graph with its vertices relabelled and its edges reordered."""
    perm = rng.permutation(g.n_vertices)  # old id -> new id
    inv = np.argsort(perm)
    edges = [Edge(int(perm[e.tail]), int(perm[e.head]), e.weight, e.length) for e in _edges(g)]
    return graph_of(
        g.positions[inv],
        tuple(g.roles[v] for v in inv),
        [edges[i] for i in rng.permutation(len(edges))],
    )


def _edges_key(g):
    return [(e.tail, e.head, e.weight.hex(), e.length.hex()) for e in _edges(g)]


def _assert_graphs_equal(got, ref):
    assert got.positions.shape == ref.positions.shape
    assert got.positions.tobytes() == ref.positions.tobytes()
    assert got.roles == ref.roles
    assert _edges_key(got) == _edges_key(ref)


# ---------------------------------------------------------------------------


class TestArrayPassesMatchReferences:
    def test_enough_plans_with_long_chains(self):
        assert len(SOLVER_PLANS) >= 60
        assert {c.dimension for c, _, _ in SOLVER_PLANS} == {1, 2, 3}
        hops = [len(ch.vertices) - 1
                for c, Z, p in SOLVER_PLANS
                for ch in reduce_graph(plan_to_graph(c, Z, p)).chains]
        assert max(hops) >= 16

    @pytest.mark.parametrize("k", range(len(SOLVER_PLANS)))
    def test_graph_tree_and_allocation(self, k):
        config, Z, plan = SOLVER_PLANS[k]
        g = plan_to_graph(config, Z, plan)
        _assert_graphs_equal(g, _reference_plan_to_graph(config, Z, plan))

        t = reduce_graph(g)
        ref = _reference_reduce_graph(g)
        _assert_graphs_equal(t, ref)
        assert len(t.chains) == len(ref.chains)
        for c, r in zip(t.chains, ref.chains):
            assert c.vertices == r.vertices
            assert c.flow.hex() == r.flow.hex()
            assert c.path_length.hex() == r.path_length.hex()
            assert c.straight_length.hex() == r.straight_length.hex()
            assert abs(c.max_perp - r.max_perp) <= 1e-12 * c.path_length
            assert abs(c.gap_spread - r.gap_spread) <= 1e-12 * abs(r.gap_spread)
        # the diagnostics' verdicts, and every other item, do not move
        got = verify_structure(t, config).items
        want = verify_structure(ref, config).items
        assert [(i.name, i.ok) for i in got] == [(i.name, i.ok) for i in want]
        diagnostic = {"chains_collinear", "chains_evenly_spaced"}
        assert [i for i in got if i.name not in diagnostic] == [
            i for i in want if i.name not in diagnostic]

        if not t.n_edges:
            return
        # the same edge budgets, beside one atom short of them
        J = len(_reference_vertex_atoms(t))
        for q in (1.5, 2.0, 3.0):
            for n in (J + t.n_edges - 1, J + t.n_edges, J + t.n_edges + 3,
                      J + 2 * t.n_edges + 17):
                try:
                    want_alloc = _reference_allocate(t, n, q)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        allocate(t, n, q)
                    continue
                alloc = allocate(t, n, q)
                assert alloc.counts == want_alloc.counts
                assert alloc.atom_positions.shape == want_alloc.atom_positions.shape
                assert alloc.atom_positions.tobytes() == want_alloc.atom_positions.tobytes()
                assert alloc.upper_bound.hex() == want_alloc.upper_bound.hex()

    def test_reduce_matches_on_shuffled_graphs(self):
        # plan graphs list edges by tail and vertices by role; reduce_graph
        # takes any order, and must order chains as the reference does
        for k, (config, Z, plan) in enumerate(SOLVER_PLANS):
            g = _shuffled(plan_to_graph(config, Z, plan), np.random.default_rng([13, k]))
            t = reduce_graph(g)
            ref = _reference_reduce_graph(g)
            _assert_graphs_equal(t, ref)
            assert [c.vertices for c in t.chains] == [c.vertices for c in ref.chains]

    def test_flow_checks_match_vertex_by_vertex_sums(self):
        # the flux and conservation items match the reference's, on
        # trees with vertices in any role order and with flows that are off
        for k, (config, Z, plan) in enumerate(SOLVER_PLANS):
            rng = np.random.default_rng([8, k])
            t = reduce_graph(_shuffled(plan_to_graph(config, Z, plan), rng))
            if t.n_edges:
                scale = rng.uniform(0.5, 1.5, t.n_edges)
                t = graph_of(t.positions, t.roles, [
                    Edge(e.tail, e.head, e.weight * s if k % 2 else e.weight, e.length)
                    for e, s in zip(_edges(t), scale)], cls=ReducedTree, chains=t.chains)
            items = verify_structure(t, config).items
            got = [(i.name, i.ok, i.detail) for i in items
                   if i.name in ("terminal_flux", "interior_conservation")]
            assert got == _reference_flow_items(t, config)

    def test_error_messages_match(self):
        # a chain whose hop flows disagree, and a cycle
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        roles = ("source", "free", "free", "sink")
        edges = (Edge(0, 1, 1.0, 1.0), Edge(1, 2, 1.5, 1.0), Edge(2, 3, 1.0, 1.0))
        g = graph_of(pos, roles, edges)
        with pytest.raises(ValueError) as ref:
            _reference_reduce_graph(g)
        with pytest.raises(ValueError) as got:
            reduce_graph(g)
        assert str(got.value) == str(ref.value)
        cyc = graph_of(pos[:3], ("free",) * 3, (
            Edge(0, 1, 1.0, 1.0), Edge(1, 2, 1.0, 1.0), Edge(2, 0, 1.0, 2.0)))
        with pytest.raises(ValueError, match="acyclic"):
            reduce_graph(cyc)

    def test_chain_geometry_edge_cases(self):
        # an interior vertex projecting beyond the chain's end, and a chain
        # whose ends coincide
        pos = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        for roles, edges in (
            (("source", "free", "sink", "sink"),
             (Edge(0, 1, 1.0, float(np.sqrt(5.0))), Edge(1, 2, 1.0, float(np.sqrt(2.0))))),
            (("source", "free", "sink", "sink"),
             (Edge(0, 1, 1.0, float(np.sqrt(5.0))), Edge(1, 3, 1.0, float(np.sqrt(5.0))))),
        ):
            g = graph_of(pos, roles, edges)
            (c,) = reduce_graph(g).chains
            (r,) = _reference_reduce_graph(g).chains
            assert c.max_perp == pytest.approx(r.max_perp, rel=1e-12)
            assert c.max_perp in (pytest.approx(np.sqrt(2.0)), pytest.approx(np.sqrt(5.0)))

    def test_atoms_are_kept_by_their_outflow(self):
        config = single_edge()
        Z = np.array([[0.5, 0.0]])
        # the atom's stored inflow is zero, its outflow is not: it stays a vertex
        plan = plan_of(1, 1, 1, {(0, 1): 0.0, (1, 0): 1.0, (0, 0): 0.25})
        g = plan_to_graph(config, Z, plan)
        _assert_graphs_equal(g, _reference_plan_to_graph(config, Z, plan))
        assert g.roles == ("source", "sink", "free") and g.n_edges == 2
        # a positive flow, however small, is an edge: dust is not pruned
        dust = 0.5 * zero_flow_threshold(config)
        plan = plan_of(1, 1, 1, {(0, 1): dust, (1, 0): 1.0, (0, 0): 0.25})
        g = plan_to_graph(config, Z, plan)
        _assert_graphs_equal(g, _reference_plan_to_graph(config, Z, plan))
        assert g.n_edges == 3 and dust in g.weight.tolist()
        # a flow into an atom whose stored outflow is zero has no vertex to enter
        plan = plan_of(1, 1, 1, {(0, 1): 1.0, (1, 0): 0.0})
        with pytest.raises(ValueError, match="missing vertex"):
            plan_to_graph(config, Z, plan)

    def test_edgeless_and_chainless_graphs(self):
        pos = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        for edges in ((), (Edge(0, 1, 2.0, float(np.sqrt(2.0))),)):
            g = graph_of(pos, ("source", "sink", "free"), edges)
            t = reduce_graph(g)
            _assert_graphs_equal(t, _reference_reduce_graph(g))
            assert t.chains == _reference_reduce_graph(g).chains

    def test_w1_seed_unchanged(self):
        configs = [single_edge(), y_instance(), single_edge(dim=3)]
        configs += [random_instance(np.random.default_rng([9, s]), 1 + s % 4, 1 + s // 4 % 4,
                                    dim=1 + s % 3) for s in range(16)]
        # a coupling segment of length zero, and all of them of length zero
        configs.append(validate(SignedConfig(
            (Atom((0.0, 0.0), 1.0), Atom((1.0, 0.0), 1.0)),
            (Atom((0.0, 0.0), 1.0), Atom((1.0, 1.0), 1.0)), 2)))
        configs.append(validate(SignedConfig(
            (Atom((0.5, 0.5), 1.0),), (Atom((0.5, 0.5), 1.0),), 2)))
        for config in configs:
            for n in (1, 2, 5, 12, 48):
                got = positions.w1_seed(config, n)
                want = _reference_w1_seed(config, n)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the guard


def _guard_cases():
    """(config, Z, plan) with stored zero flows, zero-mass and coincident
    terminals."""
    cases = []
    for dim in (1, 2, 3):
        for s in range(12):
            rng = np.random.default_rng([10, dim, s])
            ns, nk = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            base = random_instance(rng, ns, nk, dim=dim, total_mass=8)
            sources, sinks = list(base.sources), list(base.sinks)
            if s % 3 == 0:  # zero-mass terminals touch no entry
                sources.append(Atom(tuple(rng.uniform(-1, 1, dim)), 0.0))
                sinks.insert(0, Atom(tuple(rng.uniform(-1, 1, dim)), 0.0))
            if s % 3 == 1:  # a sink on a source, and two sources on one point
                sinks[0] = Atom(sources[0].position, sinks[0].mass)
                if len(sources) > 1:
                    sources[1] = Atom(sources[0].position, sources[1].mass)
            config = validate(SignedConfig(tuple(sources), tuple(sinks), dim))
            n = int(rng.integers(1, 10))
            low, high = config.bbox()
            Z = rng.uniform(low, high, size=(n, dim))
            plan, _ = min_cost_plan(config, Z, 2.0)
            plan = regularize(plan, config, Z, 2.0)
            if s % 2 == 0:
                # exact zero flows stored on untouched pairs
                entries = dict(plan.entries)
                for _ in range(4):
                    key = (int(rng.integers(plan.n_rows)), int(rng.integers(plan.n_cols)))
                    entries.setdefault(key, 0.0)
                plan = plan_of(plan.n_sources, plan.n_sinks, plan.n_free, entries)
            cases.append((config, Z, plan))
    for dim in (1, 2, 3):
        for k in (1, 2, 5):
            # k unit pairs, each matched to its own sink: the reduced forest
            # has exactly k = ceil(2k/2) edges, so the bound is tight; a
            # zero-mass source and a zero-mass sink get stored zero flows
            rng = np.random.default_rng([14, dim, k])
            src = rng.uniform(-1, 1, size=(k, dim))
            snk = src + rng.uniform(0.01, 0.05, size=(k, dim))
            far = Atom((3.0,) * dim, 0.0)
            config = validate(SignedConfig(
                tuple(Atom(tuple(p), 1.0) for p in src) + (far,),
                tuple(Atom(tuple(p), 1.0) for p in snk) + (far,),
                dim))
            Z = np.full((k, dim), 50.0)
            plan, _ = min_cost_plan(config, Z, 2.0)
            entries = dict(plan.entries)
            entries[(0, k)] = 0.0
            entries[(k, 0)] = 0.0
            cases.append((config, Z, plan_of(plan.n_sources, plan.n_sinks, plan.n_free,
                                                   entries)))
    return cases


GUARD_CASES = _guard_cases()


class TestGuard:
    def test_bound_never_exceeds_the_reduced_edge_count(self):
        built = tight = 0
        for config, Z, plan in GUARD_CASES:
            bound = positions._min_tree_edges(plan)
            assert bound >= 1
            try:
                tree = reduce_graph(plan_to_graph(config, Z, plan))
            except ValueError:
                continue
            built += 1
            assert bound <= tree.n_edges
            tight += bound == tree.n_edges
        assert built >= len(GUARD_CASES) // 2
        assert tight >= 9

    def test_refusals_match_the_unguarded_path(self, monkeypatch):
        cases = [(c, Z, p, n) for c, Z, p in GUARD_CASES
                 for n in range(1, positions._min_tree_edges(p) + 3)]
        guarded = [positions._rebalance_layout(c, Z, p, 2.0, n) for c, Z, p, n in cases]
        monkeypatch.setattr(positions, "_min_tree_edges", lambda plan: 0)
        for (c, Z, p, n), got in zip(cases, guarded):
            want = positions._rebalance_layout(c, Z, p, 2.0, n)
            if got is None:
                assert want is None
            else:
                assert want is not None and got.tobytes() == want.tobytes()
        assert any(g is None for g in guarded) and any(g is not None for g in guarded)

    def test_guard_does_not_build_a_graph_when_it_refuses(self, monkeypatch):
        config = random_instance(np.random.default_rng([11, 0]), 6, 6)
        Z = np.zeros((2, 2))
        plan, _ = min_cost_plan(config, Z, 2.0)
        assert 2 * 2 < 12

        def fail(*args):
            raise AssertionError("graph built")

        monkeypatch.setattr(positions, "plan_to_graph", fail)
        assert positions._rebalance_layout(config, Z, plan, 2.0, 2) is None

    @pytest.mark.parametrize("s", range(4))
    def test_wide_solves_unchanged_without_the_guard(self, s, monkeypatch):
        config = random_instance(np.random.default_rng([12, s]), 24, 24, total_mass=32)
        params = CostParams(q=2.0, restarts=2, seed=s)
        guarded = [alternate_minimize(config, n, params) for n in (4, 8, 12)]
        monkeypatch.setattr(positions, "_min_tree_edges", lambda plan: 0)
        for n, got in zip((4, 8, 12), guarded):
            want = alternate_minimize(config, n, params)
            assert got.cost_q.hex() == want.cost_q.hex()
            assert got.Z.tobytes() == want.Z.tobytes()
            assert got.plan.entries == want.plan.entries


# ---------------------------------------------------------------------------
# the one structural check


class TestOneForestTest:
    def test_a_rebalance_call_runs_the_forest_test_once(self, monkeypatch):
        # plan_to_graph embeds the plan without judging it; reduce_graph's
        # union-find is the only forest test on a rebalance call
        calls = []

        def counting(edges):
            calls.append(1)
            return edges_form_forest(edges)

        monkeypatch.setattr(graphs, "edges_form_forest", counting)
        for config, n in ((y_instance(), 12),
                          (random_instance(np.random.default_rng([7, 9]), 2, 3), 30),
                          (random_instance(np.random.default_rng([7, 10]), 3, 2, dim=3), 20)):
            Z = positions.w1_seed(config, n)
            plan, _ = min_cost_plan(config, Z, 2.0)
            calls.clear()
            assert positions._rebalance_layout(config, Z, plan, 2.0, n) is not None
            assert len(calls) == 1


# ---------------------------------------------------------------------------
# the cascade's fixed point

FIXED_POINT_CASES = [
    (y_instance(), 12, 2.0),
    (y_instance(), 24, 2.0),
    (y_instance(), 48, 2.0),
    (random_instance(np.random.default_rng([0, 0]), 2, 2), 16, 1.5),
    (random_instance(np.random.default_rng([0, 1]), 2, 2), 16, 3.0),
    (random_instance(np.random.default_rng([7, 3]), 3, 3), 16, 2.5),
]


class TestFixedPoint:
    def test_an_allocation_that_keeps_every_count_permutes_the_rows(self):
        # a settled layout's relays lie evenly on their chains, so an
        # allocation that keeps each chain's relay count lays out the rows
        # of Z again, bit for bit, and the settled proposal is skipped
        fixed = 0
        for config, n, q in FIXED_POINT_CASES:
            res = alternate_minimize(config, n, CostParams(q=q))
            assert res.converged and res.unused_atoms == 0
            tree = reduce_graph(plan_to_graph(config, res.Z, res.plan))
            layout = allocate(tree, n, q)
            if list(layout.counts) != [c.n_interior for c in tree.chains]:
                assert positions._rebalance_layout(config, res.Z, res.plan, q, n, True) is not None
                continue
            fixed += 1
            assert (sorted(row.tobytes() for row in layout.atom_positions)
                    == sorted(row.tobytes() for row in res.Z))
            assert positions._rebalance_layout(config, res.Z, res.plan, q, n, True) is None
            assert positions._rebalance_layout(config, res.Z, res.plan, q, n) is not None
        assert fixed >= 3

    def test_skipping_the_fixed_point_changes_no_answer(self, monkeypatch):
        # the same solves with every proposal settled: the same answers,
        # from more settle passes and plan solves
        def solve_all():
            solves = 0
            real_plan = positions.min_cost_plan

            def counting(*args):
                nonlocal solves
                solves += 1
                return real_plan(*args)

            with monkeypatch.context() as patched:
                patched.setattr(positions, "min_cost_plan", counting)
                results = [alternate_minimize(config, n, CostParams(q=q))
                           for config, n, q in FIXED_POINT_CASES]
            return results, solves

        skipped, fewer = solve_all()
        real_layout = positions._rebalance_layout
        monkeypatch.setattr(positions, "_rebalance_layout", lambda *args: real_layout(*args[:5]))
        every, more = solve_all()
        for got, want in zip(skipped, every):
            assert got.Z.tobytes() == want.Z.tobytes()
            assert got.cost_q.hex() == want.cost_q.hex()
            assert list(got.plan.entries.items()) == list(want.plan.entries.items())
            assert (got.start_index, got.start_costs) == (want.start_index, want.start_costs)
            assert got.iterations <= want.iterations
        assert fewer < more


# ---------------------------------------------------------------------------
# one cascade per settled plan

SHARING_CASES = FIXED_POINT_CASES + [
    (y_instance(), n, 2.0) for n in (6, 96)
] + [
    (random_instance(np.random.default_rng([0, k]), 2, 2), n, q)
    for k in (2, 3) for q in (1.5, 3.0) for n in (8, 32)
]


def _solve_unshared(monkeypatch, config, n, q):
    """``alternate_minimize`` with a record of its own for every start, so
    no start stops on another's settled plan."""
    real = positions._run_start
    with monkeypatch.context() as patched:
        patched.setattr(positions, "_run_start",
                        lambda config, Z0, q, n, basis, settled:
                            real(config, Z0, q, n, basis, {}))
        return alternate_minimize(config, n, CostParams(q=q))


def _assert_same_answer(got, want):
    assert got.Z.tobytes() == want.Z.tobytes()
    for name in ("rows", "cols", "flows"):
        assert getattr(got.plan, name).tobytes() == getattr(want.plan, name).tobytes()
    assert got.cost_q.hex() == want.cost_q.hex()
    assert (got.start_index, got.iterations, got.converged) == (
        want.start_index, want.iterations, want.converged)
    # a stopped start reports where the cascade from its support ended,
    # which its own cascade would reach too, up to rounding
    assert len(got.start_costs) == len(want.start_costs)
    for shared, alone in zip(got.start_costs, want.start_costs):
        assert shared <= alone * (1.0 + 1e-12)


class _Record(dict):
    """A record of settled supports that logs every look-up and store, and
    fails on iteration: the solver may only look keys up."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def get(self, key, default=None):
        self.log.append(("lookup", key))
        return super().get(key, default)

    def __contains__(self, key):
        self.log.append(("lookup", key))
        return super().__contains__(key)

    def __getitem__(self, key):
        self.log.append(("lookup", key))
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.log.append(("store", key))
        super().__setitem__(key, value)

    def _iterated(self, *args):
        raise AssertionError("the record of settled supports was iterated")

    __iter__ = keys = values = items = _iterated


class TestSharedSettles:
    @pytest.mark.parametrize("case", range(len(SHARING_CASES)))
    def test_sharing_matches_a_solve_without_it(self, case, monkeypatch):
        config, n, q = SHARING_CASES[case]
        shared = alternate_minimize(config, n, CostParams(q=q))
        _assert_same_answer(shared, _solve_unshared(monkeypatch, config, n, q))

    def test_sharing_saves_settles_on_y48(self, monkeypatch):
        settles = 0
        real = positions._settle

        def counting(*args):
            nonlocal settles
            settles += 1
            return real(*args)

        monkeypatch.setattr(positions, "_settle", counting)
        alternate_minimize(y_instance(), 48, CostParams(q=2.0))
        shared, settles = settles, 0
        _solve_unshared(monkeypatch, y_instance(), 48, 2.0)
        assert shared < settles

    def test_unstable_settles_are_never_recorded_or_matched(self, monkeypatch):
        # one pass per settle leaves many settles unstable; the record may
        # hold and be asked for only supports that a settle ended stably on
        monkeypatch.setattr(positions, "_settle", one_pass_settle)
        log = []
        real_settle, real_start = positions._settle, positions._run_start

        def settle(*args):
            out = real_settle(*args)
            plan, stable = out[1], out[3]
            log.append(("settle", (plan.rows.tobytes(), plan.cols.tobytes()), stable))
            return out

        monkeypatch.setattr(positions, "_settle", settle)
        unstable = unstable_known = 0
        for config, n, q in [
                (y_instance(), 24, 2.0), (y_instance(), 48, 2.0),
                (random_instance(np.random.default_rng([0, 0]), 2, 2), 8, 1.5),
                (random_instance(np.random.default_rng([0, 0]), 2, 2), 16, 1.5),
                (random_instance(np.random.default_rng([0, 1]), 2, 2), 8, 1.5)]:
            log.clear()
            record = _Record(log)

            def run_start(config, Z0, q, n, basis, settled):
                log.append(("start", None))
                return real_start(config, Z0, q, n, basis, record)

            monkeypatch.setattr(positions, "_run_start", run_start)
            shared = alternate_minimize(config, n, CostParams(q=q))
            known, stable_in_start, last = set(), set(), None
            for event in log:
                kind, key = event[:2]
                if kind == "start":
                    stable_in_start.clear()
                elif kind == "settle":
                    last = event
                    if event[2]:
                        stable_in_start.add(key)
                    else:
                        unstable += 1
                        unstable_known += key in known
                elif kind == "lookup":
                    # asked right after a stable settle onto that support
                    assert last[1] == key and last[2]
                else:
                    assert key in stable_in_start
                    known.add(key)
            monkeypatch.setattr(positions, "_run_start", real_start)
            _assert_same_answer(shared, _solve_unshared(monkeypatch, config, n, q))
        # some unstable settles ended on a recorded support and went on
        assert unstable > 0 and unstable_known > 0
