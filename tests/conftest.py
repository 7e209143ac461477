"""Shared fixtures and random-object generators for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from branchflow import SignedConfig, TransportPlan, WeightedDigraph, random_instance
from branchflow.measures import total_mass
from branchflow.positions import polish_positions
from branchflow.transport import min_cost_plan

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def random_config(
    rng: np.random.Generator,
    n_sources: int | None = None,
    n_sinks: int | None = None,
    dim: int = 2,
) -> SignedConfig:
    if n_sources is None:
        n_sources = int(rng.integers(1, 4))
    if n_sinks is None:
        n_sinks = int(rng.integers(1, 4))
    return random_instance(rng, n_sources, n_sinks, dim=dim)


def random_feasible_plan(
    config: SignedConfig,
    n_free: int,
    rng: np.random.Generator,
    max_hops: int = 3,
    cycle_rate: float = 0.5,
) -> TransportPlan:
    """Messy but feasible plan: random relay paths plus injected cycles.

    Marginals hold exactly by construction (each shipment depletes both
    ends); cycles among free atoms add equal in/out flow, preserving
    conservation while exercising the regularizer.
    """
    src = list(config.source_masses())
    snk = list(config.sink_masses())
    mass = total_mass(config)
    triplets: list[tuple[int, int, float]] = []
    guard = 0
    while True:
        live_i = [i for i, m in enumerate(src) if m > 1e-15 * mass]
        live_j = [j for j, m in enumerate(snk) if m > 1e-15 * mass]
        if not live_i or not live_j:
            break
        guard += 1
        assert guard < 10_000, "plan generator failed to terminate"
        i = int(rng.choice(live_i))
        j = int(rng.choice(live_j))
        amt = min(src[i], snk[j])
        if amt > 0.01 * mass and rng.random() < 0.5:
            amt *= float(rng.uniform(0.3, 1.0))  # partial shipment: parallel paths
        src[i] -= amt
        snk[j] -= amt
        hops = int(rng.integers(0, min(max_hops, n_free) + 1))
        relays = rng.choice(n_free, size=hops, replace=False) if hops else []
        prev_row = i
        for a in relays:
            triplets.append((prev_row, config.n_sinks + int(a), amt))
            prev_row = config.n_sources + int(a)
        triplets.append((prev_row, j, amt))
    if n_free >= 2 and rng.random() < cycle_rate:
        k = int(rng.integers(2, min(4, n_free) + 1))
        cyc = [int(a) for a in rng.choice(n_free, size=k, replace=False)]
        eps = float(rng.uniform(0.05, 0.3)) * mass
        for t in range(k):
            a, b = cyc[t], cyc[(t + 1) % k]
            triplets.append((config.n_sources + a, config.n_sinks + b, eps))
    return TransportPlan.from_triplets(
        config.n_sources, config.n_sinks, n_free, triplets
    )


def plan_of(n_sources, n_sinks, n_free, entries=()):
    """A plan from a ``{(row, col): flow}`` mapping in any key order, zero
    flows kept.  The keys are sorted and handed to the constructor as they
    are, so a float key or a bad flow reaches its checks."""
    keys = sorted(entries)
    return TransportPlan(n_sources, n_sinks, n_free, np.array([i for i, _ in keys]),
                         np.array([j for _, j in keys]),
                         np.array([entries[k] for k in keys], dtype=float))


def support_flows(net):
    """A solved network's positive flows in mass units by matrix key, in
    arc-id order: its ``support()`` read as a dict of Python numbers."""
    rows, cols, units = net.support()
    return dict(zip(zip(rows.tolist(), cols.tolist()), units.tolist()))


def one_pass_settle(config, Z, plan, q, basis):
    """``positions._settle`` cut to its first pass: one Newton solve, one
    plan solve, and the two supports compared.  Patched in for
    ``positions._settle``, it leaves every settle whose support moves on
    its first pass unstable."""
    Z, _, inner_ok = polish_positions(config, plan, Z, q)
    new, cost = min_cost_plan(config, Z, q, basis)
    stable = np.array_equal(new.rows, plan.rows) and np.array_equal(new.cols, plan.cols)
    return Z, new, cost, stable, 1, int(not inner_ok)


def graph_of(positions, roles, edges=(), cls=WeightedDigraph, **extra):
    """A graph whose edges are given as (tail, head, weight, length) tuples."""
    edges = list(edges)
    return cls(positions, roles, [e[0] for e in edges], [e[1] for e in edges],
               [e[2] for e in edges], [e[3] for e in edges], **extra)


def random_positions(
    config: SignedConfig, n_free: int, rng: np.random.Generator
) -> np.ndarray:
    low, high = config.bbox()
    span = np.maximum(high - low, 1.0)
    return rng.uniform(low - 0.2 * span, high + 0.2 * span, size=(n_free, config.dimension))


def enumerate_basic_optimum(config: SignedConfig, Z, q: float) -> float:
    """Exhaustive LP optimum: minimum cost over all basic feasible solutions.

    The fixed-position plan problem is a network LP, so every vertex of the
    feasible polytope is supported on a spanning tree of the arc graph.
    Enumerates all (V-1)-subsets of arcs, keeps the acyclic (hence spanning)
    ones, solves the unique conservation flows by leaf elimination, and
    takes the cheapest nonnegative solution.  Independent of the production
    solver; only usable at desk scale.
    """
    from itertools import combinations

    from branchflow.transport import as_positions, cost_matrix

    Z = as_positions(Z, config.dimension)
    n_src, n_snk, n_free = config.n_sources, config.n_sinks, len(Z)
    F = cost_matrix(config, Z, q)
    V = n_src + n_snk + n_free
    arcs = []  # (row, col, tail node, head node)
    for i in range(n_src + n_free):
        for j in range(n_snk + n_free):
            if i >= n_src and j >= n_snk and i - n_src == j - n_snk:
                continue
            tail = i if i < n_src else n_snk + i
            arcs.append((i, j, tail, n_src + j))
    imbalance = np.zeros(V)
    imbalance[:n_src] = config.source_masses()
    imbalance[n_src:n_src + n_snk] = -config.sink_masses()

    best = float("inf")
    for combo in combinations(range(len(arcs)), V - 1):
        parent = list(range(V))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for idx in combo:
            ra, rb = find(arcs[idx][2]), find(arcs[idx][3])
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic:
            continue
        b = imbalance.copy()
        incident = {v: [] for v in range(V)}
        for idx in combo:
            incident[arcs[idx][2]].append(idx)
            incident[arcs[idx][3]].append(idx)
        cost = 0.0
        feasible = True
        alive = set(combo)
        leaves = [v for v in range(V) if len(incident[v]) == 1]
        while leaves:
            u = leaves.pop()
            live = [idx for idx in incident[u] if idx in alive]
            if not live:
                continue
            idx = live[0]
            row, col, tail, head = arcs[idx]
            flow = b[u] if u == tail else -b[u]
            if flow < -1e-9:
                feasible = False
                break
            other = head if u == tail else tail
            b[other] += b[u]
            b[u] = 0.0
            cost += flow * F[row, col]
            alive.discard(idx)
            if len([k for k in incident[other] if k in alive]) == 1:
                leaves.append(other)
        if feasible and cost < best:
            best = cost
    return best


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
