"""End-to-end quality gates.

Each test prints one summary line; the numeric targets are either closed
forms, values certified by the exhaustive small-instance enumerator, or
independent brute-force solutions computed inside the test itself.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from branchflow import (
    CostParams,
    alternate_minimize,
    oracle,
    plan_to_graph,
    position_gradient,
    reduce_graph,
    regularize,
    single_edge,
    sweep,
    verify_structure,
    wasserstein_q,
    y_instance,
)
from branchflow.regularize import _is_forest, prune_zeros
from branchflow.transport import min_cost_plan, plan_cost
from conftest import (
    enumerate_basic_optimum,
    random_config,
    random_feasible_plan,
    random_positions,
)

Q = 2.0

# solver ladder on the branching instance, certified against the enumerated
# optimum (sandwich bounds hold row by row); regression-frozen
Y_RESCALED = {6: 3.68781778292, 12: 3.932768321, 24: 4.077677155, 48: 4.15733357573}
Y_HAUSDORFF = {6: 0.128036880028, 12: 0.0743294209267, 24: 0.0403896391945, 48: 0.0211053790627}


@pytest.fixture(scope="module")
def edge_sweep():
    t0 = time.perf_counter()
    records, details = sweep(single_edge(), Q, [1, 2, 4, 8, 16], CostParams(q=Q))
    return records, details, time.perf_counter() - t0


@pytest.fixture(scope="module")
def y_oracle():
    return oracle(y_instance(), Q)


@pytest.fixture(scope="module")
def y_sweep(y_oracle):
    t0 = time.perf_counter()
    records, details = sweep(
        y_instance(), Q, [6, 12, 24, 48], CostParams(q=Q), oracle_solution=y_oracle
    )
    return records, details, time.perf_counter() - t0


def brute_force_chain_value(n: int, q: float) -> float:
    """1-d brute force for one unit of mass across [0, 1] with n relays.

    Inserting a relay on a segment never hurts for q > 1, so the optimum
    visits every relay; the cost of a visiting order is the sum of step
    lengths to the q.  Minimizes over positions with the best order taken
    per evaluation (n <= 4 keeps the order enumeration trivial).
    """
    from itertools import permutations

    orders = list(permutations(range(n)))

    def cost(x: np.ndarray) -> float:
        best = math.inf
        for order in orders:
            pts = [0.0] + [x[i] for i in order] + [1.0]
            c = sum(abs(b - a) ** q for a, b in zip(pts[:-1], pts[1:]))
            best = min(best, c)
        return best

    rng = np.random.default_rng(7)
    best = math.inf
    for _ in range(12):
        res = minimize(cost, rng.uniform(0, 1, size=n), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000})
        best = min(best, float(res.fun))
    return n ** ((q - 1.0) / q) * best ** (1.0 / q)


def test_criterion_1_single_edge_scaling_law(edge_sweep):
    records, _, elapsed = edge_sweep
    worst = 0.0
    for r in records:
        target = math.sqrt(r.n / (r.n + 1.0))
        worst = max(worst, abs(r.rescaled - target))
        assert abs(r.rescaled - target) < 1e-4, f"n={r.n}"
        assert abs(r.rescaled - target) < 1e-9, f"regression at n={r.n}"
    # independent evidence for the closed form itself at small n
    for n in (1, 2, 4):
        assert brute_force_chain_value(n, Q) == pytest.approx(
            math.sqrt(n / (n + 1.0)), abs=1e-6
        )
    assert elapsed < 10.0, f"single-edge sweep took {elapsed:.1f}s"
    print(f"criterion 1 PASS: max deviation {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 10s)")


def test_criterion_2_y_instance_convergence(y_oracle, y_sweep):
    target = 3.0 * math.sqrt(2.0)
    assert y_oracle.cost == pytest.approx(target, abs=1e-9)
    assert y_oracle.steiner_positions[0] == pytest.approx([0.0, 1.0], abs=1e-6)
    records, _, elapsed = y_sweep
    r48 = next(r for r in records if r.n == 48)
    gap = abs(r48.rescaled - target) / target
    assert gap < 0.05, f"relative gap {gap:.3%} at n=48"
    for r in records:  # regression: the whole certified ladder
        assert r.rescaled == pytest.approx(Y_RESCALED[r.n], abs=5e-4)
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s"
    print(f"criterion 2 PASS: gap {gap:.3%} (< 5%) at n=48, {elapsed:.1f}s (< 5min)")


def test_criterion_3_hausdorff_convergence(y_sweep):
    records, _, _ = y_sweep
    dist = {r.n: r.hausdorff for r in records}
    threshold = 0.1 * y_instance().diameter()
    assert dist[48] < threshold
    assert dist[48] < dist[6]
    assert sorted(dist.values(), reverse=True) == [dist[6], dist[12], dist[24], dist[48]]
    for n, d in dist.items():  # regression
        assert d == pytest.approx(Y_HAUSDORFF[n], abs=5e-4)
    print(f"criterion 3 PASS: tree distance {dist[48]:.4f} (< {threshold:.4f}) "
          f"and below its n=6 value {dist[6]:.4f}")


def test_criterion_4_sandwich_bounds(edge_sweep, y_sweep):
    checked = 0
    for records, _, _ in (edge_sweep, y_sweep):
        for r in records:
            assert not math.isnan(r.upper) and not math.isnan(r.lower), f"n={r.n}"
            assert r.lower <= r.rescaled + 1e-12, f"lower bound broken at n={r.n}"
            assert r.rescaled <= r.upper + 1e-12, f"upper bound broken at n={r.n}"
            checked += 1
    print(f"criterion 4 PASS: sandwich bounds hold on all {checked} sweep records")


def test_criterion_5_regularization_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    instances = []
    for _ in range(10):
        ns = int(rng.integers(1, 4))
        nk = int(rng.integers(1, 4))
        instances.append(random_config(rng, ns, nk))
    done = 0
    while done < 200:
        cfg = instances[done % len(instances)]
        n = int(rng.integers(0, 9))
        plan = random_feasible_plan(cfg, n, rng)
        Z = random_positions(cfg, n, rng)
        before = plan_cost(cfg, Z, plan, Q)
        out = regularize(plan, cfg, Z, Q)
        mass = sum(a.mass for a in cfg.sources)
        tol = 1e-9 * max(1.0, mass)
        inflow, outflow = out.vertex_flows()
        ns, n_term = cfg.n_sources, cfg.n_sources + cfg.n_sinks
        assert np.abs(outflow[:ns] - cfg.source_masses()).max() <= tol
        assert np.abs(inflow[ns:n_term] - cfg.sink_masses()).max() <= tol
        if n:
            assert np.abs(inflow[n_term:] - outflow[n_term:]).max() <= tol
        assert _is_forest(prune_zeros(out, cfg))
        assert plan_cost(cfg, Z, out, Q) <= before * (1.0 + 1e-9) + 1e-12
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"200 regularizations took {elapsed:.1f}s"
    print(f"criterion 5 PASS: 200 random plans regularized in {elapsed:.1f}s (< 60s)")


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(6)
    worst = 0.0
    done = 0
    while done < 50:
        q = float(rng.choice([1.5, 2.0, 3.0]))
        cfg = random_config(rng)
        n = int(rng.integers(1, 7))
        plan = random_feasible_plan(cfg, n, rng)
        Z = random_positions(cfg, n, rng)
        G = position_gradient(cfg, Z, plan, q)
        if np.abs(G).max() < 1e-8:
            continue
        step = 1e-6 * max(1.0, float(np.abs(Z).max()))
        F = np.zeros_like(Z)
        for a in range(n):
            for d in range(cfg.dimension):
                up, dn = Z.copy(), Z.copy()
                up[a, d] += step
                dn[a, d] -= step
                F[a, d] = (plan_cost(cfg, up, plan, q) - plan_cost(cfg, dn, plan, q)) / (2 * step)
        rel = float(np.abs(G - F).max() / np.abs(G).max())
        worst = max(worst, rel)
        assert rel < 1e-5, f"gradient mismatch {rel:.2e} at q={q}"
        done += 1
    print(f"criterion 6 PASS: 50 finite-difference checks, worst {worst:.2e} (< 1e-5)")


def test_criterion_7_structure_suite():
    rng = np.random.default_rng(7)
    for trial in range(5):
        cfg = random_config(rng, n_sources=2, n_sinks=2)
        n = int(rng.integers(4, 25))
        res = alternate_minimize(cfg, n, CostParams(q=Q))
        tree = reduce_graph(plan_to_graph(cfg, res.Z, res.plan))
        report = verify_structure(tree, cfg)
        assert report.ok, (
            f"trial {trial} (n={n}): "
            + "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        )
    print("criterion 7 PASS: reduced trees pass all structure checks on 5 instances")


def test_criterion_8_q_near_one_matches_wasserstein():
    worst = 0.0
    for trial in range(5):
        rng = np.random.default_rng(800 + trial)
        cfg = random_config(rng, n_sources=2, n_sinks=2)
        w1 = wasserstein_q(cfg.sources, cfg.sinks, 1.0)
        net = oracle(cfg, 1.01).cost
        dev = abs(net - w1) / w1
        worst = max(worst, dev)
        assert dev <= 0.02, f"trial {trial}: deviation {dev:.3%}"
    print(f"criterion 8 PASS: worst q=1.01 deviation {worst:.3%} (<= 2%)")


def test_criterion_9_plan_exactness():
    shapes = [(2, 2, 2), (3, 3, 0), (1, 1, 3), (2, 1, 2), (3, 2, 1), (1, 1, 4)]
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(20):
        ns, nk, n = shapes[trial % len(shapes)]
        cfg = random_config(rng, ns, nk)
        Z = rng.uniform(-1, 1, size=(n, 2))
        _, cost = min_cost_plan(cfg, Z, Q)
        ref = enumerate_basic_optimum(cfg, Z, Q)
        err = abs(cost - ref)
        worst = max(worst, err)
        assert err <= 1e-9 * max(1.0, abs(ref)), f"trial {trial}: {cost} vs {ref}"
    print(f"criterion 9 PASS: 20 instances, worst absolute gap {worst:.2e}")


def test_criterion_10_y_stays_on_the_limit_at_large_n(y_oracle):
    # the paper's limit as n grows: each row inside the sandwich, every
    # settle of its winning start stable, and the reduced tree's distance to
    # the optimum roughly halving at each doubling of n
    records, details = sweep(
        y_instance(), Q, [96, 192, 384], CostParams(q=Q), oracle_solution=y_oracle
    )
    for r, (n, res, _) in zip(records, details):
        assert r.in_bounds and res.converged, f"n={n}"
    dist = [r.hausdorff for r in records]
    assert dist[0] == pytest.approx(1.080e-2, abs=1e-5)
    assert dist[1] <= 0.55 * dist[0] and dist[2] <= 0.55 * dist[1]
    print(f"criterion 10 PASS: n=96,192,384 inside the sandwich, tree distance "
          + ", ".join(f"{d:.2e}" for d in dist))
