import dataclasses
import math

import numpy as np
import pytest

import branchflow
from branchflow import (
    CostParams,
    alternate_minimize,
    min_cost_plan,
    optimize_positions,
    position_gradient,
    positions,
    random_instance,
    single_edge,
    solve_result_to_dict,
    y_instance,
)
from branchflow._mcf import MinCostFlowNetwork
from branchflow.allocate import spread_on_segments
from branchflow.graphs import WeightedDigraph, plan_to_graph, reduce_graph
from branchflow.measures import total_mass
from branchflow.positions import COST_ROUNDING, _EdgeKernel, polish_positions, w1_seed
from branchflow.render import render, render_svg
from branchflow.transport import TreeBasis, as_positions, check_plan, cost_matrix, plan_cost
from conftest import graph_of, plan_of, random_config, random_feasible_plan, random_positions


def finite_difference_gradient(cfg, Z, plan, q, step):
    G = np.zeros_like(Z)
    for a in range(Z.shape[0]):
        for d in range(Z.shape[1]):
            up = Z.copy()
            up[a, d] += step
            dn = Z.copy()
            dn[a, d] -= step
            G[a, d] = (plan_cost(cfg, up, plan, q) - plan_cost(cfg, dn, plan, q)) / (2 * step)
    return G


class TestGradient:
    def test_matches_central_differences(self, rng):
        # 50 random (Z, plan, q) triples, relative sup-norm error < 1e-5
        triples = 0
        while triples < 50:
            q = float(rng.choice([1.5, 2.0, 3.0]))
            cfg = random_config(rng)
            n = int(rng.integers(1, 7))
            plan = random_feasible_plan(cfg, n, rng)
            Z = random_positions(cfg, n, rng)
            scale = max(1.0, float(np.abs(Z).max()))
            G = position_gradient(cfg, Z, plan, q)
            if np.abs(G).max() < 1e-8:
                continue  # degenerate draw: no informative signal
            F = finite_difference_gradient(cfg, Z, plan, q, step=1e-6 * scale)
            rel = np.abs(G - F).max() / np.abs(G).max()
            assert rel < 1e-5, f"q={q}: relative gradient error {rel:.2e}"
            triples += 1

    def test_rejects_q_at_most_one(self, rng):
        cfg = single_edge()
        plan = min_cost_plan(cfg, np.array([[0.5, 0.0]]), 2.0)[0]
        with pytest.raises(ValueError):
            position_gradient(cfg, np.array([[0.5, 0.0]]), plan, 1.0)

    def test_rejects_z_with_another_row_count(self):
        # one row for a three-relay plan must not be broadcast over the relays
        cfg = y_instance()
        Z = np.array([[0.0, 1.0], [-0.5, 1.5], [0.5, 1.5]])
        plan = min_cost_plan(cfg, Z, 2.0)[0]
        for bad in (Z[:1], Z[:2], np.vstack([Z, Z[:1]])):
            with pytest.raises(ValueError, match="number of free atoms"):
                position_gradient(cfg, bad, plan, 2.0)
            with pytest.raises(ValueError, match="number of free atoms"):
                optimize_positions(cfg, plan, bad, 2.0)

    def test_zero_rows_for_idle_atoms(self):
        cfg = single_edge()
        plan = min_cost_plan(cfg, np.array([[50.0, 50.0]]), 2.0)[0]  # relay unused
        G = position_gradient(cfg, np.array([[50.0, 50.0]]), plan, 2.0)
        assert np.all(G == 0.0)


class _ReferenceObjective:
    """The objective before the edge-list kernel: a fresh vstack of all
    positions per call, the gradient recomputed from Z, np.add.at scatter."""

    def __init__(self, config, plan, q):
        self.q = q
        self.n_free = plan.n_free
        self.dim = config.dimension
        self.n_term = plan.n_sources + plan.n_sinks
        self.term = np.vstack([config.source_positions(), config.sink_positions()])
        keys = sorted(plan.entries)
        self.tails = np.array([plan.row_to_vertex(i) for i, _ in keys], dtype=int)
        self.heads = np.array([plan.col_to_vertex(j) for _, j in keys], dtype=int)
        self.flows = np.array([plan.entries[k] for k in keys], dtype=float)

    def _stack(self, Z):
        if self.n_free == 0:
            return self.term
        return np.vstack([self.term, Z])

    def cost(self, Z):
        P = self._stack(Z)
        d = P[self.tails] - P[self.heads]
        dist = np.sqrt((d * d).sum(axis=1))
        return float((self.flows * dist**self.q).sum())

    def gradient(self, Z):
        P = self._stack(Z)
        d = P[self.tails] - P[self.heads]
        dist = np.sqrt((d * d).sum(axis=1))
        coef = np.zeros_like(dist)
        pos = dist > 0.0
        coef[pos] = self.q * self.flows[pos] * dist[pos] ** (self.q - 2.0)
        contrib = coef[:, None] * d
        G = np.zeros((self.n_free, self.dim))
        tf = self.tails >= self.n_term
        hf = self.heads >= self.n_term
        np.add.at(G, self.tails[tf] - self.n_term, contrib[tf])
        np.add.at(G, self.heads[hf] - self.n_term, -contrib[hf])
        return G


def reference_optimize(config, plan, Z0, q, grad_tol=1e-9, max_iter=500):
    """The Armijo loop before the edge-list kernel, on _ReferenceObjective."""
    Z = as_positions(Z0, config.dimension).copy()
    obj = _ReferenceObjective(config, plan, q)
    diam = config.diameter()
    scale = max(total_mass(config) * max(diam, 1e-300) ** (q - 1.0), 1e-300)
    tol = grad_tol * scale
    f = obj.cost(Z)
    step = None
    iters = 0
    for iters in range(1, max_iter + 1):
        G = obj.gradient(Z)
        gmax = float(np.abs(G).max()) if G.size else 0.0
        if gmax <= tol:
            return Z, f, iters - 1, True
        gsq = float((G * G).sum())
        if step is None:
            step = max(diam, 1e-12) / max(np.sqrt(gsq), 1e-300)
        else:
            step *= 2.0
        accepted = False
        while step * np.sqrt(gsq) > 1e-16 * max(diam, 1e-12):
            Z_new = Z - step * G
            f_new = obj.cost(Z_new)
            if f_new <= f - 1e-4 * step * gsq:
                Z, f = Z_new, f_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return Z, f, iters, True
    G = obj.gradient(Z)
    gmax = float(np.abs(G).max()) if G.size else 0.0
    return Z, f, iters, gmax <= tol


def _coincide(config, plan, Z):
    """Move one free atom onto the other end of its first arc: a zero-length arc."""
    P = np.vstack([config.source_positions(), config.sink_positions(), Z])
    n_term = plan.n_sources + plan.n_sinks
    for i, j in sorted(plan.entries):
        tail, head = plan.row_to_vertex(i), plan.col_to_vertex(j)
        if head >= n_term:
            Z[head - n_term] = P[tail]
            return True
        if tail >= n_term:
            Z[tail - n_term] = P[head]
            return True
    return False


def _kernel_cases(rng):
    """(config, plan, Z, q) over q in {1.5, 2, 3} and d in {1, 2, 3}, with
    coincident endpoints, atoms the plan never touches, and no free atoms."""
    for q in (1.5, 2.0, 3.0):
        for dim in (1, 2, 3):
            for kind in ("plain", "coincident", "idle", "no_free", "optimal"):
                cfg = random_config(rng, dim=dim)
                n = 0 if kind == "no_free" else int(rng.integers(1, 7))
                Z = random_positions(cfg, n, rng)
                if kind == "optimal":
                    plan = min_cost_plan(cfg, Z, q)[0]
                else:
                    plan = random_feasible_plan(cfg, n, rng)
                if kind == "coincident":
                    assert _coincide(cfg, plan, Z)
                if kind == "idle":
                    # two more atoms, no arc at either: their rows stay put
                    plan = plan_of(plan.n_sources, plan.n_sinks, n + 2, plan.entries)
                    Z = np.vstack([Z, random_positions(cfg, 2, rng)])
                yield cfg, plan, Z, q


class TestEdgeKernelBitIdentity:
    """The edge-list kernel must reproduce the earlier objective bit for bit."""

    def test_cost_and_gradient(self, rng):
        zero_arcs = 0
        for cfg, plan, Z, q in _kernel_cases(rng):
            ref = _ReferenceObjective(cfg, plan, q)
            kernel = _EdgeKernel(cfg.terminal_positions(), *plan.arcs(), plan.n_free, q)
            for Zk in (Z, Z + 0.25, Z):  # the buffer is rewritten every call
                assert kernel.cost(Zk).hex() == ref.cost(Zk).hex()
                assert kernel.gradient().tobytes() == ref.gradient(Zk).tobytes()
            zero_arcs += not kernel.dist.all()
            G = position_gradient(cfg, Z, plan, q)
            assert G.tobytes() == ref.gradient(Z).tobytes()
        assert zero_arcs >= 9  # every coincident case took the masked branch

    @pytest.mark.parametrize("max_iter", [500, 5])
    def test_optimize_positions(self, rng, max_iter):
        budget_hits = 0
        for cfg, plan, Z, q in _kernel_cases(rng):
            got = optimize_positions(cfg, plan, Z, q, max_iter=max_iter)
            want = reference_optimize(cfg, plan, Z, q, max_iter=max_iter)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].hex() == want[1].hex()
            assert got[2:] == want[2:]
            budget_hits += not got[3]
        if max_iter == 5:
            assert budget_hits > 0


def _stop_tolerance(cfg, q, grad_tol=1e-9):
    return grad_tol * total_mass(cfg) * cfg.diameter() ** (q - 1.0)


def _laplacian_minimizer(cfg, plan, Z0):
    """Minimizer of the q=2 plan cost from an independently assembled
    weighted graph Laplacian, one loop over arcs; untouched atoms keep Z0."""
    n_term = plan.n_sources + plan.n_sinks
    P = np.vstack([cfg.source_positions(), cfg.sink_positions()])
    L = np.zeros((plan.n_free, plan.n_free))
    rhs = np.zeros((plan.n_free, cfg.dimension))
    for (i, j), f in plan.entries.items():
        u, v = plan.row_to_vertex(i), plan.col_to_vertex(j)
        for a, b in ((u, v), (v, u)):
            if a < n_term:
                continue
            L[a - n_term, a - n_term] += 2.0 * f
            if b < n_term:
                rhs[a - n_term] += 2.0 * f * P[b]
            else:
                L[a - n_term, b - n_term] -= 2.0 * f
    touched = np.flatnonzero(L.diagonal() > 0.0)
    Z = np.array(Z0, dtype=float)
    Z[touched] = np.linalg.solve(L[np.ix_(touched, touched)], rhs[touched])
    return Z


def _junctions(plan):
    """Free atoms with a positive arc that are not relays (one arc in, one
    arc out)."""
    tails, heads, flows = plan.arcs()
    n_term = plan.n_sources + plan.n_sinks
    live = flows > 0.0
    indeg = np.bincount(heads[live], minlength=plan.n_vertices)[n_term:]
    outdeg = np.bincount(tails[live], minlength=plan.n_vertices)[n_term:]
    return np.flatnonzero((indeg + outdeg > 0) & ~((indeg == 1) & (outdeg == 1)))


def _relay_cycles(plan):
    """Whether some positive arcs form a cycle through relays alone."""
    tails, heads, _ = (a[plan.flows > 0.0].tolist() for a in plan.arcs())
    n_term = plan.n_sources + plan.n_sinks
    relays = {v for v in tails if v >= n_term}.difference((_junctions(plan) + n_term).tolist())
    after = dict(zip(tails, heads))
    for v in relays:
        u = after[v]
        for _ in range(len(relays)):
            if u == v or u not in relays:
                break
            u = after[u]
        if u == v:
            return True
    return False


class TestNewtonPolish:
    def test_one_step_solves_the_weighted_laplacian_at_q2(self, rng, monkeypatch):
        # also from a start with a zero-length arc: at q=2 it keeps its
        # curvature.  Newton moves only the junctions, so a plan without
        # one takes no step
        monkeypatch.setattr(positions, "NEWTON_ITERS", 1)
        steps = idle = 0
        for dim in (1, 2, 3):
            for trial in range(8):
                cfg = random_config(rng, dim=dim)
                n = int(rng.integers(1, 7))
                plan = random_feasible_plan(cfg, n, rng, cycle_rate=0.0)
                Z0 = random_positions(cfg, n, rng)
                if trial % 2:
                    assert _coincide(cfg, plan, Z0)
                want = _laplacian_minimizer(cfg, plan, Z0)
                Z, iters, converged = polish_positions(cfg, plan, Z0, 2.0)
                assert (iters, converged) == (int(_junctions(plan).size > 0), True)
                steps += iters
                span = max(1.0, float(np.abs(want).max()))
                assert np.abs(Z - want).max() <= 1e-9 * span
                unused = plan.throughputs() == 0.0
                assert Z[unused].tobytes() == Z0[unused].tobytes()
                idle += int(unused.sum())
        assert steps > 0 and idle > 0

    def test_converges_at_least_as_far_as_gradient_descent(self, rng):
        for cfg, plan, Z0, q in _kernel_cases(rng):
            tol = _stop_tolerance(cfg, q)
            Z, iters, converged = polish_positions(cfg, plan, Z0, q)
            assert converged, (q, cfg.dimension)
            G = position_gradient(cfg, Z, plan, q)
            assert (np.abs(G).max() if G.size else 0.0) <= tol
            # at a shared minimum the two costs differ only by rounding: the
            # gradient line search keeps points whose cost rounded low
            cost = plan_cost(cfg, Z, plan, q)
            assert cost <= optimize_positions(cfg, plan, Z0, q)[1] * (1.0 + COST_ROUNDING)
            idle = plan.throughputs() == 0.0
            assert Z[idle].tobytes() == Z0[idle].tobytes()
            # a rerun is bit-identical
            Z2, iters2, conv2 = polish_positions(cfg, plan, Z0, q)
            assert Z2.tobytes() == Z.tobytes()
            assert (iters2, conv2) == (iters, converged)

    def test_hessian_matches_central_differences(self, rng):
        # relative sup-norm error < 1e-5, as for the gradient
        checked = 0
        while checked < 30:
            q = float(rng.choice([1.5, 2.0, 3.0]))
            cfg = random_config(rng, dim=int(rng.integers(1, 4)))
            n = int(rng.integers(1, 7))
            plan = random_feasible_plan(cfg, n, rng)
            Z = random_positions(cfg, n, rng)
            kernel = _EdgeKernel(cfg.terminal_positions(), *plan.arcs(), plan.n_free, q)
            kernel.cost(Z)
            kernel.gradient()
            H = kernel.hessian()
            if np.abs(H).max() < 1e-8:
                continue  # degenerate draw: no informative signal
            step = 1e-6 * max(1.0, float(np.abs(Z).max()))
            F = np.zeros_like(H)
            for c in range(H.shape[1]):
                up = Z.copy()
                up.flat[c] += step
                dn = Z.copy()
                dn.flat[c] -= step
                diff = position_gradient(cfg, up, plan, q) - position_gradient(cfg, dn, plan, q)
                F[:, c] = diff.ravel() / (2 * step)
            rel = np.abs(H - F).max() / np.abs(H).max()
            assert rel < 1e-5, f"q={q}: relative Hessian error {rel:.2e}"
            checked += 1

    @pytest.mark.parametrize("q", [1.5, 3.0, "oracle"])
    def test_dense_hessian_serves_other_exponents(self, rng, monkeypatch, q):
        # away from q = 2 the arc blocks depend on the arc directions, so
        # the step solves the dense Hessian; so does the oracle's smoothed
        # q = 1 kernel
        calls = {"hessian": 0}

        def counting(self, real=_EdgeKernel.hessian):
            calls["hessian"] += 1
            return real(self)

        monkeypatch.setattr(_EdgeKernel, "hessian", counting)
        cfg = random_config(rng, dim=2)
        plan = random_feasible_plan(cfg, 4, rng, cycle_rate=0.0)
        Z = random_positions(cfg, 4, rng)
        if q == "oracle":
            kernel = _EdgeKernel(
                cfg.terminal_positions(), *plan.arcs()[:2], plan.flows ** 0.5, 4, 1.0, 0.1)
        else:
            kernel = _EdgeKernel(cfg.terminal_positions(), *plan.arcs(), plan.n_free, q)
        kernel.cost(Z)
        assert kernel.newton_direction(kernel.gradient()) is not None
        assert calls == {"hessian": 1}

    def test_no_newton_direction_ends_unconverged(self, monkeypatch):
        # the junctions keep their start; the relays still go to their
        # chains' segments, the optimum for junctions held fixed
        cfg = y_instance()
        Z0 = alternate_minimize(cfg, 6, CostParams(q=2.0)).Z + 0.05
        plan, _ = min_cost_plan(cfg, Z0, 2.0)
        junctions = _junctions(plan)
        assert junctions.size > 0
        monkeypatch.setattr(_EdgeKernel, "newton_direction", lambda self, G: None)
        Z, iters, converged = polish_positions(cfg, plan, Z0, 2.0)
        assert (iters, converged) == (1, False)
        assert Z[junctions].tobytes() == Z0[junctions].tobytes()
        assert plan_cost(cfg, Z, plan, 2.0) < plan_cost(cfg, Z0, plan, 2.0)

    def test_newton_direction_without_a_free_arc_end(self):
        # no arc touches a free row: the Hessian is zero, in floats, and the
        # zero gradient has no descent direction
        cfg = y_instance()
        for q in (1.5, 2.0, 3.0):
            kernel = _EdgeKernel(cfg.terminal_positions(), [0, 1], [2, 2], [1.0, 1.0], 2, q)
            kernel.cost(np.ones((2, 2)))
            G = kernel.gradient()
            H = kernel.hessian()
            assert H.dtype == np.float64 and H.shape == (4, 4) and not H.any()
            assert kernel.newton_direction(G) is None


class TestChainContraction:
    """``polish_positions`` runs Newton on the junctions alone and places
    every chain's relays in closed form."""

    @staticmethod
    def _reference(cfg, plan, Z0, q):
        # Newton on the plan's whole kernel, every atom a free row
        Z, obj, _, tol, floor = positions._position_problem(cfg, plan, Z0, q)
        return positions._newton(obj, Z, tol, floor, positions.NEWTON_ITERS)

    def test_matches_newton_on_the_whole_plan(self, rng, monkeypatch):
        # at the solver's stop test the costs agree; run both to
        # floating-point stationarity, the minimizers agree too.  Where the
        # whole kernel's Newton stops unconverged (it may swing at q < 2 in
        # one dimension), the contraction ends no higher
        compared = unconverged = 0
        for trial in range(180):
            q, dim = (1.5, 2.0, 3.0)[trial % 3], 1 + trial // 3 % 3
            cfg = random_config(rng, dim=dim)
            n = int(rng.integers(1, 8))
            plan = random_feasible_plan(cfg, n, rng, cycle_rate=0.0)
            Z0 = random_positions(cfg, n, rng)
            Z, _, converged = polish_positions(cfg, plan, Z0, q)
            cost = plan_cost(cfg, Z, plan, q)
            Z_ref, cost_ref, _, ref_converged = self._reference(cfg, plan, Z0, q)
            assert converged
            unused = plan.throughputs() == 0.0
            assert Z[unused].tobytes() == Z0[unused].tobytes()
            if not ref_converged:
                unconverged += 1
                assert cost <= cost_ref * (1.0 + 1e-12)
                continue
            assert cost == pytest.approx(cost_ref, rel=1e-12)
            with monkeypatch.context() as exact:
                exact.setattr(positions, "GRAD_TOL", 0.0)
                Z_ref = self._reference(cfg, plan, Z0, q)[0]
                Z = polish_positions(cfg, plan, Z0, q)[0]
            span = max(1.0, float(np.abs(Z_ref).max()))
            assert np.abs(Z - Z_ref).max() <= 1e-9 * span
            compared += 1
        assert compared >= 150 and unconverged < 30

    def test_newton_moves_only_the_junctions(self, monkeypatch):
        # a solve's Newton systems have one row per junction of the plan,
        # at most T - 2 for T terminals, however many relays it has
        rows, junctions = [], []
        real_polish, real_newton = positions.polish_positions, positions._newton

        def polish(config, plan, Z0, q):
            junctions.append(_junctions(plan).size)
            return real_polish(config, plan, Z0, q)

        def newton(obj, Z, *args):
            rows.append(Z.shape[0])
            return real_newton(obj, Z, *args)

        monkeypatch.setattr(positions, "polish_positions", polish)
        monkeypatch.setattr(positions, "_newton", newton)
        for cfg, n, q in ((y_instance(), 48, 2.0),
                          (random_instance(np.random.default_rng([0, 0]), 2, 2), 16, 1.5),
                          (random_instance(np.random.default_rng([7, 3]), 3, 3), 16, 2.5)):
            del rows[:], junctions[:]
            alternate_minimize(cfg, n, CostParams(q=q))
            assert rows == junctions and len(rows) > 0
            assert max(rows) <= cfg.n_sources + cfg.n_sinks - 2

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_a_plan_without_junctions_takes_no_newton_step(self, rng, q):
        # source -> three relays -> sink: the relays go to the quarter points
        cfg = single_edge()
        plan = plan_of(1, 1, 3, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (3, 0): 1.0})
        Z, iters, converged = polish_positions(cfg, plan, random_positions(cfg, 3, rng), q)
        assert (iters, converged) == (0, True)
        assert Z.tolist() == [[0.25, 0.0], [0.5, 0.0], [0.75, 0.0]]
        assert plan_cost(cfg, Z, plan, q) == pytest.approx(4.0 ** (1.0 - q), rel=1e-15)

    def test_cycles_through_relays_alone_converge(self, rng):
        # hand-made plans only: the cycle's arcs stay plain arcs of the
        # kernel, whose Hessian is singular along the cycle's translation.
        # Wherever Newton on the whole kernel converges, so does the
        # contraction, to the same cost (at q = 1.5 a cycle shrinking to a
        # point often stops both unconverged: unbounded curvature there)
        cycles = 0
        for trial in range(450):
            q = (1.5, 2.0, 3.0)[trial % 3]
            cfg = random_config(rng, dim=1 + trial // 3 % 3)
            n = int(rng.integers(2, 8))
            plan = random_feasible_plan(cfg, n, rng, cycle_rate=1.0)
            if not _relay_cycles(plan):
                continue
            Z0 = random_positions(cfg, n, rng)
            Z, _, converged = polish_positions(cfg, plan, Z0, q)
            ref_cost, ref_converged = self._reference(cfg, plan, Z0, q)[1::2]
            if ref_converged:
                assert converged
                assert plan_cost(cfg, Z, plan, q) == pytest.approx(ref_cost, rel=1e-12)
                cycles += 1
        assert cycles >= 25

    def test_matches_the_spread_over_every_chain(self, rng):
        # spreading only the chains that have relays places them as a
        # spread over every chain does, bit for bit, and plan_cost at Z is
        # the whole kernel's cost there up to rounding
        for trial in range(150):
            q = (1.5, 2.0, 3.0)[trial % 3]
            cfg = random_config(rng, dim=1 + trial // 3 % 3)
            n = int(rng.integers(1, 12))
            Z0 = random_positions(cfg, n, rng)
            if trial % 5 == 0:
                plan = random_feasible_plan(cfg, n, rng, cycle_rate=trial % 2)
            else:
                plan = min_cost_plan(cfg, Z0, q)[0]
            Z = polish_positions(cfg, plan, Z0, q)[0]
            Z_ref, obj, _, tol, floor = positions._position_problem(cfg, plan, Z0, q)
            n_term = cfg.n_sources + cfg.n_sinks
            kernel, moved, relays, segments = _EdgeKernel.from_chains(
                obj.P[:n_term], *(a[plan.flows > 0.0].tolist() for a in plan.arcs()),
                n, q)
            atoms = np.array(moved, dtype=np.intp) - n_term
            Z_ref[atoms] = positions._newton(
                kernel, Z_ref[atoms], tol, floor, positions.NEWTON_ITERS)[0]
            Z_ref[np.array(relays, dtype=np.intp) - n_term] = spread_on_segments(
                np.vstack([obj.P[:n_term], Z_ref]), *segments)
            assert Z.tobytes() == Z_ref.tobytes()
            assert plan_cost(cfg, Z, plan, q) == pytest.approx(obj.cost(Z), rel=1e-14, abs=1e-300)

    def test_relays_are_evenly_spaced_on_their_segments(self, rng):
        relays = 0
        for trial in range(60):
            q = (1.5, 2.0, 3.0)[trial % 3]
            cfg = random_config(rng, dim=1 + trial % 3)
            n = int(rng.integers(2, 12))
            Z0 = random_positions(cfg, n, rng)
            plan = min_cost_plan(cfg, Z0, q)[0]
            Z = polish_positions(cfg, plan, Z0, q)[0]
            g = plan_to_graph(cfg, Z, plan)
            span = max(1.0, float(np.abs(g.positions).max()))
            for chain in reduce_graph(g).chains:
                P = g.positions[list(chain.vertices)]
                c = chain.n_interior
                even = P[0] + np.arange(c + 2)[:, None] / (c + 1) * (P[-1] - P[0])
                assert np.abs(P - even).max() <= 1e-12 * span
                relays += c
        assert relays > 100


class TestOptimizePositions:
    def test_single_relay_moves_to_midpoint(self):
        cfg = single_edge()
        plan, _ = min_cost_plan(cfg, np.array([[0.3, 0.4]]), 2.0)
        Z, cost, _, converged = optimize_positions(cfg, plan, np.array([[0.3, 0.4]]), 2.0)
        assert converged
        assert Z[0] == pytest.approx([0.5, 0.0], abs=1e-6)
        assert cost == pytest.approx(0.5, abs=1e-9)

    def test_cost_never_increases(self, rng):
        for _ in range(10):
            cfg = random_config(rng)
            n = int(rng.integers(1, 5))
            Z0 = random_positions(cfg, n, rng)
            plan, cost0 = min_cost_plan(cfg, Z0, 2.0)
            _, cost1, _, _ = optimize_positions(cfg, plan, Z0, 2.0, max_iter=50)
            assert cost1 <= cost0 + 1e-12 * max(1.0, cost0)


class TestSeeds:
    def test_w1_seed_lies_on_transport_segments(self):
        cfg = single_edge()
        Z = w1_seed(cfg, 3)
        assert Z.shape == (3, 2)
        assert np.allclose(Z[:, 1], 0.0)
        assert np.all((Z[:, 0] > 0.0) & (Z[:, 0] < 1.0))

    def test_w1_seed_is_exactly_optimal_for_one_pair(self):
        cfg = single_edge()
        for n in (1, 2, 4):
            Z = w1_seed(cfg, n)
            expected = np.array([(i + 1) / (n + 1) for i in range(n)])
            assert np.sort(Z[:, 0]) == pytest.approx(expected)


class TestAlternateMinimize:
    def test_single_edge_closed_form(self):
        cfg = single_edge()
        res = alternate_minimize(cfg, 1, CostParams(q=2.0, restarts=1))
        assert res.rescaled == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert res.converged
        assert check_plan(res.plan, cfg) == []

    def test_zero_relays_degenerates_to_wasserstein(self):
        cfg = single_edge()
        res = alternate_minimize(cfg, 0, CostParams(q=2.0, restarts=0))
        assert res.cost_q == pytest.approx(1.0)
        assert res.rescaled == 0.0
        assert res.n == 0

    def test_zero_relay_plan_is_feasible_with_many_terminals(self, rng):
        cfg = random_config(rng, n_sources=3, n_sinks=3)
        res = alternate_minimize(cfg, 0, CostParams(q=2.0, restarts=0))
        assert check_plan(res.plan, cfg) == []

    def test_zero_relays_is_the_plan_lp_without_relays(self, rng):
        for q in (1.5, 2.0, 3.0):
            cfg = random_config(rng, n_sources=3, n_sinks=4)
            res = alternate_minimize(cfg, 0, CostParams(q=q, restarts=0))
            plan, cost = min_cost_plan(cfg, None, q)
            assert list(res.plan.entries.items()) == list(plan.entries.items())
            assert res.plan.n_free == plan.n_free == 0
            assert res.cost_q.hex() == cost.hex()

    def test_deterministic_given_seed(self):
        cfg = y_instance()
        params = CostParams(q=2.0, restarts=2)
        a = alternate_minimize(cfg, 4, params)
        b = alternate_minimize(cfg, 4, params)
        assert a.cost_q == b.cost_q
        assert np.array_equal(a.Z, b.Z)
        assert a.plan.entries == b.plan.entries

    def test_restart_bookkeeping(self):
        cfg = y_instance()
        res = alternate_minimize(cfg, 3, CostParams(q=2.0, restarts=2))
        assert res.n_starts == 3
        assert 0 <= res.start_index < 3
        assert len(res.start_costs) == 3
        assert min(res.start_costs) == pytest.approx(res.cost_q, rel=1e-12)

    def test_source_and_sink_sharing_a_point(self):
        # the reduced tree keeps the zero-length source-sink edge, which the
        # allocation refuses: the rebalance then proposes nothing
        at = branchflow.Atom
        alone = branchflow.SignedConfig((at((0.0, 0.0), 1.0),), (at((0.0, 0.0), 1.0),), 2)
        beside = branchflow.SignedConfig(
            (at((0.0, 0.0), 1.0), at((1.0, 0.0), 1.0)),
            (at((0.0, 0.0), 1.0), at((1.0, 1.0), 1.0)), 2,
        )
        for n in (1, 2, 4):
            res = alternate_minimize(alone, n, CostParams(q=2.0))
            assert res.cost_q == 0.0
            assert check_plan(res.plan, alone) == []
            # n relays on the unit edge: (n + 1) hops of length 1 / (n + 1)
            res = alternate_minimize(beside, n, CostParams(q=2.0))
            assert res.cost_q == pytest.approx(1.0 / (n + 1), rel=1e-9)
            assert check_plan(res.plan, beside) == []

    def test_more_atoms_never_hurt_on_the_y(self):
        cfg = y_instance()
        params = CostParams(q=2.0, restarts=2)
        costs = [alternate_minimize(cfg, n, params).wbar for n in (1, 2, 4)]
        assert costs == sorted(costs, reverse=True)

    def test_inner_budget_hits_count_every_descent(self, monkeypatch):
        # independent count: every optimize_positions and polish_positions
        # call that returns converged=False, over all starts, losing ones and
        # rebalances included
        hits = []

        def counting(real):
            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                hits.append(not out[-1])  # converged is last in both
                return out
            return wrapper

        for name in ("optimize_positions", "polish_positions"):
            monkeypatch.setattr(positions, name, counting(getattr(positions, name)))
        res = alternate_minimize(y_instance(), 24, CostParams(q=2.0))
        assert res.inner_budget_hits == sum(hits) > 0
        assert res.converged  # outer convergence keeps its meaning

    def test_inner_budget_hits_count_every_newton_hit(self, monkeypatch):
        # Newton capped at one iteration misses the gradient tolerance on a
        # 2+2 instance at q=1.5: every position solve that returns
        # converged=False is a hit, polish and gradient descent alike
        hits = {"optimize_positions": 0, "polish_positions": 0}
        real = {name: getattr(positions, name) for name in hits}

        def optimize(*args, **kwargs):
            out = real["optimize_positions"](*args, **kwargs)
            hits["optimize_positions"] += not out[3]
            return out

        def polish(*args, **kwargs):
            out = real["polish_positions"](*args, **kwargs)
            hits["polish_positions"] += not out[2]
            return out

        monkeypatch.setattr(positions, "NEWTON_ITERS", 1)
        monkeypatch.setattr(positions, "optimize_positions", optimize)
        monkeypatch.setattr(positions, "polish_positions", polish)
        cfg = branchflow.random_instance(np.random.default_rng([0, 0]), 2, 2)
        res = alternate_minimize(cfg, 16, CostParams(q=1.5))
        assert hits["polish_positions"] > 0
        assert res.inner_budget_hits == sum(hits.values())

    @pytest.mark.parametrize("case", ["y_n24_q2", "2+2_n16_q1.5"])
    def test_rebalance_settles_end_stationary(self, monkeypatch, case):
        # a rebalance settle that reports a stable support returns positions
        # at a position optimum of the plan it returns
        if case == "y_n24_q2":
            cfg, n, q = y_instance(), 24, 2.0
        else:
            cfg, n, q = branchflow.random_instance(np.random.default_rng([0, 0]), 2, 2), 16, 1.5
        events = []
        real_layout, real_settle = positions._rebalance_layout, positions._settle

        def layout(*args):
            out = real_layout(*args)
            events.append(("layout", out))
            return out

        def settle(*args):
            out = real_settle(*args)
            events.append(("settle", out))
            return out

        monkeypatch.setattr(positions, "_rebalance_layout", layout)
        monkeypatch.setattr(positions, "_settle", settle)
        alternate_minimize(cfg, n, CostParams(q=q))
        settled = [b[1] for a, b in zip(events, events[1:])
                   if a[0] == "layout" and a[1] is not None and b[1][3]]
        assert len(settled) > 0
        for Z, plan, *_ in settled:
            G = position_gradient(cfg, Z, plan, q)
            assert np.abs(G).max() <= _stop_tolerance(cfg, q)

    def test_iterations_count_the_winning_starts_settle_passes(self, monkeypatch):
        # every settle after a _descend call belongs to that call's start
        starts = []
        real_descend, real_settle = positions._descend, positions._settle

        def descend(*args):
            starts.append([])
            return real_descend(*args)

        def settle(*args):
            out = real_settle(*args)
            starts[-1].append(out[4])
            return out

        monkeypatch.setattr(positions, "_descend", descend)
        monkeypatch.setattr(positions, "_settle", settle)
        cfg = branchflow.random_instance(np.random.default_rng([0, 0]), 2, 2)
        res = alternate_minimize(cfg, 16, CostParams(q=1.5))
        assert len(starts) == res.n_starts
        won = starts[res.start_index]
        assert res.iterations == sum(won)
        assert res.iterations > len(won)  # some settle took more than one pass
        assert res.converged

    def test_a_cascade_runs_past_twelve_proposals(self, monkeypatch):
        # at Y n=84 the winning start's cascade settles more than twelve
        # proposed layouts before one is rejected or none is proposed
        proposals = []
        real_descend, real_layout = positions._descend, positions._rebalance_layout

        def descend(*args):
            proposals.append(0)
            return real_descend(*args)

        def layout(*args):
            out = real_layout(*args)
            proposals[-1] += out is not None
            return out

        monkeypatch.setattr(positions, "_descend", descend)
        monkeypatch.setattr(positions, "_rebalance_layout", layout)
        res = alternate_minimize(y_instance(), 84, CostParams(q=2.0))
        assert proposals[res.start_index] > 12
        assert res.converged

    def test_report_document_shape(self):
        cfg = single_edge()
        res = alternate_minimize(cfg, 1, CostParams(q=2.0, restarts=0))
        doc = solve_result_to_dict(res)
        assert {"n", "q", "cost_q", "wbar", "rescaled", "converged",
                "inner_budget_hits", "free_atoms", "plan"} <= set(doc)
        assert doc["inner_budget_hits"] == res.inner_budget_hits


class TestSettleStops:
    def test_a_settle_needing_more_than_five_passes_ends_stable(self, monkeypatch):
        # settled straight from the W_1 seed's plan, without the descent's
        # gradient steps, this 2+2 support moves on six passes; every plan
        # solve costs less than the one before, and the settle ends on a
        # stable support at its position optimum
        cfg, n, q = random_instance(np.random.default_rng([0, 3]), 2, 2), 32, 2.0
        basis = TreeBasis()
        Z0 = w1_seed(cfg, n)
        plan = min_cost_plan(cfg, Z0, q, basis)[0]
        costs = []

        def plan_step(*args):
            out = min_cost_plan(*args)
            costs.append(out[1])
            return out

        monkeypatch.setattr(positions, "min_cost_plan", plan_step)
        Z, plan, cost, stable, passes, hits = positions._settle(cfg, Z0, plan, q, basis)
        assert stable and passes > 5 and hits == 0
        assert len(costs) == passes and costs[-1] == cost
        assert all(b < a for a, b in zip(costs, costs[1:]))
        assert np.abs(position_gradient(cfg, Z, plan, q)).max() <= _stop_tolerance(cfg, q)

    @pytest.mark.parametrize("drop,stops", [(0.0, (False, 2)), (0.5, (False, 2)),
                                            (2.0, (True, 5))])
    def test_a_settle_stops_when_a_pass_no_longer_lowers_the_cost(
            self, monkeypatch, drop, stops):
        # plan solves that swap between two supports for four passes, each
        # costing ``drop`` rounding errors less than the one before: a pass
        # that lowers the cost by no more than its rounding error ends the
        # settle unstable; a larger fall lets it go on to the support that
        # holds
        cfg, n, q = y_instance(), 12, 2.0
        rng = np.random.default_rng(0)
        plans = [min_cost_plan(cfg, positions._random_seed_positions(cfg, n, rng), q)[0]
                 for _ in range(2)]
        assert not np.array_equal(plans[0].rows, plans[1].rows)
        calls = 0

        def plan_step(config, Z, q, basis):
            nonlocal calls
            calls += 1
            return plans[min(calls, 4) % 2], 1.0 - drop * COST_ROUNDING * calls

        monkeypatch.setattr(positions, "min_cost_plan", plan_step)
        out = positions._settle(cfg, rng.uniform(-1, 1, (n, 2)), plans[0], q, TreeBasis())
        assert (out[3], out[4]) == stops and calls == out[4]
        assert out[1] is plans[0]


def _objective_cases():
    """(name, config, n, params) of the solves whose cost_q is checked
    against their plan's LP objective."""
    for n in (6, 12, 24, 48):
        yield f"Y n={n}", y_instance(), n, CostParams(q=2.0)
    for k in range(4):
        q = 1.5 if k % 2 == 0 else 3.0
        config = random_instance(np.random.default_rng([0, k]), 2, 2)
        for n in (8, 16):
            yield f"2+2 k={k} n={n}", config, n, CostParams(q=q)
    for k in range(12):
        yield (f"3+3 k={k}", random_instance(np.random.default_rng([7, k]), 3, 3), 16,
               CostParams(q=2.5))
    wide = random_instance(np.random.default_rng([0, 0]), 64, 64, total_mass=64)
    yield "64+64", wide, 32, CostParams(q=2.0, restarts=2)


class TestCostIsThePlansObjective:
    def test_cost_q_is_the_plan_lp_objective_at_Z(self):
        # the Y ladder, the 2+2 instances certified at q = 1.5 and 3, twelve
        # 3+3 instances at q = 2.5 and a 64+64 plan: cost_q is the sum of
        # flow * cost over the plan's entries, left to right, bit for bit
        names = []
        for name, config, n, params in _objective_cases():
            res = alternate_minimize(config, n, params)
            plan = res.plan
            F = cost_matrix(config, res.Z, params.q)
            total = 0.0
            for g, c in zip(plan.flows.tolist(), F[plan.rows, plan.cols].tolist()):
                total += g * c
            assert res.cost_q == total, name
            names.append(name)
        assert len(names) == 25


def _one_edge_graph():
    return graph_of(np.array([[0.0, 0.0], [1.0, 0.0]]), ("source", "sink"), [(0, 1, 1.0, 1.0)])


#: keyword options retired in favour of module constants, each called with
#: otherwise valid arguments
RETIRED = {
    **{f"CostParams.{name}": (name, lambda name=name: CostParams(q=2.0, **{name: 1}))
       for name in ("grad_tol", "rel_tol", "max_rounds", "inner_iters", "polish_iters")},
    "alternate_minimize.q": (
        "q", lambda: alternate_minimize(single_edge(), 1, CostParams(q=2.0), q=2.0)),
    "alternate_minimize default params": (
        "params", lambda: alternate_minimize(single_edge(), 1)),
    "MinCostFlowNetwork.solve.max_augmentations": (
        "max_augmentations",
        lambda: MinCostFlowNetwork(np.ones((1, 1)), 1, 1, np.array([1]), np.array([1]))
        .solve(max_augmentations=10)),
    "reduce_graph.flow_rtol": (
        "flow_rtol", lambda: reduce_graph(_one_edge_graph(), flow_rtol=1e-6)),
    "render_svg.size": ("size", lambda: render_svg(_one_edge_graph(), size=640)),
    "WeightedDigraph.labels": (
        "labels", lambda: WeightedDigraph(np.zeros((1, 2)), ("free",), [], [], [], [],
                                          labels=())),
    "render.size": ("size", lambda: render(_one_edge_graph(), "unwritten.svg", size=640)),
    "check_plan.tol": (
        "tol", lambda: check_plan(plan_of(1, 1, 0, {(0, 0): 1.0}), single_edge(),
                                  tol=1e-9)),
}


class TestRetiredOptions:
    @pytest.mark.parametrize("case", list(RETIRED))
    def test_retired_keyword_raises_type_error(self, case):
        name, call = RETIRED[case]
        with pytest.raises(TypeError, match=name):
            call()

    def test_api_shape(self):
        assert [f.name for f in dataclasses.fields(CostParams)] == ["q", "restarts", "seed"]
        assert not hasattr(branchflow, "FreeAtoms")
        res = alternate_minimize(single_edge(), 2, CostParams(q=2.0, restarts=0))
        assert type(res.Z) is np.ndarray and res.Z.shape == (2, 2)
