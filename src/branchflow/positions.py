"""Position optimization and the outer alternating minimization.

For a fixed feasible plan the objective sum(flow * |tail - head|^q) is a
convex, continuously differentiable function of the free-atom positions
(q > 1 keeps the gradient finite at coincident points).  Both position
solvers run on an edge-list kernel built once per plan: one gather of both
ends of every arc from a preallocated position buffer, the arc vectors of
the accepted line-search point reused for the next gradient, and the
gradient scattered with one bincount.  Each start's first position solve
is gradient descent with Armijo backtracking, capped at INNER_ITERS
iterations; Newton there would shorten the benchmark's single-edge
warm-up below the speed probe's first sample, which then fails, so it
waits on the probe fix.  Every other position solve is damped Newton on
the junctions alone: for fixed ends a chain's c relays of flow f are
optimal evenly spaced on its segment, at cost f * L^q * (c+1)^(1-q)
(``allocate``'s formula), so each chain is one arc of the kernel
(``_EdgeKernel.from_chains``), the Hessian has one block row per junction
at every atom count, and the relays are placed after the solve.  Every
position solve stops at the gradient tolerance GRAD_TOL.  The
contraction, the kernel and the Newton loop, with its one budget
NEWTON_ITERS, also solve the oracle's fixed topologies
(``oracle.solve_topology``): exponent 1, per-arc weights, smoothed
lengths, so one geometric kernel serves both.

The outer loop settles plan and positions for one point allocation at a
time: Newton moves the atoms to the plan's position optimum, the exact
plan is re-solved there, and the two alternate until the plan's support
stops changing, or, unstable, until a pass stops lowering the plan's
cost; no pass count caps it.  Every plan is a simplex basic solution, so
its support is already a forest and each of its flows is at least one
mass unit: nothing prunes or regularizes it.  A start settles after one
plan solve and one gradient descent.  Alternation alone cannot move an
atom from one branch to another once the support has frozen, so a
cost-guarded rebalance redistributes the atom count over the current reduced tree by
the closed-form allocation and settles that layout's plan; a budget too
small for any reduced tree of the plan is refused before a graph is
built, and after a stable settle an allocation that keeps every chain's
relay count, which only permutes the atoms, ends the cascade unsolved.
A multistart layer sits on top, since the joint problem is not
convex.  All the plan solves of one call share one plan network: each
start re-prices it at its own layout and threads the W_1 coupling onto
it for its first solve.  The starts of one call also share their
cascades: each plan support a start settled stably onto is recorded with
the cost that start ended at, and a later start that settles stably onto
a recorded support stops there with that cost, since from one support the
cascade repeats the same steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    CostParams,
    InvalidConfigError,
    SignedConfig,
    total_mass,
    validate,
)
from .transport import (
    SolverError,
    TransportPlan,
    TreeBasis,
    _squared_lengths,
    as_positions,
    integer_mass_units,
    min_cost_plan,
)
# never called here: the import only keeps the name positions.regularize,
# which perfbench/spans.py patches to trace it
from .regularize import regularize  # noqa: F401
from .graphs import plan_to_graph, reduce_graph, relay_chains
from .allocate import allocate, spread_on_segments

MONOTONE_SLACK = 1e-9
#: a cost improves on another only when lower by more than this, relative:
#: a rebalance is accepted, a start wins and an oracle topology is cheaper
IMPROVEMENT_RTOL = 1e-12
#: relative rounding error allowed for one evaluation of a plan's cost
COST_ROUNDING = 16.0 * float(np.finfo(float).eps)
#: position solves stop at a gradient sup-norm of this times mass * diam^(q-1)
GRAD_TOL = 1e-9
#: gradient-descent iterations for a start's first position solve
INNER_ITERS = 500
#: Newton iterations per position solve and per oracle smoothing level:
#: the solver's take at most 5 and the oracle's about 20, but one from an
#: arbitrary plan at q = 1.5 in one dimension took 62
NEWTON_ITERS = 100


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of one full minimization at a given atom count; ``Z`` holds
    the (n, dim) free-atom positions.  Results compare by identity."""

    Z: np.ndarray
    plan: TransportPlan
    #: the LP objective of ``plan`` at ``Z``, as the solve of ``plan`` summed it
    cost_q: float
    n: int
    q: float
    #: settle passes of the winning start, its descent's and its proposals'
    iterations: int
    #: every settle of the winning start ended on a stable plan support,
    #: not on a pass that no longer lowered the plan's cost
    converged: bool
    start_index: int = 0
    n_starts: int = 1
    unused_atoms: int = 0
    #: each start's final cost; a start that stopped on a plan an earlier
    #: start had settled onto reports the cost that earlier start ended at
    start_costs: tuple[float, ...] = ()
    #: position solves, over every start and rebalance, that stopped
    #: unconverged (at INNER_ITERS, NEWTON_ITERS or without a Newton step);
    #: a start that stopped on an earlier start's plan adds only its own
    inner_budget_hits: int = 0

    @property
    def wbar(self) -> float:
        return self.cost_q ** (1.0 / self.q)

    @property
    def rescaled(self) -> float:
        return self.n ** ((self.q - 1.0) / self.q) * self.wbar


class _EdgeKernel:
    """Cost, gradient and Hessian of a sum over arcs as the free rows vary.

    Vertices are the fixed rows followed by the free rows.  Arc k joins
    vertex ``tails[k]`` to ``heads[k]`` with weight ``w[k]``; with arc vector
    d and smoothing radius eps it costs ``w * (|d|^2 + eps^2)^(q/2)``, |d|^2
    by ``transport._squared_lengths``.  A plan's q-power cost is the kernel
    with the terminals fixed, one arc per plan entry in key order
    (:meth:`TransportPlan.arcs`), weight its flow, and eps 0
    (``_position_problem``).  The oracle's kernels are at q = 1, and it
    lowers ``eps`` between solves.

    ``cost(Z)`` writes Z below the fixed rows of a preallocated position
    buffer, gathers the tail and head ends of every arc with one ``take``,
    and keeps the arc vectors and smoothed lengths; ``gradient()`` reuses
    them, so it is the gradient at the last point passed to ``cost``.  The
    gradient is scattered with one ``np.bincount`` over flat
    ``atom * dim + k`` bins, tail ends first and head ends second: the same
    additions, in the same order, as one ``np.add.at`` per side.
    ``newton_direction(G)`` solves with the dense Hessian at the same
    point, assembled from the arc vectors and the gradient's per-arc
    coefficients; Newton's kernels (``from_chains``) have few free rows.
    """

    def __init__(self, fixed: np.ndarray, tails, heads, weights, n_free: int,
                 q: float, eps: float = 0.0):
        """Kernel over ``fixed`` rows plus ``n_free`` free rows and the given
        weighted arcs (vertex ids index fixed rows first)."""
        self.q = q
        self.eps = eps
        n_term, dim = fixed.shape
        self.dim, self.n_term = dim, n_term
        # tails, then heads, as vertex ids
        self.ends = np.concatenate(
            (np.asarray(tails, dtype=np.intp), np.asarray(heads, dtype=np.intp)))
        m = self.m = len(tails)
        self.weights = np.array(weights, dtype=float)
        self.qweights = q * self.weights
        self.P = np.empty((n_term + n_free, dim))
        self.P[:n_term] = fixed
        self.free_rows = self.P[n_term:]
        # arc ends at free rows, and their flat gradient bins
        self.free_ends = np.flatnonzero(self.ends >= n_term)
        atoms = self.ends[self.free_ends] - n_term
        self.bins = (atoms[:, None] * dim + np.arange(dim)).ravel()
        self.G_shape = (n_free, dim)
        self.n_bins = n_free * dim
        # per arc end: +contribution at the tail, -contribution at the head
        self.W = np.empty((2 * m, dim))
        self.W_tail, self.W_head = self.W[:m], self.W[m:]
        self.d = self.dist = self.coef = None
        self.hessian_bins = None

    @classmethod
    def from_chains(cls, fixed: np.ndarray, tails: list[int], heads: list[int],
                    weights: list[float], n_free: int, q: float, eps: float = 0.0):
        """The kernel with each chain of ``graphs.relay_chains`` one arc
        between its ends, weighted by its first arc's weight times
        (c+1)^(1-q) for c relays: its least cost, relays evenly spaced.
        Arcs on a cycle through relays alone stay.  Returns the kernel, the
        vertex ids of its free rows (the free vertices with an arc that no
        chain passes through), the relays, and the (starts, ends, counts)
        that ``spread_on_segments`` places them by."""
        n_fixed = len(fixed)
        order, bounds, starts, ends, inner = relay_chains(
            tails, heads, [False] * n_fixed + [True] * n_free)
        counts = [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        loops = sorted(set(range(len(tails))).difference(order))
        moved = sorted(set(tails).union(heads).difference(inner, range(n_fixed)))
        row = dict(zip(moved, range(n_fixed, n_fixed + len(moved))))
        kernel = cls(
            fixed,
            [row.get(v, v) for v in starts + [tails[k] for k in loops]],
            [row.get(v, v) for v in ends + [heads[k] for k in loops]],
            [weights[order[lo]] * (c + 1.0) ** (1.0 - q) for lo, c in zip(bounds, counts)]
            + [weights[k] for k in loops],
            len(moved), q, eps)
        return kernel, moved, inner, (starts, ends, counts)

    def cost(self, Z: np.ndarray) -> float:
        self.free_rows[...] = Z
        E = self.P.take(self.ends, axis=0)
        d = E[: self.m] - E[self.m :]
        sq = _squared_lengths(d)
        if self.eps:
            sq += self.eps * self.eps
        dist = np.sqrt(sq)
        self.d, self.dist = d, dist
        return float((self.weights * dist**self.q).sum())

    def gradient(self) -> np.ndarray:
        dist = self.dist
        if dist.all():
            coef = self.qweights * dist ** (self.q - 2.0)
        else:
            # coincident endpoints contribute zero (the power may be inf)
            coef = np.zeros_like(dist)
            pos = dist > 0.0
            coef[pos] = self.qweights[pos] * dist[pos] ** (self.q - 2.0)
        self.coef = coef
        np.multiply(coef[:, None], self.d, out=self.W_tail)
        np.negative(self.W_tail, out=self.W_head)
        G = np.bincount(
            self.bins,
            weights=self.W.take(self.free_ends, axis=0).ravel(),
            minlength=self.n_bins,
        )
        return G.reshape(self.G_shape)

    def hessian(self) -> np.ndarray:
        """Dense Hessian at the point of the last ``gradient()`` call.

        The block of one arc is coef * (I + (q - 2) u u^T), with coef =
        q * w * dist^(q-2) the gradient's coefficient, dist the smoothed
        length sqrt(|d|^2 + eps^2) and u = d / dist.  At q = 2 the block is
        2 * w * I at every length, so the Hessian is a weighted graph
        Laplacian and exact.  At q = 1 and eps > 0, |u| < 1 keeps every
        block positive definite.  Unsmoothed zero-length arcs add no
        curvature, as they add no gradient: their curvature is 0 for q > 2
        and unbounded for q < 2.
        """
        dim, m = self.dim, self.m
        if self.hessian_bins is None:
            # a free end gets its arc's block on its diagonal, an arc with
            # two free ends the negated block off it; built on first use
            free = np.zeros(2 * m, dtype=bool)
            free[self.free_ends] = True
            both = np.flatnonzero(free[:m] & free[m:])
            atoms = self.ends - self.n_term
            rows = np.concatenate([atoms[self.free_ends], atoms[both], atoms[m + both]])
            cols = np.concatenate([atoms[self.free_ends], atoms[m + both], atoms[both]])
            k = np.arange(dim)
            self.entry_arcs = np.concatenate([self.free_ends % m, both, both])
            self.entry_signs = np.concatenate(
                [np.ones(self.free_ends.size), -np.ones(2 * both.size)])
            self.hessian_bins = (
                (rows[:, None, None] * dim + k[:, None]) * self.n_bins
                + cols[:, None, None] * dim + k
            ).ravel()
        if self.q == 2.0:
            B = self.qweights[:, None, None] * np.eye(dim)
        else:
            coef = self.coef
            B = coef[:, None, None] * np.eye(dim)
            pos = self.dist > 0.0
            u = np.zeros_like(self.d)
            u[pos] = self.d[pos] / self.dist[pos, None]
            B += ((self.q - 2.0) * coef)[:, None, None] * (u[:, :, None] * u[:, None, :])
        H = np.bincount(
            self.hessian_bins,
            weights=(self.entry_signs[:, None, None] * B[self.entry_arcs]).ravel(),
            minlength=self.n_bins * self.n_bins,
        )
        # without a free arc end the bincount is empty, and so int64
        return H.astype(float, copy=False).reshape(self.n_bins, self.n_bins)

    def newton_direction(self, G: np.ndarray) -> np.ndarray | None:
        """Newton direction -H^-1 G at the point of the last ``gradient()``
        call, or None when the solve fails or its result is not a descent
        direction.  A singular Hessian (a free row without an arc, zero-length
        arcs, a cycle of relays that can move as one) gets a ridge of 1e-12
        times its largest diagonal entry."""
        H, rhs = self.hessian(), -G.ravel()
        try:
            p = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            H[np.diag_indices_from(H)] += 1e-12 * max(float(H.diagonal().max()), 1e-300)
            try:
                p = np.linalg.solve(H, rhs)
            except np.linalg.LinAlgError:
                return None
        p = p.reshape(self.G_shape)
        if not (np.isfinite(p).all() and float(p.ravel() @ G.ravel()) < 0.0):
            return None
        return p


def position_gradient(
    config: SignedConfig, Z, plan: TransportPlan, q: float
) -> np.ndarray:
    """Gradient of the plan's q-power cost w.r.t. each free atom position.

    Per arc the gradient of flow*|d|^q is q*flow*|d|^(q-2)*d, which tends
    to zero as |d| -> 0 for every q > 1; coincident endpoints therefore
    contribute zero.  Atoms without incident positive flow get a zero row.
    Raises ValueError, as the position solvers do, for q <= 1 or a Z whose
    row count is not the plan's number of free atoms.
    """
    Z, obj = _position_problem(config, plan, Z, q)[:2]
    obj.cost(Z)
    return obj.gradient()


def _position_scales(
    config: SignedConfig, plan: TransportPlan, Z0, q: float
) -> tuple[np.ndarray, float, float, float]:
    """Checked start, diameter, gradient tolerance and line-search floor
    shared by the two position solvers and ``position_gradient``."""
    if q <= 1.0:
        raise ValueError(f"optimization requires q > 1, got {q}")
    Z = as_positions(Z0, config.dimension).copy()
    if Z.shape[0] != plan.n_free:
        raise ValueError("Z0 and plan disagree on the number of free atoms")
    diam = config.diameter()
    scale = max(total_mass(config) * max(diam, 1e-300) ** (q - 1.0), 1e-300)
    floor = 1e-16 * max(diam, 1e-12)
    return Z, diam, GRAD_TOL * scale, floor


def _position_problem(
    config: SignedConfig, plan: TransportPlan, Z0, q: float
) -> tuple[np.ndarray, _EdgeKernel, float, float, float]:
    """``_position_scales`` with the plan's whole kernel after Z."""
    Z, diam, tol, floor = _position_scales(config, plan, Z0, q)
    kernel = _EdgeKernel(config.terminal_positions(), *plan.arcs(), plan.n_free, q)
    return Z, kernel, diam, tol, floor


def optimize_positions(
    config: SignedConfig,
    plan: TransportPlan,
    Z0,
    q: float,
    max_iter: int = INNER_ITERS,
) -> tuple[np.ndarray, float, int, bool]:
    """Minimize the fixed-plan cost over free positions.

    Gradient descent with Armijo backtracking (constant 1e-4, halving;
    each iteration starts from twice the last accepted step); the function
    is convex for q > 1, so this finds the global minimum for the given
    plan.  Stops when the sup-norm of the gradient drops below
    GRAD_TOL * total_mass * diameter^(q-1), an invariant scaling of the
    stationarity residual.  Returns (Z, cost, iterations, converged); on
    budget exhaustion the best iterate is returned with converged False.
    Atoms the plan never touches keep their Z0 rows.

    Cost and gradient come from the plan's edge-list kernel (see
    ``_EdgeKernel``): each trial point costs one gather and a few array
    operations over the arcs, and the gradient at an accepted point reuses
    the arc vectors its cost already computed.
    """
    Z, obj, diam, tol, floor = _position_problem(config, plan, Z0, q)
    f = obj.cost(Z)
    step = None
    iters = 0
    # obj.gradient() is taken at the last point costed: Z, or the accepted Z_new
    for iters in range(1, max_iter + 1):
        G = obj.gradient()
        gmax = float(np.abs(G).max()) if G.size else 0.0
        if gmax <= tol:
            return Z, f, iters - 1, True
        gsq = float((G * G).sum())
        gnorm = math.sqrt(gsq)
        if step is None:
            step = max(diam, 1e-12) / max(gnorm, 1e-300)
        else:
            step *= 2.0
        accepted = False
        while step * gnorm > floor:
            Z_new = Z - step * G
            f_new = obj.cost(Z_new)
            if f_new <= f - 1e-4 * step * gsq:
                Z, f = Z_new, f_new
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # line search stalled at floating-point resolution: stationary
            return Z, f, iters, True
    G = obj.gradient()
    gmax = float(np.abs(G).max()) if G.size else 0.0
    return Z, f, iters, gmax <= tol


def _newton(
    obj: _EdgeKernel,
    Z: np.ndarray,
    tol: float,
    floor: float,
    max_iter: int,
    step_tol: float = 0.0,
) -> tuple[np.ndarray, float, int, bool]:
    """Damped Newton on a kernel from Z, until the sup-norm of the gradient
    is at most ``tol`` or that of the Newton step at most ``step_tol``.

    The direction is ``obj.newton_direction``; the Armijo test (constant
    1e-4) starts at step length 1 and halves while the step is longer than
    ``floor``.  Near the minimizer the predicted decrease falls below the
    rounding error of the cost, so a trial point whose cost is not
    measurably higher (within COST_ROUNDING, relative) is also accepted
    when it lowers the sup-norm of the gradient.  A line search that
    accepts no step ends the solve as stationary to floating-point
    resolution; a direction that cannot be computed ends it unconverged.
    Returns (Z, cost, iterations, converged).
    """
    f = obj.cost(Z)
    iters, converged = 0, None
    # obj.gradient() is taken at the last point costed: Z, or the accepted Z_new
    for iters in range(1, max_iter + 1):
        G = obj.gradient()
        gmax = float(np.abs(G).max()) if G.size else 0.0
        if gmax <= tol:
            iters, converged = iters - 1, True
            break
        P = obj.newton_direction(G)
        if P is None:
            converged = False
            break
        # a Newton direction is never zero, so step_tol 0 never stops here
        if float(np.abs(P).max()) <= step_tol:
            iters, converged = iters - 1, True
            break
        slope = float((G * P).sum())
        t, pnorm = 1.0, math.sqrt(float((P * P).sum()))
        while t * pnorm > floor:
            Z_new = Z + t * P
            f_new = obj.cost(Z_new)
            if f_new <= f + 1e-4 * t * slope and f_new < f:
                break
            # within its rounding error the cost cannot tell a step from its
            # overshoot, nor a decrease from noise: the gradient decides
            if (f_new <= f * (1.0 + COST_ROUNDING)
                    and float(np.abs(obj.gradient()).max()) < gmax):
                break
            t *= 0.5
        else:
            # no step along the Newton direction decreases the cost at
            # floating-point resolution
            converged = True
            break
        Z, f = Z_new, f_new
    if converged is None:
        G = obj.gradient()
        converged = (float(np.abs(G).max()) if G.size else 0.0) <= tol
    return Z, f, iters, converged


def polish_positions(
    config: SignedConfig,
    plan: TransportPlan,
    Z0,
    q: float,
) -> tuple[np.ndarray, int, bool]:
    """Minimize the fixed-plan cost over free positions: damped Newton on
    the plan's junctions, its relays in closed form.

    Same objective, stop test and line-search floor as
    ``optimize_positions``.  ``_newton``, capped at NEWTON_ITERS, runs on
    the plan's positive arcs with their relay chains contracted
    (``_EdgeKernel.from_chains``), then the relays of each chain that has
    any are spread evenly on its segment.  At q = 2 one step reaches the
    minimizer.  Atoms without a positive arc keep their Z0 rows.  Returns
    (Z, iterations, converged); no cost is computed, since the next plan
    solve prices the positions (``transport.plan_cost`` gives the plan's
    own cost at Z).
    """
    Z, _, tol, floor = _position_scales(config, plan, Z0, q)
    fixed = config.terminal_positions()
    n_term = len(fixed)
    kernel, moved, relays, (starts, ends, counts) = _EdgeKernel.from_chains(
        fixed, *(a.tolist() for a in plan.pruned(0.0).arcs()), plan.n_free, q)
    atoms = np.array(moved, dtype=np.intp) - n_term
    Z[atoms], _, iters, converged = _newton(kernel, Z[atoms], tol, floor, NEWTON_ITERS)
    P = np.vstack([fixed, Z])
    spread = [k for k, c in enumerate(counts) if c]
    Z[np.array(relays, dtype=np.intp) - n_term] = spread_on_segments(
        P, [starts[k] for k in spread], [ends[k] for k in spread], [counts[k] for k in spread])
    return Z, iters, converged


def w1_seed(config: SignedConfig, n: int, basis: TreeBasis | None = None) -> np.ndarray:
    """Deterministic start: atoms along the W_1-optimal matching segments.

    The q=1 coupling between the terminal measures, the zero-relay plan LP
    at q = 1, picks out transport segments; atoms are distributed over them
    proportionally to flow times length (largest-remainder), equally spaced
    inside each segment.  Exactly optimal for a single source-sink pair.
    ``basis``, when given, is an empty basis on which the coupling is
    solved, so it keeps the coupling's network and final tree.
    """
    tails, heads, flows = min_cost_plan(config, None, 1.0, basis)[0].arcs()
    T = config.terminal_positions()
    if not flows.size:
        anchor = T[0] if config.n_sources else np.zeros(config.dimension)
        return np.tile(anchor, (n, 1))
    weights = flows * np.sqrt(_squared_lengths(T.take(heads, axis=0) - T.take(tails, axis=0)))
    if weights.sum() <= 0:
        weights = np.ones(flows.size)
    return spread_on_segments(
        T, tails.tolist(), heads.tolist(), integer_mass_units(weights, units=n).tolist()
    )


def _random_seed_positions(
    config: SignedConfig, n: int, rng: np.random.Generator
) -> np.ndarray:
    low, high = config.bbox()
    return rng.uniform(low, high, size=(n, config.dimension))


def _settle(
    config: SignedConfig,
    Z: np.ndarray,
    plan: TransportPlan,
    q: float,
    basis: TreeBasis,
) -> tuple[np.ndarray, TransportPlan, float, bool, int, int]:
    """Settle positions and plan for one allocation, starting from ``plan``,
    the plan of the last solve on ``basis``.

    Each pass moves the positions to the plan's optimum by Newton
    (``polish_positions``), then re-solves the exact plan at the new
    positions on ``basis``'s plan network, from the tree it kept.  Stops
    once a pass leaves the plan's support unchanged, and otherwise, with
    the support unstable, once a pass's plan costs no less than the
    previous pass's to within COST_ROUNDING, relative.  A solve without a
    pivot keeps its tree, so its entries are those of ``plan``, in the same
    order, and its pass is stable; a changed support needs a nondegenerate
    pivot, so a strictly cheaper plan, and the loop always ends.  Returns
    (Z, plan, cost as that plan's solve gave it, stable, passes,
    unconverged Newton solves).
    """
    budget_hits = passes = 0
    last = math.inf
    while True:
        passes += 1
        Z, _, inner_ok = polish_positions(config, plan, Z, q)
        budget_hits += not inner_ok
        rows, cols = plan.rows, plan.cols
        plan, cost = min_cost_plan(config, Z, q, basis)
        # both plans' keys are sorted, so equal arrays mean equal supports
        stable = np.array_equal(plan.rows, rows) and np.array_equal(plan.cols, cols)
        if stable or cost >= last * (1.0 - COST_ROUNDING):
            return Z, plan, cost, stable, passes, budget_hits
        last = cost


def _descend(
    config: SignedConfig,
    Z0: np.ndarray,
    q: float,
    basis: TreeBasis,
) -> tuple[np.ndarray, TransportPlan, float, bool, int, int]:
    """Descend from a start: exact plan for Z0, gradient descent on
    positions, then ``_settle``.

    The position step may not increase the plan's cost; a violation beyond
    slack raises SolverError.  Every plan solve runs on ``basis``'s one plan
    network.  The first starts from the basis's coupling tree, threaded,
    when it carries one; each later one from the simplex tree the previous
    one left: terminals, masses and atom count stay fixed, so that tree is
    always feasible.  Returns
    ``_settle``'s tuple, whose budget hits include the gradient descent's.
    """
    plan, cost_plan = min_cost_plan(config, Z0, q, basis)
    Z, cost, _, inner_ok = optimize_positions(config, plan, Z0, q)
    if cost > cost_plan * (1.0 + MONOTONE_SLACK) + 1e-300:
        raise SolverError(
            f"position step increased cost: {cost_plan!r} -> {cost!r}"
        )
    Z, plan, cost, stable, passes, hits = _settle(config, Z, plan, q, basis)
    return Z, plan, cost, stable, passes, hits + (not inner_ok)


def _rebalance_layout(
    config: SignedConfig,
    Z: np.ndarray,
    plan: TransportPlan,
    q: float,
    n: int,
    stable: bool = False,
) -> np.ndarray | None:
    """Atom layout suggested by the closed-form allocation on the reduced tree.

    ``allocate`` lays out all n atoms: one where the tree branches, the
    rest spread over the reduced edges.  Returns None when the plan has no
    reduced tree or ``allocate`` refuses the budget: fewer spare atoms than
    edges, or an edge of length zero, where a source and a sink share a
    point.

    ``stable`` says that Z is the position optimum of ``plan``, so every
    chain's relays are evenly spaced on its segment.  An allocation that
    gives each chain its current relay count then only permutes the rows
    of Z, and None is returned for it too.

    Before building any graph, refuses a budget below the edge count that
    any reduced forest of the plan has (``_min_tree_edges``), which the
    full path would refuse too.
    """
    if n < _min_tree_edges(plan):
        return None
    try:
        tree = reduce_graph(plan_to_graph(config, Z, plan))
        layout = allocate(tree, n, q)
    except ValueError:
        return None
    if stable and list(layout.counts) == [c.n_interior for c in tree.chains]:
        return None
    return layout.atom_positions


def _min_tree_edges(plan: TransportPlan) -> int:
    """Fewest edges a reduced forest of ``plan`` can have: ceil((S+T)/2).

    S and T count the sources and sinks on a positive plan entry (flows are
    nonnegative, so with positive flow).  Each keeps an edge through the
    reduction, which never splices out a terminal; an edge touches two.
    """
    inflow, outflow = plan.vertex_flows()
    ns, nk = plan.n_sources, plan.n_sinks
    return (np.count_nonzero(outflow[:ns]) + np.count_nonzero(inflow[ns:ns + nk]) + 1) // 2


def _run_start(
    config: SignedConfig,
    Z0: np.ndarray,
    q: float,
    n: int,
    basis: TreeBasis,
    settled: dict[tuple[bytes, bytes], float],
) -> tuple[np.ndarray, TransportPlan, float, int, bool, int]:
    """One start of ``alternate_minimize``: descend and settle from Z0
    (``_descend``), then try allocation-guided rebalances.  Each proposed
    layout gets its own plan and is settled from there, and is kept only
    on strict improvement; the cascade stops at the first rejection, and
    at a stable settle's layout that the allocation would only permute, so
    the tree ``basis`` keeps is always the last settled plan's.

    ``settled`` maps the support (``rows`` and ``cols`` bytes) of every
    plan an earlier start of the call settled stably onto, by its descent
    or an accepted proposal, to the cost that start ended at.  From one
    support the cascade repeats the same steps up to rounding, so a start
    that settles stably onto a recorded support stops there and returns
    that cost: it cannot beat the earlier start, which wins the tie.  Once
    the cascade ends, its own stable supports are recorded with its cost.
    Each accepted proposal lowers the cost strictly, so the cascade needs
    no cap on its proposals.  Returns (Z, plan, cost, settle passes, every
    settle stable, unconverged position solves); Z and plan are the last
    ones settled, which a stopped start may not have ended at."""
    Z, plan, cost, stable, passes, budget_hits = _descend(config, Z0, q, basis)
    conv = stable
    reached = []
    while True:
        # an unstable settle's Z is the previous plan's optimum, not this one's
        if stable:
            key = plan.rows.tobytes(), plan.cols.tobytes()
            shared = settled.get(key)
            if shared is not None:
                cost = shared
                break
            reached.append(key)
        Z_re = _rebalance_layout(config, Z, plan, q, n, stable)
        if Z_re is None:
            break
        plan_re, _ = min_cost_plan(config, Z_re, q, basis)
        Z2, plan2, cost2, stable, passes2, hits = _settle(
            config, Z_re, plan_re, q, basis)
        conv = conv and stable
        passes += passes2
        budget_hits += hits
        if cost2 < cost * (1.0 - IMPROVEMENT_RTOL):
            Z, plan, cost = Z2, plan2, cost2
        else:
            break
    for key in reached:
        settled[key] = cost
    return Z, plan, cost, passes, conv, budget_hits


def alternate_minimize(
    config: SignedConfig, n: int, params: CostParams
) -> SolveResult:
    """Best-of-multistart alternating minimization with n free atoms.

    Starts: one deterministic layout along the W_1 matching, plus
    params.restarts uniform samples in the terminal bounding box, all
    driven by params.seed (bit-identical reruns).  Each start descends,
    settles and tries rebalances (``_run_start``).  Every plan solve of
    the call runs on one basis, whose plan network is built once and
    re-priced at each start's positions.  The W_1 seed's coupling is
    solved once; each start sets it on the basis, so its first plan solve
    begins from the coupling's final tree with the relays threaded onto
    its segments, and every later one from the tree the network kept.
    The starts share one record of the plans they settled stably onto
    (``_run_start``), so a start that reaches an earlier start's plan stops
    there.  Ties break on start index, so such a start never wins.  The
    result's ``converged`` and ``iterations`` report the winning start's
    settles.
    """
    config = validate(config)
    q = params.q
    if n < 0:
        raise InvalidConfigError(f"atom count must be >= 0, got {n}")
    if n == 0:
        plan, cost = min_cost_plan(config, None, q)
        return SolveResult(
            Z=np.zeros((0, config.dimension)),
            plan=plan, cost_q=cost, n=0, q=q,
            iterations=0, converged=True,
            n_starts=0, start_costs=(cost,),
        )

    w1_basis = TreeBasis()
    starts: list[np.ndarray] = [w1_seed(config, n, w1_basis)]
    # the starts need the coupling's tree, not its network and cost matrix
    coupling = w1_basis.network.tree
    del w1_basis
    for k in range(params.restarts):
        rng = np.random.default_rng(np.random.SeedSequence([params.seed, k]))
        starts.append(_random_seed_positions(config, n, rng))

    best: tuple[float, int, np.ndarray, TransportPlan, int, bool] | None = None
    start_costs: list[float] = []
    budget_hits = 0
    basis = TreeBasis()
    settled: dict[tuple[bytes, bytes], float] = {}
    for idx, Z0 in enumerate(starts):
        basis.coupling = coupling
        Z, plan, cost, passes, conv, hits = _run_start(config, Z0, q, n, basis, settled)
        budget_hits += hits
        start_costs.append(cost)
        if best is None or cost < best[0] * (1.0 - IMPROVEMENT_RTOL):
            best = (cost, idx, Z, plan, passes, conv)

    cost, idx, Z, plan, passes, conv = best
    return SolveResult(
        Z=Z,
        plan=plan,
        cost_q=cost,
        n=n,
        q=q,
        iterations=passes,
        converged=conv,
        start_index=idx,
        n_starts=len(starts),
        unused_atoms=int((plan.throughputs() == 0.0).sum()),
        start_costs=tuple(start_costs),
        inner_budget_hits=budget_hits,
    )


def solve_result_to_dict(result: SolveResult) -> dict:
    """Serializable report for one solve."""
    return {
        "n": result.n,
        "q": result.q,
        "cost_q": result.cost_q,
        "wbar": result.wbar,
        "rescaled": result.rescaled,
        "iterations": result.iterations,
        "converged": result.converged,
        "start_index": result.start_index,
        "n_starts": result.n_starts,
        "unused_atoms": result.unused_atoms,
        "start_costs": list(result.start_costs),
        "inner_budget_hits": result.inner_budget_hits,
        "free_atoms": [[float(c) for c in row] for row in result.Z],
        "plan": [list(t) for t in result.plan.to_triplets()],
    }
