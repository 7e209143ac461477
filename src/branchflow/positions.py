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
the same kernel, whose Hessian has one block per arc, capped at
POLISH_ITERS; at q = 2 the Hessian is a weighted graph Laplacian and one
step is exact.  Every position solve stops at the gradient tolerance
GRAD_TOL.  The kernel and the Newton loop also solve the oracle's fixed
topologies (``oracle.solve_topology``): exponent 1, per-arc weights,
smoothed lengths, so one geometric kernel serves both.

The outer loop settles plan and positions for one point allocation at a
time: Newton moves the atoms to the plan's position optimum, the exact
plan is re-solved there, and the two alternate until the plan's support
stops changing.  Every plan is a simplex basic solution, so its support
is already a forest and each of its flows is at least one mass unit:
nothing prunes or regularizes it.  A start settles after one plan solve
and one gradient descent.  Alternation alone cannot move an atom from one
branch to another once the support has frozen, so a cost-guarded
rebalance redistributes the atom count over the current reduced tree by
the closed-form allocation and settles that layout's plan; a budget too
small for any reduced tree of the plan is refused before a graph is
built.  A multistart layer sits on top, since the joint problem is not
convex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    Atom,
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
    as_positions,
    integer_mass_units,
    min_cost_plan,
    plan_cost,
    zero_flow_threshold,
)
# never called here: the import only keeps the name positions.regularize,
# which perfbench/spans.py patches to trace it
from .regularize import regularize  # noqa: F401
from .graphs import plan_to_graph, reduce_graph
from .allocate import allocate, spread_on_segments

MONOTONE_SLACK = 1e-9
#: relative rounding error allowed for one evaluation of a plan's cost
COST_ROUNDING = 16.0 * float(np.finfo(float).eps)
#: position solves stop at a gradient sup-norm of this times mass * diam^(q-1)
GRAD_TOL = 1e-9
#: gradient-descent iterations for a start's first position solve
INNER_ITERS = 500
#: Newton iterations per Newton position solve
POLISH_ITERS = 2000
#: Newton-and-plan passes per settle before it gives up on a stable support
_SETTLE_PASSES = 5


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Outcome of one full minimization at a given atom count; ``Z`` holds
    the (n, dim) free-atom positions.  Results compare by identity."""

    Z: np.ndarray
    plan: TransportPlan
    cost_q: float
    n: int
    q: float
    #: settle passes of the winning start, its descent's and its proposals'
    iterations: int
    #: every settle of the winning start ended on a stable plan support
    converged: bool
    start_index: int = 0
    n_starts: int = 1
    unused_atoms: int = 0
    start_costs: tuple[float, ...] = ()
    #: position solves, over every start and rebalance, that stopped at
    #: their iteration budget (INNER_ITERS or POLISH_ITERS) unconverged
    inner_budget_hits: int = 0
    #: Newton polish iterations, over every start and rebalance, that fell
    #: back to a scaled gradient step
    polish_fallbacks: int = 0

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
    d and smoothing radius eps it costs ``w * (|d|^2 + eps^2)^(q/2)``.
    ``_EdgeKernel(config, plan, q)`` is the plan's q-power cost: terminals
    fixed, one arc per plan entry in sorted key order, weight its flow,
    eps 0.  The oracle builds one with ``from_arcs`` at q = 1 and lowers
    ``eps`` between solves.

    ``cost(Z)`` writes Z below the fixed rows of a preallocated position
    buffer, gathers the tail and head ends of every arc with one ``take``,
    and keeps the arc vectors and smoothed lengths; ``gradient()`` reuses
    them, so it is the gradient at the last point passed to ``cost``.  The
    gradient is scattered with one ``np.bincount`` over flat
    ``atom * dim + k`` bins, tail ends first and head ends second: the same
    additions, in the same order, as one ``np.add.at`` per side.
    ``newton_direction(G)`` solves with the Hessian at the same point,
    assembled from the arc vectors and the gradient's per-arc coefficients.
    """

    def __init__(self, config: SignedConfig, plan: TransportPlan, q: float):
        keys = sorted(plan.entries)
        self._build(
            np.vstack([config.source_positions(), config.sink_positions()]),
            [plan.row_to_vertex(i) for i, _ in keys],
            [plan.col_to_vertex(j) for _, j in keys],
            [plan.entries[k] for k in keys],
            plan.n_free, q, 0.0,
        )

    @classmethod
    def from_arcs(cls, fixed: np.ndarray, tails, heads, weights, n_free: int,
                  q: float, eps: float) -> "_EdgeKernel":
        """Kernel over ``fixed`` rows plus ``n_free`` free rows and the given
        weighted arcs (vertex ids index fixed rows first)."""
        kernel = cls.__new__(cls)
        kernel._build(fixed, tails, heads, weights, n_free, q, eps)
        return kernel

    def _build(self, fixed, tails, heads, weights, n_free, q, eps) -> None:
        self.q = q
        self.eps = eps
        n_term, dim = fixed.shape
        self.dim, self.n_term = dim, n_term
        # tails, then heads, as vertex ids
        self.ends = np.array(list(tails) + list(heads), dtype=np.intp)
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

    def cost(self, Z: np.ndarray) -> float:
        self.free_rows[...] = Z
        E = self.P.take(self.ends, axis=0)
        d = E[: self.m] - E[self.m :]
        sq = (d * d).sum(axis=1)
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

    def _hessian_layout(self) -> None:
        """Flat (row, column) bins of every arc block in the dense Hessian.

        Each free end gets its arc's block on its own diagonal block; an
        arc with both ends free also gets the negated block at (tail, head)
        and (head, tail).  Built on first use, so the gradient descents,
        which never ask for a Hessian, do not pay for it.
        """
        m, dim = self.m, self.dim
        free = np.zeros(2 * m, dtype=bool)
        free[self.free_ends] = True
        both = np.flatnonzero(free[:m] & free[m:])
        atoms = self.ends - self.n_term
        self.hessian_arcs = np.concatenate([self.free_ends % m, both, both])
        rows = np.concatenate([atoms[self.free_ends], atoms[both], atoms[m + both]])
        cols = np.concatenate([atoms[self.free_ends], atoms[m + both], atoms[both]])
        self.hessian_signs = np.concatenate(
            [np.ones(self.free_ends.size), -np.ones(2 * both.size)]
        )[:, None, None]
        k = np.arange(dim)
        self.hessian_bins = (
            (rows[:, None, None] * dim + k[:, None]) * self.n_bins
            + cols[:, None, None] * dim + k
        ).ravel()

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
        if self.hessian_bins is None:
            self._hessian_layout()
        dim = self.dim
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
            weights=(self.hessian_signs * B[self.hessian_arcs]).ravel(),
            minlength=self.n_bins * self.n_bins,
        )
        return H.reshape(self.n_bins, self.n_bins)

    def newton_direction(self, G: np.ndarray) -> np.ndarray | None:
        """Newton direction -H^-1 G at the point of the last ``gradient()``
        call, or None when the solve fails or its result is not a descent
        direction.  A singular Hessian (idle atoms, zero-length arcs) gets a
        ridge of 1e-12 times its largest diagonal entry."""
        H = self.hessian()
        g = G.ravel()
        try:
            p = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            H[np.diag_indices_from(H)] += 1e-12 * max(float(H.diagonal().max()), 1e-300)
            try:
                p = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                return None
        if not (np.isfinite(p).all() and float(p @ g) < 0.0):
            return None
        return p.reshape(self.G_shape)


def position_gradient(
    config: SignedConfig, Z, plan: TransportPlan, q: float
) -> np.ndarray:
    """Gradient of the plan's q-power cost w.r.t. each free atom position.

    Per arc the gradient of flow*|d|^q is q*flow*|d|^(q-2)*d, which tends
    to zero as |d| -> 0 for every q > 1; coincident endpoints therefore
    contribute zero.  Atoms without incident positive flow get a zero row.
    """
    if q <= 1.0:
        raise ValueError(f"gradient requires q > 1, got {q}")
    Z = as_positions(Z, config.dimension)
    obj = _EdgeKernel(config, plan, q)
    obj.cost(Z)
    return obj.gradient()


def _position_problem(
    config: SignedConfig, plan: TransportPlan, Z0, q: float
) -> tuple[np.ndarray, _EdgeKernel, float, float, float]:
    """Checked start, kernel, diameter, gradient tolerance and line-search
    floor shared by the two position solvers."""
    if q <= 1.0:
        raise ValueError(f"optimization requires q > 1, got {q}")
    Z = as_positions(Z0, config.dimension).copy()
    if Z.shape[0] != plan.n_free:
        raise ValueError("Z0 and plan disagree on the number of free atoms")
    diam = config.diameter()
    scale = max(total_mass(config) * max(diam, 1e-300) ** (q - 1.0), 1e-300)
    floor = 1e-16 * max(diam, 1e-12)
    return Z, _EdgeKernel(config, plan, q), diam, GRAD_TOL * scale, floor


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
    span: float,
    max_iter: int,
    step_tol: float = 0.0,
) -> tuple[np.ndarray, float, int, bool, int]:
    """Damped Newton on a kernel from Z, until the sup-norm of the gradient
    is at most ``tol`` or that of the Newton step at most ``step_tol``.

    The direction is ``obj.newton_direction``; the Armijo test (constant
    1e-4) starts at step length 1 and halves while the step is longer than
    ``floor``.  Near the minimizer the predicted decrease falls below the
    rounding error of the cost, so a trial point whose cost is not
    measurably higher (within COST_ROUNDING, relative) is also accepted
    when it lowers the sup-norm of the gradient.  When the Newton solve
    fails, its direction is not a descent direction, or its line search
    stalls, the iteration tries a gradient step of length ``span`` with the
    same search; if that stalls too, the point is stationary to
    floating-point resolution.  Returns (Z, cost, iterations, converged,
    iterations that moved by a gradient step).
    """
    f = obj.cost(Z)
    gradient_steps = 0

    def line_search(P: np.ndarray, slope: float):
        t, pnorm = 1.0, math.sqrt(float((P * P).sum()))
        while t * pnorm > floor:
            Z_new = Z + t * P
            f_new = obj.cost(Z_new)
            if f_new <= f + 1e-4 * t * slope and f_new < f:
                return Z_new, f_new
            # within its rounding error the cost cannot tell a step from its
            # overshoot, nor a decrease from noise: the gradient decides
            if (f_new <= f * (1.0 + COST_ROUNDING)
                    and float(np.abs(obj.gradient()).max()) < gmax):
                return Z_new, f_new
            t *= 0.5
        return None

    iters, converged = 0, None
    # obj.gradient() is taken at the last point costed: Z, or the accepted Z_new
    for iters in range(1, max_iter + 1):
        G = obj.gradient()
        gmax = float(np.abs(G).max()) if G.size else 0.0
        if gmax <= tol:
            iters, converged = iters - 1, True
            break
        P = obj.newton_direction(G)
        # a Newton direction is never zero, so step_tol 0 never stops here
        if P is not None and float(np.abs(P).max()) <= step_tol:
            iters, converged = iters - 1, True
            break
        found = None if P is None else line_search(P, float((G * P).sum()))
        if found is None:
            gnorm = math.sqrt(float((G * G).sum()))
            found = line_search(G * (-span / gnorm), -span * gnorm)
            if found is None:
                # no direction decreases the cost at floating-point resolution
                converged = True
                break
            gradient_steps += 1
        Z, f = found
    if converged is None:
        G = obj.gradient()
        converged = (float(np.abs(G).max()) if G.size else 0.0) <= tol
    return Z, f, iters, converged, gradient_steps


def polish_positions(
    config: SignedConfig,
    plan: TransportPlan,
    Z0,
    q: float,
    max_iter: int = POLISH_ITERS,
    fallbacks: list[int] | None = None,
) -> tuple[np.ndarray, float, int, bool]:
    """Minimize the fixed-plan cost over free positions by damped Newton.

    Same objective, stop test, line-search floor and return as
    ``optimize_positions``.  The iteration is ``_newton`` on the plan's
    edge-list kernel, with gradient fallback steps of length diam.  At
    q = 2 the cost is quadratic and one step reaches the minimizer.  If
    ``fallbacks`` is given, the number of iterations that moved by a
    gradient step is appended.
    """
    Z, obj, diam, tol, floor = _position_problem(config, plan, Z0, q)
    Z, f, iters, converged, gradient_steps = _newton(
        obj, Z, tol, floor, max(diam, 1e-12), max_iter)
    if fallbacks is not None:
        fallbacks.append(gradient_steps)
    return Z, f, iters, converged


def w1_seed(config: SignedConfig, n: int, basis: TreeBasis | None = None) -> np.ndarray:
    """Deterministic start: atoms along the W_1-optimal matching segments.

    The q=1 coupling between the terminal measures, the zero-relay plan LP
    at q = 1, picks out transport segments; atoms are distributed over them
    proportionally to flow times length (largest-remainder), equally spaced
    inside each segment.  Exactly optimal for a single source-sink pair.
    ``basis``, when given, is an empty basis on which the coupling is
    solved, so it keeps the coupling's network and final tree.
    """
    coupling = min_cost_plan(config, None, 1.0, basis)[0].entries
    src = config.source_positions()
    snk = config.sink_positions()
    pairs = [(i, j, g) for (i, j), g in sorted(coupling.items()) if g > 0]
    if not pairs:
        anchor = src[0] if len(src) else np.zeros(config.dimension)
        return np.tile(anchor, (n, 1))
    weights = np.array([g * float(np.linalg.norm(snk[j] - src[i])) for i, j, g in pairs])
    if weights.sum() <= 0:
        weights = np.ones(len(pairs))
    return spread_on_segments(
        np.concatenate([src, snk]),
        [i for i, _, _ in pairs],
        [config.n_sources + j for _, j, _ in pairs],
        integer_mass_units(weights, units=n).tolist(),
    )[0]


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
    fallbacks: list[int],
    basis: TreeBasis,
) -> tuple[np.ndarray, TransportPlan, float, bool, int, int]:
    """Settle positions and plan for one allocation, starting from ``plan``,
    the plan of the last solve on ``basis``.

    Each pass moves the positions to the plan's optimum by Newton
    (``polish_positions``, which appends its gradient fallbacks to
    ``fallbacks``), then re-solves the exact plan at the new positions on
    ``basis``'s plan network, from the tree it kept.  Stops once a pass leaves the plan's support unchanged,
    or after _SETTLE_PASSES passes.  A solve without a pivot keeps its
    tree, so its entries are those of ``plan``, in the same order, and its
    pass is stable.  Returns (Z, plan, cost, stable, passes, Newton solves
    that hit their budget).
    """
    budget_hits = 0
    stable = False
    passes = 0
    for passes in range(1, _SETTLE_PASSES + 1):
        Z, cost, _, inner_ok = polish_positions(config, plan, Z, q, fallbacks=fallbacks)
        budget_hits += not inner_ok
        plan2, _ = min_cost_plan(config, Z, q, basis)
        stable = plan2.entries.keys() == plan.entries.keys()
        cost2 = plan_cost(config, Z, plan2, q)
        plan, cost = plan2, min(cost, cost2)
        if stable:
            break
    return Z, plan, cost, stable, passes, budget_hits


def _descend(
    config: SignedConfig,
    Z0: np.ndarray,
    q: float,
    fallbacks: list[int],
    basis: TreeBasis,
) -> tuple[np.ndarray, TransportPlan, float, bool, int, int]:
    """Descend from a start: exact plan for Z0, gradient descent on
    positions, then ``_settle``.

    The position step may not increase the plan's cost; a violation beyond
    slack raises SolverError.  Every plan solve runs on ``basis``'s one plan
    network, so each starts from the simplex tree the previous one left:
    terminals, masses and atom count stay fixed, so that tree is always
    feasible.  Returns
    ``_settle``'s tuple, whose budget hits include the gradient descent's.
    """
    plan, cost_plan = min_cost_plan(config, Z0, q, basis)
    Z, cost, _, inner_ok = optimize_positions(config, plan, Z0, q)
    if cost > cost_plan * (1.0 + MONOTONE_SLACK) + 1e-300:
        raise SolverError(
            f"position step increased cost: {cost_plan!r} -> {cost!r}"
        )
    Z, plan, cost, stable, passes, hits = _settle(config, Z, plan, q, fallbacks, basis)
    return Z, plan, cost, stable, passes, hits + (not inner_ok)


def _rebalance_layout(
    config: SignedConfig,
    Z: np.ndarray,
    plan: TransportPlan,
    q: float,
    n: int,
) -> np.ndarray | None:
    """Atom layout suggested by the closed-form allocation on the reduced tree.

    Junction atoms stay where the tree branches; the remaining budget is
    spread over the reduced edges by the allocation rule.  Returns None
    when the tree cannot absorb the budget (more junctions than atoms or
    fewer spare atoms than edges) or the allocation refuses it (an edge of
    length zero, where a source and a sink share a point).

    Before building any graph, refuses a budget below the edge count that
    any reduced forest of the plan has (``_min_tree_edges``), which the
    full path would refuse too.
    """
    if n < _min_tree_edges(config, plan):
        return None
    try:
        tree = reduce_graph(plan_to_graph(config, Z, plan))
    except (ValueError, SolverError):
        return None
    junctions = tree.free_indices()
    spare = n - len(junctions)
    if tree.n_edges == 0 or spare < tree.n_edges:
        return None
    try:
        alloc = allocate(tree, spare, q)
    except ValueError:
        return None
    Z_new = np.concatenate([tree.positions.take(junctions, axis=0), alloc.atom_positions])
    if Z_new.shape[0] != n:
        return None
    return Z_new


def _min_tree_edges(config: SignedConfig, plan: TransportPlan) -> int:
    """Fewest edges a reduced forest of ``plan`` can have: ceil((S+T)/2).

    S and T count the sources and sinks on a plan entry above the zero-flow
    threshold.  Each of them keeps an edge through the reduction, which
    never splices out a terminal, and a forest edge touches two vertices.
    """
    tol = zero_flow_threshold(config)
    ns, nk = plan.n_sources, plan.n_sinks
    sources = {i for (i, _), g in plan.entries.items() if i < ns and g > tol}
    sinks = {j for (_, j), g in plan.entries.items() if j < nk and g > tol}
    return (len(sources) + len(sinks) + 1) // 2


def alternate_minimize(
    config: SignedConfig, n: int, params: CostParams
) -> SolveResult:
    """Best-of-multistart alternating minimization with n free atoms.

    Starts: one deterministic layout along the W_1 matching, plus
    params.restarts uniform samples in the terminal bounding box, all
    driven by params.seed (bit-identical reruns).  Each start descends and
    settles (``_descend``), then tries allocation-guided rebalances: each
    proposed layout gets its own plan and is settled from there, and is
    kept only on strict improvement.  A start's descent and its proposals
    share one basis, whose plan network keeps the simplex tree; the cascade
    stops at the first rejection, so that tree is always the last settled
    plan's.  The W_1 seed's coupling is solved once, and every start's
    basis carries its final tree, so each start's first plan solve begins
    from that tree with the relays threaded onto its segments.  Ties break
    on start index.  The result's ``converged`` and ``iterations`` report
    the winning start's settles.
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
    fallbacks: list[int] = []
    for idx, Z0 in enumerate(starts):
        basis = TreeBasis(coupling)
        Z, plan, cost, conv, passes, hits = _descend(config, Z0, q, fallbacks, basis)
        budget_hits += hits
        # each accepted rebalance simplifies the tree topology a little, so
        # allow enough proposals for the cascade to bottom out
        for _ in range(12):
            Z_re = _rebalance_layout(config, Z, plan, q, n)
            if Z_re is None:
                break
            plan_re, _ = min_cost_plan(config, Z_re, q, basis)
            Z2, plan2, cost2, stable, passes2, hits = _settle(
                config, Z_re, plan_re, q, fallbacks, basis)
            conv = conv and stable
            passes += passes2
            budget_hits += hits
            if cost2 < cost * (1.0 - 1e-12):
                Z, plan, cost = Z2, plan2, cost2
            else:
                break
        start_costs.append(cost)
        if best is None or cost < best[0] * (1.0 - 1e-12):
            best = (cost, idx, Z, plan, passes, conv)

    cost, idx, Z, plan, passes, conv = best
    tol = zero_flow_threshold(config)
    used = plan.throughputs() > tol
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
        unused_atoms=int((~used).sum()),
        start_costs=tuple(start_costs),
        inner_budget_hits=budget_hits,
        polish_fallbacks=sum(fallbacks),
    )


def solve_result_to_dict(result: SolveResult, config: SignedConfig) -> dict:
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
        "polish_fallbacks": result.polish_fallbacks,
        "free_atoms": [[float(c) for c in row] for row in result.Z],
        "plan": [
            [int(i), int(j), float(g)] for i, j, g in result.plan.to_triplets()
        ],
    }
