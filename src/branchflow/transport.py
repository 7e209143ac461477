"""Transport plans between terminals routed through free relay atoms.

A plan is a sparse nonnegative matrix gamma over a combined index set of
size (n_sources + n_free) x (n_sinks + n_free):

* row i < n_sources  -> source i;  row i >= n_sources  -> free atom i - n_sources
* col j < n_sinks    -> sink j;    col j >= n_sinks    -> free atom j - n_sinks

Row sums at source rows must equal source masses, column sums at sink
columns must equal sink masses, and every free atom conserves mass (inflow
== outflow).  gamma[i][j] with both indices free and i == j (a self-loop)
is never produced by the solver.

For geometric bookkeeping the same plan is also viewed as a digraph on
"vertex" ids: sources 0..S-1, sinks S..S+T-1, free atoms S+T.. — sources
only ever emit, sinks only ever absorb, so directed cycles can involve free
atoms alone.

The plan solver is an exact min-cost flow: masses are scaled to integers
summing to 10^9 by largest-remainder rounding (so the represented marginals
sit within one part in 10^9 of the true ones), supplies sit on source
nodes, demands on sink nodes, and free atoms are conservation nodes.  Every
pair of the matrix but the free self-loops is an uncapacitated arc, and a
primal network simplex (``_mcf``) prices all of them each pivot, so its
final potentials certify the flow optimal for the full linear program.  Its
flow is a basic solution, whose support is a forest.

``min_cost_plan`` is the one entry to that linear program: it alone
validates an instance and builds a flow network.  With no relays the plan
LP is the plain W_q coupling, so ``wasserstein_coupling`` is its n = 0
solve.

``min_cost_plan`` takes an optional caller-owned :class:`TreeBasis`, and
that basis is the only state kept here.  Its first solve builds the plan
network, which holds the validated config, the integer supplies, the arcs
and the sources' sink costs, which depend on the terminals, q and the relay
count alone, and stores it on the basis.  When the basis carries the
final tree of the config's solved zero-relay network (the W_1 coupling),
that first solve starts from it with the relays threaded onto its
segments (``_threaded_start``), not from the artificial tree.  Each later
solve on the basis re-prices only the entries that involve a relay and
starts from the tree the network kept, the only copy of it.  When that
solve makes no pivot, its tree and so its flows are the previous plan's,
whose entries it returns unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ._mcf import MinCostFlowNetwork, SolverError
from .measures import (
    Atom,
    InvalidConfigError,
    SignedConfig,
    total_mass,
    validate,
    validate_exponent,
)

#: integer mass grid: all masses are represented in units of total/10^9
MASS_UNITS = 10**9

#: flows below this fraction of total mass are treated as structural zeros
ZERO_FLOW_RTOL = 1e-12

#: marginal / conservation tolerance, relative to max(1, total mass)
MARGINAL_RTOL = 1e-9


def zero_flow_threshold(config: SignedConfig) -> float:
    """Flow at or below which a plan entry counts as a structural zero."""
    return ZERO_FLOW_RTOL * total_mass(config)


def as_positions(Z: np.ndarray | Sequence | None, dim: int) -> np.ndarray:
    """Coerce any accepted free-atom argument to a fresh (n, dim) array."""
    if Z is None:
        return np.zeros((0, dim), dtype=float)
    arr = np.asarray(Z, dtype=float)
    if arr.size == 0:
        return np.zeros((0, dim), dtype=float)
    arr = arr.reshape(-1, dim).astype(float, copy=True)
    if not np.isfinite(arr).all():
        raise InvalidConfigError("free atom coordinates must be finite")
    return arr


@dataclass
class TransportPlan:
    """Sparse transport matrix plus the index bookkeeping described above."""

    n_sources: int
    n_sinks: int
    n_free: int
    entries: dict[tuple[int, int], float] = field(default_factory=dict)

    # ---- index conventions -------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.n_sources + self.n_free

    @property
    def n_cols(self) -> int:
        return self.n_sinks + self.n_free

    @property
    def n_vertices(self) -> int:
        return self.n_sources + self.n_sinks + self.n_free

    def row_to_vertex(self, i: int) -> int:
        """Row index -> vertex id (sources, then sinks, then free atoms)."""
        return i if i < self.n_sources else self.n_sinks + i

    def col_to_vertex(self, j: int) -> int:
        return self.n_sources + j

    # ---- aggregates ---------------------------------------------------
    def source_outflows(self) -> np.ndarray:
        out = np.zeros(self.n_sources)
        for (i, _), g in self.entries.items():
            if i < self.n_sources:
                out[i] += g
        return out

    def sink_inflows(self) -> np.ndarray:
        inn = np.zeros(self.n_sinks)
        for (_, j), g in self.entries.items():
            if j < self.n_sinks:
                inn[j] += g
        return inn

    def free_outflows(self) -> np.ndarray:
        out = np.zeros(self.n_free)
        for (i, _), g in self.entries.items():
            if i >= self.n_sources:
                out[i - self.n_sources] += g
        return out

    def free_inflows(self) -> np.ndarray:
        inn = np.zeros(self.n_free)
        for (_, j), g in self.entries.items():
            if j >= self.n_sinks:
                inn[j - self.n_sinks] += g
        return inn

    def throughputs(self) -> np.ndarray:
        """Mass relayed by each free atom (outflow; equals inflow when feasible)."""
        return self.free_outflows()

    # ---- views / conversions -------------------------------------------
    def copy(self) -> "TransportPlan":
        return TransportPlan(self.n_sources, self.n_sinks, self.n_free, dict(self.entries))

    def pruned(self, tol: float) -> "TransportPlan":
        """Drop entries with flow <= tol."""
        kept = {k: g for k, g in self.entries.items() if g > tol}
        return TransportPlan(self.n_sources, self.n_sinks, self.n_free, kept)

    def to_triplets(self) -> list[tuple[int, int, float]]:
        return [(i, j, self.entries[(i, j)]) for (i, j) in sorted(self.entries)]

    @classmethod
    def from_triplets(
        cls,
        n_sources: int,
        n_sinks: int,
        n_free: int,
        triplets: Iterable[tuple[int, int, float]],
    ) -> "TransportPlan":
        entries: dict[tuple[int, int], float] = {}
        for i, j, g in triplets:
            if g < 0:
                raise InvalidConfigError(f"negative flow on ({i}, {j})")
            if g > 0:
                entries[(int(i), int(j))] = entries.get((int(i), int(j)), 0.0) + float(g)
        return cls(n_sources, n_sinks, n_free, entries)


def vertex_positions(config: SignedConfig, Z: np.ndarray) -> np.ndarray:
    """Positions in vertex-id order: sources, sinks, then free atoms."""
    return np.concatenate([config.terminal_positions(), as_positions(Z, config.dimension)])


def cost_matrix(config: SignedConfig, Z: np.ndarray | None, q: float) -> np.ndarray:
    """Pairwise q-power Euclidean costs over the combined index set.

    Rows run over sources then free atoms, columns over sinks then free
    atoms, so F[i, j] = |row position i - column position j|^q covering the
    four source/sink/free case combinations in one array.
    """
    Z = as_positions(Z, config.dimension)
    rows = np.vstack([config.source_positions(), Z])
    return _pair_costs(rows, np.vstack([config.sink_positions(), Z]), q)


def _pair_costs(A: np.ndarray, B: np.ndarray, q: float) -> np.ndarray:
    """|A[i] - B[j]|^q for every pair of rows.

    Each entry is computed on its own, so a block of rows or columns equals
    that block of the full matrix.
    """
    return np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)) ** q


def integer_mass_units(masses: np.ndarray, units: int = MASS_UNITS) -> np.ndarray:
    """Largest-remainder rounding of masses onto an integer grid summing to `units`.

    Keeps every atom within one grid unit of its exact share, which in turn
    keeps solver marginals within MARGINAL_RTOL of the true masses.
    """
    masses = np.asarray(masses, dtype=float)
    total = masses.sum()
    if total <= 0:
        raise InvalidConfigError("cannot scale masses with nonpositive total")
    scaled = masses / total * units
    base = np.floor(scaled)
    short = units - int(base.sum())
    if short > 0:
        # largest remainder scaled - base first, ties to the lower index
        order = np.argsort(base - scaled, kind="stable")
        base[order[:short]] += 1
    return base.astype(np.int64)


class _PlanNetwork(MinCostFlowNetwork):
    """The plan LP of one validated config, exponent and relay count.

    Built at the first solve on a basis and kept on it; later solves on
    that basis only move the relays (:meth:`move`).
    """

    __slots__ = ("config", "q", "n_free")

    def __init__(self, config: SignedConfig, Z: np.ndarray, q: float) -> None:
        super().__init__(
            cost_matrix(config, Z, q), config.n_sources, config.n_sinks,
            integer_mass_units(config.source_masses()),
            integer_mass_units(config.sink_masses()),
        )
        self.config, self.q, self.n_free = config, q, len(Z)

    def move(self, Z: np.ndarray) -> None:
        """Re-price every pair that involves a relay, for relays at Z: the
        relay rows ``F[n_src:]`` and the sources' relay columns
        ``F[:n_src, n_snk:]``.  The sources' sink costs, the supplies and
        the arcs stay, so the kept tree stays a feasible start."""
        config, q, F = self.config, self.q, self.F
        n_src, n_snk = config.n_sources, config.n_sinks
        F[n_src:] = _pair_costs(Z, np.vstack([config.sink_positions(), Z]), q)
        F[:n_src, n_snk:] = _pair_costs(config.source_positions(), Z, q)
        # as built: the largest cost with the relays' zero self-pairs, which
        # then become the loops without an arc
        self._fmax = float(F.max())
        np.fill_diagonal(F[n_src:, n_snk:], np.inf)


def _threaded_start(
    coupling: Sequence[Sequence[int]], net: _PlanNetwork, Z: np.ndarray
) -> tuple[list, list, list]:
    """Start tree for the first solve of ``net``, whose relays sit at Z:
    ``coupling``, the final ``(parent, pred, flow)`` tree of the solved
    zero-relay plan network of the same config, with the relays threaded
    onto its segments.

    That network has an arc for every source-sink pair, so its arc a runs
    from source ``a // n_sinks`` to sink ``a % n_sinks``.  Every terminal
    keeps its coupling parent, arc and flow.  The segments are the tree
    arcs that carry flow, in row-major order.  Each relay goes to the
    segment nearest it, ties to the first, at its projection t there.
    Taking a segment's relays by increasing t (stable), a relay z joins the
    route source -> ... -> sink after its last node x only when
    ``|x - z|^q + |z - sink|^q <= |x - sink|^q`` at ``net``'s q, so each
    insertion lowers the route's cost.  Every hop carries the segment's
    flow and hangs the way the segment hung, sink below source or source
    below sink.  A relay left out keeps its zero-flow artificial arc to the
    root.  The solve checks the tree as it checks any caller's start.
    """
    config = net.config
    n_src, n_snk = config.n_sources, config.n_sinks
    n_term, n_cols, m_c = n_src + n_snk, n_snk + len(Z), n_src * n_snk
    c_parent, c_pred, c_flow = coupling
    if len(c_parent) != n_term:
        raise ValueError(f"coupling tree has {len(c_parent)} nodes, the config {n_term} terminals")
    n, m, cost, arc_id = net.n, net.m, net.F.item, net._arc_of.item
    parent = [n if p == n_term else p for p in c_parent] + [n] * len(Z)
    pred = [
        arc_id(a // n_snk * n_cols + a % n_snk) if a < m_c else m + u
        for u, a in enumerate(c_pred)
    ] + list(range(m + n_term, m + n))
    flow = list(c_flow) + [0] * len(Z)
    segments = sorted((a, u) for u, a in enumerate(c_pred) if a < m_c and c_flow[u] > 0)
    src_of, snk_of = np.divmod(np.array([a for a, _ in segments], dtype=np.int64), n_snk)
    A = config.source_positions()[src_of]
    D = config.sink_positions()[snk_of] - A
    AZ = Z[:, None, :] - A
    length2 = (D * D).sum(axis=1)
    t = np.clip((AZ * D).sum(axis=2) / np.where(length2 > 0.0, length2, 1.0), 0.0, 1.0)
    gap = t[:, :, None] * D - AZ
    nearest = (gap * gap).sum(axis=2).argmin(axis=1)
    order = np.lexsort((t[np.arange(len(Z)), nearest], nearest)).tolist()
    nearest = nearest.tolist()
    threaded: list[list[int]] = [[] for _ in segments]
    for r in order:
        k = nearest[r]
        chain = threaded[k]
        i, j = divmod(segments[k][0], n_snk)
        x = n_src + chain[-1] if chain else i
        if cost(x, n_snk + r) + cost(n_src + r, j) <= cost(x, j):
            chain.append(r)
    for (a, u), chain in zip(segments, threaded):
        if not chain:
            continue
        i, j = divmod(a, n_snk)
        rows = [i] + [n_src + r for r in chain]
        cols = [n_snk + r for r in chain] + [j]
        nodes = [i] + [n_term + r for r in chain] + [n_src + j]
        sink_below = u == n_src + j
        for h in range(len(chain) + 1):
            tail, head = nodes[h], nodes[h + 1]
            child, above = (head, tail) if sink_below else (tail, head)
            parent[child], flow[child] = above, c_flow[u]
            pred[child] = arc_id(rows[h] * n_cols + cols[h])
    return parent, pred, flow


class TreeBasis:
    """A caller's warm state for :func:`min_cost_plan`: the plan network of
    its first solve, which keeps its final simplex tree between solves.
    Serves one config object, q and relay count.

    ``coupling``, when given, is the final tree
    (:attr:`MinCostFlowNetwork.tree`) of the solved zero-relay plan network
    of the same config, such as the W_1 coupling that
    :func:`positions.w1_seed` solves on a basis.  The first solve then
    starts from that tree with the relays threaded onto its segments
    (``_threaded_start``), not from the artificial tree; a tree that does
    not fit raises ValueError.  Later solves start from the kept tree.
    """

    __slots__ = ("network", "coupling")

    def __init__(self, coupling: Sequence[Sequence[int]] | None = None) -> None:
        #: the plan network; None until the first solve on this basis
        self.network: _PlanNetwork | None = None
        #: the coupling tree that, threaded, starts the first solve
        self.coupling = coupling


def min_cost_plan(
    config: SignedConfig,
    Z: np.ndarray | None,
    q: float,
    basis: TreeBasis | None = None,
) -> tuple[TransportPlan, float]:
    """Optimal transport plan through the given relay atoms, at fixed positions.

    Returns ``(plan, cost)`` where cost is the q-power objective
    sum(gamma_ij * |.|^q).  The plan is an exact optimum of the underlying
    linear program up to the 10^-9 mass grid; output is deterministic for
    identical inputs.  ``basis``, when given, keeps the plan network: an
    empty one receives the network this solve builds, and one that holds a
    network built for the same config object, q and number of relays has
    it re-priced at Z and re-solved from its last tree.  Any other basis
    raises ValueError.  The solve that builds the network starts from the
    basis's coupling tree with the relays threaded on, when the basis
    carries one (:class:`TreeBasis`), else cold, as does a solve without
    a basis; from any start, the optimal cost is the same.  A solve that
    builds a network first validates the config and the exponent (finite,
    >= 1) and raises InvalidConfigError on either.
    """
    net = basis.network if basis is not None else None
    if net is None:
        validate(config)
        validate_exponent(q)
    Z = as_positions(Z, config.dimension)
    start = None
    if net is None:
        net = _PlanNetwork(config, Z, q)
        if basis is not None:
            basis.network = net
            if basis.coupling is not None:
                start = _threaded_start(basis.coupling, net, Z)
    elif net.config is config and net.q == q and net.n_free == len(Z):
        net.move(Z)
    else:
        raise ValueError("basis holds the plan network of another config, q or relay count")
    net.solve(start=start)
    unit = total_mass(config) / MASS_UNITS
    entries = {key: f * unit for key, f in net.flows().items()}
    plan = TransportPlan(config.n_sources, config.n_sinks, len(Z), entries)
    F = net.F
    cost = float(sum(g * F[key] for key, g in entries.items()))
    return plan, cost


def plan_cost(config: SignedConfig, Z: np.ndarray, plan: TransportPlan, q: float) -> float:
    """Evaluate the q-power objective of an arbitrary plan at positions Z.

    Both ends of every entry are gathered at once.  Each squared length is
    the ``dot`` that ``np.linalg.norm`` takes of one vector, and the terms
    are summed left to right in entry order, so the value equals that of a
    loop taking one norm per entry, bit for bit.
    """
    P = vertex_positions(config, Z)
    if not plan.entries:
        return 0.0
    ij = np.array(list(plan.entries), dtype=np.intp)
    rows = ij[:, 0]
    tails = np.where(rows < plan.n_sources, rows, rows + plan.n_sinks)
    d = P[tails] - P[ij[:, 1] + plan.n_sources]
    dist = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    total = 0.0
    for g, length in zip(plan.entries.values(), dist.tolist()):
        total += g * length**q
    return total


def check_plan(plan: TransportPlan, config: SignedConfig) -> list[str]:
    """Return human-readable constraint violations (empty list when feasible),
    marginals compared to MARGINAL_RTOL of max(1, total mass)."""
    tol = MARGINAL_RTOL * max(1.0, total_mass(config))
    problems: list[str] = []
    for key, g in plan.entries.items():
        if g < 0:
            problems.append(f"negative flow {g!r} at {key}")
        i, j = key
        if not (0 <= i < plan.n_rows and 0 <= j < plan.n_cols):
            problems.append(f"index {key} out of range")
        if i >= plan.n_sources and j >= plan.n_sinks and i - plan.n_sources == j - plan.n_sinks:
            if g > 0:
                problems.append(f"self-loop flow at free atom {i - plan.n_sources}")
    src = plan.source_outflows()
    for i, m in enumerate(config.source_masses()):
        if abs(src[i] - m) > tol:
            problems.append(f"source {i} ships {src[i]!r}, mass is {m!r}")
    snk = plan.sink_inflows()
    for j, m in enumerate(config.sink_masses()):
        if abs(snk[j] - m) > tol:
            problems.append(f"sink {j} receives {snk[j]!r}, mass is {m!r}")
    fin, fout = plan.free_inflows(), plan.free_outflows()
    for a in range(plan.n_free):
        if abs(fin[a] - fout[a]) > tol:
            problems.append(
                f"free atom {a} violates conservation: in {fin[a]!r} out {fout[a]!r}"
            )
    return problems


def wasserstein_q(
    plus: Sequence[Atom],
    minus: Sequence[Atom],
    q: float,
) -> float:
    """q-Wasserstein distance between two balanced atomic measures (q >= 1)."""
    coupling, cost = wasserstein_coupling(plus, minus, q)
    return cost ** (1.0 / q)


def wasserstein_coupling(
    plus: Sequence[Atom],
    minus: Sequence[Atom],
    q: float,
) -> tuple[dict[tuple[int, int], float], float]:
    """Optimal coupling and its q-power cost between two atomic measures:
    the plan LP with no relays, keyed (plus index, minus index)."""
    plus, minus = tuple(plus), tuple(minus)
    config = SignedConfig(plus, minus, plus[0].dim if plus else 0)
    plan, cost = min_cost_plan(config, None, q)
    return plan.entries, cost
