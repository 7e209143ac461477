"""Transport plans between terminals routed through free relay atoms.

A plan is a sparse nonnegative matrix gamma over a combined index set of
size (n_sources + n_free) x (n_sinks + n_free):

* row i < n_sources  -> source i;  row i >= n_sources  -> free atom i - n_sources
* col j < n_sinks    -> sink j;    col j >= n_sinks    -> free atom j - n_sinks

Row sums at source rows must equal source masses, column sums at sink
columns must equal sink masses, and every free atom conserves mass (inflow
== outflow).  gamma[i][j] with both indices free and i == j (a self-loop)
is never produced by the solver.

A :class:`TransportPlan` holds gamma's support as read-only ``rows``,
``cols`` and ``flows`` arrays in strictly increasing row-major key order,
the order in which the simplex hands it over, so no solver plan is sorted;
only :meth:`TransportPlan.from_triplets`, for keys in any order, sorts.

For geometric bookkeeping the same plan is also viewed as a digraph on
"vertex" ids: sources 0..S-1, sinks S..S+T-1, free atoms S+T.. — sources
only ever emit, sinks only ever absorb, so directed cycles can involve free
atoms alone.  :meth:`TransportPlan.arcs` is the one place that rule is
applied, in one pass over the rows: every reader of a plan as arcs (the
position kernel, ``plan_cost``, the plan graph, the forest test, the W_1
seed) and the marginals (:meth:`TransportPlan.vertex_flows`) take it from
there.

The plan solver is an exact min-cost flow: masses are scaled to integers
summing to 10^9 by largest-remainder rounding (so the represented marginals
sit within one part in 10^9 of the true ones), supplies sit on source
nodes, demands on sink nodes, and free atoms are conservation nodes.  Every
pair of the matrix but the free self-loops is an uncapacitated arc, and a
primal network simplex (``_mcf``) keeps all of them priced at every
pivot, so its final potentials certify the flow optimal for the full linear
program.  Its flow is a basic solution, whose support is a forest.

``min_cost_plan`` is the one entry to that linear program: it alone
validates an instance and builds a flow network.  With no relays the plan
LP is the plain W_q coupling, so ``wasserstein_coupling`` is its n = 0
solve.

``min_cost_plan`` takes an optional caller-owned :class:`TreeBasis`, and
that basis is the only state kept here.  Its first solve builds the plan
network, which holds the validated config, the integer supplies, the arcs
and the sources' sink costs, which depend on the terminals, q and the relay
count alone, and stores it on the basis.  Each later solve on the basis
re-prices only the entries that involve a relay, to the same bits as a
fresh build, and starts from the tree the network kept, the only copy of
it.  When that solve makes no pivot, its tree and so its flows are the
previous plan's, so its plan equals that one entry for entry.  When the
basis carries the final tree of the config's solved zero-relay network
(the W_1 coupling), the next solve starts from it instead, with the
relays threaded onto its segments (``_threaded_start``), and the basis
drops it.  So one network serves every start of a multistart solve: each
start sets the coupling and re-prices the network at its own layout.

Every step around the pivots is a whole-array pass.  Costs are priced one
coordinate at a time (``_pair_costs``), to the same bits as a sum over the
coordinate axis of a ``(rows, cols, dim)`` array, without building it;
``_segment_offsets``, the one point-segment projection of the threaded
start, ``graphs.reduce_graph`` and ``hausdorff``, sums the same way.
The simplex hands its positive arcs over as arrays
(:meth:`MinCostFlowNetwork.support`), which become the plan's arrays as
they are, without the constructor's re-checks (``TransportPlan._trusted``),
and the plan's cost is gathered from the cost matrix in one index, then
summed left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from types import MappingProxyType
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

#: flows at or below this fraction of total mass are structural zeros for
#: ``regularize`` and the oracle; a solver plan's flows are whole units of
#: total/MASS_UNITS, 1000 times more
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


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Sparse transport matrix, entry k carrying ``flows[k]`` from row
    ``rows[k]`` to column ``cols[k]``, with the bookkeeping described above.

    Construction keeps read-only intp and float copies of the arrays and,
    without a sort, raises InvalidConfigError on an index that is not an
    integer or lies outside the plan, on keys that do not strictly increase
    in row-major order, and on a flow that is NaN, infinite or negative.
    The plan solver's arrays pass all of that by construction and skip it
    (:meth:`_trusted`).
    """

    n_sources: int
    n_sinks: int
    n_free: int
    rows: np.ndarray = ()
    cols: np.ndarray = ()
    flows: np.ndarray = ()

    def __post_init__(self) -> None:
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        flows = np.array(self.flows, dtype=float)
        if not (rows.ndim == 1 and rows.shape == cols.shape == flows.shape):
            raise InvalidConfigError("plan rows, cols and flows must be 1-d and of one length")
        # a cast to intp would truncate a fractional index without a word
        if rows.size and not (rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
            raise InvalidConfigError("plan rows and cols must be integers")
        if rows.size and not (0 <= rows.min() and rows.max() < self.n_rows
                              and 0 <= cols.min() and cols.max() < self.n_cols):
            raise InvalidConfigError("plan has an entry outside its rows and columns")
        rows, cols = rows.astype(np.intp), cols.astype(np.intp)
        keys = rows * self.n_cols + cols
        if not (keys[1:] > keys[:-1]).all():
            raise InvalidConfigError("plan keys must strictly increase in row-major order")
        if not ((flows >= 0.0) & (flows < np.inf)).all():  # NaN fails both
            raise InvalidConfigError("plan flows must be finite and nonnegative")
        for name, arr in (("rows", rows), ("cols", cols), ("flows", flows)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def _trusted(cls, n_sources: int, n_sinks: int, n_free: int, rows: np.ndarray,
                 cols: np.ndarray, flows: np.ndarray) -> "TransportPlan":
        """A plan on arrays that pass the constructor's checks by
        construction, as :meth:`MinCostFlowNetwork.support`'s do: intp rows
        and cols inside the plan, keys strictly increasing in row-major
        order, float flows finite and nonnegative, and no other owner.  They
        are kept as they are, made read-only, without a check or a copy."""
        plan = cls.__new__(cls)
        for name, value in (("n_sources", n_sources), ("n_sinks", n_sinks),
                            ("n_free", n_free), ("rows", rows), ("cols", cols),
                            ("flows", flows)):
            object.__setattr__(plan, name, value)
        for arr in (rows, cols, flows):
            arr.flags.writeable = False
        return plan

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

    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries as arcs, in key order: tail and head vertex ids
        (intp) and flows (float, the plan's own read-only array)."""
        rows, ns = self.rows, self.n_sources
        return np.where(rows < ns, rows, rows + self.n_sinks), self.cols + ns, self.flows

    def vertex_flows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each vertex's (inflow, outflow), indexed by vertex id: sources
        first, then sinks, then free atoms."""
        tails, heads, flows = self.arcs()
        n = self.n_vertices
        return np.bincount(heads, flows, n), np.bincount(tails, flows, n)

    def throughputs(self) -> np.ndarray:
        """Mass relayed by each free atom (outflow; equals inflow when feasible)."""
        return self.vertex_flows()[1][self.n_sources + self.n_sinks:]

    # ---- views / conversions -------------------------------------------
    @property
    def entries(self) -> MappingProxyType:
        """A read-only ``{(row, col): flow}`` view in key order, built on
        each access; the solver reads the arrays."""
        return MappingProxyType({(i, j): g for i, j, g in self.to_triplets()})

    def pruned(self, tol: float) -> "TransportPlan":
        """Drop entries with flow <= tol; without one, the plan itself."""
        keep = self.flows > tol
        if keep.all():
            return self
        return TransportPlan(self.n_sources, self.n_sinks, self.n_free,
                             self.rows[keep], self.cols[keep], self.flows[keep])

    def to_triplets(self) -> list[tuple[int, int, float]]:
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.flows.tolist()))

    @classmethod
    def from_triplets(cls, n_sources: int, n_sinks: int, n_free: int,
                      triplets: Iterable[tuple[int, int, float]]) -> "TransportPlan":
        """A plan from (row, column, flow) triplets in any order; flows on
        one key add up and zero flows are dropped.  Raises InvalidConfigError
        for a row or column that is not an integer (int(0.5) would read as
        row 0) and for a flow that is not finite or is negative."""
        entries: dict[tuple[int, int], float] = {}
        for i, j, g in triplets:
            if not (isinstance(i, Integral) and isinstance(j, Integral)):
                raise InvalidConfigError(f"index ({i!r}, {j!r}) is not a pair of integers")
            if not 0 <= g < math.inf:  # NaN fails both
                raise InvalidConfigError(f"flow {g!r} on ({i}, {j}) is not finite and nonnegative")
            if g > 0:
                entries[(int(i), int(j))] = entries.get((int(i), int(j)), 0.0) + float(g)
        keys = sorted(entries)
        rows, cols = np.array(keys, dtype=np.intp).reshape(-1, 2).T
        return cls(n_sources, n_sinks, n_free, rows, cols, [entries[k] for k in keys])


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

    The squared length is accumulated one coordinate at a time, ``d0*d0``
    then ``+= d1*d1`` and so on: the terms, in the order in which a sum over
    the coordinate axis of a ``(rows, cols, dim)`` array adds them (that sum
    starts from +0.0, which a square never changes), so the entries are the
    same bit for bit, without that array.  Each entry is computed on its
    own, so a block of rows or columns equals that block of the full matrix.
    """
    d = A[:, 0, None] - B[:, 0]
    s = d * d
    for k in range(1, A.shape[1]):
        d = A[:, k, None] - B[:, k]
        s += d * d
    return np.sqrt(s) ** q


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

    __slots__ = ("config", "q", "n_free", "_sources", "_sinks")

    def __init__(self, config: SignedConfig, Z: np.ndarray, q: float) -> None:
        super().__init__(
            cost_matrix(config, Z, q), config.n_sources, config.n_sinks,
            integer_mass_units(config.source_masses()),
            integer_mass_units(config.sink_masses()),
        )
        self.config, self.q, self.n_free = config, q, len(Z)
        self._sources, self._sinks = config.source_positions(), config.sink_positions()

    def move(self, Z: np.ndarray) -> None:
        """Re-price every pair that involves a relay, for relays at Z: the
        relay rows ``F[n_src:]``, as their sink and relay blocks, and the
        sources' relay columns ``F[:n_src, n_snk:]``.  ``_pair_costs``
        prices each entry on its own, so the blocks equal a fresh cost
        matrix.  The sources' sink costs, the supplies and the arcs stay,
        so the kept tree stays a feasible start."""
        q, F = self.q, self.F
        n_src, n_snk = len(self._sources), len(self._sinks)
        F[n_src:, :n_snk] = _pair_costs(Z, self._sinks, q)
        F[n_src:, n_snk:] = _pair_costs(Z, Z, q)
        F[:n_src, n_snk:] = _pair_costs(self._sources, Z, q)
        # as built: the largest cost with the relays' zero self-pairs, which
        # then become the loops without an arc
        self._fmax = float(F.max())
        np.fill_diagonal(F[n_src:, n_snk:], np.inf)


def _threaded_start(
    coupling: Sequence[Sequence[int]], net: _PlanNetwork, Z: np.ndarray
) -> tuple[list, list, list]:
    """Start tree for a solve of ``net`` with its relays at Z:
    ``coupling``, the final ``(parent, pred, flow)`` tree of the solved
    zero-relay plan network of the same config, with the relays threaded
    onto its segments.

    That network has an arc for every source-sink pair, so its arc a runs
    from source ``a // n_sinks`` to sink ``a % n_sinks``.  Every terminal
    keeps its coupling parent, arc and flow.  The segments are the tree
    arcs that carry flow, in row-major order.  Each relay goes to the
    segment nearest it (``_segment_offsets``), ties to the first, at its
    projection t there.
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
    t, gap2 = _segment_offsets(Z[:, None, :], A, config.sink_positions()[snk_of] - A)
    nearest = gap2.argmin(axis=1)
    t = t[np.arange(len(Z)), nearest]
    order = np.lexsort((t, nearest)).tolist()
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
    Serves one config object, q and relay count, at any relay positions.

    ``coupling``, when set, is the final tree
    (:attr:`MinCostFlowNetwork.tree`) of the solved zero-relay plan network
    of the same config, such as the W_1 coupling that
    :func:`positions.w1_seed` solves on a basis.  The next solve then
    starts from that tree with the relays threaded onto its segments
    (``_threaded_start``), not from the kept or the artificial tree, and
    sets ``coupling`` to None; a tree that does not fit raises ValueError.
    Every other solve starts from the kept tree.  Setting ``coupling``
    again threads a later solve: ``positions.alternate_minimize`` does so
    at each start, so its starts share one network.
    """

    __slots__ = ("network", "coupling")

    def __init__(self, coupling: Sequence[Sequence[int]] | None = None) -> None:
        #: the plan network; None until the first solve on this basis
        self.network: _PlanNetwork | None = None
        #: the coupling tree that, threaded, starts the next solve
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
    raises ValueError.  When the basis carries a coupling tree
    (:class:`TreeBasis`), the solve starts from it with the relays threaded
    on, and clears it; a solve on a new network without one starts cold, as
    does a solve without a basis.  From any start, the optimal cost is the
    same.  A solve that builds a network first validates the config and
    the exponent (finite, >= 1) and raises InvalidConfigError on either.
    """
    net = basis.network if basis is not None else None
    if net is None:
        validate(config)
        validate_exponent(q)
    Z = as_positions(Z, config.dimension)
    if net is None:
        net = _PlanNetwork(config, Z, q)
        if basis is not None:
            basis.network = net
    elif net.config is config and net.q == q and net.n_free == len(Z):
        net.move(Z)
    else:
        raise ValueError("basis holds the plan network of another config, q or relay count")
    start = None
    if basis is not None and basis.coupling is not None:
        coupling, basis.coupling = basis.coupling, None
        start = _threaded_start(coupling, net, Z)
    net.solve(start=start)
    rows, cols, units = net.support()
    # units are whole floats <= 10^9, so each flow has the bits of Python's int * unit
    flows = units * (total_mass(config) / MASS_UNITS)
    plan = TransportPlan._trusted(config.n_sources, config.n_sinks, len(Z), rows, cols, flows)
    cost = 0.0
    for g, c in zip(flows.tolist(), net.F[rows, cols].tolist()):
        cost += g * c
    return plan, cost


def _squared_norms(d: np.ndarray) -> np.ndarray:
    """Squared Euclidean length of each row of ``d``.

    One stacked matmul takes each row's dot with itself, the BLAS dot that
    ``np.linalg.norm`` takes of a single vector, so the square root of each
    entry equals ``np.linalg.norm(row)`` bit for bit.
    """
    return (d[:, None, :] @ d[:, :, None]).ravel()


def _segment_offsets(
    X: np.ndarray, A: np.ndarray, D: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Projection t in [0, 1] of points X onto segments ``A + t D`` (t = 0
    on a segment of length zero) and the squared distance to it, broadcast
    over the leading axes; the last axis holds the coordinates.

    Dot products, squared lengths and squared gaps are summed one
    coordinate at a time from +0.0, as a sum over the coordinate axis of
    the broadcast arrays adds them, so they equal those sums bit for bit,
    signed zeros included.  ValueError when the coordinate axes disagree.
    """
    dim = X.shape[-1]
    if A.shape[-1] != dim or D.shape[-1] != dim:
        raise ValueError(f"points and segments have {dim}, {A.shape[-1]} and "
                         f"{D.shape[-1]} coordinates")
    rel = [X[..., k] - A[..., k] for k in range(dim)]
    dot = length2 = 0.0
    for k, r in enumerate(rel):
        dot = dot + r * D[..., k]
        length2 = length2 + D[..., k] * D[..., k]
    t = np.clip(dot / np.where(length2 > 0.0, length2, 1.0), 0.0, 1.0)
    gap2 = 0.0
    for k, r in enumerate(rel):
        gap = t * D[..., k] - r
        gap2 = gap2 + gap * gap
    return t, gap2


def plan_cost(config: SignedConfig, Z: np.ndarray, plan: TransportPlan, q: float) -> float:
    """Evaluate the q-power objective of an arbitrary plan at positions Z.

    Both ends of every arc (:meth:`TransportPlan.arcs`) are gathered at
    once, and the terms are summed left to right in key order, so
    the value equals that of a loop over the sorted keys taking one
    ``np.linalg.norm`` per entry, bit for bit.
    """
    P = vertex_positions(config, Z)
    tails, heads, flows = plan.arcs()
    dist = np.sqrt(_squared_norms(P.take(tails, axis=0) - P.take(heads, axis=0)))
    total = 0.0
    for g, length in zip(flows.tolist(), dist.tolist()):
        total += g * length**q
    return total


def check_plan(plan: TransportPlan, config: SignedConfig) -> list[str]:
    """Return human-readable constraint violations (empty list when feasible),
    marginals compared to MARGINAL_RTOL of max(1, total mass).

    A plan with other source or sink counts than the config's is reported
    without its marginals, and so is a free self-loop with flow.
    """
    tol = MARGINAL_RTOL * max(1.0, total_mass(config))
    ns, nk = plan.n_sources, plan.n_sinks
    if (ns, nk) != (config.n_sources, config.n_sinks):
        return [f"plan has {ns} sources and {nk} sinks, "
                f"config has {config.n_sources} and {config.n_sinks}"]
    rows, cols = plan.rows, plan.cols
    loops = (rows >= ns) & (rows - ns == cols - nk) & (plan.flows > 0)
    problems = [f"self-loop flow at free atom {a}" for a in (rows[loops] - ns).tolist()]
    inflow, outflow = plan.vertex_flows()
    src, snk = outflow[:ns].tolist(), inflow[ns:ns + nk].tolist()
    fin, fout = inflow[ns + nk:].tolist(), outflow[ns + nk:].tolist()
    for i, m in enumerate(config.source_masses().tolist()):
        if abs(src[i] - m) > tol:
            problems.append(f"source {i} ships {src[i]!r}, mass is {m!r}")
    for j, m in enumerate(config.sink_masses().tolist()):
        if abs(snk[j] - m) > tol:
            problems.append(f"sink {j} receives {snk[j]!r}, mass is {m!r}")
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
    return dict(plan.entries), cost
