"""n-sweeps: solver runs across atom counts with bounds and tree distance.

Each record compares the rescaled solver value n^((q-1)/q) * wbar against
the two closed-form brackets around the limit network cost W:

* lower: W * (n / (n + 2N^3))^((q-1)/q), from the edge-count bound on
  regular plans (N = max terminal count per side);
* upper: n^((q-1)/q) times the bound of ``allocate``'s n-atom layout on
  the limit network's own tree: one atom at every vertex that passes flow
  on (each branch point, and each terminal a branch point collapsed onto),
  the rest spread over the edges.

The Hausdorff column is the exact distance (``hausdorff.hausdorff``, up to
rounding) between the reduced solver tree and the enumerated optimum's
tree, NaN when either has no edges or there is no oracle.  ``SweepRecord.in_bounds`` reads the bracket
with a relative tolerance, so its verdict does not change with the
instance's scale.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .measures import CostParams, InvalidConfigError, SignedConfig, validate
from .positions import SolveResult, alternate_minimize
from .graphs import ReducedTree, plan_to_graph, reduce_graph
from .allocate import allocate
from .hausdorff import hausdorff
from .oracle import OracleSolution, oracle, EnumerationBudgetError

#: slack of the sandwich check, relative to each bound
BOUNDS_RTOL = 1e-9


@dataclass(frozen=True)
class SweepRecord:
    n: int
    wbar: float
    rescaled: float
    upper: float
    lower: float
    hausdorff: float
    seconds: float
    converged: bool = True
    error: str = ""

    @property
    def in_bounds(self) -> bool:
        """lower <= rescaled <= upper, each bound widened by BOUNDS_RTOL of
        itself; a NaN bound (no oracle, or too few atoms for the upper
        bracket) is not checked; a failed solve (NaN rescaled) never holds."""
        return (
            not math.isnan(self.rescaled)
            and (math.isnan(self.lower)
                 or self.lower - BOUNDS_RTOL * abs(self.lower) <= self.rescaled)
            and (math.isnan(self.upper)
                 or self.rescaled <= self.upper + BOUNDS_RTOL * abs(self.upper))
        )


CSV_COLUMNS = ("n", "wbar", "rescaled", "upper", "lower", "hausdorff", "seconds")


def oracle_bounds(
    sol: OracleSolution, n: int, q: float, n_pairs: int
) -> tuple[float, float]:
    """(upper, lower) brackets for the rescaled value at atom count n."""
    try:
        upper = n ** ((q - 1.0) / q) * allocate(sol.graph, n, q).upper_bound
    except ValueError:  # too few atoms for the tree, or no edges
        upper = float("nan")
    lower = sol.cost * (n / (n + 2.0 * n_pairs**3)) ** ((q - 1.0) / q)
    return upper, lower


def solver_tree(config: SignedConfig, res: SolveResult) -> ReducedTree | None:
    """Reduced tree of a solve's induced network; None without relays."""
    if res.n == 0:
        return None
    return reduce_graph(plan_to_graph(config, res.Z, res.plan))


def sweep(
    config: SignedConfig,
    q: float,
    n_list: list[int],
    params: CostParams | None = None,
    oracle_solution: OracleSolution | None = None,
) -> tuple[list[SweepRecord], list[tuple[int, SolveResult, ReducedTree | None]]]:
    """Run the solver at each n; returns (records, detailed results).

    Errors in a single entry are recorded on that row and the sweep
    continues.  The oracle is computed once; if its enumeration budget
    is exceeded the bound and distance columns are NaN.  ``params.q``
    must equal ``q``, the exponent of the oracle and the bounds; this is
    checked before any solve.
    """
    config = validate(config)
    params = params or CostParams(q=q)
    if params.q != q:
        raise InvalidConfigError(
            f"sweep at q={q} given solver params with q={params.q}")
    if oracle_solution is None:
        try:
            oracle_solution = oracle(config, q)
        except EnumerationBudgetError:
            oracle_solution = None
    records: list[SweepRecord] = []
    details: list[tuple[int, SolveResult, ReducedTree | None]] = []
    for n in n_list:
        t0 = time.perf_counter()
        try:
            res = alternate_minimize(config, n, params)
            tree = solver_tree(config, res)
            if oracle_solution is not None:
                upper, lower = oracle_bounds(oracle_solution, n, q, config.n_pairs)
                dist = (
                    hausdorff(tree, oracle_solution.graph)
                    if tree is not None and tree.n_edges and oracle_solution.graph.n_edges
                    else float("nan")
                )
            else:
                upper = lower = dist = float("nan")
            records.append(
                SweepRecord(
                    n=n,
                    wbar=res.wbar,
                    rescaled=res.rescaled,
                    upper=upper,
                    lower=lower,
                    hausdorff=dist,
                    seconds=time.perf_counter() - t0,
                    converged=res.converged,
                )
            )
            details.append((n, res, tree))
        except Exception as exc:  # noqa: BLE001 - per-entry isolation is the contract
            records.append(
                SweepRecord(
                    n=n,
                    wbar=float("nan"),
                    rescaled=float("nan"),
                    upper=float("nan"),
                    lower=float("nan"),
                    hausdorff=float("nan"),
                    seconds=time.perf_counter() - t0,
                    converged=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    return records, details


def sweep_to_csv(records: list[SweepRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(
            f"{r.n},{r.wbar:.12g},{r.rescaled:.12g},{r.upper:.12g},"
            f"{r.lower:.12g},{r.hausdorff:.12g},{r.seconds:.3f}"
        )
    return "\n".join(lines) + "\n"
