"""Y instance: two unit sources feeding one mass-2 sink through a branch.

Sweeps n in {6, 12, ..., 384}, doubling, comparing the rescaled solver
value and the reduced solver tree against the enumerated optimum (cost
3*sqrt(2), branch point at (0, 1)).  Exits 1 unless every row is inside
the sandwich bounds, the Hausdorff distance to the optimal tree falls at
every doubling, and the relative gap at the largest n is below 5%.
Writes CSV, reports, and SVGs to ./out_y_instance/.  Takes a few seconds.

    python3 scripts/run_y_instance.py
"""

import math
import sys
from pathlib import Path

from branchflow import CostParams, oracle, render, sweep, sweep_to_csv, y_instance
from branchflow.measures import atomic_write_text


def main() -> int:
    q = 2.0
    config = y_instance()
    sol = oracle(config, q)
    print(f"oracle cost {sol.cost:.9f} (3*sqrt(2) = {3 * math.sqrt(2):.9f}), "
          f"branch at {sol.steiner_positions.round(9).tolist()}")

    records, details = sweep(config, q, [6, 12, 24, 48, 96, 192, 384], CostParams(q=q),
                             oracle_solution=sol)
    out = Path("out_y_instance")
    out.mkdir(exist_ok=True)
    atomic_write_text(out / "sweep.csv", sweep_to_csv(records))
    render(sol.graph, out / "oracle.svg", q=q)
    for n, _, tree in details:
        if tree is not None:
            render(tree, out / f"tree_n{n}.svg", q=q)

    print(f"{'n':>4} {'rescaled':>10} {'upper':>10} {'lower':>10} {'hausdorff':>10}")
    ok = True
    for r in records:
        print(f"{r.n:>4} {r.rescaled:>10.6f} {r.upper:>10.6f} "
              f"{r.lower:>10.6f} {r.hausdorff:>10.6f}")
        ok &= r.in_bounds
    falls = all(b.hausdorff < a.hausdorff for a, b in zip(records, records[1:]))
    gap = (records[-1].rescaled - sol.cost) / sol.cost
    print(f"relative gap at n={records[-1].n}: {gap:.2%} (must be < 5% in size); "
          f"sandwich {'held' if ok else 'VIOLATED'}; Hausdorff distance "
          f"{'falls' if falls else 'does NOT fall'} at every doubling; "
          f"outputs in {out}/")
    return 0 if ok and falls and abs(gap) < 0.05 else 1


if __name__ == "__main__":
    sys.exit(main())
