"""branchflow benchmark: one workload timed end to end, or per layer when traced.

    python3 perfbench/run.py --workload y_ladder --seed 0 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory, in this one process, with BLAS pinned to one thread.
The workloads, the metrics and their units are listed in BENCHMARK.json at
the repository root; perfbench/README.md says which layer metric should
move which end-to-end metric.

A run sets up three times (import once, then instance build plus a
single-edge warm-up that checks the closed form sqrt(n/(n+1))), then
repeats the workload's whole pass while another pass still fits in
``--seconds``, and always at least twice, because every pass must
reproduce the first one's answers bit for bit.  Times are medians over
passes.  With ``--trace 1`` passes alternate untraced and traced; the
traced ones give the per-layer figures, and the difference between the
two medians is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

All seconds reported are seconds at the reference speed of probe.py, which
divides out the drift of a shared host's speed; the measured seconds of
each pass are printed on the ``info`` line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS thread, so timings do not depend on cores; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import spans
from probe import SpeedProbe
from reference import COST_Q, Y_GATE, Y_HAUSDORFF, Y_RESCALED

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_REPS = 3
WARMUP_N = (1, 2)
WARMUP_TOL = 1e-9
BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class Case:
    """One instance of a workload: solved at each n, with or without an oracle."""

    k: int
    config: object
    q: float
    n_list: tuple[int, ...]
    params: object
    with_oracle: bool


@dataclass
class Row:
    """Answers of one solve or oracle call, at scale 1; ``key`` is
    (workload, instance, n or "oracle")."""

    key: tuple
    cost_q: float = math.nan
    rescaled: float = math.nan
    lower: float = math.nan
    upper: float = math.nan
    hausdorff: float = math.nan
    has_bounds: bool = False
    errors: list[str] = field(default_factory=list)

    def fingerprint(self) -> tuple:
        return (self.key, float(self.cost_q).hex(), float(self.rescaled).hex())

    @property
    def in_bounds(self) -> bool:
        return (
            self.lower - BOUND_RTOL * abs(self.lower)
            <= self.rescaled
            <= self.upper + BOUND_RTOL * abs(self.upper)
        )


def import_package():
    """Import branchflow from this checkout's src/."""
    if not (SRC / "branchflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import branchflow

    if Path(branchflow.__file__).resolve().parent != SRC / "branchflow":
        sys.exit(f"perfbench: imported branchflow from {branchflow.__file__}, not {SRC}")
    return branchflow


def scaled(bf, config, s: float):
    """The same instance with every coordinate multiplied by s."""

    def move(atoms):
        return tuple(bf.Atom(tuple(s * c for c in a.position), a.mass) for a in atoms)

    return bf.validate(bf.SignedConfig(move(config.sources), move(config.sinks), config.dimension))


def build_cases(bf, workload: str, scale: float) -> list[Case]:
    """The workload's instances.  The instance family is fixed (family seed 0,
    the one the issue profiled) so every run times the same work; the run's
    seed only picks the coordinate scale, a power of four, under which every
    answer must scale exactly."""
    if workload == "y_ladder":
        return [Case(0, scaled(bf, bf.y_instance(), scale), 2.0, (6, 12, 24, 48),
                     bf.CostParams(q=2.0), True)]
    if workload == "wide_plan":
        config = bf.random_instance(np.random.default_rng([0, 0]), 64, 64, total_mass=64)
        return [Case(0, scaled(bf, config, scale), 2.0, (32,),
                     bf.CostParams(q=2.0, restarts=2), False)]
    if workload == "certify_q":
        cases = []
        for k in range(4):
            q = 1.5 if k % 2 == 0 else 3.0
            config = bf.random_instance(np.random.default_rng([0, k]), 2, 2)
            cases.append(Case(k, scaled(bf, config, scale), q, (8, 16), bf.CostParams(q=q), True))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(bf) -> list[Row]:
    """Single-edge solves checked against the closed form sqrt(n/(n+1))."""
    config = bf.single_edge()
    rows = []
    for n in WARMUP_N:
        row = Row(("warm_up", 0, n))
        res = bf.alternate_minimize(config, n, bf.CostParams(q=2.0))
        row.cost_q, row.rescaled = res.cost_q, res.rescaled
        target = math.sqrt(n / (n + 1.0))
        if not abs(res.rescaled - target) <= WARMUP_TOL:
            row.errors.append(f"rescaled {res.rescaled!r} is not sqrt(n/(n+1)) = {target!r}")
        row.errors.extend(bf.check_plan(res.plan, config))
        rows.append(row)
    return rows


def run_case(bf, workload: str, case: Case, scale: float) -> tuple[list[Row], float]:
    """Solve one instance; returns its rows (answers at scale 1) and oracle seconds."""
    oracle_mod = importlib.import_module("branchflow.oracle")
    sweep_mod = importlib.import_module("branchflow.sweep")
    positions = importlib.import_module("branchflow.positions")
    s_q = scale ** case.q
    rows: list[Row] = []
    oracle_s = 0.0
    if case.with_oracle:
        t0 = time.perf_counter()
        sol = oracle_mod.oracle(case.config, case.q)
        oracle_s = time.perf_counter() - t0
        oracle_row = Row((workload, case.k, "oracle"), cost_q=sol.cost / scale)
        if workload == "y_ladder" and not abs(oracle_row.cost_q - 3.0 * math.sqrt(2.0)) <= 1e-9:
            oracle_row.errors.append(f"oracle cost {oracle_row.cost_q!r} is not 3*sqrt(2)")
        rows.append(oracle_row)
        records, details = sweep_mod.sweep(
            case.config, case.q, list(case.n_list), case.params, oracle_solution=sol
        )
        results = {n: res for n, res, _ in details}
        for rec in records:
            row = Row((workload, case.k, rec.n), rescaled=rec.rescaled / scale,
                      lower=rec.lower / scale, upper=rec.upper / scale,
                      hausdorff=rec.hausdorff / scale, has_bounds=True)
            if rec.error:
                row.errors.append(rec.error)
            else:
                res = results[rec.n]
                row.cost_q = res.cost_q / s_q
                row.errors.extend(bf.check_plan(res.plan, case.config))
            rows.append(row)
    else:
        for n in case.n_list:
            row = Row((workload, case.k, n))
            try:
                res = positions.alternate_minimize(case.config, n, case.params)
            except Exception as exc:  # noqa: BLE001 - a failed solve is a counted failure
                row.errors.append(f"{type(exc).__name__}: {exc}")
            else:
                row.cost_q, row.rescaled = res.cost_q / s_q, res.rescaled / scale
                row.errors.extend(bf.check_plan(res.plan, case.config))
            rows.append(row)
    return rows, oracle_s


def check_answers(rows: list[Row]) -> None:
    """Hard answer gates: finite values, the frozen Y ladder, a recorded reference."""
    for row in rows:
        workload, _, n = row.key
        if n == "oracle" or row.errors:
            continue
        if not (math.isfinite(row.cost_q) and math.isfinite(row.rescaled)):
            row.errors.append("non-finite answer")
        if workload == "y_ladder":
            if not abs(row.rescaled - Y_RESCALED[n]) <= Y_GATE:
                row.errors.append(f"rescaled {row.rescaled!r} off the frozen ladder {Y_RESCALED[n]!r}")
            if not abs(row.hausdorff - Y_HAUSDORFF[n]) <= Y_GATE:
                row.errors.append(f"hausdorff {row.hausdorff!r} off the frozen ladder {Y_HAUSDORFF[n]!r}")
        if row.key not in COST_Q:
            row.errors.append("no reference cost_q recorded for this row")


@dataclass
class PassResult:
    """One pass: its rows, measured seconds, and seconds at the reference speed."""

    rows: list[Row]
    measured_s: float
    wall_s: float
    solve_s: float
    oracle_s: float
    traced: bool
    layers: dict[str, float]


def run_pass(bf, probe: SpeedProbe, workload: str, cases: list[Case], scale: float,
             traced: bool) -> PassResult:
    tracer = spans.Tracer()
    with tracer:
        tracer.install(spans.solve_patches())
        if traced:
            tracer.install(spans.layer_patches())
        rows: list[Row] = []
        measured_s = wall_s = oracle_s = 0.0
        for case in cases:
            # each instance goes on the reference speed by the probe samples
            # taken while it ran, which follows drift faster than a whole pass
            mark = probe.mark()
            t0 = time.perf_counter()
            case_rows, case_oracle_s = run_case(bf, workload, case, scale)
            case_s = time.perf_counter() - t0
            speed = probe.speed_factor(mark, case_s)
            rows.extend(case_rows)
            measured_s += case_s
            wall_s += case_s * speed
            oracle_s += case_oracle_s * speed
    check_answers(rows)
    speed = wall_s / measured_s
    return PassResult(rows, measured_s, wall_s, tracer.total("solve") * speed, oracle_s,
                      traced, tracer.layer_metrics(speed) if traced else {})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("y_ladder", "wide_plan", "certify_q"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scale = 4.0 ** (args.seed % 5 - 2)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        bf = import_package()
        import_s = time.perf_counter() - t0
        setup_reps, speeds = [], []
        warm_rows: list[Row] = []
        for _ in range(SETUP_REPS):
            mark = probe.mark()
            t0 = time.perf_counter()
            cases = build_cases(bf, args.workload, scale)
            warm_rows.extend(warm_up(bf))
            setup_reps.append(time.perf_counter() - t0)
            speeds.append(probe.speed_factor(mark, setup_reps[-1]))
        # the import is too short to hold a probe sample; it takes the
        # speed of the set-up that follows it
        setup_s = import_s * speeds[0] + statistics.median(
            r * v for r, v in zip(setup_reps, speeds))

        passes: list[PassResult] = []
        t_begin = time.perf_counter()
        while len(passes) < 2 or (
            time.perf_counter() - t_begin + statistics.median(p.measured_s for p in passes)
            <= args.seconds
        ):
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(bf, probe, args.workload, cases, scale, traced))

    # every pass must reproduce the first one bit for bit
    first = {r.key: r.fingerprint() for r in passes[0].rows}
    for p in passes[1:]:
        for row in p.rows:
            if row.fingerprint() != first.get(row.key):
                row.errors.append("answer differs from the first pass")

    all_rows = warm_rows + [r for p in passes for r in p.rows]
    failed = [r for r in all_rows if r.errors]
    for row in failed[:20]:
        print(f"FAILED {row.key}: {'; '.join(row.errors)}", file=sys.stderr)

    rows = passes[0].rows
    solved = [r for r in rows if r.key[2] != "oracle"]
    bounded = [r for r in solved if r.has_bounds]
    for r in rows:
        print(f"row {r.key[0]} k={r.key[1]} n={r.key[2]} cost_q={r.cost_q!r} "
              f"rescaled={r.rescaled!r} lower={r.lower!r} upper={r.upper!r} "
              f"hausdorff={r.hausdorff!r}" + ("" if r.in_bounds or not r.has_bounds
                                               else " OUTSIDE_BOUNDS"))

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    ratios = [r.cost_q / COST_Q[r.key] for r in solved
              if r.key in COST_Q and math.isfinite(r.cost_q)]
    if not ratios:
        sys.exit("perfbench: no row returned an answer")
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in untraced),
        "solve_s": statistics.median(p.solve_s for p in untraced),
        "objective_rel": statistics.fmean(ratios),
        # rows without an oracle have no bounds to break
        "bounds_ok_frac": (sum(r.in_bounds for r in bounded) / len(bounded)) if bounded else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        for name in traced[0].layers:
            values[name] = statistics.median(p.layers[name] for p in traced)
        values["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - values["wall_s"]

    largest_n = {}
    for r in bounded:
        largest_n[r.key[1]] = max(largest_n.get(r.key[1], 0), r.key[2])
    tops = [r for r in bounded if r.key[2] == largest_n[r.key[1]]]
    print(f"info passes={len(passes)} scale={scale!r} import_s={import_s:.4f} "
          f"measured_pass_s={','.join(f'{p.measured_s:.3f}' for p in passes)} "
          f"probe_ms={1000 * statistics.median(probe.durations):.4f} "
          f"oracle_s={statistics.median(p.oracle_s for p in untraced):.4f} "
          f"hausdorff_mean={statistics.fmean(r.hausdorff for r in tops) if tops else math.nan:.6g} "
          f"bound_viol_frac={1.0 - values['bounds_ok_frac']:.4f} "
          f"error_frac={len(failed) / len(all_rows):.4f}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_rows),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
