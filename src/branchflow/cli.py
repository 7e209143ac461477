"""Command-line interface.

Subcommands: validate, solve, oracle, sweep, render, compare.  Problem
files use the JSON format documented in measures; graph files use the
vertex/edge table format from graphs.  All randomness flows from --seed.
Exit codes: 0 success, 2 invalid input, 3 solver non-convergence
(results are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .measures import (
    CostParams,
    InvalidConfigError,
    atomic_write_text,
    load_problem,
    total_mass,
)
from .transport import SolverError
from .positions import alternate_minimize, solve_result_to_dict
from .graphs import (
    graph_from_dict,
    graph_to_dict,
    plan_to_graph,
    reduce_graph,
    verify_structure,
)
from .allocate import allocate
from .hausdorff import hausdorff
from .oracle import EnumerationBudgetError, oracle
from .render import render
from .sweep import oracle_bounds, sweep, sweep_to_csv

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3


def _write_json(path: Path, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def _load(path: str):
    try:
        return load_problem(path)
    except FileNotFoundError:
        raise InvalidConfigError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"malformed JSON in {path}: {exc}")


def _params(args, q: float) -> CostParams:
    kwargs = {"q": q, "seed": args.seed}
    if args.restarts is not None:
        kwargs["restarts"] = args.restarts
    return CostParams(**kwargs)


def _tree_report(config, res) -> tuple[dict, object]:
    if res.n == 0:
        return {}, None
    tree = reduce_graph(plan_to_graph(config, res.Z.positions, res.plan))
    report = verify_structure(tree, config)
    doc = {
        "reduced_tree": graph_to_dict(tree),
        "structure_checks": [
            {"name": item.name, "ok": item.ok, "detail": item.detail}
            for item in report.items
        ],
    }
    return doc, tree


def cmd_validate(args) -> int:
    config, q = _load(args.problem)
    print(f"ok: {config.n_sources} sources, {config.n_sinks} sinks, "
          f"dimension {config.dimension}, q={q}, total mass {total_mass(config)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    config, q_file = _load(args.problem)
    q = args.q if args.q is not None else q_file
    params = _params(args, q)
    res = alternate_minimize(config, args.n, params)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = solve_result_to_dict(res, config)
    tree_doc, tree = _tree_report(config, res)
    doc.update(tree_doc)
    _write_json(out_dir / f"solve_n{args.n}.json", doc)
    if tree is not None and config.dimension == 2:
        render(tree, out_dir / f"tree_n{args.n}.svg", q=q)
    print(f"n={res.n} wbar={res.wbar:.9g} rescaled={res.rescaled:.9g} "
          f"converged={res.converged} (start {res.start_index}/{res.n_starts}, "
          f"{res.inner_budget_hits} inner budget hits, "
          f"{res.polish_fallbacks} polish fallbacks)")
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def cmd_oracle(args) -> int:
    config, q_file = _load(args.problem)
    q = args.q if args.q is not None else q_file
    try:
        sol = oracle(config, q)
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "q": q,
        "cost": sol.cost,
        "steiner_points": [[float(c) for c in row] for row in sol.steiner_positions],
        "graph": graph_to_dict(sol.graph),
        "topologies": [
            {
                "n_steiner": t.n_steiner,
                "edges": [list(e) for e in t.edges],
                "flows": list(t.flows),
                "cost": c,
            }
            for t, c in sol.table
        ],
    }
    _write_json(out_dir / "oracle.json", doc)
    if config.dimension == 2:
        render(sol.graph, out_dir / "oracle.svg", q=q)
    print(f"oracle cost={sol.cost:.9g} "
          f"({len(sol.table)} topologies, {len(sol.steiner_positions)} branch points)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, q_file = _load(args.problem)
    q = args.q if args.q is not None else q_file
    try:
        n_list = [int(tok) for tok in args.ns.split(",") if tok.strip()]
    except ValueError:
        raise InvalidConfigError(f"bad --ns list: {args.ns!r}")
    if not n_list:
        raise InvalidConfigError("empty --ns list")
    params = _params(args, q)
    records, details = sweep(config, q, n_list, params, resolution=args.resolution)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "sweep.csv", sweep_to_csv(records))
    for n, res, tree in details:
        doc = solve_result_to_dict(res, config)
        tree_doc, tree_obj = _tree_report(config, res)
        doc.update(tree_doc)
        _write_json(out_dir / f"solve_n{n}.json", doc)
        if tree_obj is not None and config.dimension == 2:
            render(tree_obj, out_dir / f"tree_n{n}.svg", q=q)
    header = " ".join(f"{c:>10}" for c in
                      ("n", "wbar", "rescaled", "upper", "lower", "hausdorff", "seconds"))
    print(header)
    for r in records:
        print(f"{r.n:>10} {r.wbar:>10.6g} {r.rescaled:>10.6g} {r.upper:>10.6g} "
              f"{r.lower:>10.6g} {r.hausdorff:>10.6g} {r.seconds:>10.3f}"
              + (f"  error: {r.error}" if r.error else ""))
    ok = all(r.converged and not r.error for r in records)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_render(args) -> int:
    try:
        doc = json.loads(Path(args.graph).read_text())
    except FileNotFoundError:
        raise InvalidConfigError(f"no such file: {args.graph}")
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"malformed JSON in {args.graph}: {exc}")
    if "reduced_tree" in doc:
        doc = doc["reduced_tree"]
    elif "graph" in doc:
        doc = doc["graph"]
    try:
        g = graph_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"not a graph document: {exc}")
    q = args.q if args.q is not None else 2.0
    render(g, args.out, q=q)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config, q_file = _load(args.problem)
    q = args.q if args.q is not None else q_file
    params = _params(args, q)
    try:
        sol = oracle(config, q)
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    res = alternate_minimize(config, args.n, params)
    upper, lower = oracle_bounds(sol, args.n, q, config.n_pairs)
    dist = float("nan")
    if args.n > 0:
        tree = reduce_graph(plan_to_graph(config, res.Z.positions, res.plan))
        if tree.edges and sol.graph.edges:
            dist = hausdorff(tree, sol.graph)
    sandwich_ok = bool(
        (not np.isfinite(lower) or lower <= res.rescaled + 1e-12)
        and (not np.isfinite(upper) or res.rescaled <= upper + 1e-12)
    )
    doc = {
        "n": args.n,
        "q": q,
        "rescaled": res.rescaled,
        "oracle_cost": sol.cost,
        "relative_gap": (res.rescaled - sol.cost) / sol.cost,
        "upper": upper,
        "lower": lower,
        "hausdorff": dist,
        "sandwich_ok": sandwich_ok,
        "converged": res.converged,
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / f"compare_n{args.n}.json", doc)
    print(f"rescaled={res.rescaled:.9g} oracle={sol.cost:.9g} "
          f"gap={doc['relative_gap']:+.3%} hausdorff={dist:.6g} "
          f"sandwich_ok={sandwich_ok}")
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--q", type=float, default=None,
                        help="cost exponent (default: the problem file's)")
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--restarts", type=int, default=None,
                        help="random multistarts (default 8)")

    parser = argparse.ArgumentParser(
        prog="branchflow",
        description="Branched-transport network approximation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a problem file")
    p.add_argument("problem")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", parents=[common],
                       help="minimize with n free atoms")
    p.add_argument("problem")
    p.add_argument("--n", type=int, required=True, help="free atom count")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", parents=[common],
                       help="exhaustive small-instance network optimum")
    p.add_argument("problem")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", parents=[common],
                       help="solver sweep over atom counts")
    p.add_argument("problem")
    p.add_argument("--ns", required=True, help="comma-separated atom counts")
    p.add_argument("--resolution", type=float, default=None,
                   help="Hausdorff sampling resolution")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", parents=[common],
                       help="draw a graph document as SVG")
    p.add_argument("graph", help="graph JSON (or solve/oracle report)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", parents=[common],
                       help="solver vs oracle at one atom count")
    p.add_argument("problem")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
