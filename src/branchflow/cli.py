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

from .measures import (
    CostParams,
    InvalidConfigError,
    atomic_write_text,
    load_problem,
    read_input_text,
    total_mass,
)
from .transport import SolverError
from .positions import alternate_minimize, solve_result_to_dict
from .graphs import graph_from_dict, graph_to_dict, verify_structure
from .oracle import EnumerationBudgetError, oracle
from .render import render
from .sweep import CSV_COLUMNS, solver_tree, sweep, sweep_to_csv

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3


def _write_json(path: Path, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def _load(args):
    """The problem file's config and exponent, ``--q`` overriding the file's."""
    config, q = load_problem(args.problem)
    return config, q if args.q is None else args.q


def _check_atom_counts(ns: list[int]) -> None:
    """Refuse a negative atom count before any solve, as ``solve`` does."""
    for n in ns:
        if n < 0:
            raise InvalidConfigError(f"atom count must be >= 0, got {n}")


def _params(args, q: float) -> CostParams:
    return CostParams(q=q, restarts=args.restarts, seed=args.seed)


def _write_solve_report(out_dir: Path, config, res, tree) -> None:
    """solve_n<n>.json, with the reduced tree and its structure checks when
    there is one, and tree_n<n>.svg for a plane tree."""
    doc = solve_result_to_dict(res)
    if tree is not None:
        doc["reduced_tree"] = graph_to_dict(tree)
        doc["structure_checks"] = [
            {"name": item.name, "ok": item.ok, "detail": item.detail}
            for item in verify_structure(tree, config).items
        ]
    _write_json(out_dir / f"solve_n{res.n}.json", doc)
    if tree is not None and config.dimension == 2:
        render(tree, out_dir / f"tree_n{res.n}.svg", q=res.q)


def cmd_validate(args) -> int:
    config, q = load_problem(args.problem)
    print(f"ok: {config.n_sources} sources, {config.n_sinks} sinks, "
          f"dimension {config.dimension}, q={q}, total mass {total_mass(config)}")
    return EXIT_OK


def cmd_solve(args) -> int:
    config, q = _load(args)
    params = _params(args, q)
    res = alternate_minimize(config, args.n, params)
    _write_solve_report(args.out_dir, config, res, solver_tree(config, res))
    print(f"n={res.n} wbar={res.wbar:.9g} rescaled={res.rescaled:.9g} "
          f"converged={res.converged} (start {res.start_index}/{res.n_starts}, "
          f"{res.inner_budget_hits} inner budget hits)")
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def cmd_oracle(args) -> int:
    config, q = _load(args)
    try:
        sol = oracle(config, q)
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
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
    _write_json(args.out_dir / "oracle.json", doc)
    if config.dimension == 2:
        render(sol.graph, args.out_dir / "oracle.svg", q=q)
    print(f"oracle cost={sol.cost:.9g} "
          f"({len(sol.table)} topologies, {len(sol.steiner_positions)} branch points)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, q = _load(args)
    try:
        n_list = [int(tok) for tok in args.ns.split(",") if tok.strip()]
    except ValueError:
        raise InvalidConfigError(f"bad --ns list: {args.ns!r}")
    if not n_list:
        raise InvalidConfigError("empty --ns list")
    _check_atom_counts(n_list)
    params = _params(args, q)
    records, details = sweep(config, q, n_list, params)
    atomic_write_text(args.out_dir / "sweep.csv", sweep_to_csv(records))
    for _, res, tree in details:
        _write_solve_report(args.out_dir, config, res, tree)
    print(" ".join(f"{c:>10}" for c in CSV_COLUMNS))
    for r in records:
        print(f"{r.n:>10} {r.wbar:>10.6g} {r.rescaled:>10.6g} {r.upper:>10.6g} "
              f"{r.lower:>10.6g} {r.hausdorff:>10.6g} {r.seconds:>10.3f}"
              + (f"  error: {r.error}" if r.error else ""))
    ok = all(r.converged and not r.error for r in records)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_render(args) -> int:
    try:
        doc = json.loads(read_input_text(args.graph))
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"malformed JSON in {args.graph}: {exc}")
    try:
        if "reduced_tree" in doc:
            doc = doc["reduced_tree"]
        elif "graph" in doc:
            doc = doc["graph"]
        g = graph_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfigError(f"not a graph document: {exc}")
    render(g, args.out, q=args.q)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config, q = _load(args)
    _check_atom_counts([args.n])
    params = _params(args, q)
    try:
        sol = oracle(config, q)
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    (rec,), _ = sweep(config, q, [args.n], params, oracle_solution=sol)
    if rec.error:
        print(f"error: {rec.error}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    doc = {
        "n": args.n,
        "q": q,
        "rescaled": rec.rescaled,
        "oracle_cost": sol.cost,
        "relative_gap": (rec.rescaled - sol.cost) / sol.cost,
        "upper": rec.upper,
        "lower": rec.lower,
        "hausdorff": rec.hausdorff,
        "sandwich_ok": rec.in_bounds,
        "converged": rec.converged,
    }
    _write_json(args.out_dir / f"compare_n{args.n}.json", doc)
    print(f"rescaled={rec.rescaled:.9g} oracle={sol.cost:.9g} "
          f"gap={doc['relative_gap']:+.3%} hausdorff={rec.hausdorff:.6g} "
          f"sandwich_ok={rec.in_bounds}")
    return EXIT_OK if rec.converged else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the shared options it reads
    exponent = argparse.ArgumentParser(add_help=False)
    exponent.add_argument("--q", type=float, default=None,
                          help="cost exponent (default: the problem file's)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out-dir", type=Path, default=Path("."),
                        help="output directory")
    starts = argparse.ArgumentParser(add_help=False)
    starts.add_argument("--seed", type=int, default=CostParams.seed,
                        help="master RNG seed (default %(default)s)")
    starts.add_argument("--restarts", type=int, default=CostParams.restarts,
                        help="random multistarts (default %(default)s)")
    solver = [exponent, output, starts]

    parser = argparse.ArgumentParser(
        prog="branchflow",
        description="Branched-transport network approximation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a problem file and its own q")
    p.add_argument("problem")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", parents=solver,
                       help="minimize with n free atoms")
    p.add_argument("problem")
    p.add_argument("--n", type=int, required=True, help="free atom count")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", parents=[exponent, output],
                       help="exhaustive small-instance network optimum")
    p.add_argument("problem")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", parents=solver,
                       help="solver sweep over atom counts")
    p.add_argument("problem")
    p.add_argument("--ns", required=True, help="comma-separated atom counts")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", help="draw a graph document as SVG")
    p.add_argument("graph", help="graph JSON (or solve/oracle report)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--q", type=float, default=2.0,
                   help="stroke exponent: widths scale with weight^(1/q) "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", parents=solver,
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
