import argparse
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from branchflow import (
    Atom,
    CostParams,
    InvalidConfigError,
    SignedConfig,
    allocate,
    graph_to_dict,
    min_cost_plan,
    oracle,
    positions,
    random_instance,
    save_problem,
    single_edge,
    sweep,
    sweep_to_csv,
    y_instance,
)
from branchflow import cli
from branchflow.cli import main
from branchflow.sweep import CSV_COLUMNS, SweepRecord, oracle_bounds
from conftest import one_pass_settle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "edge.json"
    save_problem(path, single_edge(), 2.0)
    return path


@pytest.fixture(scope="module")
def y_graph(tmp_path_factory):
    """The oracle.json graph file of the Y instance, written once."""
    out = tmp_path_factory.mktemp("y_graph")
    save_problem(out / "y.json", y_instance(), 2.0)
    assert main(["oracle", str(out / "y.json"), "--out-dir", str(out)]) == 0
    return out / "oracle.json"


def _refuse_work(monkeypatch):
    """Make every solve, oracle and drawing the CLI reaches fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("solved or drew despite invalid input")

    for name in ("alternate_minimize", "sweep", "oracle", "render"):
        monkeypatch.setattr(cli, name, refuse)


def _unreadable(kind, tmp_path):
    """A directory, or a file whose bytes (a UTF-16 mark) are not UTF-8."""
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    return path


#: the options each subcommand takes, --help aside
OPTIONS = {
    "validate": set(),
    "solve": {"--q", "--out-dir", "--seed", "--restarts", "--n"},
    "oracle": {"--q", "--out-dir"},
    "sweep": {"--q", "--out-dir", "--seed", "--restarts", "--ns"},
    "render": {"--q", "--out"},
    "compare": {"--q", "--out-dir", "--seed", "--restarts", "--n"},
}

#: (subcommand, option) pairs no longer taken: the shared parent parser used
#: to accept them unread, and sweep's --resolution went when the Hausdorff
#: distance became exact
RETIRED_OPTIONS = [
    ("validate", "--q"), ("validate", "--seed"), ("validate", "--restarts"),
    ("validate", "--out-dir"), ("oracle", "--seed"), ("oracle", "--restarts"),
    ("render", "--seed"), ("render", "--restarts"), ("render", "--out-dir"),
    ("sweep", "--resolution"),
]


class TestSweep:
    def test_single_edge_records(self):
        records, details = sweep(single_edge(), 2.0, [1, 2], CostParams(q=2.0, restarts=1))
        assert [r.n for r in records] == [1, 2]
        for r, n in zip(records, (1, 2)):
            assert r.rescaled == pytest.approx(math.sqrt(n / (n + 1.0)), abs=1e-6)
            assert r.lower <= r.rescaled <= r.upper + 1e-12
            assert r.converged and r.error == ""
            assert r.seconds >= 0.0
        assert [n for n, _, _ in details] == [1, 2]

    def test_failed_entry_is_isolated(self, monkeypatch):
        sweep_mod = importlib.import_module("branchflow.sweep")
        real = sweep_mod.alternate_minimize

        def flaky(config, n, params):
            if n == 2:
                raise RuntimeError("synthetic failure")
            return real(config, n, params)

        monkeypatch.setattr(sweep_mod, "alternate_minimize", flaky)
        records, details = sweep(single_edge(), 2.0, [1, 2, 4], CostParams(q=2.0, restarts=0))
        assert [r.n for r in records] == [1, 2, 4]
        assert records[1].error == "RuntimeError: synthetic failure"
        assert not records[1].converged and math.isnan(records[1].wbar)
        assert records[0].error == "" and records[2].error == ""
        assert [n for n, _, _ in details] == [1, 4]

    def test_params_must_share_the_sweep_exponent(self):
        # the oracle, the bounds and the Hausdorff target are taken at q
        with pytest.raises(InvalidConfigError):
            sweep(y_instance(), 2.0, [6], CostParams(q=3.0, restarts=1))

    def test_in_bounds_is_relative_and_skips_nan_bounds(self):
        nan = math.nan
        record = lambda rescaled, upper, lower: SweepRecord(
            1, rescaled, rescaled, upper, lower, nan, 0.0)
        for s in (4.0 ** -20, 1.0, 4.0 ** 8):
            assert record(2.0 * s * (1 + 1e-12), 2.0 * s, 1.0 * s).in_bounds is True
            assert record(2.0 * s * (1 + 1e-6), 2.0 * s, 1.0 * s).in_bounds is False
            assert record(1.0 * s * (1 - 1e-6), 2.0 * s, 1.0 * s).in_bounds is False
        # a missing bracket is not checked; a failed solve never holds
        assert record(1.0, nan, nan).in_bounds is True
        assert record(nan, nan, nan).in_bounds is False

    def test_csv_shape_and_parseability(self):
        records, _ = sweep(single_edge(), 2.0, [1], CostParams(q=2.0, restarts=0))
        text = sweep_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert int(cells[0]) == 1
        for cell in cells[1:]:
            float(cell)  # every numeric column parses

    def test_oracle_bounds_shapes(self):
        sol = oracle(y_instance(), 2.0)
        upper, lower = oracle_bounds(sol, 12, 2.0, y_instance().n_pairs)
        assert lower < sol.cost < upper * 1.2
        # too few atoms to cover the tree edges: no certified upper bound
        upper_small, lower_small = oracle_bounds(sol, 2, 2.0, y_instance().n_pairs)
        assert math.isnan(upper_small) and 0.0 < lower_small < sol.cost


def _collinear():
    """Sources at 0 and 1 feeding one sink of mass 2 at 3: the branch point
    collapses onto the source at 1, which then receives and sends."""
    return SignedConfig((Atom((0.0, 0.0), 1.0), Atom((1.0, 0.0), 1.0)),
                        (Atom((3.0, 0.0), 2.0),), 2)


#: name -> (config, q, atom counts)
BRACKET_CASES = {
    **{f"certify_q-{k}": (random_instance(np.random.default_rng([0, k]), 2, 2),
                          1.5 if k % 2 == 0 else 3.0, (8, 16, 32)) for k in range(4)},
    "3+2": (random_instance(np.random.default_rng([13, 3]), 3, 2), 2.5, (8, 16)),
    **{f"3+3-{k}": (random_instance(np.random.default_rng([7, k]), 3, 3), 2.5, (16,))
       for k in range(12)},
    "collinear": (_collinear(), 2.0, (4, 8, 16)),
    "y": (y_instance(), 2.0, (6, 12, 24, 48)),
}
#: the cases whose oracle tree routes flow through a terminal
THROUGH_TERMINAL = {"certify_q-1", "3+2", "collinear",
                    *(f"3+3-{k}" for k in (2, 3, 4, 5, 6, 7, 9, 11))}


@pytest.mark.parametrize("name", sorted(BRACKET_CASES))
def test_upper_bracket_is_realized_by_its_layout(name):
    # the exact plan at the bracket's own n-atom layout costs no more than
    # the bracket; a terminal that passes flow on holds one of the atoms
    cfg, q, ns = BRACKET_CASES[name]
    sol = oracle(cfg, q)
    indeg, outdeg = sol.graph.degrees()
    through = [v for v, r in enumerate(sol.graph.roles)
               if r != "free" and indeg[v] and outdeg[v]]
    assert bool(through) == (name in THROUGH_TERMINAL)
    for n in ns:
        upper, _ = oracle_bounds(sol, n, q, cfg.n_pairs)
        _, cost = min_cost_plan(cfg, allocate(sol.graph, n, q).atom_positions, q)
        assert n ** ((q - 1.0) / q) * cost ** (1.0 / q) <= upper * (1.0 + 1e-9), f"n={n}"


class TestCliExitCodes:
    def test_validate_ok(self, problem_file, capsys):
        assert main(["validate", str(problem_file)]) == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_validate_unbalanced_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dimension": 2, "q": 2.0,
            "sources": [{"position": [0.0, 0.0], "mass": 1.0}],
            "sinks": [{"position": [1.0, 0.0], "mass": 2.0}],
        }))
        assert main(["validate", str(bad)]) == 2
        assert "unbalanced" in capsys.readouterr().err

    @pytest.mark.parametrize("dimension", [2.5, "2"])
    def test_validate_dimension_that_is_not_an_integer_is_2(self, tmp_path, capsys, dimension):
        # "dimension": 2.5 used to be read as 2, and so did "2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "dimension": dimension, "q": 2.0,
            "sources": [{"position": [0.0, 0.0], "mass": 1.0}],
            "sinks": [{"position": [1.0, 0.0], "mass": 1.0}],
        }))
        assert main(["validate", str(bad)]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_bad_ns_list_is_2(self, problem_file, tmp_path):
        assert main(["sweep", str(problem_file), "--ns", "abc",
                     "--out-dir", str(tmp_path)]) == 2

    def test_negative_n_is_2(self, problem_file, tmp_path):
        assert main(["solve", str(problem_file), "--n", "-3",
                     "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "4", "--seed", "-1"],
        ["solve", "--n", "4", "--restarts", "-1"],
        ["sweep", "--ns", "2,4", "--seed", "-2", "--restarts", "1"],
        ["sweep", "--ns", "2,-4", "--restarts", "1"],
        ["compare", "--n", "-1"],
        ["compare", "--n", "2", "--seed", "-1"],
    ])
    def test_invalid_counts_and_seeds_are_2_before_solving(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        _refuse_work(monkeypatch)
        problem = tmp_path / "y.json"
        save_problem(problem, y_instance(), 2.0)
        out = tmp_path / "out"
        command, *options = argv
        assert main([command, str(problem), *options, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("q", ["nan", "0.5", "inf"])
    def test_exponent_outside_the_cost_range_is_2(self, q, tmp_path, capsys):
        problem = tmp_path / "y.json"
        save_problem(problem, y_instance(), 2.0)
        report = tmp_path / "report"
        assert main(["oracle", str(problem), "--out-dir", str(report)]) == 0
        out = tmp_path / "out"
        assert main(["oracle", str(problem), "--q", q, "--out-dir", str(out)]) == 2
        assert main(["render", str(report / "oracle.json"), "--q", q,
                     "--out", str(out / "y.svg")]) == 2
        assert capsys.readouterr().err.count("exponent") == 2
        assert not out.exists()

    @pytest.mark.parametrize("q", [math.nan, 0.5, -3.0, math.inf])
    def test_problem_file_exponent_outside_the_cost_range_is_2(self, q, tmp_path, capsys):
        problem = tmp_path / "y.json"
        save_problem(problem, y_instance(), q)
        assert main(["validate", str(problem)]) == 2
        assert "exponent" in capsys.readouterr().err
        with pytest.raises(InvalidConfigError):
            oracle(y_instance(), q)

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    @pytest.mark.parametrize("command", ["validate", "oracle", "render"])
    def test_unreadable_input_is_2(self, command, kind, tmp_path, monkeypatch, capsys):
        _refuse_work(monkeypatch)
        path, out = _unreadable(kind, tmp_path), tmp_path / "out"
        argv = {
            "validate": ["validate", str(path)],
            "oracle": ["oracle", str(path), "--out-dir", str(out)],
            "render": ["render", str(path), "--out", str(out / "g.svg")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", '"reduced_tree"', "[1]"])
    def test_render_of_a_non_object_document_is_2(self, text, tmp_path, monkeypatch, capsys):
        _refuse_work(monkeypatch)
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        assert main(["render", str(doc), "--out", str(tmp_path / "g.svg")]) == 2
        assert capsys.readouterr().err.startswith("error: not a graph document")

    @pytest.mark.parametrize("fault", ["ids_from_one", "duplicate_id", "infinite_weight",
                                       "nan_length", "nan_position", "fractional_end",
                                       "string_weight", "boolean_length", "string_position"])
    def test_render_of_a_bad_graph_is_2(self, fault, tmp_path, monkeypatch, capsys):
        # ids 1..V would draw every edge between the wrong vertices
        doc = graph_to_dict(oracle(y_instance(), 2.0).graph)
        verts, edges = doc["vertices"], doc["edges"]
        if fault == "ids_from_one":
            for r in verts:
                r["id"] += 1
        elif fault == "duplicate_id":
            verts[1]["id"] = 0
        elif fault == "infinite_weight":
            edges[0]["weight"] = math.inf
        elif fault == "nan_length":
            edges[0]["length"] = math.nan
        elif fault == "nan_position":
            verts[0]["position"][0] = math.nan
        elif fault == "string_weight":
            edges[0]["weight"] = str(edges[0]["weight"])
        elif fault == "boolean_length":
            edges[0]["length"] = True
        elif fault == "string_position":
            verts[0]["position"][0] = "0"
        else:
            edges[0]["tail"] += 0.5
        _refuse_work(monkeypatch)
        path, out = tmp_path / "graph.json", tmp_path / "out" / "g.svg"
        path.write_text(json.dumps({"graph": doc}))
        assert main(["render", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: not a graph document")
        assert not out.exists()

    def test_unsettled_solve_is_3(self, tmp_path, monkeypatch, capsys):
        # a settle of Y at n=24 needs more than one plan-and-Newton pass, so
        # with a settle cut to one pass the winning start's support never
        # settles
        passes = []
        real_settle = positions._settle

        def settle(*args):
            out = real_settle(*args)
            passes.append(out[4])
            return out

        with monkeypatch.context() as patched:
            patched.setattr(positions, "_settle", settle)
            res = positions.alternate_minimize(y_instance(), 24, CostParams(q=2.0))
        assert res.converged and max(passes) >= 2

        monkeypatch.setattr(positions, "_settle", one_pass_settle)
        problem, out = tmp_path / "y.json", tmp_path / "out"
        save_problem(problem, y_instance(), 2.0)
        assert main(["solve", str(problem), "--n", "24", "--out-dir", str(out)]) == 3
        assert "converged=False" in capsys.readouterr().out
        assert json.loads((out / "solve_n24.json").read_text())["converged"] is False


class TestCliOptions:
    def test_each_subcommand_takes_only_the_options_it_reads(self):
        (sub,) = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        taken = {
            name: {opt for action in p._actions for opt in action.option_strings}
            - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert taken == OPTIONS
        assert sum(map(len, taken.values())) == 19

    @pytest.mark.parametrize("command,option", RETIRED_OPTIONS)
    def test_retired_option_is_2(self, command, option, y_graph, tmp_path, monkeypatch,
                                 capsys):
        problem, out = tmp_path / "y.json", tmp_path / "out"
        save_problem(problem, y_instance(), 2.0)
        _refuse_work(monkeypatch)
        argv = {
            "validate": ["validate", str(problem)],
            "oracle": ["oracle", str(problem), "--out-dir", str(out)],
            "render": ["render", str(y_graph), "--out", str(out / "y.svg")],
            "sweep": ["sweep", str(problem), "--ns", "6", "--out-dir", str(out)],
        }[command]
        value = str(out) if option == "--out-dir" else "2"
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,options", [
        ("solve", ["--n", "3"]), ("sweep", ["--ns", "3"]), ("compare", ["--n", "3"]),
    ])
    def test_solver_options_reach_the_params(self, command, options, problem_file,
                                             monkeypatch):
        seen = []
        real = cli._params

        class Stop(Exception):
            pass

        def record(args, q):
            seen.append(real(args, q))
            raise Stop

        monkeypatch.setattr(cli, "_params", record)
        for extra in ([], ["--q", "2.5", "--restarts", "3", "--seed", "7"]):
            with pytest.raises(Stop):
                main([command, str(problem_file), *options, *extra])
        # the defaults are CostParams's own, q the problem file's
        assert seen == [CostParams(q=2.0), CostParams(q=2.5, restarts=3, seed=7)]

    def test_exponent_reaches_oracle_and_render(self, tmp_path):
        problem = tmp_path / "y.json"
        save_problem(problem, y_instance(), 2.0)
        assert main(["oracle", str(problem), "--q", "3", "--out-dir", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "oracle.json").read_text())["q"] == 3.0
        widths = {}
        for q in (None, "2", "3"):
            out = tmp_path / f"q{q}.svg"
            extra = ["--q", q] if q else []
            assert main(["render", str(tmp_path / "oracle.json"), "--out", str(out), *extra]) == 0
            widths[q] = [float(w) for w in
                         re.findall(r'<line [^>]*stroke-width="([^"]+)"', out.read_text())]
        # the stroke exponent defaults to 2, and a larger one evens the widths
        assert widths[None] == widths["2"] != widths["3"]
        assert max(widths["3"]) - min(widths["3"]) < max(widths["2"]) - min(widths["2"])


class TestCliCommands:
    def test_solve_writes_report_and_svg(self, problem_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", str(problem_file), "--n", "2",
                     "--restarts", "1", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "solve_n2.json").read_text())
        assert doc["n"] == 2
        assert (f"{doc['inner_budget_hits']} inner budget hits)"
                in capsys.readouterr().out)
        assert doc["rescaled"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-6)
        svg = (out / "tree_n2.svg").read_text()
        assert svg.lstrip().startswith("<svg")

    def test_oracle_writes_report(self, tmp_path):
        problem = tmp_path / "y.json"
        save_problem(problem, y_instance(), 2.0)
        out = tmp_path / "out"
        assert main(["oracle", str(problem), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "oracle.json").read_text())
        assert doc["cost"] == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-8)
        assert (out / "oracle.svg").exists()

    def test_oracle_on_three_plus_two_terminals(self, tmp_path, capsys):
        problem = tmp_path / "three_two.json"
        save_problem(problem, random_instance(np.random.default_rng([13, 3]), 3, 2), 2.5)
        assert main(["oracle", str(problem), "--out-dir", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "oracle.json").read_text())
        assert len(doc["topologies"]) == 15
        n_free = sum(v["role"] == "free" for v in doc["graph"]["vertices"])
        assert f"(15 topologies, {n_free} branch points)" in capsys.readouterr().out

    def test_render_accepts_graph_reports(self, tmp_path):
        problem = tmp_path / "y.json"
        save_problem(problem, y_instance(), 2.0)
        out = tmp_path / "out"
        main(["oracle", str(problem), "--out-dir", str(out)])
        code = main(["render", str(out / "oracle.json"),
                     "--out", str(tmp_path / "picture.svg")])
        assert code == 0
        text = (tmp_path / "picture.svg").read_text()
        assert "<svg" in text and "line" in text

    def test_sweep_outputs_and_determinism(self, problem_file, tmp_path, capsys):
        args = ["sweep", str(problem_file), "--ns", "1,2", "--restarts", "1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert capsys.readouterr().out.split("\n")[0].split() == list(CSV_COLUMNS)
        assert main(args + ["--out-dir", str(out2)]) == 0
        strip = lambda p: [
            ",".join(line.split(",")[:6])  # drop the wall-time column
            for line in (p / "sweep.csv").read_text().strip().split("\n")
        ]
        assert strip(out1) == strip(out2)
        assert (out1 / "solve_n1.json").exists()
        assert (out1 / "tree_n1.svg").exists()

    def test_compare_reports_sandwich(self, tmp_path, capsys):
        problem = tmp_path / "y.json"
        save_problem(problem, y_instance(), 2.0)
        out = tmp_path / "out"
        code = main(["compare", str(problem), "--n", "6",
                     "--restarts", "2", "--out-dir", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "sandwich_ok=True" in captured

    def test_compare_verdict_does_not_depend_on_scale(self, tmp_path):
        # an instance whose n=16 solve sits 4.8% inside its upper bracket:
        # that relative margin, and so the verdict, must read the same at
        # every power-of-four coordinate scale
        cfg = random_instance(np.random.default_rng([0, 1]), 2, 2)
        margins = []
        for k in (-20, 0, 8):
            s = 4.0 ** k
            move = lambda atoms: tuple(Atom(tuple(s * c for c in a.position), a.mass)
                                       for a in atoms)
            problem = tmp_path / f"scale{k}.json"
            save_problem(problem, SignedConfig(move(cfg.sources), move(cfg.sinks), 2), 3.0)
            out = tmp_path / f"out{k}"
            main(["compare", str(problem), "--n", "16", "--out-dir", str(out)])
            doc = json.loads((out / "compare_n16.json").read_text())
            assert doc["sandwich_ok"] is True
            margins.append((doc["upper"] - doc["rescaled"]) / doc["upper"])
        assert margins[0] == pytest.approx(margins[1], abs=1e-12)
        assert margins[2] == pytest.approx(margins[1], abs=1e-12)

    def test_seed_changes_restart_draws(self, tmp_path):
        problem = tmp_path / "y.json"
        save_problem(problem, y_instance(), 2.0)
        outs = []
        for seed in (0, 1):
            out = tmp_path / f"s{seed}"
            main(["solve", str(problem), "--n", "3", "--restarts", "2",
                  "--seed", str(seed), "--out-dir", str(out)])
            outs.append(json.loads((out / "solve_n3.json").read_text()))
        # costs agree on the shared deterministic seed, positions may not
        assert outs[0]["cost_q"] == pytest.approx(outs[1]["cost_q"], rel=0.2)


def _run_entry_point(args, cwd=None):
    exe = shutil.which("branchflow")
    cmd = [exe] if exe else [sys.executable, "-m", "branchflow.cli"]
    # the package under test, also when it is not installed
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + inherited if inherited else ""))
    return subprocess.run(cmd + args, capture_output=True, text=True, timeout=60,
                          env=env, cwd=cwd)


class TestConsoleScript:
    def test_installed_entry_point(self, problem_file):
        proc = _run_entry_point(["validate", str(problem_file)])
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv", [
        ["validate", "{problem}", "--q", "0.5"],
        ["oracle", "{problem}", "--seed", "1"],
        ["render", "{graph}", "--out", "x.svg", "--restarts", "2"],
        ["validate", "{directory}"],
        ["validate", "{not_utf8}"],
    ])
    def test_invalid_input_exits_2_without_a_traceback(self, argv, problem_file, y_graph,
                                                       tmp_path):
        paths = {"problem": problem_file, "graph": y_graph,
                 **{kind: _unreadable(kind, tmp_path) for kind in ("directory", "not_utf8")}}
        proc = _run_entry_point([arg.format(**paths) for arg in argv], cwd=tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(("usage: branchflow", "error: "))
        # nothing written next to the inputs
        assert sorted(p.name for p in tmp_path.iterdir()) == ["directory", "edge.json", "not_utf8"]
