import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from branchflow import (
    CostParams,
    oracle,
    random_instance,
    save_problem,
    single_edge,
    sweep,
    sweep_to_csv,
    y_instance,
)
from branchflow.cli import main
from branchflow.sweep import CSV_COLUMNS, oracle_bounds

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "edge.json"
    save_problem(path, single_edge(), 2.0)
    return path


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
        import importlib

        sweep_mod = importlib.import_module("branchflow.sweep")
        real = sweep_mod.alternate_minimize

        def flaky(config, n, params=None, q=None):
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

    def test_missing_file_is_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_bad_ns_list_is_2(self, problem_file, tmp_path):
        assert main(["sweep", str(problem_file), "--ns", "abc",
                     "--out-dir", str(tmp_path)]) == 2

    def test_negative_n_is_2(self, problem_file, tmp_path):
        assert main(["solve", str(problem_file), "--n", "-3",
                     "--out-dir", str(tmp_path)]) == 2


class TestCliCommands:
    def test_solve_writes_report_and_svg(self, problem_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", str(problem_file), "--n", "2",
                     "--restarts", "1", "--out-dir", str(out)])
        assert code == 0
        doc = json.loads((out / "solve_n2.json").read_text())
        assert doc["n"] == 2
        hits, fallbacks = doc["inner_budget_hits"], doc["polish_fallbacks"]
        assert (f"{hits} inner budget hits, {fallbacks} polish fallbacks"
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

    def test_sweep_outputs_and_determinism(self, problem_file, tmp_path):
        args = ["sweep", str(problem_file), "--ns", "1,2", "--restarts", "1"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out1)]) == 0
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


class TestConsoleScript:
    def test_installed_entry_point(self, problem_file):
        exe = shutil.which("branchflow")
        cmd = [exe] if exe else [sys.executable, "-m", "branchflow.cli"]
        # the package under test, also when it is not installed
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + inherited if inherited else ""))
        proc = subprocess.run(
            cmd + ["validate", str(problem_file)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
