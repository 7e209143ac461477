"""Spans around calls into branchflow's modules, recorded from outside the package.

A ``Tracer`` replaces module attributes with timing wrappers while it is
installed and restores them when it is removed.  Each wrapper records a
span (name, start, end, parent span) in memory; counters are filled from
the wrapped call's arguments and result where the work happens.

Two facts about the package shape the patch list:

* ``branchflow/__init__`` rebinds ``branchflow.oracle``, ``branchflow.sweep``
  and ``branchflow.hausdorff`` to functions of the same name, so the
  submodules are reached through ``importlib.import_module``.
* Modules import their callees by name (``from .transport import
  min_cost_plan``), so each callee is patched in the module that looks it
  up, e.g. ``branchflow.positions.min_cost_plan``, not where it is defined.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _module(name: str):
    return importlib.import_module(f"branchflow.{name}")


# ---- counters: (tracer, parent span name, args, result) -> None -----------

def _count_optimize(tr, parent, args, result):
    # optimize_positions returns (Z, cost, iterations, converged); _descend
    # drops the flag, so budget hits are only visible here
    tr.counts["positions.optimize.iters"] += result[2]
    tr.counts["positions.optimize.budget_hits"] += 0 if result[3] else 1


def _count_rebalance(tr, parent, args, result):
    tr.counts["positions.rebalance.proposed"] += result is not None


def _count_plan(tr, parent, args, result):
    tr.counts["transport.support"] += len(result[0].entries)


def _count_mcf(tr, parent, args, result):
    if parent == "transport.plan":
        tr.counts["transport.arcs"] += len(args[0].to) // 2


def _count_regularize(tr, parent, args, result):
    tr.counts["regularize.changed"] += result.entries != args[0].entries


def _count_enumerate(tr, parent, args, result):
    tr.counts["oracle.topologies"] += len(result)


def solve_patches() -> list[tuple[object, str, str, object]]:
    """Timer on alternate_minimize, installed in every run for ``solve_s``."""
    return [
        (_module("positions"), "alternate_minimize", "solve", None),
        (_module("sweep"), "alternate_minimize", "solve", None),
    ]


def layer_patches() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter) for every traced layer."""
    positions = _module("positions")
    sweep = _module("sweep")
    oracle = _module("oracle")
    mcf = _module("_mcf")
    return [
        (positions, "optimize_positions", "positions.optimize", _count_optimize),
        (positions, "_rebalance_layout", "positions.rebalance", _count_rebalance),
        (positions, "min_cost_plan", "transport.plan", _count_plan),
        (mcf.MinCostFlowNetwork, "solve", "transport.mcf", _count_mcf),
        (positions, "regularize", "regularize", _count_regularize),
        (positions, "plan_to_graph", "graphs", None),
        (positions, "reduce_graph", "graphs", None),
        (positions, "allocate", "allocate", None),
        (sweep, "sweep", "sweep", None),
        (sweep, "plan_to_graph", "graphs", None),
        (sweep, "reduce_graph", "graphs", None),
        (sweep, "allocate", "allocate", None),
        (sweep, "hausdorff", "hausdorff", None),
        (sweep, "oracle", "oracle", None),
        (oracle, "oracle", "oracle", None),
        (oracle, "enumerate_topologies", "oracle.enumerate", _count_enumerate),
        (oracle, "solve_topology", "oracle.solve_topology", None),
    ]


class Tracer:
    """In-memory spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if counter is not None:
                parent = spans[stack[-1]][0] if stack else None
                counter(self, parent, args, result)
            return result

        return traced

    def install(self, patches) -> None:
        for owner, attr, name, counter in patches:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counter))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def total(self, name: str, parent: str | None = None) -> float:
        """Seconds inside spans called ``name`` (optionally only under ``parent``)."""
        out = 0.0
        for span_name, t0, t1, p in self.spans:
            if span_name == name and (
                parent is None or (p >= 0 and self.spans[p][0] == parent)
            ):
                out += t1 - t0
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        """Seconds inside ``name`` spans not covered by their child spans."""
        child = defaultdict(float)
        for _, t0, t1, p in self.spans:
            if p >= 0:
                child[p] += t1 - t0
        return sum(
            (t1 - t0) - child[i]
            for i, (span_name, t0, t1, _) in enumerate(self.spans)
            if span_name == name
        )

    def layer_metrics(self, speed: float) -> dict[str, float]:
        """Per-layer figures for one pass, keyed by BENCHMARK.json name;
        every span time is multiplied by ``speed``."""
        c = self.counts

        def secs(name: str, parent: str | None = None) -> float:
            return self.total(name, parent) * speed

        plan_s = secs("transport.plan")
        mcf_s = secs("transport.mcf", parent="transport.plan")
        reg_calls = self.calls("regularize")
        return {
            "positions.optimize.calls": self.calls("positions.optimize"),
            "positions.optimize.s": secs("positions.optimize"),
            "positions.optimize.iters": c["positions.optimize.iters"],
            "positions.optimize.budget_hits": c["positions.optimize.budget_hits"],
            "positions.rebalance.calls": self.calls("positions.rebalance"),
            "positions.rebalance.s": secs("positions.rebalance"),
            "positions.rebalance.proposed": c["positions.rebalance.proposed"],
            "transport.plan.calls": self.calls("transport.plan"),
            "transport.plan.s": plan_s,
            "transport.mcf.s": mcf_s,
            "transport.build_s": plan_s - mcf_s,
            "transport.arcs": c["transport.arcs"],
            "transport.support": c["transport.support"],
            "transport.support_per_arc": (
                c["transport.support"] / c["transport.arcs"] if c["transport.arcs"] else 0.0
            ),
            "regularize.calls": reg_calls,
            "regularize.s": secs("regularize"),
            "regularize.changed": c["regularize.changed"],
            "regularize.changed_frac": (
                c["regularize.changed"] / reg_calls if reg_calls else 0.0
            ),
            "oracle.s": secs("oracle"),
            "oracle.enumerate.s": secs("oracle.enumerate"),
            "oracle.topologies": c["oracle.topologies"],
            "oracle.solve_topology.calls": self.calls("oracle.solve_topology"),
            "oracle.solve_topology.s": secs("oracle.solve_topology"),
            "hausdorff.calls": self.calls("hausdorff"),
            "hausdorff.s": secs("hausdorff"),
            "graphs.s": secs("graphs"),
            "allocate.s": secs("allocate"),
            "sweep.self_s": self.self_time("sweep") * speed,
        }
