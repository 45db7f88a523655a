"""Tests of the benchmark itself: ``python3 perfbench/selftest.py`` from the repository root.

1. The tracer's self times add up: on nested synthetic spans, the self
   times plus the time outside every span equal the wall time; an
   override that calls ``super()`` counts as one call, not two.
2. Installing the tracer wraps the layer entry points, and restoring it
   leaves every ``repro`` module and class namespace exactly as before.
3. For ``gemm`` and ``suite``, a traced run gives the same per-point
   results as an untraced run (``run.trace`` counts every difference as a
   failure), every per-layer metric named in ``BENCHMARK.json`` is
   reported with its unit, and every layer that saw no call is listed in
   the record's ``not_on_this_workload_path``.
4. The end-to-end metric names and units in ``BENCHMARK.json`` are the
   ones ``run.py`` reports.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_self_time_accounting() -> None:
    tracer = layers.Tracer()

    def inner():
        time.sleep(0.05)

    def outer():
        time.sleep(0.02)
        traced_inner()
        traced_inner()

    def items():
        for value in range(3):
            time.sleep(0.01)
            yield value

    traced_inner = tracer._wrap(inner, "inner", None)
    traced_outer = tracer._wrap(outer, "outer", None)
    traced_items = tracer._wrap(items, "items", None)
    started = time.perf_counter()
    traced_outer()
    consumed = []
    for value in traced_items():
        time.sleep(0.02)  # the consumer's time belongs to no span
        consumed.append(value)
    wall = time.perf_counter() - started
    self_s = tracer.self_s
    expect(consumed == [0, 1, 2], "generator wrapper changed the items")
    expect(dict(tracer.calls) == {"inner": 2, "outer": 1, "items": 1}, f"calls {tracer.calls}")
    # Each upper bound is below what the span would show if it also
    # counted its children's (or its consumer's) time.
    expect(self_s["inner"] >= 0.1, f"inner self {self_s['inner']}")
    expect(0.02 <= self_s["outer"] < 0.08, f"outer self {self_s['outer']}")
    expect(0.03 <= self_s["items"] < 0.07, f"items self {self_s['items']}")
    expect(wall - sum(self_s.values()) >= 0.06, "consumer time was attributed to a span")


def test_override_counts_once() -> None:
    """An override calling ``super()`` on the same arguments is one call."""
    tracer = layers.Tracer()

    class Base:
        def visit(self, node):
            time.sleep(0.01)
            return node

    class Derived(Base):
        def visit(self, node):
            return super().visit(node) + 1

    Base.visit = tracer._wrap(Base.__dict__["visit"], "visit", None)
    Derived.visit = tracer._wrap(Derived.__dict__["visit"], "visit", None)
    node = 1000
    expect(Derived().visit(node) == 1001, "wrapper changed the result")
    expect(Derived().visit(node) == 1001, "wrapper changed the result")
    expect(tracer.calls["visit"] == 2, f"override double-counted: {tracer.calls}")
    expect(tracer.self_s["visit"] >= 0.02, f"visit self {tracer.self_s['visit']}")


def _namespaces():
    """A copy of every ``repro`` module and class namespace."""
    for module in {entry[1] for entry in layers.LAYERS} | {"repro.pipeline.pipeline"}:
        importlib.import_module(module)

    spaces = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            spaces[name] = dict(vars(module))
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    spaces[f"{name}:{value.__qualname__}"] = dict(value.__dict__)
    return spaces


def test_restore() -> None:
    before = _namespaces()
    tracer = layers.Tracer()
    tracer.install()
    try:
        changed = [key for key, space in _namespaces().items() if space != before.get(key)]
        expect(len(tracer.patched) >= len(layers.LAYERS), "too few entry points wrapped")
        expect(changed, "installing the tracer changed nothing")
    finally:
        tracer.restore()
    after = _namespaces()
    differing = [
        key
        for key in before
        if before[key].keys() != after[key].keys()
        or any(before[key][attr] is not after[key][attr] for attr in before[key])
    ]
    expect(not differing, f"not restored: {differing}")
    expect(not tracer.patched, "patch list not emptied")


def test_traced_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    for workload in ("gemm", "suite"):
        work = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}-{workload}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            runner = run.Runner(workload, 0, work)
            metrics, detail = run.trace(runner)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        expect(runner.failed == 0, f"{workload}: traced run failed checks: {runner.failures}")
        reported = {name: unit for name, (_, unit) in metrics.items()}
        expect(reported == per_layer, f"{workload}: per-layer metrics differ from BENCHMARK.json")
        for layer in detail["not_on_this_workload_path"]:
            expect(metrics[f"{layer}.calls"][0] == 0, f"{workload}: {layer} listed but called")
        for name, (value, _) in metrics.items():
            if name.endswith(".calls") and value == 0:
                layer = name[: -len(".calls")]
                expect(
                    layer in detail["not_on_this_workload_path"],
                    f"{workload}: {layer} has no calls and no explanation",
                )
        unused = detail["not_on_this_workload_path"]
        print(f"{workload}: traced == untraced; layers not on the path: {unused}")


def test_end_to_end_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    expect(declared == run.END_TO_END_UNITS, "end-to-end metrics differ from BENCHMARK.json")
    names = {entry["name"] for entry in spec["workloads"]}
    expect(names == set(run.WORKLOADS), "workloads differ from BENCHMARK.json")


def main() -> int:
    for test in (
        test_self_time_accounting,
        test_override_counts_once,
        test_restore,
        test_end_to_end_names,
        test_traced_runs,
    ):
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
