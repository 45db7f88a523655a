"""One benchmark phase, run in a fresh interpreter by ``perfbench/run.py``.

Usage: ``python3 perfbench/phases.py <phase> <spec.json> <out.json>`` with
``src`` on ``PYTHONPATH``.  The spec names the workload, the seed, the
worker count and the working paths; the phase writes its timings, its
per-point results and its counters to ``out.json``.

Phases: ``cold`` (scalar ``explore`` of each benchmark on an empty cache,
then a save of that benchmark's store, then warm repeats in the same
process), ``batched``, ``disk`` (``explore(disk_cache=...)`` of one
benchmark against the store the cold phase saved for it), ``pool``
(``MultiBenchmarkExplorer``), ``farm`` (``CompileFarm``), ``fig7``
(``run_figure7`` under one cycle model), and ``inproc`` — the traced
run's in-process sequence, with or without the layer tracer.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # setup_s counts the program's imports

import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

import numpy as np  # noqa: E402

from repro.apps import get_benchmark  # noqa: E402
from repro.config import CompileConfig  # noqa: E402
from repro.dse.cache import ANALYSIS_CACHE  # noqa: E402
from repro.dse.engine import MultiBenchmarkExplorer, explore  # noqa: E402
from repro.dse.space import default_space  # noqa: E402
from repro.evaluation.figure7 import PAPER_FIGURE7, run_figure7  # noqa: E402
from repro.pipeline import Session  # noqa: E402
from repro.ppl.interp import run_program  # noqa: E402
from repro.serve import CompileFarm, CompileRequest  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

# Fields that identify a point's result; every front-end must agree on them.
RESULT_FIELDS = ("cycles", "logic", "ffs", "bram_bits", "dsps", "read_bytes", "write_bytes")
WARM_REPEATS = 3
CHECK_PIPELINES = ("default", "rewrite")


def _row(result) -> List[float]:
    return [getattr(result, name) for name in RESULT_FIELDS]


class Points:
    """Per-point results of one phase, keyed ``benchmark/label``."""

    def __init__(self) -> None:
        self.rows: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, bench: str, result) -> None:
        self.attempted += 1
        if result is None or result.failed:
            self.failed += 1
            return
        self.rows[f"{bench}/{result.point.label}"] = _row(result)

    def add_exploration(self, bench: str, exploration) -> None:
        for result in exploration.evaluated:
            self.add(bench, result)
        for result in exploration.quarantined:
            self.add(bench, result)

    def as_dict(self) -> Dict[str, object]:
        return {"points": self.rows, "attempted": self.attempted, "failed": self.failed}


def _differing(reference: Points, other: Points) -> int:
    """Points missing from one side or with different results."""
    keys = set(reference.rows) | set(other.rows)
    return sum(1 for key in keys if reference.rows.get(key) != other.rows.get(key))


def _explore_kwargs(spec: Dict) -> Dict[str, object]:
    wl = spec["workload"]
    kwargs: Dict[str, object] = {
        "seed": spec["seed"],
        "cycle_model": wl["cycle_model"],
        "pipelines": tuple(wl["pipelines"]),
    }
    if wl["strategy"] is not None:
        kwargs.update(strategy=wl["strategy"], eval_fraction=wl["eval_fraction"], search_seed=0)
    return kwargs


def _explore_all(spec: Dict, **extra) -> tuple:
    """``explore`` every workload benchmark; returns (seconds, Points)."""
    kwargs = _explore_kwargs(spec)
    kwargs.update(extra)
    points = Points()
    seconds = 0.0
    for bench in spec["workload"]["benchmarks"]:
        started = time.perf_counter()
        exploration = explore(bench, **kwargs)
        seconds += time.perf_counter() - started
        points.add_exploration(bench, exploration)
    return seconds, points


def _cache_empty() -> bool:
    return ANALYSIS_CACHE.size() == 0


def _store(spec: Dict, bench: str) -> str:
    """The disk store the cold phase saves for ``bench``."""
    return f"{spec['store_dir']}/{bench}.pkl"


# ---------------------------------------------------------------------------
# Timed phases (tracing off)
# ---------------------------------------------------------------------------


def phase_cold(spec: Dict) -> Dict:
    """Each benchmark cold, then its store saved, then warm repeats.

    The cache is cleared between benchmarks, so every benchmark's cold call
    starts empty and its store holds only its own entries.
    """
    if not _cache_empty():
        raise RuntimeError("cold phase started with a non-empty analysis cache")
    kwargs = _explore_kwargs(spec)
    points, warm = Points(), Points()
    seconds = warm_seconds = 0.0
    mismatched = 0
    for bench in spec["workload"]["benchmarks"]:
        ANALYSIS_CACHE.clear()
        started = time.perf_counter()
        exploration = explore(bench, **kwargs)
        seconds += time.perf_counter() - started
        cold = Points()
        cold.add_exploration(bench, exploration)
        points.add_exploration(bench, exploration)
        ANALYSIS_CACHE.save_disk(_store(spec, bench))
        for _ in range(WARM_REPEATS):
            started = time.perf_counter()
            exploration = explore(bench, **kwargs)
            warm_seconds += time.perf_counter() - started
            again = Points()
            again.add_exploration(bench, exploration)
            warm.add_exploration(bench, exploration)
            mismatched += _differing(cold, again)
    out = points.as_dict()
    out.update(
        seconds=seconds,
        warm_seconds=warm_seconds,
        warm_evaluated=warm.attempted - warm.failed,
        warm_attempted=warm.attempted,
        warm_failed=warm.failed + mismatched,
    )
    return out


def phase_batched(spec: Dict) -> Dict:
    if not _cache_empty():
        raise RuntimeError("batched phase started with a non-empty analysis cache")
    seconds, points = _explore_all(spec, batch_eval=True)
    out = points.as_dict()
    out["seconds"] = seconds
    return out


def phase_disk(spec: Dict) -> Dict:
    """One benchmark, in a fresh process, served from its saved store."""
    if not _cache_empty():
        raise RuntimeError("disk phase started with a non-empty analysis cache")
    bench = spec["bench"]
    store = _store(spec, bench)
    saved_at = os.stat(store).st_mtime_ns
    kwargs = _explore_kwargs(spec)
    started = time.perf_counter()
    exploration = explore(bench, disk_cache=store, **kwargs)
    seconds = time.perf_counter() - started
    points = Points()
    points.add_exploration(bench, exploration)
    out = points.as_dict()
    # explore() saves the store again only when the run dirtied the cache.
    out.update(seconds=seconds, store_rewritten=os.stat(store).st_mtime_ns != saved_at)
    return out


def phase_pool(spec: Dict) -> Dict:
    wl = spec["workload"]
    kwargs = _explore_kwargs(spec)
    started = time.perf_counter()
    results = MultiBenchmarkExplorer(
        wl["benchmarks"], workers=spec["workers"], **kwargs
    ).run()
    seconds = time.perf_counter() - started
    points = Points()
    supervision: Dict[str, int] = {}
    for bench, exploration in results.items():
        points.add_exploration(bench, exploration)
        supervision = exploration.supervision  # one suite-wide dict
    out = points.as_dict()
    out.update(seconds=seconds, supervision=supervision)
    return out


def _points_by_label(spec: Dict, bench_name: str, labels: List[str]):
    bench = get_benchmark(bench_name)
    sizes = bench.default_sizes
    tiled = {name: sizes[name] for name in bench.tile_sizes if name in sizes}
    space = default_space(tiled, pipelines=tuple(spec["workload"]["pipelines"]))
    by_label = {point.label: point for point in space}
    return [by_label[label] for label in labels]


async def _farm(spec: Dict) -> Dict:
    wl = spec["workload"]
    farm = CompileFarm(
        wl["benchmarks"],
        workers=spec["workers"],
        cycle_model=wl["cycle_model"],
        seed=spec["seed"],
    )
    await farm.start()
    setup_s = time.perf_counter() - STARTED
    start_s = setup_s - IMPORT_S
    try:
        requests = [
            CompileRequest(bench, point)
            for bench, labels in spec["labels"].items()
            for point in _points_by_label(spec, bench, labels)
        ]
        started = time.perf_counter()
        batch = await farm.submit(requests + requests)
        responses = await batch.gather()
        seconds = time.perf_counter() - started
    finally:
        await farm.aclose()
    points = Points()
    doubled = Points()
    for response in responses[: len(requests)]:
        points.add(response.benchmark, response.result)
    for response in responses[len(requests):]:
        doubled.add(response.benchmark, response.result)
    mismatched = _differing(points, doubled)
    stats = farm.stats
    out = points.as_dict()
    out.update(
        seconds=seconds,
        distinct=len(requests),
        attempted=points.attempted + doubled.attempted,
        failed=points.failed + doubled.failed + mismatched,
        setup_s=setup_s,
        start_s=start_s,
        farm={
            "received": stats.received,
            "coalesced": stats.coalesced,
            "cache_hits": stats.cache_hits,
            "journal_hits": stats.journal_hits,
            "scheduled": stats.scheduled,
            "completed": stats.completed,
            "failed": stats.failed,
        },
        supervision=stats.supervision.as_dict(),
    )
    return out


def phase_farm(spec: Dict) -> Dict:
    return asyncio.run(_farm(spec))


def _figure7(benchmarks: List[str], cycle_model: str) -> Dict:
    started = time.perf_counter()
    report = run_figure7(benchmarks=benchmarks, cycle_model=cycle_model)
    seconds = time.perf_counter() - started
    cells: Dict[str, float] = {}
    errors = []
    for row in report.results:
        for config, speedup in (
            ("tiling", row.speedup_tiling),
            ("tiling+metapipelining", row.speedup_metapipelining),
        ):
            cells[f"{row.name}/{config}"] = speedup
            errors.append(abs(math.log(speedup / PAPER_FIGURE7[row.name][config])))
    return {
        "seconds": seconds,
        "configs": 3 * len(report.results),
        "cells": cells,
        "log_err": sum(errors) / len(errors),
    }


def phase_fig7(spec: Dict) -> Dict:
    if not _cache_empty():
        raise RuntimeError("figure7 phase started with a non-empty analysis cache")
    return _figure7(spec["workload"]["benchmarks"], spec["cycle_model"])


# ---------------------------------------------------------------------------
# Output correctness against the independent reference
# ---------------------------------------------------------------------------


def check_reference(spec: Dict) -> Dict:
    """Tiled program at ``test_sizes`` through the interpreter == reference."""
    session = Session()
    rng = np.random.default_rng(spec["seed"])
    attempted = failed = 0
    failures = []
    for name in spec["workload"]["benchmarks"]:
        bench = get_benchmark(name)
        config = CompileConfig(
            tiling=True,
            metapipelining=True,
            tile_sizes={key: 2 for key in bench.tile_sizes},
        )
        for pipeline in CHECK_PIPELINES:
            attempted += 1
            bindings = bench.bindings(bench.test_sizes, rng)
            result = session.compile(bench.build(), config, bindings, pipeline=pipeline)
            got = np.asarray(run_program(result.tiled_program, bindings), dtype=float)
            want = np.asarray(bench.reference(bindings), dtype=float)
            # Tiling reassociates folds, so equality holds to rounding.
            scale = float(np.max(np.abs(want))) if want.size else 0.0
            if got.shape != want.shape or not np.allclose(
                got, want, rtol=1e-9, atol=1e-12 * max(1.0, scale)
            ):
                failed += 1
                failures.append(f"{name}/{pipeline}")
    return {"attempted": attempted, "failed": failed, "failures": failures}


# ---------------------------------------------------------------------------
# The traced run's in-process sequence
# ---------------------------------------------------------------------------


def _table_deltas(before: Dict, after: Dict) -> Dict[str, float]:
    ratios = {}
    for table, counters in after.items():
        prior = before.get(table, {})
        hits = counters["hits"] - prior.get("hits", 0)
        misses = counters["misses"] - prior.get("misses", 0)
        ratios[table] = hits / (hits + misses) if hits + misses else 0.0
    return ratios


def phase_inproc(spec: Dict) -> Dict:
    """Cold scalar, warm, batched, Figure 7 and the reference check.

    The phases after the first share this interpreter, so each starts from
    a cleared analysis cache instead of a fresh process.
    """
    tracer = None
    if spec.get("trace"):
        import layers

        tracer = layers.Tracer()
        tracer.install(hooks=_hooks(tracer), observers=_observers(tracer))
    wl = spec["workload"]
    phase_seconds: Dict[str, float] = {}
    results: Dict[str, Dict] = {}
    cache: Dict[str, Dict[str, float]] = {}

    def timed(name, fn):
        if tracer is not None:
            tracer.phase = name
        started = time.perf_counter()
        value = fn()
        phase_seconds[name] = time.perf_counter() - started
        return value

    stats_before = ANALYSIS_CACHE.stats()
    _, cold = timed("cold", lambda: _explore_all(spec))
    stats_cold = ANALYSIS_CACHE.stats()
    _, warm = timed("warm", lambda: _explore_all(spec))
    cache["cold"] = _table_deltas(stats_before, stats_cold)
    cache["warm"] = _table_deltas(stats_cold, ANALYSIS_CACHE.stats())
    ANALYSIS_CACHE.clear()
    _, batched = timed("batched", lambda: _explore_all(spec, batch_eval=True))
    for cycle_model in ("analytical", "event"):
        ANALYSIS_CACHE.clear()
        results[f"fig7-{cycle_model}"] = timed(
            f"fig7-{cycle_model}", lambda: _figure7(wl["benchmarks"], cycle_model)
        )
    ANALYSIS_CACHE.clear()
    check = timed("check", lambda: check_reference(spec))

    out: Dict[str, object] = {
        "phase_seconds": phase_seconds,
        "wall_s": sum(phase_seconds.values()),
        "cold": cold.as_dict(),
        "warm": warm.as_dict(),
        "batched": batched.as_dict(),
        "check": check,
        "cache_hit_ratio": cache,
    }
    out.update(results)
    if tracer is not None:
        patched = tracer.patched
        tracer.restore()
        out["restored"] = all(owner.__dict__[attr] is original for owner, attr, original in patched)
        out["patched"] = len(patched)
        out["calls"] = dict(tracer.calls)
        out["self_s"] = dict(tracer.self_s)
        out["counts"] = {f"{phase}:{name}": value for (phase, name), value in tracer.counts.items()}
    return out


def _hooks(tracer) -> Dict:
    def inputs(args, kwargs, result):
        tracer.count(
            "apps.inputs.bytes",
            sum(value.nbytes for value in result.values() if isinstance(value, np.ndarray)),
        )

    def batched(args, kwargs, result):
        tracer.count("schedule.batched.points", len(args[0]))

    def point_batch(args, kwargs, result):
        tracer.count("dse.batch.points", len(result))

    def evaluate_point(args, kwargs, result):
        tracer.count("dse.evaluate_point.calls")

    return {
        "Benchmark.bindings": inputs,
        "batched_cycles": batched,
        "batched_area": batched,
        "evaluate_point_batch": point_batch,
        "evaluate_point": evaluate_point,
    }


def _observers(tracer) -> tuple:
    def pipeline_run(args, kwargs, outcome):
        tracer.count("pipeline.runs")
        for record in outcome.report.records:
            tracer.count(f"pass.{record.name}.runs")
            if record.cached:
                tracer.count(f"pass.{record.name}.cached")

    return (("repro.pipeline.pipeline", "Pipeline.run", pipeline_run),)


PHASES = {
    "cold": phase_cold,
    "batched": phase_batched,
    "disk": phase_disk,
    "pool": phase_pool,
    "farm": phase_farm,
    "fig7": phase_fig7,
    "check": check_reference,
    "inproc": phase_inproc,
}


def main(argv: List[str]) -> int:
    phase, spec_path, out_path = argv
    with open(spec_path) as handle:
        spec = json.load(handle)
    out = PHASES[phase](spec)
    out["versions"] = {"python": platform.python_version(), "numpy": np.__version__}
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
