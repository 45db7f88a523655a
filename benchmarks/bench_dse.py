"""E7 — design-space exploration: engine wall-clock, search quality, disk cache.

Four phases over a ≥ 50-point gemm tiling/parallelism/metapipelining
space, all appended as one record to ``BENCH_dse.json``:

1. **Engine wall-clock** — the sweep three ways: *cold* (naive serial loop,
   all caches disabled), *memoized* (area pre-filter + hash-consed
   tiling/analysis caches) and *parallel* (surviving points fanned across a
   ``multiprocessing`` pool).  Asserts the memoized path returns
   *identical* numbers to the uncached path and the ≥ 3× speedup target.

2. **Search vs grid** — the hill-climb and genetic strategies against the
   exhaustive front: each must reach ≥ 95% of the exhaustive Pareto
   front's hypervolume while evaluating ≤ 40% of the points.

3. **Disk cache** — the sweep against a fresh persisted store (cold:
   full compute + save) and again from the store alone (warm: pure
   point-result hits).  Asserts the warm rerun is ≥ 3× faster.

4. **Pipeline** — per-pass instrumentation through a
   :class:`~repro.pipeline.session.CompilerSession` (wall-clock, cache
   hits, IR node deltas for every pass of the Figure 1 flow) and a sweep
   over pass-pipeline *variants* (``default`` / ``no-fusion`` /
   ``late-cleanup``) as an extra design-space axis.

The run finally refreshes the repo-level ``.dse-cache/`` store that CI
persists between workflow runs (keyed on the cache version).

``--faults`` runs the chaos phase instead: fault-free supervision
overhead (asserted < 5%), then a seeded crash/hang/error/corrupt
:class:`~repro.dse.resilience.FaultPlan` plus a corrupted disk store
through a pooled sweep, asserting bit-identical recovery.

``--serve`` runs the compile-farm phase instead: a mixed, deliberately
duplicated request stream over three benchmarks through one
:class:`~repro.serve.CompileFarm` (sustained points/sec, duplicate
submissions asserted to cost zero extra evaluations), then the
warm-vs-cold worker spawn comparison — eager ``load_disk`` warm-up
against the lazily-mapped snapshot attach, with per-worker warm-up time
measured inside the spawned processes.

``--batch`` runs the batched-evaluation phase instead: the sweep through
the scalar per-point loop and through the vectorized
:func:`~repro.dse.batch.evaluate_point_batch` backend, cold (caches
disabled) and warm (point results pre-seeded), asserting bit-identical
numbers and the ≥ 5× cold points/sec target.

``--smoke`` shrinks the workload for CI (affects ``--faults``,
``--serve`` and ``--batch``).

Run with ``PYTHONPATH=src python benchmarks/bench_dse.py
[--faults|--serve|--batch [--smoke]]``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from repro.dse.cache import ANALYSIS_CACHE, CACHE_VERSION
from repro.dse.engine import explore
from repro.dse.resilience import FaultPlan, ResiliencePolicy
from repro.dse.search import area_key, hypervolume
from repro.dse.space import default_space

BENCHMARK = "gemm"
SIZES = {"m": 1024, "n": 1024, "p": 1024}
SPEEDUP_TARGET = 3.0
DISK_SPEEDUP_TARGET = 3.0
MIN_POINTS = 50
HV_TARGET = 0.95
EVAL_BUDGET_FRACTION = 0.4

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_dse.json"
CI_STORE = REPO_ROOT / ".dse-cache" / "analysis.pkl"


def _sweep_space():
    return default_space(
        {name: SIZES[name] for name in ("m", "n", "p")},
        pars=(4, 8, 16, 32),
        max_tiles_per_dim=3,
    )


def _disk_space():
    # The disk phase sweeps a larger space: the warm rerun's fixed costs
    # (workload generation, store load) are independent of the sweep size,
    # so the bigger the sweep, the more honestly the ratio reflects the
    # store's value on real CI sweeps.
    return default_space(
        {name: SIZES[name] for name in ("m", "n", "p")},
        pars=(4, 8, 16, 32),
        max_tiles_per_dim=4,
    )


def run_engine_phase(space) -> dict:
    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    cold = explore(BENCHMARK, sizes=SIZES, space=space, memoize=False, prune=False)
    t_cold = time.perf_counter() - started

    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    memoized = explore(BENCHMARK, sizes=SIZES, space=space, memoize=True, prune=True)
    t_memoized = time.perf_counter() - started

    cpus = os.cpu_count() or 1
    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    parallel = explore(
        BENCHMARK, sizes=SIZES, space=space, memoize=True, prune=True, workers=cpus
    )
    t_parallel = time.perf_counter() - started

    # The memoized path must return the same numbers as the uncached loop
    # for every point it evaluated.
    cold_by_label = {r.label: r for r in cold.evaluated}
    mismatches = []
    for result in memoized.evaluated:
        reference = cold_by_label[result.label]
        if (
            result.cycles != reference.cycles
            or result.logic != reference.logic
            or result.ffs != reference.ffs
            or result.bram_bits != reference.bram_bits
            or result.read_bytes != reference.read_bytes
        ):
            mismatches.append(result.label)
    assert not mismatches, f"memoized results diverge from uncached: {mismatches[:5]}"

    speedup_memoized = t_cold / t_memoized
    speedup_parallel = t_cold / t_parallel
    best = max(speedup_memoized, speedup_parallel)

    print(
        f"[DSE sweep] {BENCHMARK} {len(space)} points: "
        f"cold {t_cold:.2f}s | memoized+pruned {t_memoized:.2f}s "
        f"({speedup_memoized:.1f}x) | parallel x{parallel.workers} {t_parallel:.2f}s "
        f"({speedup_parallel:.1f}x)"
    )
    print(f"[DSE sweep] {len(memoized.pruned)} points pruned by the area pre-filter")
    print(memoized.summary())

    assert best >= SPEEDUP_TARGET, (
        f"engine speedup {best:.2f}x below the {SPEEDUP_TARGET:.0f}x target"
    )
    return {
        "evaluated": len(memoized.evaluated),
        "pruned": len(memoized.pruned),
        "workers_parallel": parallel.workers,
        "seconds_cold": round(t_cold, 4),
        "seconds_memoized": round(t_memoized, 4),
        "seconds_parallel": round(t_parallel, 4),
        "speedup_memoized": round(speedup_memoized, 2),
        "speedup_parallel": round(speedup_parallel, 2),
        "speedup_best": round(best, 2),
        "identical_numbers": True,
        "pareto_size": len(memoized.pareto),
        "cache_stats": memoized.cache_stats,
        "exhaustive_results": memoized,  # consumed by the search phase
    }


def run_search_phase(space, exhaustive) -> dict:
    """Hill-climb and genetic quality against the exhaustive front."""
    reference = (
        max(r.cycles for r in exhaustive.evaluated) * 1.05,
        max(area_key(r) for r in exhaustive.evaluated) * 1.05,
    )
    hv_grid = hypervolume(exhaustive.evaluated, reference)
    grid_evaluations = len(exhaustive.evaluated)
    budget = int(EVAL_BUDGET_FRACTION * grid_evaluations)

    record = {
        "grid_evaluations": grid_evaluations,
        "grid_hypervolume": hv_grid,
        "eval_budget_fraction": EVAL_BUDGET_FRACTION,
        "hypervolume_target": HV_TARGET,
    }
    for name in ("hill-climb", "genetic"):
        ANALYSIS_CACHE.clear()
        started = time.perf_counter()
        searched = explore(
            BENCHMARK,
            sizes=SIZES,
            space=space,
            strategy=name,
            max_evaluations=budget,
            search_seed=1,
        )
        elapsed = time.perf_counter() - started
        hv = hypervolume(searched.evaluated, reference)
        fraction = len(searched.evaluated) / grid_evaluations
        quality = hv / hv_grid if hv_grid else 1.0
        print(
            f"[DSE search] {name}: {len(searched.evaluated)}/{grid_evaluations} points "
            f"({fraction:.0%}), hypervolume {quality:.1%} of exhaustive, {elapsed:.2f}s"
        )
        assert fraction <= EVAL_BUDGET_FRACTION + 1e-9, (
            f"{name} evaluated {fraction:.0%} of the points "
            f"(budget {EVAL_BUDGET_FRACTION:.0%})"
        )
        assert quality >= HV_TARGET, (
            f"{name} reached only {quality:.1%} of the exhaustive hypervolume "
            f"(target {HV_TARGET:.0%})"
        )
        key = name.replace("-", "_")
        record[key] = {
            "evaluations": len(searched.evaluated),
            "eval_fraction": round(fraction, 4),
            "hypervolume_fraction": round(quality, 4),
            "seconds": round(elapsed, 4),
            "pareto_size": len(searched.pareto),
        }
    return record


def run_disk_phase(space) -> dict:
    """Cold store write vs warm store rerun (the cross-process CI path)."""
    print(f"[DSE disk] sweeping {len(space)} points against a fresh store")
    with tempfile.TemporaryDirectory(prefix="dse-disk-") as tmp:
        store = Path(tmp) / "analysis.pkl"

        ANALYSIS_CACHE.clear()
        started = time.perf_counter()
        cold = explore(BENCHMARK, sizes=SIZES, space=space, disk_cache=store)
        t_cold = time.perf_counter() - started

        ANALYSIS_CACHE.clear()
        started = time.perf_counter()
        warm = explore(BENCHMARK, sizes=SIZES, space=space, disk_cache=store)
        t_warm = time.perf_counter() - started

        store_bytes = store.stat().st_size

    warm_by_label = {r.label: r for r in warm.evaluated}
    for result in cold.evaluated:
        twin = warm_by_label[result.label]
        assert result.cycles == twin.cycles and result.logic == twin.logic, (
            f"disk-cached result diverges for {result.label}"
        )
    hits = warm.cache_stats.get("point_results", {})
    assert hits.get("misses", 1) == 0, "warm disk rerun recompiled points"

    speedup = t_cold / t_warm
    print(
        f"[DSE disk] cold {t_cold:.2f}s (compute + save) | warm {t_warm:.3f}s "
        f"(pure store hits) | {speedup:.1f}x | store {store_bytes / 1024:.0f} KiB"
    )
    assert speedup >= DISK_SPEEDUP_TARGET, (
        f"warm disk rerun only {speedup:.2f}x faster "
        f"(target {DISK_SPEEDUP_TARGET:.0f}x)"
    )
    return {
        "seconds_disk_cold": round(t_cold, 4),
        "seconds_disk_warm": round(t_warm, 4),
        "speedup_disk_warm": round(speedup, 2),
        "store_kib": round(store_bytes / 1024, 1),
        "cache_version": CACHE_VERSION,
    }


def run_pipeline_phase() -> dict:
    """Per-pass instrumentation and the pipeline-variant design-space axis."""
    from repro.apps import get_benchmark
    from repro.config import CompileConfig
    from repro.pipeline import Session

    bench = get_benchmark(BENCHMARK)
    config = CompileConfig(tiling=True, metapipelining=True, tile_sizes=dict(bench.tile_sizes))
    bindings = bench.bindings(SIZES, np.random.default_rng(3))

    ANALYSIS_CACHE.clear()
    session = Session()
    cold = session.compile(bench.build(), config, bindings)
    warm = session.compile(bench.build(), config, bindings)
    print(f"[DSE pipeline] cold compile through session:\n{cold.report.table()}")
    print(
        f"[DSE pipeline] warm recompile: {warm.report.cache_hits}/"
        f"{warm.report.passes_run} passes served from cache "
        f"({warm.report.total_seconds * 1e3:.2f} ms vs "
        f"{cold.report.total_seconds * 1e3:.2f} ms cold)"
    )
    assert warm.report.cache_hits >= 6, "warm recompile should hit the pass memo"

    # The pipeline variant as a search gene: sweep orderings × tiles × meta.
    variants = ("default", "no-fusion", "late-cleanup")
    space = default_space(
        {name: SIZES[name] for name in ("m", "n", "p")},
        pars=(16,),
        max_tiles_per_dim=2,
        pipelines=variants,
    )
    ANALYSIS_CACHE.clear()
    swept = explore(BENCHMARK, sizes=SIZES, space=space)
    by_variant = {}
    for variant in variants:
        candidates = [r for r in swept.evaluated if r.point.pipeline == variant]
        best = min(candidates, key=lambda r: r.cycles) if candidates else None
        if best is not None:
            by_variant[variant] = {"best_label": best.label, "cycles": best.cycles}
            print(
                f"[DSE pipeline] variant {variant:<12} best {best.label:<44} "
                f"{best.cycles:>12.0f} cycles"
            )
    assert len(by_variant) == len(variants), "every pipeline variant must be evaluated"

    return {
        "cold_ms": round(cold.report.total_seconds * 1e3, 3),
        "warm_ms": round(warm.report.total_seconds * 1e3, 3),
        "warm_cache_hits": warm.report.cache_hits,
        "passes": cold.report.as_dict()["passes"],
        "variant_sweep_points": len(swept.evaluated),
        "variants": by_variant,
    }


SUPERVISION_OVERHEAD_CEILING = 0.05  # fault-free supervision must stay < 5%
SMOKE_SIZES = {"m": 256, "n": 256, "p": 256}


def run_faults_phase(smoke: bool) -> dict:
    """Chaos smoke: supervision overhead, seeded fault recovery, store repair.

    Asserts three things: fault-free supervision costs < 5% wall-clock over
    the unsupervised sweep; a seeded crash/hang/error/corrupt schedule plus
    a corrupted disk store still completes *bit-identical* to the fault-free
    run with nothing quarantined; and the corrupted store is quarantined
    aside and rebuilt.
    """
    sizes = SMOKE_SIZES if smoke else SIZES
    space = default_space(
        {name: sizes[name] for name in ("m", "n", "p")},
        pars=(4, 16),
        max_tiles_per_dim=2,
    )
    print(f"[DSE faults] {BENCHMARK} {len(space)} points, sizes {sizes}")

    # -- supervision overhead, fault-free ---------------------------------
    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    plain = explore(BENCHMARK, sizes=sizes, space=space, prune=False)
    t_plain = time.perf_counter() - started

    ANALYSIS_CACHE.clear()
    started = time.perf_counter()
    supervised = explore(
        BENCHMARK, sizes=sizes, space=space, prune=False,
        resilience=ResiliencePolicy(retries=2),
    )
    t_supervised = time.perf_counter() - started

    assert supervised.evaluated == plain.evaluated, (
        "supervised sweep diverged from the unsupervised one"
    )
    overhead = max(0.0, t_supervised / t_plain - 1.0)
    print(
        f"[DSE faults] fault-free: plain {t_plain:.2f}s | supervised "
        f"{t_supervised:.2f}s | overhead {overhead:.1%}"
    )
    assert overhead < SUPERVISION_OVERHEAD_CEILING, (
        f"fault-free supervision overhead {overhead:.1%} exceeds "
        f"{SUPERVISION_OVERHEAD_CEILING:.0%}"
    )

    # -- seeded chaos run against a corrupted store -----------------------
    plan = FaultPlan.seeded(
        {BENCHMARK: [r.point for r in plain.evaluated]},
        seed=11, crashes=1, hangs=1, errors=1, corrupts=1, hang_seconds=60.0,
    )
    with tempfile.TemporaryDirectory(prefix="dse-faults-") as tmp:
        store = Path(tmp) / "analysis.pkl"
        store.write_bytes(b"one corrupted cache shard")
        ANALYSIS_CACHE.clear()
        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the quarantine note
            chaos = explore(
                BENCHMARK, sizes=sizes, space=space, prune=False, workers=2,
                disk_cache=store,
                resilience=ResiliencePolicy(
                    timeout=5.0, retries=2, backoff=0.01, fault_plan=plan
                ),
            )
        t_chaos = time.perf_counter() - started
        store_rebuilt = store.exists()
        shard_quarantined = store.with_name("analysis.pkl.corrupt").exists()

    assert chaos.evaluated == plain.evaluated, (
        "chaos run is not bit-identical to the fault-free sweep"
    )
    assert not chaos.quarantined, (
        f"transient faults should all recover; quarantined "
        f"{[q.point.label for q in chaos.quarantined]}"
    )
    assert not chaos.interrupted
    assert shard_quarantined and store_rebuilt, "corrupt store was not repaired"
    stats = chaos.supervision
    print(
        f"[DSE faults] chaos ({len(plan)} faults) {t_chaos:.2f}s: "
        f"bit-identical, supervision {stats}"
    )
    assert stats["recovered"] >= len(plan) - 1  # the hang may exhaust its worker slot
    return {
        "points": len(space),
        "smoke": smoke,
        "seconds_plain": round(t_plain, 4),
        "seconds_supervised": round(t_supervised, 4),
        "supervision_overhead": round(overhead, 4),
        "overhead_ceiling": SUPERVISION_OVERHEAD_CEILING,
        "chaos": {
            "faults": len(plan),
            "seconds": round(t_chaos, 4),
            "bit_identical": True,
            "quarantined": 0,
            "store_repaired": True,
            "supervision": stats,
        },
    }


BATCH_SPEEDUP_TARGET = 5.0
# Each cold side is timed as the median of this many sweeps: a single
# sub-second sweep is too noisy to hold a ratio gate.
BATCH_COLD_RUNS = 5


def run_batch_phase(smoke: bool) -> dict:
    """Scalar vs batched point evaluation: points/sec cold and warm.

    Cold runs disable every cache so both paths pay full compile cost;
    each cold time is the median of ``BATCH_COLD_RUNS`` sweeps per side,
    the sides alternating and the cache cleared before each.  Warm runs
    pre-seed the point-result table so both paths serve pure hits.  The
    batched backend must return bit-identical numbers and hit the ≥ 5×
    cold throughput target.
    """
    sizes = SMOKE_SIZES if smoke else SIZES
    space = default_space(
        {name: sizes[name] for name in ("m", "n", "p")},
        pars=(4, 8, 16, 32),
        max_tiles_per_dim=2 if smoke else 3,
    )
    points = len(space)
    print(f"[DSE batch] {BENCHMARK} {points} points, sizes {sizes}")

    def cold(**kwargs):
        ANALYSIS_CACHE.clear()
        started = time.perf_counter()
        result = explore(
            BENCHMARK, sizes=sizes, space=space, prune=False,
            memoize=False, **kwargs,
        )
        return result, time.perf_counter() - started

    def warm(**kwargs):
        ANALYSIS_CACHE.clear()
        explore(BENCHMARK, sizes=sizes, space=space, prune=False, **kwargs)
        misses_before = ANALYSIS_CACHE.stats()["point_results"]["misses"]
        started = time.perf_counter()
        result = explore(
            BENCHMARK, sizes=sizes, space=space, prune=False, **kwargs
        )
        elapsed = time.perf_counter() - started
        misses_after = ANALYSIS_CACHE.stats()["point_results"]["misses"]
        assert misses_after == misses_before, "warm rerun recompiled points"
        return result, elapsed

    # The two sides alternate, so drift in machine load hits both alike.
    scalar_seconds, batched_seconds = [], []
    for _ in range(BATCH_COLD_RUNS):
        scalar_cold, seconds = cold()
        scalar_seconds.append(seconds)
        batched_cold, seconds = cold(batch_eval=True)
        batched_seconds.append(seconds)
    t_scalar_cold = statistics.median(scalar_seconds)
    t_batched_cold = statistics.median(batched_seconds)

    assert len(scalar_cold.evaluated) == len(batched_cold.evaluated) == points
    for left, right in zip(scalar_cold.evaluated, batched_cold.evaluated):
        assert left.point == right.point
        assert (
            left.cycles == right.cycles
            and left.logic == right.logic
            and left.ffs == right.ffs
            and left.bram_bits == right.bram_bits
            and left.read_bytes == right.read_bytes
        ), f"batched result diverges from scalar for {left.label}"

    _, t_scalar_warm = warm()
    _, t_batched_warm = warm(batch_eval=True)

    speedup_cold = t_scalar_cold / t_batched_cold
    speedup_warm = t_scalar_warm / t_batched_warm
    print(
        f"[DSE batch] cold: scalar {t_scalar_cold:.2f}s "
        f"({points / t_scalar_cold:.1f} pts/s) | batched {t_batched_cold:.2f}s "
        f"({points / t_batched_cold:.1f} pts/s) | {speedup_cold:.2f}x"
    )
    print(
        f"[DSE batch] warm: scalar {t_scalar_warm:.3f}s "
        f"({points / t_scalar_warm:.0f} pts/s) | batched {t_batched_warm:.3f}s "
        f"({points / t_batched_warm:.0f} pts/s) | {speedup_warm:.2f}x"
    )
    assert speedup_cold >= BATCH_SPEEDUP_TARGET, (
        f"batched cold speedup {speedup_cold:.2f}x below the "
        f"{BATCH_SPEEDUP_TARGET:.0f}x target"
    )
    return {
        "points": points,
        "smoke": smoke,
        "bit_identical": True,
        "cold": {
            "runs": BATCH_COLD_RUNS,
            "seconds_scalar": round(t_scalar_cold, 4),
            "seconds_batched": round(t_batched_cold, 4),
            "points_per_second_scalar": round(points / t_scalar_cold, 2),
            "points_per_second_batched": round(points / t_batched_cold, 2),
            "speedup": round(speedup_cold, 2),
            "speedup_target": BATCH_SPEEDUP_TARGET,
        },
        "warm": {
            "seconds_scalar": round(t_scalar_warm, 4),
            "seconds_batched": round(t_batched_warm, 4),
            "points_per_second_scalar": round(points / t_scalar_warm, 2),
            "points_per_second_batched": round(points / t_batched_warm, 2),
            "speedup": round(speedup_warm, 2),
        },
    }


SERVE_BENCHMARKS = ("gemm", "sumrows", "outerprod")
SERVE_SIZES = {
    "gemm": {"m": 256, "n": 256, "p": 256},
    "sumrows": {"m": 4096, "n": 256},
    "outerprod": {"m": 512, "n": 512},
}
SERVE_SMOKE_SIZES = {
    "gemm": {"m": 64, "n": 64, "p": 64},
    "sumrows": {"m": 1024, "n": 64},
    "outerprod": {"m": 128, "n": 128},
}


def _timed_init(out_dir, *init_args) -> None:
    """Pool initializer that times the real ``_init_worker`` from inside.

    Each worker writes its own warm-up duration to ``out_dir`` — measuring
    in the child keeps process-spawn noise out of the warm-up numbers.
    """
    from repro.dse.engine import _init_worker

    started = time.perf_counter()
    _init_worker(*init_args)
    elapsed = time.perf_counter() - started
    Path(out_dir, f"worker-{os.getpid()}.seconds").write_text(repr(elapsed))


def _measure_spawn(workers: int, store: Path, snap: Path, warmup: str) -> dict:
    """Spawn a real pool with the given cache warm-up; report both clocks.

    ``pool_ready_seconds`` is wall-clock from ``Pool()`` until every
    worker has finished initialising; ``worker_warmup_seconds`` is the
    mean in-child warm-up time alone (the quantity the snapshot path is
    meant to shrink).
    """
    from repro.dse.engine import pool_context
    from repro.target.device import DEFAULT_BOARD

    sizes = {"gemm": SERVE_SMOKE_SIZES["gemm"]}
    specs = {name: (dict(dims), 3) for name, dims in sizes.items()}
    cache_warmup = ("load", str(store)) if warmup == "load" else ("snapshot", str(snap))
    with tempfile.TemporaryDirectory(prefix="dse-spawn-") as out_dir:
        started = time.perf_counter()
        pool = pool_context().Pool(
            processes=workers,
            initializer=_timed_init,
            initargs=(
                out_dir, specs, DEFAULT_BOARD, None, True, "analytical", None,
                cache_warmup,
            ),
        )
        try:
            deadline = started + 60.0
            while len(list(Path(out_dir).glob("worker-*.seconds"))) < workers:
                assert time.perf_counter() < deadline, "pool never finished warm-up"
                time.sleep(0.005)
            pool_ready = time.perf_counter() - started
            warmups = [
                float(stamp.read_text())
                for stamp in Path(out_dir).glob("worker-*.seconds")
            ]
        finally:
            pool.terminate()
            pool.join()
    return {
        "pool_ready_seconds": round(pool_ready, 4),
        "worker_warmup_seconds": round(sum(warmups) / len(warmups), 5),
    }


def run_serve_phase(smoke: bool) -> dict:
    """Compile-farm throughput, dedup accounting, warm-vs-cold spawn time."""
    import asyncio

    from repro.apps import get_benchmark
    from repro.dse.cache import AnalysisCache
    from repro.serve import CompileFarm, write_snapshot

    sizes = SERVE_SMOKE_SIZES if smoke else SERVE_SIZES
    workers = min(4, os.cpu_count() or 1)
    per_bench = 24 if smoke else 60

    # A mixed request stream: the benchmarks interleaved round-robin, then
    # the whole stream again — every request submitted exactly twice.
    per_lane = {}
    for name in SERVE_BENCHMARKS:
        bench = get_benchmark(name)
        dims = {d: sizes[name][d] for d in bench.tile_sizes}
        space = default_space(dims, max_tiles_per_dim=2, max_points=per_bench)
        per_lane[name] = list(space)
    stream = []
    for rank in range(max(len(points) for points in per_lane.values())):
        for name in SERVE_BENCHMARKS:
            if rank < len(per_lane[name]):
                stream.append((name, per_lane[name][rank]))
    requests = stream + stream
    distinct = len(stream)
    print(
        f"[DSE serve] {len(requests)} requests ({distinct} distinct points "
        f"across {len(SERVE_BENCHMARKS)} benchmarks), {workers} workers"
    )

    with tempfile.TemporaryDirectory(prefix="dse-serve-") as tmp:
        store = Path(tmp) / "analysis.pkl"

        ANALYSIS_CACHE.clear()

        async def drive():
            farm = CompileFarm(
                SERVE_BENCHMARKS, sizes=sizes, workers=workers,
                store=store, warmup=None,
            )
            async with farm:
                started = time.perf_counter()
                batch = await farm.submit(requests)
                responses = await batch.gather()
                elapsed = time.perf_counter() - started
                return responses, elapsed, farm.stats

        responses, t_batch, stats = asyncio.run(drive())

        failures = [r for r in responses if not r.ok]
        assert not failures, f"farm requests failed: {failures[:3]}"
        # The load-bearing dedup accounting: the duplicated half of the
        # stream must cost zero extra evaluations.
        assert stats.scheduled == distinct, stats.as_dict()
        assert stats.supervision.evaluations == distinct, stats.as_dict()
        assert stats.coalesced + stats.cache_hits == len(requests) - distinct
        for index in range(distinct):
            first = responses[index].result
            twin = responses[distinct + index].result
            assert (
                first.cycles == twin.cycles
                and first.logic == twin.logic
                and first.bram_bits == twin.bram_bits
            ), f"duplicate diverged for {responses[index].point.label}"
        points_per_second = len(responses) / t_batch
        print(
            f"[DSE serve] batch {t_batch:.2f}s | sustained "
            f"{points_per_second:.0f} responses/s ({distinct / t_batch:.0f} "
            f"evaluated/s) | dedup: {stats.coalesced} coalesced, "
            f"{stats.cache_hits} cached, 0 extra evaluations"
        )

        # Grow the store to a realistic long-run size (tiling + analysis +
        # point-result tables), then compare the two worker warm-up paths.
        enrich = default_space(
            {d: sizes["gemm"][d] for d in ("m", "n", "p")},
            max_tiles_per_dim=3 if smoke else 4,
        )
        explore("gemm", sizes=sizes["gemm"], space=enrich, disk_cache=store)
        snap = store.with_name(store.name + ".snap")
        write_snapshot(snap)
        store_kib = store.stat().st_size / 1024
        snap_kib = snap.stat().st_size / 1024

        # Workers must start cold for the comparison to mean anything —
        # forked children otherwise inherit this warm cache copy-on-write.
        ANALYSIS_CACHE.clear()
        spawn_workers = max(2, workers)
        spawn_cold = _measure_spawn(spawn_workers, store, snap, warmup="load")
        spawn_warm = _measure_spawn(spawn_workers, store, snap, warmup="snapshot")

    warmup_cold = spawn_cold["worker_warmup_seconds"]
    warmup_warm = spawn_warm["worker_warmup_seconds"]
    speedup = warmup_cold / warmup_warm if warmup_warm > 0 else float("inf")
    print(
        f"[DSE serve] spawn over a {store_kib:.0f} KiB store: eager load "
        f"{warmup_cold * 1e3:.2f} ms/worker (pool ready "
        f"{spawn_cold['pool_ready_seconds']:.2f}s) | snapshot attach "
        f"{warmup_warm * 1e3:.2f} ms/worker (pool ready "
        f"{spawn_warm['pool_ready_seconds']:.2f}s) | {speedup:.0f}x"
    )
    assert warmup_warm < warmup_cold, (
        f"lazy snapshot attach ({warmup_warm * 1e3:.2f} ms) did not beat the "
        f"eager store load ({warmup_cold * 1e3:.2f} ms) at worker spawn"
    )

    return {
        "smoke": smoke,
        "benchmarks": list(SERVE_BENCHMARKS),
        "workers": workers,
        "requests": len(requests),
        "distinct_points": distinct,
        "seconds_batch": round(t_batch, 4),
        "points_per_second": round(points_per_second, 1),
        "evaluated_per_second": round(distinct / t_batch, 1),
        "duplicate_extra_evaluations": 0,
        "stats": stats.as_dict(),
        "spawn": {
            "store_kib": round(store_kib, 1),
            "snapshot_kib": round(snap_kib, 1),
            "cold_load": spawn_cold,
            "warm_snapshot": spawn_warm,
            "warmup_speedup": round(speedup, 1),
        },
    }


def refresh_ci_store(space) -> None:
    """Keep the repo-level store CI persists between runs up to date."""
    existed = CI_STORE.exists()
    explore(BENCHMARK, sizes=SIZES, space=space, disk_cache=CI_STORE)
    assert CI_STORE.exists(), "CI store refresh did not write the store"
    state = "updated" if existed else "created"
    print(f"[DSE disk] CI store {CI_STORE} {state} ({CI_STORE.stat().st_size / 1024:.0f} KiB)")


def run() -> dict:
    space = _sweep_space()
    assert len(space) >= MIN_POINTS, f"sweep has only {len(space)} points"

    engine = run_engine_phase(space)
    exhaustive = engine.pop("exhaustive_results")
    search = run_search_phase(space, exhaustive)
    disk_space = _disk_space()
    disk = run_disk_phase(disk_space)
    pipeline = run_pipeline_phase()
    refresh_ci_store(disk_space)

    record = {"benchmark": BENCHMARK, "sizes": SIZES, "points": len(space)}
    record.update(engine)
    record["search"] = search
    record["disk"] = disk
    record["pipeline"] = pipeline
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run the chaos phase: supervision overhead + seeded fault recovery",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the compile-farm phase: sustained points/sec + spawn warm-up",
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        help="run the batched-evaluation phase: scalar vs batched points/sec",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the workload sizes (CI smoke; affects --faults, --serve "
        "and --batch)",
    )
    args = parser.parse_args(argv)

    if args.batch:
        record = {"benchmark": BENCHMARK, "batch": run_batch_phase(args.smoke)}
    elif args.serve:
        record = {"serve": run_serve_phase(args.smoke)}
    elif args.faults:
        record = {"benchmark": BENCHMARK, "faults": run_faults_phase(args.smoke)}
    else:
        record = run()
    history = []
    if RESULT_PATH.exists():
        try:
            history = json.loads(RESULT_PATH.read_text())
            if not isinstance(history, list):
                history = [history]
        except json.JSONDecodeError:
            history = []
    history.append(record)
    RESULT_PATH.write_text(json.dumps(history, indent=2) + "\n")
    print(f"[DSE sweep] appended record to {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
