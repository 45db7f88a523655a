"""The repository benchmark: design-space exploration throughput on every
front-end, Figure 7 throughput and fidelity, and a traced per-layer split.

Usage, from the repository root::

    python3 perfbench/run.py --workload gemm --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics in ``BENCHMARK.json``, with
tracing off.  Each round runs every phase in a fresh interpreter (see
``perfbench/phases.py``) so every cold phase starts from an empty analysis
cache and no disk store; rounds repeat until ``--seconds`` is used up.
Each throughput is the work of all rounds over their total time, and
``setup_s`` is the median over rounds.  ``--trace 1`` runs the in-process
phases once untraced and once traced (``perfbench/layers.py``), plus the
pool and farm phases for their counters, and reports the per-layer metrics.

Both modes check every output: each point's cycles, area and DRAM bytes
must be identical across the scalar, batched, warm, disk-warm, pool and
farm front-ends (and between the traced and untraced runs); the tiled
programs at ``test_sizes`` must match each benchmark's reference.  The last
line of stdout is one JSON object; the exit code is non-zero when any
check fails.  The lines before it are a readable table and the full record
(per-round values and provenance) as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYER_NAMES, PASS_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must end well inside 180 s; children are killed past this.
HARD_LIMIT_S = 165.0
CACHE_TABLES = ("module_area", "pipeline_pass", "point_results", "scalar_ops", "traffic_records")
RESILIENCE_COUNTERS = ("retries", "timeouts", "pool_respawns", "serial_fallback", "quarantined")

END_TO_END_UNITS = {
    "explore_cold_pts_per_s": "pts/s",
    "explore_batched_pts_per_s": "pts/s",
    "explore_warm_pts_per_s": "pts/s",
    "explore_disk_warm_pts_per_s": "pts/s",
    "pool_pts_per_s": "pts/s",
    "farm_pts_per_s": "pts/s",
    "fig7_configs_per_s": "configs/s",
    "fig7_log_err": "ln_ratio",
    "fig7_event_log_err": "ln_ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class BenchmarkError(RuntimeError):
    pass


def _stop_group(child: subprocess.Popen) -> None:
    """Kill what is left of a phase's process group and wait for it to go."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Runner:
    """Runs phases in fresh interpreters and keeps the run's bookkeeping."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.workers = min(2, os.cpu_count() or 1)
        self.store_dir = work / "stores"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.versions: Dict[str, str] = {}
        self._calls = 0

    def spec(self, **extra) -> Dict:
        spec = {
            "workload": WORKLOADS[self.workload],
            "seed": self.seed,
            "workers": self.workers,
            "store_dir": str(self.store_dir),
        }
        spec.update(extra)
        return spec

    def phase(self, phase: str, **extra) -> Dict:
        self._calls += 1
        spec_path = self.work / f"{self._calls}-{phase}.spec.json"
        out_path = self.work / f"{self._calls}-{phase}.out.json"
        spec_path.write_text(json.dumps(self.spec(**extra)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchmarkError(f"time limit reached before phase {phase}")
        # A session of its own, so a timeout takes the pool workers down too.
        child = subprocess.Popen(
            [sys.executable, str(HERE / "phases.py"), phase, str(spec_path), str(out_path)],
            stdout=sys.stderr,
            env=env,
            cwd=str(ROOT),
            start_new_session=True,
        )
        try:
            code = child.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            _stop_group(child)
            raise BenchmarkError(f"phase {phase} exceeded the run's time limit")
        except BaseException:
            _stop_group(child)
            raise
        _stop_group(child)  # pool workers a phase left behind, if any
        if code != 0:
            raise BenchmarkError(f"phase {phase} exited with code {code}")
        out = json.loads(out_path.read_text())
        self.versions = out["versions"]
        return out

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted}")

    def same_points(self, reference: Dict, other: Dict, what: str) -> None:
        """Count the points of ``other`` that differ from ``reference``."""
        ref, got = reference["points"], other["points"]
        bad = sum(1 for key in set(ref) | set(got) if ref.get(key) != got.get(key))
        self.record(0, bad, f"{what} differs from scalar")

    def rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, children) / 1024.0  # KiB on Linux


def _labels(points: Dict[str, object]) -> Dict[str, List[str]]:
    labels: Dict[str, List[str]] = {}
    for key in points:
        bench, label = key.split("/", 1)
        labels.setdefault(bench, []).append(label)
    return labels


def _figure7_errors(
    runner: Runner, fig7: Dict[str, Dict], reference: Optional[Dict]
) -> Tuple[float, float]:
    """Figure 7 errors; the speedups are deterministic across rounds."""
    if reference is not None:
        for model in ("analytical", "event"):
            same = fig7[model]["cells"] == reference[model]["cells"]
            runner.record(1, 0 if same else 1, f"figure7 {model} speedups changed between rounds")
    for model in ("analytical", "event"):
        cells = fig7[model]["cells"].values()
        ok = all(math.isfinite(value) and value > 0 for value in cells)
        runner.record(len(cells), 0 if ok else len(cells), f"figure7 {model} speedups")
    return fig7["analytical"]["log_err"], fig7["event"]["log_err"]


def run_pool_and_farm(runner: Runner, cold: Dict) -> Tuple[Dict, Dict]:
    """The pool and farm phases, checked against the scalar results."""
    pool = runner.phase("pool")
    runner.record(pool["attempted"], pool["failed"], "pool")
    runner.same_points(cold, pool, "pool")
    farm = runner.phase("farm", labels=_labels(cold["points"]))
    runner.record(farm["attempted"], farm["failed"], "farm")
    runner.same_points(cold, farm, "farm")
    # Every request was submitted twice: only the distinct ones may run.
    scheduled = farm["farm"]["scheduled"]
    runner.record(1, 0 if scheduled == farm["distinct"] else 1, "farm scheduled != distinct")
    return pool, farm


def run_round(runner: Runner, first: Optional[Dict]) -> Dict:
    """One pass over every timed phase; returns the round's metric values."""
    shutil.rmtree(runner.store_dir, ignore_errors=True)
    runner.store_dir.mkdir()
    cold = runner.phase("cold")
    if first is not None:
        runner.same_points(first["cold"], cold, "cold scalar (between rounds)")
    runner.record(cold["attempted"], cold["failed"], "cold scalar")
    runner.record(cold["warm_attempted"], cold["warm_failed"], "warm")
    batched = runner.phase("batched")
    runner.record(batched["attempted"], batched["failed"], "batched")
    runner.same_points(cold, batched, "batched")
    # A fresh process per benchmark, each against its own store.
    disk = {"points": {}, "seconds": 0.0, "store_rewritten": 0}
    for bench in WORKLOADS[runner.workload]["benchmarks"]:
        one = runner.phase("disk", bench=bench)
        runner.record(one["attempted"], one["failed"], f"disk warm {bench}")
        disk["points"].update(one["points"])
        disk["seconds"] += one["seconds"]
        disk["store_rewritten"] += one["store_rewritten"]
    runner.same_points(cold, disk, "disk warm")
    pool, farm = run_pool_and_farm(runner, cold)
    fig7 = {
        model: runner.phase("fig7", cycle_model=model) for model in ("analytical", "event")
    }
    log_err, event_log_err = _figure7_errors(runner, fig7, first["fig7"] if first else None)
    evaluated = len(cold["points"])
    fig7_runs = list(fig7.values())
    # (work, seconds) per throughput metric; a run reports total work over
    # total time, so every round's measured work counts in proportion.
    work = {
        "explore_cold_pts_per_s": (evaluated, cold["seconds"]),
        "explore_batched_pts_per_s": (len(batched["points"]), batched["seconds"]),
        "explore_warm_pts_per_s": (cold["warm_evaluated"], cold["warm_seconds"]),
        "explore_disk_warm_pts_per_s": (len(disk["points"]), disk["seconds"]),
        "pool_pts_per_s": (len(pool["points"]), pool["seconds"]),
        "farm_pts_per_s": (farm["distinct"], farm["seconds"]),
        "fig7_configs_per_s": (
            sum(run["configs"] for run in fig7_runs),
            sum(run["seconds"] for run in fig7_runs),
        ),
    }
    return {
        "work": work,
        "setup_s": farm["setup_s"],
        "fig7_log_err": log_err,
        "fig7_event_log_err": event_log_err,
        "cold": cold,
        "fig7": fig7,
        "evaluated": evaluated,
        "farm": farm["farm"],
        "disk_stores_rewritten": disk["store_rewritten"],
    }


def measure(runner: Runner, seconds: float) -> Tuple[Dict[str, Tuple[float, str]], Dict]:
    check = runner.phase("check")
    runner.record(check["attempted"], check["failed"], f"reference check {check['failures']}")
    rounds: List[Dict] = []
    durations: List[float] = []
    deadline = runner.started + seconds
    while True:
        began = time.monotonic()
        rounds.append(run_round(runner, rounds[0] if rounds else None))
        durations.append(time.monotonic() - began)
        if time.monotonic() + statistics.median(durations) > deadline:
            break
    metrics = {
        name: sum(r["work"][name][0] for r in rounds) / sum(r["work"][name][1] for r in rounds)
        for name in rounds[0]["work"]
    }
    metrics["fig7_log_err"] = rounds[0]["fig7_log_err"]
    metrics["fig7_event_log_err"] = rounds[0]["fig7_event_log_err"]
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in rounds)
    metrics["peak_rss_mb"] = runner.rss_mb()
    metrics["ok_frac"] = 1.0 - runner.failed / runner.attempted
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    detail = {
        "rounds": len(rounds),
        "round_seconds": durations,
        "per_round": {
            name: [amount / seconds for amount, seconds in (r["work"][name] for r in rounds)]
            for name in rounds[0]["work"]
        },
        "setup_s_per_round": [r["setup_s"] for r in rounds],
        "points_evaluated": rounds[0]["evaluated"],
        "farm": rounds[0]["farm"],
        "disk_stores_rewritten": rounds[0]["disk_stores_rewritten"],
        "figure7_cells": {m: rounds[0]["fig7"][m]["cells"] for m in ("analytical", "event")},
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def _counts(traced: Dict, name: str, phase: Optional[str] = None) -> float:
    total = 0.0
    for key, value in traced["counts"].items():
        key_phase, key_name = key.split(":", 1)
        if key_name == name and (phase is None or key_phase == phase):
            total += value
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def trace(runner: Runner) -> Tuple[Dict[str, Tuple[float, str]], Dict]:
    plain = runner.phase("inproc", trace=False)
    traced = runner.phase("inproc", trace=True)
    for what in ("cold", "warm", "batched"):
        runner.record(traced[what]["attempted"], traced[what]["failed"], f"traced {what}")
        runner.same_points(plain[what], traced[what], f"traced {what} vs untraced")
    runner.same_points(plain["cold"], plain["batched"], "batched")
    runner.same_points(plain["cold"], plain["warm"], "warm")
    for model in ("analytical", "event"):
        same = plain[f"fig7-{model}"]["cells"] == traced[f"fig7-{model}"]["cells"]
        runner.record(1, 0 if same else 1, f"traced figure7 {model} vs untraced")
    check = traced["check"]
    runner.record(check["attempted"], check["failed"], f"reference check {check['failures']}")
    runner.record(1, 0 if traced["restored"] else 1, "wrapped entry points not restored")
    pool, farm = run_pool_and_farm(runner, plain["cold"])

    calls, self_s = traced["calls"], traced["self_s"]
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYER_NAMES + tuple(f"pipeline.pass.{name}" for name in PASS_NAMES):
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for name in PASS_NAMES:
        metrics[f"pipeline.pass.{name}.cache_hit_ratio"] = (
            _ratio(_counts(traced, f"pass.{name}.cached"), _counts(traced, f"pass.{name}.runs")),
            "ratio",
        )
    metrics["other.self_s"] = (traced["wall_s"] - sum(self_s.values()), "s")
    metrics["apps.inputs.bytes"] = (_counts(traced, "apps.inputs.bytes"), "bytes")
    for phase in ("cold", "batched"):
        metrics[f"pipeline.runs_per_point.{phase}"] = (
            _ratio(_counts(traced, "pipeline.runs", phase), len(traced[phase]["points"])),
            "runs/pt",
        )
    metrics["schedule.batched.points_per_call"] = (
        _ratio(_counts(traced, "schedule.batched.points"), calls.get("schedule.batched", 0)),
        "pts/call",
    )
    metrics["dse.batch.points_per_call"] = (
        _ratio(_counts(traced, "dse.batch.points"), calls.get("dse.batch", 0)),
        "pts/call",
    )
    metrics["dse.batch.scalar_fallback_points"] = (
        _counts(traced, "dse.evaluate_point.calls", "batched"),
        "count",
    )
    for table in CACHE_TABLES:
        for phase in ("cold", "warm"):
            ratio = traced["cache_hit_ratio"][phase].get(table, 0.0)
            metrics[f"dse.cache.{table}.hit_ratio_{phase}"] = (ratio, "ratio")
    for counter in RESILIENCE_COUNTERS:
        total = pool["supervision"].get(counter, 0) + farm["supervision"].get(counter, 0)
        metrics[f"dse.resilience.{counter}"] = (total, "count")
    stats = farm["farm"]
    for counter in ("received", "coalesced", "cache_hits", "scheduled"):
        metrics[f"serve.farm.{counter}"] = (stats[counter], "count")
    metrics["serve.farm.dedup_ratio"] = (_ratio(stats["scheduled"], stats["received"]), "ratio")
    metrics["serve.farm.start_s"] = (farm["start_s"], "s")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")

    unseen = [
        name for name in list(LAYER_NAMES) + [f"pipeline.pass.{p}" for p in PASS_NAMES]
        if not calls.get(name)
    ]
    extra = sorted(set(self_s) - set(LAYER_NAMES) - {f"pipeline.pass.{p}" for p in PASS_NAMES})
    detail = {
        "phase_seconds": {"untraced": plain["phase_seconds"], "traced": traced["phase_seconds"]},
        "wrapped_entry_points": traced["patched"],
        "not_on_this_workload_path": unseen,
        "layers_outside_metric_list": extra,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup below


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, work)
    try:
        if args.trace:
            metrics, detail = trace(runner)
        else:
            metrics, detail = measure(runner, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "provenance": {
            "git_sha": _git_sha(),
            "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "python": runner.versions.get("python", platform.python_version()),
            "numpy": runner.versions.get("numpy"),
            "workers": runner.workers,
        },
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.failures,
        "detail": detail,
    }
    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(f"{'failed_frac':<48} {record['failed_frac']:>16.6g} ratio")
    print("record " + json.dumps(record, sort_keys=True))
    correct = runner.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
