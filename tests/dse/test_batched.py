"""Batched design-point evaluation: bit-identity with the scalar path on
every benchmark, pipeline-variant and cycle-model coverage, cache seeding,
explore() integration, chaos determinism, and the annealing strategy's
efficiency criterion."""

import numpy as np
import pytest

from repro.apps import all_benchmarks, get_benchmark
from repro.dse import engine
from repro.dse.batch import evaluate_point_batch
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import evaluate_point, explore
from repro.dse.resilience import FaultPlan, ResiliencePolicy
from repro.dse.search import hypervolume, run_search
from repro.dse.space import DesignPoint, DesignSpace, default_space
from repro.rewrite import DEFAULT_ORDERING, ordering_name

BENCH_NAMES = [bench.name for bench in all_benchmarks()]

#: The default ordering followed by the three schedule rules as separate steps.
SCHEDULE_STEPS_ORDERING = ordering_name(
    DEFAULT_ORDERING
    + ("flatten-degenerate-groups", "coalesce-transfers", "rebalance-stages")
)

RESULT_FIELDS = (
    "cycles",
    "seconds",
    "logic",
    "ffs",
    "bram_bits",
    "dsps",
    "read_bytes",
    "write_bytes",
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


def _space_for(bench, pipeline="default"):
    """A small but structured space: baseline + tiles x par x meta."""
    return default_space(
        {name: bench.test_sizes[name] for name in bench.tile_sizes},
        pars=(4, 8),
        max_tiles_per_dim=2,
        pipelines=(pipeline,),
    )


def _assert_results_bit_identical(scalar, batched):
    assert len(scalar) == len(batched)
    for left, right in zip(scalar, batched):
        assert left.point == right.point
        for field in RESULT_FIELDS:
            assert getattr(left, field) == getattr(right, field), field
        assert left.utilization == right.utilization


class TestBitIdentity:
    @pytest.mark.parametrize("name", BENCH_NAMES)
    def test_every_benchmark_matches_the_scalar_path(self, name):
        bench = get_benchmark(name)
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(3))
        points = list(_space_for(bench))
        with ANALYSIS_CACHE.disabled():
            scalar = [evaluate_point(program, bindings, p) for p in points]
            batched = evaluate_point_batch(program, bindings, points)
        _assert_results_bit_identical(scalar, batched)

    @pytest.mark.parametrize(
        "variant",
        ["rewrite", "rewrite-profiled", "no-fusion", "no-cse", SCHEDULE_STEPS_ORDERING],
    )
    def test_pipeline_variants_match(self, variant, monkeypatch):
        bench = get_benchmark("gemm")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(5))
        points = list(_space_for(bench, pipeline=variant))[:8]
        with ANALYSIS_CACHE.disabled():
            scalar = [evaluate_point(program, bindings, p) for p in points]
            # Every point must take the vector path: count scalar fallbacks.
            fallbacks = []

            def counting(*args, **kwargs):
                fallbacks.append(args)
                return evaluate_point(*args, **kwargs)

            monkeypatch.setattr(engine, "evaluate_point", counting)
            batched = evaluate_point_batch(program, bindings, points)
        assert fallbacks == []
        _assert_results_bit_identical(scalar, batched)

    def test_event_cycle_model_routes_through_scalar_and_matches(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(2))
        points = list(_space_for(bench))[:6]
        with ANALYSIS_CACHE.disabled():
            scalar = [
                evaluate_point(program, bindings, p, cycle_model="event")
                for p in points
            ]
            batched = evaluate_point_batch(
                program, bindings, points, cycle_model="event"
            )
        _assert_results_bit_identical(scalar, batched)

    def test_mixed_order_and_duplicate_configs_keep_submission_order(self):
        """Grouping by (pipeline, config) must not reorder the output."""
        bench = get_benchmark("outerprod")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(8))
        points = list(_space_for(bench))
        shuffled = list(points)
        np.random.default_rng(0).shuffle(shuffled)
        with ANALYSIS_CACHE.disabled():
            scalar = [evaluate_point(program, bindings, p) for p in shuffled]
            batched = evaluate_point_batch(program, bindings, shuffled)
        _assert_results_bit_identical(scalar, batched)

    def test_unknown_pipeline_gene_raises_like_scalar(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(1))
        bad = DesignPoint.make({"m": 64}, par=4, pipeline="not-a-variant")
        with pytest.raises(ValueError, match="pipeline"):
            evaluate_point_batch(program, bindings, [bad])


class TestCacheInteraction:
    def test_batch_seeds_point_results_for_the_scalar_path(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(4))
        points = list(_space_for(bench))[:5]
        batched = evaluate_point_batch(program, bindings, points)
        assert ANALYSIS_CACHE.stats()["point_results"]["entries"] == len(points)
        # A scalar re-evaluation is served from the batch-seeded entries.
        rerun = [evaluate_point(program, bindings, p) for p in points]
        _assert_results_bit_identical(batched, rerun)
        assert ANALYSIS_CACHE.stats()["point_results"]["hits"] >= len(points)

    def test_batch_serves_prior_scalar_entries(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(4))
        points = list(_space_for(bench))[:5]
        scalar = [evaluate_point(program, bindings, p) for p in points]
        before = ANALYSIS_CACHE.stats()["point_results"]["hits"]
        batched = evaluate_point_batch(program, bindings, points)
        _assert_results_bit_identical(scalar, batched)
        assert ANALYSIS_CACHE.stats()["point_results"]["hits"] == before + len(points)

    def test_returned_results_do_not_alias_cache_entries(self):
        bench = get_benchmark("sumrows")
        program = bench.build()
        bindings = bench.bindings(rng=np.random.default_rng(4))
        points = list(_space_for(bench))[:2]
        first = evaluate_point_batch(program, bindings, points)
        first[0].utilization["logic"] = -1.0
        again = evaluate_point_batch(program, bindings, points)
        assert again[0].utilization["logic"] != -1.0


class TestExploreIntegration:
    def _explore(self, **kwargs):
        return explore(
            "gemm",
            sizes={"m": 256, "n": 256, "p": 256},
            workers=1,
            seed=9,
            **kwargs,
        )

    def test_batched_explore_bit_identical_to_per_point(self):
        baseline = self._explore()
        ANALYSIS_CACHE.clear()
        batched = self._explore(batch_eval=True)
        _assert_results_bit_identical(baseline.evaluated, batched.evaluated)
        assert [r.point for r in baseline.pareto] == [r.point for r in batched.pareto]

    def test_block_size_batching_matches(self):
        baseline = self._explore()
        ANALYSIS_CACHE.clear()
        blocked = self._explore(batch_eval=7)
        _assert_results_bit_identical(baseline.evaluated, blocked.evaluated)

    def test_invalid_batch_eval_rejected(self):
        with pytest.raises(ValueError, match="batch_eval"):
            self._explore(batch_eval=0)

    def test_chaos_batched_explore_is_deterministic(self):
        """Fault-plan victims detour through per-point supervision; the
        recovered sweep must still be bit-identical to a fault-free one."""
        space = _space_for(get_benchmark("gemm"))
        plan = FaultPlan.seeded(
            {"gemm": list(space)}, seed=11, crashes=0, hangs=0, errors=2, corrupts=2, times=1
        )
        policy = ResiliencePolicy(
            fault_plan=plan, retries=3, backoff=0.0, jitter=0.0, timeout=60.0
        )
        clean = self._explore(space=space, batch_eval=True)
        ANALYSIS_CACHE.clear()
        chaotic = self._explore(space=space, batch_eval=True, resilience=policy)
        _assert_results_bit_identical(clean.evaluated, chaotic.evaluated)
        assert chaotic.supervision["retries"] > 0
        assert chaotic.supervision["recovered"] > 0


def _synthetic_result(point):
    import math

    tiles = point.tiles
    tile_m = tiles.get("m", 1)
    tile_n = tiles.get("n", 1)
    sweet = 1.0 + 0.25 * abs(math.log2(max(tile_m, 1)) - 6)
    meta_gain = 0.7 if point.metapipelining else 1.0
    baseline_penalty = 2.0 if not point.tiling else 1.0
    cycles = 1.0e6 / point.par * sweet * meta_gain * baseline_penalty
    util = 0.02 * point.par + 0.15 * math.log2(max(tile_m * tile_n, 2)) / 16.0
    from repro.dse.engine import PointResult

    return PointResult(point=point, cycles=cycles, utilization={"logic": util})


class TestAnnealingEfficiency:
    """The acceptance criterion: annealing reaches >= 95% of the exhaustive
    front's hypervolume with no more evaluations than the genetic search."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_annealing_hypervolume_and_budget(self, seed):
        space = default_space(
            {"m": 256, "n": 256}, pars=(4, 8, 16, 32), max_tiles_per_dim=3
        )
        evaluate = lambda points: [_synthetic_result(p) for p in points]
        exhaustive = run_search("exhaustive", space, evaluate)
        reference = (
            1.05 * max(r.cycles for r in exhaustive.evaluated),
            1.05 * max(r.max_utilization for r in exhaustive.evaluated),
        )
        full = hypervolume(exhaustive.front, reference=reference)
        annealed = run_search("annealing", space, evaluate, seed=seed)
        genetic = run_search("genetic", space, evaluate, seed=seed)
        assert annealed.evaluations <= genetic.evaluations
        assert hypervolume(annealed.front, reference=reference) >= 0.95 * full
