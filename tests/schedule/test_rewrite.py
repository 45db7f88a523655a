"""The schedule rewriter: rewrites, legality, pipeline wiring, benchmarks."""

import math

import numpy as np
import pytest

from repro.analysis.area import estimate_area_of_schedule
from repro.analysis.traffic import schedule_traffic
from repro.apps import all_benchmarks
from repro.codegen.maxj import generate_maxj
from repro.config import BASELINE, CompileConfig
from repro.dse.space import DesignPoint
from repro.errors import ScheduleRewriteError
from repro.hw.controllers import (
    MetapipelineController,
    SequentialController,
)
from repro.hw.design import HardwareDesign
from repro.hw.templates import ReductionTree, TileLoad, TileStore, VectorUnit
from repro.pipeline import Session
from repro.pipeline.variants import get_pipeline, pipeline_variants
from repro.schedule import (
    AnalyticalScheduleBackend,
    ComputeNode,
    EventScheduleBackend,
    MetapipelineSchedule,
    SequentialSchedule,
    TransferNode,
)
from repro.schedule.rewrite import (
    BALANCE_FACTOR_CANDIDATES,
    CoalesceTransfers,
    FlattenDegenerateGroups,
    RebalanceStages,
    clone_schedule,
    rewrite_schedule,
    tune_balance_factor,
    verify_rewrite,
)
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD

SIZES = {
    "outerprod": {"m": 2048, "n": 2048},
    "sumrows": {"m": 4096, "n": 128},
    "gemm": {"m": 256, "n": 256, "p": 256},
    "tpchq6": {"n": 262144},
    "gda": {"n": 4096, "d": 16},
    "kmeans": {"n": 8192, "k": 16, "d": 16},
}


def _design_with(top, memories=()):
    return HardwareDesign(
        name="unit-test",
        program_name="unit",
        config=BASELINE,
        top=top,
        board=DEFAULT_BOARD,
        memories=list(memories),
    )


def _meta_config(bench):
    return CompileConfig(
        tiling=True,
        metapipelining=True,
        tile_sizes=dict(bench.tile_sizes),
        par_factors=dict(bench.par_factors),
    )


class TestTreeDepth:
    """Satellite: ceil(log2) reduction-tree depth for non-power-of-two lanes.

    ``tree_depth`` only feeds the MaxJ emission (``pipe.reduceTree(depth=…)``);
    neither cycle backend nor the area model reads it, so the fix implies
    **no** golden Figure 7 deltas — asserted by the untouched
    ``tests/integration/golden_figure7.json`` gate.
    """

    @pytest.mark.parametrize("lanes", [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33])
    def test_compute_node_depth_is_ceil_log2(self, lanes):
        node = ComputeNode(name="tree", unit="reduction", lanes=lanes)
        expected = math.ceil(math.log2(lanes)) if lanes > 1 else 0
        assert node.tree_depth == expected

    @pytest.mark.parametrize("lanes", [1, 2, 3, 5, 8, 13, 16, 17])
    def test_template_depth_matches_schedule_node(self, lanes):
        module = ReductionTree(name="tree", lanes=lanes)
        node = ComputeNode(name="tree", unit="reduction", lanes=lanes)
        assert module.tree_depth == node.tree_depth

    def test_five_lanes_regression(self):
        # The old floor-halving loop reported 2 for five lanes.
        assert ComputeNode(name="t", unit="reduction", lanes=5).tree_depth == 3


class TestCoalesceTransfers:
    def _schedule(self):
        load_a = TileLoad(name="load_a", bytes_per_invocation=1000, source="x", destination="xT")
        load_b = TileLoad(name="load_b", bytes_per_invocation=500, source="y", destination="yT")
        compute = VectorUnit(name="vec", lanes=4, elements=4096)
        store = TileStore(name="store", bytes_per_invocation=800, source="vec", destination="DRAM")
        top = MetapipelineController(
            name="meta", stages=[load_a, load_b, compute, store], iterations=8
        )
        return _design_with(top).schedule()

    def test_adjacent_same_direction_transfers_merge(self):
        schedule = self._schedule()
        result = rewrite_schedule(schedule, rewrites=[CoalesceTransfers()])
        assert result.hits["coalesce-transfers"] == 1
        merged = result.schedule.transfers
        loads = [t for t in merged if t.direction == "load"]
        assert len(loads) == 1
        assert loads[0].bytes_per_invocation == 1500
        assert loads[0].name == "load_a+load_b"
        # The store is not a load: it must survive un-merged.
        assert any(t.direction == "store" for t in merged)

    def test_coalescing_preserves_traffic_and_modules(self):
        schedule = self._schedule()
        result = rewrite_schedule(schedule, rewrites=[CoalesceTransfers()])
        before, after = schedule_traffic(schedule), schedule_traffic(result.schedule)
        assert before.read_bytes == after.read_bytes
        assert before.write_bytes == after.write_bytes
        assert sorted(m.name for m in schedule.modules()) == sorted(
            m.name for m in result.schedule.modules()
        )

    def test_coalescing_a_sourceless_transfer_stays_legal(self):
        # A source-less constituent is identified by its node name in the
        # traffic inventory; the merged source must keep that identity or
        # the legality checker would reject a traffic-preserving rewrite.
        named = TileLoad(name="load_a", bytes_per_invocation=1000, source="x")
        anonymous = TileLoad(name="load_b", bytes_per_invocation=500)
        schedule = _design_with(
            SequentialController(name="seq", stages=[named, anonymous], iterations=2)
        ).schedule()
        result = rewrite_schedule(schedule, rewrites=[CoalesceTransfers()])
        assert result.hits["coalesce-transfers"] == 1
        assert result.schedule.transfers[0].source == "x+load_b"

    def test_load_store_pairs_do_not_merge(self):
        load = TileLoad(name="load", bytes_per_invocation=1000)
        store = TileStore(name="store", bytes_per_invocation=1000)
        schedule = _design_with(
            SequentialController(name="seq", stages=[load, store], iterations=2)
        ).schedule()
        result = rewrite_schedule(schedule, rewrites=[CoalesceTransfers()])
        assert result.hits["coalesce-transfers"] == 0

    def test_coalescing_saves_a_dram_latency(self):
        schedule = self._schedule()
        result = rewrite_schedule(schedule, rewrites=[CoalesceTransfers()])
        before = EventScheduleBackend().run(schedule).cycles
        after = EventScheduleBackend().run(result.schedule).cycles
        assert after < before


class TestRebalanceStages:
    def test_underfull_adjacent_stages_merge(self):
        model = PerformanceModel(metapipeline_sync=0)
        tiny_a = VectorUnit(name="a", lanes=1, elements=10, pipeline_depth=0)
        tiny_b = VectorUnit(name="b", lanes=1, elements=10, pipeline_depth=0)
        big = VectorUnit(name="big", lanes=1, elements=1000, pipeline_depth=0)
        schedule = _design_with(
            MetapipelineController(name="meta", stages=[tiny_a, tiny_b, big], iterations=16)
        ).schedule()
        result = rewrite_schedule(schedule, model=model, rewrites=[RebalanceStages()])
        assert result.hits["rebalance-stages"] == 1
        meta = result.schedule.nodes_of(MetapipelineSchedule)[0]
        assert meta.num_stages == 2
        merged = meta.stages[0]
        assert isinstance(merged, SequentialSchedule)
        assert merged.iterations == 1
        # Steady state is set by the slowest stage either way; fewer syncs
        # means the rewritten schedule can only be at least as fast.
        before = AnalyticalScheduleBackend(model).run(schedule).cycles
        after = AnalyticalScheduleBackend(model).run(result.schedule).cycles
        assert after <= before

    def test_merge_never_raises_the_critical_path(self):
        # Two stages at ~60% of the slowest: merging them would exceed the
        # slowest stage and slow the steady state, so it must not fire.
        a = VectorUnit(name="a", lanes=1, elements=600, pipeline_depth=0)
        b = VectorUnit(name="b", lanes=1, elements=600, pipeline_depth=0)
        big = VectorUnit(name="big", lanes=1, elements=1000, pipeline_depth=0)
        schedule = _design_with(
            MetapipelineController(name="meta", stages=[a, b, big], iterations=16)
        ).schedule()
        result = rewrite_schedule(schedule, rewrites=[RebalanceStages()])
        assert result.hits["rebalance-stages"] == 0

    def test_bottleneck_sequential_stage_splits(self):
        inner_a = VectorUnit(name="ia", lanes=1, elements=500, pipeline_depth=0)
        inner_b = VectorUnit(name="ib", lanes=1, elements=500, pipeline_depth=0)
        serial = SequentialController(name="serial", stages=[inner_a, inner_b], iterations=1)
        small = VectorUnit(name="small", lanes=1, elements=100, pipeline_depth=0)
        schedule = _design_with(
            MetapipelineController(name="meta", stages=[serial, small], iterations=16)
        ).schedule()
        result = rewrite_schedule(schedule, rewrites=[RebalanceStages()])
        assert result.hits["rebalance-stages"] >= 1
        meta = result.schedule.nodes_of(MetapipelineSchedule)[0]
        # The serial bottleneck became two overlapped stages.
        assert meta.num_stages == 3
        before = EventScheduleBackend().run(schedule).cycles
        after = EventScheduleBackend().run(result.schedule).cycles
        assert after < before

    def test_balance_factor_validation(self):
        with pytest.raises(ValueError, match="balance_factor"):
            RebalanceStages(balance_factor=0.5)


class TestProfiledRebalancing:
    """The event-profiled cost oracle and the per-schedule tuned factor."""

    def _benchmark_schedule(self, name="gda"):
        bench = next(b for b in all_benchmarks() if b.name == name)
        bindings = bench.bindings(SIZES[name], np.random.default_rng(0))
        return Session().compile(bench.build(), _meta_config(bench), bindings).schedule

    def test_invalid_cost_source_rejected(self):
        with pytest.raises(ValueError, match="cost_source"):
            RebalanceStages(cost_source="profiler")

    def test_event_cost_source_preserves_legality(self):
        schedule = self._benchmark_schedule()
        result = rewrite_schedule(schedule, cost_source="event")
        before = schedule_traffic(schedule)
        after = schedule_traffic(result.schedule)
        assert before.read_bytes == after.read_bytes
        assert before.write_bytes == after.write_bytes
        event_before = EventScheduleBackend().run(schedule).cycles
        event_after = EventScheduleBackend().run(result.schedule).cycles
        assert event_after <= event_before * (1 + 1e-9)

    def test_measured_costs_split_the_contended_bottleneck(self):
        """A stage whose transfers contend on DRAM *measures* slower than
        its closed form; the event oracle sees the measured duration, so
        rebalancing decisions key off real stalls, not idealised costs."""
        schedule = self._benchmark_schedule("outerprod")
        analytical = rewrite_schedule(schedule, cost_source="analytical")
        profiled = rewrite_schedule(schedule, cost_source="event")
        event = EventScheduleBackend()
        assert event.run(profiled.schedule).cycles <= event.run(
            analytical.schedule
        ).cycles * (1 + 1e-9)

    def test_tune_balance_factor_returns_a_candidate(self):
        schedule = self._benchmark_schedule()
        factor = tune_balance_factor(schedule)
        assert factor in BALANCE_FACTOR_CANDIDATES

    def test_tune_balance_factor_is_deterministic(self):
        schedule = self._benchmark_schedule()
        assert tune_balance_factor(schedule) == tune_balance_factor(schedule)

    def test_auto_balance_factor_never_regresses(self):
        schedule = self._benchmark_schedule()
        auto = rewrite_schedule(schedule, balance_factor="auto", cost_source="event")
        default = rewrite_schedule(schedule)
        event = EventScheduleBackend()
        assert event.run(auto.schedule).cycles <= event.run(
            default.schedule
        ).cycles * (1 + 1e-9)
        # And the tuned rewrite is still legal.
        before = schedule_traffic(schedule)
        after = schedule_traffic(auto.schedule)
        assert before.read_bytes == after.read_bytes

    def test_rewrite_profiled_variant_is_registered(self):
        assert "rewrite-profiled" in pipeline_variants()
        names = get_pipeline("rewrite-profiled").pass_names
        assert names.index("rewrite-schedule") == names.index("build-schedule") + 1


class TestDegenerateFlattening:
    def test_single_stage_single_iteration_group_collapses(self):
        unit = VectorUnit(name="v", lanes=1, elements=64)
        wrapped = SequentialController(name="wrapper", stages=[unit], iterations=1)
        schedule = _design_with(
            SequentialController(name="outer", stages=[wrapped], iterations=1)
        ).schedule()
        result = rewrite_schedule(schedule, rewrites=[FlattenDegenerateGroups()])
        assert result.hits["flatten-degenerate-groups"] == 2
        assert isinstance(result.schedule.root, ComputeNode)
        # The flattened controllers' modules survive on the child.
        assert sorted(m.name for m in schedule.modules()) == sorted(
            m.name for m in result.schedule.modules()
        )

    def test_iterating_groups_are_not_degenerate(self):
        unit = VectorUnit(name="v", lanes=1, elements=64)
        schedule = _design_with(
            SequentialController(name="loop", stages=[unit], iterations=8)
        ).schedule()
        result = rewrite_schedule(schedule, rewrites=[FlattenDegenerateGroups()])
        assert result.hits["flatten-degenerate-groups"] == 0

    def test_zero_iteration_groups_are_not_degenerate(self):
        # A zero-iteration group's body never runs; flattening it would
        # start executing the child (0 -> 100 cycles).
        unit = VectorUnit(name="v", lanes=1, elements=100, pipeline_depth=0)
        schedule = _design_with(
            SequentialController(name="never", stages=[unit], iterations=0)
        ).schedule()
        result = rewrite_schedule(schedule)
        assert result.hits["flatten-degenerate-groups"] == 0
        assert EventScheduleBackend().run(result.schedule).cycles == 0


class TestLegalityChecker:
    def test_dropping_a_transfer_is_rejected(self):
        load = TileLoad(name="load", bytes_per_invocation=1000, source="x")
        unit = VectorUnit(name="v", lanes=1, elements=64)
        schedule = _design_with(
            SequentialController(name="seq", stages=[load, unit], iterations=4)
        ).schedule()
        broken = clone_schedule(schedule)
        broken.root.stages = [s for s in broken.root.stages if not isinstance(s, TransferNode)]
        with pytest.raises(ScheduleRewriteError, match="module inventory"):
            verify_rewrite(schedule, broken)

    def test_shrinking_a_transfer_is_rejected(self):
        load = TileLoad(name="load", bytes_per_invocation=1000, source="x")
        schedule = _design_with(
            SequentialController(name="seq", stages=[load], iterations=4)
        ).schedule()
        broken = clone_schedule(schedule)
        broken.transfers[0].bytes_per_invocation = 999
        with pytest.raises(ScheduleRewriteError, match="DRAM read"):
            verify_rewrite(schedule, broken)

    def test_changing_trip_counts_is_rejected(self):
        load = TileLoad(name="load", bytes_per_invocation=1000, source="x")
        schedule = _design_with(
            SequentialController(name="seq", stages=[load], iterations=4)
        ).schedule()
        broken = clone_schedule(schedule)
        broken.root.iterations = 3
        with pytest.raises(ScheduleRewriteError, match="DRAM read"):
            verify_rewrite(schedule, broken)

    def test_identity_passes(self):
        load = TileLoad(name="load", bytes_per_invocation=1000, source="x")
        schedule = _design_with(
            SequentialController(name="seq", stages=[load], iterations=4)
        ).schedule()
        verify_rewrite(schedule, clone_schedule(schedule))


class TestRewriterOnBenchmarks:
    """Satellite: rewriter legality and backend acceptance on all six
    benchmarks, for all three Figure 7 configurations."""

    @pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
    def test_rewritten_schedules_are_legal_and_simulable(self, bench):
        bindings = bench.bindings(SIZES[bench.name], np.random.default_rng(0))
        session = Session()
        configs = {
            "baseline": BASELINE,
            "tiling": CompileConfig(
                tiling=True,
                tile_sizes=dict(bench.tile_sizes),
                par_factors=dict(bench.par_factors),
            ),
            "tiling+metapipelining": _meta_config(bench),
        }
        for label, config in configs.items():
            compiled = session.compile(bench.build(), config, bindings)
            result = rewrite_schedule(compiled.schedule)  # verify_rewrite inside

            # Coalescing (and every other rewrite) leaves traffic unchanged.
            before = schedule_traffic(compiled.schedule)
            after = schedule_traffic(result.schedule)
            assert before.read_bytes == after.read_bytes, (bench.name, label)
            assert before.write_bytes == after.write_bytes, (bench.name, label)

            # Both cycle backends accept the rewritten schedule.
            analytical = AnalyticalScheduleBackend().run(result.schedule)
            event = EventScheduleBackend().run(result.schedule)
            assert analytical.cycles > 0, (bench.name, label)
            assert event.cycles > 0, (bench.name, label)

            # The rewriter optimises time, never area: identical totals.
            area_before = estimate_area_of_schedule(compiled.schedule).total
            area_after = estimate_area_of_schedule(result.schedule).total
            assert (area_before.logic, area_before.ffs, area_before.bram_bits, area_before.dsps) == (
                area_after.logic,
                area_after.ffs,
                area_after.bram_bits,
                area_after.dsps,
            ), (bench.name, label)

    def test_rewriter_improves_event_cycles_somewhere(self):
        """The acceptance-criterion anchor: with the rewriter on, the event
        backend reports fewer cycles on at least one benchmark."""
        improved = []
        session = Session()
        for bench in all_benchmarks():
            bindings = bench.bindings(SIZES[bench.name], np.random.default_rng(0))
            compiled = session.compile(bench.build(), _meta_config(bench), bindings)
            result = rewrite_schedule(compiled.schedule)
            before = EventScheduleBackend().run(compiled.schedule).cycles
            after = EventScheduleBackend().run(result.schedule).cycles
            assert after <= before * (1 + 1e-9), bench.name
            if after < before:
                improved.append(bench.name)
        assert improved, "no benchmark improved under the rewriter"

    def test_input_schedule_is_never_mutated(self):
        bench = next(b for b in all_benchmarks() if b.name == "tpchq6")
        bindings = bench.bindings(SIZES["tpchq6"], np.random.default_rng(0))
        compiled = Session().compile(bench.build(), _meta_config(bench), bindings)
        before = AnalyticalScheduleBackend().run(compiled.schedule).cycles
        transfers_before = len(compiled.schedule.transfers)
        result = rewrite_schedule(compiled.schedule)
        assert result.changed
        assert len(compiled.schedule.transfers) == transfers_before
        assert AnalyticalScheduleBackend().run(compiled.schedule).cycles == before


class TestPipelineWiring:
    def test_rewrite_variant_is_registered(self):
        assert "rewrite" in pipeline_variants()
        names = get_pipeline("rewrite").pass_names
        assert names.index("rewrite-schedule") == names.index("build-schedule") + 1

    def test_default_pipeline_has_no_rewrite_stage(self):
        assert "rewrite-schedule" not in get_pipeline("default").pass_names

    def test_compile_through_rewrite_variant(self):
        bench = next(b for b in all_benchmarks() if b.name == "tpchq6")
        bindings = bench.bindings(SIZES["tpchq6"], np.random.default_rng(0))
        session = Session()
        plain = session.compile(bench.build(), _meta_config(bench), bindings)
        rewritten = session.compile(
            bench.build(), _meta_config(bench), bindings, pipeline="rewrite"
        )
        # The compilation's schedule is the rewritten one (fewer transfers
        # after coalescing), simulated by both backends...
        assert len(rewritten.schedule.transfers) < len(plain.schedule.transfers)
        assert rewritten.simulate(cycle_model="event").cycles <= plain.simulate(
            cycle_model="event"
        ).cycles
        # ...while the design's cached schedule stays pristine.
        assert len(rewritten.design.schedule().transfers) == len(plain.schedule.transfers)
        # Per-rewrite hit counts and the event delta land in the report.
        record = rewritten.report.record("rewrite-schedule")
        assert record.details["rewrite_hits"]["coalesce-transfers"] > 0
        assert record.details["event_cycles_after"] <= record.details["event_cycles_before"]
        assert "details" in rewritten.report.as_dict()["passes"][0]

    def test_maxj_emits_the_rewritten_structure(self):
        bench = next(b for b in all_benchmarks() if b.name == "tpchq6")
        bindings = bench.bindings(SIZES["tpchq6"], np.random.default_rng(0))
        compiled = Session().compile(
            bench.build(), _meta_config(bench), bindings, pipeline="rewrite"
        )
        kernel = generate_maxj(compiled)
        coalesced = [t.name for t in compiled.schedule.transfers if "+" in t.name]
        assert coalesced
        for name in coalesced:
            assert name in kernel

    def test_rewrite_is_a_dse_gene(self):
        from repro.dse.engine import evaluate_point

        bench = next(b for b in all_benchmarks() if b.name == "tpchq6")
        bindings = bench.bindings(SIZES["tpchq6"], np.random.default_rng(0))
        program = bench.build()
        default_point = DesignPoint.make({"n": 4096}, par=16, metapipelining=True)
        rewrite_point = DesignPoint.make(
            {"n": 4096}, par=16, metapipelining=True, pipeline="rewrite"
        )
        assert rewrite_point.label.endswith("/rewrite")
        plain = evaluate_point(program, bindings, default_point, cycle_model="event")
        optimised = evaluate_point(program, bindings, rewrite_point, cycle_model="event")
        assert optimised.cycles < plain.cycles
        # Area genes untouched: the rewriter trades no resources for speed.
        assert optimised.logic == plain.logic
        assert optimised.bram_bits == plain.bram_bits

    def test_explore_sweeps_the_rewrite_gene(self):
        from repro.dse.engine import explore
        from repro.dse.space import DesignSpace

        space = DesignSpace().extend(
            [
                DesignPoint.make({"n": 4096}, par=16, metapipelining=True),
                DesignPoint.make({"n": 4096}, par=16, metapipelining=True, pipeline="rewrite"),
            ]
        )
        result = explore("tpchq6", sizes=SIZES["tpchq6"], space=space, cycle_model="event")
        labels = {r.label for r in result.evaluated}
        assert any(label.endswith("/rewrite") for label in labels)

    def test_default_space_accepts_rewrite_pipeline(self):
        from repro.dse.space import default_space

        space = default_space({"n": 262144}, pipelines=("default", "rewrite"))
        assert any(point.pipeline == "rewrite" for point in space)
