"""The transformation framework: protocol, matching, parity, invariants."""

import numpy as np
import pytest

from repro.analysis.traffic import schedule_traffic
from repro.apps import all_benchmarks
from repro.config import BASELINE, CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, AnalysisCache
from repro.pipeline import Session
from repro.pipeline.passes import (
    BuildScheduleStage,
    EstimateAreaStage,
    GenerateHardwareStage,
    PassContext,
    TransformationStage,
)
from repro.pipeline.pipeline import Pipeline
from repro.ppl.ir import Let, Map
from repro.ppl.traversal import structurally_equal
from repro.rewrite import CostDelta, Match, ShapePattern, find_matches, ir_size
from repro.schedule.rewrite import (
    CoalesceTransfers,
    FlattenDegenerateGroups,
    RebalanceStages,
    ScheduleRewrite,
)
from repro.transforms import (
    Interchange,
    InvariantCodeMotion,
    LetCse,
    StripMine,
    TileCopies,
    TilingDriver,
    VerticalFusion,
)

SIZES = {
    "outerprod": {"m": 2048, "n": 2048},
    "sumrows": {"m": 4096, "n": 128},
    "gemm": {"m": 256, "n": 256, "p": 256},
    "tpchq6": {"n": 262144},
    "gda": {"n": 4096, "d": 16},
    "kmeans": {"n": 8192, "k": 16, "d": 16},
}


def _bench(name):
    return next(b for b in all_benchmarks() if b.name == name)


def _meta_config(bench):
    return CompileConfig(
        tiling=True,
        metapipelining=True,
        tile_sizes=dict(bench.tile_sizes),
        par_factors=dict(bench.par_factors),
    )


def _ctx(config):
    return PassContext(config=config, cache=AnalysisCache())


def _compiled(name, pipeline=None):
    bench = _bench(name)
    bindings = bench.bindings(SIZES[name], np.random.default_rng(0))
    return Session().compile(
        bench.build(), _meta_config(bench), bindings, pipeline=pipeline
    )


class TestShapePattern:
    def test_kind_and_guard_filtering(self):
        program = _bench("gemm").build()
        lets = ShapePattern(kinds=(Let,))
        maps = ShapePattern(kinds=(Map,), where=lambda n: not n.domain.is_strided)
        from repro.ppl.traversal import walk

        nodes = list(walk(program.body))
        let_matches = find_matches(nodes, lets)
        map_matches = find_matches(nodes, maps)
        assert all(isinstance(m.node, Let) for m in let_matches)
        assert all(isinstance(m.node, Map) for m in map_matches)
        assert all(not m.node.domain.is_strided for m in map_matches)

    def test_match_payload_is_private_scratch(self):
        match = Match(node=object())
        match.payload["plans"] = [1, 2]
        assert match.payload["plans"] == [1, 2]


class TestPplMatching:
    def test_strip_mine_matches_only_under_tiling(self):
        bench = _bench("gemm")
        program = bench.build()
        tiled = StripMine().matches(program, _ctx(_meta_config(bench)))
        untiled = StripMine().matches(program, _ctx(BASELINE))
        assert tiled and not untiled

    def test_tile_copies_matches_only_after_strip_mining(self):
        bench = _bench("gemm")
        ctx = _ctx(_meta_config(bench))
        program = bench.build()
        assert not TileCopies().matches(program, ctx)
        stripped = StripMine().apply(program, ctx)
        assert TileCopies().matches(stripped, ctx)

    def test_fusion_matches_a_let_bound_map_producer(self):
        bench = _bench("outerprod")
        program = bench.build()
        ctx = _ctx(_meta_config(bench))
        sites = VerticalFusion().matches(program, ctx)
        fused = VerticalFusion().apply(program, ctx)
        # Sites found exactly when applying the rewrite changes the program.
        assert bool(sites) == (fused is not program)

    def test_cleanup_transforms_match_where_their_passes_fire(self):
        bench = _bench("gemm")
        ctx = _ctx(_meta_config(bench))
        program = TileCopies().apply(
            StripMine().apply(VerticalFusion().apply(bench.build(), ctx), ctx), ctx
        )
        for t in (LetCse(), InvariantCodeMotion()):
            changed = t.apply(program, ctx) is not program
            assert bool(t.matches(program, ctx)) == changed

    def test_interchange_match_records_the_rule(self):
        bench = _bench("gemm")
        ctx = _ctx(_meta_config(bench))
        program = bench.build()
        for t in (
            VerticalFusion(),
            StripMine(),
            TileCopies(),
            LetCse(),
            InvariantCodeMotion(),
        ):
            program = t.apply(program, ctx)
        sites = Interchange().matches(program, ctx)
        assert sites and all(m.payload["rule"] in ("rule1", "split") for m in sites)


class TestCostDelta:
    def test_ppl_cost_delta_reports_ir_size_change(self):
        bench = _bench("gemm")
        ctx = _ctx(_meta_config(bench))
        program = bench.build()
        delta = StripMine().cost_delta(program, ctx)
        assert delta.sites > 0
        assert delta.ir_nodes == ir_size(StripMine().apply(program, ctx).body) - ir_size(
            program.body
        )
        assert delta.cycles is None  # unknown pre-hardware, not zero

    def test_no_site_cost_delta_is_empty(self):
        bench = _bench("gemm")
        delta = StripMine().cost_delta(bench.build(), _ctx(BASELINE))
        assert delta.sites == 0 and delta.ir_nodes == 0

    def test_schedule_cost_delta_prices_the_closed_forms(self):
        schedule = _compiled("tpchq6").schedule
        ctx = _ctx(_meta_config(_bench("tpchq6")))
        delta = CoalesceTransfers().cost_delta(schedule, ctx)
        # Coalescing merges transfers: cycles improve, traffic is preserved.
        assert delta.improves_cycles
        assert delta.traffic_bytes == 0
        assert delta.sites > 0
        assert set(delta.as_dict()) == {
            "cycles",
            "area_logic",
            "traffic_bytes",
            "ir_nodes",
            "sites",
        }

    def test_improves_cycles_flag(self):
        assert CostDelta(cycles=-1.0).improves_cycles
        assert not CostDelta(cycles=0.0).improves_cycles
        assert not CostDelta().improves_cycles


class TestScheduleTransformations:
    def test_apply_never_mutates_the_input_schedule(self):
        schedule = _compiled("tpchq6").schedule
        ctx = _ctx(_meta_config(_bench("tpchq6")))
        transfers_before = len(schedule.transfers)
        rewritten, details = CoalesceTransfers().apply_schedule(schedule, ctx)
        assert len(schedule.transfers) == transfers_before
        assert len(rewritten.transfers) < transfers_before
        assert details["rewrite_hits"]["coalesce-transfers"] > 0
        assert details["rewrite_rounds"] >= 1

    def test_verify_rewrite_guards_traffic(self):
        schedule = _compiled("tpchq6").schedule
        ctx = _ctx(_meta_config(_bench("tpchq6")))
        before = schedule_traffic(schedule)
        for t in (FlattenDegenerateGroups(), CoalesceTransfers(), RebalanceStages()):
            rewritten, _ = t.apply_schedule(schedule, ctx)
            after = schedule_traffic(rewritten)
            assert after.read_bytes == before.read_bytes
            assert after.write_bytes == before.write_bytes

    def test_composite_reports_its_details(self):
        compiled = _compiled("tpchq6", pipeline="rewrite")
        record = compiled.report.record("rewrite-schedule")
        assert {
            "rewrite_hits",
            "rewrite_rounds",
            "balance_factor",
            "cost_source",
            "event_cycles_before",
            "event_cycles_after",
        } <= set(record.details)

    def test_composite_signature_embeds_knobs(self):
        assert "bf=auto" in ScheduleRewrite(
            balance_factor="auto", cost_source="event"
        ).signature()
        assert "cs=event" in ScheduleRewrite(cost_source="event").signature()


class TestTransformationStageParity:
    """The default pipeline matches the hand-written TilingDriver flow."""

    @pytest.mark.parametrize("name", ["gemm", "tpchq6", "kmeans"])
    def test_program_and_area_parity_on_benchmarks(self, name):
        bench = _bench(name)
        config = _meta_config(bench)
        bindings = bench.bindings(SIZES[name], np.random.default_rng(0))
        # One source program for both flows: fresh symbol names per
        # build() would defeat the structural comparison.
        program = bench.build()
        terminals = Pipeline(
            [GenerateHardwareStage(), BuildScheduleStage(), EstimateAreaStage()],
            name="terminals-only",
        )
        # Uncached: a memoised result from an earlier build of the same
        # benchmark would hold that build's input symbols.
        with ANALYSIS_CACHE.disabled():
            reference = TilingDriver(config).run(program).tiled
            framework = Session().compile(program, config, bindings)
            by_hand = Session().compile(reference, config, bindings, pipeline=terminals)
        assert structurally_equal(reference.body, framework.tiled_program.body)
        assert by_hand.area.total == framework.area.total
        assert (
            by_hand.simulate(cycle_model="analytical").cycles
            == framework.simulate(cycle_model="analytical").cycles
        )

    def test_stage_skips_ppl_transform_on_untiled_config(self):
        stage = TransformationStage(StripMine())
        program = _bench("gemm").build()
        assert stage.run(program, _ctx(BASELINE)) is program

    def test_stage_cache_key_varies_with_tiling_and_config(self):
        bench = _bench("gemm")
        stage = TransformationStage(StripMine())
        tiled_key = stage.cache_key(_ctx(_meta_config(bench)))
        untiled_key = stage.cache_key(_ctx(BASELINE))
        assert tiled_key != untiled_key
        assert stage.cache_key(_ctx(_meta_config(bench))) == tiled_key

    def test_schedule_stage_is_never_memoised(self):
        stage = TransformationStage(CoalesceTransfers())
        assert stage.cache_key(_ctx(_meta_config(_bench("gemm")))) is None
