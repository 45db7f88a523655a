"""The composable pass pipeline: composition, instrumentation, memoisation."""

import pytest

from repro.apps import get_benchmark
from repro.config import BASELINE, CompileConfig
from repro.dse.cache import AnalysisCache
from repro.errors import PipelineError
from repro.pipeline import (
    PassContext,
    Pipeline,
    PipelinePass,
    TransformationStage,
    default_pipeline,
    get_pipeline,
    pipeline_variants,
    register_pipeline_variant,
)
from repro.pipeline.variants import variant_signature
from repro.transforms import LetCse, StripMine, VerticalFusion


def _gemm_program():
    return get_benchmark("gemm").build()


def _tiling_config():
    return CompileConfig(tiling=True, tile_sizes=dict(get_benchmark("gemm").tile_sizes))


class NoOpPass(PipelinePass):
    """A pass that returns its input unchanged (still memoisable)."""

    name = "noop"

    def run(self, program, ctx):
        return program

    def cache_key(self, ctx):
        return ()


class TestComposition:
    def test_empty_pipeline_returns_program_unchanged(self):
        program = _gemm_program()
        outcome = Pipeline([], name="empty").run(program, PassContext(config=BASELINE))
        assert outcome.program is program
        assert outcome.report.records == []
        assert outcome.trace == [("input", program)]

    def test_duplicate_pass_names_raise(self):
        with pytest.raises(PipelineError, match="duplicate pass names"):
            Pipeline([TransformationStage(LetCse()), TransformationStage(LetCse())])

    def test_duplicate_names_avoidable_with_explicit_names(self):
        pipeline = Pipeline(
            [TransformationStage(LetCse()), TransformationStage(LetCse(), name="post-cse")]
        )
        assert pipeline.pass_names == ["cse", "post-cse"]

    def test_without_removes_and_preserves_order(self):
        pipeline = default_pipeline().without("fusion", "post-cse")
        assert "fusion" not in pipeline
        assert "post-cse" not in pipeline
        assert pipeline.pass_names[0] == "strip-mine"

    def test_without_unknown_name_raises(self):
        with pytest.raises(PipelineError, match="no pass named"):
            default_pipeline().without("no-such-pass")

    def test_replaced_swaps_in_place(self):
        pipeline = default_pipeline().replaced("cse", NoOpPass("cse"))
        index = pipeline.pass_names.index("cse")
        assert isinstance(pipeline.passes[index], NoOpPass)
        assert len(pipeline) == len(default_pipeline())

    def test_insertion_before_and_after(self):
        pipeline = default_pipeline().inserted_before("fusion", NoOpPass("pre"))
        assert pipeline.pass_names[0] == "pre"
        pipeline = pipeline.inserted_after("fusion", NoOpPass("post"))
        names = pipeline.pass_names
        assert names.index("post") == names.index("fusion") + 1

    def test_editing_returns_new_pipelines(self):
        base = default_pipeline()
        edited = base.without("fusion")
        assert "fusion" in base
        assert len(base) == len(edited) + 1

    def test_signature_distinguishes_orderings(self):
        assert default_pipeline().signature() != default_pipeline().without("cse").signature()
        assert default_pipeline().signature() == default_pipeline().signature()


class TestVariants:
    def test_registry_contains_shipped_variants(self):
        assert {"default", "no-fusion", "no-cse", "late-cleanup"} <= set(pipeline_variants())

    def test_get_pipeline_resolves_names_and_instances(self):
        assert "fusion" not in get_pipeline("no-fusion")
        no_cse = get_pipeline("no-cse")
        assert "cse" not in no_cse and "post-cse" not in no_cse
        custom = Pipeline([TransformationStage(VerticalFusion())], name="mine")
        assert get_pipeline(custom) is custom
        assert get_pipeline(None).pass_names == default_pipeline().pass_names

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError, match="unknown pipeline variant"):
            get_pipeline("no-such-variant")
        with pytest.raises(ValueError):
            variant_signature("no-such-variant")

    def test_registered_variant_resolves_and_invalidates_signature(self):
        register_pipeline_variant(
            "test-strip-only",
            lambda: Pipeline([TransformationStage(StripMine())], name="test-strip-only"),
        )
        try:
            assert "test-strip-only" in pipeline_variants()
            assert variant_signature("test-strip-only") == (
                ("TransformationStage[StripMine]", "strip-mine"),
            )
            register_pipeline_variant(
                "test-strip-only",
                lambda: Pipeline([TransformationStage(VerticalFusion())], name="test-strip-only"),
                replace=True,
            )
            assert variant_signature("test-strip-only") == (
                ("TransformationStage[VerticalFusion]", "fusion"),
            )
        finally:
            from repro.pipeline import variants

            variants._VARIANTS.pop("test-strip-only", None)
            variants._SIGNATURES.pop("test-strip-only", None)

    def test_duplicate_registration_is_rejected(self):
        register_pipeline_variant(
            "test-dup", lambda: Pipeline([TransformationStage(StripMine())], name="test-dup")
        )
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_pipeline_variant(
                    "test-dup",
                    lambda: Pipeline([TransformationStage(VerticalFusion())], name="test-dup"),
                )
            # Shipped names are protected too.
            with pytest.raises(ValueError, match="already registered"):
                register_pipeline_variant(
                    "default",
                    lambda: Pipeline([TransformationStage(VerticalFusion())], name="default"),
                )
        finally:
            from repro.pipeline import variants

            variants._VARIANTS.pop("test-dup", None)
            variants._SIGNATURES.pop("test-dup", None)

    def test_auto_prefix_is_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            register_pipeline_variant(
                "auto:fusion",
                lambda: Pipeline([TransformationStage(VerticalFusion())], name="auto:fusion"),
            )


class TestInstrumentation:
    def test_report_records_every_pass_with_node_counts(self):
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        ctx = PassContext(config=_tiling_config(), cache=cache)
        outcome = pipeline.run(_gemm_program(), ctx)
        report = outcome.report
        assert [record.name for record in report.records] == pipeline.pass_names
        assert all(record.nodes_before > 0 and record.nodes_after > 0 for record in report.records)
        assert report.record("strip-mine").node_delta > 0
        assert report.record("strip-mine").changed
        assert report.total_seconds >= sum(r.seconds for r in report.records) * 0.5
        assert "strip-mine" in report.table()

    def test_trace_keeps_intermediate_programs(self):
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        outcome = pipeline.run(_gemm_program(), PassContext(config=_tiling_config(), cache=cache))
        strip_mined = outcome.stage("strip-mine")
        assert strip_mined is not None
        assert outcome.stage("interchange") is not None
        assert outcome.stage("no-such-pass") is None


class TestMemoisation:
    def test_second_run_hits_every_transform_pass(self):
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        config = _tiling_config()
        program = _gemm_program()
        first = pipeline.run(program, PassContext(config=config, cache=cache))
        second = pipeline.run(program, PassContext(config=config, cache=cache))
        assert all(record.cached for record in second.report.records)
        assert second.program.body.structural_hash() == first.program.body.structural_hash()

    def test_structurally_identical_pass_output_still_hits_downstream(self):
        """A no-op pass inserted mid-pipeline must not break downstream hits."""
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        config = _tiling_config()
        program = _gemm_program()
        pipeline.run(program, PassContext(config=config, cache=cache))

        edited = pipeline.inserted_before("strip-mine", NoOpPass())
        outcome = edited.run(program, PassContext(config=config, cache=cache))
        downstream = [record for record in outcome.report.records if record.name != "noop"]
        assert all(record.cached for record in downstream)

    def test_repeated_cleanup_shares_entries_across_positions(self):
        """post-cse hits the memo entry cse created for the identical input."""
        cache = AnalysisCache()
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        outcome = pipeline.run(
            _gemm_program(), PassContext(config=_tiling_config(), cache=cache)
        )
        records = {record.name: record for record in outcome.report.records}
        # interchange leaves gemm unchanged on this config, so the second
        # cleanup sees the programs the first cleanup already processed.
        if not records["interchange"].changed:
            assert records["post-cse"].cached or records["post-code-motion"].cached

    def test_disabled_cache_recomputes(self):
        cache = AnalysisCache()
        cache.enabled = False
        pipeline = default_pipeline().without("generate-hardware", "build-schedule", "estimate-area")
        config = _tiling_config()
        program = _gemm_program()
        pipeline.run(program, PassContext(config=config, cache=cache))
        second = pipeline.run(program, PassContext(config=config, cache=cache))
        assert not any(record.cached for record in second.report.records)

    def test_different_tile_sizes_do_not_share_strip_mining(self):
        cache = AnalysisCache()
        pipeline = Pipeline([TransformationStage(StripMine())], name="strip")
        program = _gemm_program()
        pipeline.run(program, PassContext(config=_tiling_config(), cache=cache))
        other = CompileConfig(tiling=True, tile_sizes={"m": 32, "n": 32, "p": 32})
        outcome = pipeline.run(program, PassContext(config=other, cache=cache))
        assert not outcome.report.records[0].cached
