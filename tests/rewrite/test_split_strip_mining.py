"""Split strip-mining: the first framework-only transformation."""

import numpy as np
import pytest

from repro.apps import all_benchmarks
from repro.config import BASELINE, CompileConfig
from repro.dse.cache import AnalysisCache
from repro.pipeline import Session
from repro.pipeline.passes import PassContext
from repro.ppl.interp import run_program
from repro.ppl.traversal import walk
from repro.rewrite import DEFAULT_ORDERING, SplitStripMining, ordering_name
from repro.transforms import StripMine, TileCopies, VerticalFusion

#: Small sizes keep the interpreter runs fast; every dimension still spans
#: several tiles so strip mining (and the split) fires everywhere.
SMALL = {
    "outerprod": {"m": 64, "n": 64},
    "sumrows": {"m": 128, "n": 32},
    "gemm": {"m": 32, "n": 32, "p": 32},
    "tpchq6": {"n": 4096},
    "gda": {"n": 256, "d": 8},
    "kmeans": {"n": 256, "k": 4, "d": 8},
}

SPLIT_ORDERING = (
    DEFAULT_ORDERING[:3] + ("split-strip-mine",) + DEFAULT_ORDERING[3:]
)


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


def _flatten(value):
    if isinstance(value, tuple):
        return [np.asarray(v) for v in value]
    return [np.asarray(value)]


class TestConstruction:
    def test_factor_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="split factor"):
            SplitStripMining(factor=1)

    def test_signature_embeds_the_factor(self):
        assert SplitStripMining(factor=4).signature() != SplitStripMining().signature()


class TestMatching:
    def test_matches_inner_tile_patterns_only(self):
        bench = _bench("gemm")
        ctx = _ctx(_meta_config(bench))
        program = bench.build()
        split = SplitStripMining()
        assert not split.matches(program, ctx)  # nothing tiled yet
        stripped = StripMine().apply(program, ctx)
        sites = split.matches(stripped, ctx)
        assert sites
        assert all(m.node.meta.get("strip_level") == "inner" for m in sites)

    def test_indivisible_tiles_do_not_match(self):
        bench = _bench("gemm")
        ctx = _ctx(_meta_config(bench))
        stripped = StripMine().apply(bench.build(), ctx)
        # The benchmark tiles are powers of two: a factor that does not
        # divide them finds no site.
        assert not SplitStripMining(factor=3).matches(stripped, ctx)

    def test_split_nests_never_rematch(self):
        bench = _bench("gemm")
        ctx = _ctx(_meta_config(bench))
        split = SplitStripMining()
        once = split.apply(StripMine().apply(bench.build(), ctx), ctx)
        assert split.last_applied > 0
        again = split.apply(once, ctx)
        assert again is once and split.last_applied == 0


class TestSemantics:
    def test_split_tags_a_three_level_nest(self):
        bench = _bench("gemm")
        ctx = _ctx(_meta_config(bench))
        split = SplitStripMining()
        program = split.apply(StripMine().apply(bench.build(), ctx), ctx)
        levels = {
            node.meta.get("split_level")
            for node in walk(program.body)
            if hasattr(node, "meta") and "split_level" in getattr(node, "meta", {})
        }
        assert levels == {"outer", "inner"}
        outers = [
            n
            for n in walk(program.body)
            if getattr(n, "meta", {}).get("split_level") == "outer"
        ]
        assert all(n.meta["split_factor"] == 2 for n in outers)
        assert all("sub_tile_sizes" in n.meta for n in outers)

    @pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
    def test_interpreter_equality_on_every_benchmark(self, bench):
        bindings = bench.bindings(SMALL[bench.name], np.random.default_rng(0))
        config = _meta_config(bench)
        ctx = _ctx(config)
        base = TileCopies().apply(
            StripMine().apply(VerticalFusion().apply(bench.build(), ctx), ctx), ctx
        )
        split = SplitStripMining().apply(base, ctx)
        assert split is not base
        # Splitting a fold re-groups its accumulation (as strip mining
        # itself does versus the untiled program): equality up to
        # floating-point reassociation, exact for everything else.
        for expected, actual in zip(
            _flatten(run_program(base, bindings)), _flatten(run_program(split, bindings))
        ):
            np.testing.assert_allclose(expected, actual, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
    def test_full_compile_through_the_split_ordering(self, bench):
        bindings = bench.bindings(SMALL[bench.name], np.random.default_rng(0))
        config = _meta_config(bench)
        program = bench.build()
        base = Session().compile(program, config, bindings)
        split = Session().compile(
            program, config, bindings, pipeline=ordering_name(SPLIT_ORDERING)
        )
        assert split.report.record("split-strip-mine").changed
        for expected, actual in zip(
            _flatten(run_program(base.program, bindings)),
            _flatten(run_program(split.program, bindings)),
        ):
            np.testing.assert_allclose(expected, actual, rtol=1e-9, atol=1e-12)
        # The deeper nest prices on both cycle backends without error.
        assert split.simulate(cycle_model="analytical").cycles > 0
        assert split.simulate(cycle_model="event").cycles > 0

    def test_cost_delta_reports_growth_and_sites(self):
        bench = _bench("gemm")
        ctx = _ctx(_meta_config(bench))
        stripped = StripMine().apply(bench.build(), ctx)
        delta = SplitStripMining().cost_delta(stripped, ctx)
        assert delta.sites > 0
        assert delta.ir_nodes > 0  # a deeper nest is strictly bigger
