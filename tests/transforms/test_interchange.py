"""Pattern interchange (Table 3 / Figure 5): structure and semantics."""

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.config import CompileConfig
from repro.ppl import builder as b
from repro.ppl.interp import run_program
from repro.ppl.ir import Let, Map, MultiFold
from repro.ppl.program import Program
from repro.ppl.traversal import collect, find_patterns
from repro.ppl.types import INDEX
from repro.pipeline.passes import PassContext
from repro.transforms.interchange import (
    Interchange,
    interchange,
    interchange_map_of_fold,
    split_and_interchange,
)
from repro.transforms.strip_mining import strip_mine


def _config(**tiles):
    return CompileConfig(tiling=True, tile_sizes=tiles)


def _map_of_strided_fold_program(tile=4):
    """map(m){ i => fold(n/b){ ... sum of x(i, jj+j) ... } } built directly."""
    m = b.sym("m", INDEX)
    n = b.sym("n", INDEX)
    x = b.array_sym("x", 2)

    def row_sum(i):
        return b.fold(
            b.domain(n, strides=[tile]),
            b.flt(0.0),
            lambda jj, acc: b.add(
                acc,
                b.fold(
                    b.domain(b.minimum(tile, b.sub(n, jj))),
                    b.flt(0.0),
                    lambda j, acc2: b.add(acc2, b.apply_array(x, i, b.add(jj, j))),
                ),
            ),
            index_names=["jj"],
        )

    body = b.pmap(b.domain(m), row_sum)
    return Program("rowsum_map_fold", inputs=[x], sizes=[m, n], body=body)


class TestRule1:
    def test_applies_to_map_of_strided_fold(self):
        program = _map_of_strided_fold_program()
        result = interchange_map_of_fold(program.body)
        assert isinstance(result, MultiFold)
        assert result.domain.is_strided
        assert result.meta.get("interchanged") is True
        # The accumulator became a vector over the Map's domain.
        assert len(result.rshape) == 1

    def test_combine_became_a_map(self):
        program = _map_of_strided_fold_program()
        result = interchange_map_of_fold(program.body)
        assert isinstance(result.combine.body, Map)

    def test_semantics_preserved(self, rng):
        program = _map_of_strided_fold_program()
        swapped = program.with_body(interchange_map_of_fold(program.body))
        x = rng.normal(size=(5, 12))
        bindings = {"x": x, "m": 5, "n": 12}
        np.testing.assert_allclose(
            run_program(swapped, bindings), run_program(program, bindings)
        )

    def test_does_not_apply_to_unstrided_fold(self):
        m = b.sym("m", INDEX)
        n = b.sym("n", INDEX)
        x = b.array_sym("x", 2)
        body = b.pmap(
            b.domain(m),
            lambda i: b.fold(
                b.domain(n), b.flt(0.0), lambda j, acc: b.add(acc, b.apply_array(x, i, j))
            ),
        )
        assert interchange_map_of_fold(body) is None

    def test_does_not_apply_when_fold_domain_depends_on_map_index(self):
        m = b.sym("m", INDEX)
        x = b.array_sym("x", 2)
        body = b.pmap(
            b.domain(m),
            lambda i: b.fold(
                b.domain(b.add(i, 1), strides=[2]),
                b.flt(0.0),
                lambda j, acc: b.add(acc, b.apply_array(x, i, j)),
            ),
        )
        assert interchange_map_of_fold(body) is None


class TestGemmInterchange:
    """The Table 3 example: strip-mined matrix multiply, then interchange."""

    def _tiled_gemm(self):
        bench = get_benchmark("gemm")
        program = bench.build()
        strip_mined = strip_mine(program, _config(m=2, n=2, p=2))
        interchanged = interchange(strip_mined, _config(m=2, n=2, p=2))
        return bench, program, strip_mined, interchanged

    def test_rule1_applied(self):
        _, _, strip_mined, interchanged = self._tiled_gemm()
        before = [p for p in find_patterns(strip_mined.body) if p.meta.get("interchanged")]
        after = [p for p in find_patterns(interchanged.body) if p.meta.get("interchanged")]
        assert not before
        assert after, "interchange must fire on strip-mined gemm"

    def test_semantics_preserved(self, rng):
        bench, program, _, interchanged = self._tiled_gemm()
        bindings = bench.bindings({"m": 4, "n": 6, "p": 8}, rng)
        np.testing.assert_allclose(
            run_program(interchanged, bindings),
            run_program(program, bindings),
            rtol=1e-9,
        )

    def test_inner_map_now_inside_strided_fold(self):
        _, _, _, interchanged = self._tiled_gemm()
        swapped = [p for p in find_patterns(interchanged.body) if p.meta.get("interchanged")]
        fold = swapped[0]
        inner_maps = [p for p in find_patterns(fold.value_func.body) if isinstance(p, Map)]
        assert inner_maps, "the output-tile Map must now be nested inside the tile-reduction fold"


class TestKmeansSplitInterchange:
    """The Figure 5 walkthrough: split minDistWithIndex out of the point loop."""

    def _tiled_kmeans(self):
        bench = get_benchmark("kmeans")
        program = bench.build()
        config = _config(n=4, k=2)
        strip_mined = strip_mine(program, config)
        ctx = PassContext(config=config)
        interchanged = Interchange().apply(strip_mined, ctx)
        return bench, program, strip_mined, interchanged, ctx.artifacts["applied_interchanges"]

    def test_split_applied(self):
        _, _, _, interchanged, applied = self._tiled_kmeans()
        assert "split" in applied

    def test_intermediate_vector_created(self):
        _, _, _, interchanged, _ = self._tiled_kmeans()
        lets = collect(interchanged.body, lambda node: isinstance(node, Let))
        split_lets = [
            let for let in lets if isinstance(let.value, MultiFold) and let.value.meta.get("interchanged")
        ]
        assert split_lets, "the split intermediate (minDistWithInds) must be Let-bound"

    def test_semantics_preserved(self, rng):
        bench, program, _, interchanged, _ = self._tiled_kmeans()
        bindings = bench.bindings({"n": 8, "k": 4, "d": 3}, rng)
        np.testing.assert_allclose(
            run_program(interchanged, bindings),
            run_program(program, bindings),
            rtol=1e-9,
        )

    def test_split_respects_budget(self):
        bench = get_benchmark("kmeans")
        program = bench.build()
        config = CompileConfig(tiling=True, tile_sizes={"n": 4, "k": 2}, split_threshold_words=1)
        strip_mined = strip_mine(program, config)
        ctx = PassContext(config=config)
        Interchange().apply(strip_mined, ctx)
        assert "split" not in ctx.artifacts["applied_interchanges"]


class TestSplitHelper:
    def test_returns_none_for_strided_pattern(self):
        bench = get_benchmark("kmeans")
        strip_mined = strip_mine(bench.build(), _config(n=4, k=2))
        outer = strip_mined.body
        # body is a Let(sumsCounts, MultiFold, ...); dig out the strided MultiFold
        patterns = [p for p in find_patterns(strip_mined.body) if p.domain.is_strided]
        assert patterns
        assert split_and_interchange(patterns[0], 10**9) is None


class TestInterchangeOnAllBenchmarks:
    @pytest.mark.parametrize("name", ["outerprod", "sumrows", "gemm", "tpchq6", "gda", "kmeans"])
    def test_semantics_preserved(self, name, rng):
        bench = get_benchmark(name)
        program = bench.build()
        config = CompileConfig(tiling=True, tile_sizes={k: 2 for k in bench.tile_sizes})
        strip_mined = strip_mine(program, config)
        interchanged = interchange(strip_mined, config)
        bindings = bench.bindings(rng=rng)
        np.testing.assert_allclose(
            np.asarray(run_program(interchanged, bindings), dtype=float),
            np.asarray(run_program(program, bindings), dtype=float),
            rtol=1e-9,
        )
