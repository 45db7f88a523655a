"""The fusion, CSE and code-motion transformations."""

import numpy as np
import pytest

from repro.apps import get_benchmark
from repro.config import CompileConfig
from repro.ppl import builder as b
from repro.ppl.interp import run_program
from repro.ppl.ir import ArrayCopy, Let, Map, MultiFold
from repro.ppl.program import Program
from repro.ppl.traversal import collect, count_nodes, find_patterns
from repro.ppl.types import INDEX
from repro.transforms.code_motion import InvariantCodeMotion
from repro.transforms.cse import LetCse
from repro.transforms.fusion import VerticalFusion
from repro.transforms.strip_mining import strip_mine


class TestFusion:
    def _map_of_map_program(self):
        n = b.sym("n", INDEX)
        x = b.array_sym("x", 1)
        doubled = b.pmap(b.domain(n), lambda i: b.mul(b.apply_array(x, i), b.flt(2.0)))
        body = b.let(
            "doubled",
            doubled,
            lambda dsym: b.pmap(b.domain(n), lambda i: b.add(b.apply_array(dsym, i), b.flt(1.0))),
        )
        return Program("map_map", inputs=[x], sizes=[n], body=body)

    def test_vertical_fusion_removes_intermediate(self):
        program = self._map_of_map_program()
        fused = VerticalFusion().apply(program)
        assert not collect(fused.body, lambda node: isinstance(node, Let))
        assert len(find_patterns(fused.body)) == 1

    def test_fusion_preserves_semantics(self, rng):
        program = self._map_of_map_program()
        fused = VerticalFusion().apply(program)
        x = rng.normal(size=9)
        np.testing.assert_allclose(
            run_program(fused, {"x": x, "n": 9}),
            run_program(program, {"x": x, "n": 9}),
        )

    def test_map_into_fold_fusion(self, rng):
        n = b.sym("n", INDEX)
        x = b.array_sym("x", 1)
        squares = b.pmap(b.domain(n), lambda i: b.square(b.apply_array(x, i)))
        body = b.let(
            "squares",
            squares,
            lambda sq: b.fold(b.domain(n), b.flt(0.0), lambda i, acc: b.add(acc, b.apply_array(sq, i))),
        )
        program = Program("sumsq", inputs=[x], sizes=[n], body=body)
        fused = VerticalFusion().apply(program)
        assert len(find_patterns(fused.body)) == 1
        x_val = rng.normal(size=11)
        assert run_program(fused, {"x": x_val, "n": 11}) == pytest.approx((x_val**2).sum())

    def test_fusion_skips_sliced_consumers(self):
        n = b.sym("n", INDEX)
        x = b.array_sym("x", 2)
        rows = b.pmap(b.domain(n), lambda i: b.apply_array(x, i, 0))
        body = b.let(
            "rows",
            rows,
            lambda r: b.fold(b.domain(n), b.flt(0.0), lambda i, acc: b.add(acc, b.apply_array(r, 0))),
        )
        program = Program("keep", inputs=[x], sizes=[n], body=body)
        fused = VerticalFusion().apply(program)
        # Consumer reads a fixed element, not the loop index; fusion still
        # applies because the read is an element read, result stays correct.
        x_val = np.arange(12.0).reshape(4, 3)
        np.testing.assert_allclose(
            run_program(fused, {"x": x_val, "n": 4}),
            run_program(program, {"x": x_val, "n": 4}),
        )

    def test_benchmarks_already_fused(self):
        for name in ["gemm", "kmeans", "gda"]:
            program = get_benchmark(name).build()
            fused = VerticalFusion().apply(program)
            assert count_nodes(fused.body) == count_nodes(program.body)


class TestCSE:
    def test_duplicate_lets_merged(self):
        n = b.sym("n", INDEX)
        x = b.array_sym("x", 1)
        inner = b.pmap(b.domain(n), lambda i: b.apply_array(x, i))

        copy1 = b.copy_tile(x, offsets=(0,), sizes=(n,))
        copy2 = b.copy_tile(x, offsets=(0,), sizes=(n,))
        t1 = b.sym("t1", copy1.ty)
        t2 = b.sym("t2", copy2.ty)
        from repro.ppl.ir import Let

        body = Let(
            t1,
            copy1,
            Let(
                t2,
                copy2,
                b.fold(
                    b.domain(n),
                    b.flt(0.0),
                    lambda i, acc: b.add(acc, b.add(b.apply_array(t1, i), b.apply_array(t2, i))),
                ),
            ),
        )
        program = Program("dup", inputs=[x], sizes=[n], body=body)
        after = LetCse().apply(program)
        copies = collect(after.body, lambda node: isinstance(node, ArrayCopy))
        assert len(copies) == 1

    def test_dead_let_removed(self):
        n = b.sym("n", INDEX)
        x = b.array_sym("x", 1)
        unused = b.copy_tile(x, offsets=(0,), sizes=(n,))
        used_body = b.fold(b.domain(n), b.flt(0.0), lambda i, acc: b.add(acc, b.apply_array(x, i)))
        from repro.ppl.ir import Let

        body = Let(b.sym("dead", unused.ty), unused, used_body)
        program = Program("dead", inputs=[x], sizes=[n], body=body)
        after = LetCse().apply(program)
        assert not collect(after.body, lambda node: isinstance(node, Let))

    def test_cse_preserves_semantics(self, rng):
        bench = get_benchmark("sumrows")
        program = bench.build()
        tiled = strip_mine(program, CompileConfig(tiling=True, tile_sizes={"m": 2, "n": 2}))
        after = LetCse().apply(tiled)
        bindings = bench.bindings(rng=rng)
        np.testing.assert_allclose(run_program(after, bindings), run_program(program, bindings))


class TestCodeMotion:
    def test_invariant_let_hoisted_out_of_map(self):
        n = b.sym("n", INDEX)
        m = b.sym("m", INDEX)
        x = b.array_sym("x", 1)
        y = b.array_sym("y", 1)

        def body_fn(i):
            copy = b.copy_tile(y, offsets=(0,), sizes=(m,))
            return b.let(
                "yTile", copy, lambda t: b.add(b.apply_array(x, i), b.apply_array(t, 0))
            )

        body = b.pmap(b.domain(n), body_fn)
        program = Program("hoistable", inputs=[x, y], sizes=[n, m], body=body)
        hoisted = InvariantCodeMotion().apply(program)
        assert isinstance(hoisted.body, Let), "the invariant tile copy must move out of the Map"
        assert isinstance(hoisted.body.body, Map)

    def test_dependent_let_not_hoisted(self):
        n = b.sym("n", INDEX)
        x = b.array_sym("x", 2)

        def body_fn(i):
            copy = b.copy_tile(x, offsets=(i, 0), sizes=(1, None))
            return b.let("rowTile", copy, lambda t: b.apply_array(t, 0, 0))

        body = b.pmap(b.domain(n), body_fn)
        program = Program("dependent", inputs=[x], sizes=[n], body=body)
        hoisted = InvariantCodeMotion().apply(program)
        assert isinstance(hoisted.body, Map), "index-dependent copies must stay inside the Map"

    def test_code_motion_preserves_semantics(self, rng):
        bench = get_benchmark("gemm")
        program = bench.build()
        config = CompileConfig(tiling=True, tile_sizes={"m": 2, "n": 2, "p": 2})
        tiled = strip_mine(program, config)
        after = InvariantCodeMotion().apply(LetCse().apply(tiled))
        bindings = bench.bindings(rng=rng)
        np.testing.assert_allclose(
            run_program(after, bindings), run_program(program, bindings), rtol=1e-9
        )
