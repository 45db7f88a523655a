"""The structural facts cached on IR nodes equal a from-scratch recomputation.

``Node.children``, ``Node.free_syms``, ``Node.node_count`` and
``Node.subtree_kinds`` are computed once per node and cached on it.  Every
program of every benchmark's pipeline trace, and random small expression
trees, are checked against references computed here straight from
``_fields``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_benchmarks
from repro.config import CompileConfig
from repro.dse.cache import AnalysisCache
from repro.pipeline import PassContext, get_pipeline
from repro.ppl.ir import (
    ArrayApply,
    BinOp,
    Cmp,
    Const,
    Domain,
    Lambda,
    Let,
    MakeTuple,
    Map,
    Node,
    Select,
    Sym,
    UnaryOp,
)
from repro.ppl.traversal import count_nodes, free_syms
from repro.ppl.types import INDEX

PIPELINES = ("default", "rewrite", "no-fusion")


# -- references, straight from ``_fields`` ------------------------------------


def ref_children(node):
    kids = []
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, Node):
            kids.append(value)
        elif isinstance(value, tuple):
            kids.extend(v for v in value if isinstance(v, Node))
    return kids


def ref_free(node, bound=frozenset()):
    """Top-down: a symbol is free unless an enclosing Lambda or Let binds it."""
    if isinstance(node, Sym):
        return set() if node in bound else {node}
    if isinstance(node, Lambda):
        return ref_free(node.body, bound | set(node.params))
    if isinstance(node, Let):
        return ref_free(node.value, bound) | ref_free(node.body, bound | {node.sym})
    out = set()
    for child in ref_children(node):
        out |= ref_free(child, bound)
    return out


def ref_count(node):
    return 1 + sum(ref_count(child) for child in ref_children(node))


def ref_kinds(node):
    kinds = {type(node)}
    for child in ref_children(node):
        kinds |= ref_kinds(child)
    return kinds


def ref_nodes(root):
    """Every distinct node object of a tree, without the cached children."""
    seen, todo = {}, [root]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(ref_children(node))
    return list(seen.values())


def assert_caches_match(root):
    nodes = ref_nodes(root)
    # Warm every cache first (bottom-up from the root), then read them back.
    root.free_syms(), root.node_count(), root.subtree_kinds()
    for node in nodes:
        children = node.children()
        assert isinstance(children, tuple)
        assert len(children) == len(ref_children(node))
        assert all(a is b for a, b in zip(children, ref_children(node)))
        assert node.children() is children
        assert node.free_syms() == ref_free(node)
        assert free_syms(node) == ref_free(node)
        assert node.node_count() == count_nodes(node) == ref_count(node)
        assert node.subtree_kinds() == ref_kinds(node)


def _tiled_config(bench):
    tiles = {}
    for name in bench.tile_sizes:
        size = bench.test_sizes[name]
        tiles[name] = size // 2 if size % 2 == 0 else size
    return CompileConfig(tiling=True, metapipelining=True, tile_sizes=tiles)


def pipeline_trace(bench, pipeline):
    bindings = bench.bindings(bench.test_sizes, np.random.default_rng(0))
    ctx = PassContext(
        config=_tiled_config(bench), bindings=bindings, cache=AnalysisCache()
    )
    return get_pipeline(pipeline).run(bench.build(), ctx).trace


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_pipeline_trace_caches_match_reference(bench, pipeline):
    trace = pipeline_trace(bench, pipeline)
    assert len(trace) > 1
    for _, program in trace:
        assert_caches_match(program.body)


def test_let_and_lambda_bind_their_symbols():
    x, y, i = Sym("x", INDEX), Sym("y", INDEX), Sym("i", INDEX)
    let = Let(x, y + 1, x * y)
    assert let.free_syms() == {y}
    func = Lambda((i,), i + x)
    assert func.free_syms() == {x}
    shared = x + 1
    twice = BinOp("+", shared, shared)
    assert twice.node_count() == 7  # counted per occurrence, like a walk
    assert twice.subtree_kinds() == {BinOp, Sym, Const}


# -- random small expression trees --------------------------------------------

SYMS = tuple(Sym(name, INDEX) for name in ("a", "b", "c"))


def _extend(children):
    sym = st.sampled_from(SYMS)
    return st.one_of(
        st.builds(lambda l, r: BinOp("+", l, r), children, children),
        st.builds(lambda e: BinOp("*", e, e), children),  # shared subtree
        st.builds(lambda e: UnaryOp("neg", e), children),
        st.builds(lambda c, t, f: Select(Cmp("<", c, t), t, f), children, children, children),
        st.builds(Let, sym, children, children),
        st.builds(
            lambda p, body, index: ArrayApply(
                Map(Domain((Const(4, INDEX),)), Lambda((p,), body)), (index,)
            ),
            sym,
            children,
            children,
        ),
    )


def _index_exprs():
    leaves = st.one_of(
        st.sampled_from(SYMS), st.integers(0, 3).map(lambda v: Const(v, INDEX))
    )
    exprs = st.recursive(leaves, _extend, max_leaves=12)
    return st.one_of(exprs, st.builds(lambda l, r: MakeTuple((l, r)), exprs, exprs))


@settings(max_examples=120, deadline=None)
@given(_index_exprs())
def test_random_trees_caches_match_reference(expr):
    assert_caches_match(expr)
