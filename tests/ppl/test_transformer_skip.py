"""``Transformer`` skips subtrees without its ``kinds`` and changes nothing by it.

Every benchmark's pipelines run twice — once with the skip on and once with
every transformer's ``kinds`` set to ``None`` (visit every node) — and must
produce the same tiled programs and the same ``explore`` results.
"""

import pytest

from repro.apps import all_benchmarks
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import explore
from repro.dse.space import default_space
from repro.ppl import traversal
from repro.ppl.ir import ArrayApply, BinOp, Const, Let, Map, Sym
from repro.ppl.traversal import Transformer
from repro.ppl.types import INDEX
from repro.transforms.cse import _LetCSE
from repro.utils.naming import reset_names

from tests.ppl.test_node_caches import PIPELINES, pipeline_trace


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


def _disable_skip(monkeypatch):
    for cls in _subclasses(Transformer):
        monkeypatch.setattr(cls, "kinds", None)
    # Transformers defined inside functions are created per call.
    monkeypatch.setattr(traversal, "_hook_kinds", lambda cls: None)


def _tiled_hashes(bench, pipeline):
    reset_names()
    return [program.body.structural_hash() for _, program in pipeline_trace(bench, pipeline)]


def _explore(bench, pipeline):
    ANALYSIS_CACHE.clear()
    space = default_space(
        {name: bench.test_sizes[name] for name in bench.tile_sizes},
        pars=(4, 8),
        max_tiles_per_dim=2,
        pipelines=(pipeline,),
    )
    return explore(bench.name, sizes=bench.test_sizes, space=space, seed=0).evaluated


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_skip_changes_no_program_and_no_result(bench, pipeline, monkeypatch):
    skipping = _tiled_hashes(bench, pipeline), _explore(bench, pipeline)
    _disable_skip(monkeypatch)
    visiting = _tiled_hashes(bench, pipeline), _explore(bench, pipeline)
    assert skipping[0] == visiting[0]
    assert skipping[1] and skipping[1] == visiting[1]


def test_subtree_without_the_kinds_comes_back_as_is(monkeypatch):
    i, n = Sym("i", INDEX), Sym("n", INDEX)
    plain = BinOp("+", BinOp("*", i, n), Const(1, INDEX))
    visits = []
    map_field = traversal._map_field
    monkeypatch.setattr(
        traversal, "_map_field", lambda *args: visits.append(args) or map_field(*args)
    )

    class NoReads(Transformer):
        def rewrite_ArrayApply(self, node):
            raise AssertionError("no ArrayApply in this subtree")

    assert NoReads.kinds == {ArrayApply}
    assert NoReads().transform(plain) is plain
    assert _LetCSE.kinds == {Let}
    assert _LetCSE().transform(plain) is plain
    assert visits == []  # returned without visiting a single field
    monkeypatch.setattr(NoReads, "kinds", None)
    assert NoReads().transform(plain) is plain
    assert visits


def test_transform_override_without_kinds_visits_everything():
    class Override(Transformer):
        def transform(self, node):
            return super().transform(node)

    class Catchall(Transformer):
        def rewrite_default(self, node):
            return node

    class Declared(Override):
        kinds = (Map,)

    assert Override.kinds is None
    assert Catchall.kinds is None
    assert Declared.kinds == {Map}
