"""What the derived node caches and the preload-plan memo promise.

* Derived caches stay out of pickles: warming them does not change the
  pickled bytes, and an unpickled node recomputes equal values.
* ``GenerationShared.preload_plan`` walks the IR once per distinct tiled
  body when the analysis cache is on, and on every point when it is off.
"""

import pickle

import pytest

from repro.apps import get_benchmark
from repro.dse.cache import ANALYSIS_CACHE
from repro.dse.engine import explore
from repro.dse.space import default_space
from repro.hw.generation import GenerationShared
from repro.ppl.ir import DERIVED_CACHES
from repro.ppl.traversal import walk

from tests.ppl.test_node_caches import pipeline_trace, ref_children


@pytest.fixture(autouse=True)
def _fresh_cache():
    ANALYSIS_CACHE.clear()
    yield
    ANALYSIS_CACHE.clear()


def _tiled(name):
    """The last program of the default pipeline's trace, as the disk store holds it."""
    return pipeline_trace(get_benchmark(name), "default")[-1][1]


def _warm(program):
    body = program.body
    body.free_syms(), body.node_count(), body.subtree_kinds()
    return list(walk(body))


@pytest.mark.parametrize("name", ["gemm", "kmeans"])
def test_warming_derived_caches_leaves_the_pickle_unchanged(name):
    program = _tiled(name)
    program.body.structural_hash()  # the hash is persisted on purpose
    before = pickle.dumps(program)
    nodes = _warm(program)
    assert all(DERIVED_CACHES & set(vars(node)) for node in nodes)
    assert pickle.dumps(program) == before


def _preorder(node):
    """Pre-order nodes read straight from ``_fields`` (fills no cache)."""
    out, todo = [], [node]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(reversed(ref_children(current)))
    return out


def test_unpickled_nodes_recompute_equal_values():
    program = _tiled("kmeans")
    _warm(program)
    original = _preorder(program.body)
    copied = _preorder(pickle.loads(pickle.dumps(program)).body)
    assert len(copied) == len(original)
    assert not any(DERIVED_CACHES & set(vars(new)) for new in copied)
    for old, new in zip(original, copied):
        assert new.structural_hash() == old.structural_hash()
        assert len(new.children()) == len(old.children())
        assert sorted(s.name for s in new.free_syms()) == sorted(
            s.name for s in old.free_syms()
        )
        assert new.node_count() == old.node_count()
        assert new.subtree_kinds() == old.subtree_kinds()


def test_pipeline_node_counts_stay_out_of_the_pickle():
    program = _tiled("gemm")
    assert "_node_count" in vars(program.body)  # the pipeline report counted it
    assert "_node_count" not in program.body.__getstate__()
    assert "_node_count" not in vars(pickle.loads(pickle.dumps(program.body)))


def _record_preload_walks(monkeypatch):
    """Body hashes of every plan request and of every IR walk behind one."""
    requests, walks = [], []
    request, read = GenerationShared.preload_plan, GenerationShared._read_uncopied

    def recording_request(self):
        if self._preload_plan is None:
            requests.append(self.program.body.structural_hash())
        return request(self)

    def recording_read(self, candidates):
        walks.append(self.program.body.structural_hash())
        return read(self, candidates)

    monkeypatch.setattr(GenerationShared, "preload_plan", recording_request)
    monkeypatch.setattr(GenerationShared, "_read_uncopied", recording_read)
    return requests, walks


#: Small enough that every input is a preload candidate, large enough for
#: several tilings.
GEMM_SIZES = {"m": 32, "n": 32, "p": 32}


def _explore_gemm():
    space = default_space(GEMM_SIZES, pars=(4, 8), max_tiles_per_dim=2)
    return explore("gemm", sizes=GEMM_SIZES, space=space, seed=0)


def test_preload_plan_walks_once_per_tiled_body(monkeypatch):
    requests, walks = _record_preload_walks(monkeypatch)
    _explore_gemm()
    assert len(requests) > len(set(requests)) > 1
    assert sorted(walks) == sorted(set(requests))


def test_preload_plan_walks_every_point_with_the_cache_disabled(monkeypatch):
    requests, walks = _record_preload_walks(monkeypatch)
    with ANALYSIS_CACHE.disabled():
        exploration = _explore_gemm()
    assert walks == requests
    tiled = [r.point for r in exploration.evaluated if r.point.tile_sizes]
    assert len(walks) == len(tiled) > len({point.tile_sizes for point in tiled})
