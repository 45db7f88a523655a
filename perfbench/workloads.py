"""The benchmark's workloads, shared by ``run.py`` and its phase processes.

Every workload runs every phase over its own benchmarks; the fields below
are the only inputs that differ between workloads.  The workload seed is
not part of a workload: it is a run argument that reaches the program only
as the input-generation seed (``explore``, ``MultiBenchmarkExplorer`` and
``CompileFarm`` take it as ``seed=``; the reference check draws its inputs
from it).
"""

from __future__ import annotations

from typing import Dict

FIGURE7_ORDER = ["outerprod", "sumrows", "gemm", "tpchq6", "gda", "kmeans"]

WORKLOADS: Dict[str, Dict[str, object]] = {
    # One small IR tiled 64 ways, 8 points per tiling: cold time is PPL
    # traversal, transforms and hardware generation, batch grouping is
    # fully engaged, and there is no event simulation or schedule rewriting.
    "gemm": {
        "benchmarks": ["gemm"],
        "cycle_model": "analytical",
        "pipelines": ["default"],
        "strategy": None,
        "eval_fraction": None,
    },
    # The same layers in the opposite proportions: varied IR shapes put the
    # event simulator and schedule rewriter to work, rewrite points bypass
    # the batched path, and inputs of up to 16M elements make input
    # generation a large share of cold and warm time.
    "suite": {
        "benchmarks": ["gda", "kmeans", "sumrows", "outerprod", "tpchq6"],
        "cycle_model": "event",
        "pipelines": ["default", "rewrite"],
        "strategy": None,
        "eval_fraction": None,
    },
    # The paper-reproduction path: all six benchmarks, whose Figure 7 cells
    # carry the fidelity metrics, explored the way
    # ``run_figure7(dse_strategy="hill-climb")`` explores them for its
    # dse-best column: hill-climb search at its default budget of 40% of
    # the surviving points, instead of the exhaustive grid.
    "figure7": {
        "benchmarks": FIGURE7_ORDER,
        "cycle_model": "analytical",
        "pipelines": ["default"],
        "strategy": "hill-climb",
        "eval_fraction": 0.4,
    },
}
