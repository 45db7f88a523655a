"""The composable pass pipeline: ordering, instrumentation, memoisation.

A :class:`Pipeline` is an immutable ordered sequence of
:class:`~repro.pipeline.passes.PipelinePass` objects with unique names.
Editing operations (:meth:`Pipeline.without`, :meth:`Pipeline.replaced`,
:meth:`Pipeline.inserted_before` / :meth:`Pipeline.inserted_after`) return
new pipelines, so one pipeline object can be shared by many sessions and
sweeps without aliasing surprises — pipeline *variants* (``no-fusion``,
``no-cse``, custom orderings) are just edited copies registered in
:mod:`repro.pipeline.variants`.

Running a pipeline produces a :class:`PipelineOutcome`: the final program,
the per-pass program trace (the intermediate IR after every step, which is
how the session reconstructs the paper's strip-mined/interchanged stage
snapshots) and a :class:`PipelineReport` with per-pass wall-clock, cache
hits and IR node-count deltas.

Memoisation is layered on the existing :class:`~repro.dse.cache.AnalysisCache`
(table ``pipeline_pass``): a pass whose :meth:`cache_key` returns a hashable
is keyed on the *incoming* program's structural hash plus the input/size
symbol names plus that key.  Because the key covers the pass class rather
than the instance name, a pass that receives a structurally identical
program — even at a different position, or in a different pipeline — hits
the same entry; cached outputs are reused wholesale, which is exactly how
the old :class:`~repro.transforms.tiling.TilingDriver` shared whole tiling
results, but at per-pass granularity.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PipelineError
from repro.pipeline.passes import (
    PASS_DETAILS_KEY,
    PASS_ITERATIONS_KEY,
    PassContext,
    PipelinePass,
)
from repro.ppl.program import Program

__all__ = ["PassRecord", "PipelineReport", "PipelineOutcome", "Pipeline"]

_MISSING = object()


@dataclass
class PassRecord:
    """Instrumentation for one pass execution inside one pipeline run."""

    name: str
    seconds: float
    cached: bool
    nodes_before: int
    nodes_after: int
    changed: bool
    # Internal iterations the pass ran (fixed-point passes; 1 otherwise)
    # and the pass's advisory wall-clock budget.
    iterations: int = 1
    budget_seconds: float = 0.0
    # Structured per-run details a pass deposited (e.g. the schedule
    # rewriter's per-rewrite hit counts and event-cycle delta).
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def node_delta(self) -> int:
        return self.nodes_after - self.nodes_before

    @property
    def over_budget(self) -> bool:
        """Whether the (uncached) run exceeded the pass's time budget."""
        return (
            not self.cached and self.budget_seconds > 0 and self.seconds > self.budget_seconds
        )

    @property
    def budget_label(self) -> str:
        """The budget rendered for report tables (``!`` marks a breach)."""
        if not self.budget_seconds:
            return "-"
        return f"{self.budget_seconds * 1e3:.0f}ms{'!' if self.over_budget else ' '}"


@dataclass
class PipelineReport:
    """Per-pass wall-clock, cache and IR-delta numbers for one pipeline run."""

    pipeline: str
    program: str
    records: List[PassRecord] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.cached)

    @property
    def passes_run(self) -> int:
        return len(self.records)

    def over_budget(self) -> List[PassRecord]:
        """Records of passes that exceeded their advisory time budget."""
        return [record for record in self.records if record.over_budget]

    def record(self, name: str) -> PassRecord:
        for entry in self.records:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def table(self) -> str:
        header = (
            f"{'pass':<30} {'time':>10} {'budget':>10} {'cached':>7} "
            f"{'iters':>5} {'nodes':>13} {'delta':>7}"
        )
        lines = [
            f"pipeline {self.pipeline!r} on {self.program}: "
            f"{self.passes_run} passes, {self.cache_hits} cache hits, "
            f"{self.total_seconds * 1e3:.2f} ms",
            header,
            "-" * len(header),
        ]
        for record in self.records:
            lines.append(
                f"{record.name:<30} {record.seconds * 1e3:>8.2f}ms {record.budget_label:>10} "
                f"{'hit' if record.cached else '-':>7} "
                f"{record.iterations:>5} "
                f"{record.nodes_before:>5} -> {record.nodes_after:<5} "
                f"{record.node_delta:>+7}"
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "pipeline": self.pipeline,
            "program": self.program,
            "total_seconds": self.total_seconds,
            "cache_hits": self.cache_hits,
            "passes": [
                {
                    "name": record.name,
                    "seconds": record.seconds,
                    "budget_seconds": record.budget_seconds,
                    "cached": record.cached,
                    "iterations": record.iterations,
                    "nodes_before": record.nodes_before,
                    "nodes_after": record.nodes_after,
                    "details": dict(record.details),
                }
                for record in self.records
            ],
        }


@dataclass
class PipelineOutcome:
    """Everything one pipeline run produced."""

    program: Program
    trace: List[Tuple[str, Program]] = field(default_factory=list)
    report: Optional[PipelineReport] = None

    def stage(self, pass_name: str) -> Optional[Program]:
        """The program recorded after ``pass_name`` (last occurrence), or None."""
        found = None
        for name, program in self.trace:
            if name == pass_name:
                found = program
        return found


class Pipeline:
    """An immutable, name-addressable sequence of pipeline passes."""

    def __init__(self, passes: Sequence[PipelinePass], name: str = "custom") -> None:
        duplicates = [n for n, count in Counter(p.name for p in passes).items() if count > 1]
        if duplicates:
            raise PipelineError(
                f"duplicate pass names {sorted(duplicates)} in pipeline {name!r}: "
                "names address passes for insertion/removal/replacement and must "
                "be unique (instantiate the pass with an explicit name, e.g. "
                "TransformationStage(LetCse(), name='post-cse'))"
            )
        self.passes: Tuple[PipelinePass, ...] = tuple(passes)
        self.name = name
        self._signature: Optional[Tuple[Tuple[str, str], ...]] = None

    # -- introspection -------------------------------------------------------
    @property
    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)

    def __contains__(self, name: str) -> bool:
        return any(p.name == name for p in self.passes)

    def _index(self, name: str) -> int:
        for index, pass_ in enumerate(self.passes):
            if pass_.name == name:
                return index
        raise PipelineError(
            f"no pass named {name!r} in pipeline {self.name!r} "
            f"(passes: {self.pass_names})"
        )

    def signature(self) -> Tuple[Tuple[str, str], ...]:
        """A stable, picklable identity of the pass sequence.

        Used by the DSE engine to fold the pipeline variant into
        point-result cache keys: two registries that bind the same variant
        name to different pass sequences produce different keys.  Cached on
        the instance (pipelines are immutable — every edit returns a copy),
        since the engine reads it on the warm evaluation path.
        """
        if self._signature is None:
            self._signature = tuple(p.signature() for p in self.passes)
        return self._signature

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Pipeline {self.name!r}: {' -> '.join(self.pass_names)}>"

    # -- composition ---------------------------------------------------------
    def _derived(self, passes: Sequence[PipelinePass], name: Optional[str] = None) -> "Pipeline":
        return Pipeline(passes, name=name or self.name)

    def renamed(self, name: str) -> "Pipeline":
        return self._derived(self.passes, name=name)

    def without(self, *names: str) -> "Pipeline":
        """A copy with the named passes removed (unknown names are an error)."""
        for name in names:
            self._index(name)
        dropped = set(names)
        return self._derived([p for p in self.passes if p.name not in dropped])

    def replaced(self, name: str, new_pass: PipelinePass) -> "Pipeline":
        """A copy with the named pass swapped for ``new_pass``."""
        index = self._index(name)
        passes = list(self.passes)
        passes[index] = new_pass
        return self._derived(passes)

    def inserted_before(self, name: str, new_pass: PipelinePass) -> "Pipeline":
        index = self._index(name)
        passes = list(self.passes)
        passes.insert(index, new_pass)
        return self._derived(passes)

    def inserted_after(self, name: str, new_pass: PipelinePass) -> "Pipeline":
        index = self._index(name)
        passes = list(self.passes)
        passes.insert(index + 1, new_pass)
        return self._derived(passes)

    def appended(self, new_pass: PipelinePass) -> "Pipeline":
        return self._derived(list(self.passes) + [new_pass])

    def fixed_point(self, names: Sequence[str], max_iters: int = 4) -> "Pipeline":
        """A copy where the named passes iterate together to a fixed point.

        The named passes (typically the cleanup sweep: CSE + code motion)
        are replaced by one :class:`~repro.pipeline.passes.FixedPointPass`
        at the position of the first, which reruns the group until the IR's
        structural hash stops changing (capped at ``max_iters``).  The
        iteration count is surfaced per run in the
        :class:`PipelineReport`'s pass record.
        """
        from repro.pipeline.passes import FixedPointPass

        if not names:
            raise PipelineError("fixed_point needs at least one pass name")
        indices = [self._index(name) for name in names]
        # Keep the passes in their pipeline order regardless of the order
        # the caller named them in.
        ordered = sorted(zip(indices, names))
        group = [self.passes[index] for index, _ in ordered]
        first = ordered[0][0]
        dropped = {name for _, name in ordered}
        passes: List[PipelinePass] = []
        for index, pass_ in enumerate(self.passes):
            if index == first:
                passes.append(FixedPointPass(group, max_iters=max_iters))
            elif pass_.name not in dropped:
                passes.append(pass_)
        return self._derived(passes)

    # -- execution -----------------------------------------------------------
    def _memo_key(self, pass_: PipelinePass, program: Program, ctx: PassContext):
        contribution = pass_.cache_key(ctx)
        if contribution is None or not ctx.cache.enabled:
            return None
        return (
            program.body.structural_hash(),
            tuple(array.name for array in program.inputs),
            tuple(size.name for size in program.sizes),
            type(pass_).__name__,
            contribution,
        )

    def run(self, program: Program, ctx: PassContext) -> PipelineOutcome:
        """Run every pass in order, memoising and instrumenting each."""
        started = time.perf_counter()
        trace: List[Tuple[str, Program]] = [("input", program)]
        report = PipelineReport(pipeline=self.name, program=program.name)
        current = program
        for pass_ in self.passes:
            nodes_before = current.body.node_count()
            pass_started = time.perf_counter()
            key = self._memo_key(pass_, current, ctx)
            if key is None:
                payload = pass_.payload(pass_.run(current, ctx), ctx)
                cached = False
            else:
                ran = False

                def compute(pass_=pass_, current=current):
                    nonlocal ran
                    ran = True
                    return pass_.payload(pass_.run(current, ctx), ctx)

                payload = ctx.cache.memoize("pipeline_pass", key, compute)
                cached = not ran
            next_program = pass_.restore(payload, ctx)
            elapsed = time.perf_counter() - pass_started
            report.records.append(
                PassRecord(
                    name=pass_.name,
                    seconds=elapsed,
                    cached=cached,
                    nodes_before=nodes_before,
                    nodes_after=next_program.body.node_count(),
                    changed=(
                        next_program.body is not current.body
                        and next_program.body.structural_hash()
                        != current.body.structural_hash()
                    ),
                    iterations=ctx.artifacts.pop(PASS_ITERATIONS_KEY, 1),
                    budget_seconds=pass_.budget_seconds,
                    details=ctx.artifacts.pop(PASS_DETAILS_KEY, {}),
                )
            )
            trace.append((pass_.name, next_program))
            current = next_program
        report.total_seconds = time.perf_counter() - started
        return PipelineOutcome(program=current, trace=trace, report=report)
