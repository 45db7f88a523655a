"""Batched design-point evaluation: the DSE hot loop over stacked points.

:func:`evaluate_point_batch` evaluates a whole list of
:class:`~repro.dse.space.DesignPoint` objects with the work factored the
way the points actually share it:

1. **Cache first** — points already memoised in the ``point_results``
   table are served (with the same copy-on-return protection as
   :func:`~repro.dse.engine.evaluate_point`).
2. **One transform run per tiled program** — the transform passes depend
   only on the tiling configuration
   (:func:`~repro.dse.cache.config_signature`), never on par or
   metapipelining, so the remaining points group by
   ``(pipeline gene, config signature)`` and the pass-pipeline *prefix*
   (everything before the terminal generate/schedule/area passes) runs
   once per group — exactly the sharing the pass memoiser exploits on the
   warm path, now available cold.
3. **Shared per-program analyses** — hardware generation for the group's
   points reuses one :class:`~repro.hw.generation.GenerationShared`
   (workload env, preload plan, op counts, traffic records).
4. **Stacked closed forms** — schedules with equal
   :func:`~repro.schedule.batched.schedule_signature` are priced in one
   numpy pass (:func:`~repro.schedule.batched.batched_cycles` /
   :func:`~repro.schedule.batched.batched_area`) instead of N tree walks.

Results are **bit-identical** to calling ``evaluate_point`` per point —
enforced by ``tests/dse/test_batched.py`` on all six benchmarks — and the
cache is seeded per point through the same key machinery, so memoisation,
journal replay and farm admission dedup behave exactly as before
(``CACHE_VERSION`` unchanged: the key material is untouched).

Schedule transformations between lowering and pricing — the ``rewrite``
and ``rewrite-profiled`` composites and the individual schedule steps of
``auto:`` orderings — run per point on the lowered schedule through the
stage's own transformation object (``apply``: the rewrite alone, without
the report-only event-backend cycle measurement the pipeline records),
then the rewritten schedules join the stacked pricing.

Points the vector path cannot take verbatim fall back to scalar
``evaluate_point`` individually: the event cycle backend (its timeline is
stateful, not a closed form) and pipelines whose terminal tail is not the
stock generate → build → (schedule transformations…) → estimate sequence.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dse.cache import ANALYSIS_CACHE, config_signature
from repro.dse.results import PointResult
from repro.dse.space import DesignPoint
from repro.hw.generation import GenerationShared, generate_hardware
from repro.pipeline.passes import (
    BuildScheduleStage,
    EstimateAreaStage,
    GenerateHardwareStage,
    PassContext,
    TransformationStage,
)
from repro.pipeline.pipeline import Pipeline
from repro.ppl.program import Program
from repro.schedule.batched import batched_area, batched_cycles, schedule_signature
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD, Board
from repro.utils.naming import fresh_naming_scope

__all__ = ["evaluate_point_batch"]

_MISS = object()

_TERMINALS = (GenerateHardwareStage, BuildScheduleStage, EstimateAreaStage)


def _is_schedule_stage(stage) -> bool:
    return type(stage) is TransformationStage and stage.transformation.ir == "schedule"


def _split_terminal_tail(pipe: Pipeline) -> Optional[Tuple[list, list]]:
    """``(prefix passes, schedule transformations)`` for a standard
    pipeline, else None.

    The vector path replaces the terminal tail wholesale, so it only
    engages when the tail is exactly the stock sequence — generate-hardware,
    build-schedule, zero or more schedule-transformation stages,
    estimate-area — with the stock classes (a subclass may do anything, so
    ``type`` checks, not ``isinstance``).  Anything else falls back to
    scalar evaluation.
    """
    split = len(pipe.passes)
    for index, stage in enumerate(pipe.passes):
        if isinstance(stage, _TERMINALS) or _is_schedule_stage(stage):
            split = index
            break
    tail = pipe.passes[split:]
    if len(tail) < 3:
        return None
    if type(tail[0]) is not GenerateHardwareStage:
        return None
    if type(tail[1]) is not BuildScheduleStage:
        return None
    if type(tail[-1]) is not EstimateAreaStage:
        return None
    rewrites = tail[2:-1]
    if not all(_is_schedule_stage(stage) for stage in rewrites):
        return None
    return list(pipe.passes[:split]), [stage.transformation for stage in rewrites]


def evaluate_point_batch(
    program: Program,
    bindings: Mapping[str, object],
    points: Sequence[DesignPoint],
    board: Board = DEFAULT_BOARD,
    model: Optional[PerformanceModel] = None,
    session=None,
    cycle_model: str = "analytical",
) -> List[PointResult]:
    """Evaluate many design points at once; order-preserving, bit-identical.

    Semantically ``[evaluate_point(program, bindings, p, ...) for p in
    points]`` — same results, same cache entries, same errors for unknown
    pipeline genes — with the shared work factored out (see module
    docstring).  ``cycle_model="event"`` routes every point through the
    scalar path unchanged.
    """
    from repro.dse.engine import _pipeline_signature, evaluate_point
    from repro.pipeline.session import CompilerSession

    points = list(points)
    if session is None:
        session = CompilerSession(board=board, model=model)
    else:
        board = session.board
        model = model if model is not None else session.model

    results: List[Optional[PointResult]] = [None] * len(points)
    keys: List[Optional[tuple]] = [None] * len(points)

    def scalar(index: int) -> None:
        results[index] = evaluate_point(
            program,
            bindings,
            points[index],
            model=model,
            session=session,
            cycle_model=cycle_model,
        )

    if cycle_model != "analytical":
        for index in range(len(points)):
            scalar(index)
        return results  # type: ignore[return-value]

    tails: Dict[str, Optional[Tuple[list, list]]] = {}

    def tail_for(gene: str) -> Optional[Tuple[list, list]]:
        if gene not in tails:
            tails[gene] = _split_terminal_tail(session.pipeline_for(gene))
        return tails[gene]

    # -- pass 1: serve memoised points, collect the rest -----------------------
    groups: Dict[Tuple[str, tuple], List[int]] = {}
    for index, point in enumerate(points):
        # Raises ValueError for an unregistered pipeline gene, exactly as
        # the scalar evaluation of this point would.
        signature = _pipeline_signature(session, point.pipeline)
        if ANALYSIS_CACHE.enabled:
            key = _point_result_key_cached(
                program, bindings, point, board, model, signature, cycle_model
            )
            keys[index] = key
            if key is not None:
                cached = ANALYSIS_CACHE.get("point_results", key, _MISS)
                if cached is not _MISS:
                    ANALYSIS_CACHE.hits["point_results"] += 1
                    results[index] = replace(
                        cached, utilization=dict(cached.utilization)
                    )
                    continue
                ANALYSIS_CACHE.misses["point_results"] += 1
        if tail_for(point.pipeline) is None:
            scalar(index)
            continue
        groups.setdefault(
            (point.pipeline, config_signature(point.config())), []
        ).append(index)

    # -- pass 2: one prefix run + stacked pricing per group --------------------
    for (gene, _), indices in groups.items():
        prefix, rewrites = tail_for(gene)  # type: ignore[misc]
        representative = points[indices[0]]
        ctx = PassContext(
            config=representative.config(),
            bindings=bindings,
            board=board,
            par=None,
            model=session.model,
            cache=session.cache,
        )
        scope = fresh_naming_scope() if session.fresh_names else nullcontext()
        with scope:
            tiled = Pipeline(prefix, name="batched-prefix").run(program, ctx).program
            shared = GenerationShared(tiled, bindings)
            designs = []
            schedules = []
            for index in indices:
                point = points[index]
                design = generate_hardware(
                    tiled,
                    point.config(),
                    bindings,
                    board=board,
                    par=point.par,
                    shared=shared,
                )
                schedule = design.schedule()
                for transformation in rewrites:
                    schedule = transformation.apply(schedule, ctx)
                designs.append(design)
                schedules.append(schedule)

        by_shape: Dict[tuple, List[int]] = {}
        for position, schedule in enumerate(schedules):
            by_shape.setdefault(schedule_signature(schedule), []).append(position)
        for positions in by_shape.values():
            stacked = [schedules[position] for position in positions]
            cycles = batched_cycles(stacked, model)
            logic, ffs, bram, dsps = batched_area(stacked)
            for lane, position in enumerate(positions):
                index = indices[position]
                device = stacked[lane].board.device
                point_cycles = float(cycles[lane])
                result = PointResult(
                    point=points[index],
                    cycles=point_cycles,
                    seconds=point_cycles / device.clock_hz,
                    logic=float(logic[lane]),
                    ffs=float(ffs[lane]),
                    bram_bits=float(bram[lane]),
                    dsps=float(dsps[lane]),
                    utilization={
                        "logic": float(logic[lane]) / device.logic_cells,
                        "ffs": float(ffs[lane]) / device.registers,
                        "bram": float(bram[lane]) / device.bram_bits,
                        "dsps": float(dsps[lane]) / device.dsps,
                    },
                    read_bytes=designs[position].main_memory_read_bytes,
                    write_bytes=designs[position].main_memory_write_bytes,
                )
                if keys[index] is not None:
                    ANALYSIS_CACHE.put("point_results", keys[index], result)
                    # Same copy-on-return protection as evaluate_point: the
                    # cached entry must never alias a caller-mutable dict.
                    result = replace(result, utilization=dict(result.utilization))
                results[index] = result

    return results  # type: ignore[return-value]


def _point_result_key_cached(
    program: Program,
    bindings: Mapping[str, object],
    point: DesignPoint,
    board: Board,
    model: Optional[PerformanceModel],
    signature: tuple,
    cycle_model: str,
) -> Optional[tuple]:
    """The scalar path's cache key for one point (channel gene folded in)."""
    from repro.dse.engine import _effective_model, _point_result_key

    return _point_result_key(
        program,
        bindings,
        point,
        board,
        _effective_model(model, point),
        signature,
        cycle_model,
    )
