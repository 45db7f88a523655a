"""The pass protocol and the built-in passes of the compilation pipeline.

Every step of the paper's Figure 1 flow — the pattern transformations of
Section 4 and the hardware generation of Section 5 — is expressed as a
:class:`PipelinePass`: a named unit with ``run(program, ctx) -> program``
and a cache-key contribution that tells the pipeline how (and whether) its
output may be memoised through the analysis cache.

Two kinds of passes exist:

* :class:`TransformationStage` runs one framework transformation
  (:mod:`repro.rewrite.framework`).  PPL transformations (fusion, strip
  mining, tile-copy insertion, CSE, code motion, interchange, split strip
  mining) rewrite the program; their results are pure functions of the
  program structure and the tiling-relevant configuration, so they
  memoise on ``(structural hash, input/size names, cache_key)``.  Schedule
  transformations rewrite the schedule ``build-schedule`` deposited.
* **terminal passes** (:class:`GenerateHardwareStage`,
  :class:`BuildScheduleStage`, :class:`EstimateAreaStage`) leave the
  program untouched and deposit non-IR artifacts — the hardware design,
  its schedule and its area report — into the :class:`PassContext`.  They
  depend on the concrete workload bindings, so they never memoise here
  (whole point evaluations are memoised one level up, in the engine's
  ``point_results`` table).

Transformations that declare ``requires_tiling`` are skipped when
``ctx.config.tiling`` is off, which is what makes one pipeline serve the
baseline and the optimised configurations alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Optional, Tuple

from repro.analysis.area import estimate_area
from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, AnalysisCache
from repro.errors import PipelineError
from repro.hw.generation import generate_hardware
from repro.ppl.program import Program
from repro.sim.model import PerformanceModel
from repro.target.device import DEFAULT_BOARD, Board

__all__ = [
    "PassContext",
    "PipelinePass",
    "FixedPointPass",
    "TransformationStage",
    "GenerateHardwareStage",
    "BuildScheduleStage",
    "EstimateAreaStage",
]

#: Context key through which a pass reports how many internal iterations it
#: ran (the fixed-point pass); the pipeline pops it into the pass record.
PASS_ITERATIONS_KEY = "_pass_iterations"

#: Context key through which a pass deposits structured per-run details
#: (e.g. the schedule rewriter's per-rewrite hit counts and cycle delta);
#: the pipeline pops it into the pass record's ``details``.
PASS_DETAILS_KEY = "_pass_details"


@dataclass
class PassContext:
    """Everything a pass may read besides the program itself.

    The context carries the compile configuration, the concrete workload
    bindings, the target board and per-compile knobs, plus ``artifacts`` —
    the scratch space where terminal passes deposit the hardware design and
    area report and the interchange stage records which rules fired.  The
    pipeline threads one context through a whole run; a fresh context is
    created per compilation, so artifacts never leak between compiles.
    """

    config: CompileConfig
    bindings: Mapping[str, object] = field(default_factory=dict)
    board: Board = DEFAULT_BOARD
    par: Optional[int] = None
    model: Optional[PerformanceModel] = None
    cache: Optional[AnalysisCache] = None
    artifacts: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = ANALYSIS_CACHE


class PipelinePass:
    """One named step of a compilation pipeline.

    Subclasses implement :meth:`run`.  The pipeline memoises a pass's
    result through the analysis cache when :meth:`cache_key` returns a
    hashable (``None`` disables memoisation for that pass);
    :meth:`payload`/:meth:`restore` let passes with side outputs (e.g. the
    interchange log) round-trip them through the cache.
    """

    name: str = "pass"

    #: Wall-clock budget for one run of this pass.  Budgets are surfaced in
    #: the trade-off reports (``run_figure7(report_passes=True)``) and a
    #: pass exceeding its budget is flagged there — they are advisory, not
    #: enforced, but they make compile-time regressions visible next to the
    #: area/cycle numbers they pay for.
    budget_seconds: float = 0.050

    def __init__(self, name: Optional[str] = None) -> None:
        if name is not None:
            self.name = name

    def run(self, program: Program, ctx: PassContext) -> Program:
        raise NotImplementedError(f"{type(self).__name__} must implement run")

    def cache_key(self, ctx: PassContext) -> Optional[Hashable]:
        """This pass's contribution to the memo key, or None (never memoise)."""
        return None

    def payload(self, program: Program, ctx: PassContext) -> object:
        """What to store in the cache for a completed run (default: the program)."""
        return program

    def restore(self, payload: object, ctx: PassContext) -> Program:
        """Rebuild the pass outcome (program + context side effects) from a payload."""
        return payload  # type: ignore[return-value]

    def signature(self) -> Tuple[str, str]:
        """Stable identity used in pipeline signatures and point-result keys."""
        return (type(self).__name__, self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class TransformationStage(PipelinePass):
    """Run one framework :class:`~repro.rewrite.framework.Transformation`.

    The generic bridge between the declarative rewrite framework and the
    pass pipeline: tiling gating, memoisation keys and schedule-artifact
    plumbing are handled here once, uniformly, so a new transformation
    only declares pattern/legality/apply/cost and becomes pipeline-able
    (and thereby a DSE-sweepable ordering step) for free.

    * **PPL transformations** are gated on ``ctx.config.tiling`` when the
      transformation ``requires_tiling``, memoised on
      ``(signature, gate, config_key)``, with side outputs round-tripped
      through the transformation's ``payload``/``restore`` hooks.
    * **Schedule transformations** are never memoised (the schedule is a
      workload-bound artifact, like the design it was lowered from).  They
      are applied to the schedule deposited by ``build-schedule``
      (replacing ``ctx.artifacts["schedule"]``), with the framework's
      invariant checker (:func:`repro.schedule.rewrite.verify_rewrite`)
      asserted by ``apply_schedule`` and per-run details surfaced in the
      pass record.
    """

    budget_seconds = 0.100

    def __init__(self, transformation, name: Optional[str] = None) -> None:
        self.transformation = transformation
        super().__init__(name or transformation.name)

    def run(self, program: Program, ctx: PassContext) -> Program:
        t = self.transformation
        if t.ir == "ppl":
            if t.requires_tiling and not ctx.config.tiling:
                return program
            return t.apply(program, ctx)
        schedule = ctx.artifacts.get("schedule")
        if schedule is None:
            raise PipelineError(
                f"{self.name} needs a schedule: run build-schedule earlier "
                "in the pipeline"
            )
        rewritten, details = t.apply_schedule(schedule, ctx)
        ctx.artifacts["schedule"] = rewritten
        if details:
            ctx.artifacts[PASS_DETAILS_KEY] = details
        return program

    def cache_key(self, ctx: PassContext) -> Optional[Hashable]:
        t = self.transformation
        if t.ir != "ppl":
            return None  # workload-bound artifact, like the design itself
        if t.requires_tiling and not ctx.config.tiling:
            return (t.signature(), False)
        return (t.signature(), True) + tuple(t.config_key(ctx))

    def payload(self, program: Program, ctx: PassContext) -> object:
        return self.transformation.payload(program, ctx)

    def restore(self, payload: object, ctx: PassContext) -> Program:
        return self.transformation.restore(payload, ctx)

    def signature(self) -> Tuple[str, str]:
        return (f"TransformationStage[{self.transformation.signature()}]", self.name)


class FixedPointPass(PipelinePass):
    """Rerun a group of cleanup passes until the IR stops changing.

    One CSE + code-motion sweep can expose further opportunities (a moved
    tile copy becomes a duplicate, a deduplicated copy becomes loop
    invariant); the paper's flow runs the cleanup a fixed number of times,
    this pass instead iterates the group to a fixed point, capped at
    ``max_iters``.  The iteration count is surfaced in the
    :class:`~repro.pipeline.pipeline.PassRecord` of the pipeline report.

    Build one via :meth:`repro.pipeline.pipeline.Pipeline.fixed_point`,
    which replaces the named passes in place.
    """

    def __init__(self, passes, max_iters: int = 4, name: Optional[str] = None) -> None:
        self.passes = tuple(passes)
        if not self.passes:
            raise PipelineError("fixed_point needs at least one pass to iterate")
        self.max_iters = max(1, max_iters)
        inner = "+".join(p.name for p in self.passes)
        super().__init__(name or f"fixed-point({inner})")

    def run(self, program: Program, ctx: PassContext) -> Program:
        iterations = 0
        for _ in range(self.max_iters):
            before = program.body.structural_hash()
            for pass_ in self.passes:
                program = pass_.run(program, ctx)
            iterations += 1
            if program.body.structural_hash() == before:
                break
        ctx.artifacts[PASS_ITERATIONS_KEY] = iterations
        return program

    def cache_key(self, ctx: PassContext) -> Optional[Hashable]:
        contributions = []
        for pass_ in self.passes:
            contribution = pass_.cache_key(ctx)
            if contribution is None:
                return None
            contributions.append((type(pass_).__name__, contribution))
        return (self.max_iters, tuple(contributions))

    def payload(self, program: Program, ctx: PassContext) -> object:
        return (program, ctx.artifacts.get(PASS_ITERATIONS_KEY, 1))

    def restore(self, payload: object, ctx: PassContext) -> Program:
        program, iterations = payload  # type: ignore[misc]
        ctx.artifacts[PASS_ITERATIONS_KEY] = iterations
        return program

    def signature(self) -> Tuple[str, str]:
        inner = ",".join(type(p).__name__ for p in self.passes)
        return (f"FixedPointPass[{inner}]x{self.max_iters}", self.name)


class GenerateHardwareStage(PipelinePass):
    """Terminal pass: map the (tiled) program onto the hardware templates.

    Deposits the :class:`~repro.hw.design.HardwareDesign` in
    ``ctx.artifacts["design"]`` and returns the program unchanged.  Never
    memoised here: the design depends on the workload bindings, and whole
    point evaluations are cached one level up by the DSE engine.
    """

    name = "generate-hardware"
    budget_seconds = 0.200

    def run(self, program: Program, ctx: PassContext) -> Program:
        ctx.artifacts["design"] = generate_hardware(
            program, ctx.config, ctx.bindings, board=ctx.board, par=ctx.par
        )
        return program


class BuildScheduleStage(PipelinePass):
    """Terminal pass: lower the generated design to its metapipeline Schedule.

    Deposits the :class:`~repro.schedule.ir.Schedule` in
    ``ctx.artifacts["schedule"]``.  Every downstream consumer — the cycle
    backends, the area estimate, the traffic inventory, the MaxJ emitter —
    reads this one object, so the stage makes the schedule an explicit
    compilation artifact rather than something each backend re-derives.
    """

    name = "build-schedule"

    def run(self, program: Program, ctx: PassContext) -> Program:
        design = ctx.artifacts.get("design")
        if design is None:
            raise PipelineError(
                "build-schedule needs a hardware design: run generate-hardware "
                "earlier in the pipeline (or compile through a CompilerSession, "
                "which generates the design when the pipeline has no terminals)"
            )
        ctx.artifacts["schedule"] = design.schedule()
        return program


class EstimateAreaStage(PipelinePass):
    """Terminal pass: cost the scheduled design against the board's device."""

    name = "estimate-area"

    def run(self, program: Program, ctx: PassContext) -> Program:
        schedule = ctx.artifacts.get("schedule")
        if schedule is not None:
            from repro.analysis.area import estimate_area_of_schedule

            ctx.artifacts["area"] = estimate_area_of_schedule(schedule)
            return program
        design = ctx.artifacts.get("design")
        if design is None:
            raise PipelineError(
                "estimate-area needs a hardware design: run generate-hardware "
                "earlier in the pipeline (or compile through a CompilerSession, "
                "which appends the terminal passes when missing)"
            )
        ctx.artifacts["area"] = estimate_area(design)
        return program
