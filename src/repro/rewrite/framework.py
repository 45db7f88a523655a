"""The declarative transformation framework (DaCe-style pattern rewriting).

Every program transformation in the compiler — the Section 4 PPL pattern
transforms and the schedule-level rewrites of :mod:`repro.schedule.rewrite`
— is expressible as a :class:`Transformation`: a named unit declaring

* :meth:`~Transformation.pattern` — a declarative :class:`ShapePattern`
  describing the node shapes it rewrites (over the PPL expression IR or
  the Schedule stage tree, selected by :attr:`Transformation.ir`);
* :meth:`~Transformation.can_apply` — the legality predicate deciding
  whether a matched site may actually be rewritten;
* :meth:`~Transformation.apply` — the rewrite itself (pure for the PPL IR,
  clone-then-mutate with :func:`repro.schedule.rewrite.verify_rewrite` as
  the post-apply invariant checker for the Schedule IR);
* :meth:`~Transformation.cost_delta` — the estimated cycle / area /
  traffic / IR-size change, priced with the existing analytical closed
  forms (:func:`repro.schedule.rewrite.node_cycles`,
  :func:`repro.analysis.traffic.schedule_traffic`,
  :func:`repro.analysis.area.estimate_area_of_schedule`).

The pipeline runs a transformation through the generic
:class:`repro.pipeline.passes.TransformationStage`, which handles tiling
gating, memoisation keys and schedule-artifact plumbing uniformly;
:mod:`repro.rewrite.orderings` turns sequences of transformations into
whole pipelines and enumerates the legal orderings the DSE sweeps.

Each transformation is defined exactly once, next to the helpers it uses:
the Section 4 transforms in :mod:`repro.transforms` (``VerticalFusion``,
``LetCse``, ``InvariantCodeMotion``, ``StripMine``, ``TileCopies``,
``Interchange``), the schedule rules and their composite in
:mod:`repro.schedule.rewrite` (``FlattenDegenerateGroups``,
``CoalesceTransfers``, ``RebalanceStages``, ``ScheduleRewrite``), and
:class:`~repro.rewrite.splitting.SplitStripMining` here.  Matching is
deliberately separate from applying: ``matches()`` is what the ordering
search and the cost model consult ("would this fire here, and what would
it buy?"), while ``apply()`` is the production rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import TransformError

if TYPE_CHECKING:  # pragma: no cover - import cycles at type-check time only
    from repro.pipeline.passes import PassContext
    from repro.ppl.program import Program
    from repro.schedule.ir import Schedule

__all__ = [
    "CostDelta",
    "Match",
    "PplTransformation",
    "ScheduleTransformation",
    "ShapePattern",
    "Transformation",
    "TransformationError",
    "find_matches",
    "ir_size",
]


class TransformationError(TransformError):
    """A transformation was declared or applied inconsistently."""


@dataclass(frozen=True)
class ShapePattern:
    """A declarative node-shape matcher: node kinds plus a structural guard.

    ``kinds`` are the IR node classes a site must be an instance of;
    ``where`` is an optional purely structural predicate over the node
    (no compile configuration — configuration-dependent legality belongs
    in :meth:`Transformation.can_apply`).
    """

    kinds: Tuple[type, ...]
    where: Optional[Callable[[object], bool]] = None
    description: str = ""

    def matches_node(self, node: object) -> bool:
        if not isinstance(node, self.kinds):
            return False
        if self.where is not None and not self.where(node):
            return False
        return True


@dataclass
class Match:
    """One site a transformation's pattern matched.

    ``payload`` is transformation-private scratch: whatever the legality
    check computed and the site-level apply wants to reuse.
    """

    node: object
    payload: Dict[str, object] = field(default_factory=dict)


def find_matches(nodes, pattern: ShapePattern) -> List[Match]:
    """All nodes of an iterable that fit a shape pattern, in walk order."""
    return [Match(node) for node in nodes if pattern.matches_node(node)]


def ir_size(body) -> int:
    """Node count of a PPL expression tree — the IR-size cost proxy."""
    return body.node_count()


@dataclass
class CostDelta:
    """Estimated effect of applying a transformation (after minus before).

    ``None`` fields are *unknown* for that transformation's IR, not zero:
    PPL transformations report the IR-size delta (their cycle effect is
    only priced after hardware generation), schedule transformations
    report analytical cycles plus the traffic/area deltas their legality
    invariants pin to zero.
    """

    cycles: Optional[float] = None
    area_logic: Optional[float] = None
    traffic_bytes: Optional[int] = None
    ir_nodes: Optional[int] = None
    sites: int = 0

    @property
    def improves_cycles(self) -> bool:
        return self.cycles is not None and self.cycles < 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "cycles": self.cycles,
            "area_logic": self.area_logic,
            "traffic_bytes": self.traffic_bytes,
            "ir_nodes": self.ir_nodes,
            "sites": self.sites,
        }


class Transformation:
    """One declarative rewrite: pattern + legality + apply + cost delta.

    Subclasses set :attr:`ir` (``"ppl"`` or ``"schedule"``) and implement
    the four protocol methods.  ``requires_tiling`` is the tiling gate:
    the pipeline stage skips the transformation entirely when
    the configuration compiles the untiled baseline, which is what lets
    one pipeline serve baseline and optimised configurations alike.
    """

    name: str = "transformation"
    ir: str = "ppl"
    requires_tiling: bool = False

    # -- the declarative protocol ------------------------------------------

    def pattern(self) -> ShapePattern:
        raise NotImplementedError(f"{type(self).__name__} must declare a pattern")

    def can_apply(self, subject, match: Match, ctx: "PassContext") -> bool:
        """May the matched site legally be rewritten under this context?"""
        return True

    def apply(self, subject, ctx: "PassContext"):
        """Rewrite every legal site of the subject (program or schedule)."""
        raise NotImplementedError(f"{type(self).__name__} must implement apply")

    def cost_delta(self, subject, ctx: "PassContext") -> CostDelta:
        raise NotImplementedError(f"{type(self).__name__} must implement cost_delta")

    # -- matching ------------------------------------------------------------

    def _walk_subject(self, subject):
        if self.ir == "ppl":
            from repro.ppl.traversal import walk

            return walk(subject.body)
        return subject.walk()

    def matches(self, subject, ctx: "PassContext") -> List[Match]:
        """Legal sites of this transformation in walk order.

        Pattern matching first (cheap, structural), then the legality
        predicate per site.  The ordering search and the cost model consume
        this; :meth:`apply` is free to revisit sites itself.
        """
        found = find_matches(self._walk_subject(subject), self.pattern())
        return [m for m in found if self.can_apply(subject, m, ctx)]

    # -- pipeline integration -------------------------------------------------

    def config_key(self, ctx: "PassContext") -> Tuple:
        """The configuration this transformation's output depends on."""
        return ()

    def signature(self) -> str:
        """Stable identity folded into pipeline signatures and cache keys."""
        return type(self).__name__

    def payload(self, program, ctx: "PassContext") -> object:
        """What a memoised run stores (PPL only; default: the program)."""
        return program

    def restore(self, payload: object, ctx: "PassContext"):
        """Rebuild program + context side effects from a memoised payload."""
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} ir={self.ir}>"


class PplTransformation(Transformation):
    """Base of transformations over the PPL expression IR.

    Subclasses implement :meth:`apply` (a pure ``Program -> Program``
    rewrite); the declarative half — :meth:`pattern` / :meth:`can_apply` —
    is what the ordering search and :meth:`cost_delta` consult.
    """

    ir = "ppl"

    @staticmethod
    def with_body(program: "Program", body) -> "Program":
        """``program`` itself when the body is unchanged, else a copy."""
        return program if body is program.body else program.with_body(body)

    def cost_delta(self, program: "Program", ctx: "PassContext") -> CostDelta:
        sites = self.matches(program, ctx)
        if not sites:
            return CostDelta(ir_nodes=0, sites=0)
        after = self.apply(program, ctx)
        return CostDelta(
            ir_nodes=ir_size(after.body) - ir_size(program.body),
            sites=len(sites),
        )


class ScheduleTransformation(Transformation):
    """Base of transformations over the Schedule stage tree.

    A rule implements :meth:`fire`: mutate a (cloned) schedule in place and
    return how many sites it rewrote.  :meth:`rewrite` runs the rule
    through :func:`repro.schedule.rewrite.rewrite_schedule` — clone, fire
    until a round fires nothing (capped at four rounds), then assert the
    preservation invariants with
    :func:`repro.schedule.rewrite.verify_rewrite`, the framework's
    post-apply invariant checker.  The original schedule is never mutated.
    """

    ir = "schedule"

    def fire(self, schedule: "Schedule", model) -> int:
        """Rewrite every site of ``schedule`` in place; returns the hit count."""
        raise NotImplementedError(f"{type(self).__name__} must implement fire")

    def _model(self, ctx: "PassContext"):
        from repro.sim.model import PerformanceModel

        return ctx.model if ctx.model is not None else PerformanceModel()

    def rewrite(self, schedule: "Schedule", ctx: "PassContext"):
        """The :class:`~repro.schedule.rewrite.RewriteResult` of this rewrite."""
        from repro.schedule.rewrite import rewrite_schedule

        return rewrite_schedule(schedule, model=self._model(ctx), rewrites=[self])

    def apply(self, schedule: "Schedule", ctx: "PassContext") -> "Schedule":
        return self.rewrite(schedule, ctx).schedule

    def apply_schedule(
        self, schedule: "Schedule", ctx: "PassContext"
    ) -> Tuple["Schedule", Dict[str, object]]:
        """The rewritten schedule plus the details the pipeline report records."""
        result = self.rewrite(schedule, ctx)
        return result.schedule, self.details(schedule, result, ctx)

    def details(self, schedule: "Schedule", result, ctx: "PassContext") -> Dict[str, object]:
        """What the pipeline report records about one rewrite."""
        return {"rewrite_hits": dict(result.hits), "rewrite_rounds": result.rounds}

    def cost_delta(self, schedule: "Schedule", ctx: "PassContext") -> CostDelta:
        from repro.analysis.area import estimate_area_of_schedule
        from repro.analysis.traffic import schedule_traffic
        from repro.schedule.rewrite import node_cycles

        model = self._model(ctx)
        sites = self.matches(schedule, ctx)
        result = self.rewrite(schedule, ctx)
        rewritten = result.schedule
        before_cycles = node_cycles(schedule.root, schedule.board, model)
        after_cycles = node_cycles(rewritten.root, rewritten.board, model)
        traffic_before = schedule_traffic(schedule)
        traffic_after = schedule_traffic(rewritten)
        area_before = estimate_area_of_schedule(schedule).total
        area_after = estimate_area_of_schedule(rewritten).total
        return CostDelta(
            cycles=after_cycles - before_cycles,
            area_logic=area_after.logic - area_before.logic,
            traffic_bytes=(
                (traffic_after.read_bytes + traffic_after.write_bytes)
                - (traffic_before.read_bytes + traffic_before.write_bytes)
            ),
            sites=len(sites) if sites else result.total_hits,
        )
