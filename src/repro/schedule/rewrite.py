"""Schedule-level rewriting: optimise the metapipeline schedule before timing.

The Schedule IR makes the metapipeline an explicit artifact; this module
makes it an *optimisable* one.  :func:`rewrite_schedule` clones a
schedule and applies a sequence of rules — framework
:class:`~repro.rewrite.framework.ScheduleTransformation` objects, each
owning its pattern and its in-place ``fire`` — to the stage tree until a
round fires nothing.  The hardware inventory is never touched, only *when*
things run:

* :class:`CoalesceTransfers` — adjacent same-direction transfers inside a
  sequential or metapipeline group merge into one larger-burst transfer
  (total bytes preserved).  Every transfer pays one DRAM round-trip
  latency per invocation, so ``k`` adjacent tile loads cost ``k`` latencies
  where one coalesced load costs one; on the shared channel of the event
  model that latency is occupancy every other transfer waits behind.
* :class:`RebalanceStages` — metapipeline stages are split and merged so
  per-stage cycle estimates sit within a balance factor of the slowest
  stage.  A bottleneck stage that is itself a sequential group is split
  into separate overlapped stages; adjacent under-full stages merge into
  one stage, trimming per-stage sync handshakes and fill latency while the
  steady-state period — set by the slowest stage — is provably unchanged
  (pairs only merge when their combined estimate stays at or below it).
  The cost oracle is selectable: ``cost_source="analytical"`` prices
  stages with the closed forms of :mod:`repro.schedule.costs`,
  ``cost_source="event"`` measures them from an event-backend profile
  (:meth:`~repro.schedule.event.EventScheduleBackend.profile_schedule`),
  so contention- and stall-bound stages are seen at their *observed*
  durations rather than their idealised ones.  :func:`tune_balance_factor`
  picks the factor per schedule by scoring rewritten candidates with the
  event backend (``balance_factor="auto"`` in :func:`rewrite_schedule`).
* :class:`FlattenDegenerateGroups` — a stage group with one stage and one
  iteration is pure nesting overhead (the generator emits them around
  single-pattern bodies); the child takes its place.

Every rewrite preserves three invariants, asserted after rewriting by
:func:`verify_rewrite` (raising
:class:`~repro.errors.ScheduleRewriteError` on violation):

1. the **memory inventory** is identical (same :class:`MemoryNode` records);
2. the **module multiset** is identical — merged/flattened nodes absorb
   their partners' hardware modules into ``extra_modules``, so the area
   model aggregates the same totals before and after;
3. the **total DRAM traffic** is identical, per direction and per source
   array (:func:`repro.analysis.traffic.schedule_traffic` totals).

:class:`ScheduleRewrite` is the composite of all three (flatten →
coalesce → rebalance), the ``rewrite-schedule`` stage of the ``rewrite``
and ``rewrite-profiled`` pipeline variants.  A single rule and the
composite run through the same rounds loop.

The rewriter never mutates its input: the design's cached schedule stays
bit-identical (the golden Figure 7 numbers are computed from it), and the
rewritten copy becomes the compilation's schedule only when a schedule
stage ran, from where the cycle backends time it and the MaxJ emitter
renders it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ScheduleRewriteError
from repro.rewrite.framework import ScheduleTransformation, ShapePattern
from repro.schedule.costs import pipeline_cycles, stream_cycles, transfer_cycles
from repro.schedule.event import EventScheduleBackend, StageProfile
from repro.schedule.ir import (
    ComputeNode,
    MetapipelineSchedule,
    ParallelSchedule,
    Schedule,
    ScheduleNode,
    SequentialSchedule,
    StageGroup,
    StreamNode,
    TransferNode,
)
from repro.sim.model import PerformanceModel

__all__ = [
    "BALANCE_FACTOR_CANDIDATES",
    "COST_SOURCES",
    "CoalesceTransfers",
    "DEFAULT_BALANCE_FACTOR",
    "FlattenDegenerateGroups",
    "RebalanceStages",
    "RewriteResult",
    "ScheduleRewrite",
    "clone_schedule",
    "node_cycles",
    "rewrite_schedule",
    "tune_balance_factor",
    "verify_rewrite",
]

#: Stages whose cycle estimate is below ``slowest / factor`` count as
#: under-full (merge candidates); a group stage above ``factor × the rest``
#: is a bottleneck (split candidate).
DEFAULT_BALANCE_FACTOR = 2.0

#: The factors :func:`tune_balance_factor` scores when asked to pick one
#: per schedule (``balance_factor="auto"``).
BALANCE_FACTOR_CANDIDATES = (1.25, 1.5, 2.0, 3.0, 4.0)

#: Legal stage-cost oracles for :class:`RebalanceStages`.
COST_SOURCES = ("analytical", "event")

#: Rewrite rounds before :func:`rewrite_schedule` stops even if rules fire.
MAX_ROUNDS = 4


# ---------------------------------------------------------------------------
# Cloning and analytical per-node estimates
# ---------------------------------------------------------------------------


def _clone_node(node: ScheduleNode) -> ScheduleNode:
    """Deep-copy the stage tree; hardware modules stay shared by reference."""
    if isinstance(node, StageGroup):
        return type(node)(
            name=node.name,
            module=node.module,
            extra_modules=list(node.extra_modules),
            stages=[_clone_node(stage) for stage in node.stages],
            iterations=node.iterations,
        )
    return replace(node, extra_modules=list(node.extra_modules))


def clone_schedule(schedule: Schedule) -> Schedule:
    """A structurally independent copy of a schedule.

    Stage-tree nodes are fresh objects (the rewrites mutate them freely);
    modules, memory records and the board are shared — they are immutable
    inventory the rewriter must preserve anyway.
    """
    return Schedule(
        name=schedule.name,
        program_name=schedule.program_name,
        config_label=schedule.config_label,
        root=_clone_node(schedule.root),
        memories=list(schedule.memories),
        board=schedule.board,
        output_bytes=schedule.output_bytes,
        main_memory_read_bytes=schedule.main_memory_read_bytes,
        main_memory_write_bytes=schedule.main_memory_write_bytes,
        notes=list(schedule.notes),
    )


def node_cycles(node: ScheduleNode, board, model: PerformanceModel) -> float:
    """Analytical cycle estimate of one node — the rewrites' cost oracle.

    The same closed forms the analytical backend composes
    (:mod:`repro.schedule.costs`), evaluated statelessly so a rewrite can
    price candidate stage arrangements without running a backend.
    """
    if isinstance(node, MetapipelineSchedule):
        stage_cycles = [node_cycles(stage, board, model) for stage in node.stages]
        if not stage_cycles:
            return 0.0
        sync = model.metapipeline_sync * len(stage_cycles)
        return sum(stage_cycles) + max(0, node.iterations - 1) * (max(stage_cycles) + sync)
    if isinstance(node, ParallelSchedule):
        stage_cycles = [node_cycles(stage, board, model) for stage in node.stages]
        return node.iterations * (max(stage_cycles) if stage_cycles else 0.0)
    if isinstance(node, StageGroup):
        return node.iterations * sum(node_cycles(stage, board, model) for stage in node.stages)
    if isinstance(node, TransferNode):
        return transfer_cycles(board, model, node.bytes_per_invocation)
    if isinstance(node, StreamNode):
        return stream_cycles(board, model, node)
    if isinstance(node, ComputeNode):
        return pipeline_cycles(node)
    return 0.0


def _groups(schedule: Schedule) -> List[StageGroup]:
    """All stage groups of the tree, materialised before any mutation."""
    return [node for node in schedule.walk() if isinstance(node, StageGroup)]


def _absorbed_modules(node: ScheduleNode) -> List:
    """Every hardware module a node carries (own plus absorbed)."""
    modules = [node.module] if node.module is not None else []
    modules.extend(node.extra_modules)
    return modules


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------


def _coalesceable(previous: Optional[ScheduleNode], stage: ScheduleNode) -> bool:
    return (
        isinstance(stage, TransferNode)
        and isinstance(previous, TransferNode)
        and previous.direction == stage.direction
        and previous.burst_bytes == stage.burst_bytes
    )


class CoalesceTransfers(ScheduleTransformation):
    """Merge adjacent same-direction transfers into one larger burst.

    Two tile loads issued back to back inside a sequential or metapipeline
    group hit the same DRAM channel anyway; issuing them as one transfer
    saves one round-trip latency per invocation and frees the channel for
    the stages contending with it.  Parallel groups are left alone — their
    stages are semantically concurrent, not back-to-back.  Total bytes (and
    therefore traffic) are preserved by construction; the partner's command
    generator is absorbed into ``extra_modules`` so the hardware inventory
    is too.
    """

    name = "coalesce-transfers"

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(SequentialSchedule, MetapipelineSchedule),
            where=lambda group: not isinstance(group, ParallelSchedule)
            and any(_coalesceable(a, b) for a, b in zip(group.stages, group.stages[1:])),
            description="sequential group with adjacent same-direction transfers",
        )

    def fire(self, schedule: Schedule, model: PerformanceModel) -> int:
        hits = 0
        for group in _groups(schedule):
            if isinstance(group, ParallelSchedule) or len(group.stages) < 2:
                continue
            merged: List[ScheduleNode] = []
            for stage in group.stages:
                previous = merged[-1] if merged else None
                if _coalesceable(previous, stage):
                    merged[-1] = self._merge(previous, stage)
                    hits += 1
                else:
                    merged.append(stage)
            group.stages = merged
        return hits

    @staticmethod
    def _merge(first: TransferNode, second: TransferNode) -> TransferNode:
        extra = list(first.extra_modules)
        extra.extend(_absorbed_modules(second))
        return TransferNode(
            name=f"{first.name}+{second.name}",
            module=first.module,
            extra_modules=extra,
            direction=first.direction,
            bytes_per_invocation=first.bytes_per_invocation + second.bytes_per_invocation,
            burst_bytes=first.burst_bytes,
            # A source-less constituent is identified by its node name —
            # the same fallback the traffic inventory uses — so the
            # legality checker's source-set comparison stays exact.
            source="+".join(t.source or t.name for t in (first, second)),
            destination="+".join(
                part for part in (first.destination, second.destination) if part
            ),
        )


class RebalanceStages(ScheduleTransformation):
    """Split bottleneck group stages and merge under-full neighbours.

    Guided by per-stage cycle costs from the selected oracle
    (``cost_source``): the analytical closed forms (:func:`node_cycles`,
    the default) or measured event-backend stage profiles — mean
    begin-to-done durations including DRAM contention waits and
    backpressure effects, so a stage the closed forms call cheap but the
    timeline shows contention-bound is balanced at its observed weight:

    * **split** — a metapipeline stage that is itself a sequential group
      (one iteration, several children) and costs more than
      ``balance_factor ×`` every other stage is serialising work the
      metapipeline could overlap; its children become stages of their own;
    * **merge** — two adjacent stages each estimated below
      ``slowest / balance_factor`` whose combined estimate stays at or
      below the slowest stage fold into one sequential stage: one fewer
      per-iteration sync handshake and a shorter fill, while the
      steady-state period (the slowest stage) is unchanged.
    """

    name = "rebalance-stages"

    def __init__(
        self,
        balance_factor: float = DEFAULT_BALANCE_FACTOR,
        cost_source: str = "analytical",
    ) -> None:
        if balance_factor < 1.0:
            raise ValueError(f"balance_factor must be >= 1.0, got {balance_factor}")
        if cost_source not in COST_SOURCES:
            raise ValueError(
                f"unknown cost_source {cost_source!r}; choose from {list(COST_SOURCES)}"
            )
        self.balance_factor = balance_factor
        self.cost_source = cost_source

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(MetapipelineSchedule,),
            where=lambda group: group.iterations > 1 and len(group.stages) >= 2,
            description="iterated metapipeline with >= 2 stages",
        )

    def signature(self) -> str:
        return f"{type(self).__name__}[bf={self.balance_factor},cs={self.cost_source}]"

    def _profiles(
        self, schedule: Schedule, model: PerformanceModel
    ) -> Optional[Dict[int, StageProfile]]:
        if self.cost_source != "event":
            return None
        return EventScheduleBackend(model).profile_schedule(schedule)

    def _stage_costs(
        self,
        group: MetapipelineSchedule,
        board,
        model,
        profiles: Optional[Dict[int, StageProfile]],
    ) -> List[float]:
        """Per-stage costs from the profile when one covers the group.

        Falls back to the analytical closed forms for groups the profile
        missed (a nested metapipeline that never executed) or whose stage
        list no longer matches (the tree changed since profiling).
        """
        if profiles is not None:
            profile = profiles.get(id(group))
            if profile is not None and len(profile.durations) == len(group.stages):
                return list(profile.durations)
        return [node_cycles(stage, board, model) for stage in group.stages]

    def fire(self, schedule: Schedule, model: PerformanceModel) -> int:
        board = schedule.board
        hits = 0
        profiles = self._profiles(schedule, model)
        for group in _groups(schedule):
            if not isinstance(group, MetapipelineSchedule) or group.iterations <= 1:
                continue
            split_hits = self._split(
                group, board, model, self._stage_costs(group, board, model, profiles)
            )
            if split_hits and profiles is not None:
                # The tree changed: measure the new stages before merging
                # instead of mixing measured and stale costs.
                profiles = self._profiles(schedule, model)
            hits += split_hits
            hits += self._merge(
                group, board, model, self._stage_costs(group, board, model, profiles)
            )
        return hits

    def _split(self, group: MetapipelineSchedule, board, model, costs: List[float]) -> int:
        hits = 0
        stages: List[ScheduleNode] = []
        for index, stage in enumerate(group.stages):
            rest = max((c for i, c in enumerate(costs) if i != index), default=0.0)
            if (
                isinstance(stage, SequentialSchedule)
                and stage.iterations == 1
                and len(stage.stages) >= 2
                and costs[index] > self.balance_factor * rest
            ):
                # The group's controller is absorbed by its first child so
                # the module inventory survives the split.
                head = stage.stages[0]
                head.extra_modules = _absorbed_modules(stage) + list(head.extra_modules)
                stages.extend(stage.stages)
                hits += 1
            else:
                stages.append(stage)
        group.stages = stages
        return hits

    def _merge(self, group: MetapipelineSchedule, board, model, costs: List[float]) -> int:
        hits = 0
        stages = list(group.stages)
        costs = list(costs)
        while len(stages) > 2:
            slowest = max(costs)
            threshold = slowest / self.balance_factor
            best_index = -1
            best_combined = float("inf")
            for i in range(len(stages) - 1):
                combined = costs[i] + costs[i + 1]
                if costs[i] < threshold and costs[i + 1] < threshold and combined <= slowest:
                    if combined < best_combined:
                        best_combined = combined
                        best_index = i
            if best_index < 0:
                break
            a, b = stages[best_index], stages[best_index + 1]
            merged = SequentialSchedule(
                name=f"{a.name}+{b.name}", stages=[a, b], iterations=1
            )
            stages[best_index : best_index + 2] = [merged]
            costs[best_index : best_index + 2] = [best_combined]
            hits += 1
        group.stages = stages
        return hits


class FlattenDegenerateGroups(ScheduleTransformation):
    """Collapse one-stage, one-iteration groups onto their only child.

    The hardware generator wraps single-pattern bodies in their own
    controllers; once the schedule is explicit those groups are pure
    nesting — they time identically to their child and cost a controller
    sync in the metapipeline recurrence.  The child absorbs the group's
    controller module, keeping the inventory whole.
    """

    name = "flatten-degenerate-groups"

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(StageGroup,),
            where=lambda group: len(group.stages) == 1 and group.iterations == 1,
            description="single-stage single-iteration group",
        )

    def fire(self, schedule: Schedule, model: PerformanceModel) -> int:
        hits = 0

        def flatten(node: ScheduleNode) -> ScheduleNode:
            nonlocal hits
            if isinstance(node, StageGroup):
                node.stages = [flatten(stage) for stage in node.stages]
                # Exactly one iteration: a zero-iteration group's body never
                # runs, so replacing it with its child would *start* it.
                if len(node.stages) == 1 and node.iterations == 1:
                    child = node.stages[0]
                    child.extra_modules = _absorbed_modules(node) + list(
                        child.extra_modules
                    )
                    hits += 1
                    return child
            return node

        schedule.root = flatten(schedule.root)
        return hits


# ---------------------------------------------------------------------------
# Legality: the preservation invariants every rewrite must uphold
# ---------------------------------------------------------------------------


def verify_rewrite(original: Schedule, rewritten: Schedule) -> None:
    """Assert the rewritten schedule preserves what rewrites must not change.

    Raises :class:`~repro.errors.ScheduleRewriteError` when the memory
    inventory, the hardware module multiset, the total DRAM traffic per
    direction, or the set of transferred source arrays differ between the
    schedules.
    The checks are exact — a rewriter that loses a transfer's bytes, drops
    a command generator or forgets a double buffer fails loudly rather
    than silently reporting optimistic cycles.
    """
    from repro.analysis.traffic import schedule_traffic

    if [id(memory) for memory in original.memories] != [
        id(memory) for memory in rewritten.memories
    ]:
        raise ScheduleRewriteError(
            f"rewrite of {original.name!r} changed the memory inventory "
            f"({len(original.memories)} -> {len(rewritten.memories)} records)"
        )

    before = Counter(id(module) for module in original.modules())
    after = Counter(id(module) for module in rewritten.modules())
    if before != after:
        lost = sum((before - after).values())
        gained = sum((after - before).values())
        raise ScheduleRewriteError(
            f"rewrite of {original.name!r} changed the module inventory "
            f"({lost} module(s) lost, {gained} gained)"
        )

    traffic_before = schedule_traffic(original)
    traffic_after = schedule_traffic(rewritten)
    for label, a, b in (
        ("read", traffic_before.read_bytes, traffic_after.read_bytes),
        ("write", traffic_before.write_bytes, traffic_after.write_bytes),
    ):
        if a != b:
            raise ScheduleRewriteError(
                f"rewrite of {original.name!r} changed total DRAM {label} "
                f"traffic: {a:,} -> {b:,} bytes"
            )

    def source_set(inventory) -> frozenset:
        # Coalesced transfers join their sources with '+': every
        # constituent array must still be transferred somewhere.
        return frozenset(
            source
            for record in inventory.records
            for source in (record.source or record.name).split("+")
        )

    if source_set(traffic_before) != source_set(traffic_after):
        raise ScheduleRewriteError(
            f"rewrite of {original.name!r} dropped (or invented) a DRAM source array"
        )


# ---------------------------------------------------------------------------
# The rounds loop and the composite
# ---------------------------------------------------------------------------


@dataclass
class RewriteResult:
    """Outcome of rewriting one schedule."""

    original: Schedule
    schedule: Schedule
    hits: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    #: The balance factor the rebalancer actually ran with — the tuned
    #: value when ``balance_factor="auto"`` selected one per schedule.
    balance_factor: Optional[float] = None

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def changed(self) -> bool:
        return self.total_hits > 0

    def summary(self) -> str:
        fired = ", ".join(f"{name}×{count}" for name, count in self.hits.items() if count)
        return (
            f"rewrite {self.schedule.name}: {self.total_hits} hits in "
            f"{self.rounds} round(s)" + (f" ({fired})" if fired else " (no-op)")
        )


def tune_balance_factor(
    schedule: Schedule,
    model: Optional[PerformanceModel] = None,
    candidates: Sequence[float] = BALANCE_FACTOR_CANDIDATES,
    cost_source: str = "analytical",
) -> float:
    """Pick the balance factor that minimises event-backend cycles.

    Rewrites a clone of ``schedule`` once per candidate factor and scores
    each outcome with the event backend (the model whose overlap, stall
    and contention effects rebalancing actually changes).  Deterministic:
    candidates are scored in order and a later candidate must be strictly
    better to displace an earlier one, so ties resolve to the smallest
    factor — the most conservative rebalancing among equals.
    """
    model = model or PerformanceModel()
    backend = EventScheduleBackend(model)
    best_factor = None
    best_cycles = float("inf")
    for factor in candidates:
        result = rewrite_schedule(
            schedule, model, balance_factor=factor, cost_source=cost_source
        )
        cycles = backend.run(result.schedule).cycles
        if cycles < best_cycles:
            best_cycles = cycles
            best_factor = factor
    return best_factor if best_factor is not None else DEFAULT_BALANCE_FACTOR


def rewrite_schedule(
    schedule: Schedule,
    model: Optional[PerformanceModel] = None,
    rewrites: Optional[Sequence[ScheduleTransformation]] = None,
    balance_factor: Union[float, str] = DEFAULT_BALANCE_FACTOR,
    cost_source: str = "analytical",
) -> RewriteResult:
    """Rewrite one schedule with the default (or a custom) rule sequence.

    The input schedule is cloned first — the design's cached schedule (and
    everything keyed on it, including the golden analytical numbers) is
    never mutated.  The rules run in order, the whole sequence repeating
    up to ``MAX_ROUNDS`` times or until a round fires nothing.  The
    preservation invariants are asserted once, on the final schedule.

    ``balance_factor="auto"`` tunes the factor per schedule first
    (:func:`tune_balance_factor`); ``cost_source`` selects the
    rebalancer's stage-cost oracle (``"analytical"`` closed forms or
    measured ``"event"`` profiles).  Both only shape the default rule
    sequence — an explicit ``rewrites`` list is used as given.
    """
    model = model or PerformanceModel()
    factor = balance_factor
    if factor == "auto":
        factor = tune_balance_factor(schedule, model, cost_source=cost_source)
    if rewrites is None:
        # Flattening can expose coalescing opportunities and coalescing
        # feeds rebalancing, so one round runs them in that order.
        rewrites = [
            FlattenDegenerateGroups(),
            CoalesceTransfers(),
            RebalanceStages(balance_factor=factor, cost_source=cost_source),
        ]
    working = clone_schedule(schedule)
    hits: Dict[str, int] = {rule.name: 0 for rule in rewrites}
    rounds = 0
    for _ in range(MAX_ROUNDS):
        fired = 0
        for rule in rewrites:
            count = rule.fire(working, model)
            hits[rule.name] += count
            fired += count
        rounds += 1
        if fired == 0:
            break
    verify_rewrite(schedule, working)
    result = RewriteResult(
        original=schedule,
        schedule=working,
        hits=hits,
        rounds=rounds,
        balance_factor=factor,
    )
    if result.changed:
        working.notes.append(result.summary())
    return result


class ScheduleRewrite(ScheduleTransformation):
    """The composite schedule rewriter: flatten, coalesce, rebalance to quiescence.

    Runs as the ``rewrite-schedule`` stage of the ``rewrite`` and
    ``rewrite-profiled`` pipeline variants.  Besides per-rule hit counts,
    rounds, the resolved balance factor and the cost source, its pipeline
    report records the event-backend cycles before and after the rewrite
    (``event_cycles_before`` / ``event_cycles_after``).  That measurement
    only feeds the report: :meth:`apply` skips it, which is what batched
    evaluation calls.

    ``balance_factor`` may be a number or ``"auto"`` (tune per schedule by
    scoring rewritten candidates with the event backend); ``cost_source``
    picks the rebalancer's stage-cost oracle.
    """

    name = "rewrite-schedule"

    def __init__(
        self,
        balance_factor: Union[float, str] = DEFAULT_BALANCE_FACTOR,
        cost_source: str = "analytical",
    ) -> None:
        self.balance_factor = balance_factor
        self.cost_source = cost_source

    def pattern(self) -> ShapePattern:
        # The composite fires anywhere its constituents would; matching a
        # group is enough for the ordering search to consider it.
        return ShapePattern(kinds=(StageGroup,), description="any stage group (composite)")

    def rewrite(self, schedule: Schedule, ctx) -> RewriteResult:
        return rewrite_schedule(
            schedule,
            model=self._model(ctx),
            balance_factor=self.balance_factor,
            cost_source=self.cost_source,
        )

    def details(self, schedule: Schedule, result: RewriteResult, ctx) -> Dict[str, object]:
        before = EventScheduleBackend(ctx.model).run(schedule).cycles
        # No rewrite fired: the schedules are structurally identical, so
        # one event run prices both.
        after = (
            EventScheduleBackend(ctx.model).run(result.schedule).cycles
            if result.changed
            else before
        )
        return {
            **super().details(schedule, result, ctx),
            "balance_factor": result.balance_factor,
            "cost_source": self.cost_source,
            "event_cycles_before": before,
            "event_cycles_after": after,
        }

    def signature(self) -> str:
        return f"{type(self).__name__}[bf={self.balance_factor},cs={self.cost_source}]"
