"""Per-layer tracing for the benchmark: spans around the program's layer entry points.

The program has no spans of its own yet, so this module records them from
outside: :class:`Tracer` replaces each layer's public functions and methods
(listed in :data:`LAYERS`) with wrappers that time every call, and puts the
originals back on :meth:`Tracer.restore`.  A layer's *self time* is the
duration of its spans minus the time covered by the spans they enclose, so
the self times of all layers plus the time spent outside every span add up
to the traced wall time.  A wrapped method that calls the same layer's
method on the same arguments (an override calling ``super()``) opens no
second span, so ``calls`` counts each visit once.

Functions are patched wherever a loaded ``repro`` module holds a reference
to them (``from x import f`` copies the reference), methods on the class
that defines them and on every subclass that overrides them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (layer, module, attribute): ``attribute`` is ``func`` or ``Class.method``.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("apps.inputs", "repro.apps.base", "Benchmark.bindings"),
    ("ppl.traverse", "repro.ppl.traversal", "walk"),
    ("ppl.traverse", "repro.ppl.traversal", "collect"),
    ("ppl.traverse", "repro.ppl.traversal", "Transformer.transform"),
    ("ppl.traverse", "repro.ppl.ir", "Node.children"),
    ("ppl.hash", "repro.ppl.ir", "Node.structural_hash"),
    ("pipeline.compile", "repro.pipeline.session", "CompilerSession.compile"),
    ("pipeline.pass", "repro.pipeline.passes", "PipelinePass.run"),
    ("hw.generate", "repro.hw.generation", "HardwareGenerator.generate"),
    ("hw.preload_plan", "repro.hw.generation", "GenerationShared.preload_plan"),
    ("schedule.lower", "repro.schedule.lower", "build_schedule"),
    ("schedule.analytical", "repro.schedule.analytical", "AnalyticalScheduleBackend.run"),
    ("schedule.event", "repro.schedule.event", "EventScheduleBackend.run"),
    ("schedule.rewrite", "repro.schedule.rewrite", "rewrite_schedule"),
    ("schedule.batched", "repro.schedule.batched", "batched_cycles"),
    ("schedule.batched", "repro.schedule.batched", "batched_area"),
    ("dse.batch", "repro.dse.batch", "evaluate_point_batch"),
    ("dse.evaluate_point", "repro.dse.engine", "evaluate_point"),
    ("dse.cache", "repro.dse.cache", "AnalysisCache.memoize"),
    ("dse.cache", "repro.dse.cache", "AnalysisCache.load_disk"),
    ("dse.cache", "repro.dse.cache", "AnalysisCache.save_disk"),
    ("analysis.area", "repro.analysis.area", "estimate_area"),
    ("analysis.area", "repro.analysis.area", "estimate_area_of_schedule"),
    ("analysis.traffic", "repro.analysis.traffic", "schedule_traffic"),
    ("dse.prune", "repro.dse.space", "estimate_point_area"),
)

# Pipeline passes get one layer each, named after the pass instance.
PASS_PREFIX = "pipeline.pass."

# The passes of the ``default`` and ``rewrite`` pipelines, in pipeline order.
PASS_NAMES: Tuple[str, ...] = (
    "fusion",
    "strip-mine",
    "tile-copies",
    "cse",
    "code-motion",
    "interchange",
    "post-cse",
    "post-code-motion",
    "generate-hardware",
    "build-schedule",
    "rewrite-schedule",
    "estimate-area",
)

# Every layer name the traced run reports, pass layers excluded.
LAYER_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(name for name, _, _ in LAYERS if name != "pipeline.pass")
)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        out.append(current)
        todo.extend(current.__subclasses__())
    return out


class Tracer:
    """Wraps the layer entry points and accumulates calls and self time.

    ``phase`` names the benchmark phase being run; counters recorded with
    :meth:`count` are kept per phase.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.phase = ""
        # Open spans, innermost last: [child seconds, (layer, argument ids)].
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    def _enter(self, key: Optional[Tuple] = None) -> Tuple[list, float]:
        frame = [0.0, key]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name: str, frame: list, started: float, call: bool = True) -> None:
        duration = time.perf_counter() - started
        self._stack.pop()
        self.self_s[name] += duration - frame[0]
        if call:
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += duration

    def _wrap(self, fn: Callable, name: Optional[str], hook: Optional[Callable]) -> Callable:
        """A traced stand-in for ``fn``; ``name=None`` takes ``self.name``."""
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # Time each resume, not the caller's work between items.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                tracer.calls[name] += 1
                while True:
                    frame, started = tracer._enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(name, frame, started, call=False)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if name is not None else PASS_PREFIX + args[0].name
            key = (span, tuple(map(id, args)))
            if tracer._stack and tracer._stack[-1][1] == key:
                return fn(*args, **kwargs)  # the enclosing span covers it
            frame, started = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span, frame, started)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- installing ----------------------------------------------------------
    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _observe(self, fn: Callable, hook: Callable) -> Callable:
        """A stand-in for ``fn`` that runs ``hook`` but opens no span."""

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result

        return observed

    def _replace(self, module_name: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            for cls in _subclasses(getattr(module, cls_name)):
                if method in cls.__dict__:
                    self._patch(cls, method, make(cls.__dict__[method]))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "repro" or mod_name.startswith("repro."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def install(
        self,
        hooks: Optional[Dict[str, Callable]] = None,
        observers: Tuple[Tuple[str, str, Callable], ...] = (),
    ) -> None:
        """Wrap every entry point in :data:`LAYERS`.

        ``hooks`` maps an attribute (as written in :data:`LAYERS`) to a
        callable ``hook(args, kwargs, result)`` run after each call;
        ``observers`` are ``(module, attribute, hook)`` entries that run a
        hook after each call without opening a span.
        """
        hooks = hooks or {}
        for layer, module_name, attr in LAYERS:
            name = None if layer == "pipeline.pass" else layer
            hook = hooks.get(attr)
            self._replace(module_name, attr, lambda fn: self._wrap(fn, name, hook))
        for module_name, attr, hook in observers:
            self._replace(module_name, attr, lambda fn: self._observe(fn, hook))
        # Nested wrappers would double-count; every patch must be unique.
        seen = {(id(owner), attr) for owner, attr, _ in self._patches}
        if len(seen) != len(self._patches):
            raise RuntimeError("an entry point was wrapped twice")

    def restore(self) -> None:
        """Put every original function and method back (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)
