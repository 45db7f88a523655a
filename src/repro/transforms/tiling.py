"""The automatic tiling driver: strip mining → cleanup → interchange → cleanup.

This is the "Pattern Transformations" box of Figure 1.  Given a fused PPL
program and a :class:`~repro.config.CompileConfig`, the driver runs

1. strip mining (Table 1) and tile-copy insertion (Table 2),
2. CSE and code motion ("to eliminate duplicate copies and to move array
   tiles out of the innermost patterns"),
3. pattern interchange with the on-chip-size split heuristic (Table 3,
   Figure 5),
4. CSE and code motion again ("we assume that code motion has been run again
   after pattern interchange has completed").

The driver records the intermediate program after every step so that tests,
benchmarks and examples can inspect (and print) the strip-mined and
interchanged forms exactly as the paper's tables do.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro.config import CompileConfig
from repro.dse.cache import ANALYSIS_CACHE, config_signature
from repro.ppl.program import Program
from repro.transforms.code_motion import InvariantCodeMotion
from repro.transforms.cse import LetCse
from repro.transforms.fusion import VerticalFusion
from repro.transforms.interchange import Interchange
from repro.transforms.strip_mining import StripMine, TileCopies

__all__ = ["TilingDriver", "TilingResult", "tile_program"]


@dataclass
class TilingResult:
    """The outcome of the tiling flow with all intermediate programs."""

    original: Program
    fused: Program
    strip_mined: Program
    interchanged: Program
    tiled: Program
    config: CompileConfig
    applied_interchanges: List[str] = field(default_factory=list)

    @property
    def program(self) -> Program:
        return self.tiled

    def stages(self) -> Dict[str, Program]:
        return {
            "original": self.original,
            "fused": self.fused,
            "strip_mined": self.strip_mined,
            "interchanged": self.interchanged,
            "tiled": self.tiled,
        }


class TilingDriver:
    """Runs the full tiling flow of Section 4."""

    def __init__(self, config: CompileConfig, run_fusion: bool = True) -> None:
        self.config = config
        self.run_fusion = run_fusion

    def run(self, program: Program) -> TilingResult:
        """Run the tiling flow, sharing results across equivalent requests.

        The flow is a pure function of the program structure and the
        tiling-relevant configuration (tile sizes and budgets — *not* the
        parallelisation factors or the metapipelining flag, which only
        affect hardware generation).  Design points that differ only in
        those knobs therefore share one tiling result through the global
        analysis cache; a hit returns the cached result rebound to the
        caller's config.
        """
        if not ANALYSIS_CACHE.enabled:
            return self._run(program)
        key = (
            program.body.structural_hash(),
            tuple(array.name for array in program.inputs),
            tuple(size.name for size in program.sizes),
            config_signature(self.config),
            self.run_fusion,
        )
        cached = ANALYSIS_CACHE.memoize("tiling_result", key, lambda: self._run(program))
        if cached.config is self.config:
            return cached
        return replace(
            cached,
            config=self.config,
            applied_interchanges=list(cached.applied_interchanges),
        )

    def _run(self, program: Program) -> TilingResult:
        from repro.pipeline.passes import PassContext

        ctx = PassContext(config=self.config)
        fused = VerticalFusion().apply(program, ctx) if self.run_fusion else program

        if not self.config.tiling:
            return TilingResult(
                original=program,
                fused=fused,
                strip_mined=fused,
                interchanged=fused,
                tiled=fused,
                config=self.config,
            )

        cse = LetCse()
        motion = InvariantCodeMotion()

        strip_mined = StripMine().apply(fused, ctx)
        strip_mined = TileCopies().apply(strip_mined, ctx)
        strip_mined = motion.apply(cse.apply(strip_mined, ctx), ctx)

        interchanged = Interchange().apply(strip_mined, ctx)
        tiled = motion.apply(cse.apply(interchanged, ctx), ctx)

        return TilingResult(
            original=program,
            fused=fused,
            strip_mined=strip_mined,
            interchanged=interchanged,
            tiled=tiled,
            config=self.config,
            applied_interchanges=list(ctx.artifacts["applied_interchanges"]),
        )


def tile_program(program: Program, config: CompileConfig, run_fusion: bool = True) -> Program:
    """Run the tiling flow and return only the final tiled program."""
    return TilingDriver(config, run_fusion=run_fusion).run(program).tiled
