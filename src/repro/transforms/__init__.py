"""Parallel pattern transformations (Section 4 of the paper).

Each module defines its transformation once, as a framework
:class:`~repro.rewrite.framework.PplTransformation` that owns its pattern,
legality check and rewrite, next to the helpers it uses:

* :mod:`repro.transforms.fusion` — :class:`VerticalFusion` of
  producer/consumer patterns (assumed to have already run before tiling in
  the paper).
* :mod:`repro.transforms.cse` — :class:`LetCse`, common subexpression
  elimination over Lets.
* :mod:`repro.transforms.code_motion` — :class:`InvariantCodeMotion`,
  loop-invariant code motion of Lets out of patterns.
* :mod:`repro.transforms.strip_mining` — :class:`StripMine`, the Table 1
  strip-mining rules, and :class:`TileCopies`, which converts predictable
  accesses into explicit tile copies (Table 2).
* :mod:`repro.transforms.interchange` — :class:`Interchange`, the two
  pattern-interchange rules and the split heuristic (Table 3, Figure 5).
* :mod:`repro.transforms.tiling` — :class:`TilingDriver`, the paper's
  automatic tiling flow written out by hand over the classes above.
"""

from repro.transforms.cse import LetCse, eliminate_common_subexpressions
from repro.transforms.code_motion import InvariantCodeMotion, hoist_invariant_lets
from repro.transforms.fusion import VerticalFusion, fuse
from repro.transforms.strip_mining import AxisPlan, StripMine, TileCopies, strip_mine
from repro.transforms.interchange import Interchange, interchange
from repro.transforms.tiling import TilingDriver, tile_program

__all__ = [
    "AxisPlan",
    "Interchange",
    "InvariantCodeMotion",
    "LetCse",
    "StripMine",
    "TileCopies",
    "TilingDriver",
    "VerticalFusion",
    "eliminate_common_subexpressions",
    "fuse",
    "hoist_invariant_lets",
    "interchange",
    "strip_mine",
    "tile_program",
]
