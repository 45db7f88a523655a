"""repro.rewrite — the declarative pattern-matching transformation framework.

One :class:`~repro.rewrite.framework.Transformation` protocol over both
IRs (pattern → legality → apply → cost delta), split strip-mining, and the
legal-ordering search the DSE sweeps through the ``pipeline`` gene.  The
Section 4 transformations live in :mod:`repro.transforms` and the schedule
rules in :mod:`repro.schedule.rewrite`, each next to its helpers.  See the
module docstrings of :mod:`repro.rewrite.framework` and
:mod:`repro.rewrite.orderings`.
"""

from repro.rewrite.framework import (
    CostDelta,
    Match,
    PplTransformation,
    ScheduleTransformation,
    ShapePattern,
    Transformation,
    TransformationError,
    find_matches,
    ir_size,
)
from repro.rewrite.orderings import (
    AUTO_PREFIX,
    DEFAULT_ORDERING,
    STEPS,
    enumerate_legal_orderings,
    guided_orderings,
    is_legal_ordering,
    ordering_name,
    parse_ordering_name,
    pipeline_for_name,
    pipeline_for_ordering,
)
from repro.rewrite.splitting import SplitStripMining

__all__ = [
    "AUTO_PREFIX",
    "CostDelta",
    "DEFAULT_ORDERING",
    "Match",
    "PplTransformation",
    "STEPS",
    "ScheduleTransformation",
    "ShapePattern",
    "SplitStripMining",
    "Transformation",
    "TransformationError",
    "enumerate_legal_orderings",
    "find_matches",
    "guided_orderings",
    "ir_size",
    "is_legal_ordering",
    "ordering_name",
    "parse_ordering_name",
    "pipeline_for_name",
    "pipeline_for_ordering",
]
