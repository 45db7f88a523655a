"""Split strip-mining: re-tile an inner tile pattern into sub-tiles.

The first transformation only the declarative framework enables (the
DaCe ``StripMining``/splitting exemplar, SNIPPETS.md snippet 1): after
Table 1 strip mining, each tiled pattern is a two-level nest — an outer
strided pattern over tiles of size ``b`` and an inner pattern over one
tile.  *Split* strip-mining applies the Table 1 rules **again** to the
inner tile pattern, splitting each ``b``-sized tile into ``factor``
sub-tiles of size ``b / factor``: a three-level nest whose innermost
working set is smaller, trading buffer pressure for loop overhead — a
different point on the same legality surface, exactly the kind of
ordering-dependent choice the DSE's ``pipeline`` gene explores.

Semantics preservation falls out of the Table 1 rules themselves (the
partial-tile ``min`` clamps compose: the sub-tile domain is
``min(b/factor, min(b, d - ii) - jj)``); the regression tests check the
interpreter agrees bit-for-bit on every benchmark the split fires on.

Implemented directly on the framework — pattern (an inner tile pattern),
legality (statically divisible tile, a fold's combine present where the
rules need one), site-level apply reusing
:meth:`~repro.transforms.strip_mining.StripMine.strip_pattern` with
explicit per-axis plans.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ppl.ir import BinOp, Const, FlatMap, Map, MultiFold, Node, Pattern
from repro.ppl.program import Program
from repro.ppl.traversal import rebuild
from repro.rewrite.framework import Match, PplTransformation, ShapePattern
from repro.transforms.strip_mining import AxisPlan, StripMine

__all__ = ["SplitStripMining", "DEFAULT_SPLIT_FACTOR"]

#: Sub-tiles per tile when no factor is given: halving keeps every
#: power-of-two tile size legal.
DEFAULT_SPLIT_FACTOR = 2


def _clamped_tile(extent) -> Optional[int]:
    """The static tile size of an inner-domain extent, if this axis is tiled.

    Tiled axes of an inner domain carry the partial-tile clamp
    ``min(Const(b), d - ii)``; the Const operand is the tile size.  Any
    other extent shape means the axis was left untiled.
    """
    if isinstance(extent, BinOp) and extent.op == "min":
        for side in (extent.lhs, extent.rhs):
            if isinstance(side, Const) and isinstance(side.value, int):
                return side.value
    return None


class SplitStripMining(PplTransformation):
    """Re-apply Table 1 to inner tile patterns, splitting tiles into sub-tiles."""

    name = "split-strip-mine"
    requires_tiling = True

    def __init__(self, factor: int = DEFAULT_SPLIT_FACTOR) -> None:
        if factor < 2:
            raise ValueError(f"split factor must be >= 2, got {factor}")
        self.factor = factor

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(Map, MultiFold, FlatMap),
            where=lambda node: node.meta.get("strip_level") == "inner"
            and "split_level" not in node.meta
            and not node.domain.is_strided,
            description="inner tile pattern, not yet split",
        )

    def _plans(self, node: Pattern) -> Optional[List[AxisPlan]]:
        plans: List[AxisPlan] = []
        any_split = False
        for extent in node.domain.dims:
            tile = _clamped_tile(extent)
            sub = None
            if tile is not None and tile % self.factor == 0:
                sub = tile // self.factor
                if sub >= 2:
                    any_split = True
                else:
                    sub = None
            plans.append(AxisPlan(extent, sub))
        return plans if any_split else None

    def can_apply(self, program, match: Match, ctx) -> bool:
        node: Pattern = match.node
        plans = self._plans(node)
        if plans is None:
            return False
        # Table 1's MultiFold rule needs an associative combine to merge
        # sub-tile partial accumulators.
        if isinstance(node, MultiFold) and node.combine is None:
            return False
        match.payload["plans"] = plans
        return True

    def apply_at(self, program, match: Match, ctx) -> Node:
        node: Pattern = match.node
        plans = match.payload.get("plans") or self._plans(node)
        replacement = StripMine().strip_pattern(node, plans, ctx.config)
        # Tag the new two-level nest so it never re-matches: the outer
        # keeps the original tile metadata (it *is* still the tile loop),
        # the fresh sub-tile pattern is marked as the split level.
        replacement.with_meta(
            split_level="outer",
            split_factor=self.factor,
            sub_tile_sizes=tuple(plan.tile for plan in plans),
        )
        inner = self._fresh_inner(replacement)
        if inner is not None:
            inner.with_meta(split_level="inner", split_factor=self.factor)
        return replacement

    @staticmethod
    def _fresh_inner(replacement: Pattern) -> Optional[Pattern]:
        """The sub-tile pattern a Table 1 rule just constructed.

        Per-rule placement (see ``StripMine``): Map and FlatMap put
        the inner pattern directly in the function body; MultiFold binds it
        as the ``tile`` Let value of the outer value function.
        """
        if isinstance(replacement, (Map, FlatMap)):
            body = replacement.func.body
            return body if isinstance(body, Pattern) else None
        if isinstance(replacement, MultiFold):
            body = replacement.value_func.body
            value = getattr(body, "value", None)
            if isinstance(value, Pattern):
                return value
            return body if isinstance(body, Pattern) else None
        return None

    def apply(self, program: Program, ctx) -> Program:
        """Split every matching tile pattern once, bottom-up.

        Children first, so nests tucked inside other tile patterns (a fold
        tile inside a map tile) split in the same application; replacements
        are never re-visited, and the ``split_level`` guard keeps freshly
        built nests from re-matching on later applications.
        """
        applied = 0
        pattern = self.pattern()

        def go(node: Node) -> Node:
            nonlocal applied
            new_values = {}
            changed = False
            for name in node._fields:
                old = getattr(node, name)
                if isinstance(old, Node):
                    new = go(old)
                elif isinstance(old, tuple):
                    new = tuple(go(v) if isinstance(v, Node) else v for v in old)
                    if all(a is b for a, b in zip(old, new)):
                        new = old
                else:
                    new = old
                new_values[name] = new
                if new is not old:
                    changed = True
            result = rebuild(node, new_values) if changed else node
            if pattern.matches_node(result):
                match = Match(result)
                if self.can_apply(program, match, ctx):
                    applied += 1
                    return self.apply_at(program, match, ctx)
            return result

        body = go(program.body)
        self.last_applied = applied
        return self.with_body(program, body)

    def config_key(self, ctx) -> Tuple:
        from repro.dse.cache import config_signature

        return (config_signature(ctx.config), self.factor)

    def signature(self) -> str:
        return f"{type(self).__name__}[x{self.factor}]"
