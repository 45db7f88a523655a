"""Loop-invariant code motion over parallel patterns.

After strip mining and interchange, Let bindings (tile copies, intermediate
results) can end up inside patterns even though their values do not depend on
the pattern's indices.  Leaving them there would re-issue the tile load on
every iteration.  This pass hoists such Lets out of the pattern functions —
the paper's "code motion ... to move array tiles out of the innermost
patterns".

A Let may be hoisted out of a pattern function when its value references
neither the pattern's index symbols, nor the accumulator symbol, nor any Let
bound between the function entry and the binding itself.
"""

from __future__ import annotations

from typing import List

from repro.ppl.ir import Expr, FlatMap, GroupByFold, Lambda, Let, Map, MultiFold, Pattern
from repro.ppl.program import Program
from repro.ppl.traversal import Transformer, free_syms, rebuild
from repro.rewrite.framework import Match, PplTransformation, ShapePattern

__all__ = ["InvariantCodeMotion", "hoist_invariant_lets"]


def _split_invariant_lets(body: Expr, bound_syms: set) -> tuple[List[Let], Expr]:
    """Peel leading Lets off ``body`` that do not reference ``bound_syms``.

    Returns the hoistable Lets (outermost first) and the remaining body.  A
    Let that depends on an earlier non-hoistable Let stays put.
    """
    hoisted: List[Let] = []
    blocked: set = set(bound_syms)
    remaining_prefix: List[Let] = []
    current = body

    while isinstance(current, Let):
        value_free = free_syms(current.value)
        if value_free & blocked:
            remaining_prefix.append(current)
            blocked.add(current.sym)
        else:
            hoisted.append(current)
        current = current.body

    # Rebuild the non-hoisted prefix around the remaining body.
    rebuilt = current
    for let in reversed(remaining_prefix):
        rebuilt = Let(let.sym, let.value, rebuilt)
    return hoisted, rebuilt


def _wrap(lets: List[Let], body: Expr) -> Expr:
    result = body
    for let in reversed(lets):
        result = Let(let.sym, let.value, result)
    return result


class _PatternLICM(Transformer):
    """Hoists invariant Lets out of each pattern's functions."""

    def _hoist_from_pattern(self, pattern: Pattern) -> Expr:
        funcs: dict[str, Lambda] = {
            name: value
            for name, value in pattern.field_values().items()
            if isinstance(value, Lambda)
        }
        all_hoisted: List[Let] = []
        new_fields: dict[str, object] = {}
        for name, func in funcs.items():
            bound = set(func.params)
            hoisted, new_body = _split_invariant_lets(func.body, bound)
            all_hoisted.extend(hoisted)
            if hoisted:
                new_fields[name] = Lambda(func.params, new_body)
        if not all_hoisted:
            return pattern
        new_pattern = rebuild(pattern, new_fields)
        return _wrap(all_hoisted, new_pattern)

    def rewrite_Map(self, node: Map):
        return self._hoist_from_pattern(node)

    def rewrite_MultiFold(self, node: MultiFold):
        return self._hoist_from_pattern(node)

    def rewrite_FlatMap(self, node: FlatMap):
        return self._hoist_from_pattern(node)

    def rewrite_GroupByFold(self, node: GroupByFold):
        return self._hoist_from_pattern(node)


class InvariantCodeMotion(PplTransformation):
    """Hoist pattern-invariant Lets (array tiles) out of pattern functions."""

    name = "code-motion"
    requires_tiling = True

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(Map, MultiFold, FlatMap, GroupByFold),
            description="pattern with Lambda functions",
        )

    def can_apply(self, program, match: Match, ctx) -> bool:
        pattern: Pattern = match.node
        for value in pattern.field_values().values():
            if not isinstance(value, Lambda):
                continue
            hoisted, _ = _split_invariant_lets(value.body, set(value.params))
            if hoisted:
                return True
        return False

    def apply(self, program: Program, ctx=None) -> Program:
        """Hoist to a fixed point (capped at ten sweeps); reads no context.

        Hoisting out of an inner pattern can expose a hoist out of the
        enclosing pattern, hence the iteration.
        """
        body = program.body
        for _ in range(10):
            new_body = _PatternLICM().transform(body)
            if new_body is body:
                break
            body = new_body
        return self.with_body(program, body)


def hoist_invariant_lets(program: Program) -> Program:
    """Convenience function form of :class:`InvariantCodeMotion`."""
    return InvariantCodeMotion().apply(program)
