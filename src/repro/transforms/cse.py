"""Common subexpression elimination.

The paper assumes CSE has run before and after strip mining ("We assume in
these examples that CSE and code motion transformation passes have been run
after strip mining to eliminate duplicate copies...").  Duplicate tile copies
are exactly what this pass removes: when two Lets in the same scope bind
structurally identical values (e.g. two identical ``x.copy(b + ii)`` nodes
produced while strip mining different accesses of the same array), the second
binding is dropped and its uses are redirected to the first.

The pass also deduplicates identical Let values nested directly under one
another and removes Lets whose bound symbol is never used (dead-copy
elimination).
"""

from __future__ import annotations

from typing import List

from repro.ppl.ir import Expr, Let, Node, Sym
from repro.ppl.program import Program
from repro.ppl.traversal import Transformer, free_syms, structurally_equal, substitute
from repro.rewrite.framework import Match, PplTransformation, ShapePattern

__all__ = ["LetCse", "eliminate_common_subexpressions"]


class _LetCSE(Transformer):
    """Rewrites Let chains, reusing previously bound structurally-equal values."""

    kinds = (Let,)

    def transform(self, node: Node) -> Node:
        if isinstance(node, Let):
            return self._transform_let_chain(node, [])
        return super().transform(node)

    def _transform_let_chain(self, node: Let, available: List[tuple[Sym, Expr]]) -> Node:
        value = super().transform(node.value)

        for bound_sym, bound_value in available:
            if structurally_equal(bound_value, value):
                body = substitute(node.body, {node.sym: bound_sym})
                return self._continue(body, available)

        body = self._continue(node.body, available + [(node.sym, value)])
        if node.sym not in free_syms(body):
            return body
        return Let(node.sym, value, body)

    def _continue(self, body: Expr, available: List[tuple[Sym, Expr]]) -> Node:
        if isinstance(body, Let):
            return self._transform_let_chain(body, available)
        return super().transform(body)


class LetCse(PplTransformation):
    """Drop duplicate and dead Let bindings (duplicate tile copies)."""

    name = "cse"
    requires_tiling = True

    def pattern(self) -> ShapePattern:
        return ShapePattern(kinds=(Let,), description="Let chain head")

    def can_apply(self, program, match: Match, ctx) -> bool:
        # The chain rewriter is its own cheapest oracle: a site is legal
        # exactly when rewriting its chain changes something.
        return _LetCSE().transform(match.node) is not match.node

    def apply(self, program: Program, ctx=None) -> Program:
        """Rewrite every Let chain of the program; reads no context."""
        return self.with_body(program, _LetCSE().transform(program.body))


def eliminate_common_subexpressions(program: Program) -> Program:
    """Convenience function form of :class:`LetCse`."""
    return LetCse().apply(program)
