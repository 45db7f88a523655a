"""Pattern interchange (Section 4, Table 3, Figure 5).

After strip mining, the tile loops (strided patterns) sit *inside* the
unstrided patterns they were created under, so each data tile is still
reloaded on every iteration of the enclosing pattern.  Interchange moves
strided patterns out of unstrided patterns to increase tile reuse.

Two rewrites are implemented, adapted from the Collect-Reduce reordering rule
the paper cites:

* **Rule 1 — fold out of Map** (:func:`interchange_map_of_fold`): an
  unstrided ``Map`` whose body is a strided scalar fold becomes a strided
  fold of a ``Map``; the accumulator becomes a vector (one element per Map
  index) and the fold's combine function becomes an element-wise ``Map``.
  This is exactly the matrix-multiply transformation of Table 3.

* **Split + interchange** (:func:`split_and_interchange`): imperfectly nested
  patterns — an unstrided pattern whose *functions* contain a strided scalar
  fold alongside other work — are first split: the fold is pulled out and
  evaluated for the whole tile up front (producing an intermediate vector of
  results), then rule 1 is applied to that precomputation.  The split is only
  performed when the intermediate is statically known to fit on chip
  (``CompileConfig.split_budget``), the paper's heuristic.  This is the
  k-means transformation of Figure 5: the per-point ``minDistWithIndex``
  value becomes the per-tile ``minDistWithInds`` vector of size ``2·b0``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import CompileConfig
from repro.dse.cache import config_signature
from repro.ppl import builder as bld
from repro.ppl.ir import (
    ArrayApply,
    BinOp,
    Const,
    Domain,
    Expr,
    Full,
    Lambda,
    Let,
    MakeTuple,
    Map,
    MultiFold,
    Node,
    Pattern,
    Sym,
)
from repro.ppl.program import Program
from repro.ppl.traversal import Transformer, free_syms, rebuild, substitute
from repro.ppl.types import INDEX, TensorType, is_tuple
from repro.rewrite.framework import Match, PplTransformation, ShapePattern

__all__ = ["Interchange", "interchange", "interchange_map_of_fold", "split_and_interchange"]


def _zero_location(rank: int) -> Expr:
    if rank > 1:
        return MakeTuple(tuple(Const(0, INDEX) for _ in range(rank)))
    return Const(0, INDEX)


def _static_extent(extent: Expr) -> Optional[int]:
    """A static upper bound on a domain extent, if one exists.

    Tile-local domains carry the partial-tile clamp ``min(b, d - ii)``; the
    constant operand of the ``min`` is a valid static bound.
    """
    if isinstance(extent, Const) and isinstance(extent.value, int):
        return extent.value
    if isinstance(extent, BinOp) and extent.op == "min":
        bounds = [_static_extent(extent.lhs), _static_extent(extent.rhs)]
        known = [bound for bound in bounds if bound is not None]
        return min(known) if known else None
    return None


def _static_words(domain: Domain, element_ty) -> Optional[int]:
    """Number of scalar words of an intermediate over ``domain``, if static."""
    words = 1
    for extent in domain.dims:
        bound = _static_extent(extent)
        if bound is None:
            return None
        words *= bound
    fields = len(element_ty.fields) if is_tuple(element_ty) else 1
    return words * fields


# ---------------------------------------------------------------------------
# Rule 1: strided scalar fold out of an unstrided Map
# ---------------------------------------------------------------------------


def interchange_map_of_fold(node: Map) -> Optional[MultiFold]:
    """Apply interchange rule 1 when ``node`` is a Map of a strided scalar fold."""
    if node.domain.is_strided:
        return None
    fold = node.func.body
    if not isinstance(fold, MultiFold):
        return None
    if not fold.is_scalar_fold or not fold.domain.is_strided or fold.combine is None:
        return None

    map_params = set(node.func.params)
    if free_syms(fold.domain) & map_params or free_syms(fold.init) & map_params:
        return None

    dom = node.domain
    element_ty = fold.init.ty
    acc_array_ty = TensorType(element_ty, dom.rank)

    # The accumulator becomes one element per Map index, initialised with the
    # fold's identity value.
    init = Full(dom.dims, fold.init)

    # value function: for each strided index, update every element of the
    # accumulator array with the original fold step.
    acc_array = bld.sym("accTile", acc_array_ty)
    fold_step = substitute(
        fold.value_func.body,
        {fold.accumulator_sym: ArrayApply(acc_array, tuple(node.func.params))},
    )
    inner_map = Map(dom, Lambda(node.func.params, fold_step))
    inner_map.with_meta(interchanged_body=True)
    value_func = Lambda(tuple(fold.value_func.params[:-1]) + (acc_array,), inner_map)

    index_func = Lambda(fold.index_func.params, _zero_location(dom.rank))

    # combine function: element-wise application of the original combiner.
    left = bld.sym("a", acc_array_ty)
    right = bld.sym("b", acc_array_ty)
    combine_params = [bld.sym(p.name, INDEX) for p in node.func.params]
    combined_elem = substitute(
        fold.combine.body,
        {
            fold.combine.params[0]: ArrayApply(left, tuple(combine_params)),
            fold.combine.params[1]: ArrayApply(right, tuple(combine_params)),
        },
    )
    combine = Lambda((left, right), Map(Domain(dom.dims), Lambda(tuple(combine_params), combined_elem)))

    result = MultiFold(
        domain=fold.domain,
        rshape=dom.dims,
        init=init,
        index_func=index_func,
        value_func=value_func,
        combine=combine,
    )
    result.meta = dict(fold.meta)
    result.with_meta(interchanged=True, interchange_rule=1)
    return result


# ---------------------------------------------------------------------------
# Split + interchange for imperfectly nested patterns
# ---------------------------------------------------------------------------


def _function_fields(pattern: Pattern) -> Dict[str, Lambda]:
    return {
        name: value
        for name, value in pattern.field_values().items()
        if isinstance(value, Lambda)
    }


def _topmost_patterns(root: Node) -> List[Pattern]:
    """Patterns under ``root`` that are not nested within another pattern."""
    result: List[Pattern] = []

    def go(node: Node) -> None:
        if isinstance(node, Pattern):
            result.append(node)
            return
        for child in node.children():
            go(child)

    for child in root.children() if isinstance(root, Pattern) else [root]:
        go(child)
    return result


def _local_let_syms(root: Node, stop_at: Node) -> set:
    """Symbols bound by Lets under ``root`` but outside the ``stop_at`` subtree."""
    bound: set = set()

    def go(node: Node) -> None:
        if node is stop_at:
            return
        if isinstance(node, Let):
            bound.add(node.sym)
        for child in node.children():
            go(child)

    go(root)
    return bound


class _ReplaceNode(Transformer):
    """Replace one node (by identity) with another expression."""

    def __init__(self, target: Node, replacement: Expr) -> None:
        self.target = target
        self.replacement = replacement

    def transform(self, node: Node) -> Node:
        if node is self.target:
            return self.replacement
        return super().transform(node)


def split_and_interchange(pattern: Pattern, budget_words: int) -> Optional[Expr]:
    """Split a strided scalar fold out of an unstrided pattern's functions.

    Returns ``Let(intermediate, interchanged_fold_of_map, pattern')`` when the
    rewrite applies and the intermediate fits within ``budget_words``;
    otherwise ``None``.
    """
    if pattern.domain.is_strided:
        return None
    if not isinstance(pattern, (Map, MultiFold)):
        return None

    functions = _function_fields(pattern)
    for field_name, func in functions.items():
        if field_name == "combine":
            continue
        index_params = _index_params(pattern, field_name, func)
        if index_params is None:
            continue
        for candidate in _topmost_patterns(func.body):
            if not isinstance(candidate, MultiFold):
                continue
            if not candidate.is_scalar_fold or not candidate.domain.is_strided:
                continue
            if candidate.combine is None:
                continue
            if candidate is func.body and isinstance(pattern, Map):
                continue  # perfectly nested: rule 1 handles it directly
            candidate_free = free_syms(candidate)
            local_lets = _local_let_syms(func.body, candidate)
            if candidate_free & local_lets:
                continue
            acc_sym = _accumulator_sym(pattern, field_name, func)
            if acc_sym is not None and acc_sym in candidate_free:
                continue

            words = _static_words(pattern.domain, candidate.init.ty)
            if words is None or words > budget_words:
                continue

            rewritten = _apply_split(pattern, field_name, func, index_params, candidate)
            if rewritten is not None:
                return rewritten
    return None


def _index_params(pattern: Pattern, field_name: str, func: Lambda) -> Optional[Tuple[Sym, ...]]:
    """The index parameters of a pattern function (excluding accumulators)."""
    if isinstance(pattern, MultiFold):
        if field_name == "index_func":
            return func.params
        if field_name == "value_func":
            return func.params[:-1]
        return None
    if isinstance(pattern, Map) and field_name == "func":
        return func.params
    return None


def _accumulator_sym(pattern: Pattern, field_name: str, func: Lambda) -> Optional[Sym]:
    if isinstance(pattern, MultiFold) and field_name == "value_func":
        return func.params[-1]
    return None


def _apply_split(
    pattern: Pattern,
    field_name: str,
    func: Lambda,
    index_params: Tuple[Sym, ...],
    fold: MultiFold,
) -> Optional[Expr]:
    # 1. Precompute the fold for every index of the pattern's domain.
    fresh_params = tuple(bld.sym(p.name, INDEX) for p in index_params)
    precompute_body = substitute(fold, dict(zip(index_params, fresh_params)))
    precompute = Map(Domain(pattern.domain.dims), Lambda(fresh_params, precompute_body))

    # 2. Interchange the precomputation so the strided fold becomes outermost.
    interchanged = interchange_map_of_fold(precompute)
    if interchanged is None:
        return None

    # 3. Replace the fold inside the original function with a read of the
    #    precomputed intermediate.
    element_ty = fold.init.ty
    intermediate = bld.sym("splitRes", TensorType(element_ty, pattern.domain.rank))
    replacement = ArrayApply(intermediate, tuple(index_params))
    new_body = _ReplaceNode(fold, replacement).transform(func.body)
    new_pattern = rebuild(pattern, {field_name: Lambda(func.params, new_body)})
    if isinstance(new_pattern, Pattern):
        new_pattern.with_meta(split_from_interchange=True)

    return Let(intermediate, interchanged, new_pattern)


# ---------------------------------------------------------------------------
# The transformation
# ---------------------------------------------------------------------------


class _InterchangeRewriter(Transformer):
    def __init__(self, budget_words: int) -> None:
        self.budget_words = budget_words
        self.applied: List[str] = []

    def rewrite_Map(self, node: Map):
        result = interchange_map_of_fold(node)
        if result is not None:
            self.applied.append("rule1")
            return result
        split = split_and_interchange(node, self.budget_words)
        if split is not None:
            self.applied.append("split")
            return split
        return node

    def rewrite_MultiFold(self, node: MultiFold):
        split = split_and_interchange(node, self.budget_words)
        if split is not None:
            self.applied.append("split")
            return split
        return node


class Interchange(PplTransformation):
    """Table 3 / Figure 5: move strided folds out of unstrided patterns.

    Records the rules that fired (``"rule1"`` / ``"split"``, in order) in
    ``ctx.artifacts["applied_interchanges"]``.
    """

    name = "interchange"
    requires_tiling = True

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(Map, MultiFold),
            where=lambda node: not node.domain.is_strided,
            description="unstrided Map/MultiFold",
        )

    def can_apply(self, program, match: Match, ctx) -> bool:
        node = match.node
        if isinstance(node, Map) and interchange_map_of_fold(node) is not None:
            match.payload["rule"] = "rule1"
            return True
        if split_and_interchange(node, ctx.config.split_budget) is not None:
            match.payload["rule"] = "split"
            return True
        return False

    def apply(self, program: Program, ctx) -> Program:
        applied: List[str] = []
        body = program.body
        if ctx.config.tiling:
            for _ in range(5):
                rewriter = _InterchangeRewriter(ctx.config.split_budget)
                new_body = rewriter.transform(body)
                applied.extend(rewriter.applied)
                if new_body is body:
                    break
                body = new_body
        ctx.artifacts["applied_interchanges"] = applied
        return self.with_body(program, body)

    def config_key(self, ctx) -> Tuple:
        return (config_signature(ctx.config),)

    def payload(self, program, ctx) -> object:
        return (program, tuple(ctx.artifacts.get("applied_interchanges", ())))

    def restore(self, payload: object, ctx):
        program, applied = payload
        ctx.artifacts["applied_interchanges"] = list(applied)
        return program


def interchange(program: Program, config: CompileConfig) -> Program:
    """Convenience function form of :class:`Interchange`."""
    from repro.pipeline.passes import PassContext

    return Interchange().apply(program, PassContext(config=config))
