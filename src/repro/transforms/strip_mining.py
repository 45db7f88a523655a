"""Strip mining of parallel patterns (Table 1 / Table 2 of the paper).

Strip mining is the first half of the automatic tiling transformation.  It is
implemented as two transformations, exactly as described in Section 4:

1. :class:`StripMine` partitions each pattern's iteration domain into
   tiles of the user-specified size by breaking the pattern into a pair of
   perfectly nested patterns (Table 1).  The outer pattern iterates over the
   strided domain ``d/b`` (its index takes the values ``0, b, 2b, …``); the
   inner pattern operates on a tile of size ``b`` and its indices are added to
   the outer index to form the global index.

   * ``Map`` becomes a ``MultiFold`` over the strided domain whose value
     function produces one output tile per iteration and whose combine
     function is unused (each location is written exactly once).
   * ``MultiFold`` becomes a ``MultiFold`` of ``MultiFold``s: the inner
     pattern reduces one tile into a private accumulator, the outer pattern
     combines that partial accumulator into the global one.
   * ``FlatMap`` nests directly (concatenation is associative).
   * ``GroupByFold`` keeps its flat form (its output size is dynamic so tiles
     of the output cannot be named statically); the pass records the tile
     size in metadata and the hardware CAM merges per-tile partial results.
     This is the one documented deviation from Table 1 — see DESIGN.md.

2. :class:`TileCopies` converts array accesses with statically
   predictable (affine) access patterns into accesses of explicitly copied
   array tiles (the ``x.copy(b + ii)`` bindings of Table 2).  Accesses that
   are not affine in the loop indices — e.g. data-dependent reads — are left
   untouched; hardware generation later serves them with caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.access import LinearForm, linear_form
from repro.config import CompileConfig
from repro.dse.cache import config_signature
from repro.errors import TilingError
from repro.ppl import builder as bld
from repro.ppl.ir import (
    ArrayApply,
    ArrayCopy,
    ArrayDim,
    ArraySlice,
    Const,
    Domain,
    Expr,
    FlatMap,
    GroupByFold,
    Lambda,
    Let,
    MakeTuple,
    Map,
    MultiFold,
    Node,
    Pattern,
    Sym,
    Zeros,
)
from repro.ppl.program import Program
from repro.ppl.traversal import (
    Transformer,
    free_syms,
    rebuild,
    substitute,
    walk,
)
from repro.ppl.types import INDEX, TensorType
from repro.rewrite.framework import Match, PplTransformation, ShapePattern

__all__ = ["AxisPlan", "StripMine", "TileCopies", "strip_mine"]


_OUTER_NAMES = ["ii", "jj", "kk", "ll"]
_INNER_NAMES = ["i", "j", "k", "l"]


# ---------------------------------------------------------------------------
# Domain partitioning (Table 1)
# ---------------------------------------------------------------------------


def _extent_key(extent: Expr) -> Optional[str]:
    """The configuration key used to look up a tile size for a domain extent.

    Plain size symbols use their name (``"n"``); extents written as
    ``array.dim(axis)`` (produced by the staging front end) use
    ``"array[axis]"``.
    """
    if isinstance(extent, Sym):
        return extent.name
    if isinstance(extent, ArrayDim) and isinstance(extent.array, Sym):
        return f"{extent.array.name}[{extent.axis}]"
    return None


@dataclass
class AxisPlan:
    """How one domain axis is handled during strip mining."""

    extent: Expr
    tile: Optional[int]  # None = untiled

    @property
    def tiled(self) -> bool:
        return self.tile is not None

    @property
    def outer_stride(self) -> Expr:
        return Const(self.tile, INDEX) if self.tiled else self.extent

    @property
    def inner_extent(self) -> Expr:
        return Const(self.tile, INDEX) if self.tiled else self.extent


class StripMine(PplTransformation):
    """Table 1: split tiled pattern domains into perfectly nested pairs."""

    name = "strip-mine"
    requires_tiling = True

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(Map, MultiFold, FlatMap, GroupByFold),
            where=lambda node: not node.domain.is_strided,
            description="pattern over an unstrided domain",
        )

    def can_apply(self, program, match: Match, ctx) -> bool:
        if not ctx.config.tiling or not ctx.config.tile_sizes:
            return False
        return any(plan.tiled for plan in self.plan_axes(match.node.domain, ctx.config))

    def apply(self, program: Program, ctx) -> Program:
        config = ctx.config
        if not config.tiling or not config.tile_sizes:
            return program
        return self.with_body(program, self._strip(program.body, config))

    def config_key(self, ctx) -> Tuple:
        return (config_signature(ctx.config),)

    # -- recursion ------------------------------------------------------------
    def _strip(self, node: Node, config: CompileConfig) -> Node:
        if isinstance(node, Pattern):
            plans = self.plan_axes(node.domain, config)
            if any(plan.tiled for plan in plans):
                return self.strip_pattern(node, plans, config)
        return self._recurse(node, config)

    def _recurse(self, node: Node, config: CompileConfig) -> Node:
        if node is None:
            return None
        new_values: Dict[str, object] = {}
        changed = False
        for name in node._fields:
            old = getattr(node, name)
            if isinstance(old, Node):
                new = self._strip(old, config)
            elif isinstance(old, tuple):
                new = tuple(self._strip(v, config) if isinstance(v, Node) else v for v in old)
            else:
                new = old
            new_values[name] = new
            if not _identical(old, new):
                changed = True
        return rebuild(node, new_values) if changed else node

    @staticmethod
    def plan_axes(domain: Domain, config: CompileConfig) -> List[AxisPlan]:
        """One plan per axis of ``domain`` from the configured tile sizes."""
        plans = []
        for extent, stride in zip(domain.dims, domain.stride_exprs):
            already_strided = not (isinstance(stride, Const) and stride.value == 1)
            key = _extent_key(extent)
            tile = None
            if not already_strided and key is not None:
                tile = config.tile_size_for(key)
                if tile is not None and isinstance(extent, Const) and extent.value <= tile:
                    tile = None  # the whole dimension already fits in one tile
            plans.append(AxisPlan(extent, tile))
        return plans

    # -- per-pattern rules -----------------------------------------------------
    def _make_index_syms(self, plans: Sequence[AxisPlan]) -> tuple[list[Sym], list[Sym], list[Expr]]:
        outer_syms, inner_syms, global_idx = [], [], []
        for axis, plan in enumerate(plans):
            outer = bld.sym(_OUTER_NAMES[axis % len(_OUTER_NAMES)], INDEX)
            inner = bld.sym(_INNER_NAMES[axis % len(_INNER_NAMES)], INDEX)
            outer_syms.append(outer)
            inner_syms.append(inner)
            global_idx.append(bld.add(outer, inner))
        return outer_syms, inner_syms, global_idx

    def _outer_domain(self, plans: Sequence[AxisPlan]) -> Domain:
        return Domain(
            tuple(plan.extent for plan in plans),
            tuple(plan.outer_stride for plan in plans),
        )

    def _inner_domain(self, plans: Sequence[AxisPlan], outer_syms: Sequence[Sym]) -> Domain:
        """The tile-local domain, clamped with a min check at partial tiles.

        The paper notes that non-dividing tile sizes are "trivially solved
        with the addition of min checks on the domain of the inner loop";
        the clamp ``min(b, extent - ii)`` is that check.
        """
        dims = []
        for plan, outer in zip(plans, outer_syms):
            if plan.tiled:
                dims.append(bld.minimum(Const(plan.tile, INDEX), bld.sub(plan.extent, outer)))
            else:
                dims.append(plan.extent)
        return Domain(tuple(dims))

    def strip_pattern(
        self, node: Pattern, plans: List[AxisPlan], config: CompileConfig
    ) -> Node:
        """Apply the Table 1 rule of ``node``'s kind with explicit axis plans.

        Patterns nested in ``node``'s functions are strip mined with plans
        from ``config``.
        """
        if isinstance(node, Map):
            return self._strip_map(node, plans, config)
        if isinstance(node, MultiFold):
            return self._strip_multifold(node, plans, config)
        if isinstance(node, FlatMap):
            return self._strip_flatmap(node, plans, config)
        if isinstance(node, GroupByFold):
            return self._strip_groupbyfold(node, plans, config)
        raise TilingError(f"cannot strip mine pattern {type(node).__name__}")  # pragma: no cover

    def _strip_map(self, node: Map, plans: List[AxisPlan], config: CompileConfig) -> Node:
        outer_syms, inner_syms, global_idx = self._make_index_syms(plans)
        body = substitute(node.func.body, dict(zip(node.func.params, global_idx)))
        body = self._strip(body, config)
        inner = Map(self._inner_domain(plans, outer_syms), Lambda(tuple(inner_syms), body))
        inner.with_meta(tile_of="Map", strip_level="inner")

        rank = len(plans)
        location: Expr = MakeTuple(tuple(outer_syms)) if rank > 1 else outer_syms[0]
        acc = bld.sym("acc", TensorType(node.func.return_type, rank))
        outer = MultiFold(
            domain=self._outer_domain(plans),
            rshape=tuple(plan.extent for plan in plans),
            init=Zeros(tuple(plan.extent for plan in plans), node.func.return_type),
            index_func=Lambda(tuple(outer_syms), location),
            value_func=Lambda(tuple(outer_syms) + (acc,), inner),
            combine=None,
        )
        outer.with_meta(
            strip_mined=True,
            tiled_from="Map",
            tile_sizes=tuple(plan.tile for plan in plans),
        )
        return outer

    def _strip_multifold(
        self, node: MultiFold, plans: List[AxisPlan], config: CompileConfig
    ) -> Node:
        outer_syms, inner_syms, global_idx = self._make_index_syms(plans)
        idx_map = dict(zip(node.index_func.params, global_idx))
        val_map = dict(zip(node.value_func.params[:-1], global_idx))

        inner_index = Lambda(
            tuple(inner_syms), self._strip(substitute(node.index_func.body, idx_map), config)
        )
        acc_inner = node.value_func.params[-1]
        inner_value = Lambda(
            tuple(inner_syms) + (acc_inner,),
            self._strip(substitute(node.value_func.body, val_map), config),
        )
        init = self._strip(node.init, config)
        # The combine function is left untiled: it runs once per partial
        # accumulator pair, and hardware generation eliminates the redundant
        # whole-accumulator combine of Table 1's general rule anyway
        # (Section 5, "redundant accumulation functions").
        combine = node.combine

        inner = MultiFold(
            domain=self._inner_domain(plans, outer_syms),
            rshape=node.rshape,
            init=init,
            index_func=inner_index,
            value_func=inner_value,
            combine=combine,
        )
        inner.meta = dict(node.meta)
        inner.with_meta(tile_of="MultiFold", strip_level="inner")

        # Outer pattern: combine each tile's partial accumulator into the
        # global accumulator (the whole-accumulator location, Table 1).
        rank = len(plans)
        zero_loc: Expr = (
            MakeTuple(tuple(Const(0, INDEX) for _ in range(len(node.rshape))))
            if len(node.rshape) > 1
            else Const(0, INDEX)
        )
        acc_outer = bld.sym("acc", node.init.ty)
        if combine is None:
            raise TilingError(
                "strip mining a MultiFold requires an associative combine function"
            )
        # Bind the tile's partial accumulator and combine it into the global
        # accumulator, as in the sumrows example of Table 2
        # (``tile = multiFold(...); (ii, acc => map(b0){acc(j) + tile(j)})``).
        tile_sym = bld.sym("tile", node.init.ty)
        outer_value_body = Let(
            tile_sym, inner, self._apply_combine(combine, acc_outer, tile_sym)
        )
        outer = MultiFold(
            domain=self._outer_domain(plans),
            rshape=node.rshape,
            init=init,
            index_func=Lambda(tuple(outer_syms), zero_loc),
            value_func=Lambda(tuple(outer_syms) + (acc_outer,), outer_value_body),
            combine=combine,
        )
        outer.meta = dict(node.meta)
        outer.with_meta(
            strip_mined=True,
            tiled_from="MultiFold",
            tile_sizes=tuple(plan.tile for plan in plans),
        )
        return outer

    def _strip_flatmap(
        self, node: FlatMap, plans: List[AxisPlan], config: CompileConfig
    ) -> Node:
        outer_syms, inner_syms, global_idx = self._make_index_syms(plans)
        body = substitute(node.func.body, dict(zip(node.func.params, global_idx)))
        body = self._strip(body, config)
        inner = FlatMap(self._inner_domain(plans, outer_syms), Lambda(tuple(inner_syms), body))
        inner.with_meta(tile_of="FlatMap", strip_level="inner")
        outer = FlatMap(self._outer_domain(plans), Lambda(tuple(outer_syms), inner))
        outer.with_meta(
            strip_mined=True,
            tiled_from="FlatMap",
            tile_sizes=tuple(plan.tile for plan in plans),
        )
        return outer

    def _strip_groupbyfold(
        self, node: GroupByFold, plans: List[AxisPlan], config: CompileConfig
    ) -> Node:
        # Documented deviation: the output key space is dynamic, so the flat
        # form is kept and the tile size is recorded for the hardware CAM and
        # the traffic model (see the module docstring and DESIGN.md).
        new = self._recurse(node, config)
        if isinstance(new, Pattern):
            new.with_meta(
                strip_mined=True,
                tiled_from="GroupByFold",
                tile_sizes=tuple(plan.tile for plan in plans),
            )
        return new

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _apply_combine(combine: Lambda, left: Expr, right: Expr) -> Expr:
        return substitute(combine.body, dict(zip(combine.params, (left, right))))


# ---------------------------------------------------------------------------
# Tile copy insertion (Table 2)
# ---------------------------------------------------------------------------


@dataclass
class _TilePlan:
    """Planned copy of one array within one strided pattern."""

    array: Sym
    offsets: List[Optional[Expr]] = field(default_factory=list)
    sizes: List[Optional[Expr]] = field(default_factory=list)
    accesses: List[Node] = field(default_factory=list)


class _AccessRewriter(Transformer):
    """Rewrites accesses of an array into accesses of its tile copy."""

    def __init__(self, array: Sym, tile_sym: Sym, outer_syms: set) -> None:
        self.array = array
        self.tile_sym = tile_sym
        self.outer_syms = outer_syms

    def _localize(self, index: Optional[Expr]) -> Optional[Expr]:
        if index is None:
            return None
        form = linear_form(index)
        if form is None or not (set(form.coeffs) & self.outer_syms):
            return index
        local = form.without(self.outer_syms)
        return _form_to_expr(local)

    def rewrite_ArrayApply(self, node: ArrayApply):
        if node.array is not self.array:
            return node
        return ArrayApply(self.tile_sym, tuple(self._localize(i) for i in node.indices))

    def rewrite_ArraySlice(self, node: ArraySlice):
        if node.array is not self.array:
            return node
        return ArraySlice(self.tile_sym, tuple(self._localize(s) for s in node.specs))


def _form_to_expr(form: LinearForm) -> Expr:
    expr: Expr = Const(form.constant, INDEX) if form.constant or not form.coeffs else None
    for sym, coeff in form.coeffs.items():
        term = sym if coeff == 1 else bld.mul(coeff, sym)
        expr = term if expr is None else bld.add(expr, term)
    return expr if expr is not None else Const(0, INDEX)


class TileCopies(PplTransformation):
    """Table 2: materialise affine accesses of strided patterns as tiles."""

    name = "tile-copies"
    requires_tiling = True

    def pattern(self) -> ShapePattern:
        return ShapePattern(
            kinds=(Map, MultiFold, FlatMap, GroupByFold),
            where=lambda node: node.domain.is_strided,
            description="pattern over a strided domain",
        )

    def can_apply(self, program, match: Match, ctx) -> bool:
        inputs = set(program.inputs)
        return self._insert_copies(match.node, set(), inputs) is not match.node

    def apply(self, program: Program, ctx) -> Program:
        if not ctx.config.tiling:
            return program
        return self.with_body(
            program, self._process(program.body, set(), set(program.inputs))
        )

    def config_key(self, ctx) -> Tuple:
        return (config_signature(ctx.config),)

    # -- recursion ------------------------------------------------------------
    def _process(self, node: Node, tile_syms: set, inputs: set) -> Node:
        if isinstance(node, Pattern) and node.domain.is_strided:
            node = self._insert_copies(node, tile_syms, inputs)
        if isinstance(node, Let) and isinstance(node.value, ArrayCopy):
            tile_syms = tile_syms | {node.sym}

        new_values: Dict[str, object] = {}
        changed = False
        for name in node._fields:
            old = getattr(node, name)
            if isinstance(old, Node):
                new = self._process(old, tile_syms, inputs)
            elif isinstance(old, tuple):
                new = tuple(
                    self._process(v, tile_syms, inputs) if isinstance(v, Node) else v
                    for v in old
                )
            else:
                new = old
            new_values[name] = new
            if not _identical(old, new):
                changed = True
        return rebuild(node, new_values) if changed else node

    # -- the actual copy insertion ----------------------------------------------
    def _insert_copies(self, pattern: Pattern, tile_syms: set, inputs: set) -> Pattern:
        strided_info = self._strided_axes(pattern)
        if not strided_info:
            return pattern

        func_name, func = self._main_function(pattern)
        if func is None:
            return pattern

        outer_map = {
            param: stride for param, stride in zip(func.params, pattern.domain.stride_exprs)
        }
        strided_params = {
            param
            for param, stride in outer_map.items()
            if not (isinstance(stride, Const) and stride.value == 1)
        }
        if not strided_params:
            return pattern

        plans = self._plan_copies(pattern, func, strided_params, outer_map, tile_syms, inputs)
        if not plans:
            return pattern

        # Rewrite accesses within the pattern's main function only (the value
        # function for folds, the element function for Map/FlatMap) so that
        # every rewritten access stays within the scope of the inserted Lets.
        body = func.body
        lets: List[Tuple[Sym, ArrayCopy]] = []
        for plan in plans:
            tile_sym = bld.sym(f"{plan.array.name}Tile", plan.array.ty)
            copy = ArrayCopy(
                plan.array,
                tuple(Const(0, INDEX) if o is None else o for o in plan.offsets),
                tuple(plan.sizes),
            )
            lets.append((tile_sym, copy))
            body = _AccessRewriter(plan.array, tile_sym, strided_params).transform(body)

        for tile_sym, copy in reversed(lets):
            body = Let(tile_sym, copy, body)
        new_pattern = rebuild(pattern, {func_name: Lambda(func.params, body)})
        return new_pattern

    def _strided_axes(self, pattern: Pattern) -> List[int]:
        return [
            axis
            for axis, stride in enumerate(pattern.domain.stride_exprs)
            if not (isinstance(stride, Const) and stride.value == 1)
        ]

    @staticmethod
    def _main_function(pattern: Pattern) -> Tuple[Optional[str], Optional[Lambda]]:
        """The function holding the pattern's body (value_func or func)."""
        if isinstance(pattern, MultiFold):
            return "value_func", pattern.value_func
        if isinstance(pattern, (Map, FlatMap)):
            return "func", pattern.func
        if isinstance(pattern, GroupByFold):
            return "value_func", pattern.value_func
        return None, None

    def _plan_copies(
        self,
        pattern: Pattern,
        func: Lambda,
        strided_params: set,
        outer_map: Dict[Sym, Expr],
        tile_syms: set,
        inputs: set,
    ) -> List[_TilePlan]:
        candidates: Dict[Sym, _TilePlan] = {}
        rejected: set = set()
        pattern_free = free_syms(pattern)

        for node in walk(func.body):
            array, indices = _access_parts(node)
            if array is None:
                continue
            if not isinstance(array, Sym) or array in tile_syms:
                continue
            # Only main-memory input collections are worth copying on chip;
            # accumulators and function parameters are already on-chip values.
            if array not in inputs or array not in pattern_free:
                continue
            if array in rejected:
                continue
            plan = candidates.get(array)
            if plan is None:
                plan = _TilePlan(array, [None] * array.ty.rank, [None] * array.ty.rank)
                candidates[array] = plan
            if not self._merge_access(plan, indices, strided_params, outer_map):
                rejected.add(array)
                candidates.pop(array, None)
            else:
                plan.accesses.append(node)

        return [plan for plan in candidates.values() if any(o is not None for o in plan.offsets)]

    def _merge_access(
        self,
        plan: _TilePlan,
        indices: Sequence[Optional[Expr]],
        strided_params: set,
        outer_map: Dict[Sym, Expr],
    ) -> bool:
        if len(indices) != plan.array.ty.rank:
            return False
        for axis, index in enumerate(indices):
            if index is None:
                continue
            form = linear_form(index)
            if form is None:
                return False
            outer_here = [s for s in form.coeffs if s in strided_params]
            if not outer_here:
                continue  # full-dimension copy for this axis
            if len(outer_here) > 1 or form.coefficient(outer_here[0]) != 1:
                return False
            outer_sym = outer_here[0]
            offset: Expr = outer_sym
            size = outer_map[outer_sym]
            if plan.offsets[axis] is None:
                plan.offsets[axis] = offset
                plan.sizes[axis] = size
            elif not (isinstance(plan.offsets[axis], Sym) and plan.offsets[axis] is offset):
                return False
        return True


def _access_parts(node: Node) -> Tuple[Optional[Expr], Tuple[Optional[Expr], ...]]:
    if isinstance(node, ArrayApply):
        return node.array, tuple(node.indices)
    if isinstance(node, ArraySlice):
        return node.array, node.specs
    return None, ()


def _identical(old, new) -> bool:
    if old is new:
        return True
    if isinstance(old, tuple) and isinstance(new, tuple) and len(old) == len(new):
        return all(a is b for a, b in zip(old, new))
    return False


def strip_mine(program: Program, config: CompileConfig) -> Program:
    """Run both strip-mining rules (domain partitioning + tile copies)."""
    from repro.pipeline.passes import PassContext

    ctx = PassContext(config=config)
    return TileCopies().apply(StripMine().apply(program, ctx), ctx)
