"""Intermediate representation of the parallel pattern language (PPL).

The IR mirrors Figure 2 of the paper.  Programs are immutable expression
trees built from:

* scalar expressions (constants, symbols, arithmetic, comparisons, selects,
  tuples),
* array expressions (element reads, slices, explicit tile copies, literals),
* the four parallel patterns — :class:`Map`, :class:`MultiFold`,
  :class:`FlatMap` and :class:`GroupByFold`.

``MultiFold`` follows the paper's definition: its main function produces, for
every index in the domain, a *location* within the accumulator and a function
that consumes the current slice of the accumulator at that location and
returns the new slice.  We represent that pair as two lambdas —
``index_func`` (index → accumulator location) and ``value_func`` (index +
current accumulator slice → new slice) — which keeps the tiling rules of
Table 1 purely structural.

Every node carries a ``ty`` (see :mod:`repro.ppl.types`).  Nodes use identity
equality; structural comparison lives in :mod:`repro.ppl.traversal`.
"""

from __future__ import annotations

import hashlib as _hashlib
import itertools
import struct as _struct
from typing import Iterable, Optional, Sequence, Union

from repro.errors import IRError, TypeInferenceError
from repro.ppl.types import (
    BOOL,
    FLOAT32,
    INDEX,
    ScalarType,
    TensorType,
    TupleType,
    Type,
    common_type,
    is_scalar,
    is_tensor,
    is_tuple,
)

__all__ = [
    "Node",
    "Expr",
    "structural_hash",
    "Const",
    "Sym",
    "BinOp",
    "UnaryOp",
    "Cmp",
    "Select",
    "Let",
    "MakeTuple",
    "TupleGet",
    "ArrayApply",
    "ArraySlice",
    "ArrayCopy",
    "ArrayDim",
    "ArrayLen",
    "Zeros",
    "Full",
    "EmptyArray",
    "ArrayLit",
    "Lambda",
    "Domain",
    "Pattern",
    "Map",
    "MultiFold",
    "FlatMap",
    "GroupByFold",
    "ARITHMETIC_OPS",
    "COMPARISON_OPS",
    "UNARY_OPS",
]


_NODE_IDS = itertools.count()

ARITHMETIC_OPS = ("+", "-", "*", "/", "%", "min", "max", "and", "or")
COMPARISON_OPS = ("<", "<=", ">", ">=", "==", "!=")
UNARY_OPS = ("neg", "abs", "sqrt", "exp", "log", "not", "recip")


_EMPTY: frozenset = frozenset()

#: Interned subtree kind sets: structurally similar subtrees share one object.
_KIND_SETS: dict = {}

#: Instance attributes holding facts derived from a node's (immutable)
#: fields.  They are filled on first use and never pickled: an unpickled
#: node recomputes them on demand.
DERIVED_CACHES = frozenset({"_children", "_free_syms", "_node_count", "_kinds"})


def _union(sets: Iterable[frozenset]) -> frozenset:
    """Union of frozensets, reusing an operand when it already covers the rest."""
    result = _EMPTY
    for item in sets:
        if not result:
            result = item
        elif item and not item <= result:
            result = result | item
    return result


class Node:
    """Base class of all IR nodes.

    Subclasses declare ``_fields`` (names of attributes holding child nodes or
    tuples of child nodes) and ``_attrs`` (names of plain-data attributes).
    Generic traversal and rebuilding in :mod:`repro.ppl.traversal` relies on
    these declarations.

    **Immutability contract.** Fields and attributes are assigned in
    ``__init__`` only; a rewrite builds new nodes instead of editing old
    ones.  (Pattern ``meta`` is the one mutable annotation, and no structural
    fact reads it.)  Every fact derived from the fields is therefore computed
    at most once per node and cached on it:

    * ``_shash`` — :meth:`structural_hash`, persisted with the node because
      it keys the disk-persisted analysis cache;
    * ``_children`` — :meth:`children`, the child tuple built from
      ``_fields``;
    * ``_free_syms`` — :meth:`free_syms`, built bottom-up from the children;
    * ``_node_count`` — :meth:`node_count`, built bottom-up;
    * ``_kinds`` — :meth:`subtree_kinds`, the interned set of node classes in
      the subtree (what lets :class:`~repro.ppl.traversal.Transformer` skip
      subtrees its hooks cannot touch).

    The last four (:data:`DERIVED_CACHES`) are left out of pickles, so disk
    stores and pool payloads stay the size of the bare tree.
    """

    _fields: tuple[str, ...] = ()
    _attrs: tuple[str, ...] = ()

    _shash: Optional[int] = None
    _children: Optional[tuple["Node", ...]] = None
    _free_syms: Optional[frozenset] = None
    _node_count: Optional[int] = None
    _kinds: Optional[frozenset] = None

    def __init__(self) -> None:
        self.node_id = next(_NODE_IDS)

    def __getstate__(self) -> dict:
        state = self.__dict__
        if not DERIVED_CACHES.isdisjoint(state):
            state = {k: v for k, v in state.items() if k not in DERIVED_CACHES}
        return state

    # -- structural hashing ------------------------------------------------
    def structural_hash(self) -> int:
        """A cached structural fingerprint of this subtree.

        Two nodes with equal fingerprints are structurally identical with
        identically named symbols (bound symbol names are uniquified at
        construction time, so name equality implies binding-structure
        equality for trees built by :mod:`repro.ppl.builder` and the
        transformation passes).  Pattern metadata is excluded, mirroring
        :func:`repro.ppl.traversal.structurally_equal` — which means the
        hash must only be used to key analyses that do not read ``meta``.

        The fingerprint is the identity under which the memoised analyses
        (:mod:`repro.dse.cache`) share results across compilations: hash
        consing in the classic sense, with the hash standing in for the
        interned node.
        """
        if self._shash is None:
            self._shash = structural_hash(self)
        return self._shash

    # -- generic structure -------------------------------------------------
    def children(self) -> tuple["Node", ...]:
        """All direct child nodes, flattening tuple-valued fields."""
        cached = self._children
        if cached is None:
            result: list[Node] = []
            for name in self._fields:
                value = getattr(self, name)
                if value is None:
                    continue
                if isinstance(value, Node):
                    result.append(value)
                elif isinstance(value, tuple):
                    result.extend(v for v in value if isinstance(v, Node))
                else:  # pragma: no cover - defensive
                    raise IRError(f"field {name!r} of {type(self).__name__} is not a node")
            cached = self._children = tuple(result)
        return cached

    def free_syms(self) -> frozenset:
        """Symbols referenced in this subtree and not bound inside it."""
        cached = self._free_syms
        if cached is None:
            cached = self._free_syms = self._compute_free_syms()
        return cached

    def _compute_free_syms(self) -> frozenset:
        return _union(child.free_syms() for child in self.children())

    def node_count(self) -> int:
        """Number of nodes in this subtree, counted per occurrence."""
        cached = self._node_count
        if cached is None:
            cached = self._node_count = 1 + sum(c.node_count() for c in self.children())
        return cached

    def subtree_kinds(self) -> frozenset:
        """The set of node classes occurring in this subtree (interned)."""
        cached = self._kinds
        if cached is None:
            kinds = _union(child.subtree_kinds() for child in self.children())
            if type(self) not in kinds:
                kinds = kinds | {type(self)}
            cached = self._kinds = _KIND_SETS.setdefault(kinds, kinds)
        return cached

    def field_values(self) -> dict[str, object]:
        """Mapping of field name to its (node or tuple-of-node) value."""
        return {name: getattr(self, name) for name in self._fields}

    def attr_values(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self._attrs}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.node_id})"


class Expr(Node):
    """Base class of expressions.  Every expression has a type ``ty``."""

    def __init__(self, ty: Type) -> None:
        super().__init__()
        if ty is None:
            raise TypeInferenceError(f"{type(self).__name__} constructed without a type")
        self.ty = ty

    # Operator sugar so that transformation code reads naturally.
    def __add__(self, other: "Expr") -> "Expr":
        return BinOp("+", self, _as_expr(other))

    def __sub__(self, other: "Expr") -> "Expr":
        return BinOp("-", self, _as_expr(other))

    def __mul__(self, other: "Expr") -> "Expr":
        return BinOp("*", self, _as_expr(other))

    def __truediv__(self, other: "Expr") -> "Expr":
        return BinOp("/", self, _as_expr(other))


def _as_expr(value: Union["Expr", int, float, bool]) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(value, BOOL)
    if isinstance(value, int):
        return Const(value, INDEX)
    if isinstance(value, float):
        return Const(value, FLOAT32)
    raise IRError(f"cannot convert {value!r} to an IR expression")


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


class Const(Expr):
    """A literal scalar constant."""

    _attrs = ("value",)

    def __init__(self, value, ty: Optional[Type] = None) -> None:
        if ty is None:
            ty = _as_expr(value).ty if not isinstance(value, Expr) else None
        super().__init__(ty)
        self.value = value

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Sym(Expr):
    """A named symbol: a bound index/accumulator variable or a program input."""

    _attrs = ("name",)

    def __init__(self, name: str, ty: Type) -> None:
        super().__init__(ty)
        self.name = name

    def __repr__(self) -> str:
        return f"Sym({self.name})"

    def _compute_free_syms(self) -> frozenset:
        return frozenset((self,))

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


class BinOp(Expr):
    """Binary arithmetic / logical operation."""

    _fields = ("lhs", "rhs")
    _attrs = ("op",)

    def __init__(self, op: str, lhs: Expr, rhs: Expr) -> None:
        if op not in ARITHMETIC_OPS:
            raise IRError(f"unknown binary operator {op!r}")
        lhs, rhs = _as_expr(lhs), _as_expr(rhs)
        if op in ("and", "or"):
            ty: Type = BOOL
        elif op == "/":
            ty = common_type(lhs.ty, rhs.ty)
            if isinstance(ty, ScalarType) and ty.is_index:
                ty = INDEX  # index division stays an index (tile counts d/b)
        else:
            ty = common_type(lhs.ty, rhs.ty)
        super().__init__(ty)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class UnaryOp(Expr):
    """Unary operation (negation, abs, sqrt, ...)."""

    _fields = ("operand",)
    _attrs = ("op",)

    def __init__(self, op: str, operand: Expr) -> None:
        if op not in UNARY_OPS:
            raise IRError(f"unknown unary operator {op!r}")
        operand = _as_expr(operand)
        ty = BOOL if op == "not" else operand.ty
        if op in ("sqrt", "exp", "log", "recip") and isinstance(ty, ScalarType) and not ty.is_float:
            ty = FLOAT32
        super().__init__(ty)
        self.op = op
        self.operand = operand


class Cmp(Expr):
    """Comparison returning a boolean."""

    _fields = ("lhs", "rhs")
    _attrs = ("op",)

    def __init__(self, op: str, lhs: Expr, rhs: Expr) -> None:
        if op not in COMPARISON_OPS:
            raise IRError(f"unknown comparison operator {op!r}")
        super().__init__(BOOL)
        self.op = op
        self.lhs = _as_expr(lhs)
        self.rhs = _as_expr(rhs)


class Select(Expr):
    """``if cond then if_true else if_false`` over values of the same type."""

    _fields = ("cond", "if_true", "if_false")

    def __init__(self, cond: Expr, if_true: Expr, if_false: Expr) -> None:
        if_true, if_false = _as_expr(if_true), _as_expr(if_false)
        ty = if_true.ty
        if type(if_true.ty) is not type(if_false.ty):
            raise IRError("Select branches must have the same kind of type")
        super().__init__(ty)
        self.cond = _as_expr(cond)
        self.if_true = if_true
        self.if_false = if_false


class Let(Expr):
    """A local binding: ``sym = value; body``.

    Strip mining introduces Lets for tile copies (``xTile = x.copy(b + ii)``),
    pattern interchange introduces them for split intermediate results, and
    CSE / code motion move them around.  ``sym`` is bound within ``body`` only.
    """

    _fields = ("value", "body")

    def __init__(self, sym: "Sym", value: Expr, body: Expr) -> None:
        super().__init__(body.ty)
        if not isinstance(sym, Sym):
            raise IRError("Let binder must be a Sym")
        self.sym = sym
        self.value = value
        self.body = body

    def _compute_free_syms(self) -> frozenset:
        body = self.body.free_syms()
        if self.sym in body:
            body = body - {self.sym}
        return _union((self.value.free_syms(), body))


class MakeTuple(Expr):
    """Construct a tuple (structure of scalars / tensors)."""

    _fields = ("elements",)

    def __init__(self, elements: Sequence[Expr]) -> None:
        elements = tuple(_as_expr(e) for e in elements)
        if not elements:
            raise IRError("MakeTuple requires at least one element")
        super().__init__(TupleType(tuple(e.ty for e in elements)))
        self.elements = elements


class TupleGet(Expr):
    """Extract field ``index`` from a tuple expression (``._1`` / ``._2`` in Scala)."""

    _fields = ("tup",)
    _attrs = ("index",)

    def __init__(self, tup: Expr, index: int) -> None:
        if not is_tuple(tup.ty):
            raise IRError(f"TupleGet applied to non-tuple type {tup.ty!r}")
        super().__init__(tup.ty.field(index))
        self.tup = tup
        self.index = index


# ---------------------------------------------------------------------------
# Array expressions
# ---------------------------------------------------------------------------


def _tensor_ty(expr: Expr, what: str) -> TensorType:
    if not is_tensor(expr.ty):
        raise IRError(f"{what} applied to non-tensor type {expr.ty!r}")
    return expr.ty


class ArrayApply(Expr):
    """Read a single element: ``x(i)`` / ``x(i, j)``."""

    _fields = ("array", "indices")

    def __init__(self, array: Expr, indices: Sequence[Expr]) -> None:
        arr_ty = _tensor_ty(array, "ArrayApply")
        indices = tuple(_as_expr(i) for i in indices)
        if len(indices) != arr_ty.rank:
            raise IRError(
                f"ArrayApply with {len(indices)} indices on rank-{arr_ty.rank} array"
            )
        super().__init__(arr_ty.element)
        self.array = array
        self.indices = indices


class ArraySlice(Expr):
    """A view of a subset of an array: ``x.slice(i, *)``.

    ``specs`` has one entry per source dimension: an expression fixes (and
    removes) that dimension, ``None`` keeps the full dimension.
    """

    _fields = ("array", "fixed")
    _attrs = ("kept_axes",)

    def __init__(self, array: Expr, specs: Sequence[Optional[Expr]]) -> None:
        arr_ty = _tensor_ty(array, "ArraySlice")
        if len(specs) != arr_ty.rank:
            raise IRError(f"ArraySlice with {len(specs)} specs on rank-{arr_ty.rank} array")
        kept = tuple(axis for axis, spec in enumerate(specs) if spec is None)
        fixed = tuple(_as_expr(spec) for spec in specs if spec is not None)
        if not kept:
            raise IRError("ArraySlice must keep at least one dimension; use ArrayApply")
        super().__init__(TensorType(arr_ty.element, len(kept)))
        self.array = array
        self.fixed = fixed
        self.kept_axes = kept

    @property
    def specs(self) -> tuple[Optional[Expr], ...]:
        """Reconstruct the per-dimension spec list (None = kept)."""
        result: list[Optional[Expr]] = []
        fixed_iter = iter(self.fixed)
        rank = self.array.ty.rank
        for axis in range(rank):
            if axis in self.kept_axes:
                result.append(None)
            else:
                result.append(next(fixed_iter))
        return tuple(result)


class ArrayCopy(Expr):
    """An explicit tile copy of a region of an array into on-chip memory.

    Produced by the second strip-mining pass ("``x.copy(b + ii)``" in the
    paper).  ``offsets`` and ``sizes`` have one entry per dimension of the
    source array; a size of ``None`` copies the full dimension.  ``reuse``
    marks overlapping tiles (e.g. sliding windows) with their reuse factor.
    """

    _fields = ("array", "offsets", "tile_sizes")
    _attrs = ("full_dims", "reuse")

    def __init__(
        self,
        array: Expr,
        offsets: Sequence[Expr],
        sizes: Sequence[Optional[Expr]],
        reuse: int = 1,
    ) -> None:
        arr_ty = _tensor_ty(array, "ArrayCopy")
        if len(offsets) != arr_ty.rank or len(sizes) != arr_ty.rank:
            raise IRError("ArrayCopy offsets/sizes must match the array rank")
        super().__init__(TensorType(arr_ty.element, arr_ty.rank))
        self.array = array
        self.offsets = tuple(_as_expr(o) for o in offsets)
        self.tile_sizes = tuple(_as_expr(s) for s in sizes if s is not None)
        self.full_dims = tuple(axis for axis, s in enumerate(sizes) if s is None)
        self.reuse = reuse

    @property
    def sizes(self) -> tuple[Optional[Expr], ...]:
        """Per-dimension copy sizes (None = whole dimension)."""
        result: list[Optional[Expr]] = []
        sized = iter(self.tile_sizes)
        for axis in range(self.array.ty.rank):
            result.append(None if axis in self.full_dims else next(sized))
        return tuple(result)


class ArrayDim(Expr):
    """The length of one dimension of an array."""

    _fields = ("array",)
    _attrs = ("axis",)

    def __init__(self, array: Expr, axis: int = 0) -> None:
        arr_ty = _tensor_ty(array, "ArrayDim")
        if not 0 <= axis < arr_ty.rank:
            raise IRError(f"axis {axis} out of range for rank-{arr_ty.rank} array")
        super().__init__(INDEX)
        self.array = array
        self.axis = axis


class ArrayLen(ArrayDim):
    """Total number of elements of a one-dimensional array (``v.length``)."""

    def __init__(self, array: Expr) -> None:
        super().__init__(array, 0)


class Zeros(Expr):
    """An array of identity elements (used for MultiFold initial accumulators)."""

    _fields = ("shape",)
    _attrs = ("element",)

    def __init__(self, shape: Sequence[Expr], element: Type = FLOAT32) -> None:
        shape = tuple(_as_expr(s) for s in shape)
        if not shape:
            raise IRError("Zeros requires at least one dimension; use Const for scalars")
        super().__init__(TensorType(element, len(shape)))
        self.shape = shape
        self.element = element


class Full(Expr):
    """An array filled with a given scalar value (e.g. ``map(b)((max, -1))``)."""

    _fields = ("shape", "fill")

    def __init__(self, shape: Sequence[Expr], fill: Expr) -> None:
        shape = tuple(_as_expr(s) for s in shape)
        fill = _as_expr(fill)
        if not shape:
            raise IRError("Full requires at least one dimension")
        super().__init__(TensorType(fill.ty, len(shape)))
        self.shape = shape
        self.fill = fill


class EmptyArray(Expr):
    """A zero-length one-dimensional array (the ``[]`` branch of a filter)."""

    _attrs = ("element",)

    def __init__(self, element: Type = FLOAT32) -> None:
        super().__init__(TensorType(element, 1))
        self.element = element


class ArrayLit(Expr):
    """A small literal one-dimensional array, e.g. ``[e, -e]`` in a flatMap."""

    _fields = ("elements",)

    def __init__(self, elements: Sequence[Expr]) -> None:
        elements = tuple(_as_expr(e) for e in elements)
        if not elements:
            raise IRError("ArrayLit requires at least one element; use EmptyArray")
        elem_ty = elements[0].ty
        super().__init__(TensorType(elem_ty, 1))
        self.elements = elements


# ---------------------------------------------------------------------------
# Functions and domains
# ---------------------------------------------------------------------------


class Lambda(Node):
    """An anonymous function with named parameters and an expression body."""

    _fields = ("params", "body")

    def __init__(self, params: Sequence[Sym], body: Expr) -> None:
        super().__init__()
        self.params = tuple(params)
        if not all(isinstance(p, Sym) for p in self.params):
            raise IRError("Lambda parameters must be Sym nodes")
        self.body = body

    def _compute_free_syms(self) -> frozenset:
        body = self.body.free_syms()
        return body if body.isdisjoint(self.params) else body.difference(self.params)

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def return_type(self) -> Type:
        return self.body.ty

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.params)
        return f"Lambda(({names}) => {type(self.body).__name__})"


class Domain(Node):
    """An iteration domain: one *extent* expression per dimension.

    ``dims`` holds the full extent of each dimension (the paper's ``d``);
    ``strides`` holds the step per dimension (the paper's ``b``), so a strided
    domain ``d/b`` iterates its index over ``0, b, 2b, …`` — exactly the index
    values used by the paper's tiled programs (``x.copy(b + ii)`` copies ``b``
    elements starting at the strided index ``ii``).  Unstrided dimensions have
    stride 1 and iterate ``0 … d-1``.
    """

    _fields = ("dims", "stride_exprs")

    def __init__(self, dims: Sequence[Expr], strides: Optional[Sequence[Expr]] = None) -> None:
        super().__init__()
        self.dims = tuple(_as_expr(d) for d in dims)
        if not self.dims:
            raise IRError("Domain requires at least one dimension")
        if strides is None:
            self.stride_exprs: tuple[Expr, ...] = tuple(Const(1, INDEX) for _ in self.dims)
        else:
            if len(strides) != len(self.dims):
                raise IRError("Domain strides must match dimensionality")
            self.stride_exprs = tuple(_as_expr(s) for s in strides)

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def is_strided(self) -> bool:
        return any(not (isinstance(s, Const) and s.value == 1) for s in self.stride_exprs)

    def stride_of(self, axis: int) -> Expr:
        return self.stride_exprs[axis]

    def __repr__(self) -> str:
        return f"Domain(rank={self.rank}, strided={self.is_strided})"


# ---------------------------------------------------------------------------
# Parallel patterns
# ---------------------------------------------------------------------------


class Pattern(Expr):
    """Base class of the four parallel patterns.

    ``meta`` carries annotations added by the compiler passes (tile sizes,
    parallelisation factors, buffer hints).  Metadata does not participate in
    structural equality.
    """

    def __init__(self, ty: Type, domain: Domain) -> None:
        super().__init__(ty)
        self.domain = domain
        self.meta: dict[str, object] = {}

    def with_meta(self, **kwargs) -> "Pattern":
        self.meta.update(kwargs)
        return self

    @property
    def is_strided(self) -> bool:
        return self.domain.is_strided

    def functions(self) -> list[Lambda]:
        """All lambdas nested directly in this pattern."""
        return [v for v in self.field_values().values() if isinstance(v, Lambda)]


class Map(Pattern):
    """``Map(d)(m) : V^D`` — one output element per index of the domain."""

    _fields = ("domain", "func")

    def __init__(self, domain: Domain, func: Lambda) -> None:
        if func.arity != domain.rank:
            raise IRError(
                f"Map function arity {func.arity} does not match domain rank {domain.rank}"
            )
        value_ty = func.return_type
        if is_tensor(value_ty):
            raise IRError("Map value function must return a scalar or tuple, not an array")
        super().__init__(TensorType(value_ty, domain.rank), domain)
        self.func = func


class MultiFold(Pattern):
    """``MultiFold(d)(r)(z)(f)(c) : V^R`` — reduce generated values into an accumulator.

    * ``rshape`` — the accumulator shape (empty tuple ⇒ scalar fold).
    * ``init`` — identity accumulator, same shape as the output.
    * ``index_func`` — index ↦ location within the accumulator at which to reduce.
      For scalar folds this is conventionally the constant 0 location.
    * ``value_func`` — (index..., current accumulator slice) ↦ new slice.
    * ``combine`` — associative combiner of two partial accumulators; ``None``
      marks the unused combiner (the ``(_)`` in Table 1) for strided MultiFolds
      that write each location exactly once.
    """

    _fields = ("domain", "rshape", "init", "index_func", "value_func", "combine")

    def __init__(
        self,
        domain: Domain,
        rshape: Sequence[Expr],
        init: Expr,
        index_func: Lambda,
        value_func: Lambda,
        combine: Optional[Lambda],
    ) -> None:
        rshape = tuple(_as_expr(r) for r in rshape)
        super().__init__(init.ty, domain)
        if index_func.arity != domain.rank:
            raise IRError("MultiFold index function arity must match domain rank")
        if value_func.arity != domain.rank + 1:
            raise IRError("MultiFold value function takes the indices plus the accumulator slice")
        self.rshape = rshape
        self.init = init
        self.index_func = index_func
        self.value_func = value_func
        self.combine = combine

    @property
    def is_scalar_fold(self) -> bool:
        """True when the accumulator is a scalar/tuple (a classic fold)."""
        return len(self.rshape) == 0

    @property
    def accumulator_sym(self) -> Sym:
        return self.value_func.params[-1]

    @property
    def writes_constant_location(self) -> bool:
        """True when the accumulator location does not depend on the indices."""
        body = self.index_func.body
        parts = body.elements if isinstance(body, MakeTuple) else (body,)
        return all(isinstance(p, Const) for p in parts)

    @property
    def updates_whole_accumulator(self) -> bool:
        """True when every iteration updates the entire accumulator (a *fold*).

        The interchange rules of Section 4 match on this special case: the
        location is a constant (zero) and the slice consumed by the value
        function has the same type as the whole accumulator.
        """
        if self.is_scalar_fold:
            return True
        acc = self.accumulator_sym
        return self.writes_constant_location and acc.ty == self.init.ty


class FlatMap(Pattern):
    """``FlatMap(d)(n) : V^1`` — zero or more output values per index, concatenated."""

    _fields = ("domain", "func")

    def __init__(self, domain: Domain, func: Lambda) -> None:
        if domain.rank != 1:
            raise IRError("FlatMap is restricted to one-dimensional domains")
        if func.arity != 1:
            raise IRError("FlatMap function takes a single index")
        ret = func.return_type
        if not (is_tensor(ret) and ret.rank == 1):
            raise IRError("FlatMap function must return a one-dimensional array value")
        super().__init__(TensorType(ret.element, 1), domain)
        self.func = func


class GroupByFold(Pattern):
    """``GroupByFold(d)(z)(g)(c) : (K,V)^1`` — fused groupBy + per-bucket fold."""

    _fields = ("domain", "init", "key_func", "value_func", "combine")

    def __init__(
        self,
        domain: Domain,
        init: Expr,
        key_func: Lambda,
        value_func: Lambda,
        combine: Lambda,
    ) -> None:
        if domain.rank != 1:
            raise IRError("GroupByFold is restricted to one-dimensional domains")
        if key_func.arity != 1:
            raise IRError("GroupByFold key function takes a single index")
        if value_func.arity != 2:
            raise IRError("GroupByFold value function takes the index and the bucket accumulator")
        key_ty = key_func.return_type
        value_ty = init.ty
        super().__init__(TensorType(TupleType((key_ty, value_ty)), 1), domain)
        self.init = init
        self.key_func = key_func
        self.value_func = value_func
        self.combine = combine


# ---------------------------------------------------------------------------
# Structural hashing (hash consing)
# ---------------------------------------------------------------------------


def _stable_encode(value, out: list) -> None:
    """Append a canonical byte encoding of ``value`` to ``out``.

    The encoding is type-tagged and length-delimited so distinct values
    never collide by concatenation, and it avoids Python's builtin
    ``hash()`` entirely: builtin string hashing is randomised per process
    (``PYTHONHASHSEED``), and structural hashes key the *disk-persisted*
    analysis cache, so they must be identical across interpreter runs.
    """
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"B1")
    elif value is False:
        out.append(b"B0")
    elif isinstance(value, int):
        token = str(value).encode()
        out.append(b"I%d:" % len(token))
        out.append(token)
    elif isinstance(value, float):
        out.append(b"F")
        out.append(_struct.pack("<d", value))
    elif isinstance(value, str):
        token = value.encode()
        out.append(b"S%d:" % len(token))
        out.append(token)
    elif isinstance(value, Type):
        token = repr(value).encode()
        out.append(b"Y%d:" % len(token))
        out.append(token)
    elif isinstance(value, (tuple, list)):
        out.append(b"T%d:" % len(value))
        for item in value:
            _stable_encode(item, out)
    else:  # pragma: no cover - defensive
        raise IRError(f"cannot canonically encode {type(value).__name__} for hashing")


def _stable_hash(parts: Sequence) -> int:
    pieces: list = []
    _stable_encode(tuple(parts), pieces)
    digest = _hashlib.blake2b(b"".join(pieces), digest_size=8).digest()
    return int.from_bytes(digest, "big")


_NONE_HASH: Optional[int] = None


def _none_hash() -> int:
    global _NONE_HASH
    if _NONE_HASH is None:
        _NONE_HASH = _stable_hash(("none",))
    return _NONE_HASH


def structural_hash(node: Optional[Node]) -> int:
    """Compute the structural fingerprint of ``node`` (see ``Node.structural_hash``).

    The fingerprint covers the node class, its plain-data attributes, its
    type, and — recursively — every child node.  Symbols contribute their
    name and type rather than their identity, so structurally identical
    trees built with the same symbol names hash equal even when the symbol
    objects differ.  ``None`` children (e.g. an unused MultiFold combiner)
    hash to a distinguished value.

    The hash is deterministic across processes (blake2b over a canonical
    encoding, never builtin ``hash``): it keys entries in the disk-persisted
    analysis cache, which must survive interpreter restarts.
    """
    if node is None:
        return _none_hash()
    cached = node._shash
    if cached is not None:
        return cached

    if isinstance(node, Sym):
        value = _stable_hash(("sym", node.name, node.ty))
    elif isinstance(node, Const):
        value = _stable_hash(("const", type(node.value).__name__, node.value, node.ty))
    else:
        parts: list[object] = [type(node).__name__]
        if isinstance(node, Expr):
            parts.append(node.ty)
        for attr in node._attrs:
            parts.append((attr, getattr(node, attr)))
        for name in node._fields:
            field = getattr(node, name)
            if field is None:
                parts.append(_none_hash())
            elif isinstance(field, Node):
                parts.append(structural_hash(field))
            else:  # tuple of nodes
                parts.append(tuple(structural_hash(v) for v in field))
        value = _stable_hash(parts)

    node._shash = value
    return value
