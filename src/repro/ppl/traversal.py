"""Generic traversal, rewriting and comparison utilities over the PPL IR.

The transformation passes are written as bottom-up rewriters built on
:class:`Transformer`.  Because IR nodes are immutable, a rewrite produces new
nodes; :func:`rebuild` knows how to reconstruct every node class from new
child values while preserving non-node attributes (operators, axes, pattern
metadata).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence

from repro.errors import IRError
from repro.ppl import ir
from repro.ppl.ir import (
    ArrayApply,
    ArrayCopy,
    ArrayDim,
    ArrayLen,
    ArrayLit,
    ArraySlice,
    BinOp,
    Cmp,
    Const,
    Domain,
    EmptyArray,
    Expr,
    FlatMap,
    Full,
    GroupByFold,
    Lambda,
    Let,
    MakeTuple,
    Map,
    MultiFold,
    Node,
    Pattern,
    Select,
    Sym,
    TupleGet,
    UnaryOp,
    Zeros,
)

__all__ = [
    "rebuild",
    "Transformer",
    "Visitor",
    "substitute",
    "free_syms",
    "collect",
    "walk",
    "count_nodes",
    "structurally_equal",
    "contains_node_type",
    "find_patterns",
    "pattern_depth",
]


# ---------------------------------------------------------------------------
# Rebuilding
# ---------------------------------------------------------------------------


def rebuild(node: Node, values: Dict[str, object]) -> Node:
    """Reconstruct ``node`` with new field values.

    ``values`` maps field names (as declared in ``_fields``) to their new
    node / tuple-of-node values.  Non-node attributes are taken from the
    original node.  Pattern metadata is copied onto the new pattern.
    """
    cls = type(node)
    get = values.get

    if isinstance(node, Const) or isinstance(node, Sym):
        return node
    if isinstance(node, BinOp):
        new: Node = BinOp(node.op, get("lhs", node.lhs), get("rhs", node.rhs))
    elif isinstance(node, UnaryOp):
        new = UnaryOp(node.op, get("operand", node.operand))
    elif isinstance(node, Cmp):
        new = Cmp(node.op, get("lhs", node.lhs), get("rhs", node.rhs))
    elif isinstance(node, Select):
        new = Select(
            get("cond", node.cond),
            get("if_true", node.if_true),
            get("if_false", node.if_false),
        )
    elif isinstance(node, MakeTuple):
        new = MakeTuple(tuple(get("elements", node.elements)))
    elif isinstance(node, TupleGet):
        new = TupleGet(get("tup", node.tup), node.index)
    elif isinstance(node, ArrayApply):
        new = ArrayApply(get("array", node.array), tuple(get("indices", node.indices)))
    elif isinstance(node, ArraySlice):
        array = get("array", node.array)
        fixed = list(get("fixed", node.fixed))
        specs: list[Optional[Expr]] = []
        fixed_iter = iter(fixed)
        for axis in range(node.array.ty.rank):
            specs.append(None if axis in node.kept_axes else next(fixed_iter))
        new = ArraySlice(array, specs)
    elif isinstance(node, ArrayCopy):
        array = get("array", node.array)
        offsets = tuple(get("offsets", node.offsets))
        tile_sizes = list(get("tile_sizes", node.tile_sizes))
        sizes: list[Optional[Expr]] = []
        size_iter = iter(tile_sizes)
        for axis in range(node.array.ty.rank):
            sizes.append(None if axis in node.full_dims else next(size_iter))
        new = ArrayCopy(array, offsets, sizes, reuse=node.reuse)
    elif isinstance(node, ArrayLen):
        new = ArrayLen(get("array", node.array))
    elif isinstance(node, ArrayDim):
        new = ArrayDim(get("array", node.array), node.axis)
    elif isinstance(node, Zeros):
        new = Zeros(tuple(get("shape", node.shape)), node.element)
    elif isinstance(node, Full):
        new = Full(tuple(get("shape", node.shape)), get("fill", node.fill))
    elif isinstance(node, EmptyArray):
        new = EmptyArray(node.element)
    elif isinstance(node, ArrayLit):
        new = ArrayLit(tuple(get("elements", node.elements)))
    elif isinstance(node, Let):
        new = Let(node.sym, get("value", node.value), get("body", node.body))
    elif isinstance(node, Lambda):
        new = Lambda(tuple(get("params", node.params)), get("body", node.body))
    elif isinstance(node, Domain):
        new = Domain(tuple(get("dims", node.dims)), tuple(get("stride_exprs", node.stride_exprs)))
    elif isinstance(node, Map):
        new = Map(get("domain", node.domain), get("func", node.func))
    elif isinstance(node, MultiFold):
        new = MultiFold(
            get("domain", node.domain),
            tuple(get("rshape", node.rshape)),
            get("init", node.init),
            get("index_func", node.index_func),
            get("value_func", node.value_func),
            get("combine", node.combine),
        )
    elif isinstance(node, FlatMap):
        new = FlatMap(get("domain", node.domain), get("func", node.func))
    elif isinstance(node, GroupByFold):
        new = GroupByFold(
            get("domain", node.domain),
            get("init", node.init),
            get("key_func", node.key_func),
            get("value_func", node.value_func),
            get("combine", node.combine),
        )
    else:  # pragma: no cover - defensive
        raise IRError(f"rebuild does not know how to reconstruct {cls.__name__}")

    if isinstance(node, Pattern) and isinstance(new, Pattern):
        new.meta = dict(node.meta)
    return new


def _map_field(value: object, fn: Callable[[Node], Node]) -> object:
    if value is None:
        return None
    if isinstance(value, Node):
        return fn(value)
    if isinstance(value, tuple):
        return tuple(fn(v) if isinstance(v, Node) else v for v in value)
    return value


# ---------------------------------------------------------------------------
# Transformers and visitors
# ---------------------------------------------------------------------------


def _hook_kinds(cls: type) -> Optional[frozenset]:
    """The node classes ``cls``'s ``rewrite_<ClassName>`` hooks handle.

    ``None`` (visit everything) when a hook names no IR node class or the
    transformer has a ``rewrite_default`` catch-all.
    """
    if hasattr(cls, "rewrite_default"):
        return None
    kinds = set()
    for name in dir(cls):
        if name.startswith("rewrite_"):
            node_cls = getattr(ir, name[len("rewrite_"):], None)
            if not (isinstance(node_cls, type) and issubclass(node_cls, Node)):
                return None
            kinds.add(node_cls)
    return frozenset(kinds)


class Transformer:
    """Bottom-up IR rewriter.

    Subclasses override ``rewrite_<ClassName>`` methods which receive the node
    *after* its children have been transformed and may return a replacement
    node (or the node unchanged).  The default behaviour is the identity.

    ``kinds`` is the set of node classes the transformer can change: a
    subtree containing none of them (see ``Node.subtree_kinds``) is returned
    as is, without being visited.  It is derived from the hook names; a
    subclass that overrides :meth:`transform` gets the skip only if it
    declares ``kinds`` itself.  ``None`` visits every node.
    """

    kinds: Optional[frozenset] = frozenset()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "kinds" in cls.__dict__:
            if cls.kinds is not None:
                cls.kinds = frozenset(cls.kinds)
        elif cls.transform is not Transformer.transform:
            cls.kinds = None
        else:
            cls.kinds = _hook_kinds(cls)

    def transform(self, node: Node) -> Node:
        if node is None:
            return None
        kinds = self.kinds
        if kinds is not None and kinds.isdisjoint(node.subtree_kinds()):
            return node
        new_values: Dict[str, object] = {}
        changed = False
        for name in node._fields:
            old = getattr(node, name)
            new = _map_field(old, self.transform)
            new_values[name] = new
            if not _field_identical(old, new):
                changed = True
        result = rebuild(node, new_values) if changed else node
        hook = getattr(self, f"rewrite_{type(node).__name__}", None)
        if hook is not None:
            replaced = hook(result)
            if replaced is not None:
                result = replaced
        else:
            generic = getattr(self, "rewrite_default", None)
            if generic is not None:
                replaced = generic(result)
                if replaced is not None:
                    result = replaced
        return result

    def __call__(self, node: Node) -> Node:
        return self.transform(node)


def _field_identical(old: object, new: object) -> bool:
    if old is new:
        return True
    if isinstance(old, tuple) and isinstance(new, tuple) and len(old) == len(new):
        return all(o is n for o, n in zip(old, new))
    return False


class Visitor:
    """Read-only traversal with per-class ``visit_<ClassName>`` hooks."""

    def visit(self, node: Node) -> None:
        if node is None:
            return
        hook = getattr(self, f"visit_{type(node).__name__}", None)
        if hook is not None:
            hook(node)
        else:
            self.generic_visit(node)

    def generic_visit(self, node: Node) -> None:
        for child in node.children():
            self.visit(child)


# ---------------------------------------------------------------------------
# Common helpers
# ---------------------------------------------------------------------------


def walk(node: Node) -> Iterator[Node]:
    """Depth-first pre-order iterator over all nodes (including lambdas/domains)."""
    stack = [node]
    while stack:
        current = stack.pop()
        if current is None:
            continue
        yield current
        stack.extend(reversed(current.children()))


def collect(node: Node, predicate: Callable[[Node], bool]) -> list[Node]:
    """All nodes in ``node`` satisfying ``predicate`` (pre-order)."""
    return [n for n in walk(node) if predicate(n)]


def count_nodes(node: Node) -> int:
    return 0 if node is None else node.node_count()


def contains_node_type(node: Node, node_type: type) -> bool:
    return node is not None and any(issubclass(k, node_type) for k in node.subtree_kinds())


def find_patterns(node: Node) -> list[Pattern]:
    """All parallel patterns in the expression, outermost first."""
    return [n for n in walk(node) if isinstance(n, Pattern)]


def pattern_depth(node: Node) -> int:
    """Maximum nesting depth of parallel patterns within ``node``."""
    best = 0
    if isinstance(node, Pattern):
        best = 1 + max((pattern_depth(c) for c in node.children()), default=0)
        return best
    for child in node.children():
        best = max(best, pattern_depth(child))
    return best


class _Substituter(Transformer):
    kinds = (Sym,)

    def __init__(self, mapping: Dict[Sym, Expr]) -> None:
        self.mapping = mapping

    def transform(self, node: Node) -> Node:
        if isinstance(node, Sym) and node in self.mapping:
            return self.mapping[node]
        return super().transform(node)


def substitute(node: Node, mapping: Dict[Sym, Expr]) -> Node:
    """Replace occurrences of the given symbols (compared by identity)."""
    if not mapping:
        return node
    return _Substituter(mapping).transform(node)


def free_syms(node: Node, bound: Optional[set] = None) -> set:
    """Symbols referenced by ``node`` that are not bound by an enclosing lambda or Let."""
    if node is None:
        return set()
    free = node.free_syms()
    return set(free.difference(bound)) if bound else set(free)


def structurally_equal(left: Node, right: Node, sym_map: Optional[Dict[Sym, Sym]] = None) -> bool:
    """Structural comparison of two IR trees.

    Bound symbols are compared up to alpha-renaming via ``sym_map``; free
    symbols must be identical objects.  Pattern metadata is ignored.
    """
    sym_map = sym_map if sym_map is not None else {}

    if isinstance(left, Sym) or isinstance(right, Sym):
        if not (isinstance(left, Sym) and isinstance(right, Sym)):
            return False
        return sym_map.get(left, left) is right

    if type(left) is not type(right):
        return False
    if isinstance(left, Const):
        return left.value == right.value and left.ty == right.ty

    for attr in left._attrs:
        if getattr(left, attr) != getattr(right, attr):
            return False

    if isinstance(left, Lambda):
        if len(left.params) != len(right.params):
            return False
        extended = dict(sym_map)
        for lp, rp in zip(left.params, right.params):
            extended[lp] = rp
        return structurally_equal(left.body, right.body, extended)

    if isinstance(left, Let):
        if not structurally_equal(left.value, right.value, sym_map):
            return False
        extended = dict(sym_map)
        extended[left.sym] = right.sym
        return structurally_equal(left.body, right.body, extended)

    for name in left._fields:
        lv, rv = getattr(left, name), getattr(right, name)
        if isinstance(lv, tuple) != isinstance(rv, tuple):
            return False
        if isinstance(lv, tuple):
            if len(lv) != len(rv):
                return False
            for le, re in zip(lv, rv):
                if isinstance(le, Node) != isinstance(re, Node):
                    return False
                if isinstance(le, Node):
                    if not structurally_equal(le, re, sym_map):
                        return False
                elif le != re:
                    return False
        elif isinstance(lv, Node) or isinstance(rv, Node):
            if lv is None or rv is None:
                if lv is not rv:
                    return False
            elif not structurally_equal(lv, rv, sym_map):
                return False
        elif lv != rv:
            return False
    return True
