"""Whole-program container for PPL expressions.

A :class:`Program` bundles the expression tree with its free inputs: array
symbols (the data the accelerator reads from main memory), scalar symbols
(sizes such as ``n``, ``k``, ``d`` and tile sizes ``b0``, ``b1``) and an
optional set of named outputs.  The compiler passes, the interpreter, the
hardware generator and the simulator all operate on programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.errors import IRError
from repro.ppl.ir import Expr, MakeTuple, Node, Sym
from repro.ppl.types import TensorType, is_tensor

__all__ = ["Program", "named_outputs"]


@dataclass
class Program:
    """A PPL program: free inputs plus a single (possibly tuple-valued) body.

    Attributes:
        name: human-readable program name (used in reports and codegen).
        inputs: array-typed symbols read from main memory.
        sizes: scalar symbols that parameterise the program (dimensions,
            tile sizes).  Order is the order users must bind them in.
        body: the output expression.  Multi-output programs use a
            :class:`MakeTuple` body; `output_names` labels the fields.
        output_names: optional labels for the outputs (e.g. ``["newCentroids"]``).
    """

    name: str
    inputs: list[Sym]
    sizes: list[Sym]
    body: Expr
    output_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        for array in self.inputs:
            if not is_tensor(array.ty):
                raise IRError(f"program input {array.name!r} must be an array symbol")
        self._validate_closed()

    # -- introspection ------------------------------------------------------
    def _validate_closed(self) -> None:
        allowed = set(self.inputs) | set(self.sizes)
        unbound = [s for s in self.body.free_syms() if s not in allowed]
        if unbound:
            names = ", ".join(sorted(s.name for s in unbound))
            raise IRError(f"program {self.name!r} has unbound symbols: {names}")

    @property
    def outputs(self) -> tuple[Expr, ...]:
        if isinstance(self.body, MakeTuple):
            return self.body.elements
        return (self.body,)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def output_name(self, index: int) -> str:
        if index < len(self.output_names):
            return self.output_names[index]
        return f"out{index}" if self.num_outputs > 1 else "out"

    def input_named(self, name: str) -> Sym:
        for array in self.inputs:
            if array.name == name:
                return array
        raise KeyError(f"program {self.name!r} has no input named {name!r}")

    def size_named(self, name: str) -> Sym:
        for size in self.sizes:
            if size.name == name:
                return size
        raise KeyError(f"program {self.name!r} has no size named {name!r}")

    def symbol_table(self) -> Dict[str, Sym]:
        return {s.name: s for s in [*self.inputs, *self.sizes]}

    # -- rewriting -----------------------------------------------------------
    def with_body(self, body: Expr, name: Optional[str] = None) -> "Program":
        """A new program sharing this program's inputs with a different body."""
        return Program(
            name=name or self.name,
            inputs=list(self.inputs),
            sizes=list(self.sizes),
            body=body,
            output_names=list(self.output_names),
        )

    def with_sizes(self, extra: Sequence[Sym]) -> "Program":
        """A new program with additional size parameters (e.g. tile sizes)."""
        merged = list(self.sizes)
        for size in extra:
            if size not in merged:
                merged.append(size)
        return Program(
            name=self.name,
            inputs=list(self.inputs),
            sizes=merged,
            body=self.body,
            output_names=list(self.output_names),
        )

    def bind(self, values: Mapping[str, object]) -> Dict[Sym, object]:
        """Build an interpreter environment from a ``name -> value`` mapping."""
        env: Dict[Sym, object] = {}
        for symbol in [*self.inputs, *self.sizes]:
            if symbol.name not in values:
                raise KeyError(
                    f"missing binding for {symbol.name!r} when running program {self.name!r}"
                )
            env[symbol] = values[symbol.name]
        return env

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ins = ", ".join(s.name for s in self.inputs)
        szs = ", ".join(s.name for s in self.sizes)
        return f"Program({self.name!r}, inputs=[{ins}], sizes=[{szs}])"


def named_outputs(program: Program) -> Dict[str, Expr]:
    """Mapping of output name to output expression."""
    return {program.output_name(i): out for i, out in enumerate(program.outputs)}
