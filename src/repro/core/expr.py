"""Expression AST for GLAF formulas.

Formulas entered in the GPI's formula boxes are stored internally as small
expression trees over grid references, loop index variables, constants,
arithmetic/logical operators, and library-function calls.  The trees are
immutable; every back-end (auto-parallelization, optimization, code
generation, execution) walks the same nodes.

Operator overloading is provided so that the programmatic builder reads
naturally::

    s.formula(ref("out", I("row")), ref("a", I("row")) * 2.0 + lib("ABS", ref("b")))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "IndexVar",
    "GridRef",
    "BinOp",
    "UnOp",
    "LibCall",
    "FuncCall",
    "E",
    "I",
    "ref",
    "lib",
    "walk",
    "index_vars_used",
    "grids_read",
    "ARITH_OPS",
    "COMPARE_OPS",
    "LOGICAL_OPS",
]

ARITH_OPS = ("+", "-", "*", "/", "**", "//", "%")
COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGICAL_OPS = ("and", "or")


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()

    # -- operator sugar -------------------------------------------------
    def __add__(self, other: object) -> "BinOp":
        return BinOp("+", self, E(other))

    def __radd__(self, other: object) -> "BinOp":
        return BinOp("+", E(other), self)

    def __sub__(self, other: object) -> "BinOp":
        return BinOp("-", self, E(other))

    def __rsub__(self, other: object) -> "BinOp":
        return BinOp("-", E(other), self)

    def __mul__(self, other: object) -> "BinOp":
        return BinOp("*", self, E(other))

    def __rmul__(self, other: object) -> "BinOp":
        return BinOp("*", E(other), self)

    def __truediv__(self, other: object) -> "BinOp":
        return BinOp("/", self, E(other))

    def __rtruediv__(self, other: object) -> "BinOp":
        return BinOp("/", E(other), self)

    def __pow__(self, other: object) -> "BinOp":
        return BinOp("**", self, E(other))

    def __floordiv__(self, other: object) -> "BinOp":
        return BinOp("//", self, E(other))

    def __mod__(self, other: object) -> "BinOp":
        return BinOp("%", self, E(other))

    def __neg__(self) -> "UnOp":
        return UnOp("neg", self)

    # Comparisons intentionally return expression nodes, so Expr objects
    # must never be used in Python boolean contexts (e.g. as dict keys).
    def eq(self, other: object) -> "BinOp":
        return BinOp("==", self, E(other))

    def ne(self, other: object) -> "BinOp":
        return BinOp("!=", self, E(other))

    def lt(self, other: object) -> "BinOp":
        return BinOp("<", self, E(other))

    def le(self, other: object) -> "BinOp":
        return BinOp("<=", self, E(other))

    def gt(self, other: object) -> "BinOp":
        return BinOp(">", self, E(other))

    def ge(self, other: object) -> "BinOp":
        return BinOp(">=", self, E(other))

    def and_(self, other: object) -> "BinOp":
        return BinOp("and", self, E(other))

    def or_(self, other: object) -> "BinOp":
        return BinOp("or", self, E(other))

    def not_(self) -> "UnOp":
        return UnOp("not", self)

    def children(self) -> tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant (int, float, bool or str).

    A NumPy scalar is kept as it is: the FORTRAN runtime lowers its
    literals, which are ``np.int64``/``np.float64``, with their types.
    """

    value: object

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, float, bool, str, np.number,
                                       np.bool_)):
            raise TypeError(f"Const holds int/float/bool/str, got {type(self.value)!r}")

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class IndexVar(Expr):
    """A reference to a step index variable (e.g. ``row``)."""

    name: str

    def __repr__(self) -> str:
        return f"I({self.name!r})"


@dataclass(frozen=True)
class GridRef(Expr):
    """A reference to a grid, possibly indexed.

    A scalar grid is referenced with no indices.  An *unindexed* reference to
    an array grid denotes the whole array (legal only as an argument to
    whole-array library functions such as ``SUM`` or as a call argument).
    """

    grid: str
    indices: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(E(i) for i in self.indices))

    def children(self) -> tuple[Expr, ...]:
        return self.indices

    def __repr__(self) -> str:
        if not self.indices:
            return f"ref({self.grid!r})"
        return f"ref({self.grid!r}, {', '.join(map(repr, self.indices))})"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS + COMPARE_OPS + LOGICAL_OPS:
            raise ValueError(f"unknown binary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation: ``neg`` or ``not``."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("neg", "not"):
            raise ValueError(f"unknown unary operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def __repr__(self) -> str:
        return f"{self.op}({self.operand!r})"


@dataclass(frozen=True)
class LibCall(Expr):
    """A call to a GLAF library function (paper §3.6): ``ABS``, ``ALOG``...

    Library functions map to language intrinsics during code generation and
    to NumPy implementations during execution.
    """

    name: str
    args: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.upper())
        object.__setattr__(self, "args", tuple(E(a) for a in self.args))

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"lib({self.name!r}, {', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """A call to a user-defined GLAF function that returns a value."""

    name: str
    args: tuple[Expr, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(E(a) for a in self.args))

    def children(self) -> tuple[Expr, ...]:
        return self.args

    def __repr__(self) -> str:
        return f"FuncCall({self.name!r}, {', '.join(map(repr, self.args))})"


# ---------------------------------------------------------------------------
# Constructors and traversal helpers
# ---------------------------------------------------------------------------

def E(value: object) -> Expr:
    """Lift a Python scalar to a :class:`Const`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, bool)):
        return Const(value)
    if isinstance(value, str):
        # A bare string is taken as a scalar grid reference, which makes
        # range bounds such as ``(1, "n_atoms")`` read like the GPI.
        return GridRef(value)
    raise TypeError(f"cannot lift {type(value)!r} to an expression")


def I(name: str) -> IndexVar:
    """Shorthand for an index-variable reference."""
    return IndexVar(name)


def ref(grid: str, *indices: object) -> GridRef:
    """Shorthand for a grid reference."""
    return GridRef(grid, tuple(E(i) for i in indices))


def lib(name: str, *args: object) -> LibCall:
    """Shorthand for a library-function call."""
    return LibCall(name, tuple(E(a) for a in args))


def walk(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression tree."""
    yield e
    for c in e.children():
        yield from walk(c)


def index_vars_used(e: Expr) -> set[str]:
    """Names of all index variables appearing in ``e``."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, IndexVar):
            out.add(node.name)
        else:
            stack.extend(node.children())
    return out


def grids_read(e: Expr) -> set[str]:
    """Names of all grids referenced anywhere in ``e``."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, GridRef):
            out.add(node.grid)
        stack.extend(node.children())
    return out
