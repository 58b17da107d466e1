"""Shared code-emission infrastructure.

All generators (FORTRAN, C, OpenCL, Python) build text through an
:class:`Emitter` that tracks indentation, and render expressions through a
precedence-aware walker so parentheses are minimal but always sufficient.
"""

from __future__ import annotations

from ..core.expr import BinOp, Const, Expr, FuncCall, GridRef, IndexVar, LibCall, UnOp
from ..errors import CodegenError

__all__ = ["Emitter", "ExprRenderer", "PRECEDENCE"]

# Operator precedence, loosest binds first.
PRECEDENCE = {
    "or": 1,
    "and": 2,
    "not": 3,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "//": 6, "%": 6,
    "neg": 7,
    "**": 8,
}
_ATOM = 9


class Emitter:
    """An indentation-tracking line buffer."""

    def __init__(self, indent_unit: str = "  "):
        self.lines: list[str] = []
        self._depth = 0
        self._unit = indent_unit

    def emit(self, line: str = "") -> None:
        if line:
            self.lines.append(self._unit * self._depth + line)
        else:
            self.lines.append("")

    def emit_raw(self, line: str) -> None:
        """Emit without indentation (OpenMP sentinels, preprocessor...)."""
        self.lines.append(line)

    def indent(self) -> None:
        self._depth += 1

    def dedent(self) -> None:
        if self._depth == 0:
            raise CodegenError("unbalanced dedent")
        self._depth -= 1

    @property
    def depth(self) -> int:
        return self._depth

    def blank(self) -> None:
        if self.lines and self.lines[-1] != "":
            self.lines.append("")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class ExprRenderer:
    """Precedence-aware expression rendering.

    Subclasses override the ``render_*`` hooks per target language; the
    dispatcher and parenthesization logic live here.
    """

    def render(self, e: Expr, parent_prec: int = 0) -> str:
        text, prec = self._render(e)
        if prec < parent_prec:
            return f"({text})"
        return text

    def _render(self, e: Expr) -> tuple[str, int]:
        if isinstance(e, Const):
            return self.render_const(e), _ATOM
        if isinstance(e, IndexVar):
            return self.render_index_var(e), _ATOM
        if isinstance(e, GridRef):
            return self.render_grid_ref(e), _ATOM
        if isinstance(e, BinOp):
            return self.render_binop(e), PRECEDENCE[e.op]
        if isinstance(e, UnOp):
            return self.render_unop(e), PRECEDENCE["neg" if e.op == "neg" else "not"]
        if isinstance(e, LibCall):
            return self.render_lib_call(e), _ATOM
        if isinstance(e, FuncCall):
            return self.render_func_call(e), _ATOM
        raise CodegenError(f"cannot render expression node {type(e).__name__}")

    # --- hooks ----------------------------------------------------------
    def render_const(self, e: Const) -> str:
        raise NotImplementedError

    def render_index_var(self, e: IndexVar) -> str:
        return e.name

    def render_grid_ref(self, e: GridRef) -> str:
        raise NotImplementedError

    def render_lib_call(self, e: LibCall) -> str:
        raise NotImplementedError

    def render_func_call(self, e: FuncCall) -> str:
        raise NotImplementedError

    def binop_spelling(self, op: str) -> str:
        return op

    def render_binop(self, e: BinOp) -> str:
        prec = PRECEDENCE[e.op]
        # '**' is right-associative; everything else left-associative.  The
        # right operand of '-' '/' needs a strictly higher precedence to
        # avoid re-association (a - (b - c) must keep its parentheses).
        if e.op == "**":
            left = self.render(e.left, prec + 1)
            right = self.render(e.right, prec)
        elif e.op in ("-", "/", "//", "%"):
            left = self.render(e.left, prec)
            right = self.render(e.right, prec + 1)
        else:
            left = self.render(e.left, prec)
            right = self.render(e.right, prec)
        return f"{left} {self.binop_spelling(e.op)} {right}"

    def render_unop(self, e: UnOp) -> str:
        if e.op == "neg":
            return f"-{self.render(e.operand, PRECEDENCE['neg'] + 1)}"
        return self.render_not(e)

    def render_not(self, e: UnOp) -> str:
        raise NotImplementedError
