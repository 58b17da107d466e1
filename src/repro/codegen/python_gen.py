"""Executable-Python code generation.

GLAF generates "human-readable, compatible code for the selected language";
this back-end targets NumPy Python, which doubles as the reproduction's
self-check path: every kernel can be executed both through the GLAF IR
interpreter and through its generated Python, and the two must agree
bit-for-bit.

Semantics mapping:

* GLAF/FORTRAN 1-based inclusive ranges -> ``range(start, end + 1, step)``
  with ``-1`` shifts on every subscript;
* global-scope grids (module-scope, COMMON, imported) live on a ``Globals``
  object ``g`` passed as the first argument to every generated function —
  the Python analogue of FORTRAN linkage;
* scalar dummy arguments with intent ``out``/``inout`` are passed as 0-d
  NumPy arrays and accessed as ``name[()]`` so mutation is visible to the
  caller (FORTRAN passes everything by reference);
* SAVE'd locals persist in a module-level ``_save_store`` keyed by
  ``(function, variable)`` — exactly the FUN3D no-reallocation behavior;
* integer division and MOD follow FORTRAN truncation semantics via helper
  functions emitted into the generated module.
"""

from __future__ import annotations

from ..core.expr import BinOp, Const, Expr, FuncCall, GridRef, LibCall, UnOp
from ..core.function import GlafFunction, GlafProgram
from ..core.grid import Grid
from ..core.libfuncs import get as get_libfunc
from ..core.step import Assign, CallStmt, ExitLoop, IfStmt, Return, Step, Stmt
from ..core.types import GlafType
from ..errors import CodegenError
from ..optimize.plan import OptimizationPlan
from ..robust import inject
from .base import Emitter, ExprRenderer

__all__ = ["PythonGenerator", "generate_python_source"]

_DTYPE = {
    GlafType.T_INT: "np.int64",
    GlafType.T_REAL: "np.float32",
    GlafType.T_REAL8: "np.float64",
    GlafType.T_LOGICAL: "np.bool_",
}

_PREAMBLE = '''\
import numpy as np

_save_store = {}


def _idiv(a, b):
    """FORTRAN integer division: truncation toward zero, exact for integers."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        q = abs(int(a)) // abs(int(b))
        return np.int64(q if (a < 0) == (b < 0) else -q)
    return np.int64(np.trunc(a / b))


def _fmod(a, b):
    """FORTRAN MOD: sign follows the dividend."""
    r = np.abs(a) % np.abs(b)
    return np.where(np.asarray(a) < 0, -r, r)[()]


def reset_save_store():
    _save_store.clear()


class Globals:
    """Storage for module-scope, COMMON and imported grids."""

    def __init__(self, **arrays):
        for k, v in arrays.items():
            setattr(self, k, v)
'''


class PyExprRenderer(ExprRenderer):
    def __init__(self, program: GlafProgram, fn: GlafFunction | None):
        self.program = program
        self.fn = fn

    # -- type inference (only what '/'-semantics needs) -------------------
    def is_int(self, e: Expr) -> bool:
        if isinstance(e, Const):
            return isinstance(e.value, int) and not isinstance(e.value, bool)
        if isinstance(e, GridRef):
            try:
                return self.program.resolve_grid(self.fn, e.grid).ty is GlafType.T_INT
            except KeyError:
                return False
        if isinstance(e, UnOp):
            return e.op == "neg" and self.is_int(e.operand)
        if isinstance(e, BinOp):
            if e.op in ("+", "-", "*", "//", "%"):
                return self.is_int(e.left) and self.is_int(e.right)
            return False
        if isinstance(e, LibCall):
            return e.name in ("INT", "SIZE", "MOD") and all(self.is_int(a) for a in e.args)
        if isinstance(e, FuncCall):
            try:
                return self.program.find_function(e.name).return_type is GlafType.T_INT
            except KeyError:
                return False
        if hasattr(e, "name"):  # IndexVar
            return True
        return False

    def render_const(self, e: Const) -> str:
        v = e.value
        if isinstance(v, bool):
            return "True" if v else "False"
        if isinstance(v, (int, float)):
            return repr(v)
        return repr(v)

    def _spelling(self, name: str) -> str:
        try:
            scope = self.program.scope_of(self.fn, name)
        except KeyError:
            return name
        return f"g.{name}" if scope == "global" else name

    def _scalar_by_ref(self, g: Grid, name: str) -> bool:
        return (
            self.fn is not None
            and name in self.fn.params
            and g.rank == 0
            and g.intent in ("out", "inout")
        )

    def render_grid_ref(self, e: GridRef) -> str:
        try:
            g = self.program.resolve_grid(self.fn, e.grid)
        except KeyError:
            raise CodegenError(f"unknown grid {e.grid!r}")
        base = self._spelling(e.grid)
        if not e.indices:
            if self._scalar_by_ref(g, e.grid):
                return f"{base}[()]"
            return base
        subs = ", ".join(f"{self.render(i)} - 1" for i in e.indices)
        return f"{base}[{subs}]"

    def render_lib_call(self, e: LibCall) -> str:
        f = get_libfunc(e.name)
        f.check_arity(len(e.args))
        args = ", ".join(self.render(a) for a in e.args)
        mapping = {
            "ABS": "np.abs", "SQRT": "np.sqrt", "EXP": "np.exp",
            "LOG": "np.log", "ALOG": "np.log", "ALOG10": "np.log10",
            "LOG10": "np.log10", "SIN": "np.sin", "COS": "np.cos",
            "TAN": "np.tan", "ASIN": "np.arcsin", "ACOS": "np.arccos",
            "ATAN": "np.arctan", "ATAN2": "np.arctan2", "SINH": "np.sinh",
            "COSH": "np.cosh", "TANH": "np.tanh", "MOD": "_fmod",
            "SIGN": "lambda_sign", "MIN": "np.minimum", "MAX": "np.maximum",
            "INT": "np.int64", "REAL": "np.float32", "DBLE": "np.float64",
            "FLOOR": "np.floor", "CEILING": "np.ceil",
            "SUM": "np.sum", "MINVAL": "np.min", "MAXVAL": "np.max",
            "PRODUCT": "np.prod", "SIZE": "np.size",
        }
        if e.name == "SIGN":
            a, b = [self.render(x) for x in e.args]
            return f"(np.abs({a}) * np.where(np.asarray({b}) >= 0, 1.0, -1.0))"
        if e.name in ("MIN", "MAX") and len(e.args) > 2:
            fn = mapping[e.name]
            out = self.render(e.args[0])
            for a in e.args[1:]:
                out = f"{fn}({out}, {self.render(a)})"
            return out
        if e.name == "INT":
            return f"np.int64(np.trunc({args}))"
        return f"{mapping[e.name]}({args})"

    def render_func_call(self, e: FuncCall) -> str:
        args = ", ".join(self.render(a) for a in e.args)
        sep = ", " if args else ""
        return f"{e.name}(g{sep}{args})"

    def binop_spelling(self, op: str) -> str:
        return op

    def render_binop(self, e: BinOp) -> str:
        if e.op == "/" and self.is_int(e.left) and self.is_int(e.right):
            return f"_idiv({self.render(e.left)}, {self.render(e.right)})"
        if e.op == "//":
            return f"_idiv({self.render(e.left)}, {self.render(e.right)})"
        if e.op == "%":
            return f"_fmod({self.render(e.left)}, {self.render(e.right)})"
        return super().render_binop(e)

    def render_not(self, e: UnOp) -> str:
        return f"not ({self.render(e.operand)})"


class PythonGenerator:
    def __init__(self, plan: OptimizationPlan):
        self.plan = plan
        self.program = plan.program

    def generate_source(self) -> str:
        em = Emitter("    ")
        em.emit(f'"""GLAF-generated Python for program {self.program.name}.')
        em.emit(f"Variant: {self.plan.variant.name}")
        em.emit('"""')
        for line in _PREAMBLE.splitlines():
            em.emit_raw(line)
        em.blank()
        for fn in self.program.functions():
            self._emit_function(em, fn)
            em.blank()
        return em.text()

    def _emit_function(self, em: Emitter, fn: GlafFunction) -> None:
        renderer = PyExprRenderer(self.program, fn)
        params = ", ".join(fn.params)
        sep = ", " if params else ""
        em.emit(f"def {fn.name}(g{sep}{params}):")
        em.indent()
        doc = fn.comment or f"GLAF {'subroutine' if fn.is_subroutine else 'function'} {fn.name}."
        em.emit(f'"""{doc}"""')

        for g in fn.local_grids().values():
            self._emit_local(em, renderer, fn, g)
        if not fn.is_subroutine:
            em.emit(f"{fn.return_grid_name} = {_DTYPE[fn.return_type]}(0)")

        body_emitted = False
        for idx, step in enumerate(fn.steps):
            self._emit_step(em, renderer, fn, idx, step)
            body_emitted = True
        if not body_emitted:
            em.emit("pass")
        if not fn.is_subroutine:
            em.emit(f"return {fn.return_grid_name}")
        em.dedent()

    def _emit_local(self, em: Emitter, renderer: PyExprRenderer,
                    fn: GlafFunction, g: Grid) -> None:
        saved = g.save or (self.plan.tweaks.save_inner_arrays and g.allocatable)
        if g.rank == 0:
            init = g.init_data if g.init_data is not None else 0
            em.emit(f"{g.name} = {_DTYPE[g.ty]}({init!r})")
            return
        shape = ", ".join(str(d) if isinstance(d, int) else d for d in g.dims)
        alloc = f"np.zeros(({shape},), dtype={_DTYPE[g.ty]})"
        if saved:
            key = f"({fn.name!r}, {g.name!r})"
            em.emit(f"{g.name} = _save_store.get({key})")
            em.emit(f"if {g.name} is None:")
            em.indent()
            em.emit(f"{g.name} = {alloc}")
            em.emit(f"_save_store[{key}] = {g.name}")
            em.dedent()
        else:
            em.emit(f"{g.name} = {alloc}")
        if g.init_data is not None:
            em.emit(f"{g.name}[...] = {g.init_data!r}")

    def _emit_step(self, em: Emitter, renderer: PyExprRenderer,
                   fn: GlafFunction, idx: int, step: Step) -> None:
        em.emit(f"# {step.comment or step.name}"
                + ("  [parallel]" if self.plan.step_is_parallel(fn.name, idx) else ""))
        depth_before = em.depth
        for r in step.ranges:
            start = renderer.render(r.start)
            end = renderer.render(r.end)
            stride = renderer.render(r.step)
            em.emit(f"for {r.var} in range(int({start}), int({end}) + 1, int({stride})):")
            em.indent()
        if step.condition is not None:
            em.emit(f"if {renderer.render(step.condition)}:")
            em.indent()
        stmts = step.stmts
        if not stmts:
            em.emit("pass")
        for s in stmts:
            self._emit_stmt(em, renderer, fn, s)
        while em.depth > depth_before:
            em.dedent()

    def _emit_stmt(self, em: Emitter, renderer: PyExprRenderer,
                   fn: GlafFunction, s: Stmt) -> None:
        if isinstance(s, Assign):
            target = renderer.render(s.target)
            g = self.program.resolve_grid(fn, s.target.grid)
            value = renderer.render(s.expr)
            value = inject("codegen.python.assign", value,
                           function=fn.name) or value
            if g.rank == 0 and not target.endswith("[()]") and not target.startswith("g."):
                # Plain local scalar: keep the dtype stable across assignment.
                em.emit(f"{target} = {_DTYPE[g.ty]}({value})")
            elif g.rank == 0 and target.startswith("g."):
                em.emit(f"{target} = {_DTYPE[g.ty]}({value})")
            else:
                em.emit(f"{target} = {value}")
        elif isinstance(s, CallStmt):
            args = ", ".join(renderer.render(a) for a in s.args)
            sep = ", " if args else ""
            em.emit(f"{s.name}(g{sep}{args})")
        elif isinstance(s, IfStmt):
            em.emit(f"if {renderer.render(s.cond)}:")
            em.indent()
            for x in s.then or ():
                self._emit_stmt(em, renderer, fn, x)
            if not s.then:
                em.emit("pass")
            em.dedent()
            if s.orelse:
                em.emit("else:")
                em.indent()
                for x in s.orelse:
                    self._emit_stmt(em, renderer, fn, x)
                em.dedent()
        elif isinstance(s, Return):
            if fn.is_subroutine:
                em.emit("return")
            elif s.value is not None:
                em.emit(f"return {_DTYPE[fn.return_type]}({renderer.render(s.value)})")
            else:
                em.emit(f"return {fn.return_grid_name}")
        elif isinstance(s, ExitLoop):
            em.emit("break")
        else:
            raise CodegenError(f"cannot emit statement {type(s).__name__}")


def generate_python_source(plan: OptimizationPlan) -> str:
    from ..observe import get_metrics, get_tracer

    with get_tracer().span("codegen.python", variant=plan.variant.name) as _sp:
        src = PythonGenerator(plan).generate_source()
        _sp.set(lines=src.count("\n"))
        get_metrics().counter("codegen.python.lines").inc(src.count("\n"))
        return src
