"""C code generation (GLAF's original first target language, paper §2.1).

The C back-end mirrors the FORTRAN generator's structure with C idioms:

* arrays are flat row-major buffers indexed with explicit linearization
  (GLAF's 1-based IR indices are shifted by -1 per dimension);
* grids from existing modules become ``extern`` declarations with an
  ``#include`` of the owning module's header;
* COMMON-block grids become ``extern`` globals grouped under a block
  comment (the C equivalent of FORTRAN linkage via a named block);
* void-return GLAF functions are ``void`` C functions; calls are plain
  statements;
* parallel steps get ``#pragma omp parallel for`` with the same clause set
  as the FORTRAN back-end.
"""

from __future__ import annotations

from ..core.expr import BinOp, Const, FuncCall, GridRef, LibCall, UnOp
from ..core.function import GlafFunction, GlafProgram
from ..core.grid import Grid
from ..core.libfuncs import get as get_libfunc
from ..core.step import Assign, CallStmt, ExitLoop, IfStmt, Return, Step, Stmt
from ..core.types import c_decl
from ..errors import CodegenError
from ..optimize.plan import OptimizationPlan
from .base import Emitter, ExprRenderer, PRECEDENCE
from .omp import OmpDirective, render_c

__all__ = ["CGenerator", "generate_c_source", "CExprRenderer"]

_BINOP_SPELL = {"and": "&&", "or": "||", "**": None, "//": "/", "%": "%"}


class CExprRenderer(ExprRenderer):
    def __init__(self, program: GlafProgram, fn: GlafFunction | None):
        self.program = program
        self.fn = fn

    def render_const(self, e: Const) -> str:
        v = e.value
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, float):
            text = repr(v)
            return text if ("." in text or "e" in text) else text + ".0"
        if isinstance(v, str):
            return '"' + v.replace('"', '\\"') + '"'
        raise CodegenError(f"cannot render constant {v!r}")

    def _grid(self, name: str) -> Grid | None:
        try:
            return self.program.resolve_grid(self.fn, name)
        except KeyError:
            return None

    def render_grid_ref(self, e: GridRef) -> str:
        g = self._grid(e.grid)
        base = e.grid
        if g is not None and g.is_type_element:
            base = f"{g.type_parent}.{g.name}"
        if not e.indices:
            return base
        if g is None:
            raise CodegenError(f"cannot linearize unknown grid {e.grid!r}")
        # Row-major linearization; IR indices are 1-based.
        terms: list[str] = []
        for k, idx in enumerate(e.indices):
            offset = f"({self.render(idx)} - 1)"
            for d in g.dims[k + 1 :]:
                offset = f"{offset} * ({d})"
            terms.append(offset)
        return f"{base}[{' + '.join(terms)}]"

    def render_lib_call(self, e: LibCall) -> str:
        f = get_libfunc(e.name)
        f.check_arity(len(e.args))
        args = [self.render(a) for a in e.args]
        if f.c.startswith("("):  # cast-style: (double), (long)...
            return f"{f.c}({args[0]})"
        if f.arity == -1 and len(args) > 2:
            # fmin/fmax are binary; fold variadic calls.
            out = args[0]
            for a in args[1:]:
                out = f"{f.c}({out}, {a})"
            return out
        return f"{f.c}({', '.join(args)})"

    def render_func_call(self, e: FuncCall) -> str:
        return f"{e.name}({', '.join(self.render(a) for a in e.args)})"

    def binop_spelling(self, op: str) -> str:
        return _BINOP_SPELL.get(op, op) or op

    def render_binop(self, e: BinOp) -> str:
        if e.op == "**":
            return f"pow({self.render(e.left)}, {self.render(e.right)})"
        return super().render_binop(e)

    def render_not(self, e: UnOp) -> str:
        return f"!{self.render(e.operand, PRECEDENCE['not'] + 1)}"


def _c_param_decl(g: Grid) -> str:
    base = c_decl(g.ty)
    if g.rank == 0:
        ptr = "*" if g.intent in ("out", "inout") else ""
        return f"{base} {ptr}{g.name}"
    const = "const " if g.intent == "in" else ""
    return f"{const}{base} *{g.name}"


class CGenerator:
    """Generates one C translation unit for a GLAF program under a plan."""

    def __init__(self, plan: OptimizationPlan, header_name: str | None = None):
        self.plan = plan
        self.program = plan.program
        self.header_name = header_name or f"glaf_{self.program.name.lower()}.h"

    def generate_source(self) -> str:
        em = Emitter("    ")
        em.emit(f"/* Auto-generated by GLAF for program {self.program.name} */")
        em.emit(f"/* Variant: {self.plan.variant.name} */")
        em.emit("#include <math.h>")
        em.emit("#include <stdlib.h>")
        for mod in sorted(self.program.imported_modules()):
            em.emit(f'#include "{mod}.h"  /* existing module (paper 3.1) */')
        em.blank()

        renderer = CExprRenderer(self.program, None)
        for block, grids in sorted(self.program.common_blocks().items()):
            em.emit(f"/* COMMON /{block}/ (paper 3.2) */")
            for g in grids:
                em.emit(f"extern {self._global_decl(g)};")
        mods = self.program.module_scope_grids()
        if mods:
            em.emit("/* module-scope grids (paper 3.3) */")
            for g in mods:
                em.emit(f"{self._global_decl(g)};")
        em.blank()

        # Prototypes so call order does not matter.
        for fn in self.program.functions():
            em.emit(self._signature(fn) + ";")
        em.blank()

        for fn in self.program.functions():
            self._emit_function(em, fn)
            em.blank()
        return em.text()

    def _global_decl(self, g: Grid) -> str:
        base = c_decl(g.ty)
        if g.rank == 0:
            return f"{base} {g.name}"
        size = " * ".join(f"({d})" for d in g.dims)
        if g.symbolic_dims():
            return f"{base} *{g.name}"
        return f"{base} {g.name}[{size}]"

    def _signature(self, fn: GlafFunction) -> str:
        ret = c_decl(fn.return_type) if not fn.is_subroutine else "void"
        params = ", ".join(_c_param_decl(fn.grids[p]) for p in fn.params) or "void"
        return f"{ret} {fn.name}({params})"

    def _emit_function(self, em: Emitter, fn: GlafFunction) -> None:
        renderer = CExprRenderer(self.program, fn)
        em.emit(self._signature(fn))
        em.emit("{")
        em.indent()

        for g in fn.local_grids().values():
            base = c_decl(g.ty)
            if g.rank == 0:
                em.emit(f"{base} {g.name} = 0;")
            else:
                size = " * ".join(f"({d})" for d in g.dims)
                static = "static " if (g.save or self.plan.tweaks.save_inner_arrays and g.allocatable) else ""
                if g.symbolic_dims() or g.allocatable:
                    em.emit(f"{static}{base} *{g.name} = NULL;")
                    em.emit(f"if ({g.name} == NULL) {g.name} = ({base} *)malloc(({size}) * sizeof({base}));")
                else:
                    em.emit(f"{static}{base} {g.name}[{size}];")
        idx_vars = sorted({r.var for s in fn.steps for r in s.ranges})
        if idx_vars:
            em.emit(f"long {', '.join(idx_vars)};")
        if not fn.is_subroutine:
            em.emit(f"{c_decl(fn.return_type)} {fn.return_grid_name} = 0;")
        em.blank()

        for idx, step in enumerate(fn.steps):
            self._emit_step(em, renderer, fn, idx, step)

        if not fn.is_subroutine:
            em.emit(f"return {fn.return_grid_name};")
        em.dedent()
        em.emit("}")

    def _emit_step(self, em: Emitter, renderer: CExprRenderer,
                   fn: GlafFunction, idx: int, step: Step) -> None:
        em.emit(f"/* {step.comment or step.name} */")
        sp = self.plan.parallel_plan.steps.get((fn.name, idx))
        parallel = self.plan.step_is_parallel(fn.name, idx) and step.is_loop

        if not step.is_loop:
            if step.condition is not None:
                em.emit(f"if ({renderer.render(step.condition)}) {{")
                em.indent()
            for s in step.stmts:
                self._emit_stmt(em, renderer, fn, s, sp)
            if step.condition is not None:
                em.dedent()
                em.emit("}")
            return

        if self.plan.step_is_simd(fn.name, idx) and step.is_loop:
            assert sp is not None
            reds = "".join(
                f" reduction({op}:{g})" for g, op in sorted(sp.reductions.items())
            )
            em.emit_raw(f"#pragma omp simd{reds}")
        if parallel:
            assert sp is not None
            d = OmpDirective(
                private=tuple(sp.private),
                firstprivate=tuple(sp.firstprivate),
                reductions=tuple((op, g) for g, op
                                 in self.plan.reductions_for(fn.name, idx)),
                collapse=self.plan.collapse_for(fn.name, idx),
            )
            em.emit_raw(render_c(d))

        for r in step.ranges:
            start = renderer.render(r.start)
            end = renderer.render(r.end)
            stride = renderer.render(r.step)
            em.emit(f"for ({r.var} = {start}; {r.var} <= {end}; {r.var} += {stride}) {{")
            em.indent()
        if step.condition is not None:
            em.emit(f"if ({renderer.render(step.condition)}) {{")
            em.indent()
        for s in step.stmts:
            self._emit_stmt(em, renderer, fn, s, sp)
        if step.condition is not None:
            em.dedent()
            em.emit("}")
        for _ in step.ranges:
            em.dedent()
            em.emit("}")

    def _emit_stmt(self, em: Emitter, renderer: CExprRenderer,
                   fn: GlafFunction, s: Stmt, sp) -> None:
        if isinstance(s, Assign):
            if sp is not None and self.plan.atomic_update(
                    sp.function, sp.step_index, s.target.grid):
                em.emit_raw("#pragma omp atomic")
            em.emit(f"{renderer.render(s.target)} = {renderer.render(s.expr)};")
        elif isinstance(s, CallStmt):
            em.emit(f"{s.name}({', '.join(renderer.render(a) for a in s.args)});")
        elif isinstance(s, IfStmt):
            em.emit(f"if ({renderer.render(s.cond)}) {{")
            em.indent()
            for x in s.then:
                self._emit_stmt(em, renderer, fn, x, sp)
            em.dedent()
            if s.orelse:
                em.emit("} else {")
                em.indent()
                for x in s.orelse:
                    self._emit_stmt(em, renderer, fn, x, sp)
                em.dedent()
            em.emit("}")
        elif isinstance(s, Return):
            if fn.is_subroutine:
                em.emit("return;")
            elif s.value is not None:
                em.emit(f"return {renderer.render(s.value)};")
            else:
                em.emit(f"return {fn.return_grid_name};")
        elif isinstance(s, ExitLoop):
            em.emit("break;")
        else:
            raise CodegenError(f"cannot emit statement {type(s).__name__}")


def generate_c_source(plan: OptimizationPlan) -> str:
    from ..observe import get_metrics, get_tracer

    with get_tracer().span("codegen.c", variant=plan.variant.name) as _sp:
        src = CGenerator(plan).generate_source()
        _sp.set(lines=src.count("\n"))
        get_metrics().counter("codegen.c.lines").inc(src.count("\n"))
        return src
