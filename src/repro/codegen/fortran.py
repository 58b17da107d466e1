"""FORTRAN code generation with legacy-integration support (paper §3).

The generator turns a GLAF program plus an :class:`OptimizationPlan` into a
free-form FORTRAN MODULE whose subprograms can be spliced into an existing
legacy code.  Every §3 extension is implemented:

* §3.1 — grids marked ``exists_in_module`` are **not** declared; the
  subprogram gets ``USE <module>, ONLY: <names>``.
* §3.2 — grids marked ``common_block`` are declared (type + shape) and
  grouped into ``COMMON /<name>/ v1, v2, ...`` statements.
* §3.3 — module-scope grids are declared once at the top of the generated
  MODULE and never re-declared in subprograms.
* §3.4 — functions with void return type are emitted as ``SUBROUTINE``;
  call sites use ``CALL``.
* §3.5 — grids that are elements of an existing TYPE variable are accessed
  as ``parent%element``; the USE imports the parent variable.
* §3.6 — library functions render through the registry's FORTRAN spellings.

Parallel steps are annotated with ``!$OMP PARALLEL DO`` directives whose
clause sets come from the auto-parallelization analysis, filtered by the
plan's pruning variant (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.expr import BinOp, Const, FuncCall, GridRef, LibCall, UnOp
from ..core.function import GlafFunction, GlafProgram
from ..core.grid import Grid
from ..core.libfuncs import get as get_libfunc
from ..core.step import (
    Assign,
    CallStmt,
    ExitLoop,
    IfStmt,
    Return,
    Step,
    Stmt,
    walk_stmts,
)
from ..core.types import fortran_decl
from ..errors import CodegenError
from ..optimize.plan import OptimizationPlan
from ..robust import inject
from .base import Emitter, ExprRenderer, PRECEDENCE
from .omp import OmpDirective, render_fortran, render_fortran_end

__all__ = ["FortranGenerator", "generate_fortran_module",
           "FortranExprRenderer", "directive_for_step"]

_BINOP_SPELL = {"!=": "/=", "and": ".AND.", "or": ".OR."}


class FortranExprRenderer(ExprRenderer):
    """Renders GLAF expressions as FORTRAN source."""

    def __init__(self, program: GlafProgram, fn: GlafFunction | None):
        self.program = program
        self.fn = fn

    def render_const(self, e: Const) -> str:
        v = e.value
        if isinstance(v, bool):
            return ".TRUE." if v else ".FALSE."
        if isinstance(v, int):
            return str(v)
        if isinstance(v, float):
            # Double-precision literals so generated code matches the
            # REAL(KIND=8) reference semantics bit-for-bit.
            text = repr(v)
            if "e" in text or "E" in text:
                mant, _, exp = text.partition("e")
                if "." not in mant:
                    mant += ".0"
                return f"{mant}D{exp}"
            if "." not in text:
                text += ".0"
            return f"{text}D0"
        if isinstance(v, str):
            escaped = v.replace("'", "''")
            return f"'{escaped}'"
        raise CodegenError(f"cannot render constant {v!r}")

    def grid_spelling(self, name: str) -> str:
        """Resolve a grid name to its FORTRAN spelling (TYPE prefixing)."""
        try:
            g = self.program.resolve_grid(self.fn, name)
        except KeyError:
            return name
        if g.is_type_element:
            return f"{g.type_parent}%{g.name}"
        return g.name

    def render_grid_ref(self, e: GridRef) -> str:
        base = self.grid_spelling(e.grid)
        if not e.indices:
            return base
        args = ", ".join(self.render(i) for i in e.indices)
        return f"{base}({args})"

    def render_lib_call(self, e: LibCall) -> str:
        f = get_libfunc(e.name)
        f.check_arity(len(e.args))
        args = ", ".join(self.render(a) for a in e.args)
        return f"{f.fortran}({args})"

    def render_func_call(self, e: FuncCall) -> str:
        args = ", ".join(self.render(a) for a in e.args)
        return f"{e.name}({args})"

    def binop_spelling(self, op: str) -> str:
        return _BINOP_SPELL.get(op, op)

    def render_binop(self, e: BinOp) -> str:
        if e.op == "%":
            return f"MOD({self.render(e.left)}, {self.render(e.right)})"
        if e.op == "//":
            # FORTRAN's integer '/' truncates, which is GLAF's '//'.
            inner = BinOp("/", e.left, e.right)
            return super().render_binop(inner)
        return super().render_binop(e)

    def render_not(self, e: UnOp) -> str:
        return f".NOT. {self.render(e.operand, PRECEDENCE['not'] + 1)}"


def _dim_spec(g: Grid, renderer: FortranExprRenderer) -> str:
    if g.rank == 0:
        return ""
    parts = []
    for d in g.dims:
        parts.append(str(d) if isinstance(d, int) else d)
    return "(" + ", ".join(parts) + ")"


def _decl_line(
    g: Grid,
    renderer: FortranExprRenderer,
    *,
    intent: bool = True,
    force_save: bool = False,
) -> str:
    attrs = [fortran_decl(g.ty)]
    if g.is_parameter:
        attrs.append("PARAMETER")
    if intent and g.intent:
        attrs.append(f"INTENT({g.intent.upper()})")
    if g.allocatable:
        attrs.append("ALLOCATABLE")
    if g.save or force_save:
        attrs.append("SAVE")
    if g.allocatable:
        dims = "(" + ", ".join(":" for _ in g.dims) + ")"
    else:
        dims = _dim_spec(g, renderer)
    init = ""
    if g.is_parameter:
        init = f" = {renderer.render_const(Const(g.init_data))}"
    elif g.init_data is not None and g.rank == 0 and not g.intent:
        init = f" = {renderer.render_const(Const(g.init_data))}"
    return f"{', '.join(attrs)} :: {g.name}{dims}{init}"


def directive_for_step(
    plan: OptimizationPlan,
    fn: GlafFunction,
    idx: int,
    renderer: FortranExprRenderer | None = None,
) -> OmpDirective | None:
    """The ``!$OMP PARALLEL DO`` directive codegen emits for step ``idx``
    of ``fn`` under ``plan`` — or ``None`` when the step carries none.

    This is the single source of truth for directive construction: both
    :meth:`FortranGenerator._emit_step` and the linter's plan-vs-text
    cross-check (:mod:`repro.lint.crosscheck`) call it, so the expected
    clause set can never drift from the emitted one.
    """
    step = fn.steps[idx]
    if not (step.is_loop and plan.step_is_parallel(fn.name, idx)):
        return None
    sp = plan.parallel_plan.steps.get((fn.name, idx))
    if sp is None:
        return None
    renderer = renderer or FortranExprRenderer(plan.program, fn)
    return OmpDirective(
        private=tuple(sp.private),
        firstprivate=tuple(sp.firstprivate),
        reductions=tuple((op, renderer.grid_spelling(g))
                         for g, op in plan.reductions_for(fn.name, idx)),
        collapse=plan.collapse_for(fn.name, idx),
    )


@dataclass
class GeneratedUnit:
    """One generated subprogram plus bookkeeping for integration reports."""

    name: str
    kind: str                      # 'subroutine' | 'function'
    lines: list[str]
    used_modules: dict[str, list[str]]
    common_blocks: dict[str, list[str]]
    omp_steps: list[int]


class FortranGenerator:
    """Generates one FORTRAN MODULE for a GLAF program under a plan."""

    def __init__(
        self,
        plan: OptimizationPlan,
        module_name: str | None = None,
        *,
        globals_module: str | None = None,
    ):
        """``globals_module`` moves module-scope grids (§3.3) into their own
        MODULE which each subprogram imports with USE.  Generated units then
        carry all their context in their own USE lines, which is what lets
        :mod:`repro.integration.splice` transplant them verbatim into a
        legacy file."""
        self.plan = plan
        self.program = plan.program
        self.module_name = module_name or f"glaf_{self.program.name.lower()}_mod"
        self.globals_module = globals_module
        self.units: list[GeneratedUnit] = []

    # ------------------------------------------------------------------
    # module
    # ------------------------------------------------------------------
    def generate_module(self) -> str:
        em = Emitter()
        em.emit(f"! Auto-generated by GLAF for program {self.program.name}")
        em.emit(f"! Variant: {self.plan.variant.name}")
        renderer = FortranExprRenderer(self.program, None)
        mods = self.program.module_scope_grids()
        if self.globals_module is not None and mods:
            em.emit(f"MODULE {self.globals_module}")
            em.indent()
            em.emit("IMPLICIT NONE")
            self._emit_module_scope(em, mods, renderer)
            em.dedent()
            em.emit(f"END MODULE {self.globals_module}")
            em.blank()
        em.emit(f"MODULE {self.module_name}")
        em.indent()
        em.emit("IMPLICIT NONE")
        if mods and self.globals_module is None:
            em.blank()
            self._emit_module_scope(em, mods, renderer)
        em.blank()
        em.dedent()
        em.emit("CONTAINS")
        em.indent()
        self.units = []
        for fn in self.program.functions():
            em.blank()
            unit = self.generate_subprogram(fn)
            # Fault-injection hook: a seeded plan may corrupt one body
            # (the dataflow mutants 'repro lint --dataflow' must catch).
            mutated = inject("codegen.fortran.body", unit.lines,
                             function=fn.name)
            if mutated is not None:
                unit.lines = mutated
            self.units.append(unit)
            for line in unit.lines:
                if line.startswith("!$OMP") or not line.strip():
                    em.emit_raw(line)
                else:
                    em.emit(line)
        em.dedent()
        em.emit(f"END MODULE {self.module_name}")
        return em.text()

    def _emit_module_scope(self, em: Emitter, mods: list,
                           renderer: FortranExprRenderer) -> None:
        """The module-scope grids' declarations, with the attributes the
        tweaks ask for, in whichever MODULE holds them."""
        em.emit("! Module-scope grids (paper section 3.3)")
        for g in mods:
            if g.comment:
                em.emit(f"! {g.comment}")
            decl = _decl_line(g, renderer, intent=False)
            if (self.plan.tweaks.copyprivate_pointers and g.rank > 0):
                # §4.2.1: "module-scope arrays are replaced with pointers
                # and copyprivate clauses when supporting nested
                # parallelism"; the TARGET attribute is the association
                # point for those pointers.
                ty, _, rest = decl.partition(" :: ")
                decl = f"{ty}, TARGET :: {rest}"
            em.emit(decl)
        self._emit_threadprivate(em)

    def _emit_threadprivate(self, em: Emitter) -> None:
        """§4.2.1: "Module-scope ... arrays are explicitly declared as
        private or threadprivate as appropriate"."""
        names = self.plan.threadprivate_grids()
        if names:
            em.emit_raw(f"!$OMP THREADPRIVATE({', '.join(names)})")

    # ------------------------------------------------------------------
    # subprograms
    # ------------------------------------------------------------------
    def generate_subprogram(self, fn: GlafFunction) -> GeneratedUnit:
        em = Emitter()
        renderer = FortranExprRenderer(self.program, fn)
        args = ", ".join(fn.params)
        if fn.is_subroutine:
            em.emit(f"SUBROUTINE {fn.name}({args})")
            kind = "subroutine"
        else:
            em.emit(f"FUNCTION {fn.name}({args}) RESULT({fn.return_grid_name})")
            kind = "function"
        em.indent()
        if fn.comment:
            em.emit(f"! {fn.comment}")

        used_modules, common_blocks = self._external_groups(fn)

        # §3.1 / §3.5: imports from existing modules.
        for mod, names in sorted(used_modules.items()):
            em.emit(f"USE {mod}, ONLY: {', '.join(sorted(set(names)))}")
        # Split-globals layout: import the generated globals module too.
        if self.globals_module is not None:
            mod_names = sorted(
                g.name
                for g in self.program.module_scope_grids()
                if g.name in fn.grids_referenced() and g.name not in fn.grids
            )
            if mod_names:
                em.emit(f"USE {self.globals_module}, ONLY: {', '.join(mod_names)}")
                used_modules = dict(used_modules)
                used_modules[self.globals_module] = mod_names
        em.emit("IMPLICIT NONE")

        # Dummy arguments, in declaration order.
        for p in fn.params:
            g = fn.grids[p]
            if g.comment:
                em.emit(f"! {g.comment}")
            em.emit(_decl_line(g, renderer))

        # §3.2: COMMON block members are declared, then grouped.
        for block, grids in sorted(common_blocks.items()):
            for g in grids:
                em.emit(_decl_line(g, renderer, intent=False))
            em.emit(f"COMMON /{block}/ {', '.join(g.name for g in grids)}")

        # Locals.
        save_tweak = self.plan.tweaks.save_inner_arrays
        allocatable_saved: list[Grid] = []
        allocatable_plain: list[Grid] = []
        for g in fn.local_grids().values():
            force_save = save_tweak and g.allocatable and g.rank > 0
            em.emit(_decl_line(g, renderer, intent=False, force_save=force_save))
            if g.allocatable:
                (allocatable_saved if (force_save or g.save) else allocatable_plain).append(g)

        # Loop index variables.
        index_vars = sorted({r.var for s in fn.steps for r in s.ranges})
        if index_vars:
            em.emit(f"INTEGER :: {', '.join(index_vars)}")
        if not fn.is_subroutine:
            em.emit(f"{fortran_decl(fn.return_type)} :: {fn.return_grid_name}")

        em.blank()

        # ALLOCATE prologue.
        for g in allocatable_saved:
            dims = ", ".join(str(d) for d in g.dims)
            em.emit(f"IF (.NOT. ALLOCATED({g.name})) ALLOCATE({g.name}({dims}))")
        for g in allocatable_plain:
            dims = ", ".join(str(d) for d in g.dims)
            em.emit(f"ALLOCATE({g.name}({dims}))")

        omp_steps: list[int] = []
        for idx, step in enumerate(fn.steps):
            self._emit_step(em, renderer, fn, idx, step, omp_steps)

        for g in allocatable_plain:
            em.emit(f"DEALLOCATE({g.name})")

        em.dedent()
        if fn.is_subroutine:
            em.emit(f"END SUBROUTINE {fn.name}")
        else:
            em.emit(f"END FUNCTION {fn.name}")
        return GeneratedUnit(
            name=fn.name,
            kind=kind,
            lines=em.lines,
            used_modules=used_modules,
            common_blocks={b: [g.name for g in gs] for b, gs in common_blocks.items()},
            omp_steps=omp_steps,
        )

    def _external_groups(
        self, fn: GlafFunction
    ) -> tuple[dict[str, list[str]], dict[str, list[Grid]]]:
        """Group external global grids referenced by ``fn`` (§3.1/§3.2/§3.5)."""
        used_modules: dict[str, list[str]] = {}
        common_blocks: dict[str, list[Grid]] = {}
        referenced = fn.grids_referenced()
        for name in sorted(referenced):
            if name in fn.grids:
                continue
            g = self.program.global_grids.get(name)
            if g is None:
                continue
            if g.exists_in_module is not None:
                # For TYPE elements, the USE must import the parent variable.
                imported = g.type_parent if g.is_type_element else g.name
                used_modules.setdefault(g.exists_in_module, []).append(imported)
            elif g.common_block is not None:
                common_blocks.setdefault(g.common_block, []).append(g)
        return used_modules, common_blocks

    # ------------------------------------------------------------------
    # steps
    # ------------------------------------------------------------------
    def _emit_step(
        self,
        em: Emitter,
        renderer: FortranExprRenderer,
        fn: GlafFunction,
        idx: int,
        step: Step,
        omp_steps: list[int],
    ) -> None:
        em.blank()
        label = step.comment or step.name
        em.emit(f"! {label}")
        sp = self.plan.parallel_plan.steps.get((fn.name, idx))
        parallel = self.plan.step_is_parallel(fn.name, idx) and step.is_loop

        if not step.is_loop:
            if step.condition is not None:
                em.emit(f"IF ({renderer.render(step.condition)}) THEN")
                em.indent()
            self._emit_stmts(em, renderer, fn, step.stmts, sp, parallel=False)
            if step.condition is not None:
                em.dedent()
                em.emit("END IF")
            return

        simd = self.plan.step_is_simd(fn.name, idx) and step.is_loop
        if simd:
            assert sp is not None
            reds = ", ".join(
                f"{op}:{renderer.grid_spelling(g)}"
                for g, op in sorted(sp.reductions.items())
            )
            clause = f" REDUCTION({reds})" if reds else ""
            em.emit_raw(f"!$OMP SIMD{clause}")
        directive = (directive_for_step(self.plan, fn, idx, renderer)
                     if parallel else None)
        # Fault-injection hook: a seeded plan may corrupt the directive
        # (drop a clause, widen COLLAPSE, suppress it) or conjure one onto
        # a serial loop — the mutants `repro lint --selftest` must catch.
        mutated = inject("codegen.fortran.omp", directive,
                         function=fn.name, step=idx, parallel=parallel)
        if mutated is not None:
            directive = mutated
        emit_omp = directive is not None and not directive.suppressed
        if emit_omp:
            em.emit_raw(render_fortran(directive))
            omp_steps.append(idx)

        for r in step.ranges:
            start = renderer.render(r.start)
            end = renderer.render(r.end)
            stride = renderer.render(r.step)
            suffix = "" if stride == "1" else f", {stride}"
            em.emit(f"DO {r.var} = {start}, {end}{suffix}")
            em.indent()

        if step.condition is not None:
            em.emit(f"IF ({renderer.render(step.condition)}) THEN")
            em.indent()

        self._emit_stmts(em, renderer, fn, step.stmts, sp, parallel=parallel)

        if step.condition is not None:
            em.dedent()
            em.emit("END IF")

        for _ in step.ranges:
            em.dedent()
            em.emit("END DO")
        if emit_omp:
            em.emit_raw(render_fortran_end())
        if simd:
            em.emit_raw("!$OMP END SIMD")

    def _emit_stmts(
        self,
        em: Emitter,
        renderer: FortranExprRenderer,
        fn: GlafFunction,
        stmts,
        sp,
        *,
        parallel: bool,
    ) -> None:
        for s in stmts:
            self._emit_stmt(em, renderer, fn, s, sp, parallel=parallel)

    def _emit_stmt(
        self,
        em: Emitter,
        renderer: FortranExprRenderer,
        fn: GlafFunction,
        s: Stmt,
        sp,
        *,
        parallel: bool,
    ) -> None:
        if isinstance(s, Assign):
            if sp is not None and self.plan.atomic_update(
                    sp.function, sp.step_index, s.target.grid):
                em.emit_raw("!$OMP ATOMIC")
            target = renderer.render(s.target)
            em.emit(f"{target} = {renderer.render(s.expr)}")
        elif isinstance(s, CallStmt):
            args = ", ".join(renderer.render(a) for a in s.args)
            em.emit(f"CALL {s.name}({args})")
        elif isinstance(s, IfStmt):
            critical = (
                parallel
                and sp is not None
                and sp.critical_early_exit
                and any(isinstance(x, (Return, ExitLoop)) for x in walk_stmts(s.then))
            )
            if critical:
                em.emit_raw("!$OMP CRITICAL")
            em.emit(f"IF ({renderer.render(s.cond)}) THEN")
            em.indent()
            self._emit_stmts(em, renderer, fn, s.then, sp, parallel=parallel)
            em.dedent()
            if s.orelse:
                em.emit("ELSE")
                em.indent()
                self._emit_stmts(em, renderer, fn, s.orelse, sp, parallel=parallel)
                em.dedent()
            em.emit("END IF")
            if critical:
                em.emit_raw("!$OMP END CRITICAL")
        elif isinstance(s, Return):
            if s.value is not None:
                em.emit(f"{fn.return_grid_name} = {renderer.render(s.value)}")
            em.emit("RETURN")
        elif isinstance(s, ExitLoop):
            em.emit("EXIT")
        else:
            raise CodegenError(f"cannot emit statement {type(s).__name__}")


def generate_fortran_module(plan: OptimizationPlan) -> str:
    """Convenience wrapper: one call, one generated MODULE."""
    from ..observe import get_metrics, get_tracer

    with get_tracer().span("codegen.fortran", variant=plan.variant.name) as _sp:
        src = FortranGenerator(plan).generate_module()
        _sp.set(lines=src.count("\n"))
        get_metrics().counter("codegen.fortran.lines").inc(src.count("\n"))
        return src
