"""Programmatic GPI: the builder API.

The GLAF front-end is a point-and-click graphical programming interface
(paper Figure 2).  Since the GUI is only an input method over the grid/step
internal representation, this reproduction exposes the same actions as a
fluent Python API.  Each builder method corresponds to a GPI screen or
widget:

===========================================  =======================================
GPI action (paper figure)                     Builder call
===========================================  =======================================
create module                                 ``GlafBuilder.module(name)``
create grid in Global Scope (Fig. 3)          ``GlafBuilder.global_grid(...)``
"exists in existing module" checkbox (§3.1)   ``global_grid(..., exists_in_module=)``
"belongs in COMMON block" checkbox (§3.2)     ``global_grid(..., common_block=)``
module-scope variable (§3.3)                  ``global_grid(..., module_scope=True)``
TYPE element of existing variable (§3.5)      ``global_grid(..., type_parent=, type_name=)``
header step return type = void (Fig. 4, §3.4) ``ModuleBuilder.function(..., return_type=T_VOID)``
add step / index range / condition / formula  ``StepBuilder.foreach/condition/formula``
add function call box                         ``StepBuilder.call(...)``
===========================================  =======================================
"""

from __future__ import annotations

from typing import Sequence

from ..errors import BuilderError
from .expr import Expr, GridRef, E
from .function import GLOBAL_SCOPE, GlafFunction, GlafModule, GlafProgram
from .grid import DimSize, Grid
from .step import Assign, CallStmt, ExitLoop, IfStmt, Range, Return, Step, Stmt
from .types import DerivedType, GlafType

__all__ = ["GlafBuilder", "ModuleBuilder", "FunctionBuilder", "StepBuilder"]


class GlafBuilder:
    """Top-level builder for a whole GLAF program."""

    def __init__(self, name: str):
        self.program = GlafProgram(name=name)

    def module(self, name: str, comment: str = "") -> "ModuleBuilder":
        if name == GLOBAL_SCOPE:
            raise BuilderError("use global_grid() for the Global Scope module")
        mod = self.program.add_module(GlafModule(name=name, comment=comment))
        return ModuleBuilder(self, mod)

    def derived_type(
        self,
        name: str,
        fields: dict[str, tuple[GlafType, int]],
        defined_in_module: str | None = None,
    ) -> DerivedType:
        """Register the shape of an existing FORTRAN derived TYPE (§3.5)."""
        return self.program.add_derived_type(
            DerivedType(name=name, fields=fields, defined_in_module=defined_in_module)
        )

    def global_grid(
        self,
        name: str,
        ty: GlafType,
        dims: Sequence[DimSize] = (),
        *,
        comment: str = "",
        exists_in_module: str | None = None,
        common_block: str | None = None,
        module_scope: bool = False,
        type_parent: str | None = None,
        type_name: str | None = None,
        init_data: object = None,
        is_parameter: bool = False,
        save: bool = False,
    ) -> Grid:
        """Create a grid in Global Scope — the Figure 3 configuration screen."""
        if type_parent is not None and type_name is None:
            raise BuilderError(
                f"grid {name!r}: a TYPE element needs the TYPE name "
                "(the GPI prompts for it after the module name, §3.5)"
            )
        if type_name is not None and type_name not in self.program.derived_types:
            raise BuilderError(
                f"grid {name!r}: derived type {type_name!r} is not registered; "
                "call derived_type() first"
            )
        if type_name is not None:
            dt = self.program.derived_types[type_name]
            if not dt.has_field(name):
                raise BuilderError(
                    f"grid {name!r}: TYPE {type_name} has no element of that name"
                )
        grid = Grid(
            name=name,
            ty=ty,
            dims=tuple(dims),
            comment=comment,
            exists_in_module=exists_in_module,
            common_block=common_block,
            module_scope=module_scope,
            type_parent=type_parent,
            type_name=type_name,
            init_data=init_data,
            is_parameter=is_parameter,
            save=save,
        )
        return self.program.add_global_grid(grid)

    def build(self) -> GlafProgram:
        """Validate and return the finished program."""
        from .validate import validate_program

        validate_program(self.program)
        return self.program


class ModuleBuilder:
    def __init__(self, parent: GlafBuilder, module: GlafModule):
        self._parent = parent
        self.module = module

    def function(
        self,
        name: str,
        return_type: GlafType = GlafType.T_VOID,
        comment: str = "",
    ) -> "FunctionBuilder":
        """Create a function; ``return_type=T_VOID`` selects SUBROUTINE form
        on the header screen (Figure 4, §3.4)."""
        fn = self.module.add_function(
            GlafFunction(name=name, return_type=return_type, comment=comment)
        )
        return FunctionBuilder(self._parent, fn)


class FunctionBuilder:
    def __init__(self, parent: GlafBuilder, fn: GlafFunction):
        self._parent = parent
        self.fn = fn

    def param(
        self,
        name: str,
        ty: GlafType,
        dims: Sequence[DimSize] = (),
        *,
        intent: str | None = None,
        comment: str = "",
    ) -> Grid:
        """Add a dummy-argument grid (a numbered "Parameter N" box in Fig. 2)."""
        grid = Grid(name=name, ty=ty, dims=tuple(dims), intent=intent, comment=comment)
        return self.fn.add_grid(grid, param=True)

    def local(
        self,
        name: str,
        ty: GlafType,
        dims: Sequence[DimSize] = (),
        *,
        comment: str = "",
        init_data: object = None,
        save: bool = False,
        allocatable: bool = False,
        is_parameter: bool = False,
    ) -> Grid:
        """Add a function-local grid."""
        grid = Grid(
            name=name,
            ty=ty,
            dims=tuple(dims),
            comment=comment,
            init_data=init_data,
            save=save,
            allocatable=allocatable,
            is_parameter=is_parameter,
        )
        return self.fn.add_grid(grid)

    def step(self, name: str | None = None, comment: str = "") -> "StepBuilder":
        name = name or f"Step{len(self.fn.steps) + 1}"
        step = Step(name=name, comment=comment)
        self.fn.steps.append(step)
        return StepBuilder(self, step)

    def returns(self, value: object) -> None:
        """Append a trailing return step (value-returning functions)."""
        if self.fn.is_subroutine:
            raise BuilderError(f"{self.fn.name}: subroutines return no value")
        step = Step(name=f"Return{len(self.fn.steps) + 1}")
        step.stmts.append(Return(E(value)))
        self.fn.steps.append(step)


class StepBuilder:
    """Builds one step: index range, condition, formulas, calls."""

    def __init__(self, parent: FunctionBuilder, step: Step):
        self._parent = parent
        self.step = step

    def foreach(self, **ranges: tuple[object, object] | tuple[object, object, object]) -> "StepBuilder":
        """Set the step's index range, e.g. ``foreach(row=(0, "end0"))``.

        Bounds are inclusive, like the GPI's foreach and FORTRAN DO.
        Keyword order defines loop-nest order, outermost first.
        """
        if self.step.ranges:
            raise BuilderError(
                f"step {self.step.name!r}: index range already set — GLAF "
                "models interior nested loops as separate functions"
            )
        for var, bounds in ranges.items():
            if len(bounds) == 2:
                start, end = bounds
                step_ = 1
            elif len(bounds) == 3:
                start, end, step_ = bounds
            else:
                raise BuilderError(f"range for {var!r} must be (start, end[, step])")
            self.step.ranges.append(Range(var=var, start=E(start), end=E(end), step=E(step_)))
        # Re-run duplicate checking from Step.__post_init__.
        seen: set[str] = set()
        for r in self.step.ranges:
            if r.var in seen:
                raise BuilderError(f"duplicate index variable {r.var!r}")
            seen.add(r.var)
        return self

    def condition(self, cond: object) -> "StepBuilder":
        if self.step.condition is not None:
            raise BuilderError(f"step {self.step.name!r}: condition already set")
        self.step.condition = E(cond)
        return self

    def formula(self, target: GridRef, expr: object) -> "StepBuilder":
        """Add a formula (an ``Add Formula`` box in Figure 2)."""
        self.step.stmts.append(Assign(target=target, expr=E(expr)))
        return self

    def call(self, name: str, args: Sequence[object] = ()) -> "StepBuilder":
        """Add a call to another GLAF function (interior loop nests, §3.3)."""
        self.step.stmts.append(CallStmt(name=name, args=tuple(E(a) for a in args)))
        return self

    def if_(
        self,
        cond: object,
        then: Sequence[Stmt],
        orelse: Sequence[Stmt] = (),
    ) -> "StepBuilder":
        for branch, label in ((then, "then"), (orelse, "orelse")):
            for s in branch:
                if not isinstance(s, Stmt):
                    raise BuilderError(
                        f"if_ {label} branch needs statements; got "
                        f"{type(s).__name__} — use StepBuilder.assign/ret/"
                        "exit_stmt/call_stmt to build them"
                    )
        self.step.stmts.append(IfStmt(cond=E(cond), then=tuple(then), orelse=tuple(orelse)))
        return self

    # Statement constructors usable inside if_(...) bodies.
    @staticmethod
    def assign(target: GridRef, expr: object) -> Assign:
        return Assign(target=target, expr=E(expr))

    @staticmethod
    def call_stmt(name: str, args: Sequence[object] = ()) -> CallStmt:
        return CallStmt(name=name, args=tuple(E(a) for a in args))

    @staticmethod
    def ret(value: object | None = None) -> Return:
        return Return(E(value) if value is not None else None)

    @staticmethod
    def exit_stmt() -> ExitLoop:
        return ExitLoop()

    @staticmethod
    def if_stmt(cond: object, then: Sequence[Stmt], orelse: Sequence[Stmt] = ()) -> IfStmt:
        return IfStmt(cond=E(cond), then=tuple(then), orelse=tuple(orelse))
