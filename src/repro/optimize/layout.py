"""Data-layout option: array-of-structures vs structure-of-arrays (§2.1).

GLAF's grids are naturally structure-of-arrays (every field its own grid).
The AoS option groups a set of same-shaped grids into a derived TYPE whose
single array variable holds one record per element; code generation then
emits ``recs(i)%field`` accesses instead of ``field(i)``.

The transformation is a pure IR rewrite and is reversible; the performance
model charges AoS accesses a strided-access penalty, which is how the
trade-off the paper mentions becomes measurable in the ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.expr import BinOp, Expr, FuncCall, GridRef, LibCall, UnOp
from ..core.function import GlafFunction, GlafProgram
from ..core.grid import Grid
from ..core.step import Assign, CallStmt, IfStmt, Range, Return, Step, Stmt
from ..core.types import DerivedType, GlafType
from ..errors import AnalysisError

__all__ = ["LayoutGroup", "to_aos", "aos_field_name"]


@dataclass(frozen=True)
class LayoutGroup:
    """A set of same-shape grids eligible for AoS packing."""

    type_name: str
    variable: str           # name of the record-array variable
    fields: tuple[str, ...]  # grid names


def aos_field_name(variable: str, field: str) -> str:
    """Mangled grid name representing ``variable%field`` after AoS packing."""
    return f"{variable}__{field}"


def _check_group(program: GlafProgram, fn: GlafFunction, group: LayoutGroup) -> tuple:
    dims = None
    ty_fields: dict[str, tuple[GlafType, int]] = {}
    for name in group.fields:
        try:
            g = program.resolve_grid(fn, name)
        except KeyError:
            raise AnalysisError(f"AoS group references unknown grid {name!r}") from None
        if g.rank == 0:
            raise AnalysisError(f"AoS group member {name!r} is scalar")
        if dims is None:
            dims = g.dims
        elif g.dims != dims:
            raise AnalysisError(
                f"AoS group members disagree on shape: {name!r} has {g.dims}, "
                f"expected {dims}"
            )
        ty_fields[name] = (g.ty, 0)
    assert dims is not None
    return dims, ty_fields


def to_aos(program: GlafProgram, fn_name: str, group: LayoutGroup) -> GlafProgram:
    """Rewrite ``fn_name`` (in a deep-copied program) to use AoS layout.

    Each member grid ``f`` of the group is replaced by a TYPE-element grid
    named ``<variable>__<f>`` marked with ``type_parent=variable`` so the
    FORTRAN generator emits ``variable(i)%f``.
    """
    from ..core.project import program_from_dict, program_to_dict

    prog = program_from_dict(program_to_dict(program))
    fn = prog.find_function(fn_name)
    dims, ty_fields = _check_group(prog, fn, group)

    dt = DerivedType(name=group.type_name, fields=ty_fields)
    if group.type_name not in prog.derived_types:
        prog.add_derived_type(dt)

    mapping: dict[str, str] = {}
    for fname in group.fields:
        new_name = aos_field_name(group.variable, fname)
        mapping[fname] = new_name
        old = prog.resolve_grid(fn, fname)
        new_grid = Grid(
            name=new_name,
            ty=old.ty,
            dims=old.dims,
            comment=f"AoS element {group.variable}%{fname}",
            exists_in_module=old.exists_in_module or "glaf_aos_layout",
            type_parent=group.variable,
            type_name=group.type_name,
        )
        # AoS members become global TYPE elements regardless of prior scope.
        if fname in fn.grids:
            was_param = fname in fn.params
            del fn.grids[fname]
            if was_param:
                fn.params.remove(fname)
        else:
            del prog.global_grids[fname]
        if new_name not in prog.global_grids:
            prog.add_global_grid(new_grid)

    fn.steps = [_rewrite_step(s, mapping) for s in fn.steps]
    return prog


# --------------------------------------------------------------------------
# IR rewriting
# --------------------------------------------------------------------------

def _rewrite_expr(e: Expr, mapping: dict[str, str]) -> Expr:
    if isinstance(e, GridRef):
        name = mapping.get(e.grid, e.grid)
        return GridRef(name, tuple(_rewrite_expr(i, mapping) for i in e.indices))
    if isinstance(e, BinOp):
        return BinOp(e.op, _rewrite_expr(e.left, mapping), _rewrite_expr(e.right, mapping))
    if isinstance(e, UnOp):
        return UnOp(e.op, _rewrite_expr(e.operand, mapping))
    if isinstance(e, LibCall):
        return LibCall(e.name, tuple(_rewrite_expr(a, mapping) for a in e.args))
    if isinstance(e, FuncCall):
        return FuncCall(e.name, tuple(_rewrite_expr(a, mapping) for a in e.args))
    return e


def _rewrite_stmt(s: Stmt, mapping: dict[str, str]) -> Stmt:
    if isinstance(s, Assign):
        target = _rewrite_expr(s.target, mapping)
        assert isinstance(target, GridRef)
        return Assign(target=target, expr=_rewrite_expr(s.expr, mapping))
    if isinstance(s, CallStmt):
        return CallStmt(s.name, tuple(_rewrite_expr(a, mapping) for a in s.args))
    if isinstance(s, IfStmt):
        return IfStmt(
            cond=_rewrite_expr(s.cond, mapping),
            then=tuple(_rewrite_stmt(x, mapping) for x in s.then),
            orelse=tuple(_rewrite_stmt(x, mapping) for x in s.orelse),
        )
    if isinstance(s, Return) and s.value is not None:
        return Return(_rewrite_expr(s.value, mapping))
    return s


def _rewrite_step(step: Step, mapping: dict[str, str]) -> Step:
    return Step(
        name=step.name,
        ranges=[
            Range(
                var=r.var,
                start=_rewrite_expr(r.start, mapping),
                end=_rewrite_expr(r.end, mapping),
                step=_rewrite_expr(r.step, mapping),
            )
            for r in step.ranges
        ],
        condition=_rewrite_expr(step.condition, mapping) if step.condition is not None else None,
        stmts=[_rewrite_stmt(s, mapping) for s in step.stmts],
        comment=step.comment,
    )
