"""GLAF project persistence.

The browser-based GPI saves a project as a JSON document describing grids,
modules, functions and steps.  This module implements the equivalent
serialization for the reproduction's internal representation so programs can
be saved, versioned and re-loaded without re-running builder code.

The format is self-describing: every node carries a ``"kind"`` tag.  A
``save``/``load`` round trip reproduces an equal program (tested property-
style in ``tests/property/test_project_roundtrip.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..errors import ValidationError
from .expr import BinOp, Const, Expr, FuncCall, GridRef, IndexVar, LibCall, UnOp
from .function import GlafFunction, GlafModule, GlafProgram
from .grid import Grid
from .step import Assign, CallStmt, ExitLoop, IfStmt, Range, Return, Step, Stmt
from .types import DerivedType, GlafType

__all__ = ["program_to_dict", "program_from_dict", "save_project", "load_project"]

FORMAT_VERSION = 2


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------

def expr_to_dict(e: Expr) -> dict[str, Any]:
    if isinstance(e, Const):
        return {"kind": "const", "value": e.value}
    if isinstance(e, IndexVar):
        return {"kind": "index", "name": e.name}
    if isinstance(e, GridRef):
        return {"kind": "grid", "grid": e.grid,
                "indices": [expr_to_dict(i) for i in e.indices]}
    if isinstance(e, BinOp):
        return {"kind": "binop", "op": e.op,
                "left": expr_to_dict(e.left), "right": expr_to_dict(e.right)}
    if isinstance(e, UnOp):
        return {"kind": "unop", "op": e.op, "operand": expr_to_dict(e.operand)}
    if isinstance(e, LibCall):
        return {"kind": "lib", "name": e.name,
                "args": [expr_to_dict(a) for a in e.args]}
    if isinstance(e, FuncCall):
        return {"kind": "call", "name": e.name,
                "args": [expr_to_dict(a) for a in e.args]}
    raise ValidationError(f"unserializable expression node {type(e).__name__}")


def expr_from_dict(d: dict[str, Any]) -> Expr:
    kind = d["kind"]
    if kind == "const":
        return Const(d["value"])
    if kind == "index":
        return IndexVar(d["name"])
    if kind == "grid":
        return GridRef(d["grid"], tuple(expr_from_dict(i) for i in d["indices"]))
    if kind == "binop":
        return BinOp(d["op"], expr_from_dict(d["left"]), expr_from_dict(d["right"]))
    if kind == "unop":
        return UnOp(d["op"], expr_from_dict(d["operand"]))
    if kind == "lib":
        return LibCall(d["name"], tuple(expr_from_dict(a) for a in d["args"]))
    if kind == "call":
        return FuncCall(d["name"], tuple(expr_from_dict(a) for a in d["args"]))
    raise ValidationError(f"unknown expression kind {kind!r}")


# --------------------------------------------------------------------------
# statements / steps
# --------------------------------------------------------------------------

def stmt_to_dict(s: Stmt) -> dict[str, Any]:
    if isinstance(s, Assign):
        return {"kind": "assign", "target": expr_to_dict(s.target),
                "expr": expr_to_dict(s.expr)}
    if isinstance(s, CallStmt):
        return {"kind": "callstmt", "name": s.name,
                "args": [expr_to_dict(a) for a in s.args]}
    if isinstance(s, IfStmt):
        return {"kind": "if", "cond": expr_to_dict(s.cond),
                "then": [stmt_to_dict(x) for x in s.then],
                "orelse": [stmt_to_dict(x) for x in s.orelse]}
    if isinstance(s, Return):
        return {"kind": "return",
                "value": expr_to_dict(s.value) if s.value is not None else None}
    if isinstance(s, ExitLoop):
        return {"kind": "exit"}
    raise ValidationError(f"unserializable statement {type(s).__name__}")


def stmt_from_dict(d: dict[str, Any]) -> Stmt:
    kind = d["kind"]
    if kind == "assign":
        return Assign(target=expr_from_dict(d["target"]),
                      expr=expr_from_dict(d["expr"]))
    if kind == "callstmt":
        return CallStmt(d["name"], tuple(expr_from_dict(a) for a in d["args"]))
    if kind == "if":
        return IfStmt(
            cond=expr_from_dict(d["cond"]),
            then=tuple(stmt_from_dict(x) for x in d["then"]),
            orelse=tuple(stmt_from_dict(x) for x in d["orelse"]),
        )
    if kind == "return":
        return Return(expr_from_dict(d["value"]) if d["value"] is not None else None)
    if kind == "exit":
        return ExitLoop()
    raise ValidationError(f"unknown statement kind {kind!r}")


def step_to_dict(step: Step) -> dict[str, Any]:
    return {
        "name": step.name,
        "comment": step.comment,
        "ranges": [
            {"var": r.var, "start": expr_to_dict(r.start),
             "end": expr_to_dict(r.end), "step": expr_to_dict(r.step)}
            for r in step.ranges
        ],
        "condition": expr_to_dict(step.condition) if step.condition is not None else None,
        "stmts": [stmt_to_dict(s) for s in step.stmts],
    }


def step_from_dict(d: dict[str, Any]) -> Step:
    return Step(
        name=d["name"],
        comment=d.get("comment", ""),
        ranges=[
            Range(var=r["var"], start=expr_from_dict(r["start"]),
                  end=expr_from_dict(r["end"]), step=expr_from_dict(r["step"]))
            for r in d["ranges"]
        ],
        condition=expr_from_dict(d["condition"]) if d["condition"] is not None else None,
        stmts=[stmt_from_dict(s) for s in d["stmts"]],
    )


# --------------------------------------------------------------------------
# grids / functions / program
# --------------------------------------------------------------------------

def grid_to_dict(g: Grid) -> dict[str, Any]:
    return {
        "name": g.name,
        "type": g.ty.name,
        "dims": list(g.dims),
        "comment": g.comment,
        "exists_in_module": g.exists_in_module,
        "common_block": g.common_block,
        "module_scope": g.module_scope,
        "type_parent": g.type_parent,
        "type_name": g.type_name,
        "is_parameter": g.is_parameter,
        "intent": g.intent,
        "save": g.save,
        "allocatable": g.allocatable,
        "init_data": g.init_data,
    }


def _glaf_type(name: Any) -> GlafType:
    try:
        return GlafType[name]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown type {name!r}") from None


def grid_from_dict(d: dict[str, Any]) -> Grid:
    return Grid(
        name=d["name"],
        ty=_glaf_type(d["type"]),
        dims=tuple(d["dims"]),
        comment=d.get("comment", ""),
        exists_in_module=d.get("exists_in_module"),
        common_block=d.get("common_block"),
        module_scope=d.get("module_scope", False),
        type_parent=d.get("type_parent"),
        type_name=d.get("type_name"),
        is_parameter=d.get("is_parameter", False),
        intent=d.get("intent"),
        save=d.get("save", False),
        allocatable=d.get("allocatable", False),
        init_data=d.get("init_data"),
    )


def function_to_dict(fn: GlafFunction) -> dict[str, Any]:
    return {
        "name": fn.name,
        "return_type": fn.return_type.name,
        "comment": fn.comment,
        "params": list(fn.params),
        "grids": [grid_to_dict(g) for g in fn.grids.values()],
        "steps": [step_to_dict(s) for s in fn.steps],
    }


def function_from_dict(d: dict[str, Any]) -> GlafFunction:
    fn = GlafFunction(
        name=d["name"],
        return_type=_glaf_type(d["return_type"]),
        comment=d.get("comment", ""),
    )
    for gd in d["grids"]:
        fn.grids[gd["name"]] = grid_from_dict(gd)
    fn.params = list(d["params"])
    fn.steps = [step_from_dict(s) for s in d["steps"]]
    return fn


def program_to_dict(program: GlafProgram) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "name": program.name,
        "derived_types": [
            {"name": dt.name, "defined_in_module": dt.defined_in_module,
             "fields": {k: [v[0].name, v[1]] for k, v in dt.fields.items()}}
            for dt in program.derived_types.values()
        ],
        "global_grids": [grid_to_dict(g) for g in program.global_grids.values()],
        "modules": [
            {"name": m.name, "comment": m.comment,
             "functions": [function_to_dict(f) for f in m.functions.values()]}
            for m in program.modules.values()
        ],
    }


def program_from_dict(d: Any) -> GlafProgram:
    """The program a project document describes; a malformed document
    raises :class:`ValidationError` naming the problem."""
    if not isinstance(d, dict):
        raise ValidationError(
            f"project document is a JSON {type(d).__name__}, not an object")
    if d.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported project format {d.get('format_version')!r}; "
            f"expected {FORMAT_VERSION}"
        )
    try:
        program = GlafProgram(name=d["name"])
        for td in d["derived_types"]:
            program.add_derived_type(DerivedType(
                name=td["name"],
                defined_in_module=td.get("defined_in_module"),
                fields={k: (_glaf_type(v[0]), int(v[1]))
                        for k, v in td["fields"].items()},
            ))
        for gd in d["global_grids"]:
            program.add_global_grid(grid_from_dict(gd))
        for md in d["modules"]:
            mod = GlafModule(name=md["name"], comment=md.get("comment", ""))
            for fd in md["functions"]:
                mod.add_function(function_from_dict(fd))
            program.add_module(mod)
    except KeyError as e:
        raise ValidationError(
            f"malformed project document: missing key {e}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise ValidationError(
            f"malformed project document: {type(e).__name__}: {e}") from None
    except RecursionError:
        raise ValidationError(
            "malformed project document: nested too deeply") from None
    return program


def save_project(program: GlafProgram, path: str | Path) -> None:
    Path(path).write_text(json.dumps(program_to_dict(program), indent=2))


def load_project(path: str | Path) -> GlafProgram:
    from ..observe import get_tracer

    with get_tracer().span("project.load", path=str(path)) as _sp:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError:
            raise ValidationError(
                f"project file {path} is not UTF-8 text") from None
        except json.JSONDecodeError as e:
            raise ValidationError(
                f"project file {path} is not valid JSON: {e}") from e
        except RecursionError:
            raise ValidationError(
                f"project file {path} is nested too deeply") from None
        program = program_from_dict(doc)
        _sp.set(program=program.name,
                functions=len(list(program.functions())))
        return program
