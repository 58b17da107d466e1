"""Structural validation of GLAF programs.

The GPI prevents most invalid states interactively; since our builder is
programmatic, this validator enforces the same rules before any back-end
runs:

* every grid referenced by a formula resolves in function or global scope;
* every index variable used is bound by the enclosing step's index range;
* called functions exist, and argument counts match;
* subroutines (void return) contain no value-returning ``Return``; functions
  return a value on every trailing path (checked shallowly);
* steps contain at most one loop nest (GLAF's nesting rule — interior loops
  must be separate functions, paper §3.3);
* TYPE-element grids name a registered derived type that has the field;
* COMMON-block grids and existing-module grids live in Global Scope only.

By default the first violation raises :class:`ValidationError`.  With
``collect=True`` the walk continues past each error — mirroring the
recovering parser — and every violation is raised together as one
:class:`~repro.errors.DiagnosticBundle`, which is what ``repro lint`` and
the CLI program loader use to report all problems in one pass.
"""

from __future__ import annotations

from ..errors import DiagnosticBundle, ValidationError
from .expr import Expr, FuncCall, GridRef, LibCall, walk
from .function import GlafFunction, GlafProgram
from .libfuncs import REGISTRY
from .step import Assign, CallStmt, Return, Step, walk_stmts

__all__ = ["validate_program", "validate_function"]


class _Sink:
    """Error channel: raise immediately, or collect for one bundle."""

    def __init__(self, collect: bool):
        self.collect = collect
        self.errors: list[ValidationError] = []
        self._seen: set[str] = set()

    def error(self, message: str) -> None:
        err = ValidationError(message)
        if not self.collect:
            raise err
        # The walks overlap (an assignment target is also visited as an
        # expression), which strict mode never notices — it raises on the
        # first hit.  Collected bundles dedup exact repeats.
        if message not in self._seen:
            self._seen.add(message)
            self.errors.append(err)

    def finish(self) -> None:
        if self.errors:
            raise DiagnosticBundle(self.errors)


def validate_program(program: GlafProgram, *, collect: bool = False) -> None:
    from ..observe import get_tracer

    with get_tracer().span("project.validate", program=program.name):
        sink = _Sink(collect)
        _validate_program(program, sink)
        sink.finish()


def _validate_program(program: GlafProgram, sink: _Sink) -> None:
    names = [fn.name for fn in program.functions()]
    if len(names) != len(set(names)):
        dupes = sorted({n for n in names if names.count(n) > 1})
        sink.error(f"function names must be program-unique: {dupes}")

    for g in program.global_grids.values():
        if g.type_name is not None:
            if g.type_name not in program.derived_types:
                sink.error(
                    f"global grid {g.name!r}: unknown derived type {g.type_name!r}"
                )
                continue
            dt = program.derived_types[g.type_name]
            if not dt.has_field(g.name):
                sink.error(
                    f"global grid {g.name!r}: TYPE {g.type_name} has no such element"
                )

    for fn in program.functions():
        validate_function(program, fn, sink=sink)


def validate_function(
    program: GlafProgram, fn: GlafFunction, *, sink: _Sink | None = None
) -> None:
    sink = sink or _Sink(collect=False)
    for g in fn.grids.values():
        if g.is_external:
            sink.error(
                f"{fn.name}: grid {g.name!r} uses legacy-integration attributes "
                "but is function-local; create it in Global Scope (paper §3.1/3.2)"
            )
        if g.module_scope:
            sink.error(
                f"{fn.name}: module-scope grid {g.name!r} must live in Global Scope"
            )

    for step in fn.steps:
        _validate_step(program, fn, step, sink)

    if fn.is_subroutine:
        for step in fn.steps:
            for s in walk_stmts(step.stmts):
                if isinstance(s, Return) and s.value is not None:
                    sink.error(
                        f"{fn.name}: subroutine cannot return a value (paper §3.4)"
                    )


def _validate_step(
    program: GlafProgram, fn: GlafFunction, step: Step, sink: _Sink
) -> None:
    where = f"{fn.name}/{step.name}"

    free = step.free_index_vars()
    if free:
        sink.error(f"{where}: unbound index variables {sorted(free)}")

    for e in step.all_exprs():
        _validate_expr(program, fn, e, where, sink)

    for s in walk_stmts(step.stmts):
        if isinstance(s, Assign):
            grid = _resolve(program, fn, s.target.grid, where, sink)
            if grid is None:
                continue
            if s.target.indices and len(s.target.indices) != grid.rank:
                sink.error(
                    f"{where}: target {grid.name!r} has rank {grid.rank} but "
                    f"{len(s.target.indices)} indices were given"
                )
            if not s.target.indices and grid.rank != 0:
                sink.error(
                    f"{where}: cannot assign to whole array {grid.name!r}; "
                    "index it or use an initialization step"
                )
            if grid.is_parameter:
                sink.error(f"{where}: cannot assign to PARAMETER {grid.name!r}")
        elif isinstance(s, CallStmt):
            _validate_call(program, s.name, len(s.args), where,
                           subroutine_only=True, sink=sink)


def _validate_expr(
    program: GlafProgram, fn: GlafFunction, e: Expr, where: str, sink: _Sink
) -> None:
    for node in walk(e):
        if isinstance(node, GridRef):
            grid = _resolve(program, fn, node.grid, where, sink)
            if grid is None:
                continue
            if node.indices and len(node.indices) != grid.rank:
                sink.error(
                    f"{where}: grid {grid.name!r} has rank {grid.rank} but is "
                    f"indexed with {len(node.indices)} indices"
                )
        elif isinstance(node, LibCall):
            if node.name not in REGISTRY:
                sink.error(f"{where}: unknown library function {node.name!r}")
                continue
            try:
                REGISTRY[node.name].check_arity(len(node.args))
            except ValidationError as err:
                sink.error(str(err))
        elif isinstance(node, FuncCall):
            _validate_call(program, node.name, len(node.args), where,
                           subroutine_only=False, sink=sink)


def _validate_call(
    program: GlafProgram, name: str, nargs: int, where: str,
    subroutine_only: bool, sink: _Sink,
) -> None:
    try:
        callee = program.find_function(name)
    except KeyError:
        sink.error(f"{where}: call to unknown function {name!r}")
        return
    if nargs != len(callee.params):
        sink.error(
            f"{where}: {name} takes {len(callee.params)} argument(s), got {nargs}"
        )
    if subroutine_only and not callee.is_subroutine:
        sink.error(
            f"{where}: {name} returns a value; use it inside a formula, "
            "not as a CALL statement"
        )
    if not subroutine_only and callee.is_subroutine:
        sink.error(
            f"{where}: {name} is a subroutine and yields no value (paper §3.4)"
        )


def _resolve(
    program: GlafProgram, fn: GlafFunction, name: str, where: str, sink: _Sink
):
    try:
        return program.resolve_grid(fn, name)
    except KeyError:
        sink.error(f"{where}: reference to unknown grid {name!r}")
        return None