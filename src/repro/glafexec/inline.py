"""Inline leaf calls of a loop step and split it into array nests.

:func:`~repro.glafexec.vectorize.compile_step` lifts a loop step whose
body is one perfect nest of assignments.  FUN3D's cell sweep is not: its
body calls ``cell_loop``, which calls ``angle_check`` and, for most
cells, ``edge_loop``, which calls ``ioff_search`` once per edge.  This
module rewrites such a step, in the IR, into a sequence of *split nests*
that the lift engine runs one after the other, each over the whole
iteration space at once:

* **Inlining.**  A called subroutine's steps become nests over the
  caller's ranges followed by the callee step's own ranges.  Scalar
  arguments bind as the scalar interpreter binds them: an unsubscripted
  scalar grid by reference, anything else by value in the parameter's
  dtype (:class:`Cast`).  Array arguments, ``intent(out)`` scalars,
  recursion, and a by-value argument reading a grid the callee writes
  (its substitute would see the new value) are refused.
* **Functions.**  A function that is only ``RETURN expr`` is substituted
  (:class:`Inlined`).  A function made of one loop step whose body is
  ``IF (cond) RETURN v`` and a final ``RETURN d`` becomes a first-match
  search over its range, with bounds that may differ per lane
  (:class:`Search`).
* **Activities.**  A condition that guards a call is evaluated once, at
  the call, into a logical grid with one element per lane; every nest of
  the callee runs under it.
* **Per-iteration scratch.**  A callee's plain locals get one copy per
  lane of the enclosing ranges.  A module-scope grid, a SAVE'd local or a
  caller grid gets one too when the sweep writes it in full, unmasked,
  before any read, in every iteration: the lift is then free of
  loop-carried state, and the grid keeps the value of the last active
  iteration afterwards.  A scalar written before it is read within one
  nest (``n1v`` in ``edge_loop``) gets one copy per lane of that nest.
  So does a scalar local that a nest over the callee's own ranges writes,
  unmasked, before that nest reads it: after the nest the local keeps,
  per lane of its own copy, the last lane of those ranges, and a nest
  with zero trips leaves it as it was.

The split preserves the scalar order of every value: within one
iteration the nests run in statement order, and across iterations they
share nothing but scratch indexed by the iteration itself, read-only
grids, and grids that one nest alone touches (whose nest rules in
:func:`~repro.glafexec.vectorize.compile_step` then apply).  Anything else
raises :class:`Unliftable` with the reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from ..core.expr import (
    BinOp,
    Const,
    Expr,
    FuncCall,
    GridRef,
    IndexVar,
    LibCall,
    UnOp,
    grids_read,
    walk,
)
from ..core.function import GlafFunction, GlafProgram
from ..core.grid import Grid
from ..core.step import (
    Assign,
    CallStmt,
    ExitLoop,
    IfStmt,
    Range,
    Return,
    Step,
    Stmt,
    walk_stmts,
)
from ..core.types import numpy_dtype

__all__ = ["Cast", "Inlined", "Note", "Scratch", "Search", "Split",
           "Unliftable", "conj", "flatten", "split_step"]


class Unliftable(Exception):
    """Why a step cannot run as array nests."""


# ----------------------------------------------------------------------
# the expression nodes inlining introduces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cast(Expr):
    """A scalar argument bound by value: ``operand`` in ``dtype``."""

    dtype: str
    operand: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Inlined(Expr):
    """An expression function's body: one call per lane it is evaluated
    on, and its value in the return dtype."""

    name: str
    dtype: str
    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.body,)


@dataclass(frozen=True)
class Search(Expr):
    """A search function: per lane, ``value`` at the first ``var`` of
    ``start .. end`` (step ``stride``) where ``cond`` holds, else
    ``default``, in the return dtype.  ``step`` is the callee's loop step
    index, for iteration accounting."""

    name: str
    step: int
    dtype: str
    var: str
    start: Expr
    end: Expr
    stride: int
    cond: Expr
    value: Expr
    default: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.start, self.end, self.cond, self.value, self.default)


def search_vars(e: Expr) -> set[str]:
    """The index variables bound by searches inside ``e``."""
    return {n.var for n in walk(e) if isinstance(n, Search)}


# ----------------------------------------------------------------------
# the split
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scratch:
    """One expanded grid: a copy of the grid per lane of ``lead``.

    ``dims`` are the grid's own extents (ints or size names); ``dtype``
    is ``None`` when it is the dtype of the grid ``target`` names at run
    time.  ``init`` is the declaration a callee local starts from on each
    invocation.  After the nest (``in_nest``) or the sweep, the value of
    the last lane where ``active`` holds (every lane when ``None``) is
    kept in ``target``: ``("grid", name)`` or ``("save", function,
    local)``; a plain local's copy (``target`` ``None``) is dropped.  An
    in-nest copy of an expanded scalar local, ``("local", name)``, keeps
    the last lane of the nest's own ranges in each lane of the local
    where ``active`` holds.
    """

    name: str
    lead: tuple[str, ...]
    dims: tuple = ()
    dtype: str | None = None
    init: Grid | None = None
    target: tuple | None = None
    active: str | None = None
    in_nest: bool = False


@dataclass(frozen=True)
class Note:
    """Accounting the scalar path does that a split nest does not, as a
    lifted program hands it to its front end's callback.

    ``call``: one call of ``key`` per active lane of ``lead``, allocating
    ``plain`` locals each time and each SAVE'd local of ``saved`` once.
    ``iter``: ``key`` = (function, step index) runs its own ranges
    ``own`` once per active lane of ``lead``.  A sweep also asks the
    callback for what only the front end holds: ``save``, the storage of
    the SAVE'd local ``key`` = (function, local), and ``size``, the value
    of the symbolic extent ``key``.
    """

    kind: str
    key: Any
    lead: tuple[str, ...]
    own: tuple[str, ...] = ()
    active: str | None = None
    plain: int = 0
    saved: tuple = ()


@dataclass(frozen=True)
class Nest:
    """One split nest: a loop step of assignments, the scratch whose
    last lane it keeps (``(scratch, grid)``), and the in-nest copies of
    expanded locals that keep their last own lane after it
    (``locals``)."""

    step: Step
    keep: tuple[tuple[str, str], ...] = ()
    locals: tuple[str, ...] = ()


@dataclass(frozen=True)
class Split:
    """A step rewritten into nests.  ``notes`` pairs each note with the
    nest it precedes (``len(nests)``: after the last)."""

    nests: tuple[Nest, ...]
    scratch: tuple[Scratch, ...]
    notes: tuple[tuple[int, Note], ...]
    inlined: tuple[str, ...]
    expanded: tuple[str, ...]
    depth: int


@dataclass
class _Env:
    """The names of one (inlined) function: parameter bindings, locals
    (scratch name and leading subscripts) and loop-variable renames."""

    fn: GlafFunction | None
    params: dict[str, Expr] = field(default_factory=dict)
    locals: dict[str, tuple[str, tuple]] = field(default_factory=dict)
    vars: dict[str, Expr] = field(default_factory=dict)
    top: bool = False


@dataclass
class _Raw:
    ranges: list[Range]
    condition: Expr | None
    stmts: list[Stmt]
    scope: tuple[str, ...]      # activities the nest runs under, outermost first
    lead: int                   # enclosing ranges (the rest are the nest's own)
    extra: bool                 # condition beyond the activity
    name: str


def _has_call_stmt(stmts) -> bool:
    return any(isinstance(s, CallStmt) for s in walk_stmts(stmts))


def conj(a: Expr | None, b: Expr | None) -> Expr | None:
    """``a .AND. b``, either of which may be absent."""
    if a is None:
        return b
    return a if b is None else BinOp("and", a, b)


def flatten(stmts, mask: Expr | None = None
            ) -> list[tuple[Assign, Expr | None]]:
    """A loop body as (assignment, guard mask) pairs, in statement
    order."""
    out: list[tuple[Assign, Expr | None]] = []
    for s in stmts:
        if isinstance(s, Assign):
            out.append((s, mask))
        elif isinstance(s, IfStmt):
            out += flatten(s.then, conj(mask, s.cond))
            out += flatten(s.orelse, conj(mask, UnOp("not", s.cond)))
        elif isinstance(s, CallStmt):
            raise Unliftable(f"subroutine call {s.name!r} inside the loop "
                             "body")
        elif isinstance(s, Return):
            raise Unliftable("early return inside the loop body")
        elif isinstance(s, ExitLoop):
            raise Unliftable("early loop exit (EXIT) inside the loop body")
        else:
            raise Unliftable(f"unsupported statement {type(s).__name__}")
    return out


def map_expr(e: Expr, f: Callable[[Expr], Expr]) -> Expr:
    """``e`` rebuilt bottom-up with every node ``n`` replaced by
    ``f(n)``."""
    if isinstance(e, GridRef):
        e = GridRef(e.grid, tuple(map_expr(i, f) for i in e.indices))
    elif isinstance(e, BinOp):
        e = BinOp(e.op, map_expr(e.left, f), map_expr(e.right, f))
    elif isinstance(e, UnOp):
        e = UnOp(e.op, map_expr(e.operand, f))
    elif isinstance(e, LibCall):
        e = LibCall(e.name, tuple(map_expr(a, f) for a in e.args))
    elif isinstance(e, FuncCall):
        e = FuncCall(e.name, tuple(map_expr(a, f) for a in e.args))
    elif isinstance(e, Cast):
        e = Cast(e.dtype, map_expr(e.operand, f))
    elif isinstance(e, Inlined):
        e = Inlined(e.name, e.dtype, map_expr(e.body, f))
    elif isinstance(e, Search):
        e = replace(e, start=map_expr(e.start, f), end=map_expr(e.end, f),
                    cond=map_expr(e.cond, f), value=map_expr(e.value, f),
                    default=map_expr(e.default, f))
    return f(e)


def _map_stmts(stmts, f: Callable[[Expr], Expr]) -> list[Stmt]:
    out: list[Stmt] = []
    for s in stmts:
        if isinstance(s, Assign):
            out.append(Assign(map_expr(s.target, f), map_expr(s.expr, f)))
        else:
            out.append(IfStmt(map_expr(s.cond, f), tuple(_map_stmts(s.then, f)),
                              tuple(_map_stmts(s.orelse, f))))
    return out


def _saved(g: Grid, save_inner_arrays: bool) -> bool:
    return g.save or (save_inner_arrays and g.allocatable)


class _Splitter:
    def __init__(self, program: GlafProgram, fn: GlafFunction | None,
                 step: Step, save_inner_arrays: bool) -> None:
        self.program = program
        self.fn = fn
        self.step = step
        self.save_inner_arrays = save_inner_arrays
        self.raw: list[_Raw] = []
        self.pending: list[Stmt] = []
        self.scratch: dict[str, Scratch] = {}
        self.notes: list[tuple[int, Note]] = []
        self.saved: dict[str, tuple[str, str, Grid]] = {}
        self.inlined: list[str] = []
        self.expanded: list[str] = []
        self.stack: list[str] = []
        self.depth = 0
        self.serial = 0
        self.taken = set(step.index_names())

    # -- names -------------------------------------------------------------
    def _fresh(self, var: str) -> str:
        self.serial += 1
        name = f"{var}_{self.serial}"
        while name in self.taken:
            self.serial += 1
            name = f"{var}_{self.serial}"
        self.taken.add(name)
        return name

    def decl(self, env: _Env, name: str) -> Grid | None:
        """The declaration ``name`` resolves to in ``env``'s function."""
        fn = env.fn
        if fn is not None and name in fn.grids:
            return fn.grids[name]
        return self.program.global_grids.get(name)

    # -- expressions ---------------------------------------------------------
    def expr(self, e: Expr, env: _Env) -> Expr:
        """``e`` in the names of the split nests."""
        if isinstance(e, IndexVar):
            return env.vars.get(e.name, e)
        if isinstance(e, GridRef):
            return self._grid(GridRef(e.grid, tuple(
                self.expr(i, env) for i in e.indices)), env)
        if isinstance(e, FuncCall):
            return self.function(e, env)
        if isinstance(e, BinOp):
            return BinOp(e.op, self.expr(e.left, env),
                         self.expr(e.right, env))
        if isinstance(e, UnOp):
            return UnOp(e.op, self.expr(e.operand, env))
        if isinstance(e, LibCall):
            return LibCall(e.name, tuple(self.expr(a, env) for a in e.args))
        return e

    def _grid(self, n: GridRef, env: _Env) -> Expr:
        name = n.grid
        bound = env.params.get(name)
        if bound is not None:
            if n.indices:
                raise Unliftable(f"scalar argument {name!r} of "
                                 f"{env.fn.name!r} is subscripted")
            return bound
        local = env.locals.get(name)
        if local is not None:
            return GridRef(local[0], local[1] + n.indices)
        if not env.top:
            if name not in self.program.global_grids:
                raise Unliftable(f"{env.fn.name!r} names unknown grid "
                                 f"{name!r}")
            if self.fn is not None and name in self.fn.grids:
                raise Unliftable(f"global {name!r} read by {env.fn.name!r} "
                                 f"is shadowed in {self.fn.name!r}")
        return n

    def function(self, e: FuncCall, env: _Env) -> Expr:
        callee = self._callee(e.name)
        if callee.is_subroutine:
            raise Unliftable(f"subroutine {e.name!r} called in an expression")
        if callee.local_grids():
            raise Unliftable(f"function {e.name!r} has local grids")
        args = tuple(self.expr(a, env) for a in e.args)
        cenv = _Env(callee, self._bind(callee, e.args, args, env))
        dtype = numpy_dtype(callee.return_type).str
        steps = callee.steps
        self._enter(callee.name)
        try:
            if (len(steps) == 1 and not steps[0].ranges
                    and steps[0].condition is None
                    and len(steps[0].stmts) == 1
                    and isinstance(steps[0].stmts[0], Return)
                    and steps[0].stmts[0].value is not None):
                return Inlined(callee.name, dtype,
                               self.expr(steps[0].stmts[0].value, cenv))
            return self._search(callee, cenv, dtype)
        finally:
            self._leave()

    def _search(self, callee: GlafFunction, cenv: _Env, dtype: str) -> Search:
        steps = callee.steps
        why = (f"function {callee.name!r} is neither one RETURN expression "
               "nor a first-match search")
        if len(steps) != 2:
            raise Unliftable(why)
        loop, tail = steps
        if (len(loop.ranges) != 1 or loop.condition is not None
                or len(loop.stmts) != 1 or tail.ranges
                or tail.condition is not None or len(tail.stmts) != 1):
            raise Unliftable(why)
        hit, last = loop.stmts[0], tail.stmts[0]
        if not (isinstance(hit, IfStmt) and not hit.orelse
                and len(hit.then) == 1 and isinstance(hit.then[0], Return)
                and hit.then[0].value is not None
                and isinstance(last, Return) and last.value is not None):
            raise Unliftable(why)
        rg = loop.ranges[0]
        if not (isinstance(rg.step, Const) and type(rg.step.value) is int
                and rg.step.value > 0):
            raise Unliftable(f"search {callee.name!r} has no positive "
                             "constant stride")
        var = self._fresh(rg.var)
        inner = replace(cenv, vars={**cenv.vars, rg.var: IndexVar(var)})
        return Search(callee.name, 0, dtype, var,
                      self.expr(rg.start, cenv), self.expr(rg.end, cenv),
                      rg.step.value, self.expr(hit.cond, inner),
                      self.expr(hit.then[0].value, inner),
                      self.expr(last.value, cenv))

    def _callee(self, name: str) -> GlafFunction:
        try:
            callee = self.program.find_function(name)
        except KeyError:
            raise Unliftable(f"call to unknown function {name!r}") from None
        if name in self.stack or (self.fn is not None
                                  and name == self.fn.name):
            raise Unliftable(f"recursive call to {name!r}")
        return callee

    def _enter(self, name: str) -> None:
        self.stack.append(name)
        self.depth = max(self.depth, len(self.stack))
        if name not in self.inlined:
            self.inlined.append(name)

    def _leave(self) -> None:
        self.stack.pop()

    def _bind(self, callee: GlafFunction, raw: tuple, args: tuple,
              env: _Env) -> dict[str, Expr]:
        """Bind ``callee``'s parameters to the (rewritten) ``args``."""
        who = f"call to {callee.name!r}"
        if len(args) != len(callee.params):
            raise Unliftable(f"{who}: {len(args)} argument(s) for "
                             f"{len(callee.params)} parameter(s)")
        written = {s.target.grid for st in callee.steps
                   for s in walk_stmts(st.stmts) if isinstance(s, Assign)}
        out: dict[str, Expr] = {}
        for pname, a, v in zip(callee.params, raw, args):
            g = callee.grids[pname]
            if g.rank:
                raise Unliftable(f"{who}: array argument {pname!r}")
            if g.intent in ("out", "inout"):
                raise Unliftable(f"{who}: intent({g.intent}) scalar "
                                 f"argument {pname!r}")
            if isinstance(a, GridRef) and not a.indices:
                if a.grid not in env.params:
                    d = self.decl(env, a.grid)
                    if d is None or d.rank:
                        raise Unliftable(f"{who}: array argument {pname!r}")
                out[pname] = v                      # by reference
                continue
            if pname in written:
                raise Unliftable(f"{who}: {callee.name!r} writes its "
                                 f"by-value argument {pname!r}")
            dtype = numpy_dtype(g.ty)
            if isinstance(v, IndexVar) and dtype == np.int64:
                out[pname] = v
            elif isinstance(v, Const) and not isinstance(v.value, str):
                try:
                    out[pname] = Const(dtype.type(v.value))
                except (OverflowError, ValueError, TypeError):
                    raise Unliftable(f"{who}: constant argument {pname!r} "
                                     "does not fit its dtype") from None
            else:
                out[pname] = Cast(dtype.str, v)
        return out

    # -- statements ----------------------------------------------------------
    def stmt(self, s: Stmt, env: _Env) -> Stmt:
        if isinstance(s, Assign):
            target = self.expr(s.target, env)
            if not isinstance(target, GridRef):
                raise Unliftable(f"{env.fn.name!r} assigns its by-value "
                                 f"argument {s.target.grid!r}")
            return Assign(target, self.expr(s.expr, env))
        if isinstance(s, IfStmt):
            return IfStmt(self.expr(s.cond, env),
                          tuple(self.stmt(t, env) for t in s.then),
                          tuple(self.stmt(t, env) for t in s.orelse))
        if isinstance(s, Return):
            raise Unliftable("early return inside the loop body")
        if isinstance(s, ExitLoop):
            raise Unliftable("early loop exit (EXIT) inside the loop body")
        raise Unliftable(f"unsupported statement {type(s).__name__}")

    def flush(self, ranges: list[Range], active: Expr | None,
              scope: tuple, lead: int, name: str) -> None:
        if self.pending:
            self.raw.append(_Raw(list(ranges), active, self.pending, scope,
                                 lead, False, name))
            self.pending = []

    def activity(self, ranges: list[Range], cond: Expr) -> GridRef:
        """A logical scratch holding ``cond`` on the active lanes of the
        current group (``False`` elsewhere, its initial value)."""
        self.serial += 1
        name = f"#act{self.serial}"
        lead = tuple(r.var for r in ranges)
        self.scratch[name] = Scratch(name, lead, dtype="|b1")
        ref = GridRef(name, tuple(IndexVar(v) for v in lead))
        self.pending.append(Assign(ref, cond))
        return ref

    def body(self, stmts, ranges: list[Range], active: Expr | None,
             scope: tuple, env: _Env, name: str) -> None:
        """Statements run once per lane of ``ranges`` where ``active``
        holds."""
        lead = len(ranges)
        for s in stmts:
            if isinstance(s, CallStmt):
                self.flush(ranges, active, scope, lead, name)
                self.call(s, ranges, active, scope, env)
            elif isinstance(s, IfStmt) and _has_call_stmt((s,)):
                then = self.activity(ranges, self.expr(s.cond, env))
                other = (self.activity(ranges, UnOp("not", then))
                         if s.orelse else None)
                self.flush(ranges, active, scope, lead, name)
                self.body(s.then, ranges, then, scope + (then.grid,), env,
                          name)
                if other is not None:
                    self.body(s.orelse, ranges, other,
                              scope + (other.grid,), env, name)
            else:
                self.pending.append(self.stmt(s, env))
        self.flush(ranges, active, scope, lead, name)

    def call(self, s: CallStmt, ranges: list[Range], active: Expr | None,
             scope: tuple, env: _Env) -> None:
        callee = self._callee(s.name)
        if not callee.is_subroutine:
            raise Unliftable(f"function {s.name!r} called as a subroutine")
        args = tuple(self.expr(a, env) for a in s.args)
        cenv = _Env(callee, self._bind(callee, s.args, args, env))
        self._enter(callee.name)
        self.serial += 1
        lead = tuple(r.var for r in ranges)
        lead_refs = tuple(IndexVar(v) for v in lead)
        used = callee.grids_referenced()
        plain, saved = 0, []
        for lname, g in callee.local_grids().items():
            if g.symbolic_dims() & set(callee.params):
                raise Unliftable(f"local {lname!r} of {callee.name!r} is "
                                 "sized by an argument")
            if _saved(g, self.save_inner_arrays):
                saved.append((callee.name, lname, g))
                sname = f"{callee.name}.{lname}@save"
                self.saved[sname] = (callee.name, lname, g)
                cenv.locals[lname] = (sname, ())
                continue
            plain += 1
            if lname in used:
                self.expanded.append(f"{callee.name}.{lname}")
                sname = f"{callee.name}#{self.serial}.{lname}"
                self.scratch[sname] = Scratch(
                    sname, lead, g.dims, numpy_dtype(g.ty).str, init=g)
                cenv.locals[lname] = (sname, lead_refs)
        act = None if active is None else active.grid
        first = len(self.raw)
        self.notes.append((first, Note(
            "call", callee.name, lead, active=act, plain=plain,
            saved=tuple(saved))))
        for idx, cstep in enumerate(callee.steps):
            self.callee_step(callee, idx, cstep, ranges, active, scope, cenv)
        self._leave()
        # A by-value argument is evaluated at the call; its substitute is
        # evaluated at each use, so the callee must not change its value.
        reads = set().union(*(grids_read(v) for v in cenv.params.values()
                              if isinstance(v, Cast)))
        for raw in self.raw[first:]:
            for a, _ in flatten(raw.stmts):
                if a.target.grid in reads:
                    raise Unliftable(
                        f"call to {callee.name!r}: it writes "
                        f"{a.target.grid!r}, which a by-value argument "
                        "reads")

    def callee_step(self, callee: GlafFunction, idx: int, cstep: Step,
                    ranges: list[Range], active: Expr | None, scope: tuple,
                    cenv: _Env) -> None:
        name = f"{callee.name}/{cstep.name}"
        if cstep.ranges:
            own, renames = [], dict(cenv.vars)
            for rg in cstep.ranges:
                var = self._fresh(rg.var)
                env = replace(cenv, vars=renames)
                own.append(Range(var, self.expr(rg.start, env),
                                 self.expr(rg.end, env),
                                 self.expr(rg.step, env)))
                renames = {**renames, rg.var: IndexVar(var)}
            cenv = replace(cenv, vars=renames)
            self.notes.append((len(self.raw), Note(
                "iter", (callee.name, idx), tuple(r.var for r in ranges),
                tuple(r.var for r in own),
                None if active is None else active.grid)))
            cond = (None if cstep.condition is None
                    else self.expr(cstep.condition, cenv))
            nest = ranges + own
            if _has_call_stmt(cstep.stmts):
                if cond is not None:
                    active = self.activity(nest, conj(active, cond))
                    self.flush(nest, None, scope, len(nest), name)
                    scope = scope + (active.grid,)
                self.body(cstep.stmts, nest, active, scope, cenv, name)
                return
            stmts = [self.stmt(s, cenv) for s in cstep.stmts]
            self.raw.append(_Raw(nest, conj(active, cond), stmts, scope,
                                 len(ranges), cond is not None, name))
            return
        if cstep.condition is not None:
            cond = self.expr(cstep.condition, cenv)
            if _has_call_stmt(cstep.stmts):
                act = self.activity(ranges, cond)
                self.flush(ranges, active, scope, len(ranges), name)
                self.body(cstep.stmts, ranges, act, scope + (act.grid,),
                          cenv, name)
                return
            stmts = [self.stmt(s, cenv) for s in cstep.stmts]
            if stmts:
                self.raw.append(_Raw(list(ranges), conj(active, cond),
                                     stmts, scope, len(ranges), True, name))
            return
        self.body(cstep.stmts, ranges, active, scope, cenv, name)

    # -- the caller step -----------------------------------------------------
    def split(self) -> None:
        step = self.step
        env = _Env(self.fn, top=True)
        ranges = list(step.ranges)
        cond = (None if step.condition is None
                else self.expr(step.condition, env))
        if _has_call_stmt(step.stmts):
            active, scope = None, ()
            if cond is not None:
                active = self.activity(ranges, cond)
                self.flush(ranges, None, (), len(ranges), step.name)
                scope = (active.grid,)
            self.body(step.stmts, ranges, active, scope, env, step.name)
            return
        stmts = [self.stmt(s, env) for s in step.stmts]
        self.raw.append(_Raw(ranges, cond, stmts, (), len(ranges),
                             cond is not None, step.name))


# ----------------------------------------------------------------------
# per-iteration scratch
# ----------------------------------------------------------------------
def _full_write(raw: _Raw, s: Assign, mask: Expr | None, decl: Grid | None,
                n_top: int) -> bool:
    """Does ``s`` write every element of its grid, once per top-level
    iteration, without reading it first?"""
    from ..analysis.dataflow import step_live_on_entry

    if (decl is None or mask is not None or raw.extra
            or raw.lead != n_top):
        return False
    own = raw.ranges[n_top:]
    subs = s.target.indices
    if len(subs) != decl.rank or len(own) != decl.rank:
        return False
    by_var = {r.var: r for r in own}
    for sub, dim in zip(subs, decl.dims):
        if not isinstance(sub, IndexVar) or sub.name not in by_var:
            return False
        rg = by_var.pop(sub.name)
        if rg.start != Const(1) or rg.step != Const(1):
            return False
        if isinstance(dim, int):
            if rg.end != Const(dim):
                return False
        elif rg.end != GridRef(dim):
            return False
    step = Step("full", ranges=raw.ranges, condition=raw.condition,
                stmts=raw.stmts)
    return s.target.grid not in step_live_on_entry(step)


class _Expander:
    """Decides which grids of the split nests get per-iteration copies,
    and rewrites the nests to use them."""

    def __init__(self, sp: _Splitter) -> None:
        self.sp = sp
        self.n_top = len(sp.step.ranges)
        self.top = tuple(r.var for r in sp.step.ranges)
        self.scratch = dict(sp.scratch)
        self.rename: dict[str, Callable[[GridRef], GridRef]] = {}
        self.keep: dict[int, list[tuple[str, str]]] = {}
        self.inner: dict[int, dict[str, str]] = {}   # nest -> local -> copy
        self.expanded: list[str] = list(sp.expanded)

    def uses(self) -> dict[str, list[tuple[int, str, Any]]]:
        out: dict[str, list[tuple[int, str, Any]]] = {}

        def read(i: int, e: Expr | None) -> None:
            if e is not None:
                for g in sorted(grids_read(e)):
                    out.setdefault(g, []).append((i, "read", None))

        for i, raw in enumerate(self.sp.raw):
            for r in raw.ranges:
                for b in (r.start, r.end, r.step):
                    read(i, b)
            read(i, raw.condition)
            for s, mask in flatten(raw.stmts):
                read(i, mask)
                read(i, s.expr)
                for ie in s.target.indices:
                    read(i, ie)
                out.setdefault(s.target.grid, []).append(
                    (i, "write", (s, mask)))
        return out

    def decl(self, name: str) -> Grid | None:
        if name in self.sp.saved:
            return self.sp.saved[name][2]
        fn = self.sp.fn
        if fn is not None and name in fn.grids:
            return fn.grids[name]
        return self.sp.program.global_grids.get(name) if self.sp.program \
            else None

    def run(self) -> None:
        raws = self.sp.raw
        for name, evs in self.uses().items():
            writes = [e for e in evs if e[1] == "write"]
            nests = {e[0] for e in evs}
            if name in self.scratch:
                if len(nests) == 1:
                    self._temporary(name, evs)
                else:
                    self._inner(name, evs)
                continue
            if not writes:
                if name in self.sp.saved:
                    _, local, _ = self.sp.saved[name]
                    raise Unliftable(f"SAVE'd local {local!r} is read "
                                     "before the sweep writes it")
                continue
            i, kind, detail = evs[0]
            decl = self.decl(name)
            if kind == "write" and _full_write(raws[i], *detail, decl,
                                               self.n_top):
                self._per_iteration(name, decl, raws[i].scope, evs)
                continue
            if len(nests) == 1 and name not in self.sp.saved:
                self._temporary(name, evs)      # else the nest's rules decide
                continue
            raise Unliftable(
                f"{self._label(name)} carries state between iterations of "
                f"the split nests (it is not written in full before it is "
                "read)")

    def _label(self, name: str) -> str:
        if name in self.sp.saved:
            fn, local, _ = self.sp.saved[name]
            return f"SAVE'd local {local!r} of {fn!r}"
        return repr(name)

    def _per_iteration(self, name: str, decl: Grid, scope: tuple,
                       evs: list) -> None:
        raws = self.sp.raw
        for i, _, _ in evs:
            if raws[i].scope[:len(scope)] != scope:
                raise Unliftable(
                    f"{self._label(name)} is written in full only under a "
                    "condition and read outside it")
        sname = f"{name}#"
        target = (("save",) + self.sp.saved[name][:2]
                  if name in self.sp.saved else ("grid", name))
        self.scratch[sname] = Scratch(
            sname, self.top, decl.dims, numpy_dtype(decl.ty).str,
            target=target, active=scope[-1] if scope else None)
        lead = tuple(IndexVar(v) for v in self.top)
        self.rename[name] = lambda g: GridRef(sname, lead + g.indices)
        self.expanded.append(
            ".".join(self.sp.saved[name][:2]) if name in self.sp.saved
            else name)

    def _temporary(self, name: str, evs: list) -> bool:
        """A scalar written before it is read within one nest: one copy
        per lane of that nest."""
        i, kind, detail = evs[0]
        if kind != "write" or detail[1] is not None:
            return False
        raw = self.sp.raw[i]
        target = detail[0].target
        scratch = self.scratch.get(name)
        if scratch is not None:
            if scratch.dims or target.indices != tuple(
                    IndexVar(v) for v in scratch.lead):
                return False
            covered = set(scratch.lead)
        else:
            if target.indices:
                return False
            covered = set()
        lead = tuple(r.var for r in raw.ranges)
        if covered >= set(lead):
            return False
        sname = f"{name}#{i}"
        real = scratch is None
        if not real:
            del self.scratch[name]
        self.scratch[sname] = Scratch(
            sname, lead, (), None if real else scratch.dtype,
            target=("grid", name) if real else None, in_nest=True)
        refs = tuple(IndexVar(v) for v in lead)
        self.rename[name] = lambda g: GridRef(sname, refs)
        if real:
            self.keep.setdefault(i, []).append((sname, name))
            self.expanded.append(name)
        return True

    def _inner(self, name: str, evs: list) -> None:
        """An expanded scalar local that a nest over more ranges than the
        local's lead writes, unmasked, before the nest reads it: one copy
        per lane of that nest, whose last lane of the extra ranges the
        local keeps after it (:class:`Scratch`)."""
        spec = self.scratch[name]
        lead = tuple(IndexVar(v) for v in spec.lead)
        first: dict[int, tuple] = {}
        for i, kind, detail in evs:
            first.setdefault(i, (kind, detail))
        for i, (kind, detail) in first.items():
            raw = self.sp.raw[i]
            lanes = tuple(r.var for r in raw.ranges)
            act = raw.condition
            if (spec.dims or kind != "write" or detail[1] is not None
                    or raw.extra or detail[0].target.indices != lead
                    or lanes[:len(lead)] != spec.lead
                    or len(lanes) == len(lead)):
                continue
            if act is not None:
                # The activity must hold for every lane past the local's.
                outer = self.scratch.get(getattr(act, "grid", None))
                if outer is None or spec.lead[:len(outer.lead)] != outer.lead:
                    continue
            sname = f"{name}#{i}"
            self.scratch[sname] = Scratch(
                sname, lanes, (), spec.dtype, target=("local", name),
                active=None if act is None else act.grid, in_nest=True)
            self.inner.setdefault(i, {})[name] = sname

    def nests(self) -> tuple[Nest, ...]:
        out = []
        for i, raw in enumerate(self.sp.raw):
            inner = self.inner.get(i, {})
            refs = tuple(IndexVar(r.var) for r in raw.ranges)

            def f(n: Expr, inner=inner, refs=refs) -> Expr:
                if isinstance(n, GridRef):
                    if n.grid in inner:
                        return GridRef(inner[n.grid], refs)
                    if n.grid in self.rename:
                        return self.rename[n.grid](n)
                return n
            step = Step(raw.name, ranges=list(raw.ranges),
                        condition=(None if raw.condition is None
                                   else map_expr(raw.condition, f)),
                        stmts=_map_stmts(raw.stmts, f))
            out.append(Nest(step, tuple(self.keep.get(i, ())),
                            tuple(inner.values())))
        return tuple(out)


def split_step(step: Step, program: GlafProgram | None = None,
               fn: GlafFunction | None = None, *,
               save_inner_arrays: bool = False) -> Split:
    """Rewrite ``step`` into split nests; raises :class:`Unliftable`.

    Without ``program`` (and ``fn``, the function holding ``step``) no
    call inlines, but a scalar temporary still expands.
    """
    if step.called_functions():
        if program is None or fn is None:
            raise Unliftable("calls need the program to inline")
    sp = _Splitter(program, fn, step, save_inner_arrays)
    sp.split()
    ex = _Expander(sp)
    ex.run()
    return Split(nests=ex.nests(), scratch=tuple(ex.scratch.values()),
                 notes=tuple(sp.notes), inlined=tuple(sp.inlined),
                 expanded=tuple(ex.expanded), depth=sp.depth)
