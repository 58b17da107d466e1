"""Lift FORTRAN DO nests onto the shared array engine.

The runtime compiles each DO statement to a scalar closure that runs one
iteration at a time (:meth:`repro.fortranlib.interp._UnitCompiler._do`).
Before that, :func:`lower_nest` tries to *lower* the statement: a perfect
DO nest whose innermost body holds only assignments and IF blocks becomes
the GLAF IR step form (:class:`~repro.core.step.Step`), is checked with
the same :func:`~repro.glafexec.vectorize.compile_step` the GLAF IR
executor uses, and is compiled once by
:func:`~repro.glafexec.vectorize.compile_lifted`.  :func:`lifted_do`
then wraps the program with this runtime's guards; the scalar closure
stays as the fallback.

Lowering rules:

* the nest's DO variables become index variables; every other name
  becomes a grid reference, resolved to its frame slot or, for
  ``base%field``, to the TYPE component;
* literals keep the runtime's NumPy scalar types (``np.int64``,
  ``np.float64``, ``np.bool_``), so promotion is the scalar path's;
* an intrinsic lowers only through the library-function registry, and
  only where the name resolves to no variable, special form or
  subprogram first (the scalar path's order);
* ``/`` lowers only when an operand is provably REAL: the runtime divides
  integers exactly, the engine does not above 2**53;
* the engine's per-iteration scalar temporaries and indirect
  accumulators (``acc(idx(i)) = acc(idx(i)) + t``) do not lower: a nest
  that needs either stays on its scalar closure.

Contract: a lifted nest leaves every array, scalar, DO variable,
``omp_log`` entry and ``allocation_count`` byte-identical to the scalar
closure, and raises the same error and the same ``RuntimeWarning``.  The
nest runs on the scalar closure, before touching any state, when numeric
sentinels are on; when a store is unallocated or has the wrong rank, a
written one is a PARAMETER, or a DO variable is not an INTEGER scalar;
when a range has zero trips or a zero step; when a subscript or range
falls outside its array; and when storage bound to a dummy argument may
share memory with other storage the nest touches.  A lift that fails
partway (a floating-point condition under ``np.errstate(all="raise")``,
an integer zero divisor or overflow, a failed cast) restores the regions
it wrote, in time proportional to the regions, and runs the scalar
closure.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from .. import runconfig as _rc
from ..core.expr import BinOp, Const, Expr, GridRef, IndexVar, LibCall, UnOp
from ..core.libfuncs import REGISTRY
from ..core.step import Assign, IfStmt, Range, Step, Stmt
from ..errors import ValidationError
from ..glafexec.vectorize import (
    LiftedSweep,
    LiftFailure,
    compile_lifted,
    compile_step,
)
from ..observe import get_decisions, get_metrics
from .ast import (
    FAssign,
    FBin,
    FCommon,
    FContinue,
    FDo,
    FExpr,
    FFieldRef,
    FIf,
    FIndexed,
    FLogical,
    FNum,
    FOmpDirective,
    FUn,
    FVar,
)
from .interp import DerivedValue, OmpEvent, _UnitCompiler
from .intrinsics import INTRINSICS, SPECIAL_FORMS

__all__ = ["lower_nest", "lifted_do", "note_rejected"]

_OPS = {"+": "+", "-": "-", "*": "*", "**": "**", "==": "==", "/=": "!=",
        "<": "<", "<=": "<=", ">": ">", ">=": ">=", "and": "and",
        "or": "or"}
#: Library functions whose value is REAL whatever their arguments.
_REAL_FUNCS = frozenset((
    "SQRT", "EXP", "LOG", "ALOG", "ALOG10", "LOG10", "SIN", "COS", "TAN",
    "ASIN", "ACOS", "ATAN", "ATAN2", "SINH", "COSH", "TANH", "REAL", "DBLE",
    "FLOOR", "CEILING", "SIGN"))
#: ...and those whose value is REAL when any argument is.
_PROMOTING_FUNCS = frozenset(("ABS", "MIN", "MAX", "MOD"))


class _NoLower(Exception):
    """Why a DO statement stays on its scalar closure."""


class Nest(NamedTuple):
    """A lowered DO nest: its compiled program and what the guards need.

    ``getters`` resolves ``program.names`` in order: per name the frame
    slot, the TYPE component (or ``None``), the expected rank, whether
    the nest writes it, and the name.  ``dovars`` holds the DO
    variables' slots, outer first; ``pairs`` the index pairs of
    ``labels`` (the names, then the DO variables) that may alias through
    a dummy argument.
    """

    program: Any
    getters: tuple
    dovars: tuple
    pairs: tuple
    labels: tuple


class _Lowering:
    def __init__(self, uc: _UnitCompiler, do: FDo) -> None:
        self.uc = uc
        self.do = do
        self.vars: list[str] = []
        self.grids: dict[str, tuple[int, str | None, str]] = {}

    # -- the nest ----------------------------------------------------------
    def lower(self) -> Nest:
        uc, loops, node = self.uc, [], self.do
        while True:
            if node is not self.do and node.omp is not None:
                raise _NoLower("OpenMP directive on an inner DO")
            if node.var not in uc.visible:
                raise _NoLower(f"DO variable {node.var!r} is not a local "
                               "variable")
            loops.append(node)
            body = [s for s in node.body if not _inert(s)]
            if len(body) == 1 and isinstance(body[0], FDo):
                node = body[0]
                continue
            break
        self.vars = [lp.var for lp in loops]
        ranges = [Range(lp.var, self.expr(lp.start), self.expr(lp.end),
                        self.expr(lp.step) if lp.step is not None
                        else Const(np.int64(1)))
                  for lp in loops]
        stmts = self.block(body)
        try:
            step = Step(f"DO {self.do.var}", ranges=ranges, stmts=stmts)
        except ValidationError as e:
            raise _NoLower(str(e)) from None
        lifted = compile_step(step)
        if isinstance(lifted, LiftFailure):
            raise _NoLower(lifted.reason)
        if isinstance(lifted, LiftedSweep):
            raise _NoLower(
                "scalar temporary "
                + ", ".join(repr(g) for g in lifted.split.expanded)
                + " needs a copy per iteration")
        for a in lifted.assigns:
            if a.kind == "scatter":
                raise _NoLower(f"indirect accumulator {a.target.grid!r}")
        program = compile_lifted(lifted, strict=True)
        written = set(program.written)
        getters, bases = [], []
        for name in program.names:
            rank = program.dims[name]
            if rank < 0:
                raise _NoLower(f"{name!r} used with two different ranks")
            i, fld, base = self.grids[name]
            getters.append((i, fld, rank, name in written, name))
            bases.append(base)
        dovars = tuple(uc.index[v] for v in self.vars)
        bases += self.vars
        changed = [name in written for name in program.names]
        changed += [True] * len(dovars)
        # Only storage bound to a dummy argument can alias, and a fresh
        # local aliases nothing.
        params = set(uc.sub.params)
        commons = {v for d in uc.sub.decls if isinstance(d, FCommon)
                   for v in d.names}

        def fresh(b: str) -> bool:
            attrs = uc.decls[b][0].attrs if b in uc.decls else ()
            return (b in uc.visible and b not in params and b not in commons
                    and "save" not in attrs and "pointer" not in attrs)
        labels = list(program.names) + self.vars
        pairs = tuple((a, b) for a in range(len(labels))
                      for b in range(a + 1, len(labels))
                      if not (fresh(bases[a]) or fresh(bases[b]))
                      and (bases[a] in params or bases[b] in params)
                      and (changed[a] or changed[b]))
        return Nest(program, tuple(getters), dovars, pairs, tuple(labels))

    # -- statements ----------------------------------------------------------
    def block(self, stmts: list) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            if _inert(s):
                continue
            if isinstance(s, FAssign):
                out.append(Assign(self.target(s.target), self.expr(s.value)))
            elif isinstance(s, FIf):
                out.extend(self.if_(s.branches))
            elif isinstance(s, FDo):
                raise _NoLower("DO loop beside other statements (not a "
                               "perfect nest)")
            else:
                raise _NoLower(f"{type(s).__name__[1:].upper()} statement "
                               "in the loop body")
        return out

    def if_(self, branches: list) -> list[Stmt]:
        cond, body = branches[0]
        then = self.block(body)
        if cond is None:
            return then
        orelse = self.if_(branches[1:]) if len(branches) > 1 else []
        return [IfStmt(self.expr(cond), tuple(then), tuple(orelse))]

    def target(self, t: FExpr) -> GridRef:
        if isinstance(t, FVar) and t.name in self.vars:
            raise _NoLower(f"assignment to the DO variable {t.name!r}")
        if isinstance(t, FIndexed):
            return GridRef(self.grid(t.base),
                           tuple(self.expr(a) for a in t.args))
        return GridRef(self.grid(t))

    def grid(self, e: FExpr) -> str:
        """The grid name of a variable or ``base%field`` designator."""
        if isinstance(e, FVar):
            i = self.uc._slot_index(e.name)
            if i is None:
                raise _NoLower(f"unknown name {e.name!r}")
            self.grids.setdefault(e.name, (i, None, e.name))
            return e.name
        if isinstance(e, FFieldRef) and isinstance(e.base, FVar):
            base = e.base.name
            i = self.uc._slot_index(base)
            if i is None:
                raise _NoLower(f"unknown name {base!r}")
            name = f"{base}%{e.field}"
            self.grids.setdefault(name, (i, e.field, base))
            return name
        raise _NoLower(f"unsupported designator {type(e).__name__}")

    # -- expressions ---------------------------------------------------------
    def expr(self, e: FExpr) -> Expr:
        if isinstance(e, (FNum, FLogical)):
            value = self.uc._const(e)
            if not isinstance(value, (np.number, np.bool_)):
                raise _NoLower("literal out of range")
            return Const(value)
        if isinstance(e, FVar):
            if e.name in self.vars:
                return IndexVar(e.name)
            return GridRef(self.grid(e))
        if isinstance(e, FFieldRef):
            return GridRef(self.grid(e))
        if isinstance(e, FIndexed):
            return self.indexed(e)
        if isinstance(e, FUn):
            if e.op == "neg":
                return UnOp("neg", self.expr(e.operand))
            if e.op == "not":
                return UnOp("not", self.expr(e.operand))
            return self.expr(e.operand)
        if isinstance(e, FBin):
            op = _OPS.get(e.op)
            if op is None and e.op == "/":
                if not (self.real(e.left) or self.real(e.right)):
                    raise _NoLower("integer division")
                op = "/"
            if op is None:
                raise _NoLower(f"operator {e.op!r}")
            return BinOp(op, self.expr(e.left), self.expr(e.right))
        raise _NoLower(f"{type(e).__name__} expression")

    def indexed(self, e: FIndexed) -> Expr:
        # The scalar path's order: variable, special form, subprogram,
        # intrinsic.
        args = e.args
        if isinstance(e.base, FVar):
            name = e.base.name
            if self.uc._slot_index(name) is None:
                if name in SPECIAL_FORMS:
                    raise _NoLower(f"{name.upper()} in the loop body")
                if self.uc._callee(name) is not None:
                    raise _NoLower(f"call to function {name!r}")
                lf = REGISTRY.get(name.upper())
                if lf is None or INTRINSICS.get(name) is not lf.impl:
                    raise _NoLower(f"intrinsic {name.upper()} is not a "
                                   "library function")
                try:
                    lf.check_arity(len(args))
                except Exception as exc:
                    raise _NoLower(str(exc)) from None
                return LibCall(lf.name, tuple(self.expr(a) for a in args))
        return GridRef(self.grid(e.base), tuple(self.expr(a) for a in args))

    def real(self, e: FExpr) -> bool:
        """Is ``e`` provably REAL (so ``/`` on it is real division)?"""
        if isinstance(e, FNum):
            return isinstance(e.value, float)
        if isinstance(e, FUn):
            return e.op != "not" and self.real(e.operand)
        if isinstance(e, FBin):
            return e.op in ("+", "-", "*", "/", "**") and (
                self.real(e.left) or self.real(e.right))
        name = None
        if isinstance(e, FVar):
            name = e.name
        elif isinstance(e, FIndexed) and isinstance(e.base, FVar):
            name = e.base.name
        if name is None or name in self.vars:
            return False
        if self.uc._slot_index(name) is not None:
            spec = self.uc._spec_of(name)
            return spec is not None and spec.base == "real"
        if isinstance(e, FIndexed) and self.uc._callee(name) is None:
            fn = name.upper()
            if fn in _REAL_FUNCS:
                return True
            if fn in _PROMOTING_FUNCS:
                return any(self.real(a) for a in e.args)
        return False


def _inert(s: Any) -> bool:
    """Statements with no run-time effect: CONTINUE, OpenMP END markers."""
    return isinstance(s, FContinue) or (
        isinstance(s, FOmpDirective) and s.kind.startswith("end"))


def lower_nest(uc: _UnitCompiler, do: FDo) -> Nest | str:
    """The lowered nest of ``do``, or why it stays scalar."""
    try:
        return _Lowering(uc, do).lower()
    except _NoLower as e:
        return str(e)


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

def _note(unit: str, do: FDo, reason: str) -> None:
    dl = get_decisions()
    if dl.enabled:
        dl.record("executor:fallback", unit, do.line, f"DO {do.var}",
                  "scalar", reasons=(reason,))


def _count(name: str) -> None:
    m = get_metrics()
    if m.enabled:
        m.counter(name).inc()


def note_rejected(unit: str, do: FDo, reason: str) -> None:
    """A nest that does not lower: one fallback, one decision."""
    _count("exec.fortran.fallbacks")
    _note(unit, do, reason)


# ---------------------------------------------------------------------------
# the guarded run
# ---------------------------------------------------------------------------

def lifted_do(nest: Nest, scalar: Callable, omp: FOmpDirective | None,
              unit: str, do: FDo) -> Callable:
    """The DO statement's closure: the lifted program behind the guards,
    the scalar closure when they refuse or the lift fails."""
    program, getters, dovars, pairs, labels = nest
    bounds, run, arith, fixed = (program.bounds, program.run, program.arith,
                                 program.fixed)
    ndarray = np.ndarray
    noted = False

    def refuse(f, reason: str) -> None:
        nonlocal noted
        _count("exec.fortran.fallbacks")
        if not noted:
            noted = True
            _note(unit, do, reason)
        scalar(f)

    def lifted(f) -> None:
        if _rc._active.sentinels is not None:
            return refuse(f, "numeric sentinels are on")
        slots = f.slots
        S = []
        for i, fld, rank, written, name in getters:
            slot = slots[i]
            store = slot.store
            if fld is not None:
                store = (store.fields.get(fld)
                         if type(store) is DerivedValue else None)
            if type(store) is not ndarray or store.ndim != rank:
                return refuse(f, f"{name!r} is unallocated or of another "
                              "rank")
            if written and slot.parameter:
                return refuse(f, f"{name!r} is a PARAMETER")
            S.append(store)
        D = []
        for i in dovars:
            store = slots[i].store
            if (type(store) is not ndarray or store.ndim
                    or store.dtype.kind != "i"):
                return refuse(f, "a DO variable is not an INTEGER scalar")
            D.append(store)
        if pairs:
            X = S + D
            for a, b in pairs:
                if np.may_share_memory(X[a], X[b]):
                    return refuse(f, f"{labels[a]!r} and {labels[b]!r} may "
                                  "share memory through a dummy argument")
        if fixed is None:
            try:
                # A condition raised here, not warned, so the scalar
                # closure warns once when it evaluates the bounds itself.
                with np.errstate(all="raise"):
                    ranges = bounds(S)
            except Exception as e:
                return refuse(f, f"loop bounds: {e}")
        else:
            ranges = fixed
        for _, _, count in ranges:
            if not count:
                return refuse(f, "a range has zero trips or a zero step")
        undo: list = []
        try:
            if arith:
                with np.errstate(all="raise"):
                    run(S, ranges, None, undo)
            else:
                run(S, ranges, None, undo)
        except Exception as e:
            # Whatever stopped the lift (a floating-point condition, a zero
            # divisor, an overflow, a cast, a bad gather), the scalar
            # closure decides the outcome from the state before the nest.
            for region, saved in reversed(undo):
                region[...] = saved
            return refuse(f, f"runtime lift failure: {e}")
        for store, (start, stride, count) in zip(D, ranges):
            store[()] = start + count * stride
        if omp is not None:
            f.rt.omp_log.append(OmpEvent(
                kind="parallel_do", unit=unit, line=do.line,
                collapse=omp.collapse, reductions=omp.reductions,
                private=omp.private, iterations=ranges[0][2]))
        _count("exec.fortran.lifted")
    return lifted
