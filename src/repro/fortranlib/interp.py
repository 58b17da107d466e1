"""Compiled runtime for the FORTRAN subset.

This is the reproduction's stand-in for compiling with gfortran/ifort and
running natively: generated GLAF FORTRAN and the hand-written "legacy"
sources both execute here, so the paper's side-by-side functional
comparisons (§4.1.1, §4.2.1) can be run for real.

Execution model:

* A program unit compiles on its first call.  Its declarations become a
  frame layout (one slot index per local name, plus one per module
  variable the unit touches) and its body becomes nested Python closures.
  Local-vs-module names, callees, intrinsics, constants and operators are
  resolved at compile time, in the search order the scoping notes below
  describe.  Compiled units are shared per process, by load sequence:
  runtimes that loaded the same texts in the same order (and registered
  the same CONTAINS'd units) share each unit's compiled form, every
  lifted DO nest in it included, once the unit comes back
  (:mod:`repro.recurring`).  The compiled form holds no runtime object: a
  module variable is a ``(module, name)`` entry of the frame layout, which
  each runtime resolves to its own ``Slot`` once per unit, and a callee or
  a TYPE's host module is named, not held.  A runtime binds units by
  ``(host module, name)`` too, never by tree node, so a unit compiled
  from another runtime's tree binds each callee once.  A runtime's first
  use of a unit replays the decisions its compile recorded, so what an
  observed run records does not depend on what the process ran before.
  :meth:`FortranRuntime.load` discards the runtime's units, and so does
  :meth:`FortranRuntime.run_program` when it registers a new CONTAINS'd
  unit: both change the load sequence.  Under a fault plan no unit is
  shared.
* Compilation never raises.  A name that does not resolve compiles to a
  closure that raises the same typed :class:`FortranRuntimeError` only if
  it runs, so an unexecuted branch may name anything.  Every run-time
  check (bounds and rank, ALLOCATE state, PARAMETER writes, call depth,
  argument count and dtype, DO step zero) happens on execution.
* Closures take the activation frame and reach the runtime through it;
  they never hold a runtime, a ``Slot`` or their compiled unit, so a
  runtime owns no reference cycles and is freed as soon as it is dropped.

Semantics notes:

* Scalars are stored as 0-d NumPy arrays; arrays are NumPy arrays with
  1-based index adjustment at access time.  Kind 4/8 map to
  float32/float64 and int64 (FORTRAN default integers are modelled as
  int64 throughout, which only widens).  Integer ``/`` truncates toward
  zero in exact integer arithmetic; dividing by zero raises.
* Arguments pass by reference whenever the actual argument is a variable,
  array, array element or derived-type component; other expressions pass as
  anonymous temporaries, matching FORTRAN's evaluation of expressions into
  temporaries.
* A name resolves to the unit's own declarations first, then to its host
  module's variables, then to the modules it (or its host) USEs, honouring
  ONLY lists and one level of re-export.  A callee resolves to the host
  module, then the USEd modules, then any loaded module, then bare units.
* COMMON blocks are runtime-global, name-associated storage: every unit
  declaring ``COMMON /blk/ a, b`` sees the same cells (§3.2).  Only kind
  consistency across units is checked, not shape.
* SAVE (and ``ALLOCATABLE, SAVE``) locals persist across calls — the FUN3D
  no-reallocation behaviour (§4.2.1).
* ``!$OMP`` sentinels do not change results (execution is sequential) but
  every region entry is logged in :attr:`FortranRuntime.omp_log` so tests
  can verify which loops executed under which directives, and allocation
  events are counted for the performance model's calibration.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from .. import runconfig as _rc
from ..errors import FortranRuntimeError
from ..numeric import sentinel as _sentinel
from ..recurring import RecurringCache, digest
from .ast import (
    FAllocate,
    FAssign,
    FBin,
    FCall,
    FCommon,
    FContinue,
    FCycle,
    FDeallocate,
    FDecl,
    FDeclEntity,
    FDo,
    FDoWhile,
    FExit,
    FExpr,
    FFieldRef,
    FIf,
    FImplicitNone,
    FIndexed,
    FLogical,
    FModule,
    FNum,
    FOmpDirective,
    FPrint,
    FProgramUnit,
    FReturn,
    FStmt,
    FStop,
    FString,
    FSubprogram,
    FTypeDef,
    FTypeSpec,
    FUn,
    FUse,
    FVar,
)
from .intrinsics import INTRINSICS, SPECIAL_FORMS
from .parser import parse_source

__all__ = ["FortranRuntime", "Slot", "DerivedValue", "OmpEvent", "StopSignal"]


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------

_DTYPES = {
    ("integer", 4): np.dtype(np.int64),
    ("integer", 8): np.dtype(np.int64),
    ("real", 4): np.dtype(np.float32),
    ("real", 8): np.dtype(np.float64),
    ("logical", 4): np.dtype(np.bool_),
    ("logical", 8): np.dtype(np.bool_),
}


def _dtype_of(spec: FTypeSpec) -> np.dtype:
    if spec.base == "character":
        return np.dtype("U256")
    try:
        return _DTYPES[(spec.base, spec.kind)]
    except KeyError:
        raise FortranRuntimeError(f"unsupported type {spec.base}*{spec.kind}") from None


@dataclass
class DerivedValue:
    """An instance of a derived TYPE: named fields holding storage."""

    type_name: str
    fields: dict[str, Any]


@dataclass
class Slot:
    """One variable's storage cell."""

    name: str
    spec: FTypeSpec
    dims: tuple[FExpr, ...] = ()
    deferred_rank: int = 0
    allocatable: bool = False
    save: bool = False
    parameter: bool = False
    intent: str | None = None
    store: Any = None            # ndarray | DerivedValue | None (unallocated)
    shape: tuple | None = None   # a fixed module variable's shape at load

    @property
    def is_array(self) -> bool:
        return bool(self.dims) or self.deferred_rank > 0

    @property
    def allocated(self) -> bool:
        return self.store is not None


@dataclass
class OmpEvent:
    kind: str                    # 'parallel_do' | 'atomic' | 'critical'
    unit: str
    line: int
    collapse: int = 1
    reductions: tuple = ()
    private: tuple = ()
    iterations: int = 0


class StopSignal(Exception):
    def __init__(self, message: str | None):
        self.message = message
        super().__init__(message or "STOP")


class _Return(Exception):
    pass


class _Exit(Exception):
    pass


class _Cycle(Exception):
    pass


@dataclass
class ModuleEnv:
    name: str
    variables: dict[str, Slot] = field(default_factory=dict)
    typedefs: dict[str, list[FDecl]] = field(default_factory=dict)
    subprograms: dict[str, FSubprogram] = field(default_factory=dict)
    uses: list[FUse] = field(default_factory=list)


class _Frame:
    """One activation: the runtime and the unit's slots, by layout index."""

    __slots__ = ("rt", "slots")

    def __init__(self, rt: "FortranRuntime", slots: list) -> None:
        self.rt = rt
        self.slots = slots


class _Unit:
    """A compiled program unit, shared by the runtimes of one load
    sequence: ``layout`` holds ``None`` per local and ``(module, name)``
    per module variable, ``notes`` the decisions its compile recorded."""

    __slots__ = ("name", "nparams", "layout", "bind", "body", "result",
                 "notes")


#: Compiled units by ``(load sequence, host module, name, is a PROGRAM)``.
_UNITS = RecurringCache(256)


# ---------------------------------------------------------------------------
# run-time helpers shared by the compiled closures
# ---------------------------------------------------------------------------

_ndarray = np.ndarray
_bool_ = np.bool_
_TRUE = np.bool_(True)
_FALSE = np.bool_(False)
_NOCONST = object()      # "not a compile-time constant"


def _int_like(v: Any) -> bool:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return False
    if isinstance(v, (int, np.integer)):
        return True
    return isinstance(v, np.ndarray) and v.ndim == 0 and np.issubdtype(v.dtype, np.integer)


def _div(lv: Any, rv: Any) -> Any:
    """FORTRAN ``/``: exact integer division truncating toward zero."""
    if _int_like(lv) and _int_like(rv):
        a, b = int(lv), int(rv)
        if b == 0:
            raise FortranRuntimeError("integer division by zero")
        q = abs(a) // abs(b)
        try:
            return np.int64(q if (a < 0) == (b < 0) else -q)
        except OverflowError:
            raise FortranRuntimeError("integer overflow") from None
    return lv / rv


def _logical(compare: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def op(lv: Any, rv: Any) -> Any:
        v = compare(lv, rv)
        return v if type(v) is _bool_ else _bool_(v)
    return op


# The operator table of compiled expressions and of module-scope constant
# folding.  ``.AND.``/``.OR.`` short-circuit, so they compile separately.
_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "**": operator.pow,
    "==": _logical(operator.eq),
    "/=": _logical(operator.ne),
    "<": _logical(operator.lt),
    "<=": _logical(operator.le),
    ">": _logical(operator.gt),
    ">=": _logical(operator.ge),
}


def _negate(v: Any) -> Any:
    return -v


def _not(v: Any) -> Any:
    return _FALSE if v else _TRUE


def _identity(v: Any) -> Any:
    return v


_UNOPS: dict[str, Callable[[Any], Any]] = {"neg": _negate, "not": _not}


def _as_int(v: Any) -> int:
    if isinstance(v, np.ndarray):
        if v.ndim != 0:
            raise FortranRuntimeError("array used where a scalar is required")
        v = v[()]
    return int(v)


def _value(store: Any, alloc_msg: str) -> Any:
    """A variable's value: scalars by value, arrays and TYPEs as storage."""
    if store is None:
        raise FortranRuntimeError(alloc_msg)
    if isinstance(store, np.ndarray) and store.ndim == 0:
        return store[()]
    return store


def _check_bounds(store: Any, idx: tuple) -> None:
    if not isinstance(store, np.ndarray):
        raise FortranRuntimeError("indexing a non-array")
    if len(idx) != store.ndim:
        raise FortranRuntimeError(
            f"rank mismatch: {len(idx)} subscript(s) for rank-{store.ndim} array"
        )
    for k, (i, n) in enumerate(zip(idx, store.shape)):
        if not (0 <= i < n):
            raise FortranRuntimeError(
                f"subscript {i + 1} out of bounds for dimension {k + 1} (extent {n})"
            )


def _index_slow(f: _Frame, store: Any, subs: tuple, alloc_msg: str,
                name: str) -> Any:
    """Element read off the fast paths: unallocated, non-array, odd rank."""
    if store is None:
        raise FortranRuntimeError(alloc_msg)
    if isinstance(store, np.ndarray):
        idx = tuple(s(f) for s in subs)
        _check_bounds(store, idx)
        return store[idx]
    raise FortranRuntimeError(f"{name!r} is not indexable")


def _as_cell(value: Any) -> Any:
    """Pass an expression value as an anonymous temporary."""
    if isinstance(value, np.ndarray):
        return value
    cell = np.zeros((), dtype=np.asarray(value).dtype if not isinstance(value, bool) else np.bool_)
    cell[()] = value
    return cell


def _to_python(v: Any) -> Any:
    if isinstance(v, np.generic):
        return v.item()
    return v


def _coerce_argument(pname: str, slot: Slot, actual: Any) -> Any:
    if isinstance(actual, DerivedValue):
        return actual
    if isinstance(actual, np.ndarray):
        if slot.spec.base != "type":
            want = _dtype_of(slot.spec)
            if actual.ndim > 0 and actual.dtype != want:
                raise FortranRuntimeError(
                    f"argument {pname!r}: dtype {actual.dtype} != {want}"
                )
        return actual
    if isinstance(actual, (int, float, bool, np.generic)):
        dtype = _dtype_of(slot.spec)
        cell = np.zeros((), dtype=dtype)
        cell[()] = actual
        return cell
    raise FortranRuntimeError(f"argument {pname!r}: unsupported value {type(actual)}")


def _check_common_compat(block: str, existing: Slot,
                         spec: tuple[FDecl, FDeclEntity] | None) -> None:
    if spec is None:
        return
    d, _ = spec
    if _dtype_of(d.spec) != _dtype_of(existing.spec):
        raise FortranRuntimeError(
            f"COMMON /{block}/ {existing.name}: kind mismatch across units"
        )


def _slot_kwargs(name: str, d: FDecl, ent: FDeclEntity) -> dict[str, Any]:
    return dict(
        name=name,
        spec=d.spec,
        dims=ent.dims if not ent.deferred_rank else (),
        deferred_rank=ent.deferred_rank,
        allocatable="allocatable" in d.attrs or "pointer" in d.attrs,
        save="save" in d.attrs,
        parameter="parameter" in d.attrs,
        intent=d.intent,
    )


def _raiser(message: str) -> Callable[..., Any]:
    """A closure that raises ``message`` when (and only if) it runs."""
    def fail(*_: Any) -> Any:
        raise FortranRuntimeError(message)
    return fail


def _noop(*_: Any) -> None:
    return None


def _target_name(target: FExpr) -> str:
    if isinstance(target, FVar):
        return target.name
    if isinstance(target, FIndexed):
        return _target_name(target.base)
    if isinstance(target, FFieldRef):
        return f"{_target_name(target.base)}%{target.field}"
    return ""


# ---------------------------------------------------------------------------
# the unit compiler
# ---------------------------------------------------------------------------

class _UnitCompiler:
    """Turns one program unit into a :class:`_Unit`.

    The compiler reads the runtime's name tables, never the runtime
    itself or any storage, and no closure it builds refers back to the
    compiler: every closure captures only slot indices, names, AST nodes,
    constants and other closures.  The decisions a compile takes are
    ``notes``, replayed by each runtime that binds the unit.
    """

    def __init__(self, modules: dict[str, ModuleEnv],
                 bare: dict[str, FSubprogram], sub: FSubprogram,
                 env: ModuleEnv | None) -> None:
        self.modules = modules
        self.bare = bare
        self.sub = sub
        self.env = env
        self.name = sub.name
        self.unit_uses = [d for d in sub.decls if isinstance(d, FUse)]
        self.uses = self.unit_uses + (env.uses if env is not None else [])
        self.layout: list[Any] = []          # None per local, (module, name)
        self.index: dict[str, int] = {}      # local name -> layout index
        self.visible: set[str] = set()       # locals bound at this point
        self.nonlocal_index: dict[tuple, int] = {}  # (module, name) -> index
        self.decls: dict[str, tuple[FDecl, FDeclEntity]] = {}
        self.lift = True                     # try to lift DO nests
        self.notes: list[Callable[[], None]] = []   # decisions, in order

    # -- name resolution -------------------------------------------------
    def _nonlocal(self, name: str) -> tuple[str, Slot] | None:
        """The module variable ``name`` names: its module's name and its
        ``Slot``, whose declaration (never its storage) compiling reads."""
        env = self.env
        if env is not None and name in env.variables:
            return env.name, env.variables[name]
        for u in self.uses:
            m = self.modules.get(u.module)
            if m is None:
                continue
            if u.only is not None and name not in u.only:
                continue
            if name in m.variables:
                return m.name, m.variables[name]
            # one level of re-export
            for u2 in m.uses:
                m2 = self.modules.get(u2.module)
                if m2 and name in m2.variables:
                    return m2.name, m2.variables[name]
        return None

    def _slot_index(self, name: str) -> int | None:
        if name in self.visible:
            return self.index[name]
        found = self._nonlocal(name)
        return None if found is None else self._layout_index(found[0], name)

    def _layout_index(self, module: str, name: str) -> int:
        """The layout index of a module variable (added once)."""
        key = (module, name)
        k = self.nonlocal_index.get(key)
        if k is None:
            k = self.nonlocal_index[key] = len(self.layout)
            self.layout.append(key)
        return k

    def _callee(self, name: str) -> tuple[FSubprogram, ModuleEnv | None] | None:
        env = self.env
        if env is not None and name in env.subprograms:
            return env.subprograms[name], env
        for u in self.uses:
            m = self.modules.get(u.module)
            if m and (u.only is None or name in u.only) and name in m.subprograms:
                return m.subprograms[name], m
        for m in self.modules.values():
            if name in m.subprograms:
                return m.subprograms[name], m
        if name in self.bare:
            return self.bare[name], None
        return None

    def _spec_of(self, name: str) -> FTypeSpec | None:
        """The declared type of a variable, if the unit can name it."""
        if name in self.visible:
            spec = self.decls.get(name)
            return spec[0].spec if spec is not None else None
        found = self._nonlocal(name)
        return found[1].spec if found is not None else None

    def _local(self, name: str) -> int:
        """Give a local name its layout index (once) and make it visible."""
        k = self.index.get(name)
        if k is None:
            k = self.index[name] = len(self.layout)
            self.layout.append(None)
        self.visible.add(name)
        return k

    # -- the unit ----------------------------------------------------------
    def compile(self) -> _Unit:
        sub = self.sub
        decl_by_name: dict[str, tuple[FDecl, FDeclEntity]] = {}
        commons: list[FCommon] = []
        for d in sub.decls:
            if isinstance(d, FCommon):
                commons.append(d)
            elif isinstance(d, FDecl):
                for ent in d.entities:
                    decl_by_name[ent.name] = (d, ent)
        self.decls = decl_by_name

        steps: list[Callable[[_Frame, list], None]] = []
        params = []
        for k, pname in enumerate(sub.params):
            params.append((k, self._local(pname), pname,
                           self._factory(pname, decl_by_name.get(pname))))
        if params:
            steps.append(self._bind_params(tuple(params)))
        if sub.kind == "function" and sub.result:
            spec = decl_by_name.get(sub.result)
            steps.append(self._bind_local(sub.result, spec, saved=False))
        for c in commons:
            for vname in c.names:
                steps.append(self._bind_common(c.block, vname, decl_by_name.get(vname)))
        for vname, spec in decl_by_name.items():
            if vname not in self.visible:
                steps.append(self._bind_local(vname, spec))
        body = self._block(sub.body)

        unit = _Unit()
        unit.name = sub.name
        unit.nparams = len(sub.params)
        unit.layout = tuple(self.layout)
        unit.bind = self._sequence(steps)
        unit.body = body
        unit.result = (self.index.get(sub.result)
                       if sub.kind == "function" and sub.result else None)
        unit.notes = tuple(self.notes)
        return unit

    @staticmethod
    def _sequence(steps: list) -> Callable[[_Frame, list], None]:
        steps = tuple(steps)

        def bind(f: _Frame, args: list) -> None:
            for step in steps:
                step(f, args)
        return bind

    # -- declarations -> frame binding steps -------------------------------
    @staticmethod
    def _factory(name: str, spec: tuple[FDecl, FDeclEntity] | None) -> Callable[[], Slot]:
        if spec is None:
            return _raiser(
                f"variable {name!r} has no declaration (IMPLICIT NONE everywhere)"
            )
        return partial(Slot, **_slot_kwargs(name, *spec))

    @staticmethod
    def _bind_params(params: tuple) -> Callable[[_Frame, list], None]:
        def bind(f: _Frame, args: list) -> None:
            slots = f.slots
            for k, i, pname, factory in params:
                slot = factory()
                slot.store = _coerce_argument(pname, slot, args[k])
                slots[i] = slot
        return bind

    def _materializer(self, spec: tuple[FDecl, FDeclEntity] | None) -> Callable[[_Frame, Slot], None]:
        """Storage for a fresh non-allocatable local, compiled against the
        names bound before it."""
        if spec is None:
            return _noop
        d, ent = spec
        if "allocatable" in d.attrs or "pointer" in d.attrs or ent.deferred_rank:
            return _noop
        if d.spec.base == "type":
            type_name, uses = d.spec.type_name, tuple(self.unit_uses)
            host = self.env.name if self.env is not None else None

            def derived(f: _Frame, slot: Slot) -> None:
                rt = f.rt
                slot.store = rt._new_derived(type_name, rt.modules.get(host), uses)
            return derived
        try:
            dtype = _dtype_of(d.spec)
        except FortranRuntimeError as exc:
            return _raiser(str(exc))
        dims = tuple(self._int(x) for x in ent.dims)
        init = self._expr(ent.init) if ent.init is not None else None
        if dims:
            def array(f: _Frame, slot: Slot) -> None:
                store = slot.store = np.zeros(tuple(dim(f) for dim in dims), dtype=dtype)
                f.rt.allocation_count += 1
                if init is not None:
                    store[...] = init(f)
            return array

        def scalar(f: _Frame, slot: Slot) -> None:
            store = slot.store = np.zeros((), dtype=dtype)
            if init is not None:
                store[()] = init(f)
        return scalar

    def _bind_local(self, vname: str, spec: tuple[FDecl, FDeclEntity] | None,
                    saved: bool = True) -> Callable:
        factory = self._factory(vname, spec)
        materialize = self._materializer(spec)
        i = self._local(vname)
        if saved and spec is not None and "save" in spec[0].attrs:
            key = (self.name, vname)

            def bind_saved(f: _Frame, args: list) -> None:
                kept = f.rt._save_store
                slot = kept.get(key)
                if slot is None:
                    slot = factory()
                    materialize(f, slot)
                    kept[key] = slot
                f.slots[i] = slot
            return bind_saved

        def bind(f: _Frame, args: list) -> None:
            slot = factory()
            materialize(f, slot)
            f.slots[i] = slot
        return bind

    def _bind_common(self, block: str, vname: str,
                     spec: tuple[FDecl, FDeclEntity] | None) -> Callable:
        factory = self._factory(vname, spec)
        materialize = self._materializer(spec)
        i = self._local(vname)

        def bind(f: _Frame, args: list) -> None:
            cells = f.rt.commons.setdefault(block, {})
            slot = cells.get(vname)
            if slot is None:
                slot = factory()
                materialize(f, slot)
                cells[vname] = slot
            else:
                _check_common_compat(block, slot, spec)
            f.slots[i] = slot
        return bind

    # -- statements --------------------------------------------------------
    def _block(self, stmts: list[FStmt]) -> Callable[[_Frame], None]:
        fns: list[Callable[[_Frame], Any]] = []
        pending: FOmpDirective | None = None
        for s in stmts:
            if isinstance(s, FOmpDirective):
                if s.kind == "parallel_do":
                    pending = s
                elif s.kind in ("atomic", "critical", "simd"):
                    fns.append(self._omp_event(s))
                # end_* markers need no action.
                continue
            if isinstance(s, FDo):
                omp = pending if pending is not None else s.omp
                pending = None
                fns.append(self._do(s, omp))
            elif not isinstance(s, FContinue):
                fns.append(self._stmt(s))
        if not fns:
            return _noop
        if len(fns) == 1:
            return fns[0]
        fns_t = tuple(fns)

        def run(f: _Frame) -> None:
            for fn in fns_t:
                fn(f)
        return run

    def _omp_event(self, s: FOmpDirective) -> Callable[[_Frame], None]:
        kind, unit, line = s.kind, self.name, s.line
        reductions = s.reductions if kind == "simd" else ()

        def log(f: _Frame) -> None:
            f.rt.omp_log.append(OmpEvent(kind=kind, unit=unit, line=line,
                                         reductions=reductions))
        return log

    def _stmt(self, s: FStmt) -> Callable[[_Frame], Any]:
        if isinstance(s, FAssign):
            return self._assign(s)
        if isinstance(s, FCall):
            callee = self._callee(s.name)
            if callee is None:
                return _raiser(f"no subprogram named {s.name!r}")
            return self._invoke(callee, s.args)
        if isinstance(s, FIf):
            return self._if(s)
        if isinstance(s, FDoWhile):
            return self._do_while(s)
        if isinstance(s, FReturn):
            def ret(f: _Frame) -> None:
                raise _Return()
            return ret
        if isinstance(s, FExit):
            def exit_(f: _Frame) -> None:
                raise _Exit()
            return exit_
        if isinstance(s, FCycle):
            def cycle(f: _Frame) -> None:
                raise _Cycle()
            return cycle
        if isinstance(s, FAllocate):
            return self._allocate(s)
        if isinstance(s, FDeallocate):
            getters = tuple(self._slot_of(item) for item in s.items)

            def deallocate(f: _Frame) -> None:
                for get in getters:
                    get(f).store = None
            return deallocate
        if isinstance(s, FPrint):
            args = tuple(self._expr(a) for a in s.args)

            def print_(f: _Frame) -> None:
                f.rt.output.append(tuple(_to_python(a(f)) for a in args))
            return print_
        if isinstance(s, FStop):
            message = s.message

            def stop(f: _Frame) -> None:
                raise StopSignal(message)
            return stop
        return _raiser(f"cannot execute {type(s).__name__}")

    def _if(self, s: FIf) -> Callable[[_Frame], None]:
        branches = tuple((self._expr(c) if c is not None else None, self._block(body))
                         for c, body in s.branches)

        def if_(f: _Frame) -> None:
            for cond, body in branches:
                if cond is None or cond(f):
                    body(f)
                    return
        return if_

    def _do(self, s: FDo, omp: FOmpDirective | None) -> Callable[[_Frame], None]:
        """A DO statement: its nest lifted onto the array engine
        (:mod:`repro.fortranlib.lower`) when it lowers, with the scalar
        closure as the fallback; inner DO statements of a nest that does
        not lower try on their own."""
        if not self.lift:
            return self._scalar_do(s, omp)
        from .lower import lifted_do, lower_nest, note_rejected

        nest = lower_nest(self, s)
        if isinstance(nest, str):
            self.notes.append(partial(note_rejected, self.name, s, nest))
            return self._scalar_do(s, omp)
        self.lift = False
        try:
            scalar = self._scalar_do(s, omp)
        finally:
            self.lift = True
        return lifted_do(nest, scalar, omp, self.name, s)

    def _scalar_do(self, s: FDo, omp: FOmpDirective | None) -> Callable[[_Frame], None]:
        """A DO statement run one iteration at a time.  On normal
        completion the DO variable holds the value after its last
        increment (the start value for zero trips); after EXIT it keeps
        its current value (Fortran 2018 11.1.7.4)."""
        start, end = self._int(s.start), self._int(s.end)
        step = self._int(s.step) if s.step is not None else None
        i = self.index.get(s.var) if s.var in self.visible else None
        body = self._block(s.body)
        undeclared = f"undeclared DO variable {s.var!r}"
        unit, line = self.name, s.line

        def do(f: _Frame) -> None:
            lo, hi = start(f), end(f)
            inc = step(f) if step is not None else 1
            if inc == 0:
                raise FortranRuntimeError("DO step of zero")
            var = f.slots[i] if i is not None else None
            if var is None or var.store is None:
                raise FortranRuntimeError(undeclared)
            if omp is not None:
                trip = max(0, (hi - lo) // inc + 1) if (hi - lo) * inc >= 0 else 0
                f.rt.omp_log.append(OmpEvent(
                    kind="parallel_do", unit=unit, line=line,
                    collapse=omp.collapse, reductions=omp.reductions,
                    private=omp.private, iterations=trip,
                ))
            store = var.store
            k = lo
            if inc > 0:
                while k <= hi:
                    store[()] = k
                    try:
                        body(f)
                    except _Exit:
                        break
                    except _Cycle:
                        pass
                    k += inc
                else:
                    store[()] = k
            else:
                while k >= hi:
                    store[()] = k
                    try:
                        body(f)
                    except _Exit:
                        break
                    except _Cycle:
                        pass
                    k += inc
                else:
                    store[()] = k
        return do

    def _do_while(self, s: FDoWhile) -> Callable[[_Frame], None]:
        cond, body = self._expr(s.cond), self._block(s.body)

        def do_while(f: _Frame) -> None:
            guard = 0
            while cond(f):
                guard += 1
                if guard > 100_000_000:
                    raise FortranRuntimeError("DO WHILE runaway")
                try:
                    body(f)
                except _Exit:
                    break
                except _Cycle:
                    continue
        return do_while

    def _allocate(self, s: FAllocate) -> Callable[[_Frame], None]:
        items = tuple((self._slot_of(target), tuple(self._int(d) for d in dims))
                      for target, dims in s.items)

        def allocate(f: _Frame) -> None:
            for get, dims in items:
                slot = get(f)
                shape = tuple(dim(f) for dim in dims)
                slot.store = np.zeros(shape, dtype=_dtype_of(slot.spec))
                f.rt.allocation_count += 1
        return allocate

    def _assign(self, s: FAssign) -> Callable[[_Frame], None]:
        target, value = s.target, self._expr(s.value)
        site = f"{self.name}:{s.line}" if s.line else self.name
        grid = _target_name(target)
        if isinstance(target, FVar):
            return self._assign_var(target.name, value, site)
        if isinstance(target, FIndexed):
            if isinstance(target.base, FVar):
                i = self._slot_index(target.base.name)
                if i is None:
                    return self._fail_after(value, f"unknown variable {target.base.name!r}")
                subs = tuple(self._int(a, 1) for a in target.args)
                return self._assign_element(i, target.base.name, subs, value, site, grid)
            get = self._storage(target.base)
            subs = tuple(self._int(a, 1) for a in target.args)

            def assign_indexed(f: _Frame) -> None:
                v = value(f)
                store = get(f)
                idx = tuple(sub(f) for sub in subs)
                _check_bounds(store, idx)
                if _rc._active.sentinels is not None:
                    _sentinel.check_value(v, function=site, grid=grid,
                                          cell=tuple(k + 1 for k in idx))
                store[idx] = v
            return assign_indexed
        if isinstance(target, FFieldRef):
            get, fname = self._storage(target.base), target.field

            def assign_field(f: _Frame) -> None:
                v = value(f)
                base = get(f)
                if not isinstance(base, DerivedValue):
                    raise FortranRuntimeError(f"%{fname} on a non-TYPE value")
                store = base.fields.get(fname)
                if store is None:
                    raise FortranRuntimeError(
                        f"TYPE {base.type_name} has no component {fname!r}"
                    )
                scalar = store.ndim == 0
                if _rc._active.sentinels is not None:
                    _sentinel.check_value(v, function=site, grid=grid,
                                          cell=() if scalar else None)
                if scalar:
                    store[()] = v
                else:
                    store[...] = v
            return assign_field
        return self._fail_after(value, f"bad assignment target {type(target).__name__}")

    @staticmethod
    def _fail_after(value: Callable, message: str) -> Callable[[_Frame], None]:
        """Evaluate the right-hand side, then raise (the evaluation order of
        an assignment whose target does not resolve)."""
        def fail(f: _Frame) -> None:
            value(f)
            raise FortranRuntimeError(message)
        return fail

    def _assign_var(self, name: str, value: Callable, site: str) -> Callable[[_Frame], None]:
        i = self._slot_index(name)
        if i is None:
            return self._fail_after(value, f"assignment to undeclared {name!r}")
        param_msg = f"cannot assign to PARAMETER {name!r}"
        alloc_msg = f"{name!r} used before ALLOCATE"

        def assign(f: _Frame) -> None:
            v = value(f)
            slot = f.slots[i]
            if slot.parameter:
                raise FortranRuntimeError(param_msg)
            store = slot.store
            if store is None:
                raise FortranRuntimeError(alloc_msg)
            if _rc._active.sentinels is not None:
                _sentinel.check_value(v, function=site, grid=name)
            if store.ndim == 0:
                store[()] = v
            else:
                store[...] = v   # whole-array assignment
        return assign

    def _assign_element(self, i: int, name: str, subs: tuple, value: Callable,
                        site: str, grid: str) -> Callable[[_Frame], None]:
        alloc_msg = f"{name!r} used before ALLOCATE"

        def slow(f: _Frame, v: Any, store: Any, idx: tuple | None) -> None:
            if idx is None:
                if store is None:
                    raise FortranRuntimeError(alloc_msg)
                idx = tuple(sub(f) for sub in subs)
            _check_bounds(store, idx)
            if _rc._active.sentinels is not None:
                _sentinel.check_value(v, function=site, grid=grid,
                                      cell=tuple(k + 1 for k in idx))
            store[idx] = v

        if len(subs) == 1:
            s0, = subs

            def assign1(f: _Frame) -> None:
                v = value(f)
                store = f.slots[i].store
                if type(store) is not _ndarray:
                    return slow(f, v, store, None)
                k = s0(f)
                if store.ndim != 1 or not 0 <= k < len(store):
                    return slow(f, v, store, (k,))
                if _rc._active.sentinels is not None:
                    _sentinel.check_value(v, function=site, grid=grid, cell=(k + 1,))
                store[k] = v
            return assign1
        if len(subs) == 2:
            s0, s1 = subs

            def assign2(f: _Frame) -> None:
                v = value(f)
                store = f.slots[i].store
                if type(store) is not _ndarray:
                    return slow(f, v, store, None)
                k0, k1 = s0(f), s1(f)
                if store.ndim != 2:
                    return slow(f, v, store, (k0, k1))
                n0, n1 = store.shape
                if not (0 <= k0 < n0 and 0 <= k1 < n1):
                    return slow(f, v, store, (k0, k1))
                if _rc._active.sentinels is not None:
                    _sentinel.check_value(v, function=site, grid=grid,
                                          cell=(k0 + 1, k1 + 1))
                store[k0, k1] = v
            return assign2

        def assign(f: _Frame) -> None:
            v = value(f)
            store = f.slots[i].store
            slow(f, v, store, None if store is None else tuple(sub(f) for sub in subs))
        return assign

    # -- designators -------------------------------------------------------
    def _slot_of(self, e: FExpr) -> Callable[[_Frame], Slot]:
        """The Slot an ALLOCATE / DEALLOCATE / ALLOCATED names."""
        if isinstance(e, FVar):
            i = self._slot_index(e.name)
            if i is None:
                return _raiser(f"unknown variable {e.name!r}")

            def slot(f: _Frame) -> Slot:
                return f.slots[i]
            return slot
        if isinstance(e, FIndexed):
            return self._slot_of(e.base)
        return _raiser(f"cannot resolve slot for {type(e).__name__}")

    def _storage(self, e: FExpr) -> Callable[[_Frame], Any]:
        """A designator's *storage* (not a copied value)."""
        if isinstance(e, FVar):
            i = self._slot_index(e.name)
            if i is None:
                return _raiser(f"unknown variable {e.name!r}")
            alloc_msg = f"{e.name!r} used before ALLOCATE"

            def var(f: _Frame) -> Any:
                store = f.slots[i].store
                if store is None:
                    raise FortranRuntimeError(alloc_msg)
                return store
            return var
        if isinstance(e, FFieldRef):
            base, fname = self._storage(e.base), e.field

            def component(f: _Frame) -> Any:
                b = base(f)
                if isinstance(b, DerivedValue):
                    store = b.fields.get(fname)
                    if store is None:
                        raise FortranRuntimeError(
                            f"TYPE {b.type_name} has no component {fname!r}"
                        )
                    return store
                raise FortranRuntimeError(f"%{fname} on a non-TYPE value")
            return component
        if isinstance(e, FIndexed):
            # Element of array-of-derived or sub-array: only element access
            # of numeric arrays is supported as storage.
            base = self._storage(e.base)
            subs = tuple(self._int(a, 1) for a in e.args)

            def element(f: _Frame) -> Any:
                b = base(f)
                idx = tuple(sub(f) for sub in subs)
                _check_bounds(b, idx)
                if isinstance(b, np.ndarray):
                    return b[idx]
                raise FortranRuntimeError("unsupported indexed storage")
            return element
        return _raiser(f"not a designator: {type(e).__name__}")

    def _actual(self, e: FExpr) -> Callable[[_Frame], Any]:
        """An actual argument: storage by reference when it is a designator."""
        if isinstance(e, FVar) and self._slot_index(e.name) is not None:
            return self._storage(e)
        if isinstance(e, FFieldRef):
            return self._storage(e)
        if isinstance(e, FIndexed) and (
                isinstance(e.base, FFieldRef)
                or isinstance(e.base, FVar) and self._slot_index(e.base.name) is not None):
            base = self._storage(e.base)
            subs = tuple(self._int(a, 1) for a in e.args)
            rank = len(subs)
            value = self._expr(e)

            def element(f: _Frame) -> Any:
                # Array element by reference (0-d view) if base is an array.
                try:
                    b = base(f)
                except FortranRuntimeError:
                    b = None
                if isinstance(b, np.ndarray) and b.ndim == rank and rank > 0:
                    idx = tuple(sub(f) for sub in subs)
                    _check_bounds(b, idx)
                    view = b[idx[:-1] + (slice(idx[-1], idx[-1] + 1),)]
                    return view.reshape(())
                return _as_cell(value(f))
            return element
        value = self._expr(e)

        def temporary(f: _Frame) -> Any:
            return _as_cell(value(f))
        return temporary

    def _invoke(self, callee: tuple[FSubprogram, ModuleEnv | None],
                argexprs: tuple[FExpr, ...]) -> Callable[[_Frame], Any]:
        sub, env = callee
        key = (env.name if env is not None else None, sub.name, False)
        actuals = tuple(self._actual(a) for a in argexprs)

        def invoke(f: _Frame) -> Any:
            return f.rt._invoke(key, [a(f) for a in actuals])
        return invoke

    # -- expressions -------------------------------------------------------
    def _const(self, e: FExpr) -> Any:
        """The value of a literal, else :data:`_NOCONST`.  Never raises."""
        if isinstance(e, FNum):
            try:
                return np.int64(e.value) if isinstance(e.value, int) else np.float64(e.value)
            except (OverflowError, TypeError, ValueError):
                return _NOCONST
        if isinstance(e, FString):
            return e.value
        if isinstance(e, FLogical):
            return np.bool_(e.value)
        return _NOCONST

    def _int(self, e: FExpr, bias: int = 0) -> Callable[[_Frame], int]:
        """A scalar integer (a bound, an extent, or with ``bias=1`` a
        0-based subscript)."""
        c = self._const(e)
        if c is not _NOCONST:
            try:
                k = _as_int(c) - bias
            except (FortranRuntimeError, OverflowError, TypeError, ValueError):
                pass
            else:
                def const(f: _Frame) -> int:
                    return k
                return const
        if isinstance(e, FVar):
            i = self._slot_index(e.name)
            if i is not None:
                alloc_msg = f"{e.name!r} used before ALLOCATE"

                def var(f: _Frame) -> int:
                    store = f.slots[i].store
                    if type(store) is _ndarray and not store.ndim:
                        k = store.item()
                        return (k if type(k) is int else int(k)) - bias
                    return _as_int(_value(store, alloc_msg)) - bias
                return var
        value = self._expr(e)

        def expr(f: _Frame) -> int:
            return _as_int(value(f)) - bias
        return expr

    def _expr(self, e: FExpr) -> Callable[[_Frame], Any]:
        c = self._const(e)
        if c is not _NOCONST:
            def const(f: _Frame) -> Any:
                return c
            return const
        if isinstance(e, FNum):
            v = e.value

            def num(f: _Frame) -> Any:
                return np.int64(v) if isinstance(v, int) else np.float64(v)
            return num
        if isinstance(e, FVar):
            return self._var(e.name)
        if isinstance(e, FFieldRef):
            get = self._storage(e)

            def component(f: _Frame) -> Any:
                store = get(f)
                if isinstance(store, np.ndarray) and store.ndim == 0:
                    return store[()]
                return store
            return component
        if isinstance(e, FIndexed):
            return self._indexed(e)
        if isinstance(e, FUn):
            operand = self._expr(e.operand)
            fn = _UNOPS.get(e.op)
            if fn is None:
                return operand
            return lambda f: fn(operand(f))
        if isinstance(e, FBin):
            return self._bin(e)
        return _raiser(f"cannot evaluate {type(e).__name__}")

    def _var(self, name: str) -> Callable[[_Frame], Any]:
        i = self._slot_index(name)
        if i is None:
            # Argument-less function call? Not supported; report clearly.
            return _raiser(f"unknown name {name!r}")
        alloc_msg = f"{name!r} used before ALLOCATE"

        def var(f: _Frame) -> Any:
            store = f.slots[i].store
            if type(store) is _ndarray and not store.ndim:
                return store[()]
            return _value(store, alloc_msg)
        return var

    def _bin(self, e: FBin) -> Callable[[_Frame], Any]:
        op = e.op
        left, right = self._expr(e.left), self._expr(e.right)
        if op == "and":
            def and_(f: _Frame) -> Any:
                if left(f):
                    return _TRUE if right(f) else _FALSE
                return _FALSE
            return and_
        if op == "or":
            def or_(f: _Frame) -> Any:
                if left(f):
                    return _TRUE
                return _TRUE if right(f) else _FALSE
            return or_
        fn = _BINOPS.get(op)
        if fn is None:
            message = f"unknown operator {op!r}"

            def unknown(f: _Frame) -> Any:
                left(f)
                right(f)
                raise FortranRuntimeError(message)
            return unknown
        return lambda f: fn(left(f), right(f))

    def _indexed(self, e: FIndexed) -> Callable[[_Frame], Any]:
        # Resolution order: variable (array) -> user subprogram -> intrinsic.
        if isinstance(e.base, FVar):
            name = e.base.name
            i = self._slot_index(name)
            if i is not None:
                return self._element(i, name, tuple(self._int(a, 1) for a in e.args))
            if name in SPECIAL_FORMS:
                return self._special_form(name, e.args)
            callee = self._callee(name)
            if callee is not None:
                return self._invoke(callee, e.args)
            fn = INTRINSICS.get(name)
            if fn is not None:
                return self._intrinsic(fn, e.args)
            return _raiser(f"unknown array/function {name!r}")
        if isinstance(e.base, FFieldRef):
            get = self._storage(e.base)
            subs = tuple(self._int(a, 1) for a in e.args)

            def component(f: _Frame) -> Any:
                store = get(f)
                if isinstance(store, np.ndarray):
                    idx = tuple(sub(f) for sub in subs)
                    _check_bounds(store, idx)
                    return store[idx]
                raise FortranRuntimeError("unsupported indexed expression")
            return component
        return _raiser("unsupported indexed expression")

    def _element(self, i: int, name: str, subs: tuple) -> Callable[[_Frame], Any]:
        alloc_msg = f"{name!r} used before ALLOCATE"
        if len(subs) == 1:
            s0, = subs

            def element1(f: _Frame) -> Any:
                store = f.slots[i].store
                if type(store) is _ndarray:
                    k = s0(f)
                    if store.ndim == 1 and 0 <= k < len(store):
                        return store[k]
                    _check_bounds(store, (k,))
                    return store[(k,)]
                return _index_slow(f, store, subs, alloc_msg, name)
            return element1
        if len(subs) == 2:
            s0, s1 = subs

            def element2(f: _Frame) -> Any:
                store = f.slots[i].store
                if type(store) is _ndarray:
                    k0, k1 = s0(f), s1(f)
                    if store.ndim == 2:
                        n0, n1 = store.shape
                        if 0 <= k0 < n0 and 0 <= k1 < n1:
                            return store[k0, k1]
                    _check_bounds(store, (k0, k1))
                    return store[k0, k1]
                return _index_slow(f, store, subs, alloc_msg, name)
            return element2

        def element(f: _Frame) -> Any:
            return _index_slow(f, f.slots[i].store, subs, alloc_msg, name)
        return element

    def _special_form(self, name: str, args: tuple[FExpr, ...]) -> Callable[[_Frame], Any]:
        if name == "allocated":
            if len(args) != 1:
                return _raiser("ALLOCATED takes one argument")
            get = self._slot_of(args[0])

            def allocated(f: _Frame) -> Any:
                return _TRUE if get(f).allocated else _FALSE
            return allocated
        return _raiser(f"unknown special form {name!r}")

    def _intrinsic(self, fn: Callable, argexprs: tuple[FExpr, ...]) -> Callable[[_Frame], Any]:
        args = tuple(self._expr(a) for a in argexprs)
        return lambda f: fn(*[a(f) for a in args])


# ---------------------------------------------------------------------------
# the runtime
# ---------------------------------------------------------------------------

class FortranRuntime:
    """Loads FORTRAN sources and executes subprograms / programs."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleEnv] = {}
        self.programs: dict[str, FProgramUnit] = {}
        self.bare_subprograms: dict[str, FSubprogram] = {}
        self.commons: dict[str, dict[str, Slot]] = {}
        self.output: list[tuple] = []
        self.omp_log: list[OmpEvent] = []
        self.allocation_count = 0
        self._save_store: dict[tuple[str, str], Slot] = {}
        self._call_depth = 0
        self.max_call_depth = 100
        # (host module, name, is a PROGRAM) -> (compiled unit, its layout
        # resolved here)
        self._units: dict[tuple, tuple] = {}
        self._loaded = b""                   # digest of the load sequence
        self._noted: set = set()             # lifted DOs that noted a refusal

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self, source: str) -> None:
        """Parse and register a source file (modules become importable)."""
        f = parse_source(source)
        self._units.clear()
        self._loaded = digest(self._loaded + digest(source))
        for mod in f.modules:
            self._load_module(mod)
        for prog in f.programs:
            self.programs[prog.name] = prog
        for sub in f.subprograms:
            self.bare_subprograms[sub.name] = sub

    def _load_module(self, mod: FModule) -> None:
        env = ModuleEnv(name=mod.name)
        self.modules[mod.name] = env
        for d in mod.decls:
            if isinstance(d, FUse):
                env.uses.append(d)
            elif isinstance(d, FTypeDef):
                env.typedefs[d.name] = d.decls
            elif isinstance(d, FDecl):
                for ent in d.entities:
                    slot = env.variables[ent.name] = Slot(**_slot_kwargs(ent.name, d, ent))
                    self._initialize_slot(slot, env, init=ent.init)
            elif isinstance(d, FImplicitNone):
                pass
            elif isinstance(d, FOmpDirective):
                # Module-level THREADPRIVATE: recorded, no storage effect in
                # this sequential runtime.
                self.omp_log.append(OmpEvent(kind=d.kind, unit=mod.name,
                                             line=d.line, private=d.private))
            else:
                raise FortranRuntimeError(
                    f"module {mod.name}: unsupported declaration {type(d).__name__}"
                )
        for sub in mod.subprograms:
            env.subprograms[sub.name] = sub

    # ------------------------------------------------------------------
    # module-scope declarations -> slots
    # ------------------------------------------------------------------
    def _initialize_slot(self, slot: Slot, env: ModuleEnv,
                         init: FExpr | None = None) -> None:
        """Materialize storage for a non-allocatable module variable."""
        if slot.allocatable or slot.deferred_rank:
            return
        if slot.spec.base == "type":
            slot.store = self._new_derived(slot.spec.type_name, env, ())
            return
        dtype = _dtype_of(slot.spec)
        if slot.is_array:
            shape = tuple(int(self._fold_const(dim, env)) for dim in slot.dims)
            for n in shape:
                if n < 0:
                    raise FortranRuntimeError(f"{slot.name}: negative extent {n}")
            slot.store = np.zeros(shape, dtype=dtype)
            self.allocation_count += 1
        else:
            slot.store = np.zeros((), dtype=dtype)
        if init is not None:
            value = self._fold_const(init, env)
            if slot.is_array:
                slot.store[...] = value
            else:
                slot.store[()] = value
        slot.shape = slot.store.shape

    def _new_derived(self, type_name: str | None, env: ModuleEnv | None,
                     uses: tuple[FUse, ...]) -> DerivedValue:
        decls = self._find_typedef(type_name, env, uses)
        fields: dict[str, Any] = {}
        for d in decls:
            for ent in d.entities:
                dtype = _dtype_of(d.spec)
                if ent.dims:
                    shape = tuple(int(self._fold_const(x, env)) for x in ent.dims)
                    fields[ent.name] = np.zeros(shape, dtype=dtype)
                else:
                    fields[ent.name] = np.zeros((), dtype=dtype)
        return DerivedValue(type_name=type_name or "?", fields=fields)

    def _find_typedef(self, type_name: str | None, env: ModuleEnv | None,
                      uses: tuple[FUse, ...]) -> list[FDecl]:
        """Search ``env``, the modules it USEs, then the modules the
        declaring unit USEs."""
        if type_name is None:
            raise FortranRuntimeError("TYPE declaration without a type name")
        stack: list[ModuleEnv] = []
        if env is not None:
            stack.append(env)
            stack.extend(self.modules[u.module] for u in env.uses
                         if u.module in self.modules)
        stack.extend(self.modules[u.module] for u in uses if u.module in self.modules)
        seen: set[str] = set()
        for e in stack:
            if e.name in seen:
                continue
            seen.add(e.name)
            if type_name in e.typedefs:
                return e.typedefs[type_name]
            for u in e.uses:
                m = self.modules.get(u.module)
                if m and type_name in m.typedefs:
                    return m.typedefs[type_name]
        raise FortranRuntimeError(f"unknown derived type {type_name!r}")

    def _fold_const(self, e: FExpr, env: ModuleEnv | None) -> Any:
        """Fold an expression over literals and module-level scalars, with
        the operator table of compiled code."""
        if isinstance(e, FNum):
            return np.int64(e.value) if isinstance(e.value, int) else np.float64(e.value)
        if isinstance(e, FVar) and env is not None:
            slot = env.variables.get(e.name)
            if slot is None:
                for u in env.uses:
                    m = self.modules.get(u.module)
                    if m and e.name in m.variables:
                        slot = m.variables[e.name]
                        break
            if slot is not None and slot.store is not None and slot.store.ndim == 0:
                return slot.store[()]
        if isinstance(e, FUn):
            return _UNOPS.get(e.op, _identity)(self._fold_const(e.operand, env))
        if isinstance(e, FBin) and e.op in _BINOPS:
            return _BINOPS[e.op](self._fold_const(e.left, env),
                                 self._fold_const(e.right, env))
        raise FortranRuntimeError("unsupported constant expression at module scope")

    # ------------------------------------------------------------------
    # calling
    # ------------------------------------------------------------------
    def call(self, name: str, args: list[Any] | tuple = (), module: str | None = None) -> Any:
        """Call a subprogram by name with NumPy arguments.

        Arrays pass by reference; Python scalars are copied into
        temporaries (use 0-d arrays for intent(out) scalars).
        """
        return self._invoke(self._find_subprogram(name.lower(), module),
                            list(args))

    def run_program(self, name: str | None = None) -> None:
        if not self.programs:
            raise FortranRuntimeError("no PROGRAM unit loaded")
        prog = self.programs[name] if name else next(iter(self.programs.values()))
        # A PROGRAM's CONTAINS'd subprograms are registered as bare units.
        fresh = [sub for sub in prog.subprograms if sub.name not in self.bare_subprograms]
        for sub in fresh:
            self.bare_subprograms[sub.name] = sub
        if fresh:
            self._units.clear()
            self._loaded = digest(self._loaded + " ".join(
                ["contains", prog.name] + [sub.name for sub in fresh]).encode())
        try:
            self._invoke((None, prog.name, True), [])
        except StopSignal:
            pass

    def _find_subprogram(self, name: str, module: str | None) -> tuple:
        """The binding key of the subprogram ``name`` names."""
        if module is not None:
            env = self.modules.get(module)
            if env and name in env.subprograms:
                return module, name, False
            raise FortranRuntimeError(f"no subprogram {name!r} in module {module!r}")
        for env in self.modules.values():
            if name in env.subprograms:
                return env.name, name, False
        if name in self.bare_subprograms:
            return None, name, False
        raise FortranRuntimeError(f"no subprogram named {name!r}")

    def _invoke(self, key: tuple, args: list[Any]) -> Any:
        return self._run(self._units.get(key) or self._bind(key), args)

    def _bind(self, key: tuple) -> tuple:
        """This runtime's entry for the unit ``key`` names: the compiled
        form this load sequence shares, compiled on a miss, with its
        layout resolved to this runtime's module slots and its compile's
        decisions replayed."""
        from ..observe import get_metrics, get_tracer

        host, name, program = key
        shared = _rc._active.faults is None
        unit = _UNITS.get((self._loaded,) + key) if shared else None
        if shared:
            m = get_metrics()
            if m.enabled:
                m.counter("fortran.unit_cache.hits" if unit is not None
                          else "fortran.unit_cache.misses").inc()
        if unit is None:
            if program:
                node = self.programs[name]
                sub = FSubprogram(kind="subroutine", name=name, params=[],
                                  result=None, decls=node.decls,
                                  body=node.body)
            else:
                sub = (self.bare_subprograms if host is None
                       else self.modules[host].subprograms)[name]
            with get_tracer().span("fortran.compile", unit=name):
                unit = _UnitCompiler(self.modules, self.bare_subprograms, sub,
                                     self.modules.get(host)).compile()
            if shared:
                _UNITS.offer((self._loaded,) + key, unit)
        for note in unit.notes:
            note()
        layout = [None if d is None else self.modules[d[0]].variables[d[1]]
                  for d in unit.layout]
        bound = self._units[key] = (unit, layout)
        return bound

    def _run(self, bound: tuple, args: list[Any]) -> Any:
        unit, layout = bound
        if self._call_depth >= self.max_call_depth:
            raise FortranRuntimeError(f"call depth exceeded in {unit.name}")
        if len(args) != unit.nparams:
            raise FortranRuntimeError(
                f"{unit.name}: expected {unit.nparams} argument(s), got {len(args)}"
            )
        frame = _Frame(self, layout.copy())
        unit.bind(frame, args)
        self._call_depth += 1
        try:
            unit.body(frame)
        except _Return:
            pass
        finally:
            self._call_depth -= 1
        if unit.result is None:
            return None
        store = frame.slots[unit.result].store
        if store is None:
            raise FortranRuntimeError(f"{unit.name}: result never set")
        return store[()] if getattr(store, "ndim", 1) == 0 else store
