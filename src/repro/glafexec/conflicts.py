"""Access-conflict check: one serial run judges every plan-parallel step.

The paper verifies its OpenMP directives and its §4.2.1 tweaks by hand.
This module mechanizes that check the way shadow-memory race detectors for
OpenMP do (Archer, Atzeni et al., IPDPS 2016), over the IR and in one
deterministic serial run.  While a plan-parallel loop step without
``RETURN``/``EXIT`` runs through its ordinary compiled nest, every grid
access — inside CALLs and function calls too — is recorded with the step's
iteration: its leading ``plan.collapse_for`` loop indices, which the step
sets once per trip of those loops.  Storage is keyed by the array object,
so a by-reference dummy is its actual argument.

* **Private** storage — the step's PRIVATE and FIRSTPRIVATE names, the
  grids the FORTRAN generator declares THREADPRIVATE, and storage a call
  allocates inside an iteration (non-SAVE locals, by-value scalars) — must
  be written by an iteration before it reads it (``private-read-before-
  write``); a FIRSTPRIVATE cell only once another iteration has written it.
* **Shared** storage — globals, the step's own function storage and every
  SAVE'd local — conflicts when two iterations touch one cell and at least
  one writes; the kind names both accesses (``write-read``...).
* The step's own REDUCTION update statements and the assignments the
  generators emit ATOMIC are *updates*, which conflict with any other
  access but not with each other.  A reduction is one only for its own
  loop; an ATOMIC update is one for every enclosing check too.

A checked step nested in another is checked over its own iterations, and
its accesses count for every enclosing check.  The check is exact, so it
takes no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.expr import GridRef, LibCall
from ..core.function import GlafFunction, GlafProgram
from ..core.grid import Grid
from ..core.step import Assign, ExitLoop, Return, Step, walk_stmts
from ..optimize.plan import OptimizationPlan
from .context import ExecutionContext
from .interp import Interpreter, _Emitter, _Local

__all__ = ["CheckedInterpreter", "Conflict", "ParallelValidation",
           "validate_parallel_semantics"]

_ALL, _OWN = "all", "own"          # which checks an update is one for
# A shared cell's shadow: one writer, then two distinct readers and two
# distinct updaters (enough to find another iteration than any given one).
_SLOTS = {"write": (0, 0), "read": (1, 2), "update": (3, 4)}
_CLASHES = {"write": ("write", "read", "update"), "read": ("write", "update"),
            "update": ("write", "read")}


def _clash(seen: list, op: str, it: tuple) -> tuple | None:
    """The first earlier access by another iteration that ``op`` conflicts
    with, as ``(iteration, kind)``."""
    for prev in _CLASHES[op]:
        for k in _SLOTS[prev]:
            other = seen[k]
            if other is not None and other != it:
                return other, f"{prev}-{op}"
    return None


@dataclass(frozen=True)
class Conflict:
    """Two iterations of one checked step touching one storage cell."""

    function: str
    step_index: int
    grid: str                        # the name the conflicting access used
    cell: tuple[int, ...]            # 1-based; () for a scalar
    first: tuple[int, ...] | None    # the earlier iteration (None: no writer)
    second: tuple[int, ...]          # the iteration whose access conflicted
    kind: str

    def __str__(self) -> str:
        where = (f"{self.grid}({', '.join(map(str, self.cell))})"
                 if self.cell else self.grid)
        its = [str(i[0]) if len(i) == 1 else str(i)
               for i in (self.first, self.second) if i is not None]
        return (f"{self.kind} on {where} in {self.function}/{self.step_index}, "
                f"iteration{'s' if len(its) > 1 else ''} {' and '.join(its)}")


class _Check:
    """The shadow state of one execution of one checked step."""

    __slots__ = ("frame", "it", "private", "shadow", "found")

    def __init__(self, frame, lead: tuple[str, ...], private: dict) -> None:
        self.frame = frame
        #: the running iteration, which the step sets once per trip of its
        #: lead loops; None while the leading bounds evaluate
        self.it: tuple[int, ...] | None = None if lead else ()
        #: id(array) -> (firstprivate?, {cell: the iteration that last wrote it})
        self.private: dict[int, tuple[bool, dict]] = private
        self.shadow: dict[tuple, list] = {}     # shared cell -> _SLOTS
        self.found: dict[str, tuple] = {}       # grid -> its first conflict

    def fresh(self, store: np.ndarray, written: bool) -> None:
        """Storage a call allocated inside the running iteration."""
        self.private[id(store)] = (False, {(): self.it} if written else {})

    def note(self, store: np.ndarray, name: str, cell: tuple | None,
             op: str) -> None:
        """One ``read``, ``write`` or ``update`` of a 0-based cell (None:
        every cell)."""
        if name in self.found:
            return
        it = self.it
        if it is None:
            return
        sid = id(store)
        mode = self.private.get(sid)
        for c in ((cell,) if cell is not None else np.ndindex(store.shape)):
            if mode is not None:
                other = mode[1].get(c)
                if op != "read":
                    mode[1][c] = it
                if op != "read" or other == it or (other is None and mode[0]):
                    continue
                kind = "private-read-before-write"
            else:
                seen = self.shadow.get((sid, c))
                if seen is None:
                    seen = self.shadow[(sid, c)] = [None] * 5
                clash = _clash(seen, op, it)
                if clash is None:
                    a, b = _SLOTS[op]
                    if seen[a] is None:
                        seen[a] = it
                    elif seen[a] != it and seen[b] is None:
                        seen[b] = it
                    continue
                other, kind = clash
            self.found[name] = (tuple(i + 1 for i in c), other, it, kind)
            return


class CheckedInterpreter(Interpreter):
    """Runs a program once, serially, checking every plan-parallel step.

    Results and :class:`ExecStats` are the plain interpreter's.
    ``conflicts`` keeps the first conflict per (function, step, grid) and
    ``checked_steps`` every step that ran checked.  SAVE'd storage follows
    ``plan.tweaks.save_inner_arrays`` unless ``save_inner_arrays`` is given.
    """

    def __init__(self, program: GlafProgram, context: ExecutionContext,
                 plan: OptimizationPlan, **kw: Any):
        kw.setdefault("save_inner_arrays", plan.tweaks.save_inner_arrays)
        super().__init__(program, context, **kw)
        self.plan = plan
        self.conflicts: dict[tuple[str, int, str], Conflict] = {}
        self.checked_steps: set[tuple[str, int]] = set()
        self._checks: list[_Check] = []
        self._fresh: list[list[int]] = []    # per live call: its fresh storage
        # The checked steps — plan-parallel loops without RETURN/EXIT (an
        # early exit keeps its order: the CRITICAL protocol serializes it)
        # — with the loop indices that name one iteration.
        self._leads = {
            (fn.name, i): tuple(step.index_names()[:plan.collapse_for(fn.name, i)])
            for fn in program.functions() for i, step in enumerate(fn.steps)
            if plan.step_is_parallel(fn.name, i) and step.is_loop
            and not any(isinstance(s, (Return, ExitLoop))
                        for s in walk_stmts(step.stmts))}

    def _compile(self, frame, idx: int, step: Step):
        return _RecordingEmitter(
            frame.fn, idx, step, frame.grids, self.plan,
            self._leads.get((frame.fn.name, idx))).run()

    def _exec_step(self, frame, idx: int, step: Step) -> None:
        if (frame.fn.name, idx) in self._leads:
            self._run_checked(frame, idx, step)
        else:
            super()._exec_step(frame, idx, step)

    def _run_checked(self, frame, idx: int, step: Step) -> None:
        """Run the step once through its ordinary nest under a new check,
        keeping the first conflict per grid of the step."""
        from ..observe import get_decisions

        fname, grids = frame.fn.name, frame.grids
        sp = self.plan.parallel_plan.steps[(fname, idx)]
        private = {id(grids[n]): (first, {})
                   for first, names in ((False, sp.private), (True, sp.firstprivate))
                   for n in names if n in grids}
        for n in self.plan.threadprivate_grids():
            private[id(self.context.globals[n])] = (False, {})
        check = _Check(frame, self._leads[(fname, idx)], private)
        self.checked_steps.add((fname, idx))
        self._checks.append(check)
        try:
            Interpreter._exec_step(self, frame, idx, step)
        finally:
            self._checks.pop()
        dl = get_decisions()
        for grid, detail in check.found.items():
            c = Conflict(fname, idx, grid, *detail)
            if self.conflicts.setdefault((fname, idx, grid), c) is c and dl.enabled:
                dl.record("parallel:conflict", fname, idx, step.name, "conflict",
                          reasons=(str(c),), grid=grid, kind=c.kind)

    def _note(self, f, store: np.ndarray, name: str, cell: tuple | None,
              write: bool, update: str | None) -> None:
        """Report one access to every active check.  In an update statement
        (REDUCTION: the check of the step running in ``f`` only; ATOMIC:
        all), a check sees the target's write as one update and not its
        self-read."""
        for check in self._checks:
            if update is None or (update == _OWN and check.frame is not f):
                check.note(store, name, cell, "write" if write else "read")
            elif write:
                check.note(store, name, cell, "update")

    def _call(self, name: str, args: list[Any] | tuple = ()) -> Any:
        """A call made inside checked iterations: its fresh storage is
        private to them until it returns, when the storage (and its id)
        is let go."""
        if not self._checks:
            return super()._call(name, args)
        self._fresh.append([])
        try:
            return super()._call(name, args)
        finally:
            for sid in self._fresh.pop():
                for check in self._checks:
                    check.private.pop(sid, None)

    def _bind_argument(self, g: Grid, dtype: np.dtype,
                       value: Any) -> np.ndarray:
        store = super()._bind_argument(g, dtype, value)
        if store is not value and self._checks:     # a by-value scalar
            self._note_fresh(store, written=True)
        return store

    def _allocate_local(self, local: _Local,
                        sizes: dict[str, int] | None) -> np.ndarray:
        store = super()._allocate_local(local, sizes)
        if self._checks and self._save_store.get(local.key) is not store:
            self._note_fresh(store, written=False)
        return store

    def _note_fresh(self, store: np.ndarray, written: bool) -> None:
        self._fresh[-1].append(id(store))
        for check in self._checks:
            check.fresh(store, written)


def _rd(f, store: np.ndarray, name: str, update: str | None, value: Any,
        cell: tuple | None) -> Any:
    """A read, reported to the active checks; returns the value read."""
    interp = f.interp
    if interp._checks:
        interp._note(f, store, name, cell, False, update)
    return value


class _RecordingEmitter(_Emitter):
    """Steps that also report each grid access to the active checks;
    bounds, sentinel, fault and budget checks run as in the plain ones.
    A checked step (``lead``: its lead loops' variables) sets its check's
    iteration once per trip of those loops, and clears it while their
    inner bounds evaluate."""

    def __init__(self, fn: GlafFunction, idx: int, step: Step, grids: dict,
                 plan: OptimizationPlan, lead: tuple[str, ...] | None):
        super().__init__(fn, idx, step, grids)
        self.plan = plan
        self.lead = lead
        # A REDUCTION update is one for the check whose frame runs it, and
        # only the step itself can be checked in its frame.
        self.reductions = {g for g, _ in plan.reductions_for(fn.name, idx)}
        self.target: tuple[GridRef, str | None] | None = None
        self.ns["_rd"] = _rd
        self.uses.add("I")
        self.head.append("C = I._checks; N = I._note")
        if lead is not None:
            self.head.append("K = C[-1]")

    def _enter(self, level: int, ind: int) -> None:
        if self.lead is not None and 0 < level < len(self.lead):
            self._line(ind, "K.it = None")

    def _trip(self, level: int, ind: int) -> None:
        if self.lead is not None and level == len(self.lead) - 1:
            its = "".join(f"{self.vars[v]}, " for v in self.lead)
            self._line(ind, f"K.it = ({its})")

    def _assign(self, s: Assign, ind: int) -> None:
        name = s.target.grid
        update = (_ALL if self.plan.atomic_update(self.fn.name, self.idx, name)
                  else _OWN if name in self.reductions else None)
        self.target = (s.target, update)    # its self-read shares `update`
        super()._assign(s, ind)
        self.target = None

    def _write(self, ind: int, store: str, name: str, cell: str) -> None:
        self._line(ind, f"if C: N(f, {store}, {name!r}, {cell}, True, "
                        f"{self.target[1]!r})")

    def _grid(self, e: GridRef) -> str:
        store, cell, text = self._read(e)
        if store is None:
            return text
        update = (self.target[1] if self.target is not None
                  and e == self.target[0] else None)
        return f"_rd(f, {store}, {e.grid!r}, {update!r}, {text}, {cell})"

    def _libcall(self, e: LibCall) -> str:
        """A whole-grid argument (``SUM``...) reads every cell first;
        ``SIZE``'s reads none."""
        call = super()._libcall(e)
        reads = [self._grid(a) for a in e.args if e.name != "SIZE"
                 and isinstance(a, GridRef) and not a.indices]
        if not reads:
            return call
        return f"({', '.join(reads)}, {call})[-1]"


@dataclass
class ParallelValidation:
    """Outcome of one checked run."""

    entry: str
    checked_steps: list[tuple[str, int]]
    conflicts: list[Conflict]

    @property
    def ok(self) -> bool:
        return not self.conflicts


def validate_parallel_semantics(
    program: GlafProgram,
    plan: OptimizationPlan,
    entry: str,
    args: list[Any] | tuple,
    *,
    sizes: dict[str, int] | None = None,
    values: dict[str, Any] | None = None,
) -> ParallelValidation:
    """Run ``entry`` once under :class:`CheckedInterpreter` with the plan's
    SAVE setting; ``ok`` when no plan-parallel step has a conflict."""
    interp = CheckedInterpreter(
        program, ExecutionContext(program, sizes=sizes, values=values), plan)
    interp.call(entry, list(args))
    return ParallelValidation(entry=entry,
                              checked_steps=sorted(interp.checked_steps),
                              conflicts=list(interp.conflicts.values()))
