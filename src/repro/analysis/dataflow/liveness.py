"""Backward liveness: dead stores, never-read arrays, grid liveness.

The scalar analysis runs the generic engine backward over the unit CFG:
a store into a plain local scalar whose value no later-reachable read
consumes is a dead store.  Dummies, the function result, non-local
channels and SAVE'd locals escape the unit, so they are live at exit and
never reported.  Local arrays get the complementary *whole-object*
check: an array that is stored into but never read anywhere in the unit
is dead storage wholesale (weak per-element kills make element-level
liveness vacuous, so the flow-insensitive check is the precise one).

:func:`step_live_on_entry` runs the same engine over a GLAF step CFG
with grid-level uses and weak kills.  The vectorizer's inliner
(:mod:`repro.glafexec.inline`) uses the live-on-entry set to decide
per-iteration scratch: a grid that a split nest writes in full and that
is *not* live on entry is never read before that write in an iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...fortranlib.ast import FAssign, FVar
from .cfg import CFG, build_step_cfg
from .engine import Problem, solve
from .model import UnitModel, atom_events

__all__ = ["DeadStore", "dead_stores", "step_live_on_entry"]


@dataclass(frozen=True)
class DeadStore:
    """A store whose value is provably never read."""

    name: str
    line: int
    kind: str          # 'scalar' | 'array-never-read'


def _escape_set(model: UnitModel) -> frozenset[str]:
    out = {n for n, ch in model.channels.items() if ch != "local"}
    out.update(model.params)
    if model.result:
        out.add(model.result)
    out.update(model.saved)
    return frozenset(out)


def dead_stores(cfg: CFG, model: UnitModel, summaries
                ) -> tuple[list[DeadStore], frozenset[str]]:
    """Returns (findings, live-at-entry names)."""
    boundary = _escape_set(model)

    def transfer(block, state):
        live = set(state)
        for atom in reversed(block.atoms):
            for ev in reversed(atom_events(atom, model, summaries)):
                if ev.op == "def" and ev.strong:
                    live.discard(ev.name)
                elif ev.op == "use":
                    live.add(ev.name)
        return frozenset(live)

    joined, transferred = solve(cfg, Problem(
        forward=False, boundary=boundary, transfer=transfer,
        join=lambda a, b: a | b))

    findings: list[DeadStore] = []
    reachable = cfg.reachable()
    reported: set[tuple[str, int]] = set()
    for bid in sorted(reachable):
        out_state = joined[bid]
        if out_state is None:
            continue
        live = set(out_state)
        for atom in reversed(cfg.blocks[bid].atoms):
            node = atom.node
            if (atom.kind == "stmt" and isinstance(node, FAssign)
                    and isinstance(node.target, FVar)):
                n = node.target.name.lower()
                if (model.is_local(n) and not model.is_array(n)
                        and n not in boundary and n not in live
                        and (n, atom.line) not in reported):
                    reported.add((n, atom.line))
                    findings.append(DeadStore(n, atom.line, "scalar"))
            for ev in reversed(atom_events(atom, model, summaries)):
                if ev.op == "def" and ev.strong:
                    live.discard(ev.name)
                elif ev.op == "use":
                    live.add(ev.name)

    findings.extend(_never_read_arrays(cfg, model, summaries, reachable))
    entry_live = transferred[cfg.entry]
    return findings, (entry_live if entry_live is not None else frozenset())


def _never_read_arrays(cfg: CFG, model: UnitModel, summaries,
                       reachable) -> list[DeadStore]:
    stored: dict[str, int] = {}
    read: set[str] = set()
    for bid in sorted(reachable):
        for atom in cfg.blocks[bid].atoms:
            for ev in atom_events(atom, model, summaries):
                if not ev.array or not model.is_local(ev.name):
                    continue
                if ev.op == "use":
                    read.add(ev.name)
                elif ev.store:
                    stored.setdefault(ev.name, ev.line)
    return [DeadStore(n, line, "array-never-read")
            for n, line in sorted(stored.items()) if n not in read]


# ----------------------------------------------------------------------
# GLAF step grid liveness
# ----------------------------------------------------------------------

def step_live_on_entry(step) -> frozenset[str]:
    """Grids whose pre-step value may be read by the step.

    Array writes are weak kills (a masked or partial write preserves
    other cells), so a grid is live on entry exactly when some reachable
    statement, condition, bound or subscript reads it.
    """
    from ...core.expr import grids_read
    from ...core.step import Assign, CallStmt, Return

    cfg = build_step_cfg(step)

    def atom_uses(atom) -> set[str]:
        node = atom.node
        if atom.kind == "step-range":
            return (grids_read(node.start) | grids_read(node.end)
                    | grids_read(node.step))
        if atom.kind == "step-cond":
            return grids_read(node)
        if atom.kind == "step-stmt":
            if isinstance(node, Assign):
                used = grids_read(node.expr)
                for ie in node.target.indices:
                    used |= grids_read(ie)
                return used
            if isinstance(node, CallStmt):
                used = set()
                for a in node.args:
                    used |= grids_read(a)
                return used
            if isinstance(node, Return) and node.value is not None:
                return grids_read(node.value)
        return set()

    def transfer(block, state):
        live = set(state)
        for atom in reversed(block.atoms):
            live |= atom_uses(atom)     # no strong kills for grids
        return frozenset(live)

    _, transferred = solve(cfg, Problem(
        forward=False, boundary=frozenset(), transfer=transfer,
        join=lambda a, b: a | b))
    entry = transferred[cfg.entry]
    return entry if entry is not None else frozenset()
