"""Private/firstprivate/shared classification.

When a loop is parallelized, every grid written inside the loop that is not
the loop's output must become thread-private, or iterations would race on
it.  GLAF classifies:

* **private** — function-local grids whose first access in the body is a
  write and whose subscripts do not involve the loop's index variables
  (scalar temporaries, per-iteration scratch arrays).  The paper's FUN3D
  evaluation reports 219 such variables identified by GLAF for the manual
  version's PRIVATE clause.
* **firstprivate** — like private, but read before written (each thread
  needs the pre-loop value).
* **shared** — everything else (loop outputs indexed by the loop variables,
  read-only inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.function import GlafFunction, GlafProgram
from ..core.step import Step
from .accesses import Access, step_accesses

__all__ = ["PrivatizationResult", "classify_privates"]


@dataclass
class PrivatizationResult:
    private: set[str] = field(default_factory=set)
    firstprivate: set[str] = field(default_factory=set)
    shared: set[str] = field(default_factory=set)


def classify_privates(
    program: GlafProgram, fn: GlafFunction, step: Step
) -> PrivatizationResult:
    """Classify every grid accessed by ``step`` for a parallel run of its nest."""
    from ..observe import get_metrics

    _m = get_metrics()
    if _m.enabled:
        _m.counter("analysis.privatization.steps").inc()
    loop_vars = set(step.index_names())
    accesses = step_accesses(step)
    by_grid: dict[str, list[Access]] = {}
    for a in accesses:
        by_grid.setdefault(a.grid, []).append(a)

    result = PrivatizationResult()
    for gname, accs in by_grid.items():
        try:
            scope = program.scope_of(fn, gname)
        except KeyError:
            scope = "global"
        writes = [a for a in accs if a.is_write]
        if not writes:
            result.shared.add(gname)
            continue

        # Subscripts involving loop vars mean different iterations touch
        # different elements: that is a shared output, not a temporary.
        def iteration_local(a: Access) -> bool:
            return not (a.vars_used() & loop_vars)

        if all(iteration_local(a) for a in accs):
            first_write_pos = min(w.stmt_pos for w in writes)
            read_before = any(
                (not a.is_write) and a.stmt_pos < first_write_pos for a in accs
            )
            # A conditional first write cannot guarantee initialization.
            first_write_conditional = all(
                w.conditional for w in writes if w.stmt_pos == first_write_pos
            )
            if scope in ("local",) and not read_before and not first_write_conditional:
                result.private.add(gname)
            elif scope in ("local", "param") and (read_before or first_write_conditional):
                result.firstprivate.add(gname)
            else:
                # Global/module/COMMON temporaries need the thread-private
                # treatment the paper lists among the FUN3D manual tweaks.
                result.shared.add(gname)
        else:
            result.shared.add(gname)
    return result
