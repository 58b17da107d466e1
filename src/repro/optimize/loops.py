"""Loop transformation options: collapse and interchange (paper §2.1).

The code-optimization back-end offers *loop collapsing* and *loop
interchange* as code-generation options.  Both are implemented here with
legality checks derived from the dependence analysis:

* **collapse** is legal for a rectangular perfect nest (no inner bound
  depends on an outer index variable).
* **interchange** of two adjacent loops is legal when the nest is
  rectangular in those variables and no dependence has a direction vector
  that interchange would turn from (<, >) into (>, <).  With the constant
  distance vectors our tests produce, that means: no dependence with
  distance (+, -) across the swapped pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.accesses import step_accesses
from ..analysis.dependence import DepKind, test_pair
from ..core.expr import index_vars_used
from ..core.step import Range, Step

__all__ = [
    "collapse_legal",
    "interchange_legal",
    "interchange",
    "CollapseDecision",
    "decide_collapse",
]


def _rectangular(step: Step, upto: int | None = None) -> bool:
    outer: set[str] = set()
    ranges = step.ranges if upto is None else step.ranges[:upto]
    for r in ranges:
        for e in (r.start, r.end, r.step):
            if index_vars_used(e) & outer:
                return False
        outer.add(r.var)
    return True


def collapse_legal(step: Step) -> bool:
    """COLLAPSE(n) needs a rectangular perfect nest of depth >= 2."""
    return step.depth >= 2 and _rectangular(step)


@dataclass(frozen=True)
class CollapseDecision:
    depth: int          # number of collapsed loops (1 = no collapse)
    reason: str


def decide_collapse(step: Step, *, enable: bool = True) -> CollapseDecision:
    if not enable:
        return CollapseDecision(1, "collapse disabled by optimization plan")
    if step.depth < 2:
        return CollapseDecision(1, "single loop")
    if not _rectangular(step):
        return CollapseDecision(1, "triangular nest: inner bound uses outer index")
    return CollapseDecision(step.depth, f"rectangular nest of depth {step.depth}")


def _distance_vectors(step: Step) -> list[tuple[int | None, ...]]:
    """Known constant distance vectors of loop-carried dependences."""
    loop_vars = step.index_names()
    accesses = step_accesses(step)
    out: list[tuple[int | None, ...]] = []
    writes = [a for a in accesses if a.is_write]
    for w in writes:
        for other in accesses:
            if other is w or other.grid != w.grid:
                continue
            dep = test_pair(w, other, loop_vars)
            if dep.kind is DepKind.LOOP_CARRIED and dep.distance:
                out.append(dep.distance)
    return out


def interchange_legal(step: Step, i: int, j: int) -> bool:
    """Whether swapping loops at nest positions ``i`` and ``j`` is legal."""
    if not (0 <= i < step.depth and 0 <= j < step.depth) or i == j:
        return False
    if not _rectangular(step):
        return False
    for dist in _distance_vectors(step):
        if len(dist) != step.depth:
            # Distance per subscript dimension need not align with nest
            # depth; be conservative.
            return False
        di, dj = dist[i], dist[j]
        if di is None or dj is None:
            return False
        # Lexicographic positivity must be preserved after swapping.
        vec = list(dist)
        vec[i], vec[j] = vec[j], vec[i]
        for d in vec:
            if d is None:
                return False
            if d > 0:
                break
            if d < 0:
                return False
    return True


def interchange(step: Step, i: int, j: int) -> Step:
    """A copy of ``step`` with loops ``i`` and ``j`` swapped."""
    if not interchange_legal(step, i, j):
        from ..errors import AnalysisError

        raise AnalysisError(
            f"step {step.name!r}: interchange of loops {i} and {j} is not legal"
        )
    ranges: list[Range] = list(step.ranges)
    ranges[i], ranges[j] = ranges[j], ranges[i]
    return Step(
        name=step.name,
        ranges=ranges,
        condition=step.condition,
        stmts=list(step.stmts),
        comment=step.comment,
    )
