"""Loop classification for the directive-pruning study (paper Table 2).

The paper's Figure 5 experiment removes OpenMP directives from parallelizable
loops in three increments, each targeting a syntactic class of loop for which
the compiler's own optimization (memset, SIMD, unrolling) beats thread-level
parallelism:

* **v1** removes directives from (a) initializations of grids to zero and
  (b) initializations with a single value loaded from another array;
* **v2** additionally removes them from all remaining *simple single loops*
  (one to a few assignment formulas, incl. recognized reductions);
* **v3** additionally removes them from *simple double loops* — double-nested
  loops with one or a few statements and **no control structure**.

Everything else is **complex**; in the SARB case study the two large loops of
``longwave_entropy_model`` stay OpenMP-annotated in v3 and provide the final
1.41x speed-up.
"""

from __future__ import annotations

import enum

from ..core.expr import Const, GridRef, UnOp, index_vars_used
from ..core.step import Assign, CallStmt, Step, walk_stmts

__all__ = ["LoopClass", "classify_step", "SIMPLE_BODY_MAX_STMTS"]

# "few lines (two to four) of similar assignments" — paper §4.1.2.
SIMPLE_BODY_MAX_STMTS = 4


class LoopClass(enum.Enum):
    NOT_A_LOOP = "not-a-loop"
    ZERO_INIT = "zero-init"             # a(i,...) = 0
    BROADCAST_INIT = "broadcast-init"   # a(i) = scalar or loop-invariant load
    SIMPLE_SINGLE = "simple-single"     # 1-level nest, few assignments, no ctrl
    SIMPLE_DOUBLE = "simple-double"     # 2-level nest, few stmts, no ctrl flow
    COMPLEX = "complex"


def _is_zero_const(e) -> bool:
    if isinstance(e, Const):
        return e.value == 0
    if isinstance(e, UnOp) and e.op == "neg":
        return _is_zero_const(e.operand)
    return False


def _loop_invariant(e, loop_vars: set[str]) -> bool:
    return not (index_vars_used(e) & loop_vars)


def classify_step(step: Step) -> LoopClass:
    """Syntactic class of a step's loop, mirroring the paper's categories."""
    if not step.is_loop:
        return LoopClass.NOT_A_LOOP

    stmts = list(walk_stmts(step.stmts))
    has_ctrl = step.has_control_flow() or step.condition is not None
    has_calls = any(isinstance(s, CallStmt) for s in stmts)
    assigns = [s for s in stmts if isinstance(s, Assign)]
    loop_vars = set(step.index_names())

    if has_calls:
        return LoopClass.COMPLEX

    # --- initialization classes (v1 targets) ---------------------------
    if not has_ctrl and len(assigns) == len(stmts) and assigns:
        if all(_is_zero_const(s.expr) for s in assigns):
            return LoopClass.ZERO_INIT
        if all(_broadcast_like(s.expr, loop_vars) for s in assigns):
            return LoopClass.BROADCAST_INIT

    # --- simple loops (v2/v3 targets) ----------------------------------
    simple_body = (
        not has_ctrl
        and len(stmts) <= SIMPLE_BODY_MAX_STMTS
        and all(isinstance(s, Assign) for s in stmts)
    )
    if simple_body and step.depth == 1:
        return LoopClass.SIMPLE_SINGLE
    if simple_body and step.depth == 2:
        return LoopClass.SIMPLE_DOUBLE
    return LoopClass.COMPLEX


def _broadcast_like(e, loop_vars: set[str]) -> bool:
    """A loop-invariant scalar value: a constant, a scalar grid, or a single
    array element with loop-invariant subscripts ("a single value loaded from
    another array", paper §4.1.2)."""
    if isinstance(e, Const):
        return True
    if isinstance(e, GridRef):
        return all(_loop_invariant(i, loop_vars) for i in e.indices)
    return False
