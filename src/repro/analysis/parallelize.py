"""The auto-parallelization back-end.

For every step of every function this module decides whether the step's loop
nest can be executed in parallel, and with which OpenMP clauses.  The result
(a :class:`StepParallelism` per step, collected into a
:class:`ParallelPlan`) drives code generation: GLAF-parallel v0 annotates
**every** parallelizable loop (paper Table 2), and the optimization
back-end's pruning pipeline then removes directives class by class.

Decision procedure per step:

1. No loop nest → not a parallelization candidate.
2. Early loop exit / return inside the nest → not parallel (unless the
   CRITICAL early-return protocol is explicitly enabled — the FUN3D
   ``ioff_search`` manual tweak, §4.2.1).
3. Recognize reductions (``REDUCTION(op:var)`` clauses).
4. Classify remaining written grids: private temporaries → ``PRIVATE``;
   injectively-indexed outputs → shared; scalar or colliding writes that are
   not reductions → **serial**.
5. Writes through indirect subscripts (``a(ioff) = a(ioff) + x``) are
   allowed only as atomic updates (``!$OMP ATOMIC``), matching the paper's
   "atomic update clauses added to parallel updates" tweak.
6. Loop-carried dependences at constant distance → serial.
7. Calls to other GLAF functions: the callee's transitive write effects on
   global/module/COMMON grids are treated as shared writes; they do not
   serialize the loop but are recorded so code generation can apply the
   private/copyprivate handling the paper describes (§4.2.1).
8. A multi-dimensional nest gets ``COLLAPSE(depth)`` (the paper's SARB
   kernels show ``COLLAPSE(2)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.expr import walk
from ..core.function import GlafFunction, GlafProgram
from ..core.step import Assign, CallStmt, ExitLoop, Return, Step, walk_stmts
from ..observe import get_decisions, get_metrics, get_tracer
from ..robust import inject
from .accesses import step_accesses
from .dependence import DepKind, may_alias, test_alias_pair, test_pair, write_is_injective
from .privatization import classify_privates
from .reductions import find_reductions

__all__ = ["StepParallelism", "ParallelPlan", "analyze_step", "analyze_program",
           "callee_write_effects"]


@dataclass
class StepParallelism:
    """Parallelization verdict and clause set for one step."""

    function: str
    step_index: int
    step_name: str
    parallel: bool
    reasons: list[str] = field(default_factory=list)
    private: list[str] = field(default_factory=list)
    firstprivate: list[str] = field(default_factory=list)
    reductions: dict[str, str] = field(default_factory=dict)   # grid -> omp op
    atomic: list[str] = field(default_factory=list)            # grids needing ATOMIC
    critical_early_exit: bool = False                          # ioff_search protocol
    collapse: int = 1
    callee_shared_writes: list[str] = field(default_factory=list)
    depth: int = 0

    @property
    def key(self) -> tuple[str, int]:
        return (self.function, self.step_index)


@dataclass
class ParallelPlan:
    """Program-wide parallelization analysis."""

    program_name: str
    steps: dict[tuple[str, int], StepParallelism] = field(default_factory=dict)

    def for_function(self, name: str) -> list[StepParallelism]:
        return [sp for (f, _), sp in sorted(self.steps.items()) if f == name]

    def get(self, function: str, step_index: int) -> StepParallelism:
        return self.steps[(function, step_index)]

    def parallel_steps(self) -> list[StepParallelism]:
        return [sp for sp in self.steps.values() if sp.parallel]


def callee_write_effects(
    program: GlafProgram, fname: str, _seen: frozenset[str] = frozenset()
) -> set[str]:
    """Global-scope grids written (transitively) by calling ``fname``.

    Dummy-argument writes are the caller's concern (the argument grids show
    up in the caller's own access set); what a caller cannot see locally is
    the callee touching module-scope / COMMON / imported grids.
    """
    if fname in _seen:
        return set()
    try:
        fn = program.find_function(fname)
    except KeyError:
        return set()
    written: set[str] = set()
    for step in fn.steps:
        for s in walk_stmts(step.stmts):
            if isinstance(s, Assign):
                g = s.target.grid
                if g not in fn.grids and g in program.global_grids:
                    written.add(g)
            elif isinstance(s, CallStmt):
                written |= callee_write_effects(
                    program, s.name, _seen | {fname}
                )
    return written


def analyze_step(
    program: GlafProgram,
    fn: GlafFunction,
    step_index: int,
    *,
    allow_critical_early_exit: bool = False,
) -> StepParallelism:
    with get_tracer().span("analysis.step", function=fn.name, step=step_index):
        sp = _analyze_step(
            program, fn, step_index,
            allow_critical_early_exit=allow_critical_early_exit,
        )
    sp = inject("analysis.parallelize.verdict", sp,
                function=fn.name, step=step_index) or sp
    decisions = get_decisions()
    if decisions.enabled:
        from .classify import classify_step

        attrs: dict[str, object] = {}
        if sp.collapse > 1:
            attrs["collapse"] = sp.collapse
        if sp.reductions:
            attrs["reductions"] = ",".join(sorted(sp.reductions))
        if sp.atomic:
            attrs["atomic"] = ",".join(sp.atomic)
        decisions.record(
            "parallelize", fn.name, step_index, sp.step_name,
            "parallel" if sp.parallel else "serial",
            loop_class=classify_step(fn.steps[step_index]).value,
            reasons=sp.reasons,
            **attrs,
        )
    return sp


def _analyze_step(
    program: GlafProgram,
    fn: GlafFunction,
    step_index: int,
    *,
    allow_critical_early_exit: bool = False,
) -> StepParallelism:
    step = fn.steps[step_index]
    sp = StepParallelism(
        function=fn.name,
        step_index=step_index,
        step_name=step.name,
        parallel=False,
        depth=step.depth,
    )
    if not step.is_loop:
        sp.reasons.append("no loop nest")
        return sp

    loop_vars = step.index_names()

    # --- early exit control flow -------------------------------------
    has_exit = any(isinstance(s, (ExitLoop, Return)) for s in walk_stmts(step.stmts))
    if has_exit:
        if allow_critical_early_exit:
            sp.critical_early_exit = True
            sp.reasons.append(
                "early exit guarded by OMP CRITICAL early-return protocol"
            )
        else:
            sp.reasons.append("early loop exit / return inside nest")
            return sp

    reductions = find_reductions(step)
    # An update whose subscripts already map iterations to distinct elements
    # (e.g. ``flux(i) = flux(i) * c`` in an i-loop) needs no REDUCTION
    # clause — it is an ordinary independent write.
    from .accesses import affine_form

    for g in list(reductions):
        r = reductions[g]
        idx_forms = tuple(affine_form(ix, set(loop_vars)) for ix in r.indices)
        if idx_forms and any(f is None for f in idx_forms):
            # Indirect subscripts (e.g. ``jac(ioff, k) += x``) cannot become
            # REDUCTION clauses; they take the ATOMIC-update path instead
            # (the paper's §4.2.1 atomic tweak).
            del reductions[g]
            continue
        if idx_forms and all(f is not None for f in idx_forms):
            from .accesses import Access

            probe = Access(grid=g, indices=r.indices, is_write=True, stmt_pos=0,
                           affine=idx_forms)
            if write_is_injective(probe, loop_vars):
                del reductions[g]
    priv = classify_privates(program, fn, step)

    accesses = step_accesses(step)
    writes = [a for a in accesses if a.is_write]
    serial_reasons: list[str] = []
    atomic: set[str] = set()

    for w in writes:
        g = w.grid
        if g in reductions:
            continue
        if g in priv.private or g in priv.firstprivate:
            continue
        if not w.fully_affine:
            # Indirect subscript. An update of the form g(idx) = g(idx) + e
            # can be made safe with an atomic clause; anything else is a
            # potential write-write race we cannot order.
            if _is_self_update(step, w.grid, w.indices):
                atomic.add(g)
                continue
            serial_reasons.append(f"indirect write to {g} is not an atomic-able update")
            continue
        if not write_is_injective(w, loop_vars):
            serial_reasons.append(
                f"write to {g}{_fmt_idx(w)} collides across iterations "
                "(not a recognized reduction or private temporary)"
            )
            continue
        # Injective write: check distances against every other access —
        # including accesses to *different-named* grids that may share
        # storage through a COMMON block or a derived-TYPE overlay (§3.2,
        # §3.5), which affine comparison cannot reason about.
        for other in accesses:
            if other is w:
                continue
            if other.grid != g:
                if not _grids_may_alias(program, fn, g, other.grid):
                    continue
                dep = test_alias_pair(w, other, loop_vars)
            else:
                dep = test_pair(w, other, loop_vars)
            if dep.kind in (DepKind.LOOP_CARRIED, DepKind.UNKNOWN):
                serial_reasons.append(
                    f"dependence on {g}: {dep.detail or dep.kind.value}"
                )
                break

    # --- callee effects ------------------------------------------------
    from ..core.expr import FuncCall

    callee_writes: set[str] = set()
    for s in walk_stmts(step.stmts):
        if isinstance(s, CallStmt):
            callee_writes |= callee_write_effects(program, s.name)
    for e in step.all_exprs():
        for node in walk(e):
            if isinstance(node, FuncCall):
                callee_writes |= callee_write_effects(program, node.name)
    sp.callee_shared_writes = sorted(callee_writes)

    sp.reductions = {g: r.op for g, r in reductions.items()}
    # Reduction variables get their own clause; inner loop indices are
    # always private in an OpenMP DO nest.
    sp.private = sorted((priv.private - set(reductions)) | set(loop_vars[1:]))
    sp.firstprivate = sorted(priv.firstprivate - set(reductions))
    sp.atomic = sorted(atomic)

    if serial_reasons:
        sp.reasons.extend(serial_reasons)
        sp.parallel = False
        return sp

    sp.parallel = True
    sp.collapse = step.depth if step.depth > 1 and not _inner_vars_in_bounds(step) else 1
    if sp.collapse > 1:
        sp.reasons.append(f"perfect nest collapsed with COLLAPSE({sp.collapse})")
    if not sp.reasons:
        sp.reasons.append("no loop-carried dependences detected")
    return sp


def _grids_may_alias(
    program: GlafProgram, fn: GlafFunction, a: str, b: str
) -> bool:
    """Alias test by name, tolerant of unresolvable (builtin/implicit) refs."""
    try:
        ga = program.resolve_grid(fn, a)
        gb = program.resolve_grid(fn, b)
    except KeyError:
        return False
    return may_alias(ga, gb)


def _inner_vars_in_bounds(step: Step) -> bool:
    """True if an inner range bound depends on an outer index variable
    (a triangular nest), which forbids COLLAPSE."""
    from ..core.expr import index_vars_used

    outer: set[str] = set()
    for r in step.ranges:
        for e in (r.start, r.end, r.step):
            if index_vars_used(e) & outer:
                return True
        outer.add(r.var)
    return False


def _is_self_update(step: Step, grid: str, indices: tuple) -> bool:
    """Every write of ``grid`` in the step is ``g(i...) = g(i...) op e``."""
    from .reductions import _match_update

    for s in walk_stmts(step.stmts):
        if isinstance(s, Assign) and s.target.grid == grid:
            if _match_update(s) is None:
                return False
    return True


def _fmt_idx(a) -> str:
    if not a.indices:
        return ""
    return "(" + ", ".join(repr(i) for i in a.indices) + ")"


def analyze_program(
    program: GlafProgram,
    *,
    critical_early_exit_functions: frozenset[str] | set[str] = frozenset(),
) -> ParallelPlan:
    """Analyze every step of every function."""
    with get_tracer().span("analysis.parallelize", program=program.name) as tsp:
        plan = ParallelPlan(program_name=program.name)
        for fn in program.functions():
            allow = fn.name in critical_early_exit_functions
            for i in range(len(fn.steps)):
                sp = analyze_step(program, fn, i, allow_critical_early_exit=allow)
                plan.steps[sp.key] = sp
        n_par = sum(1 for sp in plan.steps.values() if sp.parallel)
        tsp.set(steps=len(plan.steps), parallel=n_par)
        m = get_metrics()
        m.counter("analysis.steps").inc(len(plan.steps))
        m.counter("analysis.steps.parallel").inc(n_par)
    return plan
