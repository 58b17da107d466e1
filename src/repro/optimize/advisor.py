"""Model-guided directive selection — the paper's proposed future work.

§4.1.2: "As future work, we suggest the incorporation of a performance
prediction/modeling back-end that will guide the automatic code generation
in a more intelligent way (e.g., selecting SIMD directives, instead of
OpenMP, or neither)."  §4.2.2 adds: "an option to GLAF could be added to
limit such excessive reallocation automatically."

This module implements both:

* :func:`advise` evaluates, per parallelizable step, the predicted run time
  with and without its OpenMP directive (everything else held fixed) and
  keeps the directive only where the model says threading wins.  The
  result is an ``OptimizationPlan`` with a synthetic ``GLAF-parallel auto``
  variant whose directive set is chosen by measurement rather than by the
  paper's manual v0->v3 class pruning.
* :func:`auto_no_reallocation` detects allocatable temporaries in functions
  reached from inside (potential) parallel loops and returns the tweak set
  that SAVEs them — the automated version of the FUN3D manual adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.function import GlafProgram
from ..core.step import CallStmt, walk_stmts
from .plan import OptimizationPlan, Tweaks, make_plan
from .pruning import DirectiveSet, Variant

__all__ = ["AdvisorDecision", "AdvisorReport", "advise", "auto_no_reallocation"]


@dataclass(frozen=True)
class AdvisorDecision:
    """One loop's three-way verdict: OpenMP, SIMD directive, or neither —
    the exact choice set the paper's future-work paragraph names."""

    function: str
    step_index: int
    step_name: str
    loop_class: str
    cycles_with_omp: float
    cycles_without_omp: float
    cycles_with_simd: float
    choice: str                        # 'omp' | 'simd' | 'none'

    @property
    def keep_directive(self) -> bool:
        return self.choice == "omp"

    @property
    def benefit(self) -> float:
        """Predicted cycles saved vs the worst option (>= 0)."""
        worst = max(self.cycles_with_omp, self.cycles_without_omp,
                    self.cycles_with_simd)
        best = min(self.cycles_with_omp, self.cycles_without_omp,
                   self.cycles_with_simd)
        return worst - best


@dataclass
class AdvisorReport:
    decisions: list[AdvisorDecision] = field(default_factory=list)

    def kept(self) -> list[AdvisorDecision]:
        return [d for d in self.decisions if d.keep_directive]

    def dropped(self) -> list[AdvisorDecision]:
        return [d for d in self.decisions if not d.keep_directive]

    def simd(self) -> list[AdvisorDecision]:
        return [d for d in self.decisions if d.choice == "simd"]

    def to_text(self) -> str:
        lines = ["Model-guided directive selection (omp / simd / none):"]
        for d in self.decisions:
            lines.append(
                f"  [{d.choice:4s}] {d.function}/{d.step_name} "
                f"({d.loop_class}): omp={d.cycles_with_omp:.0f}cy "
                f"simd={d.cycles_with_simd:.0f}cy "
                f"none={d.cycles_without_omp:.0f}cy"
            )
        return "\n".join(lines)


def advise(
    program: GlafProgram,
    machine,
    workload,
    *,
    threads: int = 4,
    tweaks: Tweaks | None = None,
) -> tuple[OptimizationPlan, AdvisorReport]:
    """Choose the directive set by per-step what-if simulation.

    Starting from the all-directives plan (v0), each parallelizable step is
    toggled serial in isolation; the model-predicted total decides whether
    the directive stays.  Greedy per-step toggling is exact here because
    the simulator's step costs are additive.
    """
    from ..observe import get_decisions, get_tracer

    with get_tracer().span("optimize.advisor", program=program.name,
                           threads=threads) as _sp:
        auto_plan, report = _advise(program, machine, workload,
                                    threads=threads, tweaks=tweaks)
        _sp.set(kept=len(report.kept()), simd=len(report.simd()),
                dropped=len(report.dropped()))
    decisions = get_decisions()
    if decisions.enabled:
        for d in report.decisions:
            decisions.record(
                "advisor", d.function, d.step_index, d.step_name, d.choice,
                loop_class=d.loop_class,
                reasons=(
                    f"model cycles: omp={d.cycles_with_omp:.0f} "
                    f"simd={d.cycles_with_simd:.0f} "
                    f"none={d.cycles_without_omp:.0f}",
                ),
            )
    return auto_plan, report


def _advise(
    program: GlafProgram,
    machine,
    workload,
    *,
    threads: int = 4,
    tweaks: Tweaks | None = None,
) -> tuple[OptimizationPlan, AdvisorReport]:
    from ..perf.simulate import SimOptions, Simulator
    from ..analysis.classify import classify_step

    base_plan = make_plan(program, "GLAF-parallel v0", threads=threads,
                          tweaks=tweaks or Tweaks())
    options = SimOptions(threads=threads)

    def total(plan: OptimizationPlan) -> float:
        return Simulator(plan, machine, workload, options).run().total_cycles

    report = AdvisorReport()
    candidates = [sp for sp in base_plan.parallel_plan.steps.values() if sp.parallel]
    choice: dict[tuple[str, int], str] = {
        (sp.function, sp.step_index): "omp" for sp in candidates
    }

    def plan_for(choices: dict[tuple[str, int], str]) -> OptimizationPlan:
        serial = frozenset(k for k, v in choices.items() if v != "omp")
        simd = frozenset(k for k, v in choices.items() if v == "simd")
        return replace_plan_force(base_plan, serial=serial, simd=simd)

    # Coordinate descent: directives interact (a parallel caller amortizes
    # an expensive callee; nested regions multiply), so a single greedy
    # pass over the all-OMP plan can mis-rank options.  Re-evaluating each
    # loop against the *current* choices of all the others converges here
    # in two or three passes (the objective decreases monotonically).
    trio_cycles: dict[tuple[str, int], dict[str, float]] = {}
    for _pass in range(5):
        changed = False
        for sp in candidates:
            key = (sp.function, sp.step_index)
            cycles = {}
            for option in ("none", "simd", "omp"):
                trial = dict(choice)
                trial[key] = option
                cycles[option] = total(plan_for(trial))
            trio_cycles[key] = cycles
            best = min(("none", "simd", "omp"), key=lambda o: cycles[o])
            if best != choice[key]:
                choice[key] = best
                changed = True
        if not changed:
            break

    for sp in candidates:
        key = (sp.function, sp.step_index)
        fn = program.find_function(sp.function)
        cycles = trio_cycles[key]
        report.decisions.append(AdvisorDecision(
            function=sp.function,
            step_index=sp.step_index,
            step_name=sp.step_name,
            loop_class=classify_step(fn.steps[sp.step_index]).value,
            cycles_with_omp=cycles["omp"],
            cycles_without_omp=cycles["none"],
            cycles_with_simd=cycles["simd"],
            choice=choice[key],
        ))

    dropped = frozenset(k for k, v in choice.items() if v != "omp")
    simd_set = frozenset(k for k, v in choice.items() if v == "simd")
    variant = Variant(
        name="GLAF-parallel auto",
        description="Directive set selected by the performance-model advisor "
                    "(the paper's proposed future work)",
        glaf_generated=True,
        parallel=True,
    )
    ds = DirectiveSet(variant=variant)
    for key, sp in base_plan.parallel_plan.steps.items():
        ds.keep[key] = bool(sp.parallel) and key not in dropped
        ds.loop_class[key] = base_plan.directives.loop_class[key]
    auto_plan = OptimizationPlan(
        program=program,
        parallel_plan=base_plan.parallel_plan,
        variant=variant,
        directives=ds,
        tweaks=base_plan.tweaks,
        threads=threads,
        force_simd=simd_set,
    )
    return auto_plan, report


def replace_plan_force(plan: OptimizationPlan, serial: frozenset,
                       simd: frozenset = frozenset()) -> OptimizationPlan:
    """A copy of ``plan`` with extra force-serial / force-simd keys."""
    return OptimizationPlan(
        program=plan.program,
        parallel_plan=plan.parallel_plan,
        variant=plan.variant,
        directives=plan.directives,
        tweaks=plan.tweaks,
        threads=plan.threads,
        enable_collapse=plan.enable_collapse,
        force_serial=plan.force_serial | serial,
        force_parallel=plan.force_parallel,
        force_simd=plan.force_simd | simd,
    )


def auto_no_reallocation(program: GlafProgram, plan: OptimizationPlan) -> tuple[Tweaks, list[str]]:
    """Detect functions whose allocatable temporaries would be re-allocated
    inside a parallel region, and return tweaks that SAVE them.

    A function qualifies when (a) it owns allocatable local arrays and
    (b) it is reachable from a call statement inside a step the plan
    parallelizes (directly or transitively) — the automated form of the
    paper's "option to GLAF ... to limit such excessive reallocation".
    """
    # Functions called (transitively) from parallel steps.
    called_from_parallel: set[str] = set()

    def visit(fname: str) -> None:
        if fname in called_from_parallel:
            return
        called_from_parallel.add(fname)
        try:
            fn = program.find_function(fname)
        except KeyError:
            return
        for callee in fn.called_functions():
            visit(callee)

    for (fname, idx) in plan.directives.keep:
        if not plan.step_is_parallel(fname, idx):
            continue
        fn = program.find_function(fname)
        step = fn.steps[idx]
        for s in walk_stmts(step.stmts):
            if isinstance(s, CallStmt):
                visit(s.name)

    offenders = sorted(
        fn.name
        for fn in program.functions()
        if fn.name in called_from_parallel
        and any(g.allocatable and g.rank > 0 for g in fn.local_grids().values())
    )
    tweaks = replace(plan.tweaks, save_inner_arrays=bool(offenders))
    return tweaks, offenders
