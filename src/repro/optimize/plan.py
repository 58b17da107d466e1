"""The optimization plan: everything codegen needs beyond the raw IR.

An :class:`OptimizationPlan` bundles the parallelization analysis, the
pruning variant, loop-option decisions and the per-function tweak switches
(the paper's §4.2.1 manual-tweak list) into one object that both the code
generators and the performance simulator consume, so the code that is
*generated* and the code that is *modeled* always agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.parallelize import ParallelPlan, analyze_program
from ..core.function import GlafProgram
from .loops import decide_collapse
from .pruning import DirectiveSet, Variant, directives_for_variant, variant_by_name

__all__ = ["Tweaks", "OptimizationPlan", "make_plan"]


@dataclass(frozen=True)
class Tweaks:
    """The FUN3D manual adaptations (paper §4.2.1), as switches.

    Each switch corresponds to one bullet of the paper's tweak list; code
    generation honors them, and tests assert each changes the emitted code.
    """

    save_inner_arrays: bool = False        # SAVE on function-scope temporaries
    threadprivate_module_arrays: bool = False
    copyprivate_pointers: bool = False     # nested-parallelism sharing
    multi_var_reductions: bool = True      # multiple vars in one REDUCTION list
    atomic_updates: bool = True            # ATOMIC on indirect shared updates
    critical_early_exit: frozenset[str] = frozenset()  # functions with the protocol


@dataclass
class OptimizationPlan:
    """Everything needed to generate one code variant."""

    program: GlafProgram
    parallel_plan: ParallelPlan
    variant: Variant
    directives: DirectiveSet
    tweaks: Tweaks = field(default_factory=Tweaks)
    threads: int = 4
    enable_collapse: bool = True
    # Steps whose directive is force-disabled regardless of variant (used by
    # the FUN3D option lattice: parallelize only selected functions).
    force_serial: frozenset[tuple[str, int]] = frozenset()
    # Steps whose directive is force-enabled (critical-early-exit loops the
    # pruning variant would not have annotated).
    force_parallel: frozenset[tuple[str, int]] = frozenset()
    # Steps annotated with `!$OMP SIMD` instead of PARALLEL DO (the paper's
    # future-work option: "selecting SIMD directives, instead of OpenMP");
    # only meaningful for steps that are not parallel under this plan.
    force_simd: frozenset[tuple[str, int]] = frozenset()

    def step_is_parallel(self, function: str, step_index: int) -> bool:
        key = (function, step_index)
        if key in self.force_serial:
            return False
        if key in self.force_parallel:
            sp = self.parallel_plan.steps.get(key)
            return bool(sp and sp.parallel)
        return bool(self.directives.keep.get(key, False))

    def step_is_simd(self, function: str, step_index: int) -> bool:
        key = (function, step_index)
        if self.step_is_parallel(function, step_index):
            return False
        sp = self.parallel_plan.steps.get(key)
        return key in self.force_simd and bool(sp and sp.parallel)

    def collapse_for(self, function: str, step_index: int) -> int:
        fn = self.program.find_function(function)
        return decide_collapse(fn.steps[step_index], enable=self.enable_collapse).depth

    def reductions_for(self, function: str, step_index: int) -> list[tuple[str, str]]:
        """The ``(grid, op)`` pairs of the step's FORTRAN ``REDUCTION``
        clause, sorted by grid; only the first one unless the
        ``multi_var_reductions`` tweak is on."""
        sp = self.parallel_plan.steps.get((function, step_index))
        reds = sorted(sp.reductions.items()) if sp is not None else []
        return reds if self.tweaks.multi_var_reductions else reds[:1]

    def atomic_update(self, function: str, step_index: int, grid: str) -> bool:
        """Whether the generators emit an assignment to ``grid`` in this step
        as an ``ATOMIC`` update: the step is a plan-parallel loop, the
        analysis made ``grid`` an atomic update there, and the
        ``atomic_updates`` tweak is on."""
        sp = self.parallel_plan.steps.get((function, step_index))
        return (sp is not None and grid in sp.atomic
                and self.tweaks.atomic_updates
                and self.step_is_parallel(function, step_index)
                and self.program.find_function(function).steps[step_index].is_loop)

    def threadprivate_grids(self) -> list[str]:
        """The module-scope arrays the FORTRAN generator declares
        ``THREADPRIVATE`` (the ``threadprivate_module_arrays`` tweak)."""
        if not self.tweaks.threadprivate_module_arrays:
            return []
        return [g.name for g in self.program.module_scope_grids() if g.rank > 0]


def make_plan(
    program: GlafProgram,
    variant: str | Variant = "GLAF-parallel v0",
    *,
    tweaks: Tweaks | None = None,
    threads: int = 4,
    enable_collapse: bool = True,
    force_serial: frozenset[tuple[str, int]] = frozenset(),
    force_parallel: frozenset[tuple[str, int]] = frozenset(),
    force_simd: frozenset[tuple[str, int]] = frozenset(),
) -> OptimizationPlan:
    """Analyze ``program`` and build the plan for one variant."""
    from ..observe import get_metrics, get_tracer

    if isinstance(variant, str):
        variant = variant_by_name(variant)
    tweaks = tweaks or Tweaks()
    with get_tracer().span("optimize.plan", program=program.name,
                           variant=variant.name, threads=threads) as _sp:
        pplan = analyze_program(
            program, critical_early_exit_functions=tweaks.critical_early_exit
        )
        directives = directives_for_variant(program, pplan, variant)
        _sp.set(directives=directives.n_directives())
        get_metrics().gauge("optimize.plan.directives").set(
            directives.n_directives()
        )
    return OptimizationPlan(
        program=program,
        parallel_plan=pplan,
        variant=variant,
        directives=directives,
        tweaks=tweaks,
        threads=threads,
        enable_collapse=enable_collapse,
        force_serial=force_serial,
        force_parallel=force_parallel,
        force_simd=force_simd,
    )
