"""Integration reporting.

Summarizes, per generated unit, which of the paper's §3 mechanisms were
exercised: modules imported (§3.1), COMMON blocks referenced (§3.2),
module-scope grids used (§3.3), subroutine-vs-function form (§3.4), TYPE
elements accessed (§3.5), and library functions used (§3.6).  The SARB and
FUN3D validation suites assert these reports show full feature coverage,
which is the reproduction's analogue of the paper "exercising all GLAF
front-ends and back-ends in concert".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codegen.fortran import FortranGenerator
from ..core.expr import LibCall, walk
from ..optimize.plan import OptimizationPlan

__all__ = ["UnitIntegrationSummary", "IntegrationReport", "build_report"]


@dataclass
class UnitIntegrationSummary:
    name: str
    kind: str                                  # 'subroutine' | 'function'
    used_modules: dict[str, list[str]]         # §3.1
    common_blocks: dict[str, list[str]]        # §3.2
    module_scope_used: list[str]               # §3.3
    type_elements: list[str]                   # §3.5, as 'parent%name'
    lib_functions: list[str]                   # §3.6
    omp_step_indices: list[int]


@dataclass
class IntegrationReport:
    program: str
    variant: str
    units: list[UnitIntegrationSummary] = field(default_factory=list)

    def features_exercised(self) -> dict[str, bool]:
        """Which §3 mechanisms the program as a whole exercises."""
        return {
            "existing_module_import (3.1)": any(u.used_modules for u in self.units),
            "common_blocks (3.2)": any(u.common_blocks for u in self.units),
            "module_scope_grids (3.3)": any(u.module_scope_used for u in self.units),
            "subroutines (3.4)": any(u.kind == "subroutine" for u in self.units),
            "type_elements (3.5)": any(u.type_elements for u in self.units),
            "library_functions (3.6)": any(u.lib_functions for u in self.units),
        }

    def to_text(self) -> str:
        lines = [f"Integration report: {self.program} [{self.variant}]"]
        for u in self.units:
            lines.append(f"  {u.kind.upper()} {u.name}")
            for mod, names in sorted(u.used_modules.items()):
                lines.append(f"    USE {mod}: {', '.join(sorted(set(names)))}")
            for blk, names in sorted(u.common_blocks.items()):
                lines.append(f"    COMMON /{blk}/: {', '.join(names)}")
            if u.module_scope_used:
                lines.append(f"    module-scope: {', '.join(u.module_scope_used)}")
            if u.type_elements:
                lines.append(f"    TYPE elements: {', '.join(u.type_elements)}")
            if u.lib_functions:
                lines.append(f"    library funcs: {', '.join(u.lib_functions)}")
            if u.omp_step_indices:
                lines.append(f"    OMP steps: {u.omp_step_indices}")
        feats = self.features_exercised()
        lines.append("  features: " + ", ".join(
            f"{k}={'yes' if v else 'no'}" for k, v in feats.items()))
        return "\n".join(lines)


def build_report(plan: OptimizationPlan) -> IntegrationReport:
    """Generate FORTRAN and summarize the §3 features each unit exercises."""
    gen = FortranGenerator(plan)
    gen.generate_module()
    program = plan.program
    report = IntegrationReport(program=program.name, variant=plan.variant.name)
    module_scope_names = {g.name for g in program.module_scope_grids()}
    for unit in gen.units:
        fn = program.find_function(unit.name)
        referenced = fn.grids_referenced()
        type_elements = sorted(
            f"{g.type_parent}%{g.name}"
            for name in referenced
            if (g := program.global_grids.get(name)) is not None and g.is_type_element
        )
        libs: set[str] = set()
        for step in fn.steps:
            for e in step.all_exprs():
                for node in walk(e):
                    if isinstance(node, LibCall):
                        libs.add(node.name)
        report.units.append(UnitIntegrationSummary(
            name=unit.name,
            kind=unit.kind,
            used_modules=unit.used_modules,
            common_blocks=unit.common_blocks,
            module_scope_used=sorted(referenced & module_scope_names),
            type_elements=type_elements,
            lib_functions=sorted(libs),
            omp_step_indices=unit.omp_steps,
        ))
    return report
