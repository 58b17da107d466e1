"""Seeded mutation self-test: can the linter catch known-bad code?

A linter that has never seen a bug is untrustworthy.  This module drives
the fault-injection registry to corrupt one generated module per run,
then lints the mutant and demands a nonzero finding count.  Two sites
feed the corpus:

* ``codegen.fortran.omp`` — directive-clause mutants for the structural
  rules: drop a PRIVATE, drop a REDUCTION, widen a COLLAPSE, suppress a
  directive, or conjure one onto a serial loop;
* ``codegen.fortran.body`` — statement mutants for the dataflow rules:
  delete an initialization (use-before-def), widen a literal DO bound
  past an array edge (possible-oob), store to a never-read array
  (dead-store), or flip a scalar INTENT(IN) to OUT (intent-violation).

The corpus spans both case studies and several pruning levels;
``repro lint --selftest`` (and CI) fail unless **every** mutant both
fires and is caught.

A dropped PRIVATE on a *collapsed* index is semantically harmless (the
index is predetermined private), so some mutants are detectable only by
the plan-vs-text cross-check — which is why the cross-check is part of
the linter, not an optional extra.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..robust.faults import FaultPlan, FaultSpec
from ..runconfig import configured
from .findings import LintReport

__all__ = ["Mutant", "MutantResult", "MUTANTS", "run_mutation_selftest"]


@dataclass(frozen=True)
class Mutant:
    """One planned corruption of a generated module."""

    id: str
    case: str                     # 'sarb' | 'fun3d'
    variant: str                  # pruning-variant name
    kind: str                     # a fault kind the site supports
    function: str                 # match: only fire in this function
    serial_target: bool = False   # match loops the plan left serial
    site: str = "codegen.fortran.omp"

    def spec(self) -> FaultSpec:
        match: dict[str, object] = {"function": self.function}
        if self.serial_target:
            match["parallel"] = False
        return FaultSpec(site=self.site, kind=self.kind, match=match)


# Dataflow mutants ride the codegen.fortran.body site.
_BODY = "codegen.fortran.body"

# The corpus: distinct mutants covering every fault kind of both sites,
# both case studies, and more than one pruning level.
MUTANTS: tuple[Mutant, ...] = (
    Mutant("sarb-drop-private-lw", "sarb", "GLAF-parallel v0",
           "drop-private", "lw_spectral_integration"),
    Mutant("sarb-drop-private-lwent", "sarb", "GLAF-parallel v0",
           "drop-private", "longwave_entropy_model"),
    Mutant("fun3d-drop-private-edge", "fun3d", "GLAF-parallel v0",
           "drop-private", "edge_loop"),
    Mutant("fun3d-drop-private-cell", "fun3d", "GLAF-parallel v0",
           "drop-private", "cell_loop"),
    Mutant("sarb-drop-reduction-lw", "sarb", "GLAF-parallel v0",
           "drop-reduction", "lw_spectral_integration"),
    Mutant("sarb-drop-reduction-lwent-v3", "sarb", "GLAF-parallel v3",
           "drop-reduction", "longwave_entropy_model"),
    Mutant("fun3d-drop-reduction-cell", "fun3d", "GLAF-parallel v0",
           "drop-reduction", "cell_loop"),
    Mutant("fun3d-drop-reduction-cell-v3", "fun3d", "GLAF-parallel v3",
           "drop-reduction", "cell_loop"),
    Mutant("sarb-widen-collapse-lw", "sarb", "GLAF-parallel v0",
           "widen-collapse", "lw_spectral_integration"),
    Mutant("fun3d-widen-collapse-cell", "fun3d", "GLAF-parallel v0",
           "widen-collapse", "cell_loop"),
    Mutant("sarb-drop-directive-sw", "sarb", "GLAF-parallel v0",
           "drop-directive", "sw_spectral_integration"),
    Mutant("fun3d-drop-directive-edge", "fun3d", "GLAF-parallel v0",
           "drop-directive", "edge_loop"),
    Mutant("sarb-spurious-adjust2", "sarb", "GLAF-parallel v0",
           "spurious-directive", "adjust2", serial_target=True),
    Mutant("fun3d-spurious-ioff", "fun3d", "GLAF-parallel v0",
           "spurious-directive", "ioff_search", serial_target=True),
    # -- dataflow mutants (codegen.fortran.body) -----------------------
    Mutant("fun3d-drop-init-edge", "fun3d", "GLAF-parallel v0",
           "drop-init", "edge_loop", site=_BODY),
    Mutant("fun3d-drop-init-cell", "fun3d", "GLAF-parallel v0",
           "drop-init", "cell_loop", site=_BODY),
    Mutant("fun3d-overrun-edge", "fun3d", "GLAF-parallel v0",
           "overrun-bound", "edge_loop", site=_BODY),
    Mutant("fun3d-overrun-edge-v3", "fun3d", "GLAF-parallel v3",
           "overrun-bound", "edge_loop", site=_BODY),
    Mutant("fun3d-dead-store-edge", "fun3d", "GLAF-parallel v0",
           "dead-store", "edge_loop", site=_BODY),
    Mutant("sarb-flip-intent-lw", "sarb", "GLAF-parallel v0",
           "flip-intent", "lw_spectral_integration", site=_BODY),
    Mutant("sarb-flip-intent-sw-v3", "sarb", "GLAF-parallel v3",
           "flip-intent", "sw_spectral_integration", site=_BODY),
    Mutant("fun3d-flip-intent-cell", "fun3d", "GLAF-parallel v0",
           "flip-intent", "cell_loop", site=_BODY),
)


@dataclass
class MutantResult:
    """Outcome of one mutant run."""

    mutant: Mutant
    fired: bool                   # the fault transform actually applied
    caught: bool                  # the linter reported >= 1 finding
    fault_detail: str
    rules: tuple[str, ...]        # which lint rules tripped

    @property
    def ok(self) -> bool:
        return self.fired and self.caught


def run_mutant(mutant: Mutant, *, seed: int = 0
               ) -> tuple[MutantResult, LintReport]:
    """Generate the case's module with the mutation armed, then lint it."""
    from ..cases import get_case
    from ..codegen.fortran import FortranGenerator
    from ..optimize.plan import make_plan
    from .runner import lint_text

    case = get_case(mutant.case)
    plan = make_plan(case.program(case.sample()), mutant.variant)
    fp = FaultPlan([mutant.spec()], seed=seed)
    with configured(faults=fp):
        source = FortranGenerator(plan).generate_module()
    fired = bool(fp.fired)
    report = lint_text(source, plan=plan,
                       label=f"mutant {mutant.id}", dataflow=True)
    result = MutantResult(
        mutant=mutant,
        fired=fired,
        caught=fired and not report.ok,
        fault_detail=fp.fired[0].detail if fp.fired else "did not fire",
        rules=tuple(sorted({f.rule for f in report.findings})),
    )
    return result, report


def run_mutation_selftest(
    *, seed: int = 0, mutants: tuple[Mutant, ...] | None = None
) -> list[MutantResult]:
    """Run the corpus (or a subset); callers assert ``all(r.ok)``."""
    return [run_mutant(m, seed=seed)[0] for m in (mutants or MUTANTS)]
