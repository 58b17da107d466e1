"""Fault tolerance for the GLAF pipeline.

The paper's integration story hinges on trust: generated kernels are
spliced into the legacy code only after side-by-side correctness
comparison (§4, Table 1).  This package mechanizes the "degrade safely"
half of that contract (see ``docs/ROBUSTNESS.md``):

* :mod:`repro.robust.faults` — a seeded, deterministic :class:`FaultPlan`
  that injects faults at named pipeline sites (lexer token corruption,
  dependence-analysis misclassification, numeric perturbation of generated
  Python, artificial errors/delays in the interpreter) through tiny
  :func:`inject` hooks threaded through the pipeline;
* :mod:`repro.robust.watchdog` — :class:`ResourceLimits` iteration/wall-
  clock budgets enforced by the IR interpreter and generated-Python
  execution, raising the typed :class:`repro.errors.ResourceLimitError`;
* :mod:`repro.robust.faultcheck` — the ``repro faultcheck`` sweep: fire
  every registered fault and verify each one is either *recovered* (found
  by a check, or retried, with outputs matching the reference) or
  *surfaced* as a typed GlafError.

The access-conflict check that the ``guarded`` executor runs
(:mod:`repro.glafexec.conflicts`) lives next to the interpreter it
extends.

This ``__init__`` imports only the dependency-light legs (``faults``,
``watchdog``) because the instrumented modules (``fortranlib``,
``analysis``, ``codegen``, ``glafexec``) import it at module load;
``faultcheck`` imports those packages back and must be imported
explicitly.
"""

from .faults import (
    SITES,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    InjectionSite,
    inject,
)
from .watchdog import (Budget, ResourceLimits, apply_memory_limit,
                       wall_clock_guard)

__all__ = [
    "SITES", "FaultEvent", "FaultPlan", "FaultSpec", "InjectionSite", "inject",
    "Budget", "ResourceLimits", "apply_memory_limit", "wall_clock_guard",
]
