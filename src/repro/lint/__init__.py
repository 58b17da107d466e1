"""Static race detector and parallel-correctness linter (``repro lint``).

A verification layer over the *text* the pipeline emits: it re-parses
generated and spliced FORTRAN, rebuilds each ``!$OMP PARALLEL DO``
region's data-sharing picture from structured clauses plus per-unit
symbol tables, and reports races, inconsistent clauses, and divergence
from the :class:`~repro.optimize.plan.OptimizationPlan` that produced the
code.  See ``docs/STATIC_ANALYSIS.md`` for every rule and its failure
mode, and :mod:`repro.lint.mutation` for the seeded clause-mutation
self-test that keeps the linter honest.
"""

from .crosscheck import collect_units, crosscheck_plan
from .findings import RULES, LintFinding, LintReport, LintRule
from .mutation import MUTANTS, MutantResult, run_mutation_selftest
from .races import lint_unit_body, linear_form
from .runner import LEVELS, lint_case, lint_levels, lint_text
from .symbols import UnitSymbols, build_symbols

__all__ = [
    "RULES", "LintRule", "LintFinding", "LintReport",
    "UnitSymbols", "build_symbols", "lint_unit_body", "linear_form",
    "collect_units", "crosscheck_plan",
    "LEVELS", "lint_text", "lint_case", "lint_levels",
    "MUTANTS", "MutantResult", "run_mutation_selftest",
]
