"""End-to-end lint drivers: sources → findings, case studies → reports.

``repro lint`` (the CLI) calls :func:`lint_levels`, which regenerates the
SARB and FUN3D case-study outputs at each pruning level — the whole
generated MODULE *and* the spliced legacy codebase — and runs every
analysis over them:

1. parse (structured ``!$OMP`` clauses attach to their loops),
2. per-unit symbol tables (COMMON / USE / host-module channels),
3. race + clause analysis (:mod:`repro.lint.races`),
4. plan-vs-text cross-check (:mod:`repro.lint.crosscheck`).

The IR itself is validated first with ``validate_program(...,
collect=True)`` so a malformed program reports *all* structural errors in
one DiagnosticBundle instead of failing one error at a time.
"""

from __future__ import annotations

from ..core.validate import validate_program
from ..fortranlib.ast import FModule, FSourceFile
from ..fortranlib.parser import parse_source
from .crosscheck import collect_units, crosscheck_plan
from .findings import LintReport
from .races import lint_unit_body
from .symbols import build_symbols

__all__ = ["LEVELS", "lint_parsed", "lint_text", "lint_case",
           "lint_levels"]

# CLI level -> pruning-variant name (Table 2).
LEVELS: dict[str, str] = {f"v{n}": f"GLAF-parallel v{n}" for n in range(4)}


def lint_parsed(parsed: dict[str, FSourceFile], *, legacy=None,
                label: str = "", dataflow: bool = False,
                plan=None) -> LintReport:
    """Lint already-parsed files as one batch (modules defined in any of
    the files resolve wildcard USEs in all of them).  With ``dataflow``,
    the interprocedural fixpoint pass (use-before-def, dead stores,
    bounds, INTENT) runs over the same batch.  With ``plan``, the
    directives of every file's units are cross-checked against it last."""
    report = LintReport(label=label)
    siblings: dict[str, FModule] = {}
    for out in parsed.values():
        for mod in out.modules:
            siblings[mod.name.lower()] = mod
    for out in parsed.values():
        for mod in out.modules:
            for sub in mod.subprograms:
                syms = build_symbols(sub, host=mod, legacy=legacy,
                                     siblings=siblings)
                lint_unit_body(sub, syms, report)
        for sub in out.subprograms:
            syms = build_symbols(sub, legacy=legacy, siblings=siblings)
            lint_unit_body(sub, syms, report)
        for prog in out.programs:
            syms = build_symbols(prog, legacy=legacy, siblings=siblings)
            lint_unit_body(prog, syms, report)
            for sub in prog.subprograms:
                syms = build_symbols(sub, legacy=legacy, siblings=siblings)
                lint_unit_body(sub, syms, report)
    if dataflow:
        from .dataflow import run_dataflow

        run_dataflow(parsed, report, legacy=legacy)
    if plan is not None:
        units: dict = {}
        for out in parsed.values():
            units.update(collect_units(out))
        crosscheck_plan(plan, units, report)
    return report


def lint_text(source: str, *, plan=None, label: str = "",
              dataflow: bool = False) -> LintReport:
    """Lint one source text; with ``plan``, cross-check directives too."""
    return lint_parsed({"<source>": parse_source(source)}, label=label,
                       dataflow=dataflow, plan=plan)


# ----------------------------------------------------------------------
# case studies
# ----------------------------------------------------------------------

def _build_case(name: str):
    """(case, program, legacy codebase) on the case's sample input."""
    from ..cases import get_case

    case = get_case(name)
    inp = case.sample()
    return case, case.program(inp), case.legacy_codebase(case.sources(inp))


def lint_case(case: str, variant: str, *, spliced: bool = True,
              dataflow: bool = False) -> LintReport:
    """Lint one case study at one pruning variant.

    Covers the generated MODULE and (by default) the spliced legacy
    codebase — legacy units that surround the replacements included —
    with the plan cross-check applied to both.
    """
    from ..observe import get_tracer

    with get_tracer().span("lint.case", case=case, variant=variant):
        return _lint_case(case, variant, spliced=spliced, dataflow=dataflow)


def _lint_case(case: str, variant: str, *, spliced: bool,
               dataflow: bool = False) -> LintReport:
    from ..codegen.fortran import FortranGenerator
    from ..integration.splice import splice_into_codebase
    from ..optimize.plan import make_plan

    study, program, legacy = _build_case(case)
    validate_program(program, collect=True)
    plan = make_plan(program, variant)

    gen_source = FortranGenerator(plan).generate_module()
    report = lint_parsed({"generated.f90": parse_source(gen_source)},
                         legacy=legacy, label=f"{case} {variant}",
                         dataflow=dataflow, plan=plan)

    if spliced:
        result = splice_into_codebase(plan, legacy, list(study.units),
                                      add_missing=study.add_missing)
        sources = dict(result.files)
        if result.support_source:
            sources["glaf_support_module.f90"] = result.support_source
        parsed = {f: parse_source(src) for f, src in sorted(sources.items())}
        report.merge(lint_parsed(parsed, legacy=legacy, dataflow=dataflow,
                                 plan=plan))
    return report


def lint_levels(levels: list[str] | None = None,
                cases: tuple[str, ...] = ("sarb", "fun3d"),
                dataflow: bool = False) -> LintReport:
    """Lint every case at every requested level; one merged deduplicated
    report.

    A finding that recurs at several pruning levels (the same rule on
    the same unit and line) is reported once, with every level it
    appeared at recorded in :attr:`LintFinding.levels` — so ``--json``
    consumers see one entry with ``levels: [...]`` instead of four
    copies.
    """
    from dataclasses import replace

    levels = levels or sorted(LEVELS)
    combined = LintReport(label=f"{'+'.join(cases)} @ {','.join(levels)}")
    order: list[tuple[str, str, int]] = []
    first: dict[tuple[str, str, int], "LintFinding"] = {}
    seen_levels: dict[tuple[str, str, int], list[str]] = {}
    for case in cases:
        for level in levels:
            report = lint_case(case, LEVELS[level], dataflow=dataflow)
            combined.units += report.units
            combined.regions += report.regions
            for f in report.findings:
                key = (f.rule, f.unit, f.line)
                if key not in first:
                    first[key] = f
                    seen_levels[key] = []
                    order.append(key)
                if level not in seen_levels[key]:
                    seen_levels[key].append(level)
    for key in order:
        combined.findings.append(
            replace(first[key], levels=tuple(seen_levels[key])))
    return combined
