"""Dataflow lint pass: drives :mod:`repro.analysis.dataflow` per batch.

The structural linter in :mod:`repro.lint.races` inspects one directive
at a time; this pass complements it with whole-unit fixpoint analyses —
may-uninitialized (use-before-def + INTENT contracts), backward liveness
(dead stores), and interval range propagation (static subscript bounds
and constant-false parallel guards).  It shares the structural linter's
batch model: all units in a parsed batch are modeled first so that CALL
sites resolve against inferred INTENT summaries of sibling units rather
than worst-case assumptions.

Findings land in the same :class:`~repro.lint.findings.LintReport` under
the ``use-before-def`` / ``dead-store`` / ``possible-oob`` /
``intent-violation`` / ``const-false-guard`` rules, and therefore emit
the same ``lint:<rule>`` DecisionLog events as every other rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.dataflow import (
    RangeSummary,
    build_model,
    build_unit_cfg,
    check_bounds,
    dead_stores,
    infer_summaries,
    solve_ranges,
    analyze_uninit,
)
from ..fortranlib.ast import (
    FDecl,
    FModule,
    FProgramUnit,
    FSourceFile,
    FSubprogram,
)
from .findings import LintFinding, LintReport
from .symbols import build_symbols

__all__ = ["UnitRanges", "run_dataflow", "analyze_batch_ranges",
           "analyze_case_ranges"]


@dataclass
class UnitRanges:
    """Range/bounds result for one unit, for ``analyze --ranges``."""

    unit: str
    summary: RangeSummary = field(default_factory=RangeSummary)

    def to_json(self) -> dict[str, object]:
        return {
            "unit": self.unit,
            "subscripts": {
                "proven": self.summary.proven,
                "possible_oob": self.summary.possible,
                "unknown": self.summary.unknown,
            },
            "issues": [
                {"array": i.array, "dim": i.dim, "line": i.line,
                 "detail": i.detail}
                for i in self.summary.issues
            ],
            "exit_ranges": {n: [iv.lo, iv.hi]
                            for n, iv in sorted(
                                self.summary.exit_env.items())},
        }


def _module_extents(mod: FModule) -> dict[str, tuple[int | None, ...]]:
    """Extents of arrays declared at module scope (constant when
    knowable, None per deferred dimension — registering a module
    allocatable as an array at all is what keeps ``a(i, j)`` references
    to it from being misread as function calls)."""
    from ..analysis.dataflow.model import _const_int

    out: dict[str, tuple[int | None, ...]] = {}
    for d in mod.decls:
        if not isinstance(d, FDecl):
            continue
        for ent in d.entities:
            if ent.dims:
                out[ent.name.lower()] = tuple(
                    _const_int(dim) for dim in ent.dims)
            elif ent.deferred_rank > 0:
                out[ent.name.lower()] = tuple(
                    None for _ in range(ent.deferred_rank))
    return out


def _collect_units(parsed: dict[str, FSourceFile], legacy
                   ) -> list[tuple[FSubprogram | FProgramUnit, dict,
                                   dict[str, tuple[int | None, ...]]]]:
    """(unit, channels, extra_extents) for every unit in the batch."""
    siblings: dict[str, FModule] = {}
    for out in parsed.values():
        for mod in out.modules:
            siblings[mod.name.lower()] = mod
    if legacy is not None:
        for out in legacy.parsed.values():
            for mod in out.modules:
                siblings.setdefault(mod.name.lower(), mod)

    units = []

    def visible_extents(syms) -> dict[str, tuple[int | None, ...]]:
        # Channels name the module a symbol comes from; resolve constant
        # extents through host, sibling and legacy modules.  Names the
        # unit redeclares locally (or receives as dummies) keep their
        # own declarations.
        extents: dict[str, tuple[int | None, ...]] = {}
        mods: set[str] = set()
        for ch in syms.channels.values():
            if ch.startswith("USE "):
                mods.add(ch[4:].split(" ")[0])
            elif ch.startswith("host module "):
                mods.add(ch[len("host module "):].lower())
        for m in sorted(mods):
            mod = siblings.get(m.lower())
            if mod is not None:
                extents.update(_module_extents(mod))
        return {n: e for n, e in extents.items()
                if syms.channels.get(n, "").startswith(
                    ("USE ", "host module "))}

    for out in parsed.values():
        for mod in out.modules:
            for sub in mod.subprograms:
                syms = build_symbols(sub, host=mod, legacy=legacy,
                                     siblings=siblings)
                ext = _module_extents(mod)
                ext.update(visible_extents(syms))
                units.append((sub, syms.channels, ext))
        for sub in out.subprograms:
            syms = build_symbols(sub, legacy=legacy, siblings=siblings)
            units.append((sub, syms.channels, visible_extents(syms)))
        for prog in out.programs:
            syms = build_symbols(prog, legacy=legacy, siblings=siblings)
            units.append((prog, syms.channels, visible_extents(syms)))
            for sub in prog.subprograms:
                syms = build_symbols(sub, legacy=legacy, siblings=siblings)
                units.append((sub, syms.channels, visible_extents(syms)))
    return units


def _analyze(parsed: dict[str, FSourceFile], legacy
             ) -> tuple[list[LintFinding], list[UnitRanges]]:
    from ..observe import get_metrics

    collected = _collect_units(parsed, legacy)
    models = {}
    for unit, channels, extents in collected:
        model = build_model(unit, channels, extra_extents=extents)
        cfg = build_unit_cfg(unit)
        models[unit.name.lower()] = (model, cfg)
    summaries = infer_summaries(models)

    findings: list[LintFinding] = []
    ranges: list[UnitRanges] = []
    for name in sorted(models):
        model, cfg = models[name]
        unit_name = model.unit.name

        uses, intent_issues = analyze_uninit(cfg, model, summaries)
        for u in uses:
            what = ("function result" if u.kind == "result"
                    else "local variable")
            findings.append(LintFinding(
                rule="use-before-def", unit=unit_name, line=u.line,
                message=f"{what} {u.name!r} may be read before it is "
                        "assigned on some path",
                variable=u.name, channel=model.channel(u.name)))
        for i in intent_issues:
            findings.append(LintFinding(
                rule="intent-violation", unit=unit_name, line=i.line,
                message=i.detail, variable=i.name,
                channel=model.channel(i.name)))

        dead, _ = dead_stores(cfg, model, summaries)
        for d in dead:
            if d.kind == "array-never-read":
                msg = (f"local array {d.name!r} is written but never "
                       "read in this unit")
            else:
                msg = (f"value stored to local {d.name!r} is never read "
                       "(dead store)")
            findings.append(LintFinding(
                rule="dead-store", unit=unit_name, line=d.line,
                message=msg, variable=d.name,
                channel=model.channel(d.name)))

        envs = solve_ranges(cfg, model, summaries)
        summary = check_bounds(cfg, model, summaries, envs)
        for b in summary.issues:
            findings.append(LintFinding(
                rule="possible-oob", unit=unit_name, line=b.line,
                message=b.detail, variable=b.array,
                channel=model.channel(b.array)))
        for g in summary.guards:
            findings.append(LintFinding(
                rule="const-false-guard", unit=unit_name, line=g.line,
                message=g.detail))
        ranges.append(UnitRanges(unit=unit_name, summary=summary))

    m = get_metrics()
    if m.enabled:
        m.counter("lint.dataflow.units").inc(len(models))
        m.counter("lint.dataflow.findings").inc(len(findings))
        m.counter("lint.dataflow.subscripts_proven").inc(
            sum(r.summary.proven for r in ranges))
    return findings, ranges


def run_dataflow(parsed: dict[str, FSourceFile], report: LintReport, *,
                 legacy=None) -> list[UnitRanges]:
    """Run the dataflow pass over a parsed batch into ``report``."""
    findings, ranges = _analyze(parsed, legacy)
    for f in findings:
        report.add(f)
    return ranges


def analyze_batch_ranges(parsed: dict[str, FSourceFile], *, legacy=None
                         ) -> list[UnitRanges]:
    """Range/bounds summaries only (``repro analyze --ranges``)."""
    _, ranges = _analyze(parsed, legacy)
    return ranges


def analyze_case_ranges(case: str, variant: str) -> list[UnitRanges]:
    """Generate one case study at one variant and summarize its ranges."""
    from ..codegen.fortran import FortranGenerator
    from ..core.validate import validate_program
    from ..fortranlib.parser import parse_source
    from ..optimize.plan import make_plan
    from .runner import _build_case

    _, program, legacy = _build_case(case)
    validate_program(program, collect=True)
    plan = make_plan(program, variant)
    source = FortranGenerator(plan).generate_module()
    parsed = {"generated.f90": parse_source(source)}
    return analyze_batch_ranges(parsed, legacy=legacy)
