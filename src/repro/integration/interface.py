"""Interface-compatibility checking.

Before a GLAF-generated subprogram replaces a legacy one, its interface must
match what every existing call site expects: same subprogram kind
(SUBROUTINE vs FUNCTION, §3.4), same parameter count, per-parameter
type/kind/rank compatibility, and — for the §3.1/§3.2 features — every USEd
module must actually exist in the legacy codebase and export the imported
names, and every referenced COMMON block must agree with the legacy block's
member declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.function import GlafFunction, GlafProgram
from ..core.types import GlafType
from .legacy import LegacyCodebase, ParamSpec

__all__ = ["InterfaceIssue", "InterfaceReport", "check_interface", "check_program"]

_GLAF_TO_F = {
    GlafType.T_INT: ("integer", 4),
    GlafType.T_REAL: ("real", 4),
    GlafType.T_REAL8: ("real", 8),
    GlafType.T_LOGICAL: ("logical", 4),
    GlafType.T_CHAR: ("character", 4),
}


@dataclass(frozen=True)
class InterfaceIssue:
    severity: str          # 'error' | 'warning'
    where: str
    message: str


@dataclass
class InterfaceReport:
    function: str
    issues: list[InterfaceIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(i.severity == "error" for i in self.issues)

    def errors(self) -> list[InterfaceIssue]:
        return [i for i in self.issues if i.severity == "error"]

    def add(self, severity: str, where: str, message: str) -> None:
        self.issues.append(InterfaceIssue(severity, where, message))


def _check_param(report: InterfaceReport, fn: GlafFunction, gname: str,
                 legacy: ParamSpec, position: int) -> None:
    g = fn.grids[gname]
    base, kind = _GLAF_TO_F[g.ty]
    where = f"{fn.name} parameter {position} ({gname})"
    if legacy.base != base or (legacy.base in ("integer", "real") and legacy.kind != kind
                               and not (legacy.base == "integer")):
        report.add("error", where,
                   f"type mismatch: generated {base}*{kind} vs legacy "
                   f"{legacy.base}*{legacy.kind}")
    if legacy.rank != g.rank:
        report.add("error", where,
                   f"rank mismatch: generated rank {g.rank} vs legacy rank {legacy.rank}")
    gi, li = g.intent, legacy.intent
    if gi and li and gi != li:
        sev = "error" if (li == "in" and gi in ("out", "inout")) else "warning"
        report.add(sev, where, f"intent mismatch: generated {gi} vs legacy {li}")


def check_interface(
    program: GlafProgram, fn_name: str, legacy: LegacyCodebase
) -> InterfaceReport:
    """Check one generated subprogram against the legacy original."""
    fn = program.find_function(fn_name)
    report = InterfaceReport(function=fn_name)
    try:
        sig = legacy.signature(fn_name)
    except Exception:
        report.add("error", fn_name, "legacy codebase has no such subprogram to replace")
        return report

    want_kind = "subroutine" if fn.is_subroutine else "function"
    if sig.kind != want_kind:
        report.add("error", fn_name,
                   f"subprogram kind mismatch: generated {want_kind} vs legacy "
                   f"{sig.kind} (paper section 3.4)")
    if len(sig.params) != len(fn.params):
        report.add("error", fn_name,
                   f"parameter count mismatch: generated {len(fn.params)} vs "
                   f"legacy {len(sig.params)}")
    else:
        for pos, (gname, legacy_p) in enumerate(zip(fn.params, sig.params)):
            _check_param(report, fn, gname, legacy_p, pos)

    # §3.1/§3.5: imported modules must exist and export the imported names.
    referenced = fn.grids_referenced()
    for name in sorted(referenced):
        if name in fn.grids:
            continue
        g = program.global_grids.get(name)
        if g is None:
            continue
        if g.exists_in_module is not None:
            imported = g.type_parent if g.is_type_element else g.name
            if not legacy.has_module(g.exists_in_module):
                report.add("error", f"{fn_name} USE {g.exists_in_module}",
                           "legacy codebase has no such module")
            elif not legacy.module_has(g.exists_in_module, imported):
                report.add("error", f"{fn_name} USE {g.exists_in_module}",
                           f"module does not export {imported!r}")
            if g.is_type_element and g.type_name:
                fields = legacy.type_fields.get(g.type_name.lower())
                if fields is None:
                    report.add("error", f"{fn_name} TYPE {g.type_name}",
                               "legacy codebase does not define this TYPE")
                elif g.name.lower() not in fields:
                    report.add("error", f"{fn_name} TYPE {g.type_name}",
                               f"TYPE has no element {g.name!r}")
        elif g.common_block is not None:
            spec = legacy.commons.get(g.common_block.lower())
            if spec is None:
                report.add("warning", f"{fn_name} COMMON /{g.common_block}/",
                           "block not present in legacy code (new block)")
            else:
                legacy_names = {m.name for m in spec.members}
                if g.name.lower() not in legacy_names:
                    report.add("warning", f"{fn_name} COMMON /{g.common_block}/",
                               f"legacy block does not list member {g.name!r}")
                else:
                    m = next(m for m in spec.members if m.name == g.name.lower())
                    base, kind = _GLAF_TO_F[g.ty]
                    if m.base != base or m.rank != g.rank:
                        report.add("error", f"{fn_name} COMMON /{g.common_block}/",
                                   f"member {g.name!r}: generated {base} rank "
                                   f"{g.rank} vs legacy {m.base} rank {m.rank}")
    return report


def check_program(
    program: GlafProgram, legacy: LegacyCodebase, names: list[str] | None = None
) -> dict[str, InterfaceReport]:
    """Check every (or the named) generated subprogram against the legacy code."""
    names = names or [fn.name for fn in program.functions()
                      if fn.name.lower() in legacy.signatures]
    return {n: check_interface(program, n, legacy) for n in names}
