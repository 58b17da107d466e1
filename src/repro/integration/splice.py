"""Splicing GLAF-generated subprograms into legacy source.

The paper's methodology (§4.1.1): "we substitute the original subroutines in
the Synoptic SARB code with the ones that were implemented and whose code
was automatically generated by GLAF", then run the provided test suite.
This module performs that substitution textually:

1. the generated module is produced in *split-globals* layout, so each
   generated unit carries all of its context in USE lines;
2. each legacy ``SUBROUTINE <name> ... END SUBROUTINE`` span is located and
   replaced with the generated unit's text;
3. the generated globals module (if any) is prepended so the USEs resolve.

The result is a new, runnable legacy codebase; interface checks
(:mod:`repro.integration.interface`) should be run first, mirroring the
paper's workflow.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..codegen.fortran import FortranGenerator
from ..errors import IntegrationError
from ..optimize.plan import OptimizationPlan
from .legacy import LegacyCodebase

__all__ = ["SpliceResult", "splice_units", "splice_into_codebase", "extract_unit"]


@dataclass
class SpliceResult:
    """The spliced codebase plus a record of what changed."""

    files: dict[str, str]
    replaced: dict[str, str]                   # subprogram -> filename
    support_source: str                        # globals module etc., load first
    generated_module_source: str


_UNIT_RE_TEMPLATE = r"(^[ \t]*{kind}[ \t]+{name}[ \t]*\(.*?^[ \t]*END[ \t]+{kind}\b[^\n]*$)"


def extract_unit(module_source: str, name: str) -> str:
    """Extract one subprogram's text from a generated module."""
    for kind in ("SUBROUTINE", "FUNCTION"):
        pattern = _UNIT_RE_TEMPLATE.format(kind=kind, name=re.escape(name))
        m = re.search(pattern, module_source,
                      re.MULTILINE | re.DOTALL | re.IGNORECASE)
        if m:
            return m.group(1)
    raise IntegrationError(f"generated module has no unit {name!r}")


def _extract_globals_module(source: str, globals_module: str) -> str:
    pattern = (
        rf"(^[ \t]*MODULE[ \t]+{re.escape(globals_module)}\b.*?"
        rf"^[ \t]*END[ \t]+MODULE\b[^\n]*$)"
    )
    m = re.search(pattern, source, re.MULTILINE | re.DOTALL | re.IGNORECASE)
    return m.group(1) if m else ""


def _replace_unit(legacy_source: str, name: str, new_text: str) -> str | None:
    for kind in ("SUBROUTINE", "FUNCTION"):
        pattern = _UNIT_RE_TEMPLATE.format(kind=kind, name=re.escape(name))
        m = re.search(pattern, legacy_source,
                      re.MULTILINE | re.DOTALL | re.IGNORECASE)
        if m:
            replacement = (
                f"! --- GLAF-generated replacement for {name} ---\n"
                f"{new_text}\n"
                f"! --- end GLAF-generated replacement ---"
            )
            return legacy_source[: m.start(1)] + replacement + legacy_source[m.end(1):]
    return None


def splice_units(
    legacy: LegacyCodebase,
    generated_module_source: str,
    names: list[str],
    *,
    globals_module: str | None = None,
    add_missing: bool = False,
) -> SpliceResult:
    """Replace each named legacy subprogram with its generated counterpart.

    With ``add_missing``, generated units that have no legacy counterpart
    (e.g. FUN3D's cell_loop/edge_loop, which GLAF factored *out of* the
    single legacy function) are appended as new units in a generated file.
    """
    files = dict(legacy.files)
    replaced: dict[str, str] = {}
    added: list[str] = []
    for name in names:
        unit_text = extract_unit(generated_module_source, name)
        filename = legacy.subprogram_file.get(name.lower())
        if filename is None:
            if not add_missing:
                raise IntegrationError(f"legacy codebase has no subprogram {name!r}")
            added.append(unit_text)
            replaced[name] = "glaf_generated_units.f90"
            continue
        new_source = _replace_unit(files[filename], name, unit_text)
        if new_source is None:
            raise IntegrationError(
                f"could not locate unit {name!r} in {filename!r} for replacement"
            )
        files[filename] = new_source
        replaced[name] = filename
    if added:
        files["glaf_generated_units.f90"] = (
            "! GLAF-generated units factored out of the legacy kernel\n"
            + "\n".join(added) + "\n"
        )
    support = ""
    if globals_module:
        support = _extract_globals_module(generated_module_source, globals_module)
    return SpliceResult(
        files=files,
        replaced=replaced,
        support_source=support,
        generated_module_source=generated_module_source,
    )


def splice_into_codebase(
    plan: OptimizationPlan,
    legacy: LegacyCodebase,
    names: list[str],
    *,
    add_missing: bool = False,
) -> SpliceResult:
    """One-call pipeline: generate (split-globals layout), then splice."""
    globals_module = f"glaf_{plan.program.name.lower()}_globals"
    gen = FortranGenerator(plan, globals_module=globals_module)
    source = gen.generate_module()
    return splice_units(legacy, source, names, globals_module=globals_module,
                        add_missing=add_missing)
