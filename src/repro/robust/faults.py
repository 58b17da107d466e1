"""Deterministic fault injection at named pipeline sites.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec` entries, each
naming a registered :data:`SITES` entry.  Pipeline modules call the
module-level :func:`inject` hook at their site; when no plan is configured
the hook is a cheap no-op, and while one is the active run configuration's
``faults`` (:func:`repro.runconfig.configured`) the plan decides —
deterministically — whether and how to corrupt the payload, raise an
artificial :class:`repro.errors.ExecutionError`, or stall.

The hooks are intentionally tiny (one call per site) so the injection
surface is auditable: grep for ``inject(`` and compare against
:data:`SITES`.  ``repro faultcheck`` sweeps every registered site and
reports whether each fault was *recovered* or *surfaced* — see
:mod:`repro.robust.faultcheck` and ``docs/ROBUSTNESS.md``.

This module must stay dependency-light (errors, runconfig and numpy
only): the instrumented packages (``fortranlib``, ``analysis``,
``codegen``, ``glafexec``) import it at module load.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import runconfig as _rc
from ..errors import ExecutionError, ValidationError

__all__ = [
    "InjectionSite", "SITES", "FaultSpec", "FaultEvent", "FaultPlan", "inject",
]


@dataclass(frozen=True)
class InjectionSite:
    """One named place in the pipeline where a fault can be injected."""

    name: str
    module: str          # dotted module containing the inject() hook
    kinds: tuple[str, ...]
    description: str


SITES: dict[str, InjectionSite] = {
    s.name: s for s in (
        InjectionSite(
            name="fortran.lex.tokens",
            module="repro.fortranlib.lexer",
            kinds=("corrupt-token",),
            description="corrupt one lexed token of the FORTRAN source",
        ),
        InjectionSite(
            name="analysis.parallelize.verdict",
            module="repro.analysis.parallelize",
            kinds=("misparallelize",),
            description="force a serial (loop-carried) step to be marked parallel",
        ),
        InjectionSite(
            name="codegen.python.assign",
            module="repro.codegen.python_gen",
            kinds=("perturb",),
            description="numerically perturb one assignment in generated Python",
        ),
        InjectionSite(
            name="codegen.fortran.omp",
            module="repro.codegen.fortran",
            kinds=("drop-private", "drop-reduction", "widen-collapse",
                   "drop-directive", "spurious-directive"),
            description="corrupt one emitted !$OMP directive clause set "
                        "(the mutants 'repro lint' must catch)",
        ),
        InjectionSite(
            name="codegen.fortran.body",
            module="repro.codegen.fortran",
            kinds=("drop-init", "overrun-bound", "dead-store", "flip-intent"),
            description="corrupt one generated subprogram body "
                        "(the mutants 'repro lint --dataflow' must catch)",
        ),
        InjectionSite(
            name="exec.interp.step",
            module="repro.glafexec.interp",
            kinds=("raise",),
            description="raise an artificial ExecutionError at a step boundary",
        ),
        InjectionSite(
            name="exec.interp.iter",
            module="repro.glafexec.interp",
            kinds=("delay",),
            description="stall one loop iteration (exercises the wall-clock watchdog)",
        ),
        InjectionSite(
            name="numeric.sentinel",
            module="repro.glafexec.interp",
            kinds=("nan", "inf", "overflow"),
            description="poison one assigned value with NaN/Inf/huge "
                        "(the trips the numeric sentinels must catch)",
        ),
    )
}


@dataclass
class FaultSpec:
    """One planned fault: which site, what kind, when it fires.

    ``at`` is the first *matching* visit at which the fault may fire (0 =
    immediately); ``max_fires`` bounds how often it does (the default of 1
    makes faults one-shot, so a retried run is clean).  ``match`` filters visits by the metadata the hook supplies
    (e.g. ``{"function": "adjust2"}`` or ``{"step": 1}``).
    """

    site: str
    kind: str
    at: int = 0
    max_fires: int = 1
    param: float | None = None
    match: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        site = SITES.get(self.site)
        if site is None:
            raise ValidationError(
                f"unknown injection site {self.site!r}; "
                f"registered: {', '.join(sorted(SITES))}"
            )
        if self.kind not in site.kinds:
            raise ValidationError(
                f"site {self.site!r} does not support fault kind {self.kind!r} "
                f"(supports: {', '.join(site.kinds)})"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a CLI spec ``SITE:KIND[:FUNCTION]`` (``repro profile --fault``)."""
        parts = text.split(":")
        if len(parts) not in (2, 3) or not all(parts):
            raise ValidationError(
                f"bad fault spec {text!r}; expected SITE:KIND[:FUNCTION], "
                "e.g. analysis.parallelize.verdict:misparallelize:adjust2"
            )
        match = {"function": parts[2]} if len(parts) == 3 else {}
        return cls(site=parts[0], kind=parts[1], match=match)


@dataclass(frozen=True)
class FaultEvent:
    """A fault that actually fired."""

    site: str
    kind: str
    detail: str


class FaultPlan:
    """Seeded, deterministic schedule of faults for one pipeline run."""

    def __init__(self, faults: list[FaultSpec] | tuple[FaultSpec, ...] = (),
                 *, seed: int = 0):
        self.faults = list(faults)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.fired: list[FaultEvent] = []
        self._visits: dict[int, int] = {}
        self._fires: dict[int, int] = {}

    def visit(self, site: str, payload: Any, meta: dict[str, object]) -> Any:
        """One hook visit: apply the first armed matching fault, if any.

        Returns a replacement payload (or ``None`` to keep the original);
        ``raise``-kind faults raise :class:`ExecutionError` instead, and
        ``delay``-kind faults sleep then return ``None``.
        """
        for i, spec in enumerate(self.faults):
            if spec.site != site or not self._matches(spec, payload, meta):
                continue
            n = self._visits[i] = self._visits.get(i, 0) + 1
            if n - 1 < spec.at or self._fires.get(i, 0) >= spec.max_fires:
                continue
            # Charge the fire up front so a 'raise'-kind fault is spent
            # even though its exception propagates out of _apply.
            self._fires[i] = self._fires.get(i, 0) + 1
            out = self._apply(spec, payload, meta)
            if out is _NO_EFFECT:
                self._fires[i] -= 1
                continue            # transform declined; stay armed
            return out
        return None

    def _matches(self, spec: FaultSpec, payload: Any, meta: dict) -> bool:
        for key, want in spec.match.items():
            have = meta.get(key, _MISSING)
            if have is _MISSING:
                have = getattr(payload, key, _MISSING)
            if have != want:
                return False
        return True

    def _apply(self, spec: FaultSpec, payload: Any, meta: dict) -> Any:
        if spec.kind == "raise":
            self._record(spec, meta, "raised injected ExecutionError")
            raise ExecutionError(
                f"injected fault at {spec.site} ({_fmt_meta(meta)})"
            )
        if spec.kind == "delay":
            seconds = spec.param if spec.param is not None else 0.2
            self._record(spec, meta, f"stalled {seconds}s")
            time.sleep(seconds)
            return None
        transform = _TRANSFORMS[spec.kind]
        out, detail = transform(payload, spec, self.rng)
        if out is _NO_EFFECT:
            return _NO_EFFECT
        self._record(spec, meta, detail)
        return out

    def _record(self, spec: FaultSpec, meta: dict, detail: str) -> None:
        if meta:
            detail = f"{detail} ({_fmt_meta(meta)})"
        self.fired.append(FaultEvent(site=spec.site, kind=spec.kind, detail=detail))
        from ..observe import get_decisions

        dl = get_decisions()
        if dl.enabled:
            dl.record(
                "fault", str(meta.get("function", "")),
                int(meta.get("step", -1)), spec.site, "injected",
                reasons=(detail,), kind=spec.kind,
            )


_MISSING = object()
_NO_EFFECT = object()    # transform sentinel: fault had nothing to corrupt


def _fmt_meta(meta: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(meta.items())) or "no context"


# ----------------------------------------------------------------------
# site-specific payload transforms
# ----------------------------------------------------------------------
def _corrupt_token(tokens: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    candidates = [i for i, t in enumerate(tokens)
                  if t.kind not in ("newline", "eof")]
    if not candidates:
        return _NO_EFFECT, ""
    i = candidates[int(rng.integers(len(candidates)))]
    old = tokens[i]
    bad = type(old)(kind="op", text="?", line=old.line, col=old.col)
    out = list(tokens)
    out[i] = bad
    return out, (f"corrupted token {old.text!r} -> '?' at "
                 f"line {old.line}, col {old.col}")


def _misparallelize(sp: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    if sp.parallel or sp.depth == 0:
        return _NO_EFFECT, ""
    why = sp.reasons[0] if sp.reasons else "unknown"
    sp.parallel = True
    sp.reasons = [f"FAULT-INJECTED: forced parallel despite: {why}"]
    return sp, (f"forced step {sp.function}/{sp.step_name} parallel "
                f"(was serial: {why})")


def _perturb_assign(value: str, spec: FaultSpec, rng) -> tuple[Any, str]:
    eps = spec.param if spec.param is not None else 1e-3
    return (f"(({value}) * (1 + {eps!r}) + {eps!r})",
            f"perturbed assignment RHS by eps={eps!r}")


# -- codegen.fortran.omp: clause mutations for the lint self-test ------
# The payload is the (frozen) codegen OmpDirective about to be rendered,
# or None when the step is a serial loop (only 'spurious-directive' can
# fire there).  Transforms decline (_NO_EFFECT) when the directive lacks
# the clause they corrupt, so a FaultSpec stays armed until it finds one.

def _drop_private(d: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    if d is None or not d.private:
        return _NO_EFFECT, ""
    from dataclasses import replace

    dropped = d.private[int(rng.integers(len(d.private)))]
    out = replace(d, private=tuple(v for v in d.private if v != dropped))
    return out, f"dropped PRIVATE({dropped})"


def _drop_reduction(d: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    if d is None or not d.reductions:
        return _NO_EFFECT, ""
    from dataclasses import replace

    victim = d.reductions[int(rng.integers(len(d.reductions)))]
    out = replace(d, reductions=tuple(r for r in d.reductions if r != victim))
    return out, f"dropped REDUCTION({victim[0]}:{victim[1]})"


def _widen_collapse(d: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    if d is None:
        return _NO_EFFECT, ""
    from dataclasses import replace

    extra = int(spec.param) if spec.param is not None else 1
    out = replace(d, collapse=d.collapse + extra)
    return out, f"widened COLLAPSE({d.collapse}) to COLLAPSE({out.collapse})"


def _drop_directive(d: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    if d is None:
        return _NO_EFFECT, ""
    from dataclasses import replace

    return replace(d, suppressed=True), "suppressed the PARALLEL DO directive"


def _spurious_directive(d: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    if d is not None:
        return _NO_EFFECT, ""
    # Imported lazily (fire time only): this module must stay
    # dependency-light because codegen itself imports it at load.
    from ..codegen.omp import OmpDirective

    return OmpDirective(), "added a spurious PARALLEL DO on a serial loop"


# -- codegen.fortran.body: dataflow mutations for the lint self-test ---
# The payload is one generated subprogram's body lines (list of str);
# transforms return a *new* list (the original is never mutated) and
# decline (_NO_EFFECT) when the unit offers no viable target, so a
# FaultSpec stays armed until it reaches a unit that does.  These are the
# seeded bugs the dataflow rules of 'repro lint --dataflow' must catch:
# use-before-def, possible-oob, dead-store and intent-violation.

def _drop_init(lines: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    """Delete the only assignment to a scalar that is used elsewhere."""
    stmt = [ln.split("!")[0] for ln in lines]
    assigns: dict[str, list[int]] = {}
    for i, ln in enumerate(stmt):
        m = re.match(r"\s*(\w+)\s*=", ln)
        if m and "::" not in ln:
            assigns.setdefault(m.group(1).lower(), []).append(i)
    cands = []
    for name, idxs in sorted(assigns.items()):
        if len(idxs) != 1:
            continue
        i = idxs[0]
        used = any(j != i and "::" not in stmt[j]
                   and re.search(rf"\b{name}\b", stmt[j], re.IGNORECASE)
                   for j in range(len(stmt)))
        if used:
            cands.append((name, i))
    if not cands:
        return _NO_EFFECT, ""
    name, i = cands[int(rng.integers(len(cands)))]
    out = list(lines[:i]) + list(lines[i + 1:])
    return out, (f"deleted the only assignment to {name!r}: "
                 f"{lines[i].strip()!r}")


def _overrun_bound(lines: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    """Widen every literal ``DO v = 1, N`` upper bound in the unit by one
    (off-by-one past the end of any array those loops index)."""
    out = list(lines)
    hit = []
    for i, ln in enumerate(lines):
        body = ln.split("!")[0].rstrip()
        m = re.match(r"(\s*DO\s+(\w+)\s*=\s*1\s*,\s*)(\d+)$", body)
        if m:
            widened = int(m.group(3)) + 1
            out[i] = f"{m.group(1)}{widened}"
            hit.append(f"{m.group(2)}<={widened}")
    if not hit:
        return _NO_EFFECT, ""
    return out, f"widened {len(hit)} literal DO bound(s): {', '.join(hit)}"


def _dead_store_array(lines: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    """Store into an allocated array that nothing else touches."""
    stmt = [ln.split("!")[0] for ln in lines]
    cands = []
    for i, ln in enumerate(stmt):
        m = re.match(r"(\s*)ALLOCATE\((\w+)\(([^()]*)\)\)", ln, re.IGNORECASE)
        if not m:
            continue
        name = m.group(2)
        low = name.lower()
        used = any(j != i and "::" not in stmt[j]
                   and not re.match(r"\s*(DE)?ALLOCATE\b", stmt[j],
                                    re.IGNORECASE)
                   and re.search(rf"\b{low}\b", stmt[j], re.IGNORECASE)
                   for j in range(len(stmt)))
        if not used:
            rank = m.group(3).count(",") + 1
            cands.append((i, m.group(1), name, rank))
    if not cands:
        return _NO_EFFECT, ""
    i, indent, name, rank = cands[int(rng.integers(len(cands)))]
    subs = ", ".join(["1"] * rank)
    out = list(lines[:i + 1]) + [f"{indent}{name}({subs}) = 0.0D0"] \
        + list(lines[i + 1:])
    return out, f"stored to never-read array {name!r} after its ALLOCATE"


def _flip_intent(lines: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    """Rewrite one scalar INTENT(IN) declaration to INTENT(OUT)."""
    cands = []
    for i, ln in enumerate(lines):
        if "INTENT(IN)" not in ln or "DIMENSION" in ln:
            continue
        ent = ln.split("::")[-1]
        if "(" in ent or "," in ent:
            continue
        cands.append(i)
    if not cands:
        return _NO_EFFECT, ""
    i = cands[int(rng.integers(len(cands)))]
    out = list(lines)
    out[i] = lines[i].replace("INTENT(IN)", "INTENT(OUT)")
    name = lines[i].split("::")[-1].strip()
    return out, f"flipped INTENT(IN) to INTENT(OUT) on dummy {name!r}"


# -- numeric.sentinel: poison one assigned value ------------------------
# The payload is the scalar about to be stored into a floating grid; the
# interpreter only offers floating destinations, so the poison is always
# representable.  With sentinels active the poisoned store trips a typed
# NumericIntegrityError; without them it demonstrates the silent-NaN hole
# the sentinels close.

def _poison_nan(value: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    return float("nan"), f"poisoned assigned value {value!r} with NaN"


def _poison_inf(value: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    return float("inf"), f"poisoned assigned value {value!r} with +Inf"


def _poison_overflow(value: Any, spec: FaultSpec, rng) -> tuple[Any, str]:
    huge = spec.param if spec.param is not None else 1e305
    return float(huge), f"poisoned assigned value {value!r} with {huge!r}"


_TRANSFORMS = {
    "corrupt-token": _corrupt_token,
    "misparallelize": _misparallelize,
    "perturb": _perturb_assign,
    "drop-private": _drop_private,
    "drop-reduction": _drop_reduction,
    "widen-collapse": _widen_collapse,
    "drop-directive": _drop_directive,
    "spurious-directive": _spurious_directive,
    "drop-init": _drop_init,
    "overrun-bound": _overrun_bound,
    "dead-store": _dead_store_array,
    "flip-intent": _flip_intent,
    "nan": _poison_nan,
    "inf": _poison_inf,
    "overflow": _poison_overflow,
}


def inject(site: str, payload: Any = None, **meta: object) -> Any:
    """Fault-injection hook.  No-op unless the active run configuration
    has a fault plan; otherwise returns a replacement payload or ``None``."""
    plan = _rc._active.faults
    if plan is None:
        return None
    if site not in SITES:       # keep hooks honest even in tests
        raise ValidationError(f"inject() called with unregistered site {site!r}")
    return plan.visit(site, payload, meta)
