"""Crash-resilient differential runner and campaign driver.

:func:`run_item` drives one generated codebase through the whole
pipeline — build → analyze/optimize → codegen → parse round-trip → lint
→ differential execution — and converts every failure into a bucketable
:class:`~repro.fuzz.triage.ItemFailure` instead of crashing.  Isolation
comes from per-item budgets (:class:`repro.robust.watchdog.ResourceLimits`
bounds loop iterations and wall clock inside both executors), seeded
:func:`repro.numeric.retry_call` re-attempts on transient
``ExecutionError``\\ s, and NaN/Inf screening via the numeric sentinels.

The **differential oracle**: every kernel runs under the reference
interpreter and the vectorized array executor on independent, identically
seeded inputs.  Only the interpreter runs under the sentinels; the
vectorized executor runs without them, so it lifts what it lifts in any
other run, and a NaN, Inf or huge value of its own is a value
divergence.  The inout grids and every context grid must agree under
the profile's :mod:`repro.numeric.tolerance` policy (one
:func:`~repro.numeric.compare_grids` call per kernel, so a diverging
kernel records one failure naming its worst grid), and the emitted
``!$OMP`` text must lint clean.  Divergence, lint findings, typed
pipeline errors, and budget trips all become failure signatures.

:func:`run_campaign` runs N seeded items with checkpointed resume
(:class:`repro.numeric.CheckpointStore`), bucketing failures through
:class:`~repro.fuzz.triage.Triage`, delta-debug minimizing the first
instance of each new signature, and recording ``fuzz:*`` decisions and
metrics for profiled runs (docs/FUZZING.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    DiagnosticBundle,
    ExecutionError,
    GlafError,
    NumericIntegrityError,
    ResourceLimitError,
)
from ..numeric import (
    CheckpointStore,
    RetryPolicy,
    SentinelConfig,
    compare_grids,
    content_digest,
    get_policy,
    retry_call,
)
from ..robust import FaultPlan, FaultSpec
from ..robust.watchdog import ResourceLimits
from ..runconfig import configured
from .generate import CodebaseSpec, build_program, generate_spec
from .profile import FuzzProfile, get_profile
from .shrink import shrink_spec
from .triage import FailureSignature, ItemFailure, Triage

__all__ = [
    "ItemResult", "CampaignSummary", "run_item", "run_campaign",
    "SUMMARY_SCHEMA", "DEFAULT_CHECKPOINT_DIR", "DEFAULT_QUARANTINE_DIR",
]

SUMMARY_SCHEMA = "repro.fuzz.campaign/v1"
DEFAULT_CHECKPOINT_DIR = ".repro_fuzz.ckpt"
DEFAULT_QUARANTINE_DIR = "fuzz_quarantine"


@dataclass
class ItemResult:
    """Outcome of one generated codebase's end-to-end run."""

    index: int
    spec: CodebaseSpec
    failures: list[ItemFailure] = field(default_factory=list)
    source: str = ""                 # generated FORTRAN (when codegen ran)
    units_run: int = 0
    fallbacks: int = 0               # vectorized-executor demotions seen
    # static-vs-runtime crosscheck tallies (crosscheck runs only):
    # units whose every subscript the bounds checker proved in-bounds,
    # and how many of those claims the runtime contradicted.
    claims_proven: int = 0
    claims_refuted: int = 0

    @property
    def status(self) -> str:
        return "failed" if self.failures else "clean"

    def to_json(self) -> dict[str, object]:
        return {
            "index": self.index,
            "spec": self.spec.to_json(),
            "status": self.status,
            "failures": [f.to_json() for f in self.failures],
            "source": self.source,
            "units_run": self.units_run,
            "fallbacks": self.fallbacks,
            "claims_proven": self.claims_proven,
            "claims_refuted": self.claims_refuted,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ItemResult":
        return cls(
            index=doc["index"],
            spec=CodebaseSpec.from_json(doc["spec"]),
            failures=[ItemFailure.from_json(f) for f in doc["failures"]],
            source=doc.get("source", ""),
            units_run=doc.get("units_run", 0),
            fallbacks=doc.get("fallbacks", 0),
            claims_proven=doc.get("claims_proven", 0),
            claims_refuted=doc.get("claims_refuted", 0),
        )


def _unit_args(spec: CodebaseSpec, unit) -> list:
    """Seeded inputs for one kernel: same (seed, index, unit) ⇒ same data.

    The unit's ordinal comes from its name (``k3`` → 3), so inputs are
    stable while the shrinker drops sibling units around it.
    """
    ordinal = int(unit.name.lstrip("k") or 0)
    rng = np.random.default_rng(
        np.random.SeedSequence((spec.seed, spec.index, ordinal)))
    n = spec.extent
    args = [n, rng.standard_normal(n), np.zeros(n)]
    if unit.needs_idx:
        args.append(rng.permutation(n).astype(np.int64) + 1)
    return args


def _execute_unit(program, spec: CodebaseSpec, unit,
                  profile: FuzzProfile) -> tuple[list[ItemFailure], int]:
    """Differentially execute one kernel; returns (failures, fallbacks)."""
    from ..glafexec import get_executor

    limits = ResourceLimits(
        max_loop_iterations=profile.max_loop_iterations,
        max_wall_seconds=profile.max_wall_seconds)
    policy = RetryPolicy(retries=profile.retries,
                         seed=spec.seed * 1000 + spec.index)
    sizes = {"n": spec.extent}
    runs = {}
    # The vectorized leg runs only once the interpreter assigned no value
    # that trips, so it needs no sentinels of its own.
    for engine, sentinels in (("interpreter", SentinelConfig()),
                              ("vectorized", None)):
        args = _unit_args(spec, unit)

        def attempt(engine=engine, args=args):
            # Fresh output storage per attempt, so a retried run never
            # accumulates on top of a half-written previous one.
            retry_args = [a.copy() if isinstance(a, np.ndarray) else a
                          for a in args]
            run = get_executor(engine, limits=limits).run(
                program, unit.name, retry_args, sizes=sizes)
            return run, retry_args

        try:
            with configured(sentinels=sentinels):
                runs[engine] = retry_call(
                    attempt, policy=policy, limits=limits,
                    what=f"fuzz:{unit.name}:{engine}")
        except (ResourceLimitError, NumericIntegrityError, GlafError) as e:
            return [ItemFailure(
                signature=FailureSignature("execute", type(e).__name__,
                                           rule=engine),
                detail=f"{unit.name} under {engine}: {e}",
                unit=unit.name)], 0

    (ref_run, ref_args) = runs["interpreter"]
    (vec_run, vec_args) = runs["vectorized"]
    cmp = compare_grids({"y": vec_args[2], **vec_run.context.globals},
                        {"y": ref_args[2], **ref_run.context.globals},
                        get_policy(profile.policy, profile.tolerance))
    if cmp.ok:
        return [], len(vec_run.fallbacks)
    return [ItemFailure(
        signature=FailureSignature("oracle", "OracleDivergence",
                                   rule=profile.policy),
        detail=(f"{unit.name}: interpreter and vectorized diverge on "
                f"{cmp.detail}"),
        unit=unit.name)], len(vec_run.fallbacks)


def _static_bounds_claims(tree) -> dict[str, object]:
    """Per-unit range summaries of the parsed generated source
    (lowercase keys).

    A unit whose every subscript is *proven* in-bounds (``possible == 0``
    and ``unknown == 0`` with at least one classified subscript) carries a
    refutable static claim: any runtime out-of-bounds trip in that unit
    means the bounds proof was unsound.
    """
    from ..lint.dataflow import analyze_batch_ranges

    return {ur.unit.lower(): ur.summary
            for ur in analyze_batch_ranges({"<fuzz>": tree})}


def run_item(spec: CodebaseSpec, profile: FuzzProfile | str, *,
             faults: tuple[FaultSpec, ...] = (),
             fault_seed: int = 0, crosscheck: bool = False) -> ItemResult:
    """Drive one spec end-to-end; never raises for pipeline failures.

    Typed :class:`GlafError`\\ s, lint findings, oracle divergence, and
    budget/sentinel trips become :class:`ItemFailure`\\ s; only raw
    non-framework exceptions (genuine harness bugs) still propagate.
    Each kernel's interpreter run is screened by the sentinels.
    ``faults`` configures a fresh seeded fault-injection plan for just
    this item (both executors run under it), so one-shot faults fire
    identically on every reproduction; without it an outer plan stays
    active.
    With ``crosscheck``, the static bounds checker's proven-in-bounds
    claims are compared against runtime out-of-bounds trips — the fuzzer
    acting as a soundness oracle for the analyzer.
    """
    prof = get_profile(profile) if isinstance(profile, str) else profile
    res = ItemResult(index=spec.index, spec=spec)

    changes = {}
    if faults:
        changes["faults"] = FaultPlan(list(faults), seed=fault_seed)
    with configured(**changes):

        try:
            program = build_program(spec)
        except GlafError as e:
            res.failures.append(ItemFailure(
                FailureSignature("generate", type(e).__name__),
                detail=str(e)))
            return res
        try:
            from ..optimize import make_plan

            plan = make_plan(program, prof.variant)
        except GlafError as e:
            res.failures.append(ItemFailure(
                FailureSignature("analyze", type(e).__name__),
                detail=str(e)))
            return res
        try:
            from ..codegen import generate_fortran_module

            res.source = generate_fortran_module(plan)
        except GlafError as e:
            res.failures.append(ItemFailure(
                FailureSignature("codegen", type(e).__name__),
                detail=str(e)))
            return res
        # One parse of the emitted text feeds lint and the crosscheck.
        # When it fails, both stages report the error a strict parse
        # stops at: the bundle's first diagnostic.
        tree = parse_error = None
        try:
            from ..fortranlib.parser import parse_source

            tree = parse_source(res.source, recover=True)
        except DiagnosticBundle as e:
            res.failures.append(ItemFailure(
                FailureSignature("parse", type(e).__name__),
                detail=str(e),
                diagnostics=tuple(str(d) for d in e.diagnostics)))
            parse_error = e.diagnostics[0]
        except GlafError as e:
            res.failures.append(ItemFailure(
                FailureSignature("parse", type(e).__name__),
                detail=str(e)))
            parse_error = e
        try:
            if parse_error is not None:
                raise parse_error
            from ..lint.runner import lint_parsed

            report = lint_parsed({"<fuzz>": tree}, plan=plan,
                                 label=f"fuzz item {spec.index}")
            for finding in report.findings:
                res.failures.append(ItemFailure(
                    FailureSignature("lint", "LintFinding",
                                     rule=finding.rule),
                    detail=f"{finding.unit}:{finding.line}: "
                           f"{finding.message}",
                    unit=finding.unit))
        except GlafError as e:
            res.failures.append(ItemFailure(
                FailureSignature("lint", type(e).__name__),
                detail=str(e)))
        claims: dict[str, object] = {}
        if crosscheck and res.source:
            try:
                if parse_error is not None:
                    raise parse_error
                claims = _static_bounds_claims(tree)
            except GlafError as e:
                res.failures.append(ItemFailure(
                    FailureSignature("crosscheck", type(e).__name__),
                    detail=str(e)))
        for unit in spec.units:
            failures, fallbacks = _execute_unit(program, spec, unit, prof)
            res.failures.extend(failures)
            res.fallbacks += fallbacks
            res.units_run += 1
            claim = claims.get(unit.name.lower())
            if (claim is not None and claim.possible == 0
                    and claim.unknown == 0 and claim.proven > 0):
                res.claims_proven += 1
                for f in failures:
                    if (f.signature.stage == "execute"
                            and "out of bounds" in f.detail):
                        res.claims_refuted += 1
                        res.failures.append(ItemFailure(
                            FailureSignature("crosscheck",
                                             "UnsoundBoundsProof",
                                             rule="bounds"),
                            detail=(f"{unit.name}: every subscript was "
                                    "statically proven in-bounds, yet the "
                                    f"runtime tripped: {f.detail}"),
                            unit=unit.name))
    return res


@dataclass
class CampaignSummary:
    """Machine-readable outcome of one fuzz campaign."""

    seed: int
    count: int
    profile: FuzzProfile
    items: list[ItemResult] = field(default_factory=list)
    resumed: int = 0
    quarantined: list[dict] = field(default_factory=list)
    buckets: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for it in self.items if it.failures)

    @property
    def clean(self) -> int:
        return len(self.items) - self.failed

    def to_json(self) -> dict[str, object]:
        """Summary document — deliberately timing-free, so two runs of
        the same campaign are byte-identical and resume is digest-equal."""
        doc = {
            "schema": SUMMARY_SCHEMA,
            "seed": self.seed,
            "count": self.count,
            "profile": self.profile.to_json(),
            "stats": {
                "clean": self.clean,
                "failed": self.failed,
                "units_run": sum(it.units_run for it in self.items),
                "fallbacks": sum(it.fallbacks for it in self.items),
                "signatures": len(self.buckets),
                "claims_proven": sum(it.claims_proven for it in self.items),
                "claims_refuted": sum(it.claims_refuted
                                      for it in self.items),
            },
            "buckets": {k: self.buckets[k] for k in sorted(self.buckets)},
            "quarantined": self.quarantined,
            "items": [
                {"index": it.index, "status": it.status,
                 "failures": [f.signature.key for f in it.failures]}
                for it in self.items
            ],
        }
        doc["content_sha256"] = content_digest(doc)
        return doc


def run_campaign(
    seed: int,
    count: int,
    profile: FuzzProfile | str = "small",
    *,
    resume: bool = False,
    checkpoint_dir: str | None = None,
    quarantine_dir: str | None = None,
    faults: tuple[FaultSpec, ...] = (),
    fault_seed: int = 0,
    crosscheck: bool = False,
) -> CampaignSummary:
    """Run ``count`` seeded items with checkpointed resume and triage."""
    from ..observe import get_decisions, get_metrics, get_tracer

    prof = get_profile(profile) if isinstance(profile, str) else profile
    store = CheckpointStore(checkpoint_dir or DEFAULT_CHECKPOINT_DIR)
    if not resume:
        store.clear()          # stale checkpoints must not skip fresh work
    triage = Triage(quarantine_dir or DEFAULT_QUARANTINE_DIR)
    fault_keys = tuple(f"{f.site}:{f.kind}" for f in faults)
    summary = CampaignSummary(seed=seed, count=count, profile=prof)
    dl, m = get_decisions(), get_metrics()
    tracer = get_tracer()

    for index in range(count):
        key = f"item-{index:05d}"
        loaded = (store.load(key, discard_corrupt=True) if resume else None)
        if loaded is not None:
            item = ItemResult.from_json(loaded["item"])
            summary.resumed += 1
        else:
            spec = generate_spec(seed, prof, index)
            with tracer.span("fuzz.item", index=index):
                item = run_item(spec, prof, faults=faults,
                                fault_seed=fault_seed,
                                crosscheck=crosscheck)
            store.save(key, {"item": item.to_json()})
        summary.items.append(item)
        if m.enabled:
            m.counter("fuzz.items").inc()
            if item.failures:
                m.counter("fuzz.items.failed").inc()
        if dl.enabled:
            dl.record("fuzz:item", "campaign", index, key, item.status,
                      reasons=tuple(f.signature.key for f in item.failures))
        for failure in item.failures:
            sig = failure.signature
            if not triage.bucket(sig):
                continue
            bundle = triage.quarantine_dir / triage.bundle_name(
                sig, item.spec, fault_keys)
            if not bundle.exists():
                # First sighting of this signature: minimize and bundle.
                def reproduces(cand: CodebaseSpec,
                               _k: str = sig.key) -> bool:
                    rerun = run_item(cand, prof, faults=faults,
                                     fault_seed=fault_seed,
                                     crosscheck=crosscheck)
                    return any(f.signature.key == _k
                               for f in rerun.failures)

                with tracer.span("fuzz.shrink", signature=sig.key):
                    shrunk = shrink_spec(item.spec, reproduces)
                    min_run = run_item(shrunk.spec, prof, faults=faults,
                                       fault_seed=fault_seed,
                                       crosscheck=crosscheck)
                triage.quarantine(
                    sig, failure, item.spec, prof, item.source,
                    faults=fault_keys,
                    minimized_spec=shrunk.spec,
                    minimized_source=min_run.source,
                    shrink_probes=shrunk.probes)
            else:
                triage.bundles[sig.key] = bundle.name
        if m.enabled:
            m.counter("fuzz.units").inc(item.units_run)

    summary.buckets = dict(triage.buckets)
    summary.quarantined = [
        {"signature": k, "bundle": triage.bundles[k]}
        for k in sorted(triage.bundles)
    ]
    if dl.enabled:
        dl.record("fuzz:campaign", "campaign", count, f"seed-{seed}",
                  "failed" if summary.failed else "clean",
                  items=count, failed=summary.failed,
                  signatures=len(summary.buckets))
    store.clear()              # full campaign done: checkpoints are spent
    return summary
