"""The ``repro faultcheck`` sweep: fire every registered fault, verify the
pipeline degrades the way ``docs/ROBUSTNESS.md`` promises.

For each :data:`repro.robust.faults.SITES` entry the sweep installs a
seeded one-fault :class:`FaultPlan`, runs a representative workload, and
classifies the outcome:

* **recovered** — the recovery machinery engaged (parser resynchronization,
  the guarded executor's access-conflict check, a retry) *and* the final
  results match the fault-free reference, or a checker caught the
  corrupted code before it ships (the linter, the comparison of generated
  Python with the IR interpreter);
* **surfaced** — the fault could not be recovered but was reported as a
  typed :class:`repro.errors.GlafError` (e.g. the watchdog's
  :class:`ResourceLimitError`);
* **failed** — a raw (non-GlafError) exception escaped, the fault never
  fired, or results were silently corrupted.

``repro faultcheck`` exits non-zero iff any site **failed**.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    DiagnosticBundle,
    ExecutionError,
    GlafError,
    NumericIntegrityError,
    ResourceLimitError,
)
from ..numeric import AbsolutePolicy, RetryPolicy, compare_grids, retry_call
from ..runconfig import configured
from .faults import SITES, FaultPlan, FaultSpec
from .watchdog import ResourceLimits

__all__ = ["SiteResult", "FaultCheckReport", "run_faultcheck"]

_TOLERANCE = 1e-9

# Two healthy units; the corrupt-token fault turns one token into garbage.
_LEX_CHECK_SOURCE = """\
subroutine scale_it(a, n)
  integer, intent(in) :: n
  real(kind=8), intent(inout) :: a(n)
  integer :: i
  do i = 1, n
    a(i) = a(i) * 2.0
  end do
end subroutine scale_it

subroutine shift_it(b, n)
  integer, intent(in) :: n
  real(kind=8), intent(inout) :: b(n)
  integer :: i
  do i = 1, n
    b(i) = b(i) + 1.0
  end do
end subroutine shift_it
"""


@dataclass(frozen=True)
class SiteResult:
    """Outcome of exercising one injection site."""

    site: str
    kind: str
    outcome: str          # 'recovered' | 'surfaced' | 'failed'
    detail: str
    fired: int            # faults that actually fired
    events: int           # recovery events (conflicts, retries, diagnostics)

    @property
    def ok(self) -> bool:
        return self.outcome in ("recovered", "surfaced")


@dataclass
class FaultCheckReport:
    seed: int
    results: list[SiteResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        return {
            "schema": "repro.robust.faultcheck/v1",
            "seed": self.seed,
            "ok": self.ok,
            "sites": [
                {"site": r.site, "kind": r.kind, "outcome": r.outcome,
                 "detail": r.detail, "fired": r.fired, "events": r.events}
                for r in self.results
            ],
        }

    def render(self) -> str:
        lines = [f"faultcheck (seed={self.seed}): "
                 f"{len(self.results)} site(s) swept"]
        width = max(len(r.site) for r in self.results)
        for r in self.results:
            lines.append(
                f"  {r.site:<{width}}  {r.kind:<15}  {r.outcome:<9}  {r.detail}"
            )
        lines.append("result: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def _check_lexer(seed: int) -> SiteResult:
    from ..fortranlib.parser import parse_source

    site, kind = "fortran.lex.tokens", "corrupt-token"
    plan = FaultPlan([FaultSpec(site, kind)], seed=seed)
    try:
        with configured(faults=plan):
            parse_source(_LEX_CHECK_SOURCE, recover=True)
        # The recovering parser skipped the corruption entirely — only
        # acceptable if the fault genuinely fired and produced no error
        # (it cannot: '?' is not parsable), so treat as failed.
        return SiteResult(site, kind, "failed",
                          "corrupted source parsed without diagnostics",
                          len(plan.fired), 0)
    except DiagnosticBundle as bundle:
        partial = bundle.partial
        units = (len(partial.subprograms) + len(partial.modules)
                 + len(partial.programs)) if partial is not None else 0
        if units >= 1:
            return SiteResult(
                site, kind, "recovered",
                f"parser resynchronized: {len(bundle.diagnostics)} diagnostic(s), "
                f"{units} unit(s) still parsed", len(plan.fired),
                len(bundle.diagnostics))
        return SiteResult(site, kind, "surfaced",
                          f"typed DiagnosticBundle, no units salvaged: {bundle}",
                          len(plan.fired), len(bundle.diagnostics))
    except GlafError as e:
        return SiteResult(site, kind, "surfaced",
                          f"typed {type(e).__name__}: {e}", len(plan.fired), 0)


def _sarb():
    """The SARB case, its sample input and one IR run's setup on it: the
    workload of every check that executes."""
    from ..cases import get_case

    case = get_case("sarb")
    inp = case.sample()
    return case, inp, *case.setup(inp)


def _check_verdict(seed: int) -> SiteResult:
    """SARB with ``adjust2`` mis-parallelized, on the guarded executor:
    the check must find the step's conflict, and the outputs match."""
    from ..glafexec import get_executor

    site, kind, fn = "analysis.parallelize.verdict", "misparallelize", "adjust2"
    case, inp, program, args, context = _sarb()
    ref = case.run_ir_interpreter(inp, executor="interpreter")
    plan = FaultPlan([FaultSpec(site, kind, match={"function": fn})],
                     seed=seed)
    with configured(faults=plan):
        run = get_executor("guarded").run(program, case.entry, args,
                                          **context)
    if not plan.fired:
        return SiteResult(site, kind, "failed", "fault never fired", 0, 0)
    found = [c for c in run.conflicts if c.function == fn]
    if not found:
        return SiteResult(site, kind, "failed",
                          f"fault fired but the check found no conflict in "
                          f"{fn}", len(plan.fired), 0)
    cmp = compare_grids(run.context.snapshot(list(case.outputs)), ref,
                        AbsolutePolicy(_TOLERANCE))
    if not cmp.ok:
        return SiteResult(site, kind, "failed",
                          f"conflict found but outputs diverge "
                          f"({cmp.max_error:.3e})",
                          len(plan.fired), len(run.conflicts))
    return SiteResult(
        site, kind, "recovered",
        f"guarded run found {found[0]}; outputs match reference "
        f"(max abs err {cmp.max_error:.1e})", len(plan.fired),
        len(run.conflicts))


def _check_retry(seed: int) -> SiteResult:
    """One injected step-boundary error: ``retry_call``, the recovery of
    the fuzz oracle and the batch driver, must re-run SARB to matching
    outputs."""
    site, kind = "exec.interp.step", "raise"
    case, inp, *_ = _sarb()
    ref = case.run_ir_interpreter(inp, executor="interpreter")
    plan = FaultPlan([FaultSpec(site, kind)], seed=seed)
    with configured(faults=plan):
        got = retry_call(
            lambda: case.run_ir_interpreter(inp, executor="interpreter"),
            policy=RetryPolicy(retries=1, base_delay=0.0, seed=seed),
            what=site)
    if not plan.fired:
        return SiteResult(site, kind, "failed", "fault never fired", 0, 0)
    retries = len(plan.fired)        # each fault that fired cost one retry
    cmp = compare_grids(got, ref, AbsolutePolicy(_TOLERANCE))
    if not cmp.ok:
        return SiteResult(site, kind, "failed",
                          f"retried run's outputs diverge "
                          f"({cmp.max_error:.3e})", len(plan.fired), retries)
    return SiteResult(
        site, kind, "recovered",
        f"retry_call re-ran the run after the injected ExecutionError; "
        f"outputs match reference (max abs err {cmp.max_error:.1e})",
        len(plan.fired), retries)


def _check_codegen(seed: int) -> SiteResult:
    """Perturbed generated Python must differ from the IR interpreter:
    the comparison catches it before the code ships."""
    site, kind = "codegen.python.assign", "perturb"
    case, inp, *_ = _sarb()
    ref = case.run_ir_interpreter(inp, executor="interpreter")
    plan = FaultPlan(
        [FaultSpec(site, kind, match={"function": "shortwave_entropy_model"})],
        seed=seed)
    with configured(faults=plan):
        got = case.run_generated_python(inp)
    if not plan.fired:
        return SiteResult(site, kind, "failed", "fault never fired", 0, 0)
    cmp = compare_grids(got, ref, AbsolutePolicy(_TOLERANCE))
    if cmp.ok:
        return SiteResult(site, kind, "failed",
                          "perturbed generated Python matches the IR "
                          "interpreter", len(plan.fired), 0)
    return SiteResult(
        site, kind, "recovered",
        f"comparison with the IR interpreter caught the perturbation "
        f"(max abs err {cmp.max_error:.3e} > {_TOLERANCE:.0e})",
        len(plan.fired), 1)


def _check_watchdog(seed: int) -> SiteResult:
    from ..glafexec import run_interpreted

    site, kind = "exec.interp.iter", "delay"
    case, _, program, args, context = _sarb()
    plan = FaultPlan(
        [FaultSpec(site, kind, param=0.25, max_fires=10**6)], seed=seed)
    limits = ResourceLimits(max_wall_seconds=0.05)
    try:
        with configured(faults=plan):
            run_interpreted(program, case.entry, args, limits=limits,
                            **context)
        return SiteResult(site, kind, "failed",
                          "stalled run finished under its wall-clock limit",
                          len(plan.fired), 0)
    except ResourceLimitError as e:
        return SiteResult(site, kind, "surfaced",
                          f"watchdog raised ResourceLimitError: {e}",
                          len(plan.fired), 1)


def _check_lint_mutant(site: str, mutant_id: str, seed: int) -> SiteResult:
    """One representative mutant per codegen site; the linter must catch it.

    The full mutant corpus runs under ``repro lint --selftest`` (and in
    CI); the sweep runs a single cheap mutant per site so every registered
    site has a scenario here too.
    """
    from ..lint.mutation import MUTANTS, run_mutant

    mutant = next(m for m in MUTANTS if m.id == mutant_id)
    result, report = run_mutant(mutant, seed=seed)
    if not result.fired:
        return SiteResult(site, mutant.kind, "failed", "fault never fired", 0, 0)
    if not result.caught:
        return SiteResult(site, mutant.kind, "failed",
                          f"linter missed the mutant ({result.fault_detail})",
                          1, 0)
    return SiteResult(
        site, mutant.kind, "recovered",
        f"linter caught '{result.fault_detail}' via {', '.join(result.rules)}",
        1, len(report.findings))


def _check_sentinel(seed: int) -> SiteResult:
    """Two-part scenario for ``numeric.sentinel``:

    1. an injected NaN assignment must trip an active sentinel — typed
       :class:`NumericIntegrityError` naming the kind, plus a
       ``numeric:nan`` DecisionLog event;
    2. a benchmark sweep that crashes mid-run must *resume* from its
       checkpoints and produce an ``experiments`` section content-digest
       identical to an uninterrupted sweep (the resumability the sentinel
       trip relies on: detect, fix, re-run only what's missing).
    """
    import tempfile
    from pathlib import Path

    from ..bench.harness import Experiment, ExperimentResult
    from ..bench.record import record_benchmark
    from ..glafexec import run_interpreted
    from ..numeric import CheckpointStore, SentinelConfig, content_digest
    from ..observe import observed

    site, kind = "numeric.sentinel", "nan"

    # -- part 1: the trip ------------------------------------------------
    case, _, program, args, context = _sarb()
    plan = FaultPlan([FaultSpec(site, kind)], seed=seed)
    trip: NumericIntegrityError | None = None
    with observed() as obs, configured(faults=plan,
                                       sentinels=SentinelConfig()):
        try:
            run_interpreted(program, case.entry, args, **context)
        except NumericIntegrityError as e:
            trip = e
    if not plan.fired:
        return SiteResult(site, kind, "failed", "fault never fired", 0, 0)
    if trip is None:
        return SiteResult(site, kind, "failed",
                          "injected NaN was assigned but no sentinel tripped "
                          "(the silent-NaN hole is open)", len(plan.fired), 0)
    if trip.kind != "nan":
        return SiteResult(site, kind, "failed",
                          f"sentinel tripped with kind {trip.kind!r}, "
                          "expected 'nan'", len(plan.fired), 0)
    decisions = obs.decisions.for_stage("numeric:nan")
    if not decisions:
        return SiteResult(site, kind, "failed",
                          "sentinel tripped but recorded no numeric:nan "
                          "DecisionLog event", len(plan.fired), 0)

    # -- part 2: crash-and-resume ---------------------------------------
    def registry(crash_on_call: int | None) -> dict[str, Experiment]:
        calls = {"n": 0}

        def run() -> ExperimentResult:
            calls["n"] += 1
            if crash_on_call is not None and calls["n"] == crash_on_call:
                raise ExecutionError("simulated mid-sweep crash")
            return ExperimentResult(
                experiment_id="SYN", title="synthetic resume probe",
                headers=["case", "value"], rows=[["a", 1.0]])

        return {"SYN": Experiment("SYN", "synthetic resume probe", "-", run)}

    def fake_clock():
        # Integer steps: binary-exact, so elapsed differences are identical
        # regardless of where in the tick sequence a repeat starts (a
        # 0.001-step clock would leak float round-off into the walls and
        # break the digest-equality assertion below).
        t = {"v": 0.0}

        def clk() -> float:
            t["v"] += 1.0
            return t["v"]

        return clk

    with tempfile.TemporaryDirectory() as td:
        store = CheckpointStore(Path(td) / "ckpt")
        try:
            record_benchmark(["SYN"], repeats=3, clock=fake_clock(),
                             experiments=registry(2), checkpoints=store)
            return SiteResult(site, kind, "failed",
                              "simulated mid-sweep crash did not propagate",
                              len(plan.fired), len(decisions))
        except ExecutionError:
            pass
        if not store.keys():
            return SiteResult(site, kind, "failed",
                              "crashed sweep left no checkpoint to resume "
                              "from", len(plan.fired), len(decisions))
        resumed = record_benchmark(["SYN"], repeats=3, clock=fake_clock(),
                                   experiments=registry(None),
                                   checkpoints=store)
        fresh = record_benchmark(["SYN"], repeats=3, clock=fake_clock(),
                                 experiments=registry(None))
    if resumed["meta"]["resumed"] < 1:
        return SiteResult(site, kind, "failed",
                          "resumed sweep re-ran every repeat (checkpoints "
                          "ignored)", len(plan.fired), len(decisions))
    d_resumed = content_digest(resumed["experiments"])
    d_fresh = content_digest(fresh["experiments"])
    if d_resumed != d_fresh:
        return SiteResult(site, kind, "failed",
                          f"resumed artifact diverges from uninterrupted run "
                          f"({d_resumed[:12]}… != {d_fresh[:12]}…)",
                          len(plan.fired), len(decisions))
    return SiteResult(
        site, kind, "recovered",
        f"sentinel raised typed NumericIntegrityError ({trip.kind} in "
        f"{trip.function}, step {trip.step_index}); crash-resumed sweep "
        f"digest-identical to uninterrupted run "
        f"(resumed {resumed['meta']['resumed']} repeat(s))",
        len(plan.fired), len(decisions))


def run_faultcheck(seed: int = 0) -> FaultCheckReport:
    """Sweep every registered injection site; see the module docstring."""
    checks = {
        "fortran.lex.tokens":
            lambda: _check_lexer(seed),
        "codegen.fortran.omp":
            lambda: _check_lint_mutant(
                "codegen.fortran.omp", "sarb-drop-reduction-lw", seed),
        "codegen.fortran.body":
            lambda: _check_lint_mutant(
                "codegen.fortran.body", "fun3d-drop-init-edge", seed),
        "analysis.parallelize.verdict":
            lambda: _check_verdict(seed),
        "codegen.python.assign":
            lambda: _check_codegen(seed),
        "exec.interp.step":
            lambda: _check_retry(seed),
        "exec.interp.iter":
            lambda: _check_watchdog(seed),
        "numeric.sentinel":
            lambda: _check_sentinel(seed),
    }
    missing = set(SITES) - set(checks)
    if missing:
        raise AssertionError(
            f"faultcheck has no scenario for registered site(s): {sorted(missing)}"
        )
    from ..observe import get_tracer

    tracer = get_tracer()
    results = []
    for site in sorted(checks):
        kinds = SITES[site].kinds
        try:
            with tracer.span("faultcheck.site", site=site):
                results.append(checks[site]())
        except GlafError as e:
            results.append(SiteResult(site, kinds[0], "surfaced",
                                      f"typed {type(e).__name__}: {e}", -1, 0))
        except Exception as e:  # raw escape: exactly what the sweep polices
            results.append(SiteResult(site, kinds[0], "failed",
                                      f"raw {type(e).__name__}: {e}", -1, 0))
    return FaultCheckReport(seed=seed, results=results)
