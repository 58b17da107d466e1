"""Command-line interface.

``python -m repro <command>``:

* ``experiments [IDS...]`` — run registered paper experiments (default all)
  and print their tables.
* ``generate PROJECT.json --target {fortran,c,opencl,python} --variant V``
  — load a saved GLAF project and print generated code.
* ``analyze PROJECT.json`` — print per-step loop classes and
  parallelization verdicts; ``--liftability`` adds, per loop step,
  whether the vectorized executor lifts it or falls back to the
  interpreter (and why — docs/EXECUTORS.md).
* ``sloc PROJECT.json`` — per-subprogram SLOC of the generated FORTRAN.
* ``variants`` — list the Table-2 pruning variants.
* ``profile PROJECT.json`` — run the whole pipeline under the
  :mod:`repro.observe` tracer and print its run record: the timing tree,
  the per-stage summary, the metrics, and the decision log (``--json
  FILE`` writes the record itself, ``--chrome FILE`` its Chrome trace;
  see ``docs/OBSERVABILITY.md``).  With ``--executor X`` the project's
  case-study sample also runs once under executor ``X``; ``--executor
  guarded`` runs it under the access-conflict check
  (:mod:`repro.glafexec.conflicts`), so each conflict shows up in the
  decision log.
  ``--fault SITE:KIND[:FUNCTION]`` (repeatable) injects seeded faults
  first (see ``docs/ROBUSTNESS.md``).
* ``faultcheck`` — sweep every registered fault-injection site and report
  whether each fault was recovered or surfaced as a typed error.
* ``lint [--level v0|v1|v2|v3|all] [--case sarb|fun3d|all] [--json [FILE]]``
  — regenerate the case-study outputs (generated MODULE + spliced legacy
  codebase) at the chosen pruning level(s) and run the static race /
  parallel-correctness linter over the emitted text (see
  ``docs/STATIC_ANALYSIS.md``); exits 1 on any finding.  ``--selftest``
  runs the seeded clause-mutation corpus instead and fails unless the
  linter catches every mutant.
* ``fuzz [--seed N] [--count K] [--profile small|full] [--resume]
  [--json [FILE]]`` — generate K seeded legacy codebases and drive each
  through the whole pipeline (build → analyze → codegen → parse → lint →
  differential interpreter-vs-vectorized execution) under per-item
  resource budgets (``docs/FUZZING.md``); failures are bucketed by
  signature, quarantined as digest-named reproducer bundles
  (``--quarantine DIR``), and delta-debug minimized.  ``--resume``
  continues a killed campaign from its checkpoints, ``--fault
  SITE:KIND[:FUNCTION]`` injects seeded faults into every item.  Exits 1
  when any failure signature was found.
* ``runs list|show|diff|trend|gc|export|html|selftest`` — the persistent
  run ledger (``docs/RUN_LEDGER.md``): every ledgered invocation appends
  one digest-stamped ``repro.run/v1`` record to ``.repro/runs/``;
  ``list`` tabulates them, ``show [RUN]`` prints one (default: latest),
  ``diff OLD NEW`` compares wall/stages/counters/environment, ``trend``
  renders the wall-time trajectory per command, ``gc --keep N`` prunes
  old records, ``export [RUN] --prometheus|--chrome [--out FILE]``
  renders one record as a Prometheus text-exposition page or a
  Chrome/Perfetto trace, ``html [--out FILE]`` writes the self-contained
  static dashboard, and ``selftest`` smoke-tests the whole ledger round
  trip in a scratch directory (used by ``make ci``).
* ``bench record|compare|trend`` — the longitudinal benchmark layer
  (``docs/BENCHMARKING.md``): ``record`` runs the experiments N times and
  writes the next schema-versioned ``BENCH_<n>.json`` artifact (atomic
  write + sha256 content digest; per-repeat checkpoints let ``--resume``
  continue a killed recording, ``--retries N`` re-runs transiently
  failing repeats); ``compare OLD NEW [--fail-on-regress PCT]`` verifies
  artifact digests, prints the per-experiment diff and exits 1 on
  wall-time regressions beyond the threshold; ``trend`` renders the whole
  ``BENCH_*.json`` trajectory as one table.

``experiments`` and ``generate`` also accept ``--profile [FILE]``: with no
argument the run record's text view is printed to stderr after the normal
output; with a file argument the run record is written there instead.
``experiments --json FILE`` writes the machine-readable tables
(``ExperimentResult.to_json``), ``--sentinels`` screens every interpreter
assignment for NaN/Inf/overflow (``docs/NUMERICS.md``), and ``--resume``
continues an interrupted sweep from its per-case checkpoints.
``experiments``, ``profile``, and ``bench record`` accept ``--executor
{interpreter,vectorized,guarded}`` to choose the IR execution engine
(``docs/EXECUTORS.md``): the reference interpreter, the vectorized
whole-grid array executor, or the interpreter under the access-conflict
check, which reports a mis-parallelized step.  :func:`main`
builds one :class:`repro.runconfig.RunConfig` from these flags (and
``profile --fault``), runs the command under it, and states it in the
run record.

Every pipeline entry point (``experiments``, ``generate``, ``profile``,
``faultcheck``, ``lint``, ``fuzz``, ``bench record``) also records
itself into the run ledger by default — ``--ledger DIR`` redirects it,
``--no-ledger`` (or ``REPRO_LEDGER=0``) disables it, and ``--sample
SECONDS`` turns on the background resource sampler whose RSS/CPU/GC
time series lands in the record (``docs/RUN_LEDGER.md``).

Any uncaught :class:`repro.errors.GlafError` prints a one-line
``error: ...`` and exits 2; only raw (non-framework) exceptions traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]

_PROFILE_REPORT = object()     # sentinel: bare --profile (text report to stderr)
_JSON_STDOUT = object()        # sentinel: bare --json (JSON to stdout)


def _write_json(path: str, doc: object) -> None:
    """All CLI JSON artifacts are written atomically (temp + os.replace),
    so a killed process never leaves a truncated file behind."""
    from .numeric import atomic_write_json

    atomic_write_json(path, doc)


def _add_profile_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--profile", nargs="?", const=_PROFILE_REPORT, default=None,
        metavar="FILE",
        help="trace the run; print its record to stderr, or write the "
             "record (JSON) to FILE when given",
    )


def _add_ledger_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--ledger", dest="ledger_dir", metavar="DIR", default=None,
        help="run-ledger directory (default: .repro/runs, or $REPRO_LEDGER; "
             "docs/RUN_LEDGER.md)",
    )
    sub.add_argument(
        "--no-ledger", action="store_true",
        help="do not append a run record to the ledger",
    )
    sub.add_argument(
        "--sample", type=float, default=None, metavar="SECONDS",
        help="sample RSS/CPU/GC every SECONDS into the run record "
             "(off by default)",
    )


def _add_executor_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--executor", choices=["interpreter", "vectorized", "guarded"],
        default=None,
        help="IR execution engine (docs/EXECUTORS.md): the reference "
             "interpreter, the vectorized array executor, or the "
             "interpreter under the access-conflict check (reports "
             "each mis-parallelized step) (default: interpreter, "
             "or $REPRO_EXECUTOR)",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="GLAF reproduction (ICPP 2018) command-line tools",
    )
    sub = p.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiments", help="run paper experiments")
    exp.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    exp.add_argument("--sentinels", action="store_true",
                     help="screen every interpreter assignment for NaN/Inf/"
                          "overflow; abort with a typed error on the first "
                          "trip (docs/NUMERICS.md)")
    exp.add_argument("--resume", action="store_true",
                     help="skip experiments with valid checkpoints from an "
                          "interrupted run")
    exp.add_argument("--checkpoint", metavar="DIR", default=None,
                     help="checkpoint directory (default: "
                          ".repro_experiments.ckpt)")
    exp.add_argument("--json", dest="json_path", metavar="FILE",
                     help="also write the result tables as JSON to FILE")
    _add_executor_flag(exp)
    _add_profile_flag(exp)
    _add_ledger_flags(exp)

    gen = sub.add_parser("generate", help="generate code from a project file")
    gen.add_argument("project", help="path to a saved GLAF project JSON")
    gen.add_argument("--target", choices=["fortran", "c", "opencl", "python"],
                     default="fortran")
    gen.add_argument("--variant", default="GLAF-parallel v0",
                     help='pruning variant (e.g. "GLAF serial", "GLAF-parallel v3")')
    gen.add_argument("--threads", type=int, default=4)
    _add_profile_flag(gen)
    _add_ledger_flags(gen)

    ana = sub.add_parser("analyze", help="print loop classes and verdicts")
    ana.add_argument("project")
    ana.add_argument("--liftability", action="store_true",
                     help="also print, per loop step, whether the "
                          "vectorized executor can lift it and the "
                          "refusal reason when it cannot "
                          "(docs/EXECUTORS.md)")
    ana.add_argument("--ranges", action="store_true",
                     help="run interval range propagation and the static "
                          "bounds checker over the generated FORTRAN and "
                          "print per-unit subscript classifications "
                          "(docs/STATIC_ANALYSIS.md)")

    fuzz = sub.add_parser(
        "fuzz",
        help="generate seeded legacy codebases and differentially fuzz "
             "the whole pipeline (docs/FUZZING.md)",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign seed (default 0); same seed + same "
                           "profile reproduces the same campaign")
    fuzz.add_argument("--count", type=int, default=25,
                      help="number of generated codebases (default 25)")
    fuzz.add_argument("--profile", dest="fuzz_profile",
                      choices=["small", "full"], default="small",
                      help="size/feature profile: 'small' for CI, "
                           "'full' for nightly (default: small)")
    fuzz.add_argument("--resume", action="store_true",
                      help="continue a killed campaign from its per-item "
                           "checkpoints")
    fuzz.add_argument("--checkpoint", metavar="DIR", default=None,
                      help="checkpoint directory (default: "
                           ".repro_fuzz.ckpt)")
    fuzz.add_argument("--quarantine", metavar="DIR", default=None,
                      help="reproducer-bundle directory (default: "
                           "fuzz_quarantine)")
    fuzz.add_argument("--json", dest="json_path", nargs="?",
                      const=_JSON_STDOUT, default=None, metavar="FILE",
                      help="emit the campaign summary as JSON (to stdout, "
                           "or to FILE when given)")
    fuzz.add_argument("--fault", action="append", default=[],
                      metavar="SITE:KIND[:FUNCTION]",
                      help="inject a seeded fault into every item "
                           "(repeatable); used to verify the campaign "
                           "catches and quarantines known-bad pipelines")
    fuzz.add_argument("--fault-seed", type=int, default=0,
                      help="seed for the injected fault plans (default 0)")
    fuzz.add_argument("--crosscheck", action="store_true",
                      help="cross-check the static bounds checker's "
                           "proven-in-bounds claims against runtime "
                           "out-of-bounds trips (fuzzer as soundness "
                           "oracle; docs/FUZZING.md)")
    _add_ledger_flags(fuzz)

    batch = sub.add_parser(
        "batch",
        help="compile a corpus of projects / legacy sources in "
             "crash-isolated parallel workers (docs/BATCH.md)",
    )
    batch.add_argument("inputs", nargs="+", metavar="INPUT",
                       help="corpus inputs: project JSON files, legacy "
                            "FORTRAN files, directories of either, "
                            "fuzz:SEED:COUNT generator specs, or "
                            "poison:KIND[:N] fault directives "
                            "(crash/hang/oom)")
    batch.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1: serial, "
                            "in-process)")
    batch.add_argument("--variant", default="GLAF-parallel v0",
                       help="pruning variant to plan and generate for")
    batch.add_argument("--target",
                       choices=["fortran", "c", "opencl", "python"],
                       default="fortran",
                       help="codegen back-end (default: fortran)")
    batch.add_argument("--profile", dest="fuzz_profile",
                       choices=["small", "full"], default="small",
                       help="size profile for fuzz:SEED:COUNT inputs "
                            "(default: small)")
    batch.add_argument("--timeout", type=float, default=60.0,
                       help="parent-side per-item deadline in seconds; a "
                            "worker past it is SIGKILLed (default 60)")
    batch.add_argument("--retries", type=int, default=1,
                       help="worker re-spawns before an item is "
                            "quarantined as poison (default 1)")
    batch.add_argument("--seed", type=int, default=0,
                       help="retry-backoff jitter seed (default 0)")
    batch.add_argument("--max-wall", type=float, default=30.0,
                       metavar="SECONDS", dest="max_wall",
                       help="in-worker wall-clock budget per item "
                            "(default 30)")
    batch.add_argument("--max-iterations", type=int, default=2_000_000,
                       dest="max_iterations",
                       help="in-worker loop-iteration budget per item")
    batch.add_argument("--max-memory", type=int, default=2048,
                       metavar="MB", dest="max_memory",
                       help="per-worker address-space budget in MB "
                            "(RLIMIT_AS; default 2048; 0 disables)")
    batch.add_argument("--cache", metavar="DIR", default=None,
                       help="content-addressed artifact cache directory "
                            "(default: .repro/batch-cache)")
    batch.add_argument("--no-cache", action="store_true",
                       help="compile every item even when cached")
    batch.add_argument("--cache-max-entries", type=int, default=0,
                       metavar="N",
                       help="evict oldest cache entries beyond N "
                            "(default 0: unbounded)")
    batch.add_argument("--resume", action="store_true",
                       help="continue a killed batch from its per-item "
                            "checkpoints")
    batch.add_argument("--checkpoint", metavar="DIR", default=None,
                       help="checkpoint directory (default: "
                            ".repro_batch.ckpt)")
    batch.add_argument("--quarantine", metavar="DIR", default=None,
                       help="poison-bundle directory (default: "
                            "batch_quarantine)")
    batch.add_argument("--manifest", metavar="FILE", default=None,
                       help="write the digest-stamped aggregate manifest "
                            "JSON to FILE")
    batch.add_argument("--json", dest="json_path", nargs="?",
                       const=_JSON_STDOUT, default=None, metavar="FILE",
                       help="emit the run summary as JSON (to stdout, or "
                            "to FILE when given)")
    _add_ledger_flags(batch)

    sloc = sub.add_parser("sloc", help="SLOC of the generated FORTRAN")
    sloc.add_argument("project")

    sub.add_parser("variants", help="list Table-2 variants")

    prof = sub.add_parser(
        "profile",
        help="trace the pipeline stages for a project and explain decisions",
    )
    prof.add_argument("project", help="path to a saved GLAF project JSON")
    prof.add_argument("--variant", default="GLAF-parallel v0",
                      help="pruning variant to plan and generate for")
    prof.add_argument("--threads", type=int, default=4)
    prof.add_argument("--target",
                      choices=["fortran", "c", "opencl", "python", "all"],
                      default="fortran",
                      help="back-end(s) to run through codegen")
    prof.add_argument("--json", dest="json_path", metavar="FILE",
                      help="also write the run record (JSON) to FILE")
    prof.add_argument("--chrome", dest="chrome_path", metavar="FILE",
                      help="also write the trace in Chrome trace-event "
                           "format (open in chrome://tracing or Perfetto)")
    prof.add_argument("--fault", action="append", default=[],
                      metavar="SITE:KIND[:FUNCTION]",
                      help="inject a fault before running (repeatable); "
                           "see 'repro faultcheck' for the site registry")
    prof.add_argument("--fault-seed", type=int, default=0,
                      help="seed for the injected fault plan (default 0)")
    prof.add_argument("--sentinels", action="store_true",
                      help="screen every interpreter assignment for NaN/Inf/"
                           "overflow during the profiled run")
    _add_executor_flag(prof)
    _add_ledger_flags(prof)

    fc = sub.add_parser(
        "faultcheck",
        help="sweep every fault-injection site; verify recover/surface",
    )
    fc.add_argument("--seed", type=int, default=0,
                    help="seed for the deterministic fault plans (default 0)")
    fc.add_argument("--json", dest="json_path", metavar="FILE",
                    help="also write the report as JSON to FILE")
    _add_ledger_flags(fc)

    lint = sub.add_parser(
        "lint",
        help="static race / parallel-correctness linter over the emitted "
             "case-study FORTRAN (docs/STATIC_ANALYSIS.md)",
    )
    lint.add_argument("--level", choices=["v0", "v1", "v2", "v3", "all"],
                      default="all",
                      help="pruning level(s) to regenerate and lint "
                           "(default: all)")
    lint.add_argument("--case", choices=["sarb", "fun3d", "all"],
                      default="all",
                      help="case study to lint (default: both)")
    lint.add_argument("--json", dest="json_path", nargs="?",
                      const=_JSON_STDOUT, default=None, metavar="FILE",
                      help="emit the report as JSON (to stdout, or to FILE "
                           "when given)")
    lint.add_argument("--dataflow", action="store_true",
                      help="also run the interprocedural dataflow pass "
                           "(use-before-def, dead-store, possible-oob, "
                           "intent-violation, const-false-guard)")
    lint.add_argument("--selftest", action="store_true",
                      help="run the seeded clause-mutation corpus and "
                           "verify the linter catches every mutant")
    lint.add_argument("--seed", type=int, default=0,
                      help="seed for the --selftest fault plans (default 0)")
    _add_ledger_flags(lint)

    bench = sub.add_parser(
        "bench",
        help="record, compare, and trend BENCH_<n>.json benchmark artifacts",
    )
    bsub = bench.add_subparsers(dest="bench_command", required=True)

    rec = bsub.add_parser(
        "record", help="run the experiments N times, write the next artifact")
    rec.add_argument("ids", nargs="*",
                     help="experiment ids to record (default: all)")
    rec.add_argument("--repeats", type=int, default=3,
                     help="repeats per experiment (default 3)")
    rec.add_argument("--out", metavar="FILE",
                     help="artifact path (default: next BENCH_<n>.json here)")
    rec.add_argument("--resume", action="store_true",
                     help="skip repeats with valid checkpoints from an "
                          "interrupted recording")
    rec.add_argument("--checkpoint", metavar="DIR", default=None,
                     help="checkpoint directory (default: <out>.ckpt)")
    rec.add_argument("--retries", type=int, default=0,
                     help="retry a repeat that fails with a transient "
                          "ExecutionError up to N times (default 0)")
    _add_executor_flag(rec)
    _add_ledger_flags(rec)

    cmp_ = bsub.add_parser(
        "compare", help="diff two artifacts; gate on wall-time regressions")
    cmp_.add_argument("old", help="baseline BENCH_*.json")
    cmp_.add_argument("new", help="candidate BENCH_*.json")
    cmp_.add_argument("--fail-on-regress", type=float, default=None,
                      metavar="PCT",
                      help="exit 1 if any experiment's wall-time median "
                           "regressed by more than PCT percent")

    trend = bsub.add_parser(
        "trend", help="summarize every BENCH_*.json into one trajectory table")
    trend.add_argument("--dir", dest="bench_dir", default=".",
                       help="directory holding the artifacts (default: .)")

    runs = sub.add_parser(
        "runs",
        help="inspect and export the persistent run ledger "
             "(docs/RUN_LEDGER.md)",
    )
    rsub = runs.add_subparsers(dest="runs_command", required=True)

    def _runs_sub(name: str, help_: str) -> argparse.ArgumentParser:
        rp = rsub.add_parser(name, help=help_)
        rp.add_argument("--dir", dest="runs_dir", metavar="DIR", default=None,
                        help="ledger directory (default: .repro/runs, or "
                             "$REPRO_LEDGER)")
        return rp

    _runs_sub("list", "tabulate every recorded run")
    rshow = _runs_sub("show", "print one run record (default: latest)")
    rshow.add_argument("run", nargs="?", default=None,
                       help="run id (e.g. run-000003) or 'latest'")
    rdiff = _runs_sub("diff", "compare two run records")
    rdiff.add_argument("old", help="baseline run id")
    rdiff.add_argument("new", help="candidate run id (or 'latest')")
    _runs_sub("trend", "wall-time trajectory per command across the ledger")
    rgc = _runs_sub("gc", "prune old run records (and the quarantine)")
    rgc.add_argument("--keep", type=int, default=20,
                     help="newest records to keep (default 20; 0 drops all)")
    rexp = _runs_sub("export", "render one run record for external tools")
    rexp.add_argument("run", nargs="?", default=None,
                      help="run id to export (default: latest)")
    fmt = rexp.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--prometheus", action="store_true",
                     help="Prometheus text exposition of the metrics "
                          "snapshot")
    fmt.add_argument("--chrome", action="store_true",
                     help="Chrome/Perfetto trace-event JSON (spans + "
                          "counters + decision instants)")
    rexp.add_argument("--out", metavar="FILE", default=None,
                      help="write to FILE instead of stdout")
    rhtml = _runs_sub("html", "write the self-contained HTML dashboard")
    rhtml.add_argument("--out", metavar="FILE", default="runs.html",
                       help="output path (default: runs.html)")
    rhtml.add_argument("--last", type=int, default=None, metavar="N",
                       help="only the newest N runs (default: all)")
    rsub.add_parser(
        "selftest",
        help="smoke-test the ledger round trip (append, reconcile, "
             "quarantine, every exporter) in a scratch directory")
    return p


def _load_program(path: str):
    from .core.project import load_project
    from .core.validate import validate_program

    program = load_project(path)
    # collect=True: a malformed project reports every structural error in
    # one DiagnosticBundle (rendered line by line in main()) instead of
    # stopping at the first.
    validate_program(program, collect=True)
    return program


def _cmd_experiments(args) -> int:
    from .bench import EXPERIMENTS, run_and_format
    from .bench.harness import ExperimentResult, format_table
    from .numeric import CheckpointStore

    ids = args.ids or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}; "
              f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    store = CheckpointStore(getattr(args, "checkpoint", None)
                            or ".repro_experiments.ckpt")
    resume = bool(getattr(args, "resume", False))
    if not resume:
        store.clear()          # stale checkpoints must not skip fresh work
    results = []
    resumed = 0
    for exp_id in ids:
        done = (store.load(f"exp-{exp_id}", discard_corrupt=True)
                if resume else None)
        if done is not None:
            result = ExperimentResult.from_json(done["result"])
            resumed += 1
            print(format_table(result))
        else:
            result, text = run_and_format(EXPERIMENTS[exp_id])
            store.save(f"exp-{exp_id}", {"result": result.to_json()})
            print(text)
        results.append(result)
        print()
    if resumed:
        print(f"resumed {resumed} experiment(s) from checkpoint",
              file=sys.stderr)
    if getattr(args, "json_path", None):
        _write_json(args.json_path,
                    {"schema": "repro.bench.experiments/v1",
                     "experiments": [r.to_json() for r in results]})
        print(f"tables written to {args.json_path}", file=sys.stderr)
    store.clear()              # full sweep done: checkpoints are spent
    return 0


def _cmd_generate(args) -> int:
    from .codegen import (
        generate_c_source,
        generate_fortran_module,
        generate_opencl,
        generate_python_source,
    )
    from .optimize import make_plan

    program = _load_program(args.project)
    plan = make_plan(program, args.variant, threads=args.threads)
    if args.target == "fortran":
        print(generate_fortran_module(plan), end="")
    elif args.target == "c":
        print(generate_c_source(plan), end="")
    elif args.target == "python":
        print(generate_python_source(plan), end="")
    else:
        out = generate_opencl(plan)
        print(out.kernels_source, end="")
        print("/* launch plan:")
        for launch in out.launch_plan:
            print(f"   {launch.kind:6s} {launch.name}")
        print("*/")
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import analyze_program, classify_step

    program = _load_program(args.project)
    plan = analyze_program(program)
    lift = {}
    if getattr(args, "liftability", False):
        from .glafexec import liftability_report

        lift = liftability_report(program)
    for fn in program.functions():
        print(f"{'SUBROUTINE' if fn.is_subroutine else 'FUNCTION'} {fn.name}")
        for i, step in enumerate(fn.steps):
            sp = plan.get(fn.name, i)
            flags = []
            if sp.reductions:
                flags.append("reduction(" + ",".join(sp.reductions) + ")")
            if sp.atomic:
                flags.append("atomic(" + ",".join(sp.atomic) + ")")
            if sp.collapse > 1:
                flags.append(f"collapse({sp.collapse})")
            print(f"  step {i} {step.name:24s} class={classify_step(step).value:15s}"
                  f" parallel={'yes' if sp.parallel else 'no ':3s} "
                  + " ".join(flags))
            if not sp.parallel and sp.reasons:
                print(f"       reason: {sp.reasons[0]}")
            if (fn.name, i) in lift:
                reason = lift[(fn.name, i)]
                print("       lift: "
                      + ("vectorized" if not reason
                         else f"interpreter fallback ({reason})"))
    if getattr(args, "ranges", False):
        from .codegen import generate_fortran_module
        from .fortranlib.parser import parse_source
        from .lint.dataflow import analyze_batch_ranges
        from .optimize import make_plan

        src = generate_fortran_module(make_plan(program, "GLAF-parallel v0"))
        parsed = {"generated.f90": parse_source(src)}
        print("ranges (generated FORTRAN, interval analysis):")
        for ur in analyze_batch_ranges(parsed):
            s = ur.summary
            print(f"  {ur.unit}: subscripts proven={s.proven} "
                  f"possible-oob={s.possible} unknown={s.unknown}")
            for issue in s.issues:
                print(f"       oob: {issue.detail} (line {issue.line})")
            for n, iv in sorted(s.exit_env.items()):
                print(f"       {n} in {iv!r} at exit")
    return 0


def _cmd_sloc(args) -> int:
    from .codegen import generate_fortran_module, module_unit_slocs
    from .optimize import make_plan

    program = _load_program(args.project)
    src = generate_fortran_module(make_plan(program, "GLAF-parallel v0"))
    for name, n in module_unit_slocs(src).items():
        print(f"{name:32s} {n:6d}")
    return 0


def _cmd_variants(args) -> int:
    from .optimize import VARIANTS

    for v in VARIANTS:
        print(f"{v.name:18s} {v.description}")
    return 0


def _cmd_profile(args) -> int:
    """Run the whole pipeline under one ``pipeline`` span; :func:`main`
    observes the run and prints, and writes, its record."""
    from . import observe
    from .codegen import (
        generate_c_source,
        generate_fortran_module,
        generate_opencl,
        generate_python_source,
    )
    from .fortranlib.parser import parse_source
    from .optimize import make_plan

    targets = (["fortran", "c", "opencl", "python"]
               if args.target == "all" else [args.target])
    with observe.get_tracer().span("pipeline", project=args.project,
                                   variant=args.variant):
        program = _load_program(args.project)
        if args.executor:
            # Run the case-study sample under the chosen executor, so its
            # exec.run.* span and decisions (executor:fallback, or the
            # parallel:conflict an injected mis-parallelization causes)
            # land in this one profiled run (docs/EXECUTORS.md).
            from .cases import get_case

            case = get_case(program.name)
            case.run_ir_interpreter(case.sample(), executor=args.executor)
        plan = make_plan(program, args.variant, threads=args.threads)
        for target in targets:
            if target == "fortran":
                # Round-trip the generated module through the FORTRAN
                # front end so the lexer/parser stages show up too.
                parse_source(generate_fortran_module(plan))
            elif target == "c":
                generate_c_source(plan)
            elif target == "python":
                generate_python_source(plan)
            else:
                generate_opencl(plan)
    return 0


def _cmd_bench(args) -> int:
    from .bench import record

    if args.bench_command == "record":
        from .numeric import CheckpointStore, RetryPolicy

        out = args.out or record.next_bench_path()
        store = CheckpointStore(args.checkpoint or f"{out}.ckpt")
        if not args.resume:
            store.clear()      # fresh recording: stale checkpoints are void
        retry = (RetryPolicy(retries=args.retries)
                 if args.retries > 0 else None)
        doc = record.record_benchmark(ids=args.ids or None,
                                      repeats=args.repeats,
                                      checkpoints=store, retry=retry)
        path = record.write_benchmark(doc, out)
        store.clear()          # artifact written: checkpoints are spent
        n_exp = len(doc["experiments"])
        resumed = doc["meta"]["resumed"]
        note = f", {resumed} repeat(s) resumed from checkpoint" if resumed else ""
        print(f"recorded {n_exp} experiment(s) x {args.repeats} repeat(s)"
              f"{note} -> {path}")
        return 0

    if args.bench_command == "compare":
        import os

        comparison = record.compare_benchmarks(
            record.load_bench(args.old),
            record.load_bench(args.new),
            fail_on_regress=args.fail_on_regress,
            old_label=os.path.basename(args.old),
            new_label=os.path.basename(args.new),
        )
        print(comparison.render())
        return 0 if comparison.ok else 1

    entries = [(p.name, record.load_bench(p))
               for p in record.bench_files(args.bench_dir)]
    print(record.render_trend(entries))
    return 0


def _cmd_lint(args) -> int:
    from .lint import LEVELS, lint_levels, run_mutation_selftest

    if args.selftest:
        results = run_mutation_selftest(seed=args.seed)
        width = max(len(r.mutant.id) for r in results)
        for r in results:
            mark = "caught" if r.ok else "MISSED"
            rules = ", ".join(r.rules) or "-"
            print(f"  {r.mutant.id:<{width}}  {r.mutant.kind:<18}  "
                  f"{mark:<6}  {rules}")
        n_ok = sum(r.ok for r in results)
        print(f"mutation self-test: {n_ok}/{len(results)} mutant(s) caught")
        return 0 if n_ok == len(results) else 1

    levels = sorted(LEVELS) if args.level == "all" else [args.level]
    cases = ("sarb", "fun3d") if args.case == "all" else (args.case,)
    report = lint_levels(levels, cases, dataflow=args.dataflow)
    if args.json_path is not None:
        doc = report.to_json()
        if args.json_path is _JSON_STDOUT:
            json.dump(doc, sys.stdout, indent=2)
            print()
        else:
            _write_json(args.json_path, doc)
            print(f"report written to {args.json_path}", file=sys.stderr)
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_faultcheck(args) -> int:
    from .robust.faultcheck import run_faultcheck

    report = run_faultcheck(seed=args.seed)
    print(report.render())
    if args.json_path:
        _write_json(args.json_path, report.to_json())
        print(f"report written to {args.json_path}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_fuzz(args) -> int:
    from .fuzz import DEFAULT_QUARANTINE_DIR, run_campaign
    from .robust import FaultSpec

    faults = tuple(FaultSpec.parse(text) for text in args.fault)
    summary = run_campaign(
        args.seed, args.count, args.fuzz_profile,
        resume=args.resume,
        checkpoint_dir=args.checkpoint,
        quarantine_dir=args.quarantine,
        faults=faults,
        fault_seed=args.fault_seed,
        crosscheck=args.crosscheck,
    )
    doc = summary.to_json()
    if args.json_path is not None:
        if args.json_path is _JSON_STDOUT:
            json.dump(doc, sys.stdout, indent=2)
            print()
        else:
            _write_json(args.json_path, doc)
            print(f"summary written to {args.json_path}", file=sys.stderr)
    if args.json_path is not _JSON_STDOUT:
        stats = doc["stats"]
        print(f"fuzz campaign: seed {summary.seed}, "
              f"{summary.count} codebase(s), profile "
              f"{summary.profile.name}")
        print(f"  clean {stats['clean']}  failed {stats['failed']}  "
              f"units {stats['units_run']}  "
              f"vectorized fallbacks {stats['fallbacks']}")
        if args.crosscheck:
            print(f"  crosscheck: {stats['claims_proven']} proven-in-bounds "
                  f"unit claim(s), {stats['claims_refuted']} refuted by "
                  "the runtime")
        if summary.resumed:
            print(f"  resumed {summary.resumed} item(s) from checkpoint",
                  file=sys.stderr)
        for key in sorted(summary.buckets):
            print(f"  signature {key}: {summary.buckets[key]} item(s)")
        qdir = args.quarantine or DEFAULT_QUARANTINE_DIR
        for q in summary.quarantined:
            print(f"  quarantined {q['signature']} -> {qdir}/{q['bundle']}")
    return 1 if summary.failed else 0


def _cmd_batch(args) -> int:
    from .batch import (
        DEFAULT_CACHE_DIR,
        DEFAULT_CHECKPOINT_DIR,
        DEFAULT_QUARANTINE_DIR,
        BatchOptions,
        ingest_corpus,
        run_batch,
        write_manifest,
    )

    items = ingest_corpus(args.inputs, fuzz_profile=args.fuzz_profile)
    options = BatchOptions(
        variant=args.variant,
        target=args.target,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        seed=args.seed,
        max_loop_iterations=args.max_iterations or None,
        max_wall_seconds=args.max_wall or None,
        max_memory_mb=args.max_memory or None,
        fuzz_profile=args.fuzz_profile,
        cache_dir=(None if args.no_cache
                   else args.cache or DEFAULT_CACHE_DIR),
        cache_max_entries=args.cache_max_entries,
        checkpoint_dir=args.checkpoint or DEFAULT_CHECKPOINT_DIR,
        resume=args.resume,
        quarantine_dir=args.quarantine or DEFAULT_QUARANTINE_DIR,
    )
    result = run_batch(items, options)
    if args.manifest:
        write_manifest(args.manifest, result.manifest)
        print(f"manifest written to {args.manifest}", file=sys.stderr)
    doc = {"manifest_sha256": result.manifest["content_sha256"],
           "stats": result.stats,
           "items": [o.to_json() for o in result.outcomes]}
    if args.json_path is not None:
        if args.json_path is _JSON_STDOUT:
            json.dump(doc, sys.stdout, indent=2)
            print()
        else:
            _write_json(args.json_path, doc)
            print(f"summary written to {args.json_path}", file=sys.stderr)
    if args.json_path is not _JSON_STDOUT:
        s = result.stats
        print(f"batch: {s['items']} item(s), {s['mode']} "
              f"(jobs {s['jobs']}), {s['wall_s']:.2f}s")
        print(f"  ok {s['ok']}  failed {s['failed']}  "
              f"quarantined {s['quarantined']}"
              + (f"  resumed {s['resumed']}" if s['resumed'] else ""))
        c = s["cache"]
        if c["enabled"]:
            print(f"  cache: {c['hits']} hit(s), {c['misses']} miss(es)"
                  + (f", {c['corrupt']} corrupt entry(ies) discarded"
                     if c['corrupt'] else "")
                  + (f", {c['evictions']} evicted"
                     if c['evictions'] else ""))
        for o in result.outcomes:
            if o.status == "quarantined":
                print(f"  quarantined {o.id} -> "
                      f"{options.quarantine_dir}/{o.bundle}")
            elif o.status == "failed":
                first = o.failures[0] if o.failures else {}
                print(f"  failed {o.id}: [{first.get('stage', '?')}] "
                      f"{first.get('message', '')}")
        print(f"  manifest sha256 {result.manifest['content_sha256']}")
    return 0 if result.ok else 1


def _cmd_runs(args) -> int:
    from . import observe

    if args.runs_command == "selftest":
        return _runs_selftest()

    directory = (observe.ledger_dir_from_env(args.runs_dir)
                 or observe.DEFAULT_LEDGER_DIR)
    ledger = observe.RunLedger(directory)

    if args.runs_command == "list":
        print(observe.render_runs_table(ledger.entries()))
        return 0
    if args.runs_command == "show":
        print(observe.render_run(ledger.resolve(args.run)))
        return 0
    if args.runs_command == "diff":
        print(observe.diff_runs(ledger.resolve(args.old),
                                ledger.resolve(args.new)))
        return 0
    if args.runs_command == "trend":
        records = [ledger.load(e["id"]) for e in ledger.entries()]
        print(observe.render_runs_trend(records))
        return 0
    if args.runs_command == "gc":
        removed = ledger.gc(args.keep)
        print(f"removed {len(removed)} run record(s), kept "
              f"{len(ledger.entries())} in {ledger.dir}")
        return 0
    if args.runs_command == "export":
        record = ledger.resolve(args.run)
        if args.prometheus:
            text = observe.to_prometheus(
                record.get("metrics", {}),
                labels={"run": record["id"],
                        "command": record.get("command", "?")})
            observe.parse_prometheus(text)   # what we emit must parse
            if args.out:
                from .numeric import atomic_write_text

                atomic_write_text(args.out, text)
                print(f"prometheus exposition written to {args.out}",
                      file=sys.stderr)
            else:
                sys.stdout.write(text)
        else:
            doc = observe.record_to_chrome(record)
            if args.out:
                _write_json(args.out, doc)
                print(f"chrome trace written to {args.out} (open in "
                      f"chrome://tracing or https://ui.perfetto.dev)",
                      file=sys.stderr)
            else:
                json.dump(doc, sys.stdout, indent=2)
                print()
        return 0
    # html
    entries = ledger.entries()
    if args.last:
        entries = entries[-args.last:]
    records = [ledger.load(e["id"]) for e in entries]
    from .numeric import atomic_write_text

    atomic_write_text(args.out, observe.render_runs_html(records))
    print(f"dashboard with {len(records)} run(s) written to {args.out}")
    return 0


def _runs_selftest() -> int:
    """End-to-end ledger smoke test in a scratch directory: append three
    observed runs, reconcile a stale index, quarantine a corrupt record,
    push every exporter through its own validator (the Chrome one also
    with two threads and with a flame-only record from before records
    stored spans), and check that a record states the run configuration
    it was built under."""
    import tempfile
    import threading
    from pathlib import Path

    from . import observe
    from .errors import GlafError
    from .numeric import SentinelConfig
    from .robust import FaultPlan
    from .runconfig import RunConfig, configured

    def check(name: str, ok: bool) -> None:
        print(f"  {name:<28s} {'ok' if ok else 'FAIL'}")
        if not ok:
            raise GlafError(f"runs selftest: {name} failed")

    with tempfile.TemporaryDirectory(prefix="repro-runs-selftest-") as tmp:
        ledger = observe.RunLedger(tmp)
        for i in range(3):
            with observe.observed() as obs:
                with obs.tracer.span("selftest.stage", round=i):
                    obs.metrics.counter("selftest.items").inc(i + 1)
                    obs.metrics.histogram("selftest.ms").observe(1.0 + i)
                obs.decisions.record("run:record", "selftest", i,
                                     "ledger", "opened")
            ledger.append(observe.build_record(
                command="selftest", argv=["runs", "selftest"],
                wall_s=0.001 * (i + 1), observation=obs,
                samples=[{"t": 0.0, "rss_mb": 1.0, "cpu_s": 0.0,
                          "gc_gen0": 0}]))
        check("append x3", len(ledger.entries()) == 3)
        check("load latest",
              ledger.resolve("latest")["outcome"]["status"] == "ok")

        # A crash between record write and index write leaves the index
        # stale; entries() must heal it from the directory.
        ledger.index_path.unlink()
        check("reconcile stale index", len(ledger.entries()) == 3)

        # A torn write must be quarantined, never listed.
        bad = Path(tmp) / "run-000099.json"
        bad.write_text('{"schema": "repro.run/v1", "truncat')
        check("quarantine corrupt record",
              len(ledger.entries()) == 3
              and (ledger.quarantine_dir / bad.name).exists())

        record = ledger.resolve("latest")
        page = observe.to_prometheus(record["metrics"],
                                     labels={"run": record["id"]})
        check("prometheus parses",
              "repro_selftest_items_total" in observe.parse_prometheus(page))
        doc = observe.record_to_chrome(record)
        phases = {e["ph"] for e in doc["traceEvents"]}
        check("chrome spans+counters+instants",
              {"X", "C", "i"} <= phases)

        def worker() -> None:
            with observe.get_tracer().span("selftest.worker"):
                pass

        with observe.observed() as obs:
            with obs.tracer.span("selftest.main"):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        doc = observe.record_to_chrome(
            observe.build_record(command="selftest", observation=obs))
        check("chrome tid per thread",
              sorted(e["tid"] for e in doc["traceEvents"]
                     if e["ph"] == "X") == [0, 1])
        # A record written before records stored spans has a flame only.
        flame = [{"name": "selftest.stage", "calls": 2, "total_s": 0.002,
                  "children": []}]
        doc = observe.record_to_chrome({"schema": observe.RUN_SCHEMA,
                                        "flame": flame})
        check("chrome of flame-only record",
              [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
              == ["selftest.stage"])
        html = observe.render_runs_html(
            [ledger.load(e["id"]) for e in ledger.entries()])
        check("html dashboard", "<svg" in html and "run-000003" in html)
        check("gc keeps newest", ledger.gc(1) == ["run-000001", "run-000002"]
              and ledger.latest_id() == "run-000003")

        # A default record, then one under a config that changes every
        # run field: show and diff must state what each ran under.
        tuned = RunConfig("guarded", SentinelConfig(), FaultPlan())
        for config in (RunConfig(), tuned):
            with configured(config):
                ledger.append(observe.build_record(command="selftest"))
        latest = ledger.resolve("latest")
        check("show states the executor",
              "executor guarded" in observe.render_run(latest))
        diff = observe.diff_runs(ledger.load("run-000004"), latest)
        check("diff lists run fields",
              all(f"  {k}: " in diff for k in tuned.run_fields()))
    print("runs selftest: ok")
    return 0


_COMMANDS = {
    "experiments": _cmd_experiments,
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "sloc": _cmd_sloc,
    "variants": _cmd_variants,
    "profile": _cmd_profile,
    "faultcheck": _cmd_faultcheck,
    "lint": _cmd_lint,
    "fuzz": _cmd_fuzz,
    "batch": _cmd_batch,
    "bench": _cmd_bench,
    "runs": _cmd_runs,
}

#: Commands that append a ``repro.run/v1`` record by default.  ``bench``
#: is ledgered only for ``bench record`` (compare/trend are read-only).
_LEDGERED = ("experiments", "generate", "profile", "faultcheck", "lint",
             "fuzz", "batch", "bench")


def _ledgered_command(args) -> str | None:
    """The ledger's command name for this invocation, or ``None``."""
    if args.command not in _LEDGERED:
        return None
    if args.command == "bench":
        return ("bench record" if getattr(args, "bench_command", None)
                == "record" else None)
    return args.command


def _checkpoint_linkage(args) -> dict | None:
    """Checkpoint/resume linkage for the run record, when the command
    has checkpointing at all (experiments, fuzz, bench record)."""
    if not hasattr(args, "resume"):
        return None
    return {"dir": getattr(args, "checkpoint", None),
            "resume": bool(args.resume)}


def _run_changes(args) -> dict:
    """The run-configuration fields this invocation's flags set.  Only
    ``profile --fault`` is a whole-run plan: ``fuzz --fault`` configures a
    fresh seeded plan per item, which keeps shrinking reproducible."""
    from .numeric import SentinelConfig
    from .robust import FaultPlan, FaultSpec

    changes: dict = {}
    if getattr(args, "executor", None):
        changes["executor"] = args.executor
    if getattr(args, "sentinels", False):
        changes["sentinels"] = SentinelConfig()
    if args.command == "profile" and args.fault:
        changes["faults"] = FaultPlan(
            [FaultSpec.parse(text) for text in args.fault],
            seed=args.fault_seed)
    return changes


def main(argv: Sequence[str] | None = None) -> int:
    from . import observe
    from .errors import DiagnosticBundle, GlafError
    from .runconfig import configured

    args = build_parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    config = None      # what the command ran under, once it resolved

    def run() -> int:
        nonlocal config
        try:
            with configured(**_run_changes(args)) as config:
                return cmd(args)
        except FileNotFoundError as e:
            print(f"error: no such file: {e.filename or e}", file=sys.stderr)
            return 2
        except KeyError as e:
            # Unknown variant / function name surfaced by the pipeline.
            print(f"error: {e.args[0] if e.args else e}", file=sys.stderr)
            return 2
        except DiagnosticBundle as e:
            # Collected diagnostics (recovering parser, collect-mode
            # validator): one line per problem, then the summary.
            for diag in e.diagnostics:
                print(f"error: {diag}", file=sys.stderr)
            print(f"error: {e}", file=sys.stderr)
            return 2
        except GlafError as e:
            # Framework errors are user-facing: one line, exit 2, no
            # traceback.  Raw exceptions still propagate (they are bugs).
            print(f"error: {e}", file=sys.stderr)
            return 2

    profile = getattr(args, "profile", None)
    ledger_command = _ledgered_command(args)
    ledger_dir = None
    if ledger_command is not None and not getattr(args, "no_ledger", False):
        ledger_dir = observe.ledger_dir_from_env(
            getattr(args, "ledger_dir", None))
    sample_interval = getattr(args, "sample", None)
    if (args.command != "profile" and profile is None and ledger_dir is None
            and not sample_interval):
        return run()

    # One observation covers the whole invocation and becomes one run
    # record: the ledger append, the profile report, and every file
    # --json/--chrome/--profile FILE writes all come from it.
    import time

    started = time.time()
    t0 = time.perf_counter()
    sampler = None
    rc, status, failure = 0, "ok", None
    with observe.observed() as obs:
        if ledger_dir is not None:
            obs.decisions.record("run:record", "cli", 0, ledger_command,
                                 "opened", ledger=ledger_dir)
        if sample_interval:
            try:
                sampler = observe.ResourceSampler(
                    interval=sample_interval).start()
            except ValueError as e:
                print(f"error: {e}", file=sys.stderr)
                return 2
        try:
            rc = run()
            status = "ok" if rc == 0 else "failed"
        except BaseException as e:           # recorded, then re-raised
            rc, status, failure = 1, "crashed", e
        finally:
            if sampler is not None:
                sampler.stop()
    wall_s = time.perf_counter() - t0

    record = observe.build_record(
        command=ledger_command,
        argv=list(argv) if argv is not None else sys.argv[1:],
        exit_code=rc, status=status, wall_s=wall_s,
        observation=obs,
        samples=sampler.series() if sampler is not None else None,
        checkpoint=_checkpoint_linkage(args),
        environment=observe.run_environment(config),
        started=started)
    if ledger_dir is not None:
        try:
            record = observe.RunLedger(ledger_dir).append(record)
            print(f"run ledger: appended {record['id']} to {ledger_dir}",
                  file=sys.stderr)
        except OSError as e:
            # A read-only or full filesystem must not fail the run.
            print(f"run ledger: could not append to {ledger_dir} ({e})",
                  file=sys.stderr)

    if args.command == "profile":
        if status == "ok":
            _write_outputs(record, args.json_path, args.chrome_path)
            print(observe.render_run(record))
    elif profile is _PROFILE_REPORT:
        print(observe.render_run(record), file=sys.stderr)
    elif profile is not None:
        _write_outputs(record, profile, None)
    if failure is not None:
        raise failure
    return rc


def _write_outputs(record: dict, record_path: str | None,
                   chrome_path: str | None) -> None:
    """Write a run record, and its Chrome trace, to the files asked for."""
    from . import observe
    from .numeric import atomic_write_text

    if record_path:
        atomic_write_text(record_path, observe.record_json(record))
        print(f"run record written to {record_path}", file=sys.stderr)
    if chrome_path:
        _write_json(chrome_path, observe.record_to_chrome(record))
        print(f"chrome trace written to {chrome_path} (open in "
              f"chrome://tracing or https://ui.perfetto.dev)",
              file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
