"""The isolated compile worker: one corpus item per process.

:func:`worker_entry` is the ``multiprocessing`` target the batch driver
spawns (forkserver/spawn context).  The worker applies its memory budget
(``RLIMIT_AS`` via :func:`repro.robust.apply_memory_limit`), runs the
item through parse→analyze→optimize→codegen→lint under a
:class:`repro.robust.Budget`, and reports exactly one message over its
pipe: ``("ok", artifacts)`` or ``("error", exc)`` with a pickle-safe
typed exception.  Anything else — a segfault, an ``os._exit``, a hang
past the parent deadline — is the *parent's* problem, surfaced there as
:class:`repro.errors.WorkerCrashError` (docs/BATCH.md).

The same compile path runs in-process for ``--jobs 1`` / degraded-serial
batches via :func:`run_item`, so serial and parallel runs produce
digest-identical artifacts.

``poison`` items exercise the isolation envelope on purpose:

* ``crash`` — ``os._exit(66)`` without reporting;
* ``hang`` — sleep until the parent deadline SIGKILLs the worker;
* ``oom`` — allocate until the ``RLIMIT_AS`` budget trips, then die
  hard (``os._exit(77)``), modelling a worker the allocator took down
  before Python could unwind cleanly.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from ..errors import (BatchError, GlafError, ResourceLimitError,
                      ValidationError)
from ..robust.watchdog import Budget, ResourceLimits, apply_memory_limit

__all__ = ["ARTIFACT_SCHEMA", "POISON_CRASH_EXIT", "POISON_OOM_EXIT",
           "WorkerConfig", "compile_item", "run_item", "worker_entry",
           "oom_message"]

ARTIFACT_SCHEMA = "repro.batch.artifact/v1"

#: Exit codes the poison faults die with (deterministic, so serial-mode
#: simulation and the real worker produce identical death records).
POISON_CRASH_EXIT = 66
POISON_OOM_EXIT = 77

#: Hard ceiling on poison:oom allocation when no memory budget is set —
#: the fault must prove the budget, not invite the kernel OOM killer.
_POISON_OOM_CAP_MB = 4096


def oom_message(item_id: str, max_memory_mb: int | None) -> str:
    """The typed message for a graceful (caught) memory-budget trip."""
    return (f"batch:{item_id}: memory budget of {max_memory_mb} MB "
            "exceeded")


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs, pickle-safe for process transport."""

    variant: str = "GLAF-parallel v0"
    target: str = "fortran"
    limits: ResourceLimits = ResourceLimits()


def _run_poison(kind: str, item_id: str, limits: ResourceLimits) -> None:
    """Execute one poison directive for real (worker process only)."""
    if kind == "crash":
        os._exit(POISON_CRASH_EXIT)
    if kind == "hang":
        while True:                   # parent deadline SIGKILLs us
            time.sleep(0.05)
    if kind == "oom":
        import numpy as np

        chunk_mb = 16
        hoard = []
        try:
            for _ in range(_POISON_OOM_CAP_MB // chunk_mb):
                # ones(), not zeros(): touch the pages so the allocation
                # is real even where the platform overcommits.
                hoard.append(np.ones(chunk_mb * 131072, dtype=np.float64))
        except MemoryError:
            del hoard
            os._exit(POISON_OOM_EXIT)
        raise BatchError(
            f"batch:{item_id}: poison:oom allocated {_POISON_OOM_CAP_MB} "
            "MB without tripping a memory budget — run with --max-memory "
            "to arm RLIMIT_AS")
    raise BatchError(f"batch:{item_id}: unknown poison kind {kind!r}")


def _empty_lint(units: int = 0) -> dict:
    from ..lint.findings import LintReport

    report = LintReport(units=units)
    return report.to_json()


def compile_item(item, config: WorkerConfig) -> dict:
    """parse→analyze→optimize→codegen→lint for one corpus item.

    Returns the artifacts document (code + lint report + SLOC; the
    caller attaches decisions).  Typed failures are annotated with the
    pipeline stage they surfaced in (``batch_stage``), which survives
    pickling into the parent's failure records.  Artifacts carry no item
    id — two items with identical content and options must digest (and
    cache) identically.
    """
    budget = Budget(config.limits, what=f"batch:{item.id}")
    budget.start()
    stage = "ingest"
    try:
        if item.kind == "poison":
            stage = "poison"
            _run_poison(item.content, item.id, config.limits)
            raise AssertionError("unreachable")  # pragma: no cover
        if item.kind == "source":
            return _compile_source(item, budget)
        return _compile_program(item, config, budget)
    except GlafError as e:
        if not getattr(e, "batch_stage", ""):
            e.batch_stage = stage
        raise


def _compile_source(item, budget: Budget) -> dict:
    from ..codegen import count_sloc
    from ..fortranlib.parser import parse_source
    from ..lint.dataflow import analyze_batch_ranges
    from ..lint.runner import lint_parsed

    stage = "parse"
    try:
        # One parse serves both the range analysis and the lint.
        parsed = {"source.f90": parse_source(item.content, recover=True)}
        budget.check_time()
        stage = "analyze"
        ranges = analyze_batch_ranges(parsed)
        summary = {
            ur.unit: {"proven": ur.summary.proven,
                      "possible": ur.summary.possible,
                      "unknown": ur.summary.unknown}
            for ur in ranges
        }
        budget.check_time()
        stage = "lint"
        report = lint_parsed(parsed)
        budget.check_time()
    except GlafError as e:
        e.batch_stage = getattr(e, "batch_stage", "") or stage
        raise
    return {
        "schema": ARTIFACT_SCHEMA,
        "target": "source",
        "code": "",                   # nothing generated: lint-only path
        "sloc": count_sloc(item.content),
        "units": report.units,
        "lint": report.to_json(),
        "ranges": summary,
    }


def _compile_program(item, config: WorkerConfig, budget: Budget) -> dict:
    from ..codegen import (
        count_sloc,
        generate_c_source,
        generate_fortran_module,
        generate_opencl,
        generate_python_source,
    )
    from ..fortranlib.parser import parse_source
    from ..lint.runner import lint_parsed
    from ..optimize import make_plan

    stage = "build"
    try:
        if item.kind == "fuzz":
            from ..fuzz import CodebaseSpec, build_program

            try:
                spec = CodebaseSpec.from_json(json.loads(item.content))
            except (ValueError, KeyError, TypeError) as e:
                raise BatchError(
                    f"batch:{item.id}: invalid fuzz spec payload "
                    f"({e})") from e
            program = build_program(spec)
        else:
            from ..core.project import program_from_dict
            from ..core.validate import validate_program

            try:
                data = json.loads(item.content)
            except ValueError as e:
                raise BatchError(
                    f"batch:{item.id}: invalid project JSON ({e})") from e
            except RecursionError:
                raise ValidationError(
                    f"batch:{item.id}: project JSON is nested too "
                    "deeply") from None
            program = program_from_dict(data)
            validate_program(program, collect=True)
        budget.check_time()
        stage = "analyze"
        plan = make_plan(program, config.variant)
        budget.check_time()
        stage = "codegen"
        if config.target == "fortran":
            code = generate_fortran_module(plan)
        elif config.target == "c":
            code = generate_c_source(plan)
        elif config.target == "python":
            code = generate_python_source(plan)
        elif config.target == "opencl":
            code = generate_opencl(plan).kernels_source
        else:
            raise BatchError(
                f"batch:{item.id}: unknown codegen target "
                f"{config.target!r}")
        budget.check_time()
        if config.target == "fortran":
            # Round-trip the emitted module through the front end, then
            # lint that tree: generated code must satisfy the same gates
            # the case studies do.
            stage = "parse"
            parsed = {"<source>": parse_source(code)}
            budget.check_time()
            stage = "lint"
            report_json = lint_parsed(parsed, plan=plan).to_json()
        else:
            report_json = _empty_lint()
        budget.check_time()
    except GlafError as e:
        e.batch_stage = getattr(e, "batch_stage", "") or stage
        raise
    return {
        "schema": ARTIFACT_SCHEMA,
        "target": config.target,
        "code": code,
        "sloc": count_sloc(code),
        "units": report_json.get("units", 0),
        "lint": report_json,
        "ranges": {},
    }


def run_item(item, config: WorkerConfig) -> dict:
    """Compile one item under a fresh observation; attach its decisions.

    Shared by the worker process and the serial in-process path, so the
    two modes produce byte-identical artifacts.  Decision events are
    stripped of their wall-clock stamps — artifacts are content-addressed
    and must not digest differently across runs.  A ``MemoryError``
    (the ``RLIMIT_AS`` budget tripping mid-compile) becomes a typed
    :class:`ResourceLimitError`.
    """
    from .. import observe

    try:
        with observe.observed() as obs:
            artifacts = compile_item(item, config)
    except MemoryError:
        raise ResourceLimitError(
            oom_message(item.id, config.limits.max_memory_mb)) from None
    decisions = []
    for d in obs.decisions.events:
        doc = d.to_dict()
        doc.pop("t", None)
        decisions.append(doc)
    artifacts["decisions"] = decisions
    return artifacts


def _transportable(exc: BaseException, item_id: str) -> GlafError:
    """A pickle-safe typed stand-in for whatever the compile raised."""
    import pickle

    if isinstance(exc, GlafError):
        try:
            pickle.loads(pickle.dumps(exc))
            return exc
        except Exception:
            pass                      # fall through to the stripped form
    wrapped = GlafError(
        f"batch:{item_id}: {type(exc).__name__}: {exc}")
    wrapped.batch_stage = getattr(exc, "batch_stage", "") or "compile"
    wrapped.original_type = type(exc).__name__
    return wrapped


def worker_entry(conn, item, config: WorkerConfig) -> None:
    """Process target: budget, compile, report exactly once, exit."""
    try:
        if config.limits.max_memory_mb:
            apply_memory_limit(config.limits.max_memory_mb)
        message = ("ok", run_item(item, config))
    except MemoryError:
        message = ("error", ResourceLimitError(
            oom_message(item.id, config.limits.max_memory_mb)))
    except BaseException as e:
        message = ("error", _transportable(e, item.id))
    try:
        conn.send(message)
    except Exception:
        try:
            conn.send(("error", _transportable(
                GlafError(f"batch:{item.id}: result was not transportable "
                          "across the process boundary"), item.id)))
        except Exception:             # pragma: no cover - pipe gone
            pass
    finally:
        conn.close()
