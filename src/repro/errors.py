"""Exception hierarchy for the GLAF reproduction.

Every subsystem raises a subclass of :class:`GlafError` so callers can
distinguish framework faults from programming errors in user code.
"""

from __future__ import annotations


class GlafError(Exception):
    """Base class for all framework errors."""


class ValidationError(GlafError):
    """A GLAF program violates a structural rule (scoping, nesting, types)."""


class BuilderError(GlafError):
    """Invalid use of the programmatic GPI builder."""


class AnalysisError(GlafError):
    """Auto-parallelization analysis failed or was given invalid input."""


class CodegenError(GlafError):
    """Code generation could not produce output for the requested target."""


class FortranSyntaxError(GlafError):
    """The FORTRAN-subset lexer/parser rejected the input source."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if col is not None:
            parts.append(f"col {col}")
        loc = f" ({', '.join(parts)})" if parts else ""
        super().__init__(message + loc)

    def __reduce__(self):
        # BaseException's default pickling replays ``cls(*self.args)``, but
        # args[0] is the message *with* the location suffix already
        # appended — unpickling would append it a second time.  Rebuild
        # from the raw constructor inputs instead; the state dict keeps
        # any extra attributes (batch workers annotate ``batch_stage``
        # before shipping these across process boundaries; docs/BATCH.md).
        return (type(self), (self.message, self.line, self.col),
                dict(self.__dict__))


class DiagnosticBundle(FortranSyntaxError):
    """Several errors collected instead of raised one at a time.

    Two collectors produce these: the recovering FORTRAN parser
    (``parse_source(src, recover=True)``), which resynchronizes at
    statement and unit boundaries and collects every error it skipped,
    and the GLAF validator (``validate_program(program, collect=True)``),
    which gathers all structural violations.  The partially-parsed source
    file (every unit that did parse) is attached as ``partial`` so callers
    can degrade instead of failing outright; validator bundles have no
    partial and no line/col (ValidationError carries neither).
    """

    def __init__(self, diagnostics, partial=None):
        self.diagnostics = list(diagnostics)
        self.partial = partial
        n = len(self.diagnostics)
        first = self.diagnostics[0] if self.diagnostics else None
        msg = f"{n} error(s) collected"
        if first is not None:
            msg += f"; first: {first}"
        super().__init__(msg)
        if first is not None:
            self.line = getattr(first, "line", None)
            self.col = getattr(first, "col", None)

    def __reduce__(self):
        # The inherited pickling would replay ``cls(*args)`` with the
        # summary *string*, which ``__init__`` iterates character by
        # character as the diagnostics list — the round trip silently
        # corrupts the bundle.  Rebuild from the real constructor inputs.
        return (type(self), (self.diagnostics, self.partial),
                dict(self.__dict__))


class FortranRuntimeError(GlafError):
    """The FORTRAN-subset interpreter hit a runtime fault (bounds, kinds...)."""


class IntegrationError(GlafError):
    """Generated code cannot be integrated with the legacy codebase."""


class InterfaceMismatchError(IntegrationError):
    """A generated subprogram's interface does not match the legacy call site."""


class ExecutionError(GlafError):
    """The GLAF IR interpreter hit a runtime fault."""


class ResourceLimitError(ExecutionError):
    """An execution watchdog tripped (iteration budget or wall-clock limit).

    Deliberately *not* recoverable: re-executing a run that already
    exhausted its budget can only make things worse, so
    :func:`repro.numeric.retry.retry_call` re-raises this instead of
    retrying."""


class NumericIntegrityError(ExecutionError):
    """A numeric sentinel detected a non-finite or out-of-range value.

    Raised by :mod:`repro.numeric.sentinel` when sentinels are active and a
    NaN, Inf, overflow-scale, or denormal value is assigned during
    execution.  Carries the offending location so the report can name the
    step and cell.  Deliberately never retried by
    :func:`repro.numeric.retry.retry_call`: a numeric-integrity violation
    is deterministic, so re-running the stage cannot help.
    """

    def __init__(self, message: str, *, kind: str = "", function: str = "",
                 step_index: int = -1, grid: str = "",
                 cell: tuple[int, ...] | None = None):
        self.kind = kind
        self.function = function
        self.step_index = step_index
        self.grid = grid
        self.cell = cell
        super().__init__(message)


class PerfModelError(GlafError):
    """The performance simulator was given an inconsistent configuration."""


class WorkloadError(GlafError):
    """A case-study workload specification is invalid."""


class BenchArtifactError(GlafError):
    """A ``BENCH_<n>.json`` artifact is malformed or has the wrong schema."""


class RunLedgerError(GlafError):
    """A ``.repro/runs`` record or index is malformed, missing, or fails
    its content-digest check (see ``docs/RUN_LEDGER.md``)."""


class BatchError(GlafError):
    """A ``repro batch`` corpus or configuration is invalid
    (see ``docs/BATCH.md``)."""


class WorkerCrashError(GlafError):
    """A batch worker process died without reporting a typed result.

    ``kind`` is ``"crash"`` (the worker exited or was killed by a signal
    before sending its result) or ``"hang"`` (the parent-side deadline
    expired and the worker was SIGKILLed).  Deliberately *not* an
    :class:`ExecutionError` subclass reused from the interpreter: worker
    death is a process-level event, retried by the batch driver under
    :func:`repro.numeric.retry.retry_call` — an item whose worker keeps
    dying is quarantined as poison (``docs/BATCH.md``).
    """

    def __init__(self, message: str, *, item: str = "", kind: str = "crash",
                 exit_code: int | None = None):
        self.item = item
        self.kind = kind
        self.exit_code = exit_code
        super().__init__(message)
