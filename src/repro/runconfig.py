"""One run configuration: the executor, the numeric sentinels and the
fault plan a run executes under.

One :class:`RunConfig` is active at a time, and :func:`configured`
installs a changed copy for a block.  It is read where it is used, not
passed down (the fault hook sits in the lexer, the analysis and codegen):
the interpreters' per-assignment hooks read ``_active`` directly, and
everything else calls :func:`current`, which first applies
``$REPRO_EXECUTOR``.  A dependency-free leaf: the instrumented packages
import it at module load.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterator

from .errors import ExecutionError

if TYPE_CHECKING:
    from .numeric.sentinel import SentinelConfig
    from .robust.faults import FaultPlan

__all__ = ["EXECUTOR_NAMES", "RunConfig", "configured", "current"]

#: Valid executor names; ``guarded`` is the access-conflict check.
EXECUTOR_NAMES = ("interpreter", "vectorized", "guarded")


@dataclass(frozen=True, slots=True)
class RunConfig:
    """How a run executes; frozen and picklable, so a worker process can
    receive it as data.  ``hooked`` is derived (a sentinel or fault hook
    must run), so the IR interpreter's per-assignment test is one read."""

    executor: str = "interpreter"
    sentinels: SentinelConfig | None = None
    faults: FaultPlan | None = None
    hooked: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_NAMES:
            raise ExecutionError(
                f"unknown executor {self.executor!r}; "
                f"choose from {EXECUTOR_NAMES}")
        object.__setattr__(self, "hooked", self.faults is not None
                           or self.sentinels is not None)

    @classmethod
    def from_env(cls) -> RunConfig:
        """The defaults with ``$REPRO_EXECUTOR`` applied."""
        return cls(executor=os.environ.get("REPRO_EXECUTOR", "interpreter"))

    def run_fields(self) -> dict[str, object]:
        """What bench artifacts and run records state about the run."""
        return {"executor": self.executor,
                "guard_mode": self.executor == "guarded",
                "fault_plan_active": self.faults is not None,
                "sentinels": self.sentinels is not None}


_active = RunConfig()
_env_applied = False


def current() -> RunConfig:
    """The active configuration.  A misspelled ``$REPRO_EXECUTOR`` raises
    :class:`ExecutionError` on every call instead of running the
    interpreter."""
    global _active, _env_applied
    if not _env_applied:
        _active = RunConfig.from_env()
        _env_applied = True
    return _active


@contextmanager
def configured(config: RunConfig | None = None,
               **changes: Any) -> Iterator[RunConfig]:
    """Install ``config`` (default: the active one) with ``changes``
    applied, and restore the previous configuration on exit.  Unnamed
    fields keep their value: ``configured(faults=p)`` keeps the
    sentinels."""
    global _active
    prev = current()
    _active = replace(prev if config is None else config, **changes)
    try:
        yield _active
    finally:
        _active = prev
