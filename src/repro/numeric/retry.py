"""Seeded, deterministic retry-with-backoff for transiently-failing stages.

One preempted repeat or transient :class:`repro.errors.ExecutionError`
used to abort a whole benchmark sweep.  :func:`retry_call` re-runs the
stage under an exponential-backoff schedule that is *deterministic* — the
jitter comes from a seeded generator, so two runs with the same
:class:`RetryPolicy` retry at exactly the same offsets — and
*budget-aware*: handed a :class:`repro.robust.ResourceLimits`, the total
time spent (attempts + sleeps) may not exceed ``max_wall_seconds``, after
which the last error propagates.

Two error classes are deliberately never retried:

* :class:`repro.errors.ResourceLimitError` — the stage already exhausted
  a budget; re-running digs deeper;
* :class:`repro.errors.NumericIntegrityError` — a sentinel trip is
  deterministic; the NaN will be there on every attempt.

Each give-up or retry records a ``retry`` DecisionLog event, so profiled
runs show the flakiness alongside the stage that exhibited it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import ExecutionError, NumericIntegrityError, ResourceLimitError

__all__ = ["RetryPolicy", "retry_call"]

#: Exceptions retrying can never fix (checked before ``retryable``).
_NEVER_RETRY = (ResourceLimitError, NumericIntegrityError)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for :func:`retry_call`.

    ``retries`` counts re-attempts (0 disables retrying); the delay
    before re-attempt *k* is ``base_delay * multiplier**k``, scaled by a
    seeded jitter factor in ``[1 - jitter, 1 + jitter]``.
    """

    retries: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.base_delay < 0 or self.multiplier < 1.0:
            raise ValueError("base_delay must be >= 0 and multiplier >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delays(self) -> list[float]:
        """The full deterministic backoff schedule, one entry per retry."""
        rng = np.random.default_rng(self.seed)
        return [
            self.base_delay * self.multiplier ** k
            * (1.0 + self.jitter * float(rng.uniform(-1.0, 1.0)))
            for k in range(self.retries)
        ]


def retry_call(
    fn: Callable[[], Any],
    *,
    policy: RetryPolicy,
    what: str = "stage",
    retryable: tuple[type[BaseException], ...] = (ExecutionError,),
    limits=None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> Any:
    """Call ``fn`` under ``policy``; return its result.

    Exceptions outside ``retryable`` (and the never-retry classes)
    propagate immediately.  ``limits.max_wall_seconds``, when given,
    bounds the *total* retry budget: once the deadline passes — or the
    next backoff sleep would pass it — the last error propagates.
    ``sleep``/``clock`` are injectable so tests run without waiting.
    """
    from ..observe import get_decisions

    deadline = None
    if limits is not None and limits.max_wall_seconds is not None:
        deadline = clock() + limits.max_wall_seconds
    schedule = policy.delays()

    def note(verdict: str, attempt: int, reason: str) -> None:
        dl = get_decisions()
        if dl.enabled:
            dl.record("retry", what, attempt, "", verdict, reasons=(reason,))

    for attempt in range(policy.retries + 1):
        try:
            return fn()
        except _NEVER_RETRY:
            raise
        except retryable as e:
            if attempt >= policy.retries:
                note("gave-up", attempt,
                     f"{type(e).__name__} after {attempt + 1} attempt(s): {e}")
                raise
            delay = schedule[attempt]
            if deadline is not None and clock() + delay > deadline:
                note("gave-up", attempt,
                     f"retry budget exhausted ({limits.max_wall_seconds}s); "
                     f"last error: {type(e).__name__}: {e}")
                raise
            note("retried", attempt,
                 f"{type(e).__name__}: {e}; backing off {delay:.3f}s")
            sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
