"""Structured "why" events from the analysis and optimization passes.

Timing says *where* the pipeline spends its effort; decisions say *what it
concluded*.  The parallelization analyzer, the pruning pipeline, and the
model-guided advisor each emit one :class:`Decision` per (function, step)
they rule on, carrying the loop class, the verdict, and the reasons — so
the paper's Table 2 variant differences ("why did v2 drop this loop but
keep that one?") can be answered from a single ``repro profile`` run.

Stages and their verdict vocabularies:

===========================  ========================================
``parallelize``              ``parallel`` | ``serial``
``pruning``                  ``kept`` | ``pruned`` | ``not-parallel``
``advisor``                  ``omp`` | ``simd`` | ``none``
``parallel:conflict``         ``conflict``
``fault``                    ``injected``
``lint:<rule>``              ``violation``
``numeric:<kind>``           ``detected``
``retry``                    ``retried`` | ``gave-up``
``executor:fallback``        ``interpreter`` | ``scalar``
``executor:inline``          ``inlined``
``fuzz:item``                ``clean`` | ``failed``
``fuzz:signature``           ``new`` | ``duplicate``
``fuzz:shrink``              ``minimized``
``fuzz:quarantine``          ``written``
``fuzz:campaign``            ``clean`` | ``failed``
``run:record``               ``opened``
``sample:resource``          ``started`` | ``stopped``
``batch:item``               ``ok`` | ``failed`` | ``quarantined``
``batch:quarantine``         ``written`` | ``sticky``
``batch:degraded``           ``serial``
``batch:campaign``           ``completed`` | ``failed``
``cache:corrupt-entry``      ``discarded``
===========================  ========================================

The ``parallel:conflict`` stage is emitted by the access-conflict check
(:mod:`repro.glafexec.conflicts`), one per (step, grid), naming the first
conflicting cell and the two iterations (attrs ``grid``, ``kind``):
under ``validate_parallel_semantics`` and under the ``guarded`` executor,
which is that check; the ``fault``
stage is emitted by :mod:`repro.robust.faults` whenever an injected fault
fires, so a profiled fault-injection run shows cause and recovery side by
side.  The ``lint:<rule>`` stages (one per rule id in
:data:`repro.lint.RULES`, e.g. ``lint:race-shared-write``) are emitted by
the static linter for every finding, so injected directive corruptions
and the lint findings that catch them land in the same log.  The
``numeric:<kind>`` stages (one per kind in
:data:`repro.numeric.SENTINEL_KINDS`, e.g. ``numeric:nan``) are emitted
by the numeric sentinels on every trip, and ``retry`` by
:func:`repro.numeric.retry_call` for every backoff or give-up — see
``docs/NUMERICS.md``.  The ``executor:fallback`` stage is emitted by
:class:`repro.glafexec.VectorizedInterpreter` whenever a step it cannot
lift to a whole-grid array program is demoted to the reference
interpreter (verdict ``interpreter``, with the reason the lift was
refused), and ``executor:inline`` for every lifted step that inlines
calls or expands per-iteration scratch; the FORTRAN runtime emits ``executor:fallback`` (verdict ``scalar``) for a DO
nest it keeps on its scalar closure, and ``executor:inline`` for every DO
statement it lifts through the inliner or with per-iteration scratch
(the generated and spliced FUN3D ``DO c; CALL cell_loop(c)`` sweep) —
see ``docs/EXECUTORS.md``.  The
``fuzz:*`` stages narrate a ``repro fuzz`` campaign — one ``fuzz:item``
per generated project (reasons = failure signature keys),
``fuzz:signature`` when triage sees a signature (``new`` opens a
bucket), ``fuzz:shrink`` /
``fuzz:quarantine`` as a new bucket's exemplar is minimized and its
reproducer bundle written, and one closing ``fuzz:campaign`` — see
``docs/FUZZING.md``.  The ``run:record`` stage is emitted by the CLI when
a ledgered run opens (attrs carry the ledger directory), and
``sample:resource`` by the background
:class:`repro.observe.sample.ResourceSampler` when it starts and stops —
see ``docs/RUN_LEDGER.md``.  The ``batch:*`` stages narrate a
``repro batch`` campaign — one ``batch:item`` per corpus item (with
cache/resume/attempt attrs), ``batch:quarantine`` when a poison item's
bundle is written (or recognized ``sticky`` from a prior campaign),
``batch:degraded`` when multiprocessing is unavailable and the driver
compiles in-process, and one closing ``batch:campaign`` carrying the
manifest digest; ``cache:corrupt-entry`` is emitted by the
content-addressed artifact cache whenever a tampered or truncated entry
is detected, discarded, and recompiled — see ``docs/BATCH.md``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Decision",
    "DecisionLog",
    "NullDecisionLog",
    "NULL_DECISIONS",
    "get_decisions",
    "set_decisions",
]


@dataclass(frozen=True)
class Decision:
    """One structured verdict from an analysis/optimization pass."""

    stage: str                      # 'parallelize' | 'pruning' | 'advisor'
    function: str
    step_index: int
    step_name: str
    verdict: str
    loop_class: str = ""
    reasons: tuple[str, ...] = ()
    attrs: tuple[tuple[str, object], ...] = ()
    t: float = 0.0                  # perf_counter stamp (Chrome instants)

    def to_dict(self) -> dict[str, object]:
        return {
            "stage": self.stage,
            "function": self.function,
            "step_index": self.step_index,
            "step_name": self.step_name,
            "verdict": self.verdict,
            "loop_class": self.loop_class,
            "reasons": list(self.reasons),
            "attrs": dict(self.attrs),
            "t": self.t,
        }


@dataclass
class DecisionLog:
    """Append-only, thread-safe list of :class:`Decision` events."""

    events: list[Decision] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    enabled = True

    def record(
        self,
        stage: str,
        function: str,
        step_index: int,
        step_name: str,
        verdict: str,
        *,
        loop_class: str = "",
        reasons: tuple[str, ...] | list[str] = (),
        **attrs: object,
    ) -> None:
        d = Decision(
            stage=stage,
            function=function,
            step_index=step_index,
            step_name=step_name,
            verdict=verdict,
            loop_class=loop_class,
            reasons=tuple(reasons),
            attrs=tuple(sorted(attrs.items())),
            t=time.perf_counter(),
        )
        with self._lock:
            self.events.append(d)

    def for_stage(self, stage: str) -> list[Decision]:
        with self._lock:
            return [d for d in self.events if d.stage == stage]

    def by_function(self) -> dict[str, list[Decision]]:
        """Events grouped per subroutine/function, insertion-ordered."""
        out: dict[str, list[Decision]] = {}
        with self._lock:
            for d in self.events:
                out.setdefault(d.function, []).append(d)
        return out

    def reset(self) -> None:
        with self._lock:
            self.events.clear()


class NullDecisionLog:
    """Default no-op log: ``record`` discards, queries return empty."""

    enabled = False
    events: list[Decision] = []

    def record(self, *args, **kwargs) -> None:
        return None

    def for_stage(self, stage: str) -> list[Decision]:
        return []

    def by_function(self) -> dict[str, list[Decision]]:
        return {}

    def reset(self) -> None:
        return None


NULL_DECISIONS = NullDecisionLog()

_decisions: DecisionLog | NullDecisionLog = NULL_DECISIONS


def get_decisions() -> DecisionLog | NullDecisionLog:
    """The process-wide decision log (no-op unless observation is active)."""
    return _decisions


def set_decisions(
    log: DecisionLog | NullDecisionLog | None,
) -> DecisionLog | NullDecisionLog:
    """Install ``log`` (``None`` restores the no-op); returns the previous."""
    global _decisions
    prev = _decisions
    _decisions = log if log is not None else NULL_DECISIONS
    return prev
