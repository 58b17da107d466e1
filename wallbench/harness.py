"""Measure one workload: in-process (:func:`measure`) and in fresh
processes (:func:`run_workload`).

Run model: one closed-loop client; each call starts after the previous
one finished.  Set-up builds the inputs and references and runs one
warm-up round; then whole rounds run until ``seconds`` have passed and
at least :data:`MIN_ROUNDS` are done, so every run holds the same mix
of calls.  Only entry-point calls are timed for the end-to-end
metrics.  A traced run (``trace=True``) runs every call twice per round,
once through its traced decomposition and once through the entry point,
alternating which goes first; it yields the per-layer metrics and the
tracing overhead, and checks that both forms give the same output.

Every time is taken with a :class:`RefClock`, in reference-speed
seconds: see its docstring for why.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from . import WallbenchError
from .workloads import WORKLOADS, Call, OpRecord, digest

__all__ = ["MIN_ROUNDS", "REFERENCE_S", "ROOT", "SETUP_REPEATS", "WORK",
           "RefClock", "launch_clock", "measure", "percentile", "probe_s",
           "quantile", "run_workload", "typical_ms"]

#: The checkout root: ``wallbench/`` and ``src/`` live side by side here.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of a run (caches, checkpoints), inside the checkout.
WORK = ROOT / ".wallbench"
#: Fresh processes whose set-up time is measured; ``setup_s`` is their
#: median (the last one also runs the timed rounds).
SETUP_REPEATS = 3
#: Rounds a run holds at least, whatever its ``seconds``: seven rounds of
#: six ops leave ten samples beyond ``op_p75_ms``.
MIN_ROUNDS = 7
#: Seconds the reference work of :func:`probe_s` takes at reference
#: speed: about its median on the 2-core host the bounds were set on.
REFERENCE_S = 3.0e-3
#: Every child of one ``run_workload`` call must end within this.
RUN_DEADLINE_S = 170.0
#: Tracebacks printed per run before further op failures are only counted.
_MAX_TRACEBACKS = 3


def _reference_work() -> int:
    """A fixed slice of the interpreter work the workloads spend their time
    in: string formatting, dict updates, tuple allocation and a sort.  It
    spreads over 2999 distinct keys: with 97, op times followed the probe
    less closely (regression slope 0.76-0.88 against 0.81-1.0, by
    workload)."""
    table: dict[str, int] = {}
    pairs = []
    for i in range(3000):
        key = "k%d" % (i * 7919 % 2999)
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
    pairs.sort()
    return len(table)


def probe_s() -> float:
    """Seconds the reference work takes now.

    Only a second run is timed: a first run right after an op took 4-18%
    longer, depending on the op, on the caches the op left behind.  The
    collector is off, so the size of the program's heap does not change
    the cost either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_work()
        t0 = perf_counter()
        _reference_work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Times work in reference-speed seconds.

    The host's CPU speed drifts: a fixed pure-Python loop runs up to 1.5x
    slower or faster from one second to the next, with no CPU time stolen,
    so wall times of one commit spread 15-40% between runs.  The drift is
    slow next to a probe: two probes 2 ms apart agree within 5%.  So every
    lap ends with a probe of the reference work, and the lap's wall time is
    scaled by :data:`REFERENCE_S` over the mean of the probes before and
    after it.  Probe time is in no lap.

    ``start`` is a :func:`time.perf_counter` value the first lap counts
    from; without it, the clock probes first and starts after the probe.
    """

    def __init__(self, start: float | None = None):
        self.probes: list[float] = []
        self._before: float | None = None
        if start is None:
            self._before = probe_s()
            self.probes.append(self._before)
            start = perf_counter()
        self._t = start
        #: Reference seconds per wall second over the last lap.
        self.scale = 1.0

    def skip(self) -> None:
        """Start the next lap now: what ran since the last lap is not
        timed."""
        self._t = perf_counter()

    def lap(self) -> float:
        """Reference-speed seconds since the last lap (or skip)."""
        wall = perf_counter() - self._t
        after = probe_s()
        self.probes.append(after)
        ref = after if self._before is None else (self._before + after) / 2
        self._before = after
        self.scale = REFERENCE_S / ref
        self._t = perf_counter()
        return wall * self.scale


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentile(values: list[float], q: float) -> float | None:
    """The ``q``-quantile, or ``None`` when fewer than ten samples lie
    beyond it: a tail estimated from fewer samples is not reported."""
    if round(len(values) * (1.0 - q), 9) < 10:
        return None
    return quantile(values, q)


def typical_ms(samples: list[tuple[str, float]]) -> float:
    """Median op latency, each op counted at its kind's median latency.

    A round runs several op kinds of very different cost; the plain median
    then falls on the gap between two kinds, where one slow op moves it.
    Counting every op at its kind's median keeps the median inside one
    kind's distribution and leaves host hiccups to ``op_p75_ms``.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, ms in samples:
        by_kind.setdefault(kind, []).append(ms)
    medians = {kind: quantile(v, 0.5) for kind, v in by_kind.items()}
    return quantile([medians[kind] for kind, _ in samples], 0.5)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for descendant."""
    import resource

    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


class _Attempts:
    """Runs calls, turning an exception into failed ops (with the first
    few tracebacks on stderr); :class:`WallbenchError` stays fatal."""

    def __init__(self) -> None:
        self.tracebacks = 0

    def __call__(self, fn: Callable[[], tuple[int, Any]], ops: int
                 ) -> tuple[int, Any]:
        try:
            return fn()
        except WallbenchError:
            raise
        except Exception:
            if self.tracebacks < _MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
            self.tracebacks += 1
            return ops, None


def measure(name: str, seed: int, seconds: float, trace: bool = False, *,
            min_rounds: int = MIN_ROUNDS, setup_only: bool = False,
            start: float | None = None) -> dict:
    """Set up ``name`` for ``seed`` and measure it in this process.

    Returns ``{"correct", "attempted", "failed", "metrics", ...}`` with
    raw metric values (end-to-end, or per-layer when ``trace``), or only
    ``{"metrics": {"setup_s": ...}}`` with ``setup_only``.  ``setup_s``
    counts from ``start`` (a :func:`time.perf_counter` value, such as the
    process launch) or, without it, from this call.  Tests run reduced
    workloads through a smaller ``min_rounds``.
    """
    clock = RefClock(start)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        workload = WORKLOADS[name](seed, work)
        attempt = _Attempts()
        setup_s = clock.lap()
        for call in workload.calls(0):          # warm-up round
            attempt(call.run, call.ops)
            setup_s += clock.lap()
        if setup_only:
            return {"metrics": {"setup_s": setup_s}}
        if trace:
            # A traced round runs every call twice, so half the rounds
            # make as many calls as an untraced run.
            result = _traced_loop(workload, clock, seconds,
                                  -(-min_rounds // 2), attempt)
        else:
            result = _timed_loop(workload, clock, seconds, min_rounds,
                                 attempt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        result["metrics"].update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
    result["correct"] = result["failed"] == 0
    result["reference_ms"] = 1e3 * statistics.median(clock.probes)
    return result


def _rounds(workload, seconds: float, min_rounds: int):
    """Round indexes 1, 2, ... until ``seconds`` and ``min_rounds`` are
    both met; a run always ends on a round boundary."""
    deadline = perf_counter() + seconds
    r = 1
    while r <= min_rounds or perf_counter() < deadline:
        yield r, workload.calls(r)
        r += 1


def _timed_loop(workload, clock: RefClock, seconds: float, min_rounds: int,
                attempt: _Attempts) -> dict:
    samples: list[tuple[str, float]] = []
    round_s: list[float] = []
    ops = failed = 0
    for _, calls in _rounds(workload, seconds, min_rounds):
        clock.skip()                            # building a round is no op
        total = 0.0
        for call in calls:
            bad, _ = attempt(call.run, call.ops)
            s = clock.lap()
            samples.append((call.label, s * 1e3 / call.ops))
            total += s
            ops += call.ops
            failed += bad
        round_s.append(total)
    op_ms = [ms for _, ms in samples]
    tail = percentile(op_ms, 0.75)
    if tail is None:
        # Only a run much shorter than ``run_seconds``, as in the tests,
        # holds fewer than 40 samples.  The run record keeps the count.
        tail = quantile(op_ms, 0.75)
    campaign_s = quantile(round_s, 0.5)
    return {
        "attempted": ops, "failed": failed,
        "rounds": len(round_s), "op_samples": len(samples),
        "metrics": {
            "ops_per_s": ops / len(round_s) / campaign_s,
            "op_p50_ms": typical_ms(samples),
            "op_p75_ms": tail,
            "campaign_p50_s": campaign_s,
        },
    }


def _record(call: Call, root, scale: float) -> OpRecord:
    """The layer times of one traced call, in reference-speed seconds."""
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    for span in root.walk():
        if span is root:
            continue
        child_s = sum(c.duration for c in span.children)
        self_s[span.name] = self_s.get(span.name, 0.0) + scale * (
            span.duration - child_s)
        for key, value in span.attrs.items():
            counts[key] = counts.get(key, 0.0) + value
    return OpRecord(
        label=call.label, ops=call.ops, wall_s=scale * root.duration,
        self_s=self_s, counts=counts,
        unattributed_s=scale * (root.duration
                                - sum(c.duration for c in root.children)))


def _traced_loop(workload, clock: RefClock, seconds: float, min_rounds: int,
                 attempt: _Attempts) -> dict:
    from repro.observe import Tracer

    tracer = Tracer()
    records: list[OpRecord] = []
    slowdowns: list[float] = []
    ops = failed = 0
    for r, calls in _rounds(workload, seconds, min_rounds):
        for i, call in enumerate(calls):
            outs, secs = {}, {}
            for form in (("traced", "plain") if (r + i) % 2 else
                         ("plain", "traced")):
                clock.skip()
                if form == "traced":
                    with tracer.span("op") as root:
                        bad, out = attempt(lambda: call.traced(tracer),
                                           call.ops)
                    secs[form] = clock.lap()
                    tracer.reset()
                    record = _record(call, root, clock.scale)
                    if call.side and out is not None:
                        # The side pass runs outside the op's span, and the
                        # harness times it as a whole.
                        clock.skip()
                        record.counts.update(call.side(out))
                        record.counts["side_s"] = clock.lap()
                    records.append(record)
                else:
                    bad, out = attempt(call.run, call.ops)
                    secs[form] = clock.lap()
                outs[form] = out
                ops += call.ops
                failed += bad
            slowdowns.append(secs["traced"] / secs["plain"])
            traced, plain = outs["traced"], outs["plain"]
            if (traced is not None and plain is not None
                    and digest(traced) != digest(plain)):
                print(f"wallbench: {workload.name} {call.label}: traced "
                      "decomposition output differs from the entry point's",
                      file=sys.stderr)
                failed += call.ops
    metrics = workload.layer_metrics(records)
    # Each call's two forms run back to back, so their ratio cancels what
    # the reference probes leave of the host's drift.
    metrics["trace.overhead"] = quantile(slowdowns, 0.5) - 1.0
    return {"attempted": ops, "failed": failed, "rounds": r,
            "op_samples": len(slowdowns), "metrics": metrics}


# ----------------------------------------------------------------------
# fresh processes
# ----------------------------------------------------------------------
def launch_clock() -> float:
    """A clock that reads the same in every process of the host, for the
    launch time a child's set-up counts from."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child(name: str, seed: int, seconds: float, trace: bool,
           setup_only: bool, deadline: float) -> dict:
    """Run one ``python -m wallbench child`` and return its result
    document."""
    cmd = [sys.executable, "-m", "wallbench", "child", name,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    path = [str(ROOT / "src")] + [p for p in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    try:
        proc = subprocess.run(
            cmd + ["--launched", repr(launch_clock())], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise WallbenchError(f"{name} seed {seed}: child did not finish "
                             "in time") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WallbenchError(f"{name} seed {seed}: child exited with code "
                             f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool = False) -> dict:
    """Measure ``name`` in fresh processes.

    Untraced runs set up :data:`SETUP_REPEATS` times, each in its own
    process, and report the median as ``setup_s``; the last process also
    runs the timed rounds, and its ``peak_rss_mb`` is reported.
    """
    deadline = perf_counter() + RUN_DEADLINE_S
    setups = [_child(name, seed, seconds, trace, True, deadline)
              ["metrics"]["setup_s"]
              for _ in range(0 if trace else SETUP_REPEATS - 1)]
    result = _child(name, seed, seconds, trace, False, deadline)
    if not trace:
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result
