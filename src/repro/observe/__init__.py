"""Zero-dependency observability for the GLAF pipeline.

The subsystem has three legs, each with a module-level no-op default so
un-instrumented runs cost nothing (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.observe.trace` — a :class:`Tracer` of nestable spans
  (``with tracer.span("analysis.dependence", step=name):``) capturing
  wall time, call counts, and key/value attributes;
* :mod:`repro.observe.metrics` — a thread-safe :class:`MetricsRegistry`
  of counters / gauges / histograms;
* :mod:`repro.observe.decisions` — a :class:`DecisionLog` of structured
  "why" events from the parallelization analyzer, the pruning passes,
  and the model-guided advisor.

The usual entry point is :func:`observed`, which installs all three for
the duration of a ``with`` block and hands back the bundle;
:func:`build_record` distills it into one ``repro.run/v1`` run record,
and every view renders from that record::

    from repro import observe

    with observe.observed() as obs:
        plan = make_plan(program, "GLAF-parallel v2")
        src = generate_fortran_module(plan)
    record = observe.build_record(command="example", observation=obs)
    print(observe.render_run(record))

``repro profile PROJECT.json`` and the ``--profile`` flag on
``experiments`` / ``generate`` are the CLI front doors to the same
machinery: the CLI builds one record per observed run, prints
:func:`render_run` of it, and writes the record itself or its
:func:`record_to_chrome` trace to files.

On top of the in-process trio sit the durable pieces (PR 8):

* :mod:`repro.observe.ledger` — the ``repro.run/v1`` record
  (:func:`build_record`) and the persistent ``.repro/runs/`` run ledger
  (atomic index, quarantine);
* :mod:`repro.observe.export` — the text view of a record, Prometheus
  text exposition, the Chrome/Perfetto trace of a record, and the static
  HTML dashboard behind ``repro runs``;
* :mod:`repro.observe.sample` — the opt-in background
  :class:`ResourceSampler` (RSS / CPU / GC time series).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .decisions import (
    NULL_DECISIONS,
    Decision,
    DecisionLog,
    NullDecisionLog,
    get_decisions,
    set_decisions,
)
from .metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    get_metrics,
    set_metrics,
)
from .bench import BENCH_SCHEMA, RepeatStats, stage_seconds, summarize_repeats
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = [
    # trace
    "Span", "Tracer", "NullTracer", "NULL_TRACER", "get_tracer", "set_tracer",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullMetricsRegistry",
    "NULL_METRICS", "get_metrics", "set_metrics",
    # decisions
    "Decision", "DecisionLog", "NullDecisionLog", "NULL_DECISIONS",
    "get_decisions", "set_decisions",
    # bench statistics
    "BENCH_SCHEMA", "RepeatStats", "summarize_repeats", "stage_seconds",
    # session
    "Observation", "observed",
    # run record + ledger + exporters + sampling
    "RUN_SCHEMA", "INDEX_SCHEMA", "DEFAULT_LEDGER_DIR", "LEDGER_ENV",
    "RunLedger", "build_record", "ledger_dir_from_env", "record_json",
    "run_environment", "stage_totals",
    "to_prometheus", "parse_prometheus", "record_to_chrome",
    "render_runs_html", "render_runs_table", "render_run", "diff_runs",
    "render_runs_trend",
    "ResourceSampler", "read_rss_bytes",
]


@dataclass
class Observation:
    """The tracer + metrics + decision log installed by one :func:`observed`."""

    tracer: Tracer
    metrics: MetricsRegistry
    decisions: DecisionLog


@contextmanager
def observed(clock=None) -> Iterator[Observation]:
    """Install a fresh tracer/metrics/decision-log trio for the block.

    Restores whatever was installed before on exit, so observations nest
    (the inner one wins while active).  ``clock`` is handed to the
    :class:`Tracer` so recorded durations are deterministic under test
    (the bench recorder threads its injected clock through here).
    """
    obs = Observation(Tracer(clock) if clock is not None else Tracer(),
                      MetricsRegistry(), DecisionLog())
    prev_t = set_tracer(obs.tracer)
    prev_m = set_metrics(obs.metrics)
    prev_d = set_decisions(obs.decisions)
    try:
        yield obs
    finally:
        set_tracer(prev_t)
        set_metrics(prev_m)
        set_decisions(prev_d)


# Durable layer last: ledger/export/sample import the modules above.
from .export import (  # noqa: E402
    diff_runs,
    parse_prometheus,
    record_to_chrome,
    render_run,
    render_runs_html,
    render_runs_table,
    render_runs_trend,
    to_prometheus,
)
from .ledger import (  # noqa: E402
    DEFAULT_LEDGER_DIR,
    INDEX_SCHEMA,
    LEDGER_ENV,
    RUN_SCHEMA,
    RunLedger,
    build_record,
    ledger_dir_from_env,
    record_json,
    run_environment,
    stage_totals,
)
from .sample import ResourceSampler, read_rss_bytes  # noqa: E402
