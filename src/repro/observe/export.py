"""Views and telemetry exporters over run records (``docs/RUN_LEDGER.md``).

A ``repro.run/v1`` record is the one document an observed run becomes;
everything here renders from it, so a view of a live run and of a
ledgered one are the same text:

* :func:`render_run` — the one text view: run header, span tree,
  per-stage summary, metrics, decisions and event counts.  ``repro
  profile``, bare ``--profile`` and ``repro runs show`` all print it;
* :func:`record_to_chrome` — the Chrome/Perfetto trace of a record: one
  phase-``"X"`` event per span, phase-``"C"`` counter tracks from the
  metrics snapshot and the resource-sampler series, and phase-``"i"``
  instants for every decision event;
* :func:`to_prometheus` — the metrics snapshot of a record in the
  Prometheus text exposition format (counters as ``*_total``, gauges,
  histogram summaries), with :func:`parse_prometheus` as the built-in
  grammar check so tests and ``repro runs selftest`` can verify every
  emitted page actually parses;
* :func:`render_runs_html` — a fully self-contained static HTML
  dashboard (inline CSS + SVG, zero external dependencies) showing the
  run trajectory, per-stage flame summaries, and the
  conflict/fallback/sentinel event timeline;
* :func:`render_runs_table` / :func:`diff_runs` /
  :func:`render_runs_trend` — the text views for ``repro runs
  list|diff|trend``.

A record written before records stored their spans carries only a
name-aggregated ``flame`` tree; :func:`record_spans` lays it out as spans
so such records still render and export.
"""

from __future__ import annotations

import html as _html
import re
import shlex
import time

from .ledger import MAIN_THREAD, aggregate_children

__all__ = [
    "to_prometheus",
    "parse_prometheus",
    "record_spans",
    "record_to_chrome",
    "render_runs_html",
    "render_runs_table",
    "render_run",
    "diff_runs",
    "render_runs_trend",
]


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_PROM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_PROM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$")
_PROM_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _prom_name(name: str, suffix: str = "") -> str:
    """A valid Prometheus metric name for one of our dotted instruments."""
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not sanitized or not re.match(r"[a-zA-Z_:]", sanitized[0]):
        sanitized = "_" + sanitized
    return f"repro_{sanitized}{suffix}"


def _prom_value(v: object) -> str:
    f = float(v)  # bools are filtered out upstream; ints format cleanly
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _prom_labels(labels: dict[str, str] | None) -> str:
    if not labels:
        return ""
    parts = []
    for k, v in sorted(labels.items()):
        if not _PROM_LABEL_RE.match(k):
            raise ValueError(f"invalid Prometheus label name {k!r}")
        escaped = (str(v).replace("\\", r"\\").replace('"', r"\"")
                   .replace("\n", r"\n"))
        parts.append(f'{k}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def to_prometheus(snapshot: dict,
                  labels: dict[str, str] | None = None) -> str:
    """A metrics snapshot (``MetricsRegistry.snapshot()`` / a run
    record's ``metrics`` field) in Prometheus text exposition format.

    Counters become ``repro_<name>_total`` counter families, gauges
    ``repro_<name>`` gauges, histograms summary families
    (``_sum``/``_count``) with companion ``_min``/``_max`` gauges.
    ``labels`` (e.g. ``{"run": "run-000003"}``) are attached to every
    sample.  The output is checked by :func:`parse_prometheus` in the
    selftest, so what we emit is what the grammar admits.
    """
    lab = _prom_labels(labels)
    lines: list[str] = []

    def family(name: str, kind: str, samples: list[tuple[str, object]]):
        lines.append(f"# HELP {name} GLAF pipeline metric")
        lines.append(f"# TYPE {name} {kind}")
        for sample_name, value in samples:
            lines.append(f"{sample_name}{lab} {_prom_value(value)}")

    for name, value in snapshot.get("counters", {}).items():
        family(_prom_name(name, "_total"), "counter",
               [(_prom_name(name, "_total"), value)])
    for name, value in snapshot.get("gauges", {}).items():
        family(_prom_name(name), "gauge", [(_prom_name(name), value)])
    for name, summary in snapshot.get("histograms", {}).items():
        base = _prom_name(name)
        family(base, "summary", [(f"{base}_sum", summary.get("sum", 0.0)),
                                 (f"{base}_count", summary.get("count", 0))])
        for stat in ("min", "max"):
            family(f"{base}_{stat}", "gauge",
                   [(f"{base}_{stat}", summary.get(stat, 0.0))])
    return "\n".join(lines) + "\n" if lines else "# EOF\n"


def parse_prometheus(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse a text-exposition page; raises ``ValueError`` on grammar
    violations.  Returns ``{metric_name: [(labels, value), ...]}`` —
    the acceptance check behind "the exporter output parses"."""
    out: dict[str, list[tuple[dict, float]]] = {}
    typed: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3 or not _PROM_NAME_RE.match(parts[2]):
                    raise ValueError(
                        f"line {lineno}: malformed {parts[1]} comment: {line!r}")
                if parts[1] == "TYPE":
                    kind = parts[3] if len(parts) > 3 else ""
                    if kind not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                        raise ValueError(
                            f"line {lineno}: unknown metric type {kind!r}")
                    typed[parts[2]] = kind
            continue
        m = _PROM_SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        labels: dict[str, str] = {}
        body = m.group("labels")
        if body:
            matched = _PROM_LABEL_PAIR_RE.findall(body)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in matched)
            if rebuilt.replace(" ", "") != body.strip().rstrip(",").replace(" ", ""):
                raise ValueError(f"line {lineno}: malformed labels: {body!r}")
            labels = dict(matched)
        try:
            value = float(m.group("value"))
        except ValueError as e:
            raise ValueError(
                f"line {lineno}: bad sample value {m.group('value')!r}") from e
        out.setdefault(m.group("name"), []).append((labels, value))
    return out


# ---------------------------------------------------------------------------
# Chrome trace of a record
# ---------------------------------------------------------------------------

def record_spans(record: dict) -> list[dict]:
    """The record's span tree (``name``, ``start_s``, ``duration_s``, and
    ``thread``, ``attrs`` and ``children`` where they are not the main
    thread or empty).

    A record written before records stored their spans has only the
    name-aggregated ``flame`` tree: its nodes are laid out one after
    another inside their parent, with the call count as the one attr —
    per-name totals and nesting are exact, interleaving is not.
    """
    if "spans" in record:
        return record["spans"]

    def lay(nodes: list[dict], cursor: float) -> list[dict]:
        out = []
        for node in nodes:
            dur = float(node.get("total_s", 0.0))
            out.append({"name": node.get("name", "?"), "start_s": cursor,
                        "duration_s": dur, "thread": "",
                        "attrs": {"calls": node.get("calls", 1)},
                        "children": lay(node.get("children", []), cursor)})
            cursor += dur
        return out

    return lay(record.get("flame", []), 0.0)


def record_to_chrome(record: dict) -> dict[str, object]:
    """A Chrome/Perfetto trace document for one ``repro.run/v1`` record.

    The result loads directly into ``chrome://tracing`` or Perfetto
    (https://ui.perfetto.dev).  Every span becomes a complete event
    (``"ph": "X"``) with microsecond ``ts``/``dur`` relative to the trace
    epoch and its attributes as ``args``; its pipeline stage (the first
    dotted name component) becomes the event category, so the UI can
    filter by stage.  Threads map to stable integer ``tid`` values with
    metadata events carrying the real names.

    Every counter becomes a counter track (a zero point at the epoch and
    the final value at the end of the run), every gauge its last-written
    value, every sampler tick one point on the ``sample.rss_mb`` /
    ``sample.cpu_s`` / ``sample.gc_gen0`` tracks, and every decision an
    instant event (``"ph": "i"``) at the moment it was recorded,
    categorized by stage.  The record's ``meta`` rides in ``otherData``.
    """
    tids: dict[str, int] = {}
    events: list[dict[str, object]] = []

    def tid_of(thread: str) -> int:
        if thread not in tids:
            tids[thread] = len(tids)
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0,
                "tid": tids[thread], "args": {"name": thread or "main"},
            })
        return tids[thread]

    end = float(record.get("wall_s", 0.0)) * 1e6

    def emit(span: dict) -> None:
        nonlocal end
        start = span["start_s"] * 1e6
        dur = span["duration_s"] * 1e6
        end = max(end, start + dur)
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X", "ts": round(start, 3), "dur": round(dur, 3),
            "pid": 0, "tid": tid_of(span.get("thread", MAIN_THREAD)),
            "args": span.get("attrs", {}),
        })
        for c in span.get("children", ()):
            emit(c)

    for root in record_spans(record):
        emit(root)
    metrics = record.get("metrics", {})
    for name, value in metrics.get("counters", {}).items():
        # Two points per counter: the zero at the epoch gives the UI a
        # track to draw even for a single-valued counter.
        events.append({"name": name, "cat": "metric", "ph": "C", "ts": 0.0,
                       "pid": 0, "args": {"value": 0}})
        events.append({"name": name, "cat": "metric", "ph": "C",
                       "ts": round(end, 3), "pid": 0,
                       "args": {"value": value}})
    for name, value in metrics.get("gauges", {}).items():
        events.append({"name": name, "cat": "metric", "ph": "C",
                       "ts": round(end, 3), "pid": 0,
                       "args": {"value": value}})
    for tick in record.get("samples", []):
        ts = round(max(0.0, float(tick.get("t", 0.0))) * 1e6, 3)
        for key, track in (("rss_mb", "sample.rss_mb"),
                           ("cpu_s", "sample.cpu_s"),
                           ("gc_gen0", "sample.gc_gen0")):
            if key in tick:
                events.append({"name": track, "cat": "sample", "ph": "C",
                               "ts": ts, "pid": 0,
                               "args": {"value": tick[key]}})
    for d in record.get("decisions", []):
        ts = round(max(0.0, float(d.get("t", 0.0))) * 1e6, 3)
        events.append({
            "name": f"{d.get('stage', '?')}:{d.get('verdict', '?')}",
            "cat": str(d.get("stage", "?")), "ph": "i", "s": "g",
            "ts": ts, "pid": 0, "tid": 0,
            "args": {"function": d.get("function", ""),
                     "step": d.get("step_name", ""),
                     "reasons": str(d.get("reasons", []))},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {**record.get("meta", {}),
                      "run": str(record.get("id", "?")),
                      "command": str(record.get("command", "?")),
                      "schema": str(record.get("schema", ""))},
    }


# ---------------------------------------------------------------------------
# text renderers (repro profile, repro runs list/show/diff/trend)
# ---------------------------------------------------------------------------

def _when(ts: object) -> str:
    try:
        return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(float(ts)))
    except (TypeError, ValueError, OverflowError):
        return "?"


def render_runs_table(entries: list[dict]) -> str:
    if not entries:
        return "(run ledger is empty)"
    header = (f"{'id':<12s} {'command':<14s} {'status':<8s} {'exit':>4s} "
              f"{'wall':>12s} {'recorded (UTC)':<20s} {'git':<8s}")
    lines = [header, "-" * len(header)]
    for e in entries:
        lines.append(
            f"{e.get('id', '?'):<12s} {e.get('command', '?'):<14s} "
            f"{e.get('status', '?'):<8s} {e.get('exit_code', 0):>4d} "
            f"{float(e.get('wall_s', 0.0)) * 1e3:>10.1f}ms "
            f"{_when(e.get('started')):<20s} "
            f"{str(e.get('git_sha', 'unknown'))[:7]:<8s}")
    return "\n".join(lines)


_EVENT_GROUPS = (
    ("parallel:conflict", lambda s: s == "parallel:conflict"),
    ("executor:fallback", lambda s: s == "executor:fallback"),
    ("numeric:*", lambda s: s.startswith("numeric:")),
    ("fault", lambda s: s == "fault"),
    ("lint:*", lambda s: s.startswith("lint:")),
    ("retry", lambda s: s == "retry"),
    ("fuzz:*", lambda s: s.startswith("fuzz:")),
    ("sample:*", lambda s: s.startswith("sample:")),
    ("run:*", lambda s: s.startswith("run:")),
)


def _event_counts(record: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for d in record.get("decisions", []):
        stage = str(d.get("stage", ""))
        for label, match in _EVENT_GROUPS:
            if match(stage):
                counts[label] = counts.get(label, 0) + 1
                break
    return counts


def _fmt_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"  [{inner}]"


def _tree_lines(spans: list[dict], max_depth: int) -> list[str]:
    """Flame-style text tree: siblings merged by name (``xN``), each line
    the total milliseconds and the name indented by depth."""
    lines: list[str] = []

    def emit(nodes: list[dict], depth: int) -> None:
        if depth >= max_depth:
            return
        for a in aggregate_children(nodes):
            calls = f" x{a['calls']}" if a["calls"] > 1 else ""
            lines.append(f"{a['total_s'] * 1e3:8.3f}ms  {'  ' * depth}"
                         f"{a['name']}{calls}{_fmt_attrs(a['attrs'])}")
            emit(a["children"], depth + 1)

    emit(spans, 0)
    return lines or ["(no spans recorded)"]


def _stage_lines(stages: list[dict]) -> list[str]:
    if not stages:
        return ["(no stages recorded)"]
    lines = [f"{'stage':<12s} {'calls':>6s} {'cumulative':>12s} {'self':>12s}",
             f"{'-' * 12} {'-' * 6} {'-' * 12} {'-' * 12}"]
    for r in stages:
        lines.append(f"{r['stage']:<12s} {r['calls']:>6d} "
                     f"{r['cumulative_s'] * 1e3:>10.3f}ms "
                     f"{r['self_s'] * 1e3:>10.3f}ms")
    return lines


def _metric_lines(metrics: dict) -> list[str]:
    lines = [f"{name:<40s} {v:>10}"
             for name, v in metrics.get("counters", {}).items()]
    lines += [f"{name:<40s} {v:>10g}"
              for name, v in metrics.get("gauges", {}).items()]
    lines += [f"{name:<40s} n={h['count']} mean={h['mean']:.4g} "
              f"min={h['min']:.4g} max={h['max']:.4g}"
              for name, h in metrics.get("histograms", {}).items()]
    return lines or ["(no metrics recorded)"]


def _decision_line(d: dict) -> str:
    cls = f" class={d['loop_class']}" if d["loop_class"] else ""
    why = f" — {d['reasons'][0]}" if d["reasons"] else ""
    extra = {k: v for k, v in d["attrs"].items()
             if v not in ("", None) and k != "variant"}
    return (f"    step {d['step_index']} {d['step_name']:<24s} "
            f"[{d['stage']}:{d['verdict']}]{cls}{why}{_fmt_attrs(extra)}")


def _decision_lines(decisions: list[dict]) -> list[str]:
    """Decision events grouped per subroutine/function."""
    grouped: dict[str, list[dict]] = {}
    for d in decisions:
        grouped.setdefault(d["function"], []).append(d)
    lines: list[str] = []
    for fname, events in grouped.items():
        lines.append(f"  {fname}")
        lines += [_decision_line(d) for d in events]
    return lines or ["(no decisions recorded)"]


def render_run(record: dict, *, max_depth: int = 12) -> str:
    """The one text view of a record: ``repro profile``, bare
    ``--profile`` and ``repro runs show`` all print it.

    A header (id, command, argv, outcome, wall, environment), then the
    span tree (siblings merged by name, attrs shown for unmerged spans,
    ``max_depth`` levels deep), the per-stage summary, the metrics, the
    decisions per function, the event counts and the sampler summary.
    """
    outcome = record.get("outcome", {})
    env = record.get("environment", {})
    ck = record.get("checkpoint") or {}
    command = f"repro {record.get('command', '?')}"
    lines = [
        f"== {record['id']}: {command} ==" if "id" in record
        else f"== {command} ==",
        f"argv:      {shlex.join(record.get('argv', [])) or '(none)'}",
        f"outcome:   {outcome.get('status', '?')} "
        f"(exit {outcome.get('exit_code', '?')})",
        f"wall:      {float(record.get('wall_s', 0.0)) * 1e3:.1f}ms",
        f"recorded:  {_when(record.get('started'))} UTC",
        f"env:       python {env.get('python', '?')}, numpy "
        f"{env.get('numpy', '?')}, git {str(env.get('git_sha', '?'))[:12]}, "
        f"executor {env.get('executor', '?')}",
    ]
    if ck:
        lines.append(f"checkpoint: dir={ck.get('dir', '?')} "
                     f"resume={ck.get('resume', False)}")
    lines.append("\n-- span tree --")
    lines += _tree_lines(record_spans(record), max_depth)
    lines.append("\n-- per-stage summary --")
    lines += _stage_lines(record.get("stages", []))
    lines.append("\n-- metrics --")
    lines += _metric_lines(record.get("metrics", {}))
    lines.append("\n-- decisions --")
    lines += _decision_lines(record.get("decisions", []))
    events = _event_counts(record)
    if events:
        lines.append("\n-- events --")
        for label in sorted(events):
            lines.append(f"  {label:<20s} {events[label]:>6d}")
    samples = record.get("samples", [])
    if samples:
        rss = [s.get("rss_mb", 0.0) for s in samples]
        lines.append(f"\n-- resource samples: {len(samples)} tick(s), "
                     f"rss {min(rss):.1f}..{max(rss):.1f} MB --")
    return "\n".join(lines)


def _pct(old: float, new: float) -> str:
    if old <= 0.0:
        return "+inf%" if new > 0.0 else "+0.0%"
    return f"{(new - old) / old * 100.0:+.1f}%"


def diff_runs(a: dict, b: dict) -> str:
    """The ``repro runs diff`` view: wall, stages, counters, environment."""
    lines = [f"== runs diff: {a.get('id', '?')} -> {b.get('id', '?')} =="]
    wa, wb = float(a.get("wall_s", 0.0)), float(b.get("wall_s", 0.0))
    lines.append(f"wall: {wa * 1e3:.1f}ms -> {wb * 1e3:.1f}ms "
                 f"({_pct(wa, wb)})")
    sa = {r["stage"]: r for r in a.get("stages", [])}
    sb = {r["stage"]: r for r in b.get("stages", [])}
    shared = sorted(set(sa) | set(sb))
    if shared:
        lines.append("-- stages (cumulative) --")
        for stage in shared:
            oa = float(sa.get(stage, {}).get("cumulative_s", 0.0))
            ob = float(sb.get(stage, {}).get("cumulative_s", 0.0))
            lines.append(f"  {stage:<12s} {oa * 1e3:>10.3f}ms "
                         f"{ob * 1e3:>10.3f}ms {_pct(oa, ob):>8s}")
    ca = a.get("metrics", {}).get("counters", {})
    cb = b.get("metrics", {}).get("counters", {})
    changed = [n for n in sorted(set(ca) | set(cb))
               if ca.get(n, 0) != cb.get(n, 0)]
    if changed:
        lines.append("-- counters (changed) --")
        for name in changed:
            lines.append(f"  {name:<40s} {ca.get(name, 0):>8} -> "
                         f"{cb.get(name, 0):>8}")
    env_keys = ("python", "numpy", "platform", "git_sha", "executor",
                "guard_mode", "fault_plan_active", "sentinels")
    env_diffs = [(k, a.get("environment", {}).get(k),
                  b.get("environment", {}).get(k))
                 for k in env_keys
                 if a.get("environment", {}).get(k)
                 != b.get("environment", {}).get(k)]
    if env_diffs:
        lines.append("-- environment changed --")
        for k, va, vb in env_diffs:
            lines.append(f"  {k}: {va} -> {vb}")
    return "\n".join(lines)


def render_runs_trend(records: list[dict]) -> str:
    """Wall-time trajectory per command across the whole ledger."""
    if not records:
        return "(run ledger is empty)"
    lines = ["== run trend (wall time per command) =="]
    prev: dict[str, float] = {}
    header = (f"{'id':<12s} {'command':<14s} {'status':<8s} {'wall':>12s} "
              f"{'vs prev':>8s}")
    lines += [header, "-" * len(header)]
    for r in records:
        cmd = str(r.get("command", "?"))
        wall = float(r.get("wall_s", 0.0))
        delta = _pct(prev[cmd], wall) if cmd in prev else "-"
        prev[cmd] = wall
        lines.append(
            f"{r.get('id', '?'):<12s} {cmd:<14s} "
            f"{r.get('outcome', {}).get('status', '?'):<8s} "
            f"{wall * 1e3:>10.1f}ms {delta:>8s}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# static HTML dashboard
# ---------------------------------------------------------------------------

# Categorical palette (validated default order; light / dark steps per
# surface).  Stages take slots in fixed order of first appearance across
# the ledger; past 8, stages fold into "other".
_SERIES = [
    ("#2a78d6", "#3987e5"), ("#eb6834", "#d95926"), ("#1baf7a", "#199e70"),
    ("#eda100", "#c98500"), ("#e87ba4", "#d55181"), ("#008300", "#008300"),
    ("#4a3aa7", "#9085e9"), ("#e34948", "#e66767"),
]

_CSS = """
.viz-root { color-scheme: light;
  --surface-1:#fcfcfb; --surface-2:#f0efec; --line:#d9d8d3;
  --text-primary:#0b0b0b; --text-secondary:#52514e; --text-muted:#7c7b76;
  font: 13px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary); background: var(--surface-1);
  max-width: 980px; margin: 0 auto; padding: 24px; }
@media (prefers-color-scheme: dark) { .viz-root { color-scheme: dark;
  --surface-1:#1a1a19; --surface-2:#262624; --line:#3a3a37;
  --text-primary:#ffffff; --text-secondary:#c3c2b7; --text-muted:#8d8c85; } }
.viz-root h1 { font-size: 18px; margin: 0 0 4px; }
.viz-root h2 { font-size: 14px; margin: 28px 0 8px; }
.viz-root .sub { color: var(--text-secondary); margin: 0 0 16px; }
.viz-root svg { display: block; }
.viz-root svg text { fill: var(--text-secondary); font-size: 11px; }
.viz-root .axis { stroke: var(--line); stroke-width: 1; }
.viz-root .grid { stroke: var(--line); stroke-width: 1; opacity: .6; }
.viz-root .legend { display: flex; flex-wrap: wrap; gap: 4px 16px;
  margin: 6px 0 0; color: var(--text-secondary); }
.viz-root .legend span { display: inline-flex; align-items: center;
  gap: 6px; }
.viz-root .chip { width: 10px; height: 10px; border-radius: 3px;
  display: inline-block; }
.viz-root table { border-collapse: collapse; width: 100%;
  margin-top: 8px; }
.viz-root th, .viz-root td { text-align: left; padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--line); font-variant-numeric: tabular-nums; }
.viz-root th { color: var(--text-muted); font-weight: 600; }
.viz-root .num { text-align: right; }
.viz-root .badge { display: inline-flex; align-items: center; gap: 5px;
  margin-right: 12px; color: var(--text-secondary); }
.viz-root .dot { width: 8px; height: 8px; border-radius: 50%;
  display: inline-block; }
"""


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:,.1f}ms"


def _series_color(i: int) -> tuple[str, str]:
    return _SERIES[i % len(_SERIES)]


def _trajectory_svg(records: list[dict]) -> str:
    """Single-series line chart: wall seconds per run."""
    width, height, pad_l, pad_b, pad_t = 940, 220, 60, 34, 14
    walls = [float(r.get("wall_s", 0.0)) for r in records]
    top = max(walls, default=0.0) * 1.15 or 1.0
    n = len(records)
    xs = [pad_l + (width - pad_l - 12) * (i / max(1, n - 1))
          for i in range(n)]
    ys = [height - pad_b - (height - pad_b - pad_t) * (w / top)
          for w in walls]
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="Wall time per run">']
    for frac in (0.0, 0.5, 1.0):
        y = height - pad_b - (height - pad_b - pad_t) * frac
        parts.append(f'<line class="grid" x1="{pad_l}" y1="{y:.1f}" '
                     f'x2="{width - 12}" y2="{y:.1f}"/>')
        parts.append(f'<text x="{pad_l - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{top * frac * 1e3:,.0f}ms</text>')
    parts.append(f'<line class="axis" x1="{pad_l}" y1="{height - pad_b}" '
                 f'x2="{width - 12}" y2="{height - pad_b}"/>')
    if n > 1:
        points = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="var(--s0)" stroke-width="2" '
                     f'stroke-linejoin="round" stroke-linecap="round"/>')
    label_every = max(1, n // 8)
    for i, (r, x, y) in enumerate(zip(records, xs, ys)):
        rid = _html.escape(str(r.get("id", "?")))
        parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="var(--s0)" '
            f'stroke="var(--surface-1)" stroke-width="2">'
            f'<title>{rid} · repro {_html.escape(str(r.get("command", "?")))}'
            f' · {_fmt_ms(walls[i])}</title></circle>')
        if i % label_every == 0 or i == n - 1:
            parts.append(f'<text x="{x:.1f}" y="{height - pad_b + 16}" '
                         f'text-anchor="middle">{rid[-6:]}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _stage_slots(records: list[dict]) -> list[str]:
    """Stages in fixed first-appearance order; callers fold past 8."""
    order: list[str] = []
    for r in records:
        for row in r.get("stages", []):
            stage = str(row.get("stage", "?"))
            if stage not in order:
                order.append(stage)
    return order


def _stacked_stages_svg(records: list[dict], slots: list[str]) -> str:
    """One horizontal stacked bar per run: cumulative seconds per stage."""
    bar_h, gap, pad_l, width = 22, 8, 110, 940
    height = 12 + len(records) * (bar_h + gap)
    totals = []
    for r in records:
        per = {str(row.get("stage", "?")): float(row.get("cumulative_s", 0.0))
               for row in r.get("stages", [])}
        totals.append(per)
    scale_max = max((sum(p.values()) for p in totals), default=0.0) or 1.0
    span = width - pad_l - 12
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="Per-stage time per run">']
    for i, (r, per) in enumerate(zip(records, totals)):
        y = 6 + i * (bar_h + gap)
        rid = _html.escape(str(r.get("id", "?")))
        parts.append(f'<text x="{pad_l - 10}" y="{y + bar_h - 7}" '
                     f'text-anchor="end">{rid}</text>')
        x = float(pad_l)
        for si, stage in enumerate(slots[:8]):
            v = per.get(stage, 0.0)
            if si == 7 and len(slots) > 8:           # fold tail into Other
                v += sum(per.get(s, 0.0) for s in slots[8:])
            if v <= 0.0:
                continue
            w = span * (v / scale_max)
            name = ("other" if si == 7 and len(slots) > 8 else stage)
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{max(w - 2, 1):.1f}" '
                f'height="{bar_h}" rx="3" fill="var(--s{si})">'
                f'<title>{rid} · {_html.escape(name)} · {_fmt_ms(v)}</title>'
                f'</rect>')
            x += w
    parts.append("</svg>")
    return "".join(parts)


def _events_rows(records: list[dict]) -> str:
    rows = []
    for r in records:
        counts = _event_counts(r)
        badges = "".join(
            f'<span class="badge"><span class="dot" '
            f'style="background:var(--s{min(i, 7)})"></span>'
            f'{_html.escape(label)}&nbsp;×{counts[label]}</span>'
            for i, label in enumerate(sorted(counts)))
        rows.append(
            f"<tr><td>{_html.escape(str(r.get('id', '?')))}</td>"
            f"<td>{_html.escape(str(r.get('command', '?')))}</td>"
            f"<td>{badges or '<span class=badge>—</span>'}</td></tr>")
    return "".join(rows)


def render_runs_html(records: list[dict]) -> str:
    """The self-contained dashboard page for ``repro runs html``."""
    slots = _stage_slots(records)
    css_vars_light = "".join(
        f"--s{i}:{_series_color(i)[0]};" for i in range(8))
    css_vars_dark = "".join(
        f"--s{i}:{_series_color(i)[1]};" for i in range(8))
    legend = "".join(
        f'<span><span class="chip" style="background:var(--s{i})"></span>'
        f'{_html.escape("other" if i == 7 and len(slots) > 8 else s)}</span>'
        for i, s in enumerate(slots[:8]))
    table_rows = "".join(
        f"<tr><td>{_html.escape(str(r.get('id', '?')))}</td>"
        f"<td>{_html.escape(str(r.get('command', '?')))}</td>"
        f"<td>{_html.escape(str(r.get('outcome', {}).get('status', '?')))}</td>"
        f"<td class=num>{float(r.get('wall_s', 0.0)) * 1e3:,.1f}</td>"
        f"<td>{_html.escape(_when(r.get('started')))}</td>"
        f"<td>{_html.escape(str(r.get('environment', {}).get('git_sha', '?'))[:7])}</td>"
        f"</tr>"
        for r in records)
    n = len(records)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro run ledger</title>
<style>
{_CSS}
.viz-root {{ {css_vars_light} }}
@media (prefers-color-scheme: dark) {{ .viz-root {{ {css_vars_dark} }} }}
</style>
</head>
<body class="viz-root">
<h1>repro run ledger</h1>
<p class="sub">{n} recorded run(s) · schema repro.run/v1 ·
generated by <code>repro runs html</code></p>

<h2>Run trajectory — wall time</h2>
{_trajectory_svg(records)}

<h2>Per-stage flame summary</h2>
{_stacked_stages_svg(records, slots)}
<div class="legend">{legend}</div>

<h2>Guard / fallback / sentinel event timeline</h2>
<table>
<thead><tr><th>run</th><th>command</th><th>events</th></tr></thead>
<tbody>{_events_rows(records)}</tbody>
</table>

<h2>All runs</h2>
<table>
<thead><tr><th>run</th><th>command</th><th>status</th>
<th class=num>wall (ms)</th><th>recorded (UTC)</th><th>git</th></tr></thead>
<tbody>{table_rows}</tbody>
</table>
</body>
</html>
"""
