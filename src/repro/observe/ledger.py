"""Persistent, append-only run ledger: ``.repro/runs/`` (``repro.run/v1``).

PR 1 made single runs observable; this module makes the observations
*durable*.  Every ledgered CLI invocation (``experiments``, ``bench
record``, ``fuzz``, ``lint``, ``faultcheck``, ``profile``, ``generate``)
appends one digest-stamped record to a directory ledger, and every
observed invocation — the ledger on, ``profile``, ``--profile`` or
``--sample`` — renders all its output from that one record:

* :func:`build_record` distills one finished run — command, argv,
  outcome/exit status, wall seconds, per-stage seconds
  (:func:`stage_totals`), the metrics snapshot, the decision events, the
  tracer's exact span tree, the resource sampler's time series,
  checkpoint/resume linkage, and the environment
  (:func:`run_environment`: the bench recorder's host probes plus the
  run configuration's fields) — into one ``repro.run/v1`` document;
* :class:`RunLedger` appends records as compact ``run-<n>.json`` files
  (atomic write + sha256 content digest, the
  :mod:`repro.numeric.integrity` machinery) and maintains an atomic
  ``index.json``.  The record file is written *before* the index, so a
  crash between the two leaves a loadable index that is merely stale;
  :meth:`RunLedger.entries` reconciles it against the directory and
  rebuilds when they disagree.  A record that fails validation
  (truncated write on a non-atomic filesystem, hand-editing) is never
  ingested: it is moved to ``quarantine/`` and dropped from the index.

``repro runs list|show|diff|trend|gc|export|html|selftest`` is the CLI
over the ledger; :mod:`repro.observe.export` renders the text view and
the exporters.  The whole machinery is documented in
``docs/RUN_LEDGER.md``.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from ..errors import RunLedgerError
from ..numeric.integrity import atomic_write_json, content_digest
from ..runconfig import RunConfig, current
from .trace import NullTracer, Span, Tracer

__all__ = [
    "RUN_SCHEMA",
    "INDEX_SCHEMA",
    "DEFAULT_LEDGER_DIR",
    "LEDGER_ENV",
    "RunLedger",
    "aggregate_children",
    "build_record",
    "ledger_dir_from_env",
    "record_json",
    "run_environment",
    "span_dicts",
    "stage_totals",
]

RUN_SCHEMA = "repro.run/v1"
INDEX_SCHEMA = "repro.run.index/v1"
DEFAULT_LEDGER_DIR = os.path.join(".repro", "runs")

#: ``REPRO_LEDGER=0|off|`` disables the ledger; any other value is the
#: ledger directory (overrides the default, loses to an explicit flag).
LEDGER_ENV = "REPRO_LEDGER"

_RUN_RE = re.compile(r"^run-(\d{6,})\.json$")

# Entry fields the index carries per record, so `repro runs list` never
# has to open every record file.
_INDEX_FIELDS = ("command", "status", "exit_code", "wall_s", "started",
                 "git_sha")


def ledger_dir_from_env(explicit: str | None = None) -> str | None:
    """The effective ledger directory: explicit flag > env var > default.

    Returns ``None`` when the environment disables the ledger
    (``REPRO_LEDGER`` set to ``0``, ``off``, or empty) and no explicit
    directory was given.
    """
    if explicit:
        return explicit
    env = os.environ.get(LEDGER_ENV)
    if env is None:
        return DEFAULT_LEDGER_DIR
    if env.strip().lower() in ("", "0", "off", "no", "false"):
        return None
    return env


_HOST: dict[str, object] | None = None


def run_environment(config: RunConfig | None) -> dict[str, object]:
    """The bench recorder's host probes, computed once per process (git
    would dominate sub-millisecond appends), plus ``config``'s run fields;
    ``None`` (the configuration never resolved) states none.  (Lazy
    import: bench.record imports observe at load.)"""
    global _HOST
    if _HOST is None:
        from ..bench.record import host_fingerprint

        _HOST = host_fingerprint()
    return {**_HOST, **(config.run_fields() if config is not None else {})}


def _json_value(value: object) -> object:
    """A span attribute as the record stores it: JSON primitives as they
    are, anything else as its ``str`` (what the text view and the Chrome
    ``args`` show), so a record renders the same after a JSON round trip."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


#: The thread a span dict names when it has no ``thread`` key.
MAIN_THREAD = "MainThread"


def _span_dict(span: Span, epoch: float) -> dict[str, object]:
    """One span as the record stores it: ``thread`` only off the main
    thread, ``attrs`` and ``children`` only when not empty."""
    d: dict[str, object] = {"name": span.name,
                            "start_s": span.start - epoch,
                            "duration_s": span.duration}
    if span.thread != MAIN_THREAD:
        d["thread"] = span.thread
    if span.attrs:
        d["attrs"] = {k: _json_value(v) for k, v in span.attrs.items()}
    if span.children:
        d["children"] = [_span_dict(c, epoch) for c in span.children]
    return d


def span_dicts(tracer: Tracer | NullTracer) -> list[dict[str, object]]:
    """The tracer's span tree as dicts, with exact seconds since the
    tracer epoch (:func:`build_record` rounds them to the nanosecond)."""
    epoch = getattr(tracer, "epoch", 0.0)
    return [_span_dict(r, epoch) for r in tracer.roots]


def _round_times(spans: list[dict]) -> None:
    for s in spans:
        s["start_s"] = round(s["start_s"], 9)
        s["duration_s"] = round(s["duration_s"], 9)
        _round_times(s.get("children", ()))


def stage_totals(spans: list[dict]) -> list[dict[str, object]]:
    """Cumulative/self time and call count per pipeline stage.

    The stage is the first dotted component of the span name.  *Cumulative*
    counts a stage's time only at its outermost spans (nested same-stage
    spans are not double counted); *self* excludes time spent in child
    spans of any stage.
    """
    rows: dict[str, dict[str, object]] = {}

    def visit(span: dict, enclosing: str | None) -> None:
        stage = span["name"].split(".", 1)[0]
        r = rows.setdefault(stage, {"stage": stage, "calls": 0,
                                    "cumulative_s": 0.0, "self_s": 0.0})
        r["calls"] += 1
        if stage != enclosing:
            r["cumulative_s"] += span["duration_s"]
        children = span.get("children", ())
        child_time = sum(c["duration_s"] for c in children)
        r["self_s"] += max(0.0, span["duration_s"] - child_time)
        for c in children:
            visit(c, stage)

    for root in spans:
        visit(root, None)
    return sorted(rows.values(), key=lambda r: -r["cumulative_s"])


def aggregate_children(spans: list[dict]) -> list[dict[str, object]]:
    """Merge sibling span dicts by name, preserving first-seen order.

    A merged node carries the call count, the summed seconds and the
    children of every span it merged; attrs are kept only for a name
    seen once.
    """
    out: dict[str, dict[str, object]] = {}
    for s in spans:
        a = out.get(s["name"])
        if a is None:
            out[s["name"]] = {"name": s["name"], "calls": 1,
                              "total_s": s["duration_s"],
                              "attrs": s.get("attrs", {}),
                              "children": list(s.get("children", ()))}
        else:
            a["calls"] += 1
            a["total_s"] += s["duration_s"]
            a["attrs"] = {}
            a["children"].extend(s.get("children", ()))
    return list(out.values())


def record_json(record: dict) -> str:
    """A record file's text: one compact line.  The digest is computed
    over canonical JSON, so the layout on disk is free to change."""
    return json.dumps(record, separators=(",", ":")) + "\n"


def build_record(
    *,
    command: str,
    argv: list[str] | tuple[str, ...] = (),
    exit_code: int = 0,
    status: str = "ok",
    wall_s: float = 0.0,
    observation=None,
    samples: list[dict] | None = None,
    checkpoint: dict | None = None,
    environment: dict | None = None,
    started: float | None = None,
    **meta: object,
) -> dict[str, object]:
    """One ``repro.run/v1`` document (unstamped: :meth:`RunLedger.append`
    assigns the id and the content digest).

    ``observation`` is a :class:`repro.observe.Observation`; its tracer
    yields the span tree and the per-stage seconds, its metrics registry
    the snapshot, its decision log the events.  ``environment`` defaults
    to :func:`run_environment` of the active run configuration, so run
    records and bench artifacts stay comparable.
    """
    if environment is None:
        environment = run_environment(current())
    stages: list[dict] = []
    spans: list[dict] = []
    metrics: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    decisions: list[dict] = []
    if observation is not None:
        # Stages sum the exact durations; the stored spans are rounded.
        spans = span_dicts(observation.tracer)
        stages = stage_totals(spans)
        _round_times(spans)
        metrics = observation.metrics.snapshot()
        # Decision stamps are absolute perf_counter values; the persisted
        # record carries seconds since the tracer epoch so the Chrome
        # exporter can place instants without knowing the live clock.
        epoch = getattr(observation.tracer, "epoch", 0.0)
        for d in observation.decisions.events:
            doc = d.to_dict()
            doc["t"] = round(max(0.0, doc.get("t", 0.0) - epoch), 6) \
                if doc.get("t") else 0.0
            decisions.append(doc)
    return {
        "schema": RUN_SCHEMA,
        "command": command,
        "argv": list(argv),
        "started": round(started if started is not None else time.time(), 3),
        "outcome": {"status": status, "exit_code": int(exit_code)},
        "wall_s": round(float(wall_s), 9),
        "stages": stages,
        "spans": spans,
        "metrics": metrics,
        "decisions": decisions,
        "samples": list(samples or ()),
        "checkpoint": checkpoint,
        "environment": environment,
        "meta": dict(meta),
    }


class RunLedger:
    """A directory of digest-verified run records with an atomic index."""

    def __init__(self, directory: str | Path | None = None):
        self.dir = Path(directory or DEFAULT_LEDGER_DIR)

    # -- paths ---------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.dir / "index.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.dir / "quarantine"

    def path_for(self, run_id: str) -> Path:
        return self.dir / f"{run_id}.json"

    # -- writing -------------------------------------------------------
    def next_id(self) -> str:
        last = 0
        if self.dir.is_dir():
            for p in self.dir.iterdir():
                m = _RUN_RE.match(p.name)
                if m:
                    last = max(last, int(m.group(1)))
        return f"run-{last + 1:06d}"

    def append(self, record: dict) -> dict:
        """Stamp and persist one record; returns it with ``id``/``sha256``.

        The record file lands (atomically) before the index is rewritten,
        so a crash between the two steps can only leave the index *stale*
        — never pointing at a record that does not exist.  ``entries()``
        heals staleness by rebuilding from the directory.

        Safe under concurrent writers (two simultaneous ``repro``
        invocations, a ``repro batch`` parent next to another CLI): the
        record-then-index critical section runs under an ``index.lock``
        directory lock, and the record file itself is claimed with
        O_EXCL-style ``os.link`` semantics — if two writers ever race the
        same id (a stolen stale lock), the loser re-draws the next id
        instead of silently overwriting the winner's record.
        """
        self.dir.mkdir(parents=True, exist_ok=True)
        record = dict(record)
        record.setdefault("schema", RUN_SCHEMA)
        with self._locked():
            self._claim_and_write(record)
            entries = self._index_entries_tolerant()
            entries = [e for e in entries if e.get("id") != record["id"]]
            entries.append(self._entry_for(record))
            self._write_index(entries)
        return record

    #: Seconds a writer waits for ``index.lock`` before assuming its
    #: holder crashed and stealing it (appends are sub-millisecond; a
    #: lock this old is an orphan, not a slow writer).
    LOCK_STALE_S = 30.0

    @contextmanager
    def _locked(self):
        """Advisory directory lock for the record-then-index protocol.

        O_CREAT|O_EXCL on ``index.lock``; holders that die are detected
        by lock-file age and the lock is stolen rather than deadlocking —
        correctness then rests on the O_EXCL record claim in
        :meth:`_claim_and_write`, never on the lock alone.
        """
        lock = self.dir / "index.lock"
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                os.close(fd)
                break
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue          # released between open and stat
                if age > self.LOCK_STALE_S:
                    lock.unlink(missing_ok=True)
                    continue
                time.sleep(0.003)
        try:
            yield
        finally:
            lock.unlink(missing_ok=True)

    def _claim_and_write(self, record: dict) -> None:
        """Stamp ``record`` with the next free id and persist it.

        The write is atomic *and* exclusive: the payload is fsynced to a
        temp file, then ``os.link``ed to its final name — link fails with
        EEXIST instead of clobbering, so a concurrent writer that won the
        same id costs us a re-draw, never a lost record.
        """
        while True:
            record["id"] = self.next_id()
            record.pop("sha256", None)
            record["sha256"] = content_digest(record)
            path = self.path_for(record["id"])
            tmp = path.parent / (f".{path.name}.tmp.{os.getpid()}"
                                 f".{threading.get_ident()}")
            with open(tmp, "w") as fh:
                fh.write(record_json(record))
                fh.flush()
                os.fsync(fh.fileno())
            try:
                os.link(tmp, path)
                return
            except FileExistsError:
                continue              # lost the id race: re-draw
            finally:
                tmp.unlink(missing_ok=True)

    def _entry_for(self, record: dict) -> dict:
        entry = {"id": record["id"], "file": f"{record['id']}.json"}
        outcome = record.get("outcome", {})
        env = record.get("environment", {})
        entry.update({
            "command": record.get("command", ""),
            "status": outcome.get("status", ""),
            "exit_code": outcome.get("exit_code", 0),
            "wall_s": record.get("wall_s", 0.0),
            "started": record.get("started", 0.0),
            "git_sha": str(env.get("git_sha", "unknown"))[:12],
        })
        return entry

    def _write_index(self, entries: list[dict]) -> None:
        entries = sorted(entries, key=lambda e: e.get("id", ""))
        atomic_write_json(self.index_path,
                          {"schema": INDEX_SCHEMA, "entries": entries})

    # -- reading -------------------------------------------------------
    def _index_entries_tolerant(self) -> list[dict]:
        """Best-effort read of the current index (empty on any problem —
        the caller is about to rewrite it from authoritative data)."""
        try:
            doc = json.loads(self.index_path.read_text())
        except (OSError, json.JSONDecodeError):
            return []
        if not isinstance(doc, dict) or doc.get("schema") != INDEX_SCHEMA:
            return []
        entries = doc.get("entries", [])
        return [e for e in entries if isinstance(e, dict)]

    def run_files(self) -> list[Path]:
        if not self.dir.is_dir():
            return []
        found = [(int(m.group(1)), p) for p in self.dir.iterdir()
                 if (m := _RUN_RE.match(p.name))]
        return [p for _, p in sorted(found)]

    def entries(self) -> list[dict]:
        """The index entries, reconciled against the record files.

        When the index and the directory disagree (a crash between the
        record write and the index write, files added or removed by
        hand), the index is rebuilt from the validated record files —
        invalid records are quarantined along the way.
        """
        files = {p.name for p in self.run_files()}
        entries = self._index_entries_tolerant()
        if {e.get("file") for e in entries} != files:
            return self.rebuild_index()
        return entries

    def rebuild_index(self) -> list[dict]:
        """Re-derive the index from the record files on disk.

        Every record is validated (schema + content digest); records that
        fail are moved to ``quarantine/`` — a half-written file must
        never masquerade as a completed run.
        """
        entries = []
        for path in self.run_files():
            try:
                record = self._validate(path)
            except RunLedgerError:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                os.replace(path, self.quarantine_dir / path.name)
                continue
            entries.append(self._entry_for(record))
        if self.dir.is_dir():
            self._write_index(entries)
        return entries

    def _validate(self, path: Path) -> dict:
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise RunLedgerError(
                f"{path}: corrupt/truncated run record ({e})") from e
        if not isinstance(record, dict) or record.get("schema") != RUN_SCHEMA:
            raise RunLedgerError(
                f"{path}: expected run schema {RUN_SCHEMA!r}, found "
                f"{record.get('schema') if isinstance(record, dict) else record!r}")
        recorded = record.get("sha256")
        stripped = {k: v for k, v in record.items() if k != "sha256"}
        expected = content_digest(stripped)
        if recorded != expected:
            raise RunLedgerError(
                f"{path}: run record digest mismatch (recorded "
                f"{str(recorded)[:12]}…, computed {expected[:12]}…) — "
                "record corrupted or hand-edited")
        return record

    def load(self, run_id: str) -> dict:
        """One validated record by id (e.g. ``run-000003``)."""
        path = self.path_for(run_id)
        if not path.exists():
            known = ", ".join(e["id"] for e in self.entries()) or "(none)"
            raise RunLedgerError(
                f"no run record {run_id!r} in {self.dir} (have: {known})")
        return self._validate(path)

    def latest_id(self) -> str | None:
        entries = self.entries()
        return entries[-1]["id"] if entries else None

    def resolve(self, ref: str | None) -> dict:
        """A record by reference: an id, or ``None``/``"latest"``."""
        if ref is None or ref == "latest":
            run_id = self.latest_id()
            if run_id is None:
                raise RunLedgerError(f"run ledger {self.dir} is empty")
            return self.load(run_id)
        return self.load(ref)

    # -- maintenance ---------------------------------------------------
    def gc(self, keep: int) -> list[str]:
        """Drop the oldest records beyond ``keep``; purge the quarantine.

        Returns the ids removed.  The index is rewritten after the
        deletions, so a reader never sees an entry whose file is gone.
        """
        if keep < 0:
            raise RunLedgerError("gc keep must be >= 0")
        entries = self.entries()
        doomed = entries[:-keep] if keep else entries
        for entry in doomed:
            self.path_for(entry["id"]).unlink(missing_ok=True)
        if doomed:
            self._write_index(entries[len(doomed):])
        if self.quarantine_dir.is_dir():
            for p in self.quarantine_dir.glob("run-*.json"):
                p.unlink(missing_ok=True)
            try:
                self.quarantine_dir.rmdir()
            except OSError:
                pass
        return [e["id"] for e in doomed]
