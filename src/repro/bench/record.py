"""Benchmark recording, diffing, and trajectory: ``BENCH_<n>.json``.

The harness (:mod:`repro.bench.harness`) runs one experiment and prints the
paper-style table; this module is the longitudinal layer on top of it:

* :func:`record_benchmark` runs the registered experiments under the
  :mod:`repro.observe` tracer N times and distills repeat statistics
  (min/median/IQR wall seconds, per-stage span totals, per-cell values)
  plus an environment fingerprint into one schema-versioned document
  (:data:`repro.observe.bench.BENCH_SCHEMA`, ``repro.bench/v1``);
* :func:`write_benchmark` / :func:`next_bench_path` persist it as the next
  ``BENCH_<n>.json`` at the repo root, growing the bench trajectory;
* :func:`compare_benchmarks` diffs two artifacts — per-experiment wall-time
  deltas, per-stage deltas, per-cell value drift, new/removed rows — and
  gates on regressions beyond a threshold (``repro bench compare
  --fail-on-regress PCT`` exits nonzero);
* :func:`render_trend` summarizes every artifact in the trajectory into
  one table (``repro bench trend``).

Policy (see ``docs/BENCHMARKING.md``): the *gate* fires on wall-time
medians only; deterministic model cells are reported as drift, because a
cell change is a model change to be reviewed, not a perf regression.  All
statistics use medians/IQRs so one preempted repeat cannot fail a build.
"""

from __future__ import annotations

import os
import platform
import re
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .. import observe
from ..numeric import (
    CheckpointStore,
    RetryPolicy,
    atomic_write_text,
    content_digest,
    retry_call,
)
from ..observe.bench import BENCH_SCHEMA, stage_seconds, summarize_repeats
from ..runconfig import current
from .harness import ExperimentResult, run_timed

__all__ = [
    "BENCH_SCHEMA",
    "environment_fingerprint",
    "host_fingerprint",
    "record_benchmark",
    "stamp_digest",
    "write_benchmark",
    "bench_files",
    "next_bench_path",
    "load_bench",
    "BenchDelta",
    "BenchComparison",
    "compare_benchmarks",
    "render_trend",
]

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


# ---------------------------------------------------------------------------
# environment fingerprint
# ---------------------------------------------------------------------------

def _git_sha() -> tuple[str, str]:
    """The working tree's HEAD sha, plus why it is missing when it is.

    A hung probe (``subprocess.TimeoutExpired``) kills the child but
    leaves no stderr to explain the ``unknown`` — so the *reason* is
    returned alongside the sha and recorded as ``fingerprint:degraded``
    in the artifact, instead of silently omitting the provenance.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except subprocess.TimeoutExpired:
        return "unknown", "git probe hung past its 10s timeout"
    except (OSError, subprocess.SubprocessError) as e:
        return "unknown", f"git probe failed: {type(e).__name__}: {e}"
    sha = proc.stdout.strip()
    if proc.returncode == 0 and sha:
        return sha, ""
    detail = proc.stderr.strip() or f"git exited {proc.returncode}"
    return "unknown", f"git probe failed: {detail}"


def host_fingerprint() -> dict[str, object]:
    """The host half of the fingerprint: interpreter, libraries, host,
    tree state and simulated-machine constants.  When a probe could not
    establish a field, ``degraded`` lists the reasons, so ``unknown``
    values carry their cause into the artifact."""
    import numpy as np

    from ..perf import machine_fingerprint

    sha, sha_degraded = _git_sha()
    fp: dict[str, object] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": sha,
        "machines": machine_fingerprint(),
    }
    if sha_degraded:
        fp["degraded"] = [{"field": "git_sha", "reason": sha_degraded}]
    return fp


def environment_fingerprint() -> dict[str, object]:
    """Everything a reader needs to judge whether two artifacts are
    comparable: the host probes, plus the active run configuration's
    fields, which change what the experiments execute."""
    return {**host_fingerprint(), **current().run_fields()}


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _cell_stats(results: list) -> dict[str, dict[str, object]]:
    """Per-cell repeat statistics, keyed by row (first column) then header.

    Numeric cells get the full min/median/IQR summary over the repeats;
    non-numeric cells (variant names, PASS/FAIL verdicts) keep their last
    value so compare can still flag a flipped verdict.
    """
    headers = results[-1].headers
    samples: dict[str, dict[str, list]] = {}
    for result in results:
        for row in result.rows:
            by_col = samples.setdefault(str(row[0]), {})
            for header, value in zip(headers[1:], row[1:]):
                by_col.setdefault(header, []).append(value)
    cells: dict[str, dict[str, object]] = {}
    for row_key, by_col in samples.items():
        out: dict[str, object] = {}
        for header, values in by_col.items():
            if all(_is_number(v) for v in values):
                out[header] = summarize_repeats(values).to_dict()
            else:
                out[header] = values[-1]
        cells[row_key] = out
    return cells


def record_benchmark(
    ids: Sequence[str] | None = None,
    repeats: int = 3,
    clock: Callable[[], float] = time.perf_counter,
    *,
    experiments: dict | None = None,
    checkpoints: "CheckpointStore | None" = None,
    retry: "RetryPolicy | None" = None,
) -> dict[str, object]:
    """Run the registered experiments ``repeats`` times; return the
    ``repro.bench/v1`` document (see module docstring for the layout).

    ``experiments`` overrides the registry (faultcheck injects synthetic
    ones).  With a ``checkpoints`` store each completed repeat is persisted
    (key ``<id>-rep<r>``) and repeats with valid checkpoints are *skipped*
    on a resumed run — corrupt checkpoints are discarded and re-run, never
    ingested.  ``meta.resumed`` counts the skips (0 on a fresh run, so the
    stats schema is identical either way).  A :class:`repro.numeric.RetryPolicy`
    re-runs a repeat that raises a transient :class:`ExecutionError`.
    """
    from .experiments import EXPERIMENTS

    registry = experiments if experiments is not None else EXPERIMENTS
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    ids = list(ids) if ids else list(registry)
    unknown = [i for i in ids if i not in registry]
    if unknown:
        raise KeyError(f"unknown experiment id(s): {', '.join(unknown)}")

    resumed = 0
    out: dict[str, object] = {}
    for exp_id in ids:
        exp = registry[exp_id]
        walls: list[float] = []
        stage_runs: list[dict[str, float]] = []
        results = []
        for r in range(repeats):
            key = f"{exp_id}-rep{r}"
            if checkpoints is not None:
                done = checkpoints.load(key, discard_corrupt=True)
                if done is not None:
                    walls.append(float(done["wall"]))
                    stage_runs.append({k: float(v)
                                       for k, v in done["stages"].items()})
                    results.append(ExperimentResult.from_json(done["result"]))
                    resumed += 1
                    continue

            def one_repeat():
                with observe.observed(clock=clock) as obs:
                    result, elapsed = run_timed(exp, clock=clock)
                return result, elapsed, stage_seconds(obs.tracer)

            if retry is not None:
                result, elapsed, stages_run = retry_call(
                    one_repeat, policy=retry, what=f"bench:{key}")
            else:
                result, elapsed, stages_run = one_repeat()
            walls.append(elapsed)
            stage_runs.append(stages_run)
            results.append(result)
            if checkpoints is not None:
                checkpoints.save(key, {"wall": elapsed, "stages": stages_run,
                                       "result": result.to_json()})
        stages = {
            stage: summarize_repeats([run.get(stage, 0.0)
                                      for run in stage_runs]).to_dict()
            for stage in sorted({s for run in stage_runs for s in run})
        }
        last = results[-1]
        out[exp_id] = {
            "title": last.title,
            "paper_ref": exp.paper_ref,
            "headers": list(last.headers),
            "rows": [list(r) for r in last.rows],
            "notes": last.notes,
            "wall_s": summarize_repeats(walls).to_dict(),
            "stages": stages,
            "cells": _cell_stats(results),
        }

    environment = environment_fingerprint()
    meta: dict[str, object] = {"repeats": repeats, "ids": ids,
                               "resumed": resumed}
    if environment.get("degraded"):
        # Surface probe failures where compare/trend readers look first:
        # an artifact with an unknown sha says *why* it is unknown.
        meta["fingerprint:degraded"] = environment["degraded"]
    return {
        "schema": BENCH_SCHEMA,
        "environment": environment,
        "meta": meta,
        "experiments": out,
    }


# ---------------------------------------------------------------------------
# artifact files
# ---------------------------------------------------------------------------

def bench_files(root: str | Path = ".") -> list[Path]:
    """The ``BENCH_<n>.json`` trajectory under ``root``, in index order."""
    root = Path(root)
    found = [(int(m.group(1)), p)
             for p in root.iterdir()
             if (m := _BENCH_RE.match(p.name))]
    return [p for _, p in sorted(found)]


def next_bench_path(root: str | Path = ".") -> Path:
    """The next free slot in the trajectory (``BENCH_1.json`` when empty)."""
    existing = bench_files(root)
    last = int(_BENCH_RE.match(existing[-1].name).group(1)) if existing else 0
    return Path(root) / f"BENCH_{last + 1}.json"


def stamp_digest(doc: dict) -> dict:
    """Stamp ``environment.content_sha256`` over the document.

    The digest covers the canonical JSON of the document *minus* the
    digest field itself, so :func:`load_bench` can recompute and verify.
    Returns ``doc`` (mutated in place).
    """
    env = doc.setdefault("environment", {})
    env.pop("content_sha256", None)
    env["content_sha256"] = content_digest(doc)
    return doc


def write_benchmark(doc: dict, path: str | Path) -> Path:
    """Stamp the content digest and write the artifact atomically, so a
    crash mid-write leaves either the old artifact or none — never a
    truncated one."""
    import json

    stamp_digest(doc)
    return atomic_write_text(Path(path),
                             json.dumps(doc, indent=2, sort_keys=False) + "\n")


def load_bench(path: str | Path) -> dict:
    import json

    from ..errors import BenchArtifactError

    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise BenchArtifactError(f"{path}: not valid JSON ({e})") from e
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != BENCH_SCHEMA:
        raise BenchArtifactError(
            f"{path}: expected schema {BENCH_SCHEMA!r}, found {schema!r}")
    recorded = doc.get("environment", {}).get("content_sha256")
    if recorded is not None:
        # Pre-digest artifacts (earlier PRs) load without a check; stamped
        # ones must verify, so corruption or hand-edits surface here.
        stripped = dict(doc)
        stripped["environment"] = {
            k: v for k, v in doc["environment"].items()
            if k != "content_sha256"
        }
        expected = content_digest(stripped)
        if recorded != expected:
            raise BenchArtifactError(
                f"{path}: content digest mismatch (recorded "
                f"{recorded[:12]}…, computed {expected[:12]}…) — artifact "
                "corrupted or hand-edited")
    return doc


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _pct(old: float, new: float) -> float:
    if old <= 0.0:
        return 0.0 if new <= 0.0 else float("inf")
    return (new - old) / old * 100.0


def _fmt_pct(pct: float) -> str:
    return "+inf%" if pct == float("inf") else f"{pct:+.1f}%"


@dataclass
class BenchDelta:
    """One experiment's old-vs-new wall time (medians of the repeats)."""

    experiment_id: str
    old_median_s: float
    new_median_s: float
    regressed: bool = False
    stage_deltas: dict[str, tuple[float, float]] = field(default_factory=dict)

    @property
    def delta_pct(self) -> float:
        return _pct(self.old_median_s, self.new_median_s)


@dataclass
class BenchComparison:
    """The full diff between two bench artifacts; ``ok`` drives the gate."""

    old_label: str
    new_label: str
    deltas: list[BenchDelta]
    added_experiments: list[str]
    removed_experiments: list[str]
    added_rows: list[tuple[str, str]]          # (experiment, row key)
    removed_rows: list[tuple[str, str]]
    cell_drift: list[tuple[str, str, str, object, object]]
    env_diffs: list[tuple[str, object, object]]
    fail_on_regress: float | None = None

    @property
    def regressions(self) -> list[BenchDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [f"== bench compare: {self.old_label} -> {self.new_label} =="]
        if self.env_diffs:
            lines.append("-- environment changed (wall-time deltas may not "
                         "be comparable) --")
            for key, old, new in self.env_diffs:
                lines.append(f"  {key}: {old} -> {new}")
        lines.append("-- wall time (median of repeats) --")
        lines.append(f"  {'experiment':<12s} {'old':>12s} {'new':>12s} "
                     f"{'delta':>8s}")
        for d in self.deltas:
            mark = "  << REGRESSION" if d.regressed else ""
            lines.append(
                f"  {d.experiment_id:<12s} {d.old_median_s * 1e3:>10.3f}ms "
                f"{d.new_median_s * 1e3:>10.3f}ms "
                f"{_fmt_pct(d.delta_pct):>8s}{mark}")
            for stage, (old, new) in sorted(d.stage_deltas.items()):
                lines.append(
                    f"      stage {stage:<10s} {old * 1e3:>10.3f}ms "
                    f"{new * 1e3:>10.3f}ms {_fmt_pct(_pct(old, new)):>8s}")
        if self.cell_drift:
            lines.append("-- value drift (model/table cells) --")
            for exp_id, row, col, old, new in self.cell_drift:
                lines.append(f"  {exp_id} [{row} / {col}]: {old} -> {new}")
        for label, items in (("new experiments", self.added_experiments),
                             ("removed experiments", self.removed_experiments)):
            if items:
                lines.append(f"-- {label}: {', '.join(items)} --")
        for label, pairs in (("new rows", self.added_rows),
                             ("removed rows", self.removed_rows)):
            if pairs:
                lines.append(f"-- {label} --")
                for exp_id, row in pairs:
                    lines.append(f"  {exp_id}: {row}")
        if self.fail_on_regress is not None:
            verdict = ("OK" if self.ok else
                       f"FAIL ({len(self.regressions)} regression(s))")
            lines.append(f"gate: fail-on-regress {self.fail_on_regress:g}% "
                         f"-> {verdict}")
        return "\n".join(lines)


def _cell_median(cell: object) -> object:
    """The comparable value of one recorded cell: the median for numeric
    cells, the raw value otherwise."""
    if isinstance(cell, dict) and "median" in cell:
        return cell["median"]
    return cell


# Relative drift below this is accumulated float noise, not a model change.
_DRIFT_RTOL = 1e-9


def _drifted(old: object, new: object) -> bool:
    if _is_number(old) and _is_number(new):
        scale = max(abs(float(old)), abs(float(new)), 1e-30)
        return abs(float(new) - float(old)) / scale > _DRIFT_RTOL
    return old != new


def compare_benchmarks(
    old: dict,
    new: dict,
    fail_on_regress: float | None = None,
    old_label: str = "old",
    new_label: str = "new",
) -> BenchComparison:
    """Diff two ``repro.bench/v1`` documents.

    A *regression* is an experiment whose new wall-time median exceeds the
    old one by more than ``fail_on_regress`` percent; with no threshold the
    comparison never fails.  Cell drift, row churn, and environment changes
    are always reported but never gate (module docstring has the why).
    """
    old_exps: dict = old.get("experiments", {})   # type: ignore[assignment]
    new_exps: dict = new.get("experiments", {})   # type: ignore[assignment]

    deltas: list[BenchDelta] = []
    added_rows: list[tuple[str, str]] = []
    removed_rows: list[tuple[str, str]] = []
    cell_drift: list[tuple[str, str, str, object, object]] = []

    for exp_id in [i for i in old_exps if i in new_exps]:
        o, n = old_exps[exp_id], new_exps[exp_id]
        d = BenchDelta(
            experiment_id=exp_id,
            old_median_s=float(o["wall_s"]["median"]),
            new_median_s=float(n["wall_s"]["median"]),
        )
        if fail_on_regress is not None:
            d.regressed = d.delta_pct > fail_on_regress
        for stage in sorted(set(o.get("stages", {})) | set(n.get("stages", {}))):
            os_ = float(o.get("stages", {}).get(stage, {}).get("median", 0.0))
            ns_ = float(n.get("stages", {}).get(stage, {}).get("median", 0.0))
            d.stage_deltas[stage] = (os_, ns_)
        deltas.append(d)

        o_cells, n_cells = o.get("cells", {}), n.get("cells", {})
        for row in o_cells:
            if row not in n_cells:
                removed_rows.append((exp_id, row))
        for row in n_cells:
            if row not in o_cells:
                added_rows.append((exp_id, row))
                continue
            for col in n_cells[row]:
                if col not in o_cells[row]:
                    continue
                ov = _cell_median(o_cells[row][col])
                nv = _cell_median(n_cells[row][col])
                if _drifted(ov, nv):
                    cell_drift.append((exp_id, row, col, ov, nv))

    env_diffs = [
        (key, old.get("environment", {}).get(key),
         new.get("environment", {}).get(key))
        for key in ("python", "numpy", "platform", "cpu_count", "machines")
        if old.get("environment", {}).get(key)
        != new.get("environment", {}).get(key)
    ]

    return BenchComparison(
        old_label=old_label,
        new_label=new_label,
        deltas=deltas,
        added_experiments=[i for i in new_exps if i not in old_exps],
        removed_experiments=[i for i in old_exps if i not in new_exps],
        added_rows=added_rows,
        removed_rows=removed_rows,
        cell_drift=cell_drift,
        env_diffs=env_diffs,
        fail_on_regress=fail_on_regress,
    )


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def render_trend(entries: Iterable[tuple[str, dict]]) -> str:
    """One row per artifact: wall-time medians (ms) per experiment + total.

    ``entries`` are ``(label, document)`` pairs in trajectory order, as
    produced by loading :func:`bench_files`.
    """
    entries = list(entries)
    if not entries:
        return "(no BENCH_*.json artifacts found)"
    ids: list[str] = []
    for _, doc in entries:
        for exp_id in doc.get("experiments", {}):
            if exp_id not in ids:
                ids.append(exp_id)
    header = (f"{'artifact':<16s} {'git':<8s} {'reps':>4s} "
              + " ".join(f"{i:>10s}" for i in ids) + f" {'total':>10s}")
    lines = ["== bench trend (wall-time medians, ms) ==", header,
             "-" * len(header)]
    for label, doc in entries:
        sha = str(doc.get("environment", {}).get("git_sha", "unknown"))[:7]
        reps = doc.get("meta", {}).get("repeats", "?")
        cols, total = [], 0.0
        for exp_id in ids:
            exp = doc.get("experiments", {}).get(exp_id)
            if exp is None:
                cols.append(f"{'-':>10s}")
                continue
            median = float(exp["wall_s"]["median"])
            total += median
            cols.append(f"{median * 1e3:>10.3f}")
        lines.append(f"{label:<16s} {sha:<8s} {reps!s:>4s} "
                     + " ".join(cols) + f" {total * 1e3:>10.3f}")
    return "\n".join(lines)
