"""Experiment harness: runs an experiment and prints the paper-style table.

Every table and figure of the paper's evaluation section has a registered
experiment (see :mod:`repro.bench.experiments`).  The harness renders rows
side by side with the paper's reported values so the reproduction's shape
criteria — orderings, crossovers, rough factors — can be eyeballed and are
asserted in the benchmark suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["ExperimentResult", "Experiment", "format_table", "run_and_format",
           "run_timed"]


@dataclass
class ExperimentResult:
    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: str = ""

    def column(self, name: str) -> list[object]:
        i = self.headers.index(name)
        return [r[i] for r in self.rows]

    def as_dict(self, key_col: int = 0, val_col: int = 1) -> dict:
        return {r[key_col]: r[val_col] for r in self.rows}

    def to_json(self) -> dict[str, object]:
        """Machine-readable form of the paper table (``experiments --json``)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(r) for r in self.rows],
            "notes": self.notes,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json` (checkpoint resume path)."""
        return cls(
            experiment_id=str(doc["experiment_id"]),
            title=str(doc.get("title", "")),
            headers=list(doc.get("headers", [])),
            rows=[list(r) for r in doc.get("rows", [])],
            notes=str(doc.get("notes", "")),
        )


@dataclass(frozen=True)
class Experiment:
    experiment_id: str
    title: str
    paper_ref: str
    run: Callable[[], ExperimentResult]
    description: str = ""


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v != 0 and abs(v) < 0.01:
            return f"{v:.5f}"
        return f"{v:.3f}"
    return str(v)


def format_table(result: ExperimentResult) -> str:
    rows = [[_fmt(v) for v in row] for row in result.rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(result.headers)
    ]
    lines = [f"== {result.experiment_id}: {result.title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(result.headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    if result.notes:
        lines.append(result.notes)
    return "\n".join(lines)


def run_and_format(exp: Experiment) -> tuple[ExperimentResult, str]:
    result, _ = run_timed(exp)
    return result, format_table(result)


def run_timed(
    exp: Experiment,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[ExperimentResult, float]:
    """Run one experiment under the tracer; also measure its wall seconds.

    ``clock`` is injectable (mirroring ``Tracer(clock=...)``) so the bench
    recorder's statistics are deterministic in tests.
    """
    from ..observe import get_metrics, get_tracer

    with get_tracer().span("bench.experiment", id=exp.experiment_id,
                           paper_ref=exp.paper_ref) as _sp:
        t0 = clock()
        result = exp.run()
        elapsed = clock() - t0
        _sp.set(rows=len(result.rows))
        get_metrics().counter("bench.experiments.run").inc()
    return result, elapsed
