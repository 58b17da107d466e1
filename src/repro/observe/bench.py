"""Benchmark statistics over observations: the longitudinal leg of observe.

:mod:`repro.observe` explains one run; this module supplies the pieces that
make runs *comparable across PRs*:

* :class:`RepeatStats` / :func:`summarize_repeats` — order-statistics
  summaries (min/median/IQR) of repeated measurements.  Medians and IQRs
  are preferred over means throughout the bench artifacts because a single
  preempted repeat should not move the recorded number;
* :func:`stage_seconds` — per-stage cumulative wall time of a recorded
  trace, the quantity the bench recorder tracks per repeat;
* :data:`BENCH_SCHEMA` — the version string stamped into every
  ``BENCH_<n>.json`` artifact written by :mod:`repro.bench.record` (see
  ``docs/BENCHMARKING.md``).

Everything here is pure (no clocks, no I/O) so the recorder's statistics
are exactly reproducible under an injected clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import span_dicts, stage_totals
from .trace import NullTracer, Tracer

__all__ = ["BENCH_SCHEMA", "RepeatStats", "summarize_repeats", "stage_seconds"]

BENCH_SCHEMA = "repro.bench/v1"


@dataclass(frozen=True)
class RepeatStats:
    """Order statistics of one measured quantity over N repeats."""

    n: int
    minimum: float
    median: float
    iqr: float
    mean: float
    maximum: float

    def to_dict(self) -> dict[str, object]:
        return {
            "n": self.n,
            "min": self.minimum,
            "median": self.median,
            "iqr": self.iqr,
            "mean": self.mean,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RepeatStats":
        return cls(n=int(d["n"]), minimum=float(d["min"]),
                   median=float(d["median"]), iqr=float(d["iqr"]),
                   mean=float(d["mean"]), maximum=float(d["max"]))


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sample."""
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def summarize_repeats(values: list[float] | tuple[float, ...]) -> RepeatStats:
    """Summarize repeated measurements; robust to a single outlier repeat."""
    if not values:
        raise ValueError("summarize_repeats needs at least one value")
    ordered = sorted(float(v) for v in values)
    return RepeatStats(
        n=len(ordered),
        minimum=ordered[0],
        median=_quantile(ordered, 0.5),
        iqr=_quantile(ordered, 0.75) - _quantile(ordered, 0.25),
        mean=sum(ordered) / len(ordered),
        maximum=ordered[-1],
    )


def stage_seconds(tracer: Tracer | NullTracer) -> dict[str, float]:
    """Cumulative seconds per pipeline stage for one recorded trace."""
    return {str(r["stage"]): float(r["cumulative_s"])
            for r in stage_totals(span_dicts(tracer))}
