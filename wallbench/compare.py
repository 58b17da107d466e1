"""Compare two sets of runs under the bounds in ``BENCHMARK.json``.

A set is the JSON file ``python -m wallbench run --repeat N --json FILE``
writes; each further run with ``--json FILE`` adds to it.  For every
end-to-end metric and workload, set B is judged against set A:

``within-bound``
    B's median is not worse than A's by more than the metric's bound.
``worse``
    B's median is worse by more than the bound.
``unresolved``
    The run-to-run spread (interquartile range over median) of either set
    is wider than the bound, so a change of that size cannot be told from
    noise -- unless every run of B reads better than every run of A.

Failed ops have a bound of zero: B may not fail more ops than A.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

__all__ = ["baseline", "compare_sets", "iqr", "load_set", "render",
           "spread", "summarize"]


def load_set(path: str | Path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != "wallbench.set/v1":
        raise ValueError(f"{path}: not a wallbench set file")
    return doc


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    med = statistics.median(values)
    return iqr(values) / abs(med) if med else float("inf")


def _values(doc: dict, trace: int) -> dict[str, dict[str, list[float]]]:
    """{workload: {metric: [value per run]}} over runs with ``trace``."""
    out: dict[str, dict[str, list[float]]] = {}
    for run in doc["runs"]:
        if run["trace"] != trace:
            continue
        per = out.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
        per.setdefault("failed", []).append(run["result"]["failed"])
    return out


def summarize(doc: dict) -> dict[str, dict[str, dict[str, float]]]:
    """Median, interquartile range and run count per workload x metric."""
    out = {}
    for workload, metrics in _values(doc, 0).items():
        out[workload] = {}
        for name, vals in metrics.items():
            out[workload][name] = {"median": statistics.median(vals),
                                   "iqr": iqr(vals), "runs": len(vals)}
    return out


def compare_sets(a: dict, b: dict, bench: dict) -> list[dict]:
    """One row per end-to-end metric x workload, plus failed ops."""
    va, vb = _values(a, 0), _values(b, 0)
    rows = []
    for workload in sorted(set(va) & set(vb)):
        for m in bench["end_to_end"] + [{"name": "failed", "better": "lower",
                                         "bound": 0.0}]:
            xs = va[workload].get(m["name"])
            ys = vb[workload].get(m["name"])
            if not xs or not ys:
                continue
            ma, mb = statistics.median(xs), statistics.median(ys)
            lower = m["better"] == "lower"
            if m["name"] == "failed":
                change = mb - ma
                sa = sb = 0.0
            else:
                change = (mb - ma) / abs(ma) if ma else 0.0
                sa, sb = spread(xs), spread(ys)
            if max(sa, sb) > m["bound"]:
                all_better = (max(ys) < min(xs) if lower
                              else min(ys) > max(xs))
                verdict = "within-bound" if all_better else "unresolved"
            else:
                worse_by = change if lower else -change
                verdict = "worse" if worse_by > m["bound"] else "within-bound"
            rows.append({"workload": workload, "metric": m["name"],
                         "a": ma, "b": mb, "change": change,
                         "spread_a": sa, "spread_b": sb,
                         "bound": m["bound"], "verdict": verdict})
    return rows


def baseline(a: dict, b: dict) -> dict:
    """The baseline document: both sets' medians and IQRs, per-layer
    numbers from the first traced run, and the machine they ran on."""
    traced = {}
    for run in a["runs"] + b["runs"]:
        if run["trace"] and run["workload"] not in traced:
            traced[run["workload"]] = {
                k: m["value"] for k, m in run["result"]["metrics"].items()}
    return {"schema": "wallbench.baseline/v1", "machine": a["machine"],
            "seconds": sorted({r["seconds"] for r in a["runs"] + b["runs"]}),
            "sets": {"A": summarize(a), "B": summarize(b)},
            "per_layer": traced}


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':16s} {'metric':16s} {'A':>12s} {'B':>12s} "
             f"{'change':>8s} {'spreadA':>8s} {'spreadB':>8s} {'bound':>6s}"
             "  verdict"]
    for r in rows:
        change = (f"{r['change']:+.0f}" if r["metric"] == "failed"
                  else f"{r['change']:+.1%}")
        lines.append(
            f"{r['workload']:16s} {r['metric']:16s} {r['a']:12.5g} "
            f"{r['b']:12.5g} {change:>8s} {r['spread_a']:8.1%} "
            f"{r['spread_b']:8.1%} {r['bound']:6.0%}  {r['verdict']}")
    return "\n".join(lines)
