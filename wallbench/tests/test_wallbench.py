"""wallbench's own tests: ``python -m pytest wallbench/tests -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from wallbench import harness
from wallbench.__main__ import _finalize
from wallbench.compare import compare_sets
from wallbench.harness import ROOT, measure, percentile, typical_ms
from wallbench.workloads import WORKLOADS, CompileCorpus, digest

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["wallbench"]
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCH["workloads"])
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.fixture(scope="module")
def reduced_runs():
    """Every workload, untraced and traced, at one round."""
    return {(name, trace): measure(name, 1, 0.0, trace, min_rounds=1)
            for name in WORKLOADS for trace in (False, True)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_declared_metric(reduced_runs, name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        raw = reduced_runs[name, trace]
        assert raw["failed"] == 0 and raw["correct"]
        line = _finalize(raw, BENCH, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in BENCH[kind]}
        assert {k: m["unit"] for k, m in line["metrics"].items()} == declared
    e2e = reduced_runs[name, False]["metrics"]
    assert all(v > 0 for v in e2e.values())


def test_every_per_layer_metric_comes_from_some_workload(reduced_runs):
    produced = set()
    for (_, trace), raw in reduced_runs.items():
        if trace:
            produced |= set(raw["metrics"])
    assert produced == {m["name"] for m in BENCH["per_layer"]}


def test_percentile_omits_the_tail_below_ten_samples_beyond_it():
    assert percentile([float(i) for i in range(99)], 0.9) is None
    assert percentile([float(i) for i in range(100)], 0.9) == pytest.approx(
        89.1)


def test_ref_clock_scales_laps_by_the_bracketing_probes(monkeypatch):
    probes = iter([1.0, 3.0, 2.0])            # host slows, then recovers
    walls = iter([0.0, 1.0, 1.0, 5.0, 6.0, 6.0])
    monkeypatch.setattr(harness, "probe_s", lambda: next(probes))
    monkeypatch.setattr(harness, "perf_counter", lambda: next(walls))
    clock = harness.RefClock()
    # 1 s of wall between probes of 1 s and 3 s: at half reference speed.
    assert clock.lap() == pytest.approx(1.0 * harness.REFERENCE_S / 2.0)
    assert clock.scale == pytest.approx(harness.REFERENCE_S / 2.0)
    clock.skip()                              # 1 -> 5 is not timed
    assert clock.lap() == pytest.approx(1.0 * harness.REFERENCE_S / 2.5)
    assert clock.probes == [1.0, 3.0, 2.0]


def test_typical_latency_stays_inside_one_kind():
    # Two kinds, equally often: the plain median would sit on the gap.
    samples = [("fast", 10.0 + i % 3) for i in range(10)]
    samples += [("slow", 100.0 + i % 3) for i in range(10)]
    assert typical_ms(samples) == pytest.approx(56.0)
    samples.append(("fast", 10.5))
    assert typical_ms(samples) == pytest.approx(11.0)


def test_same_seed_gives_identical_digests(tmp_path):
    from repro.batch import run_item
    from repro.fuzz import run_campaign

    a, b = CompileCorpus(3, tmp_path), CompileCorpus(3, tmp_path)
    corpus_a, corpus_b = a.corpus(1), b.corpus(1)
    assert digest([i.content for i in corpus_a]) == digest(
        [i.content for i in corpus_b])
    items = corpus_a[:2] + corpus_a[-2:]
    assert digest([run_item(i, a.config) for i in items]) == digest(
        [run_item(i, b.config) for i in items])
    summaries = [run_campaign(4, 3, "small", crosscheck=True,
                              checkpoint_dir=str(tmp_path / "ck"),
                              quarantine_dir=str(tmp_path / "q")).to_json()
                 for _ in range(2)]
    assert summaries[0]["content_sha256"] == summaries[1]["content_sha256"]


def _set(values: dict[str, list[float]]) -> dict:
    runs = [{"workload": "w", "seed": i, "trace": 0,
             "result": {"failed": 0, "metrics": {
                 k: {"value": v[i], "unit": "s"} for k, v in values.items()}}}
            for i in range(len(next(iter(values.values()))))]
    return {"schema": "wallbench.set/v1", "runs": runs}


def test_compare_reports_within_bound_worse_and_unresolved():
    bench = {"end_to_end": [
        {"name": "steady", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "slower", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "noisy", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}
    a = _set({"steady": [1.0, 1.01, 0.99, 1.0], "slower": [1.0] * 4,
              "noisy": [1.0, 1.5, 0.7, 1.2], "rate": [10.0] * 4})
    b = _set({"steady": [1.05, 1.04, 1.06, 1.05], "slower": [1.2] * 4,
              "noisy": [1.0, 1.5, 0.7, 1.2], "rate": [8.0] * 4})
    verdicts = {r["metric"]: r["verdict"] for r in compare_sets(a, b, bench)}
    assert verdicts == {"steady": "within-bound", "slower": "worse",
                        "noisy": "unresolved", "rate": "worse",
                        "failed": "within-bound"}


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "wallbench", tmp_path / "wallbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "wallbench", "run", "--workload",
         "fuzz-campaign", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
