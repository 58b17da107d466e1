"""Unit tests for the benchmark recorder, diff, gate, and trajectory."""

import copy
import itertools
import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    bench_files,
    compare_benchmarks,
    environment_fingerprint,
    load_bench,
    next_bench_path,
    record_benchmark,
    render_trend,
    run_timed,
    write_benchmark,
)
from repro.errors import BenchArtifactError
from repro.observe.bench import RepeatStats, summarize_repeats
from repro.runconfig import configured


def fake_clock(step_s: float = 0.001):
    """A deterministic injectable clock: each read advances by ``step_s``."""
    counter = itertools.count()
    return lambda: next(counter) * step_s


@pytest.fixture(scope="module")
def doc():
    # T1/T2 are the two cheapest experiments; the injected clock makes
    # every wall/stage/cell statistic exactly reproducible.  The stubbed
    # git probe pins the tree state, so the artifact (its ``meta`` too) is
    # the same in a git checkout and in an exported tree without ``.git``.
    from repro.bench import record as rec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rec, "_git_sha", lambda: ("0" * 40, ""))
        return record_benchmark(ids=["T1", "T2"], repeats=3,
                                clock=fake_clock())


class TestRepeatStats:
    def test_order_statistics(self):
        s = summarize_repeats([3.0, 1.0, 2.0, 10.0])
        assert s.n == 4
        assert s.minimum == 1.0 and s.maximum == 10.0
        assert s.median == 2.5
        assert s.iqr == pytest.approx(3.0)   # q75=4.75, q25=1.75
        assert s.mean == 4.0

    def test_single_value(self):
        s = summarize_repeats([7.0])
        assert (s.minimum, s.median, s.maximum) == (7.0, 7.0, 7.0)
        assert s.iqr == 0.0

    def test_median_robust_to_one_outlier(self):
        quiet = summarize_repeats([1.0, 1.0, 1.0]).median
        noisy = summarize_repeats([1.0, 1.0, 100.0]).median
        assert noisy == quiet

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_repeats([])

    def test_dict_roundtrip(self):
        s = summarize_repeats([1.0, 2.0, 3.0])
        assert RepeatStats.from_dict(s.to_dict()) == s


class TestRecorder:
    def test_schema_and_structure(self, doc):
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["meta"] == {"repeats": 3, "ids": ["T1", "T2"], "resumed": 0}
        assert set(doc["experiments"]) == {"T1", "T2"}

    def test_wall_stats_cover_repeats(self, doc):
        wall = doc["experiments"]["T1"]["wall_s"]
        assert wall["n"] == 3
        assert wall["min"] <= wall["median"] <= wall["max"]

    def test_stage_totals_recorded(self, doc):
        stages = doc["experiments"]["T1"]["stages"]
        # T1 drives the full pipeline: plan + analysis under the bench span.
        assert {"bench", "optimize", "analysis"} <= set(stages)
        assert stages["bench"]["n"] == 3

    def test_cells_numeric_get_stats(self, doc):
        cells = doc["experiments"]["T1"]["cells"]
        some_row = next(iter(cells.values()))
        stats = some_row["paper SLOC"]
        assert stats["n"] == 3 and stats["iqr"] == 0.0

    def test_cells_non_numeric_keep_value(self, doc):
        cells = doc["experiments"]["T2"]["cells"]
        desc = next(iter(cells.values()))["Description"]
        assert isinstance(desc, str)

    def test_injected_clock_is_deterministic(self):
        a = record_benchmark(ids=["T2"], repeats=2, clock=fake_clock())
        b = record_benchmark(ids=["T2"], repeats=2, clock=fake_clock())
        assert a["experiments"] == b["experiments"]

    def test_environment_fingerprint(self, doc):
        env = doc["environment"]
        assert env["cpu_count"] >= 1
        assert "i5-2400" in env["machines"]
        assert env["guard_mode"] is False
        assert env["fault_plan_active"] is False

    def test_hung_git_probe_degrades_the_fingerprint(self, monkeypatch):
        # A git probe that hangs past its timeout must not silently omit
        # the sha: the fingerprint records the reason, and the artifact
        # meta carries it as fingerprint:degraded.
        import subprocess as sp

        from repro.bench import record as rec

        def hang(*a, **kw):
            raise sp.TimeoutExpired(cmd=a[0], timeout=kw.get("timeout", 10))

        monkeypatch.setattr(rec.subprocess, "run", hang)
        env = environment_fingerprint()
        assert env["git_sha"] == "unknown"
        assert env["degraded"] == [
            {"field": "git_sha",
             "reason": "git probe hung past its 10s timeout"}]
        doc = record_benchmark(ids=["T2"], repeats=1, clock=fake_clock())
        assert doc["meta"]["fingerprint:degraded"] == env["degraded"]

    def test_failed_git_probe_carries_stderr(self, monkeypatch):
        import subprocess as sp

        from repro.bench import record as rec

        def fail(*a, **kw):
            return sp.CompletedProcess(a[0], 128, stdout="",
                                       stderr="fatal: not a git repository")

        monkeypatch.setattr(rec.subprocess, "run", fail)
        env = environment_fingerprint()
        assert env["git_sha"] == "unknown"
        assert "not a git repository" in env["degraded"][0]["reason"]

    def test_healthy_fingerprint_has_no_degraded_field(self):
        env = environment_fingerprint()
        if env["git_sha"] != "unknown":
            assert "degraded" not in env

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            record_benchmark(ids=["ZZ"], repeats=1)

    def test_zero_repeats_raises(self):
        with pytest.raises(ValueError):
            record_benchmark(ids=["T2"], repeats=0)

    def test_leaves_noop_observability_installed(self, doc):
        from repro import observe

        assert not observe.get_tracer().enabled


class TestArtifactFiles:
    def test_next_path_numbering(self, tmp_path):
        assert next_bench_path(tmp_path).name == "BENCH_1.json"
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_4.json").write_text("{}")
        (tmp_path / "BENCH_notanumber.json").write_text("{}")
        assert next_bench_path(tmp_path).name == "BENCH_5.json"
        assert [p.name for p in bench_files(tmp_path)] == [
            "BENCH_1.json", "BENCH_4.json"]

    def test_write_and_load_roundtrip(self, tmp_path, doc):
        path = write_benchmark(doc, tmp_path / "BENCH_1.json")
        assert load_bench(path) == json.loads(json.dumps(doc))

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "BENCH_1.json"
        bad.write_text('{"schema": "other/v0"}')
        with pytest.raises(BenchArtifactError):
            load_bench(bad)

    def test_load_rejects_non_json(self, tmp_path):
        bad = tmp_path / "BENCH_1.json"
        bad.write_text("{nope")
        with pytest.raises(BenchArtifactError):
            load_bench(bad)

    def test_write_stamps_a_content_digest(self, tmp_path, doc):
        from repro.bench import stamp_digest

        path = write_benchmark(doc, tmp_path / "BENCH_1.json")
        on_disk = json.loads(path.read_text())
        digest = on_disk["environment"]["content_sha256"]
        assert len(digest) == 64
        # Re-stamping is idempotent: the digest covers the doc minus itself.
        assert stamp_digest(on_disk)["environment"]["content_sha256"] \
            == digest

    def test_load_rejects_tampered_digest(self, tmp_path, doc):
        path = write_benchmark(doc, tmp_path / "BENCH_1.json")
        tampered = json.loads(path.read_text())
        tampered["experiments"]["T1"]["wall_s"]["median"] *= 2.0
        path.write_text(json.dumps(tampered))
        with pytest.raises(BenchArtifactError, match="digest mismatch"):
            load_bench(path)

    def test_load_accepts_legacy_artifact_without_digest(self, tmp_path, doc):
        path = write_benchmark(doc, tmp_path / "BENCH_1.json")
        legacy = json.loads(path.read_text())
        del legacy["environment"]["content_sha256"]
        path.write_text(json.dumps(legacy))
        assert load_bench(path)["meta"] == doc["meta"]


class TestCompare:
    def test_identical_runs_pass_the_gate(self, doc):
        cmp = compare_benchmarks(doc, doc, fail_on_regress=0.5)
        assert cmp.ok
        assert not cmp.cell_drift and not cmp.env_diffs
        assert all(d.delta_pct == 0.0 for d in cmp.deltas)
        assert "REGRESSION" not in cmp.render()

    def test_synthetic_regression_fails_the_gate(self, doc):
        slower = copy.deepcopy(doc)
        slower["experiments"]["T1"]["wall_s"]["median"] *= 2.0
        cmp = compare_benchmarks(doc, slower, fail_on_regress=50.0)
        assert not cmp.ok
        assert [d.experiment_id for d in cmp.regressions] == ["T1"]
        text = cmp.render()
        assert "REGRESSION" in text and "FAIL" in text

    def test_regression_below_threshold_passes(self, doc):
        slower = copy.deepcopy(doc)
        slower["experiments"]["T1"]["wall_s"]["median"] *= 1.2
        assert compare_benchmarks(doc, slower, fail_on_regress=50.0).ok

    def test_no_threshold_never_fails(self, doc):
        slower = copy.deepcopy(doc)
        slower["experiments"]["T1"]["wall_s"]["median"] *= 100.0
        assert compare_benchmarks(doc, slower).ok

    def test_cell_drift_reported_not_gated(self, doc):
        drifted = copy.deepcopy(doc)
        row = next(iter(drifted["experiments"]["T1"]["cells"]))
        drifted["experiments"]["T1"]["cells"][row]["paper SLOC"]["median"] += 1
        cmp = compare_benchmarks(doc, drifted, fail_on_regress=1000.0)
        assert cmp.ok                       # drift alone never fails the gate
        assert any(r == row for _, r, _, _, _ in cmp.cell_drift)
        assert "value drift" in cmp.render()

    def test_new_and_removed_rows(self, doc):
        changed = copy.deepcopy(doc)
        cells = changed["experiments"]["T2"]["cells"]
        first = next(iter(cells))
        cells["brand new variant"] = cells.pop(first)
        cmp = compare_benchmarks(doc, changed)
        assert ("T2", "brand new variant") in cmp.added_rows
        assert ("T2", first) in cmp.removed_rows

    def test_new_and_removed_experiments(self, doc):
        trimmed = copy.deepcopy(doc)
        del trimmed["experiments"]["T2"]
        cmp = compare_benchmarks(doc, trimmed)
        assert cmp.removed_experiments == ["T2"]
        assert compare_benchmarks(trimmed, doc).added_experiments == ["T2"]

    def test_environment_change_is_flagged(self, doc):
        moved = copy.deepcopy(doc)
        moved["environment"]["cpu_count"] = 4096
        cmp = compare_benchmarks(doc, moved)
        assert ("cpu_count", doc["environment"]["cpu_count"], 4096) \
            in cmp.env_diffs
        assert "environment changed" in cmp.render()

    def test_committed_baseline_compares_to_itself(self):
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        baseline = load_bench(repo / "BENCH_1.json")
        assert set(baseline["experiments"]) == {
            "T1", "T2", "F5", "F6", "F7", "C1", "C2"}
        assert compare_benchmarks(baseline, baseline, fail_on_regress=0.1).ok


class TestTrend:
    def test_empty_trajectory(self):
        assert "no BENCH_" in render_trend([])

    def test_table_has_one_row_per_artifact(self, doc):
        text = render_trend([("BENCH_1.json", doc), ("BENCH_2.json", doc)])
        assert text.count("BENCH_") == 2
        assert "T1" in text and "total" in text

    def test_missing_experiment_renders_dash(self, doc):
        partial = copy.deepcopy(doc)
        del partial["experiments"]["T2"]
        text = render_trend([("BENCH_1.json", doc), ("BENCH_2.json", partial)])
        assert "-" in text.splitlines()[-1]


class TestRunTimed:
    def test_returns_result_and_elapsed(self):
        from repro.bench import EXPERIMENTS

        result, elapsed = run_timed(EXPERIMENTS["T2"], clock=fake_clock())
        assert result.experiment_id == "T2"
        assert elapsed == pytest.approx(0.001)   # exactly one clock step

    def test_experiment_result_to_json(self):
        from repro.bench import EXPERIMENTS

        result = EXPERIMENTS["T2"].run()
        doc = result.to_json()
        assert doc["experiment_id"] == "T2"
        assert doc["headers"] == ["Implementation", "Description"]
        assert doc["rows"] == [list(r) for r in result.rows]
        json.dumps(doc)                          # JSON-serializable


class TestEnvironmentFingerprint:
    def test_guard_mode_is_reflected(self):
        with configured(executor="guarded"):
            assert environment_fingerprint()["guard_mode"] is True
        assert environment_fingerprint()["guard_mode"] is False

    def test_fault_plan_is_reflected(self):
        from repro.robust import FaultPlan

        with configured(faults=FaultPlan()):
            assert environment_fingerprint()["fault_plan_active"] is True
        assert environment_fingerprint()["fault_plan_active"] is False

    def test_sentinels_are_reflected(self):
        from repro.numeric import SentinelConfig

        with configured(sentinels=SentinelConfig()):
            assert environment_fingerprint()["sentinels"] is True
        assert environment_fingerprint()["sentinels"] is False
