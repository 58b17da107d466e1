"""The persistent run ledger: records, index, crash-safety, sampling.

Covers :mod:`repro.observe.ledger` (append / digest / reconcile /
quarantine / gc), :mod:`repro.observe.sample` (the background
ResourceSampler), and the crash contract: a process SIGKILLed mid-run
leaves the ledger loadable, and a torn record file is quarantined — it
never masquerades as a completed run (docs/RUN_LEDGER.md).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import observe
from repro.cli import main
from repro.errors import RunLedgerError
from repro.numeric.integrity import content_digest
from repro.observe.ledger import INDEX_SCHEMA, RUN_SCHEMA


def _observed_demo(counter_value: int = 1):
    with observe.observed() as obs:
        with obs.tracer.span("analysis.plan", step="demo"):
            obs.metrics.counter("plan.steps").inc(counter_value)
        obs.decisions.record("guard", "f", 0, "sweep", "parallel")
    return obs


def _record_with_threads():
    """Nested main-thread spans, two with empty attrs, and a worker's."""
    import threading

    def work():
        with observe.get_tracer().span("batch.item", item=1):
            pass

    with observe.observed() as obs:
        with obs.tracer.span("analysis.plan", step="demo"):
            for _ in range(2):
                with obs.tracer.span("analysis.deps"):
                    pass
        worker = threading.Thread(target=work, name="worker-1")
        worker.start()
        worker.join()
    return observe.build_record(command="experiments", observation=obs,
                                environment={"git_sha": "deadbeef"})


def _record(command: str = "experiments", **kw):
    return observe.build_record(
        command=command, argv=["x"], observation=_observed_demo(),
        environment={"python": "3", "git_sha": "deadbeef"}, **kw)


class TestBuildRecord:
    def test_distills_the_observation(self):
        rec = _record(wall_s=1.5, exit_code=0, status="ok")
        assert rec["schema"] == RUN_SCHEMA
        assert rec["command"] == "experiments"
        assert rec["outcome"] == {"status": "ok", "exit_code": 0}
        assert rec["wall_s"] == 1.5
        assert [s["stage"] for s in rec["stages"]] == ["analysis"]
        assert rec["spans"][0]["name"] == "analysis.plan"
        assert rec["spans"][0]["attrs"] == {"step": "demo"}
        assert "thread" not in rec["spans"][0]    # the main thread
        assert "children" not in rec["spans"][0]
        assert rec["metrics"]["counters"]["plan.steps"] == 1
        assert rec["decisions"][0]["stage"] == "guard"
        json.dumps(rec)                           # fully serializable

    def test_full_form_spans_load_and_render_as_the_compact_form(
            self, tmp_path):
        # A record written before spans omitted their defaults.
        compact = _record_with_threads()
        main, worker = compact["spans"]
        assert "thread" not in main and "attrs" not in main["children"][0]
        assert worker["thread"] == "worker-1"
        full = json.loads(json.dumps(compact))

        def fill(spans):
            for s in spans:
                s.setdefault("thread", "MainThread")
                s.setdefault("attrs", {})
                fill(s.setdefault("children", []))

        fill(full["spans"])
        ledger = observe.RunLedger(tmp_path)
        loaded = ledger.load(ledger.append(full)["id"])
        assert loaded["spans"] == full["spans"]
        del loaded["id"], loaded["sha256"]
        assert observe.render_run(loaded) == observe.render_run(compact)
        assert (observe.record_to_chrome(loaded)
                == observe.record_to_chrome(compact))

    def test_decision_stamps_are_rebased_to_the_run(self):
        rec = _record()
        # Absolute perf_counter values would be hours; rebased stamps
        # sit inside this sub-second run.
        assert 0.0 <= rec["decisions"][0]["t"] < 10.0

    def test_checkpoint_linkage_is_carried(self):
        rec = _record(checkpoint={"dir": ".ckpt", "resume": True})
        assert rec["checkpoint"] == {"dir": ".ckpt", "resume": True}

    def test_default_environment_is_the_bench_fingerprint(self):
        rec = observe.build_record(command="lint")
        for key in ("python", "numpy", "platform", "git_sha", "executor"):
            assert key in rec["environment"]


class TestRunLedger:
    def test_append_stamps_id_and_digest(self, tmp_path):
        ledger = observe.RunLedger(tmp_path)
        rec = ledger.append(_record())
        assert rec["id"] == "run-000001"
        on_disk = json.loads((tmp_path / "run-000001.json").read_text())
        assert on_disk["sha256"] == rec["sha256"]
        assert ledger.load("run-000001")["sha256"] == rec["sha256"]

    def test_ids_are_monotonic_and_survive_gc_gaps(self, tmp_path):
        ledger = observe.RunLedger(tmp_path)
        for _ in range(3):
            ledger.append(_record())
        ledger.gc(keep=1)                 # leaves only run-000003
        assert ledger.append(_record())["id"] == "run-000004"

    def test_index_mirrors_the_records(self, tmp_path):
        ledger = observe.RunLedger(tmp_path)
        ledger.append(_record(wall_s=0.25))
        doc = json.loads((tmp_path / "index.json").read_text())
        assert doc["schema"] == INDEX_SCHEMA
        entry = doc["entries"][0]
        assert entry["id"] == "run-000001"
        assert entry["command"] == "experiments"
        assert entry["wall_s"] == 0.25
        assert entry["git_sha"] == "deadbeef"

    def test_entries_heal_a_stale_index(self, tmp_path):
        # The append protocol writes the record before the index, so a
        # crash between the two leaves a stale index.  entries() must
        # notice the record-file/index mismatch and rebuild.
        ledger = observe.RunLedger(tmp_path)
        ledger.append(_record())
        ledger.append(_record())
        (tmp_path / "index.json").unlink()
        assert [e["id"] for e in ledger.entries()] == [
            "run-000001", "run-000002"]
        assert (tmp_path / "index.json").exists()    # rebuilt on disk

    def test_truncated_record_is_quarantined(self, tmp_path):
        ledger = observe.RunLedger(tmp_path)
        ledger.append(_record())
        bad = tmp_path / "run-000009.json"
        bad.write_text('{"schema": "repro.run/v1", "outco')
        entries = ledger.entries()
        assert [e["id"] for e in entries] == ["run-000001"]
        assert not bad.exists()
        assert (ledger.quarantine_dir / "run-000009.json").exists()

    def test_tampered_record_fails_the_digest(self, tmp_path):
        ledger = observe.RunLedger(tmp_path)
        rec = ledger.append(_record())
        path = tmp_path / f"{rec['id']}.json"
        doc = json.loads(path.read_text())
        doc["wall_s"] = 99.0                      # hand-edit
        path.write_text(json.dumps(doc))
        with pytest.raises(RunLedgerError, match="digest mismatch"):
            ledger.load(rec["id"])

    def test_load_unknown_id_names_the_known_ones(self, tmp_path):
        ledger = observe.RunLedger(tmp_path)
        ledger.append(_record())
        with pytest.raises(RunLedgerError, match="run-000001"):
            ledger.load("run-000404")

    def test_resolve_latest(self, tmp_path):
        ledger = observe.RunLedger(tmp_path)
        with pytest.raises(RunLedgerError, match="empty"):
            ledger.resolve("latest")
        ledger.append(_record())
        ledger.append(_record())
        assert ledger.resolve(None)["id"] == "run-000002"
        assert ledger.resolve("latest")["id"] == "run-000002"

    def test_gc_drops_oldest_and_purges_quarantine(self, tmp_path):
        ledger = observe.RunLedger(tmp_path)
        for _ in range(4):
            ledger.append(_record())
        (tmp_path / "run-000099.json").write_text("torn")
        ledger.entries()                          # quarantines the torn one
        removed = ledger.gc(keep=2)
        assert removed == ["run-000001", "run-000002"]
        assert [e["id"] for e in ledger.entries()] == [
            "run-000003", "run-000004"]
        assert not ledger.quarantine_dir.exists()

    def test_gc_keep_zero_drops_everything(self, tmp_path):
        ledger = observe.RunLedger(tmp_path)
        ledger.append(_record())
        assert ledger.gc(keep=0) == ["run-000001"]
        assert ledger.entries() == []

    def test_gc_negative_is_a_typed_error(self, tmp_path):
        with pytest.raises(RunLedgerError):
            observe.RunLedger(tmp_path).gc(keep=-1)


class TestRecordsBeforeSpans:
    """Records written before records stored their spans carry an
    aggregated ``flame`` tree instead, in an indented file."""

    def _old_record(self):
        rec = {k: v for k, v in _record().items() if k != "spans"}
        rec["flame"] = [{"name": "analysis.plan", "calls": 2,
                         "total_s": 0.004, "children": [
                             {"name": "codegen.fortran", "calls": 1,
                              "total_s": 0.001, "children": []}]}]
        rec["id"] = "run-000001"
        rec["sha256"] = content_digest(rec)
        return rec

    def test_load_show_diff_and_export(self, tmp_path, capsys):
        old = self._old_record()
        (tmp_path / "run-000001.json").write_text(
            json.dumps(old, indent=2) + "\n")
        ledger = observe.RunLedger(tmp_path)
        ledger.append(_record())
        assert [e["id"] for e in ledger.entries()] == [
            "run-000001", "run-000002"]
        assert not ledger.quarantine_dir.exists()
        assert ledger.load("run-000001") == old
        assert main(["runs", "show", "run-000001",
                     "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "   4.000ms  analysis.plan  [calls=2]" in out
        assert "   1.000ms    codegen.fortran  [calls=1]" in out
        assert main(["runs", "diff", "run-000001", "latest",
                     "--dir", str(tmp_path)]) == 0
        assert "-- stages (cumulative) --" in capsys.readouterr().out
        spans = [(e["name"], e["ts"], e["dur"], e["args"])
                 for e in observe.record_to_chrome(old)["traceEvents"]
                 if e["ph"] == "X"]
        assert spans == [("analysis.plan", 0.0, 4000.0, {"calls": 2}),
                         ("codegen.fortran", 0.0, 1000.0, {"calls": 1})]


class TestLedgerDirFromEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(observe.LEDGER_ENV, raising=False)
        assert observe.ledger_dir_from_env() == observe.DEFAULT_LEDGER_DIR

    @pytest.mark.parametrize("value", ["", "0", "off", "OFF", "no", "false"])
    def test_env_kill_switch(self, monkeypatch, value):
        monkeypatch.setenv(observe.LEDGER_ENV, value)
        assert observe.ledger_dir_from_env() is None

    def test_env_directory_and_flag_precedence(self, monkeypatch):
        monkeypatch.setenv(observe.LEDGER_ENV, "/tmp/envledger")
        assert observe.ledger_dir_from_env() == "/tmp/envledger"
        assert observe.ledger_dir_from_env("flagdir") == "flagdir"
        monkeypatch.setenv(observe.LEDGER_ENV, "0")
        assert observe.ledger_dir_from_env("flagdir") == "flagdir"


class TestCrashSafety:
    """SIGKILL a real ledgered CLI subprocess mid-run (the same contract
    scripts/resume_smoke.py drives for bench checkpoints)."""

    def _spawn(self, cwd, ledger_dir):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "experiments", "X1",
             "--ledger", str(ledger_dir)],
            cwd=cwd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def test_sigkill_mid_run_leaves_ledger_loadable(self, tmp_path):
        ledger_dir = tmp_path / "runs"
        proc = self._spawn(tmp_path, ledger_dir)
        time.sleep(0.8)                  # inside the experiment, pre-append
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

        # However far the run got, the ledger must load: either no
        # record landed (killed before append) or a complete, digest-
        # valid one did (append is atomic).  Nothing in between.
        ledger = observe.RunLedger(ledger_dir)
        entries = ledger.entries()
        for entry in entries:
            record = ledger.load(entry["id"])    # digest-verified
            assert record["schema"] == RUN_SCHEMA
        if ledger_dir.exists():
            quarantined = (list(ledger.quarantine_dir.glob("*.json"))
                           if ledger.quarantine_dir.exists() else [])
            assert quarantined == []

        # And the next ledgered run appends cleanly on top.
        res = subprocess.run(
            [sys.executable, "-m", "repro", "variants"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.abspath(
                os.path.join(os.path.dirname(__file__), "..", "..", "src"))})
        assert res.returncode == 0

    def test_partial_record_plus_stale_index_is_quarantined(self, tmp_path):
        # Simulate the worst non-atomic-filesystem outcome: a torn record
        # file *and* an index that never heard about it.
        ledger = observe.RunLedger(tmp_path)
        ledger.append(_record())
        torn = tmp_path / "run-000002.json"
        torn.write_text(json.dumps(
            {"schema": RUN_SCHEMA, "command": "experiments"})[:40])
        entries = ledger.entries()
        assert [e["id"] for e in entries] == ["run-000001"]
        assert (ledger.quarantine_dir / "run-000002.json").exists()
        # The healed index is durable: a fresh reader agrees.
        assert [e["id"] for e in observe.RunLedger(tmp_path).entries()] \
            == ["run-000001"]


_APPENDER = r"""
import sys
sys.path.insert(0, {src!r})
from repro import observe

ledger = observe.RunLedger({dir!r})
for i in range({count}):
    ledger.append(observe.build_record(
        command="stress", argv=["w", {tag!r}, str(i)],
        environment={{"python": "3", "git_sha": "deadbeef"}}))
print("done")
"""


class TestConcurrentAppend:
    """Many writers, one ledger: every record lands exactly once.

    The append protocol (advisory ``index.lock`` around the record-claim
    + index write, with hard-link record claiming underneath) must hold
    across *processes*, not just threads — concurrent ``repro batch``
    invocations share one ``.repro/runs``.
    """

    PROCS = 4
    PER_PROC = 5

    def _src(self):
        return os.path.abspath(os.path.join(
            os.path.dirname(__file__), "..", "..", "src"))

    def test_parallel_processes_never_lose_or_collide(self, tmp_path):
        ledger_dir = str(tmp_path / "runs")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _APPENDER.format(
                    src=self._src(), dir=ledger_dir,
                    count=self.PER_PROC, tag=f"w{i}")],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for i in range(self.PROCS)
        ]
        for p in procs:
            out, err = p.communicate(timeout=120)
            assert p.returncode == 0, err
            assert out.strip() == "done"

        ledger = observe.RunLedger(ledger_dir)
        entries = ledger.entries()
        ids = [e["id"] for e in entries]
        assert len(ids) == self.PROCS * self.PER_PROC
        assert len(set(ids)) == len(ids)          # no id ever reused
        # Every record is digest-valid and every writer's appends all
        # landed (none overwritten by a racing claim).
        tags = []
        for entry in entries:
            record = ledger.load(entry["id"])     # digest-verified
            tags.append(tuple(record["argv"][1:]))
        assert len(set(tags)) == self.PROCS * self.PER_PROC
        quarantined = (list(ledger.quarantine_dir.glob("*.json"))
                       if ledger.quarantine_dir.exists() else [])
        assert quarantined == []

    def test_parallel_threads_within_one_process(self, tmp_path):
        import threading

        ledger = observe.RunLedger(tmp_path / "runs")
        errors = []

        def work(tag):
            try:
                for i in range(self.PER_PROC):
                    ledger.append(observe.build_record(
                        command="stress", argv=[tag, str(i)],
                        environment={"python": "3", "git_sha": "d"}))
            except Exception as e:                # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(self.PROCS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        ids = [e["id"] for e in ledger.entries()]
        assert len(ids) == len(set(ids)) == self.PROCS * self.PER_PROC

    def test_stale_lock_is_broken(self, tmp_path):
        ledger = observe.RunLedger(tmp_path / "runs")
        ledger.dir.mkdir(parents=True, exist_ok=True)
        lock = ledger.dir / "index.lock"
        lock.write_text("99999")
        old = time.time() - 120                   # well past LOCK_STALE_S
        os.utime(lock, (old, old))
        ledger.append(_record())                  # must not deadlock
        assert len(ledger.entries()) == 1


class TestResourceSampler:
    def test_collects_monotone_ticks(self):
        sampler = observe.ResourceSampler(interval=0.01)
        with sampler:
            time.sleep(0.08)
        series = sampler.series()
        assert len(series) >= 2           # several ticks + the final one
        ts = [s["t"] for s in series]
        assert ts == sorted(ts)
        for tick in series:
            assert tick["rss_mb"] >= 0.0
            assert tick["cpu_s"] >= 0.0
            assert isinstance(tick["gc_gen0"], int)

    def test_records_start_stop_decisions_and_gauges(self):
        with observe.observed() as obs:
            with observe.ResourceSampler(interval=0.01) as sampler:
                time.sleep(0.03)
        stages = [d.stage for d in obs.decisions.events]
        assert stages.count("sample:resource") == 2
        verdicts = [d.verdict for d in obs.decisions.events
                    if d.stage == "sample:resource"]
        assert verdicts == ["started", "stopped"]
        snap = obs.metrics.snapshot()
        assert snap["gauges"]["sample.rss_mb"] > 0.0
        assert snap["histograms"]["sample.rss_mb"]["count"] >= 1
        assert sampler.ticks >= 1

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            observe.ResourceSampler(interval=0.0)

    def test_double_start_is_an_error(self):
        sampler = observe.ResourceSampler(interval=0.5)
        sampler.start()
        try:
            with pytest.raises(RuntimeError):
                sampler.start()
        finally:
            sampler.stop()

    def test_stop_without_start_is_a_noop(self):
        observe.ResourceSampler(interval=0.5).stop()

    def test_rss_reader_reports_something_plausible(self):
        rss = observe.read_rss_bytes()
        # A live CPython with numpy imported sits well above 10 MB.
        assert rss > 10 * 1024 * 1024
