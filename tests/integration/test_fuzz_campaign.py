"""The fuzz campaign end to end: determinism, crash-resume, known-bads.

Three acceptance properties of ``repro fuzz``:

* the same seed/count/profile produce **byte-identical** JSON reports —
  the summary is timing-free by design;
* a campaign SIGKILLed mid-run finishes under ``--resume`` with a
  report digest-equal to an uninterrupted run;
* a seeded known-bad injection (a mis-parallelization fault) is caught
  by the differential/lint oracles, bucketed, minimized to a
  reproducer of at most 20 SLOC, and quarantined — never crashed over.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import observe
from repro.fuzz import build_program, generate_spec, run_campaign, run_item
from repro.fuzz.runner import _unit_args
from repro.glafexec import get_executor
from repro.robust import FaultSpec

REPO = Path(__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}

SEED, COUNT = 7, 25


def _cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro", "fuzz", *args],
        cwd=cwd, env=ENV, capture_output=True, text=True)


def _campaign_args(out, count=COUNT):
    return ["--seed", str(SEED), "--count", str(count),
            "--profile", "small", "--json", out]


class TestDeterminism:
    def test_two_runs_are_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            r = _cli(_campaign_args("report.json"), tmp_path / d)
            assert r.returncode == 0, r.stderr
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b
        assert json.loads(a)["stats"]["clean"] == COUNT

    def test_summary_carries_its_own_digest(self, tmp_path):
        summary = run_campaign(SEED, 4, "small",
                               checkpoint_dir=tmp_path / "ckpt",
                               quarantine_dir=tmp_path / "q")
        doc = summary.to_json()
        from repro.numeric import content_digest

        recorded = doc.pop("content_sha256")
        assert content_digest(doc) == recorded


class TestCrashResume:
    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        # More items than the acceptance campaign so the kill lands
        # mid-run reliably; the report stays timing-free either way.
        count = 80
        base = tmp_path / "base"
        base.mkdir()
        r = _cli(_campaign_args("report.json", count), base)
        assert r.returncode == 0, r.stderr
        expected = (base / "report.json").read_bytes()

        work = tmp_path / "killed"
        work.mkdir()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fuzz",
             *_campaign_args("report.json", count)],
            cwd=work, env=ENV,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        ckpt = work / ".repro_fuzz.ckpt"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done = len(list(ckpt.glob("*.ckpt.json"))) if ckpt.exists() else 0
            if done >= 5:
                break
            if proc.poll() is not None:
                pytest.fail("campaign finished before it could be killed; "
                            "raise the item count")
            time.sleep(0.005)
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        assert not (work / "report.json").exists()

        r = _cli([*_campaign_args("report.json", count), "--resume"], work)
        assert r.returncode == 0, r.stderr
        assert (work / "report.json").read_bytes() == expected
        # a finished campaign clears its checkpoints
        assert not list(ckpt.glob("*.ckpt.json"))


class TestOracleLifts:
    # Items that lift inlined call-helper steps: the oracle's vectorized
    # leg must lift each of them, as a plain vectorized run does.
    @pytest.mark.parametrize("index", [9, 20])
    def test_vectorized_leg_lifts_what_the_executor_lifts(self, index):
        spec = generate_spec(SEED, "small", index)
        with observe.observed() as obs:
            run_item(spec, "small")
        oracle = obs.metrics.counter("exec.vectorized.steps").value
        program = build_program(spec)
        with observe.observed() as obs:
            for unit in spec.units:
                get_executor("vectorized").run(
                    program, unit.name, _unit_args(spec, unit),
                    sizes={"n": spec.extent})
        plain = obs.metrics.counter("exec.vectorized.steps").value
        assert oracle == plain > 0


class TestKnownBadInjection:
    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("knownbad")
        with observe.observed() as obs:
            summary = run_campaign(
                SEED, COUNT, "small",
                checkpoint_dir=tmp / "ckpt",
                quarantine_dir=tmp / "quarantine",
                faults=[FaultSpec.parse(
                    "analysis.parallelize.verdict:misparallelize")])
        return summary, obs, tmp

    def test_fault_is_caught_and_bucketed(self, campaign):
        summary, obs, _ = campaign
        assert summary.failed > 0
        assert "lint:LintFinding:race-shared-write" in summary.buckets
        # one bucket, many failing items: deduplication worked
        assert summary.buckets["lint:LintFinding:race-shared-write"] >= \
            summary.failed
        assert obs.decisions.for_stage("fuzz:quarantine")
        assert obs.metrics.counter("fuzz.items.failed").value == \
            summary.failed

    def test_reproducer_bundle_is_minimized(self, campaign):
        summary, _, tmp = campaign
        bundles = list((tmp / "quarantine").glob("fuzz-*.json"))
        assert len(bundles) == len(summary.buckets)
        doc = json.loads(bundles[0].read_text())
        assert doc["schema"] == "repro.fuzz.reproducer/v1"
        assert doc["faults"] == [
            "analysis.parallelize.verdict:misparallelize"]
        minimized = doc["minimized"]
        assert 0 < minimized["lines"] <= 20
        assert minimized["shrink_probes"] > 0
        assert "!$OMP" in minimized["source"]
        # the minimized spec is smaller than or equal to the original
        assert len(minimized["spec"]["units"]) <= len(doc["spec"]["units"])

    def test_cli_exits_one_and_reports_the_bucket(self, tmp_path):
        r = _cli([*_campaign_args("report.json", 6), "--fault",
                  "analysis.parallelize.verdict:misparallelize"], tmp_path)
        assert r.returncode == 1, r.stdout + r.stderr
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["stats"]["failed"] > 0
        assert doc["quarantined"]
