"""Telemetry exporters over run records (repro.observe.export).

The Prometheus page must parse under the exposition grammar, the Chrome
export must carry spans + counter tracks + decision instants, and the
HTML dashboard must render a multi-run trajectory self-contained — no
external scripts, stylesheets, or fonts (docs/RUN_LEDGER.md).
"""

from __future__ import annotations

import json
import re

import pytest

from repro import observe


def _run_record(i: int = 0, command: str = "experiments"):
    with observe.observed() as obs:
        with obs.tracer.span("analysis.plan"):
            with obs.tracer.span("codegen.fortran"):
                pass
            obs.metrics.counter("exec.interp.calls").inc(10 + i)
            obs.metrics.gauge("sample.rss_mb").set(40.0 + i)
            h = obs.metrics.histogram("exec.step_ms")
            for v in (1.0, 2.0, 3.0):
                h.observe(v + i)
        obs.decisions.record("parallel:conflict", "adjust2", 1, "sweep",
                             "conflict", reasons=["write-read on flux(2)"])
    return observe.build_record(
        command=command, argv=["x"], wall_s=0.1 * (i + 1),
        observation=obs, started=1700000000.0 + i,
        samples=[{"t": 0.0, "rss_mb": 40.0, "cpu_s": 0.1, "gc_gen0": 2},
                 {"t": 0.05, "rss_mb": 41.0, "cpu_s": 0.2, "gc_gen0": 4}],
        environment={"python": "3.11", "numpy": "2.0", "git_sha": "abc123",
                     "platform": "linux", "executor": "interpreter"})


class TestPrometheus:
    def test_exposition_parses_under_the_grammar(self):
        rec = _run_record()
        page = observe.to_prometheus(rec["metrics"],
                                     labels={"run": "run-000001"})
        families = observe.parse_prometheus(page)
        assert families["repro_exec_interp_calls_total"] == [
            ({"run": "run-000001"}, 10.0)]
        assert families["repro_exec_step_ms_count"][0][1] == 3.0
        assert families["repro_exec_step_ms_sum"][0][1] == pytest.approx(6.0)
        assert families["repro_exec_step_ms_min"][0][1] == 1.0
        assert families["repro_exec_step_ms_max"][0][1] == 3.0
        assert families["repro_sample_rss_mb"][0][1] == 40.0

    def test_every_family_has_help_and_type(self):
        page = observe.to_prometheus(_run_record()["metrics"])
        names = [line.split()[2] for line in page.splitlines()
                 if line.startswith("# TYPE")]
        assert "repro_exec_interp_calls_total" in names
        for line in page.splitlines():
            if line.startswith("#"):
                assert line.split()[1] in ("HELP", "TYPE")

    def test_dotted_names_are_sanitized(self):
        page = observe.to_prometheus(
            {"counters": {"a.b-c/d": 1}, "gauges": {}, "histograms": {}})
        assert "repro_a_b_c_d_total 1" in page
        observe.parse_prometheus(page)

    def test_label_values_are_escaped(self):
        page = observe.to_prometheus(
            {"counters": {"c": 1}, "gauges": {}, "histograms": {}},
            labels={"cmd": 'say "hi"\nthere'})
        parsed = observe.parse_prometheus(page)
        assert parsed["repro_c_total"][0][0]["cmd"]     # parses cleanly

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            observe.parse_prometheus("not a metric line at all!")
        with pytest.raises(ValueError):
            observe.parse_prometheus("# TYPE repro_x sideways\nrepro_x 1")
        with pytest.raises(ValueError):
            observe.parse_prometheus("repro_x one_point_five")


class TestRecordToChrome:
    def test_spans_counters_and_instants(self):
        doc = observe.record_to_chrome(_run_record())
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"analysis.plan",
                                             "codegen.fortran"}
        counters = [e for e in events if e["ph"] == "C"]
        assert any(e["name"] == "exec.interp.calls" for e in counters)
        assert any(e["name"] == "sample.rss_mb" and e["cat"] == "sample"
                   for e in counters)
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == "parallel:conflict:conflict"
        json.dumps(doc)

    def test_nesting_survives_the_flame_roundtrip(self):
        # A record written before records stored spans has only the
        # name-aggregated flame; its nodes are laid out inside their parent.
        record = {k: v for k, v in _run_record().items() if k != "spans"}
        record["flame"] = [{"name": "analysis.plan", "calls": 1,
                            "total_s": 0.003, "children": [
                                {"name": "codegen.fortran", "calls": 1,
                                 "total_s": 0.001, "children": []}]}]
        doc = observe.record_to_chrome(record)
        spans = {e["name"]: e for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        parent, child = spans["analysis.plan"], spans["codegen.fortran"]
        assert parent["ts"] <= child["ts"]
        assert (child["ts"] + child["dur"]
                <= parent["ts"] + parent["dur"] + 1e-6)


class TestHtmlDashboard:
    def _records(self, n=3):
        recs = []
        for i in range(n):
            rec = dict(_run_record(i))
            rec["id"] = f"run-{i + 1:06d}"
            recs.append(rec)
        return recs

    def test_renders_multi_run_trajectory(self):
        html = observe.render_runs_html(self._records(3))
        assert "<svg" in html and "polyline" in html
        for rid in ("run-000001", "run-000002", "run-000003"):
            assert rid in html
        # Stage series from the flame summaries, with a legend.
        assert "analysis" in html
        assert 'class="legend"' in html

    def test_is_fully_self_contained(self):
        html = observe.render_runs_html(self._records(3))
        assert "<script" not in html
        assert "<link" not in html
        assert "http://" not in html and "https://" not in html
        assert "@media (prefers-color-scheme: dark)" in html

    def test_has_a_table_view_of_every_run(self):
        html = observe.render_runs_html(self._records(4))
        assert html.count("<tr><td>run-") >= 8   # events table + runs table

    def test_escapes_hostile_record_fields(self):
        rec = dict(_run_record())
        rec["id"] = "run-000001"
        rec["command"] = "<script>alert(1)</script>"
        html = observe.render_runs_html([rec])
        assert "<script>alert" not in html
        assert "&lt;script&gt;" in html

    def test_empty_ledger_still_renders(self):
        html = observe.render_runs_html([])
        assert "0 recorded run(s)" in html


class TestTextRenderers:
    def test_table_lists_every_entry(self):
        ledger_entries = [
            {"id": "run-000001", "command": "experiments", "status": "ok",
             "exit_code": 0, "wall_s": 0.5, "started": 1700000000.0,
             "git_sha": "abc123def456"},
        ]
        text = observe.render_runs_table(ledger_entries)
        assert "run-000001" in text and "experiments" in text
        assert "500.0ms" in text

    def test_show_names_stages_counters_events(self):
        rec = dict(_run_record())
        rec["id"] = "run-000007"
        text = observe.render_run(rec)
        assert "run-000007" in text
        assert "analysis" in text
        assert "exec.interp.calls" in text
        events = text.split("-- events --")[1].splitlines()
        assert "  parallel:conflict         1" in events
        assert "resource samples: 2 tick(s)" in text

    def test_show_quotes_argv_so_it_pastes_back(self):
        rec = dict(_run_record())
        rec["argv"] = ["generate", "p.json", "--variant", "GLAF-parallel v2"]
        argv_line, = [line for line in observe.render_run(rec).splitlines()
                      if line.startswith("argv:")]
        assert argv_line == \
            "argv:      generate p.json --variant 'GLAF-parallel v2'"

    def test_diff_reports_wall_stage_counter_env_changes(self):
        a, b = _run_record(0), _run_record(4)
        b["environment"] = dict(b["environment"], git_sha="fff999")
        text = observe.diff_runs(a, b)
        assert re.search(r"wall: .*->.*\(\+", text)
        assert "exec.interp.calls" in text
        assert "git_sha: abc123 -> fff999" in text

    def test_trend_tracks_delta_per_command(self):
        recs = []
        for i, cmd in enumerate(["experiments", "lint", "experiments"]):
            rec = dict(_run_record(i, command=cmd))
            rec["id"] = f"run-{i + 1:06d}"
            recs.append(rec)
        lines = observe.render_runs_trend(recs).splitlines()
        assert lines[-1].split()[-1].startswith(("+", "-"))  # vs prev exp
        assert any(line.split()[-1] == "-" for line in lines
                   if "lint" in line)                        # first lint
