"""Docs stay in sync with the code they describe.

Two invariants, enforced so a new CLI subcommand or package cannot land
without its documentation:

* every ``repro`` subcommand registered in :func:`repro.cli.build_parser`
  is documented in ``README.md``;
* every public package under ``src/repro/`` is mentioned in
  ``docs/ARCHITECTURE.md``.
"""

from pathlib import Path

import pytest

from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[2]


def _subcommands() -> list[str]:
    parser = build_parser()
    subparsers = [a for a in parser._actions
                  if a.__class__.__name__ == "_SubParsersAction"]
    assert subparsers, "build_parser() must register subcommands"
    return sorted(subparsers[0].choices)


def _packages() -> list[str]:
    src = REPO / "src" / "repro"
    return sorted(p.name for p in src.iterdir()
                  if p.is_dir() and (p / "__init__.py").exists()
                  and not p.name.startswith("_"))


def _all_option_strings() -> set[str]:
    """Every ``--flag`` registered anywhere in the CLI parser tree."""
    out: set[str] = set()
    stack = [build_parser()]
    while stack:
        parser = stack.pop()
        for action in parser._actions:
            out.update(s for s in action.option_strings
                       if s.startswith("--"))
            if action.__class__.__name__ == "_SubParsersAction":
                stack.extend(action.choices.values())
    return out


class TestReadmeCoversCli:
    def test_all_subcommands_documented(self):
        readme = (REPO / "README.md").read_text()
        missing = [c for c in _subcommands() if f"`{c}" not in readme]
        assert not missing, (
            f"README.md CLI section is missing subcommand(s): {missing}"
        )

    def test_profile_flag_documented(self):
        readme = (REPO / "README.md").read_text()
        assert "--profile" in readme


class TestArchitectureCoversPackages:
    def test_architecture_doc_exists(self):
        assert (REPO / "docs" / "ARCHITECTURE.md").exists()

    def test_all_packages_mentioned(self):
        arch = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        missing = [p for p in _packages() if f"repro.{p}" not in arch]
        assert not missing, (
            f"docs/ARCHITECTURE.md does not mention package(s): {missing}"
        )

    def test_linked_from_readme_and_tutorial(self):
        assert "ARCHITECTURE.md" in (REPO / "README.md").read_text()
        assert "ARCHITECTURE.md" in (REPO / "docs" / "TUTORIAL.md").read_text()


class TestObservabilityDoc:
    def test_exists_and_names_the_schema(self):
        doc = (REPO / "docs" / "OBSERVABILITY.md").read_text()
        from repro.observe import RUN_SCHEMA

        assert RUN_SCHEMA in doc
        assert "repro profile" in doc
        assert "sarb_integration" in doc

    def test_event_catalog_covers_every_decision_stage(self):
        """The stages-and-verdicts table must name every decision stage
        any subsystem emits (fixed stages literally, parameterized
        families as their ``<placeholder>`` template)."""
        doc = (REPO / "docs" / "OBSERVABILITY.md").read_text()
        fixed = ["parallelize", "pruning", "advisor", "parallel:conflict",
                 "fault",
                 "retry", "executor:fallback", "executor:inline",
                 "fuzz:item", "fuzz:signature", "fuzz:shrink",
                 "fuzz:quarantine", "fuzz:campaign", "run:record",
                 "sample:resource", "batch:item", "batch:quarantine",
                 "batch:degraded", "batch:campaign", "cache:corrupt-entry"]
        missing = [s for s in fixed if f"`{s}`" not in doc]
        assert not missing, (
            f"docs/OBSERVABILITY.md event catalog is missing stage(s): "
            f"{missing}"
        )
        assert "`lint:<rule>`" in doc
        assert "`numeric:<kind>`" in doc

    def test_event_catalog_names_the_executor_spans(self):
        doc = (REPO / "docs" / "OBSERVABILITY.md").read_text()
        assert "exec.run.vectorized" in doc
        assert "exec.vectorized" in doc


class TestBenchmarkingDoc:
    """docs/BENCHMARKING.md must track the bench artifact machinery."""

    def test_exists_and_names_the_schema(self):
        doc = (REPO / "docs" / "BENCHMARKING.md").read_text()
        from repro.observe.bench import BENCH_SCHEMA

        assert BENCH_SCHEMA in doc
        assert "repro bench record" in doc
        assert "--fail-on-regress" in doc
        assert "BENCH_<n>.json" in doc

    def test_linked_from_readme_and_observability(self):
        assert "BENCHMARKING.md" in (REPO / "README.md").read_text()
        obs = (REPO / "docs" / "OBSERVABILITY.md").read_text()
        assert "BENCHMARKING.md" in obs and "--chrome" in obs

    def test_committed_baseline_exists_and_validates(self):
        """The *latest* committed artifact must carry the full current
        registry; earlier trajectory points keep their historical
        experiment sets."""
        from repro.bench import EXPERIMENTS, load_bench
        from repro.bench.record import bench_files

        trajectory = bench_files(REPO)
        assert trajectory, "no committed BENCH_<n>.json baseline"
        baseline = load_bench(trajectory[-1])
        assert set(baseline["experiments"]) == set(EXPERIMENTS)
        assert baseline["meta"]["repeats"] >= 3

    def test_ci_runs_the_regression_gate(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "bench record" in ci
        assert "bench compare" in ci and "--fail-on-regress" in ci
        assert "upload-artifact" in ci

    def test_make_bench_records_an_artifact(self):
        make = (REPO / "Makefile").read_text()
        assert "repro bench record" in make
        assert "--benchmark-only" not in make


class TestStaticAnalysisDoc:
    """docs/STATIC_ANALYSIS.md must track the linter's rule registry."""

    def test_every_rule_documented(self):
        doc = (REPO / "docs" / "STATIC_ANALYSIS.md").read_text()
        from repro.lint import RULES

        missing = [rid for rid in RULES if f"`{rid}`" not in doc]
        assert not missing, (
            f"docs/STATIC_ANALYSIS.md is missing lint rule(s): {missing}"
        )

    def test_linked_from_readme_and_robustness(self):
        assert "STATIC_ANALYSIS.md" in (REPO / "README.md").read_text()
        assert "STATIC_ANALYSIS.md" in (
            REPO / "docs" / "ROBUSTNESS.md").read_text()

    def test_dataflow_surface_documented(self):
        """The dataflow engine's CLI surface must be shown in the doc:
        the lint flag, the range report, and the runtime crosscheck."""
        doc = (REPO / "docs" / "STATIC_ANALYSIS.md").read_text()
        for flag in ("--dataflow", "--ranges", "--crosscheck"):
            assert flag in doc, f"STATIC_ANALYSIS.md does not show {flag}"
        assert "repro.analysis.dataflow" in doc

    def test_every_dataflow_mutant_kind_documented(self):
        """Every corruption kind in the body-mutation corpus must appear
        in the self-test section's table."""
        doc = (REPO / "docs" / "STATIC_ANALYSIS.md").read_text()
        from repro.lint.mutation import MUTANTS

        kinds = {m.kind for m in MUTANTS}
        missing = [k for k in sorted(kinds) if f"`{k}`" not in doc]
        assert not missing, (
            f"docs/STATIC_ANALYSIS.md is missing mutant kind(s): {missing}"
        )

    def test_ci_runs_the_lint_gates(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "repro lint" in ci
        assert "lint --dataflow" in ci
        assert "lint --selftest" in ci

    def test_make_lint_target(self):
        make = (REPO / "Makefile").read_text()
        assert "repro lint" in make
        assert "lint --dataflow" in make
        assert "lint --selftest" in make


class TestNumericsDoc:
    """docs/NUMERICS.md must track the numeric-integrity machinery."""

    def test_every_tolerance_policy_documented(self):
        doc = (REPO / "docs" / "NUMERICS.md").read_text()
        from repro.numeric import POLICIES

        missing = [name for name in POLICIES if f"`{name}`" not in doc]
        assert not missing, (
            f"docs/NUMERICS.md is missing tolerance policy(s): {missing}"
        )

    def test_every_sentinel_kind_documented(self):
        doc = (REPO / "docs" / "NUMERICS.md").read_text()
        from repro.numeric import SENTINEL_KINDS

        missing = [k for k in SENTINEL_KINDS if f"`{k}`" not in doc]
        assert not missing, (
            f"docs/NUMERICS.md is missing sentinel kind(s): {missing}"
        )

    def test_names_the_machinery(self):
        doc = (REPO / "docs" / "NUMERICS.md").read_text()
        assert "NumericIntegrityError" in doc
        assert "content_sha256" in doc
        assert "repro bench record" in doc and "--resume" in doc
        assert "--sentinels" in doc
        from repro.numeric import CHECKPOINT_SCHEMA

        assert CHECKPOINT_SCHEMA in doc

    def test_linked_from_companion_docs(self):
        assert "NUMERICS.md" in (REPO / "README.md").read_text()
        assert "NUMERICS.md" in (REPO / "docs" / "ROBUSTNESS.md").read_text()
        assert "NUMERICS.md" in (
            REPO / "docs" / "BENCHMARKING.md").read_text()

    def test_ci_runs_the_resume_smoke(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "resume_smoke.py" in ci
        make = (REPO / "Makefile").read_text()
        assert "resume_smoke.py" in make
        assert (REPO / "scripts" / "resume_smoke.py").exists()

    def test_baseline_artifact_is_digest_stamped(self):
        import json

        from repro.bench import stamp_digest

        doc = json.loads((REPO / "BENCH_1.json").read_text())
        recorded = doc["environment"]["content_sha256"]
        assert stamp_digest(json.loads(
            (REPO / "BENCH_1.json").read_text()
        ))["environment"]["content_sha256"] == recorded


class TestRobustnessDoc:
    """docs/ROBUSTNESS.md must track the actual injection-site registry."""

    def test_every_registered_site_documented(self):
        doc = (REPO / "docs" / "ROBUSTNESS.md").read_text()
        from repro.robust import SITES

        missing = [name for name in SITES if f"`{name}`" not in doc]
        assert not missing, (
            f"docs/ROBUSTNESS.md is missing injection site(s): {missing}"
        )

    def test_every_fault_kind_documented(self):
        doc = (REPO / "docs" / "ROBUSTNESS.md").read_text()
        from repro.robust import SITES

        kinds = {k for site in SITES.values() for k in site.kinds}
        missing = [k for k in sorted(kinds) if f"`{k}`" not in doc]
        assert not missing, (
            f"docs/ROBUSTNESS.md is missing fault kind(s): {missing}"
        )

    def test_linked_from_readme(self):
        assert "ROBUSTNESS.md" in (REPO / "README.md").read_text()
        assert "faultcheck" in (REPO / "docs" / "ROBUSTNESS.md").read_text()


class TestExecutorsDoc:
    """docs/EXECUTORS.md must track the pluggable-executor machinery."""

    def test_every_executor_documented(self):
        doc = (REPO / "docs" / "EXECUTORS.md").read_text()
        from repro.glafexec import EXECUTOR_NAMES

        missing = [n for n in EXECUTOR_NAMES if f"`{n}`" not in doc]
        assert not missing, (
            f"docs/EXECUTORS.md is missing executor(s): {missing}"
        )

    def test_names_the_machinery(self):
        doc = (REPO / "docs" / "EXECUTORS.md").read_text()
        assert "--executor" in doc
        assert "REPRO_EXECUTOR" in doc
        assert "executor:fallback" in doc
        assert "liftability_report" in doc
        assert "X1" in doc
        from repro.bench.experiments import EXECUTOR_SPEEDUP_GATE

        assert f"{EXECUTOR_SPEEDUP_GATE:g}x" in doc

    def test_linked_from_readme_and_architecture(self):
        assert "EXECUTORS.md" in (REPO / "README.md").read_text()
        assert "EXECUTORS.md" in (
            REPO / "docs" / "ARCHITECTURE.md").read_text()

    def test_readme_has_measured_performance_section(self):
        readme = (REPO / "README.md").read_text()
        assert "## Performance" in readme
        assert "vectorized" in readme

    def test_ci_runs_the_vectorized_leg(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "REPRO_EXECUTOR=vectorized" in ci
        assert "--executor vectorized" in ci
        make = (REPO / "Makefile").read_text()
        assert "REPRO_EXECUTOR=vectorized" in make
        assert "--executor vectorized" in make

    def test_speedup_experiment_registered(self):
        from repro.bench import EXPERIMENTS

        assert "X1" in EXPERIMENTS


class TestFuzzingDoc:
    """docs/FUZZING.md must track the fuzz-campaign machinery."""

    def test_exists_and_names_the_schemas(self):
        doc = (REPO / "docs" / "FUZZING.md").read_text()
        from repro.fuzz import BUNDLE_SCHEMA, SUMMARY_SCHEMA

        assert SUMMARY_SCHEMA in doc
        assert BUNDLE_SCHEMA in doc
        assert "repro fuzz" in doc
        assert "--resume" in doc and "--fault" in doc

    def test_every_profile_documented(self):
        doc = (REPO / "docs" / "FUZZING.md").read_text()
        from repro.fuzz import PROFILES

        missing = [n for n in PROFILES if f"`{n}`" not in doc]
        assert not missing, (
            f"docs/FUZZING.md is missing fuzz profile(s): {missing}"
        )

    def test_every_generator_kind_documented(self):
        doc = (REPO / "docs" / "FUZZING.md").read_text()
        from repro.fuzz import STEP_KINDS, STRUCTURE_KINDS

        missing = [k for k in (*STEP_KINDS, *STRUCTURE_KINDS)
                   if f"`{k}`" not in doc]
        assert not missing, (
            f"docs/FUZZING.md is missing generator kind(s): {missing}"
        )

    def test_linked_from_readme_and_robustness(self):
        assert "FUZZING.md" in (REPO / "README.md").read_text()
        assert "FUZZING.md" in (REPO / "docs" / "ROBUSTNESS.md").read_text()

    def test_crosscheck_documented(self):
        doc = (REPO / "docs" / "FUZZING.md").read_text()
        assert "--crosscheck" in doc
        assert "UnsoundBoundsProof" in doc

    def test_ci_runs_the_fuzz_campaign(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "repro fuzz --seed 7 --count 25 --profile small" in ci
        assert "--crosscheck" in ci    # static-vs-runtime bounds oracle
        assert "fuzz_quarantine" in ci       # bundles ship as artifacts
        make = (REPO / "Makefile").read_text()
        assert "repro fuzz --seed 7 --count 25 --profile small" in make
        assert "--crosscheck" in make


class TestRunLedgerDoc:
    """docs/RUN_LEDGER.md must track the run-ledger machinery."""

    def test_exists_and_names_the_schemas(self):
        doc = (REPO / "docs" / "RUN_LEDGER.md").read_text()
        from repro.observe import INDEX_SCHEMA, RUN_SCHEMA

        assert RUN_SCHEMA in doc
        assert INDEX_SCHEMA in doc
        assert "RunLedgerError" in doc
        assert "REPRO_LEDGER" in doc

    def test_every_runs_subcommand_documented(self):
        """Every ``repro runs <sub>`` registered in the parser must be
        shown in the ledger doc."""
        parser = build_parser()
        runs = [a for a in parser._actions
                if a.__class__.__name__ == "_SubParsersAction"][0]
        runs_parser = runs.choices["runs"]
        subs = [a for a in runs_parser._actions
                if a.__class__.__name__ == "_SubParsersAction"]
        assert subs, "`repro runs` must register subcommands"
        doc = (REPO / "docs" / "RUN_LEDGER.md").read_text()
        missing = [c for c in sorted(subs[0].choices)
                   if f"runs {c}" not in doc]
        assert not missing, (
            f"docs/RUN_LEDGER.md is missing runs subcommand(s): {missing}"
        )

    def test_names_the_controls_and_exporters(self):
        doc = (REPO / "docs" / "RUN_LEDGER.md").read_text()
        for flag in ("--ledger", "--no-ledger", "--sample",
                     "--prometheus", "--chrome", "--keep"):
            assert flag in doc, f"RUN_LEDGER.md does not show {flag}"
        assert "`run:record`" in doc or "run:record" in doc
        assert "sample:resource" in doc
        assert "quarantine" in doc

    def test_linked_from_companion_docs(self):
        assert "RUN_LEDGER.md" in (REPO / "README.md").read_text()
        assert "RUN_LEDGER.md" in (
            REPO / "docs" / "OBSERVABILITY.md").read_text()
        assert "RUN_LEDGER.md" in (
            REPO / "docs" / "ARCHITECTURE.md").read_text()

    def test_ci_runs_the_ledger_selftest(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "runs selftest" in ci
        assert ".repro/runs" in ci        # ledger ships as failure artifact
        make = (REPO / "Makefile").read_text()
        assert "runs selftest" in make


class TestBatchDocs:
    """docs/BATCH.md must track the batch-compiler machinery."""

    def test_exists_and_names_the_schemas(self):
        doc = (REPO / "docs" / "BATCH.md").read_text()
        from repro.batch import (ARTIFACT_SCHEMA, CACHE_SCHEMA,
                                 MANIFEST_SCHEMA, POISON_SCHEMA)

        for schema in (ARTIFACT_SCHEMA, CACHE_SCHEMA, MANIFEST_SCHEMA,
                       POISON_SCHEMA):
            assert schema in doc, f"BATCH.md does not name {schema}"
        assert "repro batch" in doc

    def test_shows_the_cli_surface(self):
        doc = (REPO / "docs" / "BATCH.md").read_text()
        for flag in ("--jobs", "--resume", "--timeout", "--retries",
                     "--seed", "--max-iterations", "--max-wall",
                     "--max-memory", "--cache", "--no-cache",
                     "--cache-max-entries", "--checkpoint",
                     "--quarantine", "--manifest"):
            assert flag in doc, f"BATCH.md does not show {flag}"

    def test_every_poison_kind_and_exit_code_documented(self):
        doc = (REPO / "docs" / "BATCH.md").read_text()
        from repro.batch import (POISON_CRASH_EXIT, POISON_KINDS,
                                 POISON_OOM_EXIT)

        missing = [k for k in POISON_KINDS if f"`{k}`" not in doc]
        assert not missing, (
            f"docs/BATCH.md is missing poison kind(s): {missing}"
        )
        assert f"`{POISON_CRASH_EXIT}`" in doc
        assert f"`{POISON_OOM_EXIT}`" in doc

    def test_documents_the_spawn_safety_contract(self):
        """Embedders must be told about the multiprocessing __main__
        guard, and the serial-degradation escape hatch must be named."""
        doc = (REPO / "docs" / "BATCH.md").read_text()
        assert 'if __name__ == "__main__"' in doc
        assert "batch:degraded" in doc

    def test_names_the_warm_cache_gates(self):
        doc = (REPO / "docs" / "BATCH.md").read_text()
        from repro.bench import EXPERIMENTS
        from repro.bench.experiments import (WARM_CACHE_HIT_GATE,
                                             WARM_CACHE_SPEEDUP_GATE)

        assert "X2" in EXPERIMENTS
        assert "X2" in doc
        assert f"{WARM_CACHE_HIT_GATE:.0%}" in doc
        assert f"{WARM_CACHE_SPEEDUP_GATE:g}x" in doc

    def test_linked_from_companion_docs(self):
        assert "BATCH.md" in (REPO / "README.md").read_text()
        assert "BATCH.md" in (REPO / "docs" / "ROBUSTNESS.md").read_text()
        assert "BATCH.md" in (REPO / "docs" / "ARCHITECTURE.md").read_text()
        assert "BATCH.md" in (
            REPO / "docs" / "OBSERVABILITY.md").read_text()
        assert "repro batch" in (REPO / "docs" / "TUTORIAL.md").read_text()

    def test_resume_smoke_covers_batch(self):
        script = (REPO / "scripts" / "resume_smoke.py").read_text()
        assert '"batch"' in script and "--resume" in script
        assert "load_manifest" in script

    def test_ci_runs_the_batch_smoke(self):
        ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "repro batch" in ci
        assert "poison:" in ci               # quarantine is exercised
        make = (REPO / "Makefile").read_text()
        assert "repro batch" in make
        assert "poison:" in make

    def test_chaos_test_exists(self):
        assert (REPO / "tests" / "integration"
                / "test_batch_chaos.py").exists()


class TestTutorialFlags:
    """Every ``--flag`` the tutorial shows must exist in the CLI, so the
    walkthrough cannot drift from the actual flag vocabulary."""

    def test_every_tutorial_flag_exists_in_cli(self):
        import re

        doc = (REPO / "docs" / "TUTORIAL.md").read_text()
        shown = set(re.findall(r"--[a-z][a-z0-9-]*", doc))
        assert shown, "tutorial should demonstrate CLI flags"
        known = _all_option_strings()
        unknown = sorted(shown - known)
        assert not unknown, (
            f"docs/TUTORIAL.md shows flag(s) the CLI does not have: "
            f"{unknown}"
        )

    def test_tutorial_covers_the_current_flags(self):
        doc = (REPO / "docs" / "TUTORIAL.md").read_text()
        for flag in ("--resume", "--sentinels", "--executor", "--sample"):
            assert flag in doc, f"tutorial does not demonstrate {flag}"
        assert "repro runs" in doc
