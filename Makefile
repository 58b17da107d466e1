# Convenience targets for the GLAF reproduction.

PYTHON ?= python

.PHONY: install test lint batch ci bench examples figures outputs clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

# The tier-1 suite (ROADMAP.md), as `make ci` runs it.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Static parallel-correctness gate: every shipped SARB/FUN3D output must
# lint clean at every pruning level — structural rules plus the
# interprocedural dataflow rules (--dataflow) — and the seeded mutation
# corpus must be caught at 100% (docs/STATIC_ANALYSIS.md).
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint
	PYTHONPATH=src $(PYTHON) -m repro lint --dataflow
	PYTHONPATH=src $(PYTHON) -m repro lint --selftest

# Batch-compiler smoke (docs/BATCH.md): a small corpus with one
# deliberately hostile item through the crash-isolated parallel driver.
# Exit 1 from the first run is the *expected* outcome — the poison item
# must be quarantined, not fatal — and the warm rerun must serve every
# healthy item from the content-addressed artifact cache.
batch:
	rm -rf .repro/batch-smoke
	rc=0; PYTHONPATH=src $(PYTHON) -m repro batch fuzz:7:8 poison:crash \
	  --jobs 2 --retries 1 --timeout 10 \
	  --cache .repro/batch-smoke/cache \
	  --checkpoint .repro/batch-smoke/ckpt \
	  --quarantine .repro/batch-smoke/quarantine \
	  --manifest .repro/batch-smoke/manifest.json || rc=$$?; \
	  test "$$rc" -eq 1
	ls .repro/batch-smoke/quarantine/batch-*.json
	PYTHONPATH=src $(PYTHON) -m repro batch fuzz:7:8 --jobs 2 \
	  --cache .repro/batch-smoke/cache \
	  --checkpoint .repro/batch-smoke/ckpt \
	  --quarantine .repro/batch-smoke/quarantine \
	  --manifest .repro/batch-smoke/warm.json | grep "8 hit(s)"

# What .github/workflows/ci.yml runs: compile check, full suite (once on
# the reference interpreter, once with REPRO_EXECUTOR=vectorized so the
# array executor serves every interpreter-mode run — docs/EXECUTORS.md),
# the wall-clock benchmark's own tests (wallbench/README.md), lint
# gate, fault sweep (includes the numeric.sentinel scenario), the
# fixed-seed differential fuzz campaign (docs/FUZZING.md), the
# crash-isolated batch-compiler smoke (docs/BATCH.md), the
# resume-integrity smoke (kill a bench recording *and* a batch
# campaign, resume both, verify digests — docs/NUMERICS.md,
# docs/BATCH.md), the run-ledger selftest (append, stale-index
# reconciliation, quarantine, every exporter — docs/RUN_LEDGER.md),
# and the benchmark regression gates against the committed baseline
# (interpreter and vectorized legs; the recorded artifacts carry the
# X1 executor-speedup and X2 warm-cache gates).
ci: lint batch
	$(PYTHON) -m compileall -q src
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	REPRO_EXECUTOR=vectorized PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest wallbench/tests -q
	PYTHONPATH=src $(PYTHON) -m repro runs selftest
	PYTHONPATH=src $(PYTHON) -m repro faultcheck
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed 7 --count 25 --profile small --crosscheck
	$(PYTHON) scripts/resume_smoke.py
	PYTHONPATH=src $(PYTHON) -m repro bench record --repeats 3 --out BENCH_ci.json
	PYTHONPATH=src $(PYTHON) -m repro bench compare BENCH_2.json BENCH_ci.json --fail-on-regress 400
	PYTHONPATH=src $(PYTHON) -m repro bench record --repeats 3 --executor vectorized --out BENCH_vec.json
	PYTHONPATH=src $(PYTHON) -m repro bench compare BENCH_2.json BENCH_vec.json --fail-on-regress 400

# The shape-criteria suite plus a recorded BENCH_<n>.json artifact
# (docs/BENCHMARKING.md documents the artifact schema and the workflow).
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q
	PYTHONPATH=src $(PYTHON) -m repro bench record --repeats 3

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/codegen_tour.py
	$(PYTHON) examples/graph_kernel.py
	$(PYTHON) examples/sarb_integration.py
	$(PYTHON) examples/fun3d_jacobian.py

figures:
	$(PYTHON) examples/paper_figures.py

outputs:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ -q 2>&1 | tee bench_output.txt

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks
