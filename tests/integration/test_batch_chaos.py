"""Chaos proof for the crash-isolated batch compiler (docs/BATCH.md).

One seeded corpus — dozens of healthy fuzz-drawn codebases with crash,
hang, and OOM poison items mixed in — is driven through the *real*
multiprocessing envelope with ``jobs=4``.  The acceptance bar:

* every healthy item compiles (status ``ok``),
* a malformed project file fails with a typed error, in both modes,
* every poison item is quarantined with a digest-named bundle on disk,
* the parent never hangs (the whole module is wall-clock bounded by
  pytest's session, and hung workers are SIGKILLed at a 3 s deadline),
* a serial (``jobs=1``) run of the same corpus is digest-identical,
* a warm rerun over the healthy items serves >= 90% from the artifact
  cache and still digests identically.

The SIGKILL-the-driver-then-``--resume`` half of the chaos contract is
enforced against the real CLI by ``scripts/resume_smoke.py`` (the
parent process must actually die there, which pytest should not do).
"""

import json

import pytest

from repro.batch import BatchOptions, ingest_corpus, run_batch

FUZZ_COUNT = 50

INPUTS = [f"fuzz:7:{FUZZ_COUNT}", "poison:crash:3", "poison:hang:2",
          "poison:oom:2"]


def chaos_options(tmp_path, tag, **kw):
    base = dict(
        jobs=4, retries=1, retry_base_delay=0.01,
        # The deadline must dominate worker *startup* latency under
        # contention (jobs=4 on a 1-core CI box), or a slow-to-schedule
        # crash worker gets misclassified as a hang.
        timeout=10.0,
        max_wall_seconds=30.0,
        max_memory_mb=256,             # poison:oom trips quickly
        cache_dir=str(tmp_path / tag / "cache"),
        checkpoint_dir=str(tmp_path / tag / "ckpt"),
        quarantine_dir=str(tmp_path / tag / "quar"))
    base.update(kw)
    return BatchOptions(**base)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    malformed = tmp_path_factory.mktemp("corpus") / "malformed.json"
    malformed.write_text("[]")
    return ingest_corpus(INPUTS + [str(malformed)])


class TestBatchChaos:
    def test_chaos_campaign(self, tmp_path, corpus):
        options = chaos_options(tmp_path, "par")
        result = run_batch(corpus, options)

        # No silent skips: one terminal outcome per corpus item.
        assert len(result.outcomes) == len(corpus) == FUZZ_COUNT + 8

        healthy = [o for o in result.outcomes if o.kind == "fuzz"]
        poison = [o for o in result.outcomes if o.kind == "poison"]
        (malformed,) = [o for o in result.outcomes if o.kind == "project"]

        # Every healthy item compiled...
        assert [o.status for o in healthy] == ["ok"] * FUZZ_COUNT
        assert all(o.artifact_sha for o in healthy)
        # ...the malformed project failed with a typed error...
        assert malformed.status == "failed" and not malformed.deaths
        assert malformed.failures[0]["error"] == "ValidationError"
        # ...and every poison item is quarantined with a bundle on disk.
        assert len(poison) == 7
        for o in poison:
            assert o.status == "quarantined"
            assert o.attempts == 2 and len(o.deaths) == 2
            bundle = tmp_path / "par" / "quar" / o.bundle
            assert bundle.exists(), o.bundle
            doc = json.loads(bundle.read_text())
            assert doc["schema"] == "repro.batch.poison/v1"
            assert doc["item"]["id"] == o.id
            assert len(doc["deaths"]) == 2

        # The hang deaths really came from the parent-side deadline, and
        # the crash/OOM deaths from worker exits — not from each other.
        kinds = {o.id.split("-")[1]: {d["kind"] for d in o.deaths}
                 for o in poison}
        assert kinds["hang"] == {"hang"}
        assert kinds["crash"] == {"crash"}
        assert kinds["oom"] == {"crash"}     # hard allocator death

        # The envelope actually ran in parallel with worker processes.
        assert result.stats["mode"] == "parallel"
        assert result.stats["deaths"] == 14

        # Checkpoints are spent on clean completion.
        assert not (tmp_path / "par" / "ckpt").is_dir()

        # -- serial equivalence ---------------------------------------
        serial = run_batch(corpus, chaos_options(tmp_path, "ser", jobs=1))
        assert serial.stats["mode"] == "serial"
        assert serial.manifest["content_sha256"] == \
            result.manifest["content_sha256"]

        # -- warm-cache rerun over the healthy items ------------------
        fuzz_items = [i for i in corpus if i.kind == "fuzz"]
        warm = run_batch(fuzz_items, chaos_options(tmp_path, "par"))
        hit_rate = warm.stats["cache"]["hits"] / warm.stats["items"]
        assert hit_rate >= 0.9, warm.stats
        assert [o.status for o in warm.outcomes] == ["ok"] * FUZZ_COUNT
        assert all(o.cached for o in warm.outcomes)

        # Cached outcomes are observationally equivalent to compiles:
        # the healthy-only manifests of the cold and warm runs agree.
        cold_healthy = {o.id: o.core() for o in healthy}
        warm_healthy = {o.id: o.core() for o in warm.outcomes}
        assert warm_healthy == cold_healthy

        # -- sticky quarantine across campaigns -----------------------
        again = run_batch(corpus, chaos_options(tmp_path, "par"))
        assert again.stats["sticky"] == 7
        assert again.stats["deaths"] == 0    # no worker ever re-spawned
        assert again.manifest["content_sha256"] == \
            result.manifest["content_sha256"]
