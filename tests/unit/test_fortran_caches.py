"""The process-wide FORTRAN caches: parsed trees and shared units.

:func:`~repro.fortranlib.parser.parse_source` keeps a text's tree once the
text comes back, and runtimes that loaded the same texts in the same order
share compiled units, once a unit comes back (:mod:`repro.recurring`).
Neither may change what a run computes or records: a warm run equals a
cold one bit for bit, with the same allocation count, ``omp_log`` and
decisions; no consumer mutates a shared tree; a key misses whenever what
it stands for changed; and a fault plan bypasses both caches.  (That a
shared unit holds nothing of a runtime is pinned in
``test_fortran_interp.py``, with the cycle collector off.)
"""

import gc
import hashlib
import weakref
from functools import partial

import numpy as np
import pytest

from repro import fun3d, observe, sarb
from repro.cases import CASE_NAMES, get_case
from repro.fortranlib import FortranRuntime, interp, parser
from repro.fortranlib.parser import parse_source
from repro.glafexec import vectorize
from repro.recurring import RecurringCache
from repro.robust.faults import FaultPlan, FaultSpec
from repro.runconfig import configured


@pytest.fixture
def empty(monkeypatch):
    """The plan, parse and unit caches, emptied for one test."""
    for module, name in ((vectorize, "_PLANS"), (parser, "_TREES"),
                         (interp, "_UNITS")):
        cache = getattr(module, name)
        monkeypatch.setattr(module, name, RecurringCache(cache.entries))


def _decisions(obs):
    return [(d.stage, d.function, d.step_index, d.step_name, d.verdict,
             d.reasons) for d in obs.decisions.events
            if d.stage in ("executor:fallback", "executor:inline")]


def _compiled(obs) -> list[str]:
    """The units compiled (cache misses), in order."""
    return [s.attrs["unit"] for root in obs.tracer.roots for s in root.walk()
            if s.name == "fortran.compile"]


# -- cold and warm runs agree ---------------------------------------------
INPUTS = {"sarb": lambda s: sarb.make_inputs(seed=s),
          "fun3d": lambda s: fun3d.make_mesh(27, s)}


def _paths() -> dict:
    """Every case's FORTRAN paths by ``case-path``; SARB splices at its
    most pruned level."""
    paths = {}
    for name in CASE_NAMES:
        for path, run in get_case(name).fortran_paths().items():
            if (name, path) == ("sarb", "spliced"):
                path, run = "spliced-v3", partial(run, variant="GLAF-parallel v3")
            paths[f"{name}-{path}"] = (
                lambda s, run=run, name=name: run(INPUTS[name](s)))
    return paths


PATHS = _paths()


def _outputs(out) -> bytes:
    if isinstance(out, dict):
        return b"".join(k.encode() + out[k].tobytes() for k in sorted(out))
    return out.tobytes()


@pytest.mark.parametrize("seed", (1, 3, 7))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_cold_and_warm_runs_agree(empty, path, seed):
    runs = []
    for _ in range(4):                  # new, seen, kept, shared
        with observe.observed() as obs:
            out, rt = PATHS[path](seed)[:2]
        runs.append(((_outputs(out), rt.allocation_count, rt.omp_log,
                      _decisions(obs),
                      obs.metrics.counter("exec.fortran.lifted").value),
                     obs.metrics.counter("fortran.unit_cache.hits").value,
                     obs.metrics.counter("fortran.parse_cache.hits").value))
    (cold, cold_units, cold_trees), (warm, warm_units, warm_trees) = (
        runs[0], runs[-1])
    assert warm == cold
    assert cold_units == cold_trees == 0
    assert warm_units > 0 and warm_trees > 0
    assert cold[4] > 0                  # DO nests really lifted


REFUSES = """
MODULE rm
  IMPLICIT NONE
  REAL(KIND=8) :: a(4)
CONTAINS
  SUBROUTINE fill(lo)
    INTEGER, INTENT(IN) :: lo
    INTEGER :: i
    DO i = lo, 4
      a(i) = i * 2.0D0
    END DO
  END SUBROUTINE fill
END MODULE rm
"""


def test_a_run_time_refusal_is_noted_once_per_runtime(empty):
    runs = []
    for _ in range(4):
        rt = FortranRuntime()
        rt.load(REFUSES)
        with observe.observed() as obs:
            rt.call("fill", [5])        # zero trips: the lift refuses
            rt.call("fill", [5])
            rt.call("fill", [1])        # ... and this one lifts
        runs.append((_decisions(obs),
                     obs.metrics.counter("exec.fortran.fallbacks").value,
                     obs.metrics.counter("exec.fortran.lifted").value,
                     rt.modules["rm"].variables["a"].store.tolist()))
    assert runs[-1] == runs[0]
    decisions, fallbacks, lifted, a = runs[0]
    assert [d[-1] for d in decisions] == [
        ("a range has zero trips or a zero step",)]
    assert (fallbacks, lifted, a) == (2, 1, [2.0, 4.0, 6.0, 8.0])


CALLEE = """
MODULE ca
  IMPLICIT NONE
  REAL(KIND=8) :: a(4)
CONTAINS
  SUBROUTINE inner(n)
    INTEGER, INTENT(IN) :: n
    INTEGER :: i
    DO i = 2, n
      a(i) = a(i - 1) + 1.0D0
    END DO
  END SUBROUTINE inner
END MODULE ca
"""
CALLER = """
MODULE cb
  USE ca
  IMPLICIT NONE
CONTAINS
  SUBROUTINE outer()
    CALL inner(4)
  END SUBROUTINE outer
END MODULE cb
"""


def test_units_of_an_evicted_tree_bind_a_callee_once(empty, monkeypatch):
    # With one tree kept, the two texts evict each other: a runtime's
    # trees differ from the ones its shared units were compiled from.
    monkeypatch.setattr(parser, "_TREES", RecurringCache(1))
    runs, nodes = [], []
    for _ in range(5):
        rt = FortranRuntime()
        rt.load(CALLEE)
        rt.load(CALLER)
        nodes.append(weakref.ref(rt.modules["ca"].subprograms["inner"]))
        with observe.observed() as obs:
            rt.call("inner", [4])       # directly, then through outer
            rt.call("outer")
        runs.append((_compiled(obs), _decisions(obs),
                     obs.metrics.counter("exec.fortran.fallbacks").value))
    assert runs[0][0] == ["inner", "outer"] and runs[-1][0] == []
    assert [r[1:] for r in runs[1:]] == [runs[0][1:]] * 4
    decisions, fallbacks = runs[0][1:]
    assert len(decisions) == fallbacks == 1
    # The shared units, compiled from the second runtime's trees, hold no
    # unit node: each runtime's callee goes with its runtime and tree.
    del rt
    gc.collect()
    assert all(n() is None for n in nodes)


# -- trees stay unchanged ---------------------------------------------------
def _consumers():
    from repro.batch import BatchOptions, CorpusItem, ingest_corpus, run_item
    from repro.bench.experiments import (run_fun3d_correctness,
                                         run_sarb_correctness)
    from repro.lint import LEVELS, lint_levels

    run_sarb_correctness()                                   # C1
    run_fun3d_correctness()                                  # C2
    lint_levels(sorted(LEVELS), ("sarb", "fun3d"))           # repro lint
    fun3d.run_spliced(fun3d.make_mesh(27, 1))                # a splice
    config = BatchOptions().worker_config()
    source = fun3d.full_legacy_source(fun3d.make_mesh(27, 1))
    for item in [CorpusItem("src", "source", source["fun3d_edgejp.f90"])] + \
            ingest_corpus(["fuzz:7:1"]):                     # batch items
        run_item(item, config)


def _tree_digests() -> dict:
    return {key: hashlib.sha256(repr(tree).encode()).hexdigest()
            for key, tree in parser._TREES.kept.items()}


def test_no_consumer_mutates_a_shared_tree(empty):
    _consumers()
    _consumers()                        # every repeated text is now kept
    before = _tree_digests()
    assert len(before) >= 5
    with observe.observed() as obs:
        _consumers()
    assert obs.metrics.counter("fortran.parse_cache.hits").value > 0
    assert {k: d for k, d in _tree_digests().items() if k in before} == before


# -- keys miss when they should ---------------------------------------------
KM = """
MODULE km
  IMPLICIT NONE
  REAL(KIND=8) :: a(4)
CONTAINS
  SUBROUTINE fill(n)
    INTEGER, INTENT(IN) :: n
    INTEGER :: i
    DO i = 1, n
      a(i) = i * 2.0D0
    END DO
  END SUBROUTINE fill
END MODULE km
"""
KN = """
MODULE kn
  IMPLICIT NONE
  REAL(KIND=8) :: b(2)
END MODULE kn
"""
KP = """
PROGRAM kp
  USE km
  IMPLICIT NONE
  CALL fill(4)
  CALL mark()
CONTAINS
  SUBROUTINE mark()
    USE km
    a(1) = -1.0D0
  END SUBROUTINE mark
END PROGRAM kp
"""


def _run(loads, start=lambda rt: rt.call("fill", [4]),
         prepare=lambda rt: None):
    """One runtime: the units it compiled, its decisions and ``a``."""
    rt = FortranRuntime()
    for text in loads:
        rt.load(text)
    prepare(rt)
    with observe.observed() as obs:
        start(rt)
    return (_compiled(obs), _decisions(obs),
            rt.modules["km"].variables["a"].store.tolist())


def test_a_changed_text_misses(empty):
    for _ in range(3):
        _run([KM])
    assert _run([KM])[0] == []
    changed = KM.replace("2.0D0", "3.0D0")
    with observe.observed() as obs:
        compiled, _, a = _run([changed])
    assert compiled == ["fill"] and a == [3.0, 6.0, 9.0, 12.0]
    assert obs.metrics.counter("fortran.parse_cache.misses").value == 1


def test_another_load_order_misses(empty):
    for _ in range(3):
        _run([KM, KN])
    assert _run([KM, KN])[0] == []
    assert _run([KN, KM])[0] == ["fill"]


def test_a_contains_registration_misses(empty):
    for _ in range(3):
        _run([KM, KP])
    assert _run([KM, KP])[0] == []
    # run_program registers mark, which changes the load sequence: fill
    # compiles again under it.
    compiled, _, a = _run([KM, KP], start=lambda rt: rt.run_program())
    assert compiled == ["kp", "fill", "mark"]
    assert a == [-1.0, 4.0, 6.0, 8.0]


def test_a_module_array_of_another_shape_refuses_the_lift(empty):
    def swap(rt):
        rt.modules["km"].variables["a"].store = np.zeros(6)

    def six(rt):
        rt.call("fill", [6])
    cold = _run([KM], six, swap)
    for _ in range(3):
        _run([KM])
    warm = _run([KM], six, swap)
    assert warm[0] == [] and warm[1:] == cold[1:]
    assert [d[-1] for d in cold[1]] == [
        ("'a' is of another shape than declared",)]
    assert cold[2] == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]


# -- fault plans bypass both caches ------------------------------------------
def test_a_fault_plan_bypasses_both_caches(empty):
    for _ in range(3):
        _run([KM])
    kept = (dict(parser._TREES.kept), dict(parser._TREES.seen),
            dict(interp._UNITS.kept), dict(interp._UNITS.seen))
    # A fault that never fires still counts each visit of its site.
    plan = FaultPlan([FaultSpec("fortran.lex.tokens", "corrupt-token",
                                at=10**9)])
    with configured(faults=plan), observe.observed() as obs:
        for _ in range(3):
            parse_source(KM)
        compiled, _, a = _run([KM])
    assert plan._visits == {0: 4}
    assert compiled == ["fill"] and a == [2.0, 4.0, 6.0, 8.0]
    for name in ("parse_cache", "unit_cache"):
        for what in ("hits", "misses"):
            assert obs.metrics.counter(f"fortran.{name}.{what}").value == 0
    assert kept == (dict(parser._TREES.kept), dict(parser._TREES.seen),
                    dict(interp._UNITS.kept), dict(interp._UNITS.seen))


# -- failing and clean parses -----------------------------------------------
def test_a_failing_parse_is_never_kept(empty):
    from repro.errors import FortranSyntaxError

    bad = "MODULE broken\n  REAL(KIND=8) :: = 1\nEND MODULE broken\n"
    for _ in range(4):
        with pytest.raises(FortranSyntaxError):
            parse_source(bad)
    assert not parser._TREES.kept


def test_a_clean_recovering_parse_serves_a_strict_one(empty):
    trees = [parse_source(KM, recover=True) for _ in range(2)]
    with observe.observed() as obs:
        tree = parse_source(KM)
    assert tree is trees[1]
    assert obs.metrics.counter("fortran.parse_cache.hits").value == 1
    (span,) = obs.tracer.roots
    assert span.name == "fortran.parse" and span.attrs["cache"] == "hit"
    assert span.attrs["units"] == 1 and not span.children   # no lexing
    assert obs.metrics.counter("fortran.parse.units").value == 1
