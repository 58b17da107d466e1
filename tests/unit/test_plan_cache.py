"""The process-wide cache of compiled lift plans.

A step whose text comes back in a process is looked up by the content
:func:`compile_step` reads, never by identity: an equal program rebuilt
from scratch hits, and any change to what the compile reads misses.
Content is kept when it comes back, so what compiles once keeps
nothing.  A hit records the same decisions as a miss, and the cache
holds no interpreter, context or runtime.
"""

import numpy as np
import pytest

from repro import observe
from repro.core import GlafBuilder, I, T_INT, T_REAL, T_REAL8, T_VOID, ref
from repro.recurring import RecurringCache
from repro.fortranlib import interp, parser
from repro.glafexec import vectorize
from repro.glafexec.vectorize import LiftFailure, compiled_plan


def _program(dims=(3,), ty=T_REAL8, factor=2.0, tag="pc", unused=("n",)):
    """``f`` sweeps ``CALL g(i)``; ``g`` fills a local ``w`` and writes
    ``out(i)`` from it; nothing names the global ``unused``.  Grid names
    carry ``tag``, so no other test's content shares these keys."""
    b = GlafBuilder(tag)
    b.global_grid(f"{tag}_x", T_REAL8, dims=("n",), module_scope=True)
    b.global_grid(f"{tag}_out", ty, dims=("n",), module_scope=True)
    b.global_grid(f"{tag}_unused", T_REAL8, dims=unused, module_scope=True)
    m = b.module("M")
    g = m.function("g", return_type=T_VOID)
    g.param("i", T_INT, intent="in")
    g.local("w", T_REAL8, dims=dims)
    s = g.step("fill")
    s.foreach(k=(1, dims[0]))
    s.formula(ref("w", I("k")), ref(f"{tag}_x", ref("i")) * factor)
    g.step("use").formula(ref(f"{tag}_out", ref("i")), ref("w", 1))
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.step("sweep").foreach(i=(1, "n")).call("g", [I("i")])
    return b.build()


def _compile(program, **kw):
    """Compile ``f``'s sweep; whether it missed the cache."""
    fn = program.find_function("f")
    with observe.observed() as obs:
        plan = compiled_plan(fn.steps[0], program, fn, **kw)
    assert not isinstance(plan, LiftFailure), plan
    return obs.metrics.counter("exec.plan_cache.misses").value == 1


@pytest.fixture
def empty(monkeypatch):
    """The plan, parse and unit caches, emptied for one test."""
    for module, name in ((vectorize, "_PLANS"), (parser, "_TREES"),
                         (interp, "_UNITS")):
        cache = getattr(module, name)
        monkeypatch.setattr(module, name, RecurringCache(cache.entries))


def test_equal_content_hits_and_each_input_misses(empty):
    assert _compile(_program())                         # the step is new
    assert _compile(_program())                         # the content is new
    assert not vectorize._PLANS.kept
    assert _compile(_program())                         # it came back: kept
    # Rebuilt from scratch: other objects, same content.
    assert not _compile(_program())
    # A grid that neither the step nor a callee names is no content.
    assert not _compile(_program(unused=(7, "n")))
    assert _compile(_program(dims=(4,)))                # a local's dim
    assert _compile(_program(ty=T_REAL))                # a global's dtype
    assert _compile(_program(factor=3.0))               # a callee statement
    assert _compile(_program(factor=2))                 # ... a literal's type
    assert _compile(_program(), save_inner_arrays=True)
    # Another front end's options compile again, too.
    fn = _program().find_function("f")
    with observe.observed() as obs:
        compiled_plan(fn.steps[0], _program(), fn, strict=True)
    assert obs.metrics.counter("exec.plan_cache.misses").value == 1


def test_cache_is_bounded(empty):
    for k in range(vectorize._PLAN_ENTRIES + 5):
        for _ in range(3):
            _compile(_program(dims=(k + 1,), tag="bound"))
    assert len(vectorize._PLANS.kept) == vectorize._PLAN_ENTRIES


def _decisions(obs):
    return [(d.stage, d.function, d.step_index, d.step_name, d.verdict,
             d.reasons) for d in obs.decisions.events]


@pytest.mark.parametrize("path", ["ir", "legacy", "generated"])
def test_warm_run_records_the_cold_runs_decisions(empty, path):
    from repro.fun3d import make_mesh
    from repro.fun3d import validation as f3v

    run = {"ir": lambda m: f3v.run_ir_interpreter(m, guarded=False,
                                                  executor="vectorized"),
           "legacy": lambda m: f3v.run_legacy_fortran(m)[0],
           "generated": lambda m: f3v.run_generated_fortran(m)[0]}[path]
    mesh = make_mesh(27, 1)
    runs = []
    for _ in range(4):                  # new, seen, kept, looked up
        with observe.observed() as obs:
            jac = run(mesh)
        # The FORTRAN paths reach their plans through shared units.
        runs.append((_decisions(obs), jac.tobytes(), sum(
            obs.metrics.counter(f"{c}.hits").value for c in (
                "exec.plan_cache", "fortran.unit_cache"))))
    (cold, cold_jac, cold_hits), (warm, warm_jac, warm_hits) = (runs[0],
                                                              runs[-1])
    assert all(r[:2] == (cold, cold_jac) for r in runs)
    assert any(d[0] == "executor:inline" for d in cold)
    assert cold_hits == 0 and warm_hits > 0


def test_plans_hold_no_interpreter_or_context():
    import gc
    import weakref

    from repro.glafexec import ExecutionContext, VectorizedInterpreter

    p = _program(tag="held")
    gc.collect()
    gc.disable()
    try:
        refs = []
        for _ in range(3):              # the third run's plan is kept
            ctx = ExecutionContext(p, sizes={"n": 4})
            ctx.get("held_x")[...] = np.arange(4.0)
            interp = VectorizedInterpreter(p, ctx)
            interp.call("f", [4])
            assert ctx.get("held_out").tolist() == [0.0, 2.0, 4.0, 6.0]
            refs += [weakref.ref(interp), weakref.ref(ctx)]
            del interp, ctx
        assert [r() for r in refs] == [None] * 6
        assert any(plan[0].step is p.find_function("f").steps[0]
                   for plan in vectorize._PLANS.kept.values()
                   if not isinstance(plan, LiftFailure))
    finally:
        gc.enable()
