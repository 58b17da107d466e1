"""Unit tests for the vectorized array executor and the Executor registry.

The integration-level cross-executor equivalence suite lives in
``tests/integration/test_executor_equivalence.py``; this file covers the
lift-legality analysis (``compile_step``), the executor selection
machinery, FORTRAN scalar semantics surviving the lift, fallback
bookkeeping, and the guarded executor's divergence handling.
"""

import numpy as np
import pytest

from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, lib, ref
from repro.core.builder import StepBuilder as SB
from repro.errors import (
    ExecutionError,
    NumericIntegrityError,
    ResourceLimitError,
)
from repro.glafexec import (
    EXECUTOR_NAMES,
    ExecutionContext,
    Interpreter,
    LiftFailure,
    LiftedStep,
    VectorizedInterpreter,
    compile_step,
    executor_mode,
    get_executor,
    guarded_vectorized_run,
    liftability_report,
    set_executor_mode,
    using_executor,
)
from repro.glafexec.executor import _initial_mode


def _step(program, fn_name, idx=0):
    return program.find_function(fn_name).steps[idx]


def _build(body):
    """One module, one subroutine ``f`` whose steps ``body`` populates."""
    b = GlafBuilder("t")
    m = b.module("M")
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("x", T_REAL8, dims=("n",), intent="in")
    f.param("y", T_REAL8, dims=("n",), intent="inout")
    body(f)
    return b.build()


class TestCompileStep:
    def test_pointwise_lifts(self):
        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)

        lifted = compile_step(_step(_build(body), "f"))
        assert isinstance(lifted, LiftedStep)
        assert [a.kind for a in lifted.assigns] == ["pointwise"]

    def test_sum_reduction_lifts(self):
        def body(f):
            s = f.step("red")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", 1), ref("y", 1) + ref("x", I("i")))

        lifted = compile_step(_step(_build(body), "f"))
        assert isinstance(lifted, LiftedStep)
        assert [a.kind for a in lifted.assigns] == ["reduce"]
        assert lifted.assigns[0].op == "+"

    def test_minmax_reduction_lifts(self):
        def body(f):
            s = f.step("mx")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", 1), lib("MAX", ref("y", 1), ref("x", I("i"))))

        lifted = compile_step(_step(_build(body), "f"))
        assert isinstance(lifted, LiftedStep)
        assert lifted.assigns[0].op == "max"

    def test_branch_split_same_op_reduction_lifts(self):
        # An IF whose branches both accumulate with + flattens into two
        # masked reduce-assigns to one accumulator — legal.
        def body(f):
            s = f.step("br")
            s.foreach(i=(1, "n"))
            s.if_(ref("x", I("i")).gt(0.0),
                  [SB.assign(ref("y", 1), ref("y", 1) + ref("x", I("i")))],
                  [SB.assign(ref("y", 1), ref("y", 1) + 1.0)])

        lifted = compile_step(_step(_build(body), "f"))
        assert isinstance(lifted, LiftedStep)
        assert [a.op for a in lifted.assigns] == ["+", "+"]

    def test_mixed_op_reduction_refused(self):
        def body(f):
            s = f.step("mix")
            s.foreach(i=(1, "n"))
            s.if_(ref("x", I("i")).gt(0.0),
                  [SB.assign(ref("y", 1), ref("y", 1) + ref("x", I("i")))],
                  [SB.assign(ref("y", 1),
                             lib("MAX", ref("y", 1), ref("x", I("i"))))])

        failure = compile_step(_step(_build(body), "f"))
        assert isinstance(failure, LiftFailure)
        assert "mixed" in failure.reason

    def test_loop_carried_read_refused(self):
        def body(f):
            s = f.step("lc")
            s.foreach(i=(2, "n"))
            s.formula(ref("y", I("i")),
                      ref("y", I("i") - 1) + ref("x", I("i")))

        failure = compile_step(_step(_build(body), "f"))
        assert isinstance(failure, LiftFailure)
        assert "loop-carried" in failure.reason

    def test_call_and_return_and_exit_refused(self):
        def call_body(f):
            s = f.step("c")
            s.foreach(i=(1, "n"))
            s.call("f", [ref("n"), ref("x"), ref("y")])

        def ret_body(f):
            s = f.step("r")
            s.foreach(i=(1, "n"))
            s.if_(ref("x", I("i")).gt(0.0), [SB.ret()])

        def exit_body(f):
            s = f.step("e")
            s.foreach(i=(1, "n"))
            s.if_(ref("x", I("i")).gt(0.0), [SB.exit_stmt()])
            s.formula(ref("y", I("i")), ref("x", I("i")))

        for body in (call_body, ret_body, exit_body):
            assert isinstance(compile_step(_step(_build(body), "f")),
                              LiftFailure)

    def test_indirect_write_refused(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("idx", T_INT, dims=("n",), intent="in")
        f.param("y", T_REAL8, dims=("n",), intent="inout")
        s = f.step("scatter")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", ref("idx", I("i"))), 1.0)
        failure = compile_step(_step(b.build(), "f"))
        assert isinstance(failure, LiftFailure)

    def test_triangular_bounds_refused(self):
        def body(f):
            s = f.step("tri")
            s.foreach(i=(1, "n"), j=(1, I("i")))
            s.formula(ref("y", I("i")), ref("y", I("i")) + 1.0)

        failure = compile_step(_step(_build(body), "f"))
        assert isinstance(failure, LiftFailure)

    def test_sarb_liftability_report(self):
        from repro.sarb import build_sarb_program

        rep = liftability_report(build_sarb_program())
        refused = {k: v for k, v in rep.items() if v}
        # Exactly one genuinely loop-carried step falls back.
        assert list(refused) == [("adjust2", 1)]
        assert "loop-carried" in refused[("adjust2", 1)]
        assert len(rep) > 15

    def test_liftability_report_is_sorted_by_function(self):
        from repro.fun3d import build_fun3d_program
        from repro.sarb import build_sarb_program

        for program in (build_sarb_program(), build_fun3d_program()):
            names = [fn for fn, _ in liftability_report(program)]
            assert names == sorted(names)


class TestSnapshotElision:
    def test_dead_on_entry_pointwise_grid_is_snapshot_free(self):
        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)

        lifted = compile_step(_step(_build(body), "f"))
        assert lifted.snapshot_free == ("y",)

    def test_live_on_entry_grid_keeps_its_snapshot(self):
        def body(f):
            s = f.step("acc")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("y", I("i")) + 1.0)

        lifted = compile_step(_step(_build(body), "f"))
        assert lifted.snapshot_free == ()

    def test_masked_write_keeps_its_snapshot(self):
        def body(f):
            s = f.step("mask")
            s.foreach(i=(1, "n"))
            s.if_(ref("x", I("i")).gt(0.0),
                  [SB.assign(ref("y", I("i")), ref("x", I("i")))], [])

        lifted = compile_step(_step(_build(body), "f"))
        assert lifted.snapshot_free == ()

    def test_elision_counted_and_logged(self):
        from repro import observe

        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)

        p = _build(body)
        x = np.arange(1.0, 6.0)
        y = np.zeros(5)
        with observe.observed() as obs:
            get_executor("vectorized").run(p, "f", [5, x, y], sizes={"n": 5})
        assert np.array_equal(y, x * 2.0)
        assert obs.metrics.counter(
            "exec.vectorized.snapshot_elided").value >= 1
        events = obs.decisions.for_stage("executor:snapshot-elide")
        assert events and events[0].verdict == "no-rollback-copy"
        assert any("dead on step entry" in r for r in events[0].reasons)

    def test_fun3d_benchmark_steps_elide_snapshots(self):
        # The acceptance gate: at least one shipped benchmark step skips
        # its rollback copy via the liveness proof.
        from repro.fun3d import build_fun3d_program

        program = build_fun3d_program()
        elided = []
        for fn in program.functions():
            for idx, step in enumerate(fn.steps):
                lifted = compile_step(step)
                if isinstance(lifted, LiftedStep) and lifted.snapshot_free:
                    elided.append((fn.name, idx, lifted.snapshot_free))
        assert elided, "no FUN3D step proves a snapshot-free write"


class TestExecutorSelection:
    def test_registry_names(self):
        assert EXECUTOR_NAMES == ("interpreter", "vectorized", "guarded")
        for name in EXECUTOR_NAMES:
            assert get_executor(name) is not None

    def test_unknown_executor_raises(self):
        with pytest.raises(ExecutionError, match="unknown executor"):
            get_executor("turbo")
        with pytest.raises(ExecutionError, match="unknown executor"):
            set_executor_mode("turbo")

    def test_mode_trio_and_restore(self):
        # The initial mode depends on REPRO_EXECUTOR (the CI vectorized
        # leg sets it), so assert the transitions, not the starting point.
        initial = executor_mode()
        assert initial in EXECUTOR_NAMES
        target = "vectorized" if initial != "vectorized" else "interpreter"
        prev = set_executor_mode(target)
        assert prev == initial
        try:
            assert executor_mode() == target
            with using_executor("guarded"):
                assert executor_mode() == "guarded"
            assert executor_mode() == target
        finally:
            set_executor_mode(prev)
        assert executor_mode() == initial

    def test_env_var_sets_initial_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "vectorized")
        assert _initial_mode() == "vectorized"
        monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
        assert _initial_mode() == "interpreter"
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert _initial_mode() == "interpreter"

    def test_get_executor_defaults_to_mode(self):
        from repro.glafexec.executor import VectorizedExecutor

        with using_executor("vectorized"):
            assert isinstance(get_executor(), VectorizedExecutor)


def _semantics_program():
    b = GlafBuilder("sem")
    m = b.module("M")
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("a", T_INT, dims=("n",), intent="in")
    f.param("b", T_INT, dims=("n",), intent="in")
    f.param("q", T_INT, dims=("n",), intent="inout")
    f.param("r", T_INT, dims=("n",), intent="inout")
    s = f.step("divmod")
    s.foreach(i=(1, "n"))
    s.formula(ref("q", I("i")), ref("a", I("i")) / ref("b", I("i")))
    s = f.step("modstep")
    s.foreach(i=(1, "n"))
    s.formula(ref("r", I("i")), ref("a", I("i")) % ref("b", I("i")))
    return b.build()


class TestFortranSemantics:
    def test_integer_division_and_mod_match_interpreter(self):
        p = _semantics_program()
        a = np.array([7, -7, 7, -7, 9], dtype=np.int64)
        b = np.array([2, 2, -2, -2, 4], dtype=np.int64)
        outs = {}
        for mode in ("interpreter", "vectorized"):
            q = np.zeros(5, dtype=np.int64)
            r = np.zeros(5, dtype=np.int64)
            get_executor(mode).run(p, "f", [5, a, b, q, r], sizes={"n": 5})
            outs[mode] = (q.copy(), r.copy())
        # FORTRAN: / truncates toward zero, MOD takes the dividend's sign.
        assert np.array_equal(outs["vectorized"][0], [3, -3, -3, 3, 2])
        assert np.array_equal(outs["vectorized"][1], [1, -1, 1, -1, 1])
        assert np.array_equal(outs["interpreter"][0], outs["vectorized"][0])
        assert np.array_equal(outs["interpreter"][1], outs["vectorized"][1])

    def test_division_by_zero_demotes_to_reference_semantics(self):
        # The array path refuses to guess at a zero divisor: it raises
        # internally, the step is rolled back and demoted, and the
        # interpreter's reference semantics are what the caller sees: the
        # same typed error, after the same cells were written.
        from repro.glafexec import ExecutionContext, Interpreter
        from repro.glafexec.vectorize import VectorizedInterpreter

        p = _semantics_program()
        a = np.ones(3, dtype=np.int64)
        b = np.array([1, 0, 1], dtype=np.int64)
        written = []
        for cls in (VectorizedInterpreter, Interpreter):
            q = np.zeros(3, dtype=np.int64)
            r = np.zeros(3, dtype=np.int64)
            interp = cls(p, ExecutionContext(p, sizes={"n": 3}))
            with pytest.raises(ExecutionError,
                               match="^integer division by zero$"):
                interp.call("f", [3, a, b, q, r])
            written.append(q)
            if cls is VectorizedInterpreter:
                assert any("zero" in f.reason for f in interp.fallbacks)
        assert np.array_equal(written[0], [1, 0, 0])
        assert np.array_equal(written[0], written[1])

    def test_sentinel_trip_raises_through_lifted_step(self):
        from repro.numeric import sentinels

        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)

        p = _build(body)
        x = np.ones(4)
        x[2] = np.nan
        with sentinels():
            with pytest.raises(NumericIntegrityError) as exc:
                get_executor("vectorized").run(p, "f", [4, x, np.zeros(4)],
                                               sizes={"n": 4})
        assert exc.value.kind == "nan"

    def test_iteration_budget_enforced(self):
        from repro.robust import ResourceLimits

        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)

        p = _build(body)
        ex = get_executor("vectorized", limits=ResourceLimits(
            max_loop_iterations=3))
        with pytest.raises(ResourceLimitError):
            ex.run(p, "f", [10, np.ones(10), np.zeros(10)], sizes={"n": 10})


class TestFallback:
    def _loop_carried_program(self):
        def body(f):
            s = f.step("carry")
            s.foreach(i=(2, "n"))
            s.formula(ref("y", I("i")),
                      ref("y", I("i") - 1) + ref("x", I("i")))
        return _build(body)

    def test_fallback_matches_interpreter_and_is_recorded(self):
        from repro import observe

        p = self._loop_carried_program()
        x = np.arange(1.0, 6.0)
        y_ref = np.zeros(5)
        Interpreter(p, ExecutionContext(p, sizes={"n": 5}))  # smoke ctor
        get_executor("interpreter").run(p, "f", [5, x, y_ref],
                                        sizes={"n": 5})
        y_vec = np.zeros(5)
        with observe.observed() as obs:
            run = get_executor("vectorized").run(p, "f", [5, x, y_vec],
                                                 sizes={"n": 5})
        assert np.array_equal(y_vec, y_ref)
        assert len(run.fallbacks) == 1
        assert run.fallbacks[0].step_name == "carry"
        assert "loop-carried" in run.fallbacks[0].reason
        decisions = obs.decisions.for_stage("executor:fallback")
        assert len(decisions) == 1
        assert decisions[0].verdict == "interpreter"
        assert obs.metrics.counter("exec.vectorized.fallbacks").value == 1

    def test_demotion_is_sticky(self):
        p = self._loop_carried_program()
        ctx = ExecutionContext(p, sizes={"n": 4})
        interp = VectorizedInterpreter(p, ctx)
        interp.call("f", [4, np.ones(4), np.zeros(4)])
        interp.call("f", [4, np.ones(4), np.zeros(4)])
        # Demoted once, then served from the sticky set: one event per
        # demotion *event*, not per execution.
        assert len(interp.fallbacks) == 1

    def test_faults_active_disables_lifting(self):
        from repro import observe
        from repro.robust import FaultPlan, fault_injection

        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)

        p = _build(body)
        y = np.zeros(3)
        with observe.observed() as obs:
            with fault_injection(FaultPlan([], seed=0)):
                get_executor("vectorized").run(p, "f", [3, np.ones(3), y],
                                               sizes={"n": 3})
        assert np.array_equal(y, [2.0, 2.0, 2.0])
        # No step went through the array path while injection was armed.
        assert obs.metrics.counter("exec.vectorized.steps").value == 0


class TestGuardedExecutor:
    def _program(self):
        # The guard compares the *global* state of the two contexts, so
        # the kernel must write a module-scope grid, not just a param.
        b = GlafBuilder("g")
        b.global_grid("out", T_REAL8, dims=("n",), module_scope=True)
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("x", T_REAL8, dims=("n",), intent="in")
        s = f.step("pw")
        s.foreach(i=(1, "n"))
        s.formula(ref("out", I("i")), ref("x", I("i")) * 2.0)
        return b.build()

    def test_agreement_keeps_interpreter_result(self):
        p = self._program()
        run = get_executor("guarded").run(p, "f", [4, np.ones(4)],
                                          sizes={"n": 4})
        assert run.guard is not None
        assert not run.guard.fell_back
        assert np.array_equal(run.context.get("out"),
                              [2.0, 2.0, 2.0, 2.0])

    def test_forced_divergence_falls_back_and_logs(self):
        from repro import observe

        p = self._program()
        ctx = ExecutionContext(p, sizes={"n": 4})
        with observe.observed() as obs:
            res = guarded_vectorized_run(
                p, "f", [4, np.ones(4)], context=ctx,
                tolerance=-1.0)     # nothing can agree at tolerance < 0
        assert res.fell_back
        assert res.context is ctx                       # interpreter's
        assert np.array_equal(ctx.get("out"), [2.0, 2.0, 2.0, 2.0])
        guard = obs.decisions.for_stage("guard")
        assert any(d.step_name == "vectorized-executor" and
                   d.verdict == "serial-fallback" for d in guard)
