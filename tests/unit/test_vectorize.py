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
    get_executor,
    guarded_vectorized_run,
    liftability_report,
)
from repro.numeric import SentinelConfig
from repro.robust import FaultPlan
from repro.runconfig import RunConfig, configured, current


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
            with configured(executor="turbo"):
                pass

    def test_configured_executor_and_restore(self):
        # The initial executor depends on REPRO_EXECUTOR (the CI vectorized
        # leg sets it), so assert the transitions, not the starting point.
        initial = current().executor
        assert initial in EXECUTOR_NAMES
        target = "vectorized" if initial != "vectorized" else "interpreter"
        with configured(executor=target) as config:
            assert current() is config and config.executor == target
            with configured(executor="guarded"):
                assert current().executor == "guarded"
            assert current().executor == target
        assert current().executor == initial

    def test_env_var_sets_initial_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "vectorized")
        assert RunConfig.from_env().executor == "vectorized"
        monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
        with pytest.raises(ExecutionError,
                           match=r"'bogus'.*'interpreter', 'vectorized'"):
            RunConfig.from_env()
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert RunConfig.from_env() == RunConfig()

    def test_misspelled_env_fails_on_every_use(self, monkeypatch):
        import repro.runconfig as rc

        monkeypatch.setenv("REPRO_EXECUTOR", "vectorised")
        monkeypatch.setattr(rc, "_env_applied", False)
        for _ in range(2):
            with pytest.raises(ExecutionError, match="'vectorised'"):
                get_executor()

    def test_get_executor_defaults_to_mode(self):
        from repro.glafexec.executor import VectorizedExecutor

        with configured(executor="vectorized"):
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
        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)

        p = _build(body)
        x = np.ones(4)
        x[2] = np.nan
        with configured(sentinels=SentinelConfig()):
            with pytest.raises(NumericIntegrityError) as exc:
                get_executor("vectorized").run(p, "f", [4, x, np.zeros(4)],
                                               sizes={"n": 4})
        assert exc.value.kind == "nan"

    # A lifted write trips at the grid cell of its first offending value
    # in loop order, with the interpreter's message: (x dims, z dims, the
    # step, NaN positions in x, the cell the interpreter reports).
    SENTINEL_CASES = {
        "offset-range": (
            ("n",), ("n",),
            lambda s: (s.foreach(i=(3, "n")),
                       s.formula(ref("z", I("i")), ref("x", I("i")) * 2.0)),
            [(5,)], (5,)),
        "constant-column": (
            ("n",), ("n", "n"),
            lambda s: (s.foreach(i=(1, "n")),
                       s.formula(ref("z", I("i"), 2), ref("x", I("i")) * 2.0)),
            [(3,)], (3, 2)),
        "transposed-write": (
            ("n", "n"), ("n", "n"),
            lambda s: (s.foreach(i=(1, "n"), j=(1, "n")),
                       s.formula(ref("z", I("j"), I("i")),
                                 ref("x", I("i"), I("j")) * 2.0)),
            [(2, 4), (3, 1)], (4, 2)),
    }

    @pytest.mark.parametrize("case", sorted(SENTINEL_CASES))
    def test_sentinel_trip_reports_the_interpreters_cell(self, case):
        x_dims, z_dims, build, nans, want = self.SENTINEL_CASES[case]
        b = GlafBuilder("c")
        f = b.module("M").function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("x", T_REAL8, dims=x_dims, intent="in")
        f.param("z", T_REAL8, dims=z_dims, intent="inout")
        build(f.step("s"))
        p = b.build()
        got = {}
        for cls in (Interpreter, VectorizedInterpreter):
            x = np.ones((5,) * len(x_dims))
            for cell in nans:
                x[tuple(k - 1 for k in cell)] = np.nan
            interp = cls(p, ExecutionContext(p, sizes={"n": 5}))
            with configured(sentinels=SentinelConfig()):
                with pytest.raises(NumericIntegrityError) as exc:
                    interp.call("f", [5, x, np.zeros((5,) * len(z_dims))])
            got[cls] = (exc.value.cell, str(exc.value))
            if cls is VectorizedInterpreter:
                assert interp.fallbacks == []       # the step did lift
        assert got[Interpreter][0] == want
        assert got[VectorizedInterpreter] == got[Interpreter]

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

        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)

        p = _build(body)
        y = np.zeros(3)
        with observe.observed() as obs:
            with configured(faults=FaultPlan([], seed=0)):
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

    def test_array_arguments_are_compared(self, monkeypatch):
        # The inout argument y is this kernel's only result: the guard must
        # check it like a global grid.
        from repro.glafexec import vectorize

        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)

        p = _build(body)
        assert not guarded_vectorized_run(
            p, "f", [4, np.ones(4), np.zeros(4)], sizes={"n": 4}).fell_back
        real_call = vectorize.VectorizedInterpreter.call

        def off_by_one(self, entry, args):
            out = real_call(self, entry, args)
            args[2][0] += 1.0               # the probe's copy of y diverges
            return out

        monkeypatch.setattr(vectorize.VectorizedInterpreter, "call",
                            off_by_one)
        y = np.zeros(4)
        res = guarded_vectorized_run(p, "f", [4, np.ones(4), y],
                                     sizes={"n": 4})
        assert res.fell_back and res.max_error == 1.0
        assert res.reason.startswith("vectorized divergence on grid 'y'")
        assert np.array_equal(y, [2.0, 2.0, 2.0, 2.0])   # interpreter's
