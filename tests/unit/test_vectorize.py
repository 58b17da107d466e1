"""Unit tests for the vectorized array executor and the Executor registry.

The integration-level cross-executor equivalence suite lives in
``tests/integration/test_executor_equivalence.py``; this file covers the
lift-legality analysis (``compile_step``), the executor selection
machinery, FORTRAN scalar semantics surviving the lift, and fallback
bookkeeping.
"""

import numpy as np
import pytest

from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, lib, ref
from repro.core.builder import StepBuilder as SB
from repro.core.expr import FuncCall
from repro.core.step import CallStmt
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
    LiftedSweep,
    VectorizedInterpreter,
    compile_step,
    get_executor,
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
        assert isinstance(lifted, LiftedSweep)
        assert [a.kind for a in lifted.nests[0].assigns] == ["pointwise"]

    def test_sum_reduction_lifts(self):
        def body(f):
            s = f.step("red")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", 1), ref("y", 1) + ref("x", I("i")))

        lifted = compile_step(_step(_build(body), "f"))
        assert isinstance(lifted, LiftedSweep)
        assert [a.kind for a in lifted.nests[0].assigns] == ["reduce"]
        assert lifted.nests[0].assigns[0].op == "+"

    def test_minmax_reduction_lifts(self):
        def body(f):
            s = f.step("mx")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", 1), lib("MAX", ref("y", 1), ref("x", I("i"))))

        lifted = compile_step(_step(_build(body), "f"))
        assert isinstance(lifted, LiftedSweep)
        assert lifted.nests[0].assigns[0].op == "max"

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
        assert isinstance(lifted, LiftedSweep)
        assert [a.op for a in lifted.nests[0].assigns] == ["+", "+"]

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

    def test_every_lift_is_a_sweep_with_one_program_interface(self):
        # Every loop step of SARB, FUN3D and the fuzz draws of seeds 1-40
        # (both profiles) compiles to a sweep or a failure, and each
        # compiled program serves one interface: the nest's own program
        # when the sweep is one plain nest, else the sweep runner.
        from repro.fun3d import build_fun3d_program
        from repro.fuzz.generate import build_program, generate_spec
        from repro.glafexec.vectorize import (
            LiftProgram,
            SweepProgram,
            compiled_plan,
        )
        from repro.sarb import build_sarb_program

        programs = [build_sarb_program(), build_fun3d_program()] + [
            build_program(generate_spec(seed, profile))
            for profile in ("small", "full") for seed in range(1, 41)]
        shapes = set()
        for k, p in enumerate(programs):
            for fn in p.functions():
                for step in fn.steps:
                    if not step.is_loop:
                        continue
                    for save in (False, True):
                        plan = compile_step(step, p, fn,
                                            save_inner_arrays=save)
                        assert type(plan) in (LiftedSweep, LiftFailure)
                    plan = compiled_plan(step, p, fn)
                    if isinstance(plan, LiftFailure):
                        continue
                    sweep, program = plan
                    assert type(sweep) is LiftedSweep
                    assert len(sweep.nests) == len(sweep.split.nests) >= 1
                    plain = (len(sweep.nests) == 1 and not sweep.split.scratch
                             and not sweep.split.notes)
                    assert type(program) is (LiftProgram if plain
                                             else SweepProgram)
                    assert tuple(program.dims) == program.names
                    assert set(program.written) <= set(program.names)
                    assert callable(program.bounds) and callable(program.run)
                    shapes.add((k == 0, plain))
        # SARB lifts only plain nests; FUN3D's cell sweep is a sweep.
        assert (True, True) in shapes and (True, False) not in shapes
        assert (False, False) in shapes

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

    def test_sentinel_trip_raises_on_the_scalar_path(self):
        from repro import observe

        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)

        p = _build(body)
        x = np.ones(4)
        x[2] = np.nan
        with observe.observed() as obs, configured(sentinels=SentinelConfig()):
            with pytest.raises(NumericIntegrityError) as exc:
                get_executor("vectorized").run(p, "f", [4, x, np.zeros(4)],
                                               sizes={"n": 4})
        assert exc.value.kind == "nan"
        assert obs.metrics.counter("exec.vectorized.steps").value == 0

    # A liftable write trips at the grid cell of its first offending value
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
        from repro import observe

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
            with observe.observed() as obs, \
                    configured(sentinels=SentinelConfig()), \
                    pytest.raises(NumericIntegrityError) as exc:
                interp.call("f", [5, x, np.zeros((5,) * len(z_dims))])
            got[cls] = (exc.value.cell, str(exc.value))
            if cls is VectorizedInterpreter:
                # Under the sentinels the step runs on the scalar path
                # from the start: nothing lifts and nothing falls back.
                assert interp.fallbacks == []
                assert obs.metrics.counter(
                    "exec.vectorized.steps").value == 0
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


# ----------------------------------------------------------------------
# masked lanes: a masked value is evaluated on the active lanes only
# ----------------------------------------------------------------------
def _masked_program(build, extra=()):
    b = GlafBuilder("mk")
    f = b.module("M").function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("x", T_REAL8, dims=("n",), intent="in")
    f.param("y", T_REAL8, dims=("n",), intent="inout")
    for name, ty in extra:
        f.param(name, ty, dims=("n",), intent="in")
    s = f.step("s")
    s.foreach(i=(1, "n"))
    build(s)
    return b.build()


MASKED_X = np.array([2.0, 0.0, -1.5, 0.5, 0.0, 3.0])
MASKED_IDX = np.array([3, 0, 1, 0, 6, 2])
i_ = I("i")
MASKED_CASES = {
    # The interpreter never reads x(0).
    "guarded-gather": (
        lambda s: s.if_(ref("idx", i_).ge(1),
                        [SB.assign(ref("y", i_), ref("x", ref("idx", i_)))]),
        [("idx", T_INT)]),
    # .AND. evaluates its right operand only where the left one holds.
    "short-circuit-and": (
        lambda s: s.if_(ref("idx", i_).ge(1).and_(
            ref("x", ref("idx", i_)).gt(0.0)),
            [SB.assign(ref("y", i_), 1.0)]),
        [("idx", T_INT)]),
    # No divide-by-zero condition on the masked-out lanes.
    "guarded-reciprocal": (
        lambda s: s.if_(ref("x", i_).ne(0.0),
                        [SB.assign(ref("y", i_), 1.0 / ref("x", i_))]),
        []),
    # No log-of-zero or log-of-negative condition either.
    "guarded-log": (
        lambda s: s.if_(ref("x", i_).gt(0.0),
                        [SB.assign(ref("y", i_),
                                   lib("LOG", ref("x", i_)) / ref("x", i_))]),
        []),
    # A masked reduction's term, likewise.
    "guarded-sum": (
        lambda s: s.if_(ref("x", i_).gt(0.0),
                        [SB.assign(ref("y", 1), ref("y", 1)
                                   + lib("LOG", ref("x", i_)))]),
        []),
}


class TestMaskedLanes:
    @pytest.mark.parametrize("case", sorted(MASKED_CASES))
    def test_lifts_without_fallback_or_warning(self, case):
        import warnings

        build, extra = MASKED_CASES[case]
        p = _masked_program(build, extra)
        got = {}
        for cls in (Interpreter, VectorizedInterpreter):
            args = [6, MASKED_X.copy(), np.zeros(6)]
            if extra:
                args.append(MASKED_IDX.copy())
            interp = cls(p, ExecutionContext(p, sizes={"n": 6}))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                interp.call("f", args)
            got[cls] = args[2]
            if cls is VectorizedInterpreter:
                assert interp.fallbacks == []
        assert got[VectorizedInterpreter].tobytes() == \
            got[Interpreter].tobytes()


# ----------------------------------------------------------------------
# lifting a step whose body calls leaf subprograms
# ----------------------------------------------------------------------
def _run_pair(p, entry, make_args, sizes, **kw):
    """Both executors on fresh arguments: per executor the interpreter
    object, the arguments and the context."""
    out = {}
    for cls in (Interpreter, VectorizedInterpreter):
        args = make_args()
        ctx = ExecutionContext(p, sizes=sizes)
        interp = cls(p, ctx, **kw)
        interp.call(entry, args)
        out[cls] = (interp, args, ctx)
    return out


def _assert_same(out, names):
    (ri, ra, rc), (vi, va, vc) = out[Interpreter], out[VectorizedInterpreter]
    for a, b in zip(ra, va):
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes()
    for name in names:
        assert rc.get(name).tobytes() == vc.get(name).tobytes(), name
    assert vi.stats.calls == ri.stats.calls
    assert vi.stats.loop_iterations == ri.stats.loop_iterations
    assert vi.stats.allocations == ri.stats.allocations


def _sweep_program(put_first_reads=False):
    """``f`` calls ``put(i)`` where ``xs(i) > 0``; ``put`` writes the
    module grid ``g`` in full, then ``out(i)`` from it."""
    b = GlafBuilder("sw")
    b.global_grid("xs", T_REAL8, dims=("n",), module_scope=True)
    b.global_grid("g", T_REAL8, dims=(2,), module_scope=True)
    b.global_grid("out", T_REAL8, dims=("n",), module_scope=True)
    m = b.module("M")
    put = m.function("put", return_type=T_VOID)
    put.param("i", T_INT, intent="in")
    if put_first_reads:
        s = put.step("use_old")
        s.formula(ref("out", ref("i")), ref("g", 2))
    s = put.step("fill")
    s.foreach(k=(1, 2))
    s.formula(ref("g", I("k")), ref("xs", ref("i")) * I("k"))
    s = put.step("use")
    s.formula(ref("out", ref("i")), ref("out", ref("i"))
              + ref("g", 1) + ref("g", 2))
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    s = f.step("sweep")
    s.foreach(i=(1, "n"))
    s.if_(ref("xs", I("i")).gt(0.0), [CallStmt("put", (I("i"),))])
    return b.build()


class TestSweep:
    def test_fun3d_steps_lift(self):
        from repro.fun3d import build_fun3d_program

        rep = liftability_report(build_fun3d_program())
        assert rep[("edgejp", 2)] == ""
        assert rep[("edge_loop", 6)] == ""
        assert rep[("edge_loop", 7)] == ""
        refused = {k for k, v in rep.items() if v}
        # Searches lift where they are called, not as steps of their own.
        assert refused == {("angle_check", 0), ("ioff_search", 0)}

    def test_fun3d_inline_decision(self):
        from repro import observe
        from repro.fun3d import make_mesh
        from repro.fun3d import validation as f3v

        with observe.observed() as obs:
            f3v.run_ir_interpreter(make_mesh(27, 3), guarded=False,
                                   executor="vectorized")
        assert obs.decisions.for_stage("executor:fallback") == []
        inline = obs.decisions.for_stage("executor:inline")
        assert [(d.function, d.step_index) for d in inline] == [
            ("edgejp", 2)]
        callees, expanded = inline[0].reasons
        assert callees == ("callees: cell_loop, angle_check, edge_loop, "
                           "ioff_search")
        for grid in ("grad", "cell_loop.qa", "edge_loop.tmp06",
                     "edge_loop.n1v"):
            assert grid in expanded

    def _set(self, ctx, xs):
        ctx.get("xs")[...] = xs
        ctx.get("g")[...] = [7.0, 9.0]

    def _pair(self, p, xs):
        out = {}
        for cls in (Interpreter, VectorizedInterpreter):
            ctx = ExecutionContext(p, sizes={"n": len(xs)})
            self._set(ctx, xs)
            interp = cls(p, ctx)
            interp.call("f", [len(xs)])
            out[cls] = (interp, [], ctx)
        return out

    def test_conditional_call_keeps_last_active_iteration(self):
        p = _sweep_program()
        xs = np.array([1.5, -2.0, 0.25, 3.0, -1.0])
        out = self._pair(p, xs)
        _assert_same(out, ("g", "out", "xs"))
        vec, _, ctx = out[VectorizedInterpreter]
        assert vec.fallbacks == []
        # The last cell with xs > 0 is 4: g = (3, 6), not cell 5's.
        assert ctx.get("g").tolist() == [3.0, 6.0]
        assert vec.stats.calls["put"] == 3

    def test_no_active_iteration_leaves_module_grid(self):
        p = _sweep_program()
        out = self._pair(p, np.array([-1.0, -2.0, 0.0]))
        _assert_same(out, ("g", "out"))
        vec, _, ctx = out[VectorizedInterpreter]
        assert vec.fallbacks == [] and "put" not in vec.stats.calls
        assert ctx.get("g").tolist() == [7.0, 9.0]

    def test_module_state_carried_between_iterations_is_refused(self):
        p = _sweep_program(put_first_reads=True)
        out = self._pair(p, np.array([1.5, -2.0, 0.25, 3.0, -1.0]))
        _assert_same(out, ("g", "out"))
        vec = out[VectorizedInterpreter][0]
        assert [e.step_name for e in vec.fallbacks] == ["sweep"]
        assert "carries state between iterations" in vec.fallbacks[0].reason

    def test_call_nested_under_an_outer_activity(self):
        # leaf's note leads over (i, j); the activity of IF (xs(i) > 0)
        # leads over (i) alone and holds for every j.
        b = GlafBuilder("na")
        b.global_grid("xs", T_REAL8, dims=("n",), module_scope=True)
        b.global_grid("out", T_REAL8, dims=("n", 3), module_scope=True)
        m = b.module("M")
        leaf = m.function("leaf", return_type=T_VOID)
        leaf.param("i", T_INT, intent="in")
        leaf.param("j", T_INT, intent="in")
        leaf.step("put").formula(ref("out", ref("i"), ref("j")),
                                 ref("xs", ref("i")) * ref("j"))
        outer = m.function("outer", return_type=T_VOID)
        outer.param("i", T_INT, intent="in")
        outer.step("each").foreach(j=(1, 3)).call("leaf", [ref("i"), I("j")])
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        s = f.step("sweep")
        s.foreach(i=(1, "n"))
        s.if_(ref("xs", I("i")).gt(0.0), [CallStmt("outer", (I("i"),))])
        p, out = b.build(), {}
        for cls in (Interpreter, VectorizedInterpreter):
            ctx = ExecutionContext(p, sizes={"n": 5})
            ctx.get("xs")[...] = [1.5, -2.0, 0.25, 3.0, -1.0]
            interp = cls(p, ctx)
            interp.call("f", [5])
            out[cls] = (interp, [], ctx)
        _assert_same(out, ("out",))
        vec, _, ctx = out[VectorizedInterpreter]
        assert vec.fallbacks == []
        assert vec.stats.calls["leaf"] == 9
        assert ctx.get("out")[:, 2].tolist() == [4.5, 0.0, 0.75, 9.0, 0.0]

    @pytest.mark.parametrize("reps", [3, 0])
    def test_local_keeps_the_last_lane_of_a_callee_nest(self, reps):
        # g's local u is 1 until leaf, called where xs(i) > 0, writes it
        # on each k (by reference): u keeps the last k's value on those
        # lanes, and 1 elsewhere or when the k loop has zero trips.
        b = GlafBuilder("kl")
        b.global_grid("xs", T_REAL8, dims=("n",), module_scope=True)
        b.global_grid("out", T_REAL8, dims=("n",), module_scope=True)
        m = b.module("M")
        leaf = m.function("leaf", return_type=T_VOID)
        leaf.param("i", T_INT, intent="in")
        leaf.param("v", T_REAL8)
        s = leaf.step("each")
        s.foreach(k=(1, reps))
        s.formula(ref("v"), ref("xs", ref("i")) * I("k"))
        g = m.function("g", return_type=T_VOID)
        g.param("i", T_INT, intent="in")
        g.local("u", T_REAL8)
        g.step("init").formula(ref("u"), 1.0)
        g.step("maybe").if_(ref("xs", ref("i")).gt(0.0),
                            [CallStmt("leaf", (ref("i"), ref("u")))])
        g.step("use").formula(ref("out", ref("i")), ref("u"))
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.step("sweep").foreach(i=(1, "n")).call("g", [I("i")])
        p, out = b.build(), {}
        for cls in (Interpreter, VectorizedInterpreter):
            ctx = ExecutionContext(p, sizes={"n": 5})
            ctx.get("xs")[...] = [1.5, -2.0, 0.25, 3.0, -1.0]
            interp = cls(p, ctx)
            interp.call("f", [5])
            out[cls] = (interp, [], ctx)
        _assert_same(out, ("out",))
        vec, _, ctx = out[VectorizedInterpreter]
        assert vec.fallbacks == []
        assert ctx.get("out").tolist() == (
            [4.5, 1.0, 0.75, 9.0, 1.0] if reps else [1.0] * 5)

    def _search_program(self, lo, hi):
        b = GlafBuilder("se")
        b.global_grid("keys", T_INT, dims=("n",), module_scope=True)
        b.global_grid("want", T_INT, dims=("n",), module_scope=True)
        b.global_grid("at", T_INT, dims=("n",), module_scope=True)
        m = b.module("M")
        g = m.function("find", return_type=T_INT)
        g.param("lo", T_INT, intent="in")
        g.param("hi", T_INT, intent="in")
        g.param("v", T_INT, intent="in")
        s = g.step("scan")
        s.foreach(p=(ref("lo"), ref("hi")))
        s.if_(ref("keys", I("p")).eq(ref("v")), [SB.ret(I("p") * 10)])
        g.returns(-1)
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        s = f.step("lookup")
        s.foreach(i=(1, "n"))
        s.formula(ref("at", I("i")), FuncCall("find", (lo, hi,
                                                       ref("want", I("i")))))
        return b.build()

    def _search_pair(self, p, keys, want):
        out, errors = {}, {}
        for cls in (Interpreter, VectorizedInterpreter):
            ctx = ExecutionContext(p, sizes={"n": len(keys)})
            ctx.get("keys")[...] = keys
            ctx.get("want")[...] = want
            interp = cls(p, ctx)
            try:
                interp.call("f", [len(keys)])
                errors[cls] = None
            except ExecutionError as e:
                errors[cls] = str(e)
            out[cls] = (interp, [], ctx)
        return out, errors

    def test_search_that_finds_nothing_returns_its_default(self):
        p = self._search_program(1, ref("n"))
        keys = np.array([4, 2, 2, 9, 4, 1])
        want = np.array([2, 7, 4, 1, 3, 9])
        out, errors = self._search_pair(p, keys, want)
        assert errors == {Interpreter: None, VectorizedInterpreter: None}
        _assert_same(out, ("at",))
        vec, _, ctx = out[VectorizedInterpreter]
        assert vec.fallbacks == []
        assert ctx.get("at").tolist() == [20, -1, 10, 60, -1, 40]
        # Each lane scans up to its match: 2+6+1+6+6+4 positions.
        assert vec.stats.loop_iterations[("find", 0)] == 25
        assert vec.stats.calls["find"] == 6

    def test_search_lane_out_of_bounds_rolls_back_with_canonical_error(self):
        # Lane 3 looks past the end of keys before any match; lane 1
        # matches first, lane 2 ends inside the grid.
        p = self._search_program(I("i"), I("i") + 3)
        keys = np.array([5, 5, 8, 8])
        want = np.array([5, 1, 1, 8])
        out, errors = self._search_pair(p, keys, want)
        assert errors[VectorizedInterpreter] == errors[Interpreter]
        assert "out of bounds" in errors[Interpreter]
        _assert_same(out, ("at",))
        # The scalar path then runs find's own loop step, which does not
        # lift on its own.
        vec = out[VectorizedInterpreter][0]
        assert [(e.step_name, e.reason.split(":")[0])
                for e in vec.fallbacks] == [
            ("lookup", "runtime lift failure"),
            ("scan", "early return inside the loop body")]

    def test_duplicate_index_updates_fold_in_loop_order(self):
        b = GlafBuilder("sc")
        f = b.module("M").function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("x", T_REAL8, dims=("n",), intent="in")
        f.param("y", T_REAL8, dims=(3,), intent="inout")
        f.param("idx", T_INT, dims=("n",), intent="in")
        s = f.step("scatter")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", ref("idx", I("i"))),
                  ref("y", ref("idx", I("i"))) + ref("x", I("i")))
        s.if_(ref("x", I("i")).gt(0.0),
              [SB.assign(ref("y", ref("idx", I("i"))),
                         ref("y", ref("idx", I("i"))) - ref("x", I("i"))
                         * 0.3)])
        p = b.build()
        lifted = compile_step(_step(p, "f"))
        assert [a.kind for a in lifted.nests[0].assigns] == ["scatter",
                                                            "scatter"]
        rng = np.random.default_rng(11)
        n = 64
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
        idx = rng.integers(1, 4, n)
        out = _run_pair(p, "f", lambda: [n, x.copy(), np.full(3, 0.1),
                                         idx.copy()], {"n": n})
        _assert_same(out, ())
        assert out[VectorizedInterpreter][0].fallbacks == []

    def test_plain_indirect_store_is_refused(self):
        b = GlafBuilder("st")
        f = b.module("M").function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("y", T_REAL8, dims=("n",), intent="inout")
        f.param("idx", T_INT, dims=("n",), intent="in")
        s = f.step("store")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", ref("idx", I("i"))), ref("y", ref("idx", I("i")))
                  * 2.0)
        failure = compile_step(_step(b.build(), "f"))
        assert "indirect or non-identity write index" in failure.reason

    def test_budget_trip_mid_sweep_leaves_no_torn_writes(self):
        from repro.fun3d import (build_fun3d_program, context_values,
                                 make_mesh, mesh_sizes)
        from repro.robust import ResourceLimits

        mesh = make_mesh(27, 3)
        p = build_fun3d_program()
        # Enough for init_jac and the sweep's own ticks, not its callees.
        cap = mesh.nnz * 5 + mesh.ncell + 100
        ctx = ExecutionContext(p, sizes=mesh_sizes(mesh),
                               values=context_values(mesh))
        vec = VectorizedInterpreter(
            p, ctx, limits=ResourceLimits(max_loop_iterations=cap))
        ctx.get("jac")[...] = 5.0
        with pytest.raises(ResourceLimitError):
            vec.call("edgejp", [mesh.ncell, mesh.nnz])
        assert not ctx.get("jac").any()         # init_jac's zeros, intact
        assert not ctx.get("grad").any()
        assert [e.reason for e in vec.fallbacks] == [
            "resource budget exhausted mid-lift"]

    def _fun3d_trip(self, cls, configure):
        from repro.fun3d import (build_fun3d_program, context_values,
                                 make_mesh, mesh_sizes)

        mesh = make_mesh(27, 3)
        values = context_values(mesh)
        values["q"] = values["q"].copy()
        values["q"][mesh.cell_nodes[4, 2] - 1, 3] = np.nan
        p = build_fun3d_program()
        ctx = ExecutionContext(p, sizes=mesh_sizes(mesh), values=values)
        interp = cls(p, ctx)
        with configure:
            with pytest.raises(ExecutionError) as exc:
                interp.call("edgejp", [mesh.ncell, mesh.nnz])
        return exc.value, interp, ctx

    def test_sentinel_trip_inside_a_callee_reports_as_scalar_path(self):
        got = {}
        for cls in (Interpreter, VectorizedInterpreter):
            err, interp, ctx = self._fun3d_trip(
                cls, configured(sentinels=SentinelConfig()))
            assert isinstance(err, NumericIntegrityError)
            got[cls] = (str(err), err.function, err.step_index, err.cell,
                        ctx.get("jac").tobytes(), ctx.get("grad").tobytes(),
                        interp.stats.calls)
        assert got[VectorizedInterpreter] == got[Interpreter]
        assert got[Interpreter][1:3] == ("cell_loop", 2)

    def test_fault_inside_a_callee_hits_as_on_scalar_path(self):
        from repro.robust import FaultSpec

        got = {}
        for cls in (Interpreter, VectorizedInterpreter):
            plan = FaultPlan([FaultSpec(
                "exec.interp.step", "raise", at=40,
                match={"function": "edge_loop"})], seed=0)
            err, interp, ctx = self._fun3d_trip(cls, configured(faults=plan))
            got[cls] = (str(err), [e.detail for e in plan.fired],
                        ctx.get("jac").tobytes(), interp.stats.calls)
        assert got[VectorizedInterpreter] == got[Interpreter]
        assert "edge_loop" in got[Interpreter][0]

    def test_by_value_argument_the_callee_changes_is_refused(self):
        # v binds x * 2 at the call; the callee then overwrites x, so the
        # substituted expression would read the new x.
        b = GlafBuilder("bv")
        b.global_grid("x", T_REAL8, module_scope=True, init_data=5.0)
        b.global_grid("y", T_REAL8, dims=(4,), module_scope=True)
        m = b.module("M")
        g = m.function("g", return_type=T_VOID)
        g.param("v", T_REAL8, intent="in")
        g.param("i", T_INT, intent="in")
        s = g.step("s")
        s.formula(ref("x"), ref("i") * 1.0)
        s.formula(ref("y", ref("i")), ref("v"))
        f = m.function("f", return_type=T_VOID)
        f.step("sweep").foreach(i=(1, 4)).call("g", [ref("x") * 2.0, I("i")])
        p = b.build()
        out = {}
        for cls in (Interpreter, VectorizedInterpreter):
            ctx = ExecutionContext(p)
            interp = cls(p, ctx)
            interp.call("f", [])
            out[cls] = (ctx.get("y").tolist(), float(ctx.get("x")))
        assert out[VectorizedInterpreter] == out[Interpreter] == (
            [10.0, 2.0, 4.0, 6.0], 4.0)
        assert "which a by-value argument reads" in interp.fallbacks[0].reason

    def test_refused_callee_forms(self):
        def program(callee_build, call_args):
            b = GlafBuilder("rf")
            b.global_grid("out", T_REAL8, dims=("n",), module_scope=True)
            m = b.module("M")
            g = m.function("g", return_type=T_VOID)
            callee_build(g)
            f = m.function("f", return_type=T_VOID)
            f.param("n", T_INT, intent="in")
            s = f.step("sweep")
            s.foreach(i=(1, "n"))
            s.call("g", call_args)
            return b.build()

        def array_arg(g):
            g.param("n", T_INT, intent="in")
            g.param("v", T_REAL8, dims=("n",), intent="in")

        def out_scalar(g):
            g.param("i", T_INT, intent="out")

        def recursive(g):
            g.param("i", T_INT, intent="in")
            g.step("again").call("g", [ref("i")])

        cases = [(array_arg, [ref("n"), ref("out")], "array argument 'v'"),
                 (out_scalar, [I("i")], "intent(out) scalar argument 'i'"),
                 (recursive, [I("i")], "recursive call to 'g'")]
        for build, args, why in cases:
            p = program(build, args)
            fn = p.find_function("f")
            failure = compile_step(fn.steps[0], p, fn)
            assert isinstance(failure, LiftFailure)
            assert why in failure.reason, failure.reason
