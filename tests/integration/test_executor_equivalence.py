"""Cross-executor equivalence: every path must produce the same answer.

The contract of ``docs/EXECUTORS.md`` is that the executor choice is a
pure speed/assurance knob — never a semantics knob.  This suite pins that
down three ways:

* both case studies (SARB, FUN3D) under ``interpreter`` / ``vectorized`` /
  ``guarded`` agree with the legacy reference implementations;
* every example project's ``main()`` still passes its own internal
  assertions with the vectorized executor serving all interpreter runs;
* synthetic kernels exercising each *unliftable* construct fall back to
  the interpreter with the demotion logged — and still produce the
  interpreter's exact answer — while liftable shapes (strides, masks,
  MIN/MAX and multi-accumulator reductions) match bitwise or within the
  documented tolerance.

Sentinel trips must also be executor-independent: a NaN produced under a
lifted step raises the same :class:`NumericIntegrityError` the scalar
interpreter raises.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import observe
from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, lib, ref
from repro.core.builder import StepBuilder as SB
from repro.errors import ExecutionError, NumericIntegrityError
from repro.fun3d import make_mesh
from repro.fun3d import validation as f3v
from repro.glafexec import get_executor
from repro.numeric import SentinelConfig
from repro.runconfig import configured
from repro.sarb import make_inputs
from repro.sarb import validation as sv
from repro.sarb.validation import SARB_COMPARE_TOLERANCE, compare_outputs

EXECUTORS = ["interpreter", "vectorized", "guarded"]
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


# ----------------------------------------------------------------------
# case studies
# ----------------------------------------------------------------------
class TestSarbEquivalence:
    @pytest.fixture(scope="class")
    def inputs(self):
        return make_inputs()

    @pytest.fixture(scope="class")
    def reference(self, inputs):
        return sv.run_reference(inputs)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_matches_reference(self, inputs, reference, executor):
        got = sv.run_ir_interpreter(inputs, executor=executor)
        cmp = compare_outputs(got, reference)
        assert cmp.ok, cmp.detail

    def test_vectorized_matches_interpreter_and_logs_fallback(self, inputs):
        ref = sv.run_ir_interpreter(inputs, executor="interpreter")
        with observe.observed() as obs:
            got = sv.run_ir_interpreter(inputs, executor="vectorized")
        cmp = compare_outputs(got, ref, tolerance=SARB_COMPARE_TOLERANCE)
        assert cmp.ok, cmp.detail
        # The one loop-carried SARB step (adjust2 / smooth) must be
        # demoted — visibly, through the decision log.
        fb = obs.decisions.for_stage("executor:fallback")
        assert {(d.function, d.step_name) for d in fb} == {
            ("adjust2", "smooth")}
        assert all(d.verdict == "interpreter" for d in fb)

    def test_mode_selection_equals_explicit_executor(self, inputs):
        explicit = sv.run_ir_interpreter(inputs, executor="vectorized")
        with configured(executor="vectorized"):
            via_mode = sv.run_ir_interpreter(inputs)
        for name in explicit:
            assert np.array_equal(explicit[name], via_mode[name])


class TestFun3dEquivalence:
    @pytest.fixture(scope="class")
    def mesh(self):
        return make_mesh(27)

    @pytest.fixture(scope="class")
    def reference(self, mesh):
        return f3v.run_reference(mesh)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_matches_reference(self, mesh, reference, executor):
        jac = f3v.run_ir_interpreter(mesh, executor=executor)
        assert f3v.rms_check(jac, reference)

    def test_vectorized_is_bitwise_equal(self, mesh):
        # Every lifted FUN3D step is pointwise, so the array programs
        # evaluate the same FP operations in the same order per element:
        # the results are bit-identical, not merely close.
        ref = f3v.run_ir_interpreter(mesh, executor="interpreter")
        vec = f3v.run_ir_interpreter(mesh, executor="vectorized")
        assert np.array_equal(ref, vec)

    def test_guarded_no_reallocation_run_keeps_save(self, mesh, monkeypatch):
        # The guarded path takes the executors' keywords: a SAVE'd run
        # allocates the temporaries once, guarded or not, selected as
        # guarded=True or as the guarded executor.
        from repro.glafexec import executor as executor_mod
        from repro.glafexec import guard as guard_mod

        built = {}

        def spy(mod, name, key):
            cls = getattr(mod, name)

            class Spy(cls):
                def __init__(self, *args, **kw):
                    super().__init__(*args, **kw)
                    built[key] = self
            monkeypatch.setattr(mod, name, Spy)

        spy(executor_mod, "Interpreter", "plain")
        spy(guard_mod, "GuardedInterpreter", "guarded")
        plain = f3v.run_ir_interpreter(mesh, save_inner_arrays=True,
                                       executor="interpreter")
        for how in ({"guarded": True}, {"executor": "guarded"}):
            built.pop("guarded", None)
            guarded = f3v.run_ir_interpreter(mesh, save_inner_arrays=True,
                                             **how)
            assert built["guarded"].save_inner_arrays, how
            assert built["guarded"].stats.allocations == \
                built["plain"].stats.allocations
            assert np.array_equal(guarded, plain)


# ----------------------------------------------------------------------
# example projects
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [
    "quickstart",
    "codegen_tour",
    "sarb_integration",
    "fun3d_jacobian",
    "graph_kernel",
])
def test_example_passes_under_vectorized_executor(name, capsys):
    # The examples assert their own numerics internally; running them with
    # the vectorized executor serving every interpreter-mode run proves
    # the executor swap is invisible to them.
    spec = importlib.util.spec_from_file_location(
        name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    with configured(executor="vectorized"):
        mod.main()
    assert len(capsys.readouterr().out) > 200


# ----------------------------------------------------------------------
# synthetic kernels: liftable shapes and every fallback construct
# ----------------------------------------------------------------------
def _run_both(program, entry, make_args, sizes):
    """Run under interpreter and vectorized; return (ref, vec, run)."""
    args_ref = make_args()
    get_executor("interpreter").run(program, entry, args_ref, sizes=sizes)
    args_vec = make_args()
    run = get_executor("vectorized").run(program, entry, args_vec,
                                         sizes=sizes)
    return args_ref, args_vec, run


def _kernel(build_steps, extra_params=()):
    b = GlafBuilder("k")
    m = b.module("M")
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("x", T_REAL8, dims=("n",), intent="in")
    f.param("y", T_REAL8, dims=("n",), intent="inout")
    for name, typ, dims, intent in extra_params:
        f.param(name, typ, dims=dims, intent=intent)
    build_steps(f)
    return b.build()


N = 31


def _x():
    rng = np.random.default_rng(7)
    return rng.standard_normal(N)


def _liftable_cases():
    def strided(f):
        s = f.step("odd")
        s.foreach(i=(1, "n", 2))
        s.formula(ref("y", I("i")), ref("x", I("i")) * 3.0)

    def masked(f):
        s = f.step("clip")
        s.foreach(i=(1, "n"))
        s.if_(ref("x", I("i")).gt(0.0),
              [SB.assign(ref("y", I("i")), ref("x", I("i")))],
              [SB.assign(ref("y", I("i")), 0.0 - ref("x", I("i")))])

    def guard_cond(f):
        s = f.step("cond")
        s.foreach(i=(1, "n"))
        s.condition(ref("x", I("i")).gt(0.5))
        s.formula(ref("y", I("i")), ref("x", I("i")) + 1.0)

    def max_reduce(f):
        s = f.step("mx")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", 1), lib("MAX", ref("y", 1), ref("x", I("i"))))

    def masked_sum(f):
        # Both branches accumulate the same cell with the same op — the
        # SARB thick_thin/cloud_adjust shape, lifted as two masked sums.
        s = f.step("split")
        s.foreach(i=(1, "n"))
        s.if_(ref("x", I("i")).gt(0.0),
              [SB.assign(ref("y", 1), ref("y", 1) + ref("x", I("i")))],
              [SB.assign(ref("y", 1), ref("y", 1) + 1.0)])

    return [
        pytest.param(strided, id="strided-loop"),
        pytest.param(masked, id="if-else-mask"),
        pytest.param(guard_cond, id="step-condition"),
        pytest.param(max_reduce, id="max-reduction"),
        pytest.param(masked_sum, id="masked-same-op-reduction"),
    ]


def _fallback_cases():
    def loop_carried(f):
        s = f.step("carry")
        s.foreach(i=(2, "n"))
        s.formula(ref("y", I("i")),
                  ref("y", I("i") - 1) + ref("x", I("i")))

    def early_exit(f):
        s = f.step("find")
        s.foreach(i=(1, "n"))
        s.if_(ref("x", I("i")).gt(1.0), [SB.exit_stmt()])
        s.formula(ref("y", I("i")), ref("x", I("i")))

    def early_return(f):
        s = f.step("bail")
        s.foreach(i=(1, "n"))
        s.if_(ref("x", I("i")).gt(1.0), [SB.ret()])
        s.formula(ref("y", I("i")), ref("x", I("i")))

    return [
        pytest.param(loop_carried, id="loop-carried"),
        pytest.param(early_exit, id="exit-loop"),
        pytest.param(early_return, id="early-return"),
    ]


class TestSyntheticKernels:
    @pytest.mark.parametrize("build", _liftable_cases())
    def test_liftable_bitwise_equal_no_fallback(self, build):
        p = _kernel(build)
        x = _x()
        (_, _, y_ref), (_, _, y_vec), run = [
            *_run_both(p, "f", lambda: [N, x.copy(), np.zeros(N)],
                       {"n": N})]
        assert np.array_equal(y_ref, y_vec)
        assert run.fallbacks == ()
        assert run.executor == "vectorized"

    @pytest.mark.parametrize("build", _fallback_cases())
    def test_fallback_equal_and_logged(self, build):
        p = _kernel(build)
        x = _x()
        with observe.observed() as obs:
            (_, _, y_ref), (_, _, y_vec), run = [
                *_run_both(p, "f", lambda: [N, x.copy(), np.zeros(N)],
                           {"n": N})]
        assert np.array_equal(y_ref, y_vec)
        assert len(run.fallbacks) == 1
        assert obs.decisions.for_stage("executor:fallback")
        assert obs.metrics.counter("exec.vectorized.fallbacks").value >= 1

    def test_indirect_write_falls_back_and_matches(self):
        # Scatter through an index grid — a lift refusal at compile time.
        b = GlafBuilder("k")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("idx", T_INT, dims=("n",), intent="in")
        f.param("x", T_REAL8, dims=("n",), intent="in")
        f.param("y", T_REAL8, dims=("n",), intent="inout")
        s = f.step("scatter")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", ref("idx", I("i"))), ref("x", I("i")))
        p = b.build()

        rng = np.random.default_rng(3)
        idx = rng.permutation(N).astype(np.int64) + 1
        x = _x()
        (_, _, _, y_ref), (_, _, _, y_vec), run = [
            *_run_both(p, "f",
                       lambda: [N, idx.copy(), x.copy(), np.zeros(N)],
                       {"n": N})]
        assert np.array_equal(y_ref, y_vec)
        assert len(run.fallbacks) == 1

    def test_function_call_in_loop_falls_back_and_matches(self):
        # A callee that takes an array argument does not inline.
        b = GlafBuilder("k")
        m = b.module("M")
        g = m.function("twice", return_type=T_REAL8)
        g.param("n", T_INT, intent="in")
        g.param("v", T_REAL8, dims=("n",), intent="in")
        g.param("j", T_INT, intent="in")
        g.returns(ref("v", ref("j")) * 2.0)
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("x", T_REAL8, dims=("n",), intent="in")
        f.param("y", T_REAL8, dims=("n",), intent="inout")
        from repro.core.expr import FuncCall
        s = f.step("apply")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", I("i")),
                  FuncCall("twice", (ref("n"), ref("x"), I("i"))))
        p = b.build()

        x = _x()
        (_, _, y_ref), (_, _, y_vec), run = [
            *_run_both(p, "f", lambda: [N, x.copy(), np.zeros(N)],
                       {"n": N})]
        assert np.array_equal(y_ref, y_vec)
        assert len(run.fallbacks) == 1
        assert "call" in run.fallbacks[0].reason.lower()
        assert "array argument 'v'" in run.fallbacks[0].reason

    def test_expression_function_in_loop_lifts_bitwise(self):
        b = GlafBuilder("k")
        m = b.module("M")
        g = m.function("twice", return_type=T_REAL8)
        g.param("v", T_REAL8, intent="in")
        g.returns(ref("v") * 2.0)
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("x", T_REAL8, dims=("n",), intent="in")
        f.param("y", T_REAL8, dims=("n",), intent="inout")
        from repro.core.expr import FuncCall
        s = f.step("apply")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", I("i")), FuncCall("twice", (ref("x", I("i")),)))
        p = b.build()

        x = _x()
        with observe.observed() as obs:
            (_, _, y_ref), (_, _, y_vec), run = [
                *_run_both(p, "f", lambda: [N, x.copy(), np.zeros(N)],
                           {"n": N})]
        assert np.array_equal(y_ref, y_vec)
        assert run.fallbacks == ()
        inline = obs.decisions.for_stage("executor:inline")
        assert [(d.function, d.verdict) for d in inline] == [
            ("f", "inlined")]
        assert "callees: twice" in inline[0].reasons


# ----------------------------------------------------------------------
# resource exhaustion mid-lift
# ----------------------------------------------------------------------
class TestResourceExhaustion:
    """A budget trip inside a lifted step must not corrupt state.

    ``ResourceLimitError`` is terminal for the run, but the arrays the
    caller handed in are authoritative storage: the tripping step's
    partial writes are rolled back and the step is sticky-demoted.
    """

    def _two_step(self):
        def body(f):
            s = f.step("double")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)
            s = f.step("shift")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("y", I("i")) + 1.0)
        return _kernel(body)

    def test_vectorized_trip_keeps_completed_steps_only(self):
        # Budget covers step 1 exactly; step 2's up-front charge trips.
        # y must hold step 1's result — no torn step-2 writes — and the
        # demotion must be visible in the decision log.
        from repro.errors import ResourceLimitError
        from repro.robust import ResourceLimits

        p = self._two_step()
        x = _x()
        y = np.zeros(N)
        ex = get_executor("vectorized",
                          limits=ResourceLimits(max_loop_iterations=N))
        with observe.observed() as obs:
            with pytest.raises(ResourceLimitError):
                ex.run(p, "f", [N, x, y], sizes={"n": N})
        assert np.array_equal(y, x * 2.0)
        fb = obs.decisions.for_stage("executor:fallback")
        assert [(d.step_name, d.reasons) for d in fb] == [
            ("shift", ("resource budget exhausted mid-lift",))]

    def test_mid_write_trip_rolls_back_and_sticky_demotes(self):
        # The budget trips inside the lifted program, after its first
        # write: the step updates y, which is live on step entry
        # (read-modify-write), and then an inlined search counts its
        # iterations against the budget.  The program restores y before
        # the error leaves it, and a later call on the same interpreter
        # (fresh budget) serves the step through the scalar interpreter.
        from repro.core.expr import FuncCall
        from repro.errors import ResourceLimitError
        from repro.glafexec.context import ExecutionContext
        from repro.glafexec.vectorize import VectorizedInterpreter
        from repro.robust import ResourceLimits

        b = GlafBuilder("k")
        m = b.module("M")
        g = m.function("first", return_type=T_INT)
        g.param("n", T_INT, intent="in")
        g.param("t", T_INT, intent="in")
        s = g.step("scan")
        s.foreach(p=(1, "n"))
        s.if_(I("p").ge(ref("t")), [SB.ret(I("p"))])
        g.returns(-1)
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("t", T_INT, intent="in")
        f.param("x", T_REAL8, dims=("n",), intent="in")
        f.param("y", T_REAL8, dims=("n",), intent="inout")
        f.param("k", T_INT, dims=("n",), intent="inout")
        s = f.step("double")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", I("i")),
                  ref("y", I("i")) + ref("x", I("i")) * 2.0)
        s.formula(ref("k", I("i")), FuncCall("first", (ref("n"), ref("t"))))
        p = b.build()

        # Each lane scans t positions: N + N * N iterations pass the
        # budget, N + N do not.
        ctx = ExecutionContext(p, sizes={"n": N})
        vec = VectorizedInterpreter(
            p, ctx, limits=ResourceLimits(max_loop_iterations=3 * N))
        x = _x()
        y = np.zeros(N)
        k = np.zeros(N, np.int64)
        with pytest.raises(ResourceLimitError):
            vec.call("f", [N, N, x, y, k])
        assert np.array_equal(y, np.zeros(N))  # rolled back, not torn
        assert np.array_equal(k, np.zeros(N))
        assert ("f", 0) in vec._demoted
        assert [e.reason for e in vec.fallbacks] == [
            "resource budget exhausted mid-lift"]

        # Demotion is sticky: the re-run interprets the step and produces
        # the interpreter's answer.
        vec.call("f", [N, 1, x, y, k])
        assert np.array_equal(y, x * 2.0)
        assert np.array_equal(k, np.ones(N))


# ----------------------------------------------------------------------
# a lift that fails at run time
# ----------------------------------------------------------------------
def test_failed_lift_leaves_the_interpreters_storage():
    # y(i) = x(i) * 2 lifts over every lane before z's gather fails at
    # i = 3: the lifted program restores y, and the scalar re-run stops
    # where the interpreter stops, so both leave the same y and z.
    def body(f):
        s = f.step("two")
        s.foreach(i=(1, "n"))
        s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)
        s.formula(ref("z", I("i")), ref("x", ref("ix", I("i"))))
    p = _kernel(body, [("ix", T_INT, ("n",), "in"),
                       ("z", T_REAL8, ("n",), "inout")])
    n = 6
    out = {}
    for how in ("interpreter", "vectorized"):
        ix = np.arange(1, n + 1)
        ix[2] = 99
        args = [n, np.arange(1.0, n + 1), np.full(n, -1.0), ix,
                np.full(n, -1.0)]
        with pytest.raises(ExecutionError) as err:
            get_executor(how).run(p, "f", args, sizes={"n": n})
        out[how] = (str(err.value), args[2].tolist(), args[4].tolist())
    assert out["vectorized"] == out["interpreter"]
    assert out["interpreter"][1:] == ([2.0, 4.0, 6.0, -1.0, -1.0, -1.0],
                                      [1.0, 2.0, -1.0, -1.0, -1.0, -1.0])


def test_failed_sweep_leaves_the_interpreters_storage():
    # DO i; CALL put(i), where put writes y(i), then g(1:2), then gathers
    # num(ix(i)): three split nests, the last of which fails at i = 3.
    # The sweep restores what its nests wrote before the scalar re-run.
    from repro.glafexec.context import ExecutionContext

    b = GlafBuilder("sw")
    for name, ty in (("x", T_REAL8), ("y", T_REAL8), ("num", T_INT),
                     ("res", T_INT), ("ix", T_INT)):
        b.global_grid(name, ty, dims=(8,), module_scope=True)
    b.global_grid("g", T_REAL8, dims=(2,), module_scope=True)
    m = b.module("M")
    put = m.function("put", return_type=T_VOID)
    put.param("i", T_INT, intent="in")
    put.step("double").formula(ref("y", ref("i")), ref("x", ref("i")) * 2.0)
    s = put.step("scale")
    s.foreach(k=(1, 2))
    s.formula(ref("g", I("k")), ref("x", ref("i")) * I("k"))
    put.step("gather").formula(ref("res", ref("i")),
                               ref("num", ref("ix", ref("i"))))
    s = m.function("f", return_type=T_VOID).step("sweep")
    s.foreach(i=(1, 8))
    s.call("put", [I("i")])
    p = b.build()
    out = {}
    for how in ("interpreter", "vectorized"):
        ctx = ExecutionContext(p)
        ctx.get("x")[...] = np.arange(1.0, 9.0)
        ctx.get("num")[...] = np.arange(10, 18)
        ctx.get("ix")[...] = [1, 2, 99, 4, 5, 6, 7, 8]
        with observe.observed() as obs, \
                pytest.raises(ExecutionError) as err:
            get_executor(how).run(p, "f", context=ctx)
        out[how] = (str(err.value),
                    {n: ctx.get(n).tolist() for n in ("y", "g", "res")})
    # The sweep did lift, and failed at run time.
    fallback, = obs.decisions.for_stage("executor:fallback")
    assert fallback.reasons[0].startswith("runtime lift failure: index 99")
    assert out["vectorized"] == out["interpreter"]
    assert out["interpreter"][1] == {
        "y": [2.0, 4.0, 6.0] + [0.0] * 5, "g": [3.0, 6.0],
        "res": [10, 11] + [0] * 6}


# ----------------------------------------------------------------------
# sentinel parity
# ----------------------------------------------------------------------
class TestSentinelParity:
    def _program(self):
        def body(f):
            s = f.step("pw")
            s.foreach(i=(1, "n"))
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)
        b = GlafBuilder("s")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("x", T_REAL8, dims=("n",), intent="in")
        f.param("y", T_REAL8, dims=("n",), intent="inout")
        body(f)
        return b.build()

    @pytest.mark.parametrize("executor", ["interpreter", "vectorized"])
    def test_nan_trips_identically(self, executor):
        p = self._program()
        x = np.ones(5)
        x[3] = np.nan
        with configured(sentinels=SentinelConfig()):
            with pytest.raises(NumericIntegrityError) as exc:
                get_executor(executor).run(p, "f", [5, x, np.zeros(5)],
                                           sizes={"n": 5})
        assert exc.value.kind == "nan"

    def test_trip_leaves_the_interpreters_storage(self):
        # Under the sentinels the vectorized executor lifts nothing: its
        # scalar path writes i = 1..3 and trips at i = 4, where the
        # interpreter trips, and records that one trip.
        def body(f):
            s = f.step("two")
            s.foreach(i=(1, "n"))
            s.formula(ref("z", I("i")), ref("x", I("i")) + 1.0)
            s.formula(ref("y", I("i")), ref("x", I("i")) * 2.0)
        p = _kernel(body, [("z", T_REAL8, ("n",), "inout")])
        n = 6
        out = {}
        for how in ("interpreter", "vectorized"):
            x = np.arange(1.0, n + 1)
            x[3] = np.nan
            args = [n, x, np.full(n, -1.0), np.full(n, -1.0)]
            with observe.observed() as obs, \
                    configured(sentinels=SentinelConfig()), \
                    pytest.raises(NumericIntegrityError) as exc:
                get_executor(how).run(p, "f", args, sizes={"n": n})
            trips = obs.decisions.for_stage("numeric:nan")
            out[how] = (str(exc.value), args[2].tolist(), args[3].tolist(),
                        len(trips),
                        obs.metrics.counter("numeric.sentinel.nan").value)
        assert out["vectorized"] == out["interpreter"]
        assert out["interpreter"][1:] == (
            [2.0, 4.0, 6.0, -1.0, -1.0, -1.0],
            [2.0, 3.0, 4.0, -1.0, -1.0, -1.0], 1, 1)
