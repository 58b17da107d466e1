"""The interpreter's compiled steps: kept code, hostile names and the
per-iteration accounting a compiled loop must keep exact.

Each step compiles to one Python function whose code is kept
process-wide by a digest of its text (``repro.glafexec.interp._CODE``);
the tests that count compiles or keys swap in a fresh cache of the same
bound.
"""

import numpy as np
import pytest

import repro.glafexec.interp as interp_mod
from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, ref
from repro.core.builder import StepBuilder as SB
from repro.core.step import CallStmt, ExitLoop, Range, Step
from repro.errors import ExecutionError, ResourceLimitError
from repro.glafexec import (ExecutionContext, Interpreter,
                            VectorizedInterpreter, get_executor)
from repro.recurring import RecurringCache
from repro.robust import ResourceLimits
from repro.robust.faults import FaultPlan, FaultSpec
from repro.runconfig import configured

EXECUTORS = ("interpreter", "vectorized", "guarded")


@pytest.fixture
def code(monkeypatch):
    """A fresh step-code cache, and a count of ``compile`` calls."""
    cache = RecurringCache(interp_mod._CODE.entries)
    monkeypatch.setattr(interp_mod, "_CODE", cache)
    calls = []

    def counting(*args, **kw):
        calls.append(args[0])
        return compile(*args, **kw)
    monkeypatch.setattr(interp_mod, "compile", counting, raising=False)
    return cache, calls


def _scale_program(factor=2.0, grid="y"):
    """``f(k, y)``: y(i) = k / factor for i = 1..3, then y(1) doubles."""
    b = GlafBuilder("t")
    m = b.module("M")
    f = m.function("f", return_type=T_VOID)
    f.param("k", T_INT, intent="in")
    f.param(grid, T_REAL8, dims=(3,), intent="inout")
    s = f.step("scale")
    s.foreach(i=(1, 3))
    s.formula(ref(grid, I("i")), ref("k") / factor)
    f.step("double").formula(ref(grid, 1), ref(grid, 1) * 2.0)
    return b.build()


def _run(p, *args):
    interp = Interpreter(p, ExecutionContext(p))
    interp.call("f", list(args))
    return interp


class TestKeptCode:
    def test_a_rebuilt_program_reuses_kept_code(self, code):
        cache, compiles = code
        for expected in (2, 2, 0):      # seen, kept, then reused
            y = np.zeros(3)
            _run(_scale_program(), 7, y)
            assert len(compiles) == expected
            assert y.tolist() == [7.0, 3.5, 3.5]
            compiles.clear()
        assert len(cache.kept) == 2

    def test_literal_type_and_grid_name_give_different_code(self, code):
        code, _ = code

        def keys(p):
            before = set(code.seen)
            y = np.zeros(3)
            _run(p, 7, y)
            return set(code.seen) - before, y.tolist()

        as_float, y_float = keys(_scale_program(2.0))
        assert y_float == [7.0, 3.5, 3.5]
        as_int, y_int = keys(_scale_program(2))
        assert y_int == [6.0, 3.0, 3.0]       # integer division truncates
        renamed, _ = keys(_scale_program(2.0, grid="w"))
        assert as_float and as_int and renamed
        assert not (as_int & as_float) and not (renamed & as_float)
        # A constant's value is a namespace binding: 3.0 reuses 2.0's code.
        same, y = keys(_scale_program(3.0))
        assert not same and y[1] == 7 / 3.0

    def test_code_is_named_after_its_step(self):
        p = _scale_program()
        interp = _run(p, 7, np.zeros(3))
        code = interp._steps[("f", 1)].__code__
        assert (code.co_filename, code.co_name) == ("<glaf-step f/1>",
                                                    "double")


class TestHostileNames:
    def _program(self):
        b = GlafBuilder("h")
        m = b.module("M")
        g = m.function("g", return_type=T_VOID)
        g.param("y", T_REAL8, dims=(2, 3), intent="inout")
        s = g.step("it's\nodd")
        # Two index names that NFKC folds together, as Python identifiers do.
        s.foreach(**{"\ufb01": (1, 2), "fi": (1, 3)})
        s.formula(ref("y", I("\ufb01"), I("fi")), I("\ufb01") * 10 + I("fi"))
        f = m.function("f", return_type=T_VOID)
        f.param("y", T_REAL8, dims=(2, 3), intent="inout")
        f.param("z", T_REAL8, dims=(3,), intent="inout")
        s = f.step("lam")
        s.foreach(**{"lambda": (1, 3)})
        s.formula(ref("z", I("lambda")), I("lambda") * 2.0)
        f.step("c").call("g", [ref("y")])
        return b.build()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_names_run_as_data(self, executor):
        y, z = np.zeros((2, 3)), np.zeros(3)
        get_executor(executor).run(self._program(), "f", [y, z])
        assert y.tolist() == [[11, 12, 13], [21, 22, 23]]
        assert z.tolist() == [2.0, 4.0, 6.0]

    def test_quote_and_newline_in_step_and_call_names(self):
        p = self._program()
        step = p.find_function("g").steps[0]
        step.ranges[0] = Range("\ufb01", 1, 2, ref("y", 1, 1))  # stride 0
        with pytest.raises(ExecutionError) as err:
            _run_f(p)
        assert str(err.value) == "g/it's\nodd: non-positive stride"
        p = self._program()
        p.find_function("f").steps.append(
            Step("call'\nbad", stmts=[CallStmt("g'\nx", (ref("y"),))]))
        with pytest.raises(KeyError) as err:
            _run_f(p)
        assert err.value.args == ("no function named \"g'\\nx\"",)


    def test_deep_expressions(self):
        # A left-associative chain is one Python chain; a right-nested one
        # deeper than Python's parser takes is a typed error.
        for nest, raises in ((lambda e: e + 1.0, False),
                             (lambda e: 1.0 - e, True)):
            e = ref("y", 1)
            for _ in range(400):
                e = nest(e)
            b = GlafBuilder("d")
            f = b.module("M").function("f", return_type=T_VOID)
            f.param("y", T_REAL8, dims=(1,), intent="inout")
            f.step("deep").formula(ref("y", 1), e)
            p = b.build()
            y = np.ones(1)
            if raises:
                with pytest.raises(ExecutionError, match="f/deep: step too "
                                   "deeply nested to compile"):
                    Interpreter(p, ExecutionContext(p)).call("f", [y])
            else:
                Interpreter(p, ExecutionContext(p)).call("f", [y])
                assert y[0] == 401.0


def _run_f(p):
    Interpreter(p, ExecutionContext(p)).call("f", [np.zeros((2, 3)),
                                                  np.zeros(3)])


def _loop_program():
    b = GlafBuilder("t")
    m = b.module("M")
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("y", T_REAL8, dims=(10,), intent="inout")
    s = f.step("fill")
    s.foreach(i=(1, "n"))
    s.formula(ref("y", I("i")), I("i") * 1.0)
    return b.build()


class TestAccounting:
    def test_zero_trip_nest_records_no_key(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("y", T_REAL8, dims=(3, 3), intent="inout")
        s = f.step("outer_empty")
        s.foreach(i=(1, "n"), j=(1, 3))
        s.formula(ref("y", I("i"), I("j")), 1.0)
        s = f.step("inner_empty")
        s.foreach(i=(1, 3), j=(1, "n"))
        s.formula(ref("y", I("i"), I("j")), 1.0)
        p = b.build()
        interp = Interpreter(p, ExecutionContext(p))
        y = np.zeros((3, 3))
        interp.call("f", [0, y])
        assert interp.stats.loop_iterations == {} and not y.any()

    def test_iteration_budget_trips_at_the_same_count(self):
        p = _loop_program()
        y = np.zeros(10)
        interp = Interpreter(p, ExecutionContext(p),
                             limits=ResourceLimits(max_loop_iterations=5))
        with pytest.raises(ResourceLimitError, match=r"\(6 > 5\)"):
            interp.call("f", [10, y])
        # The sixth iteration is counted, then trips before its body runs.
        assert interp.stats.loop_iterations == {("f", 0): 6}
        assert y.tolist() == [1, 2, 3, 4, 5] + [0] * 5

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_iteration_fault_site_fires_per_iteration(self, n):
        p = _loop_program()
        y = np.zeros(10)
        plan = FaultPlan([FaultSpec("exec.interp.iter", "delay", param=0.0,
                                    max_fires=100,
                                    match={"function": "f", "step": 0})])
        with configured(faults=plan):
            Interpreter(p, ExecutionContext(p)).call("f", [n, y])
        assert [e.site for e in plan.fired] == ["exec.interp.iter"] * n
        assert y.tolist() == list(range(1, n + 1)) + [0] * (10 - n)

    def test_callee_demoted_mid_run_keeps_the_callers_count(self):
        # The caller's loop stays scalar (an EXIT in its body); its callee's
        # indirect accumulator lifts, then fails at run time (an integer
        # accumulator would take float terms), so the vectorized executor
        # restores the stats it had and re-runs the callee scalar.  The
        # caller's later trips must still count.
        b = GlafBuilder("d")
        b.global_grid("acc", T_INT, dims=(3,), module_scope=True)
        b.global_grid("ix", T_INT, dims=(4,), module_scope=True)
        b.global_grid("w", T_REAL8, dims=(4,), module_scope=True)
        m = b.module("M")
        s = m.function("scatter", return_type=T_VOID).step("fold")
        s.foreach(i=(1, 4))
        s.formula(ref("acc", ref("ix", I("i"))),
                  ref("acc", ref("ix", I("i"))) + ref("w", I("i")))
        s = m.function("f", return_type=T_VOID).step("outer")
        s.foreach(j=(1, 3))
        s.call("scatter", [])
        s.if_(I("j").gt(5), [SB.exit_stmt()])
        p = b.build()
        runs = {}
        for cls in (Interpreter, VectorizedInterpreter):
            ctx = ExecutionContext(p)
            ctx.get("ix")[...] = [1, 3, 1, 2]
            ctx.get("w")[...] = [1.5, 2.5, 3.5, 4.5]
            interp = cls(p, ctx)
            interp.call("f", [])
            runs[cls] = (interp, ctx.get("acc").tolist())
        vec, acc = runs[VectorizedInterpreter]
        assert [(e.step_name, e.reason.split(" ")[0])
                for e in vec.fallbacks] == [("outer", "early"),
                                            ("fold", "runtime")]
        plain, plain_acc = runs[Interpreter]
        assert acc == plain_acc
        assert vec.stats == plain.stats
        assert plain.stats.loop_iterations == {("f", 0): 3,
                                               ("scatter", 0): 12}


class TestExitOutsideALoop:
    def _program(self):
        b = GlafBuilder("x")
        m = b.module("M")
        inner = m.function("inner", return_type=T_VOID)
        inner.param("y", T_REAL8, dims=(4,), intent="inout")
        inner.step("touch").formula(ref("y", 1), ref("y", 1))
        outer = m.function("outer", return_type=T_VOID)
        outer.param("y", T_REAL8, dims=(4,), intent="inout")
        s = outer.step("loop")
        s.foreach(i=(1, 4))
        s.call("inner", [ref("y")])
        s.formula(ref("y", I("i")), 1.0)
        p = b.build()
        # Validation rejects this step; the run-time check backs it up.
        p.find_function("inner").steps.append(
            Step("leave", stmts=[ExitLoop()]))
        return p

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_raises_instead_of_ending_the_callers_loop(self, executor):
        y = np.zeros(4)
        with pytest.raises(ExecutionError) as err:
            get_executor(executor).run(self._program(), "outer", [y])
        assert str(err.value) == "inner/leave: EXIT outside a loop"
        assert not y.any()
