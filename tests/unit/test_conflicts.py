"""Unit tests for the access-conflict check (`repro.glafexec.conflicts`):
private and FIRSTPRIVATE storage, REDUCTION and ATOMIC updates, nesting,
and the interpreter parity the guard relies on."""

import numpy as np

from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, ref
from repro.core.builder import StepBuilder as SB
from repro.core.expr import FuncCall
from repro.glafexec import (CheckedInterpreter, ExecutionContext, Interpreter,
                            validate_parallel_semantics)
from repro.optimize import Tweaks, make_plan

N = 6


def _loop_program(body, *, extra=None):
    """``f(n, a, b)`` with one loop step over ``i`` built by ``body``."""
    b = GlafBuilder("u")
    b.global_grid("s", T_REAL8, module_scope=True)
    b.global_grid("h", T_REAL8, dims=(3,), module_scope=True)
    m = b.module("M")
    if extra is not None:
        extra(m)
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("a", T_REAL8, dims=("n",), intent="in")
    f.param("b", T_REAL8, dims=("n",), intent="inout")
    f.param("k", T_INT, dims=("n",), intent="in")
    f.local("t", T_REAL8)
    s = f.step("body")
    s.foreach(i=(1, "n"))
    body(s)
    return b.build()


def _check(program, a, tweaks=None, override=None):
    plan = make_plan(program, "GLAF-parallel v0", tweaks=tweaks)
    assert plan.step_is_parallel("f", 0)
    if override:
        override(plan.parallel_plan.steps[("f", 0)])
    k = np.array([1, 2, 1, 3, 1, 2])
    return validate_parallel_semantics(
        program, plan, "f", [N, np.asarray(a, float), np.zeros(N), k])


def _conflict(v):
    c, = v.conflicts
    return c.grid, c.first, c.second, c.kind


class TestPrivate:
    def test_private_scalar_read_before_written(self):
        def body(s):
            s.formula(ref("b", I("i")), ref("t"))
            s.formula(ref("t"), ref("a", I("i")))

        def as_private(sp):
            assert sp.firstprivate == ["t"]
            sp.private, sp.firstprivate = ["t"], []

        v = _check(_loop_program(body), np.ones(N), override=as_private)
        assert _conflict(v) == ("t", None, (1,), "private-read-before-write")
        assert str(v.conflicts[0]) == \
            "private-read-before-write on t in f/0, iteration 1"

    def test_firstprivate_read_after_another_iterations_write(self):
        def body(s):
            s.if_(ref("a", I("i")).gt(0.0), [SB.assign(ref("t"), ref("a", I("i")))])
            s.formula(ref("b", I("i")), ref("t"))

        program = _loop_program(body)
        # Iteration 1 writes t, iteration 2 reads that value.
        v = _check(program, [1, -1, 1, 1, 1, 1])
        assert _conflict(v) == ("t", (1,), (2,), "private-read-before-write")
        # Reading the value from before the loop is what FIRSTPRIVATE is for.
        assert _check(program, [-1, 1, 1, 1, 1, 1]).ok


class TestUpdates:
    def test_reduction_is_exempt(self):
        def body(s):
            s.formula(ref("s"), ref("s") + ref("a", I("i")))

        program = _loop_program(body)
        assert make_plan(program).parallel_plan.steps[("f", 0)].reductions == \
            {"s": "+"}
        assert _check(program, np.ones(N)).ok

    def test_reduction_variable_read_outside_its_update(self):
        def peek(m):
            g = m.function("peek", return_type=T_REAL8)
            g.returns(ref("s"))

        def body(s):
            s.formula(ref("s"), ref("s") + ref("a", I("i")))
            s.formula(ref("b", I("i")), FuncCall("peek", ()))

        v = _check(_loop_program(body, extra=peek), np.ones(N))
        assert _conflict(v) == ("s", (1,), (2,), "read-update")

    def test_atomic_update_is_exempt(self):
        def body(s):
            s.formula(ref("h", ref("k", I("i"))),
                      ref("h", ref("k", I("i"))) + ref("a", I("i")))

        program = _loop_program(body)
        assert _check(program, np.ones(N)).ok
        # Without the ATOMIC tweak the generators emit a plain update.
        v = _check(program, np.ones(N), tweaks=Tweaks(atomic_updates=False))
        assert _conflict(v) == ("h", (1,), (3,), "write-read")

    def test_reduction_holds_only_for_its_own_loop(self):
        def inner(m):
            g = m.function("acc", return_type=T_VOID)
            g.param("n", T_INT, intent="in")
            g.param("a", T_REAL8, dims=("n",), intent="in")
            s = g.step("sum")
            s.foreach(j=(1, "n"))
            s.formula(ref("s"), ref("s") + ref("a", I("j")))

        def body(s):
            s.formula(ref("b", I("i")), ref("a", I("i")))
            s.call("acc", [ref("n"), ref("a")])

        program = _loop_program(body, extra=inner)
        v = _check(program, np.ones(N))
        assert ("acc", 0) in v.checked_steps
        c, = v.conflicts
        assert (c.function, c.step_index, c.grid, c.kind) == \
            ("f", 0, "s", "write-read")


class TestParity:
    def test_results_and_stats_equal_the_plain_interpreter(self):
        def body(s):
            s.formula(ref("s"), ref("s") + ref("a", I("i")))
            s.formula(ref("b", I("i")), ref("a", I("i")) * 2.0)

        program = _loop_program(body)
        plain_args, checked_args = (
            [N, np.arange(1.0, N + 1), np.zeros(N), np.ones(N, dtype=np.int64)]
            for _ in range(2))
        plain = Interpreter(program, ExecutionContext(program))
        plain.call("f", plain_args)
        checked = CheckedInterpreter(program, ExecutionContext(program),
                                     make_plan(program))
        checked.call("f", checked_args)
        assert checked.checked_steps == {("f", 0)} and not checked.conflicts
        assert np.array_equal(plain_args[2], checked_args[2])
        assert np.array_equal(plain.context.get("s"), checked.context.get("s"))
        assert plain.stats == checked.stats
