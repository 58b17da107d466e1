"""Unit tests for the GLAF IR interpreter and execution context."""

import numpy as np
import pytest

from repro.core import GlafBuilder, I, T_INT, T_LOGICAL, T_REAL8, T_VOID, lib, ref
from repro.core.builder import StepBuilder as SB
from repro.core.expr import FuncCall
from repro.core.step import Assign, Step
from repro.errors import ExecutionError
from repro.glafexec import ExecutionContext, Interpreter, run_interpreted


def _program():
    b = GlafBuilder("x")
    b.global_grid("gv", T_REAL8, dims=("n",), module_scope=True)
    b.global_grid("gs", T_REAL8, module_scope=True)
    b.global_grid("w", T_REAL8, dims=(3,), common_block="blk")
    m = b.module("M")

    f = m.function("axpy", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("a", T_REAL8, intent="in")
    f.param("x", T_REAL8, dims=("n",), intent="in")
    f.param("y", T_REAL8, dims=("n",), intent="inout")
    s = f.step()
    s.foreach(i=(1, "n"))
    s.formula(ref("y", I("i")), ref("a") * ref("x", I("i")) + ref("y", I("i")))

    g = m.function("total", return_type=T_REAL8)
    g.param("n", T_INT, intent="in")
    g.param("x", T_REAL8, dims=("n",), intent="in")
    g.returns(lib("SUM", ref("x")))

    h = m.function("search", return_type=T_INT)
    h.param("n", T_INT, intent="in")
    h.param("x", T_REAL8, dims=("n",), intent="in")
    h.param("thr", T_REAL8, intent="in")
    s = h.step()
    s.foreach(i=(1, "n"))
    s.if_(ref("x", I("i")).gt(ref("thr")), [SB.ret(I("i"))])
    h.returns(-1)

    k = m.function("use_globals", return_type=T_VOID)
    k.param("n", T_INT, intent="in")
    s = k.step()
    s.foreach(i=(1, "n"))
    s.formula(ref("gv", I("i")), ref("w", 1) * I("i"))
    s = k.step()
    s.formula(ref("gs"), lib("SUM", ref("gv")))
    return b.build()


class TestContext:
    def test_symbolic_dims_resolved_from_sizes(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 5})
        assert ctx.get("gv").shape == (5,)

    def test_missing_size_raises(self):
        p = _program()
        with pytest.raises(ExecutionError, match="dimension"):
            ExecutionContext(p)

    def test_values_initialize_globals(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3}, values={"w": np.ones(3)})
        assert np.all(ctx.get("w") == 1.0)

    def test_unknown_value_name_rejected(self):
        p = _program()
        with pytest.raises(ExecutionError, match="unknown global"):
            ExecutionContext(p, sizes={"n": 3}, values={"zzz": 1})

    def test_scalar_set_get(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        ctx.set("gs", 2.5)
        assert ctx.value("gs") == 2.5

    def test_snapshot_is_deep(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        snap = ctx.snapshot(["gv"])
        ctx.get("gv")[0] = 9.0
        assert snap["gv"][0] == 0.0

    def test_common_block_view(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        view = ctx.common_block_view("blk")
        assert list(view) == ["w"]
        with pytest.raises(ExecutionError):
            ctx.common_block_view("nope")


class TestInterpreter:
    def test_axpy(self):
        p = _program()
        y = np.ones(4)
        run_interpreted(p, "axpy", [4, 2.0, np.arange(4.0), y], sizes={"n": 4})
        assert np.array_equal(y, 2.0 * np.arange(4.0) + 1.0)

    def test_value_function(self):
        p = _program()
        r, _, _ = run_interpreted(p, "total", [3, np.array([1.0, 2.0, 3.0])],
                                  sizes={"n": 3})
        assert r == 6.0

    def test_early_return(self):
        p = _program()
        x = np.array([0.0, 5.0, 9.0])
        assert run_interpreted(p, "search", [3, x, 4.0], sizes={"n": 3})[0] == 2
        assert run_interpreted(p, "search", [3, x, 99.0], sizes={"n": 3})[0] == -1

    def test_globals_and_commons(self):
        p = _program()
        _, ctx, _ = run_interpreted(p, "use_globals", [3], sizes={"n": 3},
                                    values={"w": np.array([2.0, 0.0, 0.0])})
        assert np.array_equal(ctx.get("gv"), [2.0, 4.0, 6.0])
        assert ctx.value("gs") == 12.0

    def test_argument_count_checked(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        with pytest.raises(ExecutionError, match="argument"):
            Interpreter(p, ctx).call("axpy", [3])

    def test_dtype_checked(self):
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        with pytest.raises(ExecutionError, match="dtype"):
            Interpreter(p, ctx).call("axpy", [3, 1.0, np.zeros(3, np.float32),
                                              np.zeros(3)])

    def test_scalar_out_requires_cell(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("setx", return_type=T_VOID)
        f.param("x", T_REAL8, intent="out")
        f.step().formula(ref("x"), 1.0)
        p = b.build()
        ctx = ExecutionContext(p)
        interp = Interpreter(p, ctx)
        with pytest.raises(ExecutionError, match="0-d"):
            interp.call("setx", [1.0])
        cell = np.zeros(())
        interp.call("setx", [cell])
        assert cell[()] == 1.0

    def test_bounds_checked(self):
        # gv has extent 3 in the context but the loop runs to 5.
        p = _program()
        ctx = ExecutionContext(p, sizes={"n": 3})
        with pytest.raises(ExecutionError, match="bounds"):
            Interpreter(p, ctx).call("use_globals", [5])

    def test_stats_recorded(self):
        p = _program()
        _, _, interp = run_interpreted(p, "use_globals", [3], sizes={"n": 3})
        assert interp.stats.loop_iterations[("use_globals", 0)] == 3
        assert interp.stats.calls["use_globals"] == 1

    def test_save_store(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("bump", return_type=T_REAL8)
        f.local("state", T_REAL8, dims=(1,), save=True)
        s = f.step()
        s.foreach(i=(1, 1))
        s.formula(ref("state", 1), ref("state", 1) + 1.0)
        f.returns(ref("state", 1))
        p = b.build()
        ctx = ExecutionContext(p)
        interp = Interpreter(p, ctx)
        assert interp.call("bump", []) == 1.0
        assert interp.call("bump", []) == 2.0
        interp.reset_save_store()
        assert interp.call("bump", []) == 1.0

    def test_fortran_integer_division(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_INT)
        f.param("x", T_INT, intent="in")
        f.param("y", T_INT, intent="in")
        f.returns(ref("x") / ref("y"))
        p = b.build()
        ctx = ExecutionContext(p)
        interp = Interpreter(p, ctx)
        assert interp.call("f", [-7, 2]) == -3

    def test_step_condition_gates_body(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("flag", T_INT, intent="in")
        f.param("out", T_REAL8, dims=(2,), intent="inout")
        s = f.step()
        s.condition(ref("flag").eq(1))
        s.formula(ref("out", 1), 5.0)
        p = b.build()
        out = np.zeros(2)
        run_interpreted(p, "f", [0, out])
        assert out[0] == 0.0
        run_interpreted(p, "f", [1, out])
        assert out[0] == 5.0


# ----------------------------------------------------------------------
# run-time errors and counters, pinned message by message
# ----------------------------------------------------------------------
_EXTENTS = (2, 3, 4)


def _access_program(rank: int, write: bool, via: str):
    """``f`` touches one element of a rank-``rank`` grid ``a`` of extents
    ``_EXTENTS[:rank]``.  The subscripts are loop indices (``via="loop"``,
    a one-iteration nest per dimension) or scalar arguments
    (``via="scalar"``), both taken from the arguments ``i1..i<rank>``."""
    b = GlafBuilder("oob")
    m = b.module("M")
    f = m.function("f", return_type=T_VOID)
    f.param("a", T_REAL8, dims=_EXTENTS[:rank], intent="inout")
    names = [f"i{k + 1}" for k in range(rank)]
    for name in names:
        f.param(name, T_INT, intent="in")
    f.local("t", T_REAL8)
    s = f.step("touch")
    if via == "loop":
        loop = [f"k{k + 1}" for k in range(rank)]
        s.foreach(**{v: (ref(n), ref(n)) for v, n in zip(loop, names)})
        subs = [I(v) for v in loop]
    else:
        subs = [ref(n) for n in names]
    if write:
        s.formula(ref("a", *subs), 1.0)
    else:
        s.formula(ref("t"), ref("a", *subs))
    return b.build()


_OOB_CASES = [(rank, dim, bad)
              for rank in (1, 2, 3)
              for dim in range(1, rank + 1)
              for bad in (0, _EXTENTS[dim - 1] + 1)]


class TestRunTimeErrors:
    @pytest.mark.parametrize("via", ["loop", "scalar"])
    @pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
    @pytest.mark.parametrize("rank,dim,bad", _OOB_CASES)
    def test_out_of_bounds_message(self, rank, dim, bad, write, via):
        p = _access_program(rank, write, via)
        a = np.zeros(_EXTENTS[:rank])
        subs = [1] * rank
        subs[dim - 1] = bad
        interp = Interpreter(p, ExecutionContext(p))
        extent = _EXTENTS[dim - 1]
        message = (f"f: index {bad} out of bounds for dimension {dim} of "
                   f"grid 'a' (extent {extent})")
        with pytest.raises(ExecutionError) as exc:
            interp.call("f", [a, *subs])
        assert str(exc.value) == message
        assert not a.any()

    @pytest.mark.parametrize("write", [False, True], ids=["read", "write"])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_in_bounds_corner_touches_one_cell(self, rank, write):
        for via in ("loop", "scalar"):
            p = _access_program(rank, write, via)
            a = np.zeros(_EXTENTS[:rank])
            Interpreter(p, ExecutionContext(p)).call(
                "f", [a, *_EXTENTS[:rank]])
            assert a.sum() == (1.0 if write else 0.0)
            assert a[tuple(n - 1 for n in _EXTENTS[:rank])] == a.sum()

    @pytest.mark.parametrize("stride", [0, -1])
    def test_non_positive_stride_message(self, stride):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("by", T_INT, intent="in")
        f.param("y", T_REAL8, dims=(3,), intent="inout")
        s = f.step("strided")
        s.foreach(i=(1, 3, ref("by")))
        s.formula(ref("y", I("i")), 1.0)
        p = b.build()
        with pytest.raises(ExecutionError) as exc:
            Interpreter(p, ExecutionContext(p)).call("f", [stride, np.zeros(3)])
        assert str(exc.value) == "f/strided: non-positive stride"

    def test_call_depth_message(self):
        b = GlafBuilder("t")
        m = b.module("M")
        g = m.function("g", return_type=T_VOID)
        g.param("y", T_REAL8, dims=(1,), intent="inout")
        g.step().formula(ref("y", 1), 1.0)
        f = m.function("f", return_type=T_VOID)
        f.param("y", T_REAL8, dims=(1,), intent="inout")
        f.step().call("g", [ref("y")])
        p = b.build()
        y = np.zeros(1)
        interp = Interpreter(p, ExecutionContext(p), max_call_depth=1)
        interp.call("g", [y])
        assert y[0] == 1.0
        with pytest.raises(ExecutionError) as exc:
            interp.call("f", [y])
        assert str(exc.value) == "call depth exceeded at g"

    def test_unbound_index_message(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("y", T_REAL8, dims=(3,), intent="inout")
        s = f.step("loop")
        s.foreach(i=(1, 3))
        s.formula(ref("y", I("i")), 1.0)
        p = b.build()
        # A later step reading the loop's index after the nest has ended.
        p.find_function("f").steps.append(
            Step("after", stmts=[Assign(ref("y", 1), I("i"))]))
        with pytest.raises(ExecutionError) as exc:
            Interpreter(p, ExecutionContext(p)).call("f", [np.zeros(3)])
        assert str(exc.value) == "unbound index variable 'i'"

    def test_scalar_to_whole_array_message(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("y", T_REAL8, dims=(3,), intent="inout")
        f.step().formula(ref("y", 1), 1.0)
        p = b.build()
        # Validation rejects this shape; the run-time check backs it up.
        p.find_function("f").steps.append(
            Step("whole", stmts=[Assign(ref("y"), 2.0)]))
        with pytest.raises(ExecutionError) as exc:
            Interpreter(p, ExecutionContext(p)).call("f", [np.zeros(3)])
        assert str(exc.value) == "cannot assign scalar to whole array 'y'"


class TestControlFlow:
    def test_exit_leaves_only_the_inner_loop(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("y", T_REAL8, dims=(3, 4), intent="inout")
        s = f.step("nest")
        s.foreach(i=(1, 3), j=(1, 4))
        s.formula(ref("y", I("i"), I("j")), I("i") * 10 + I("j"))
        s.if_(I("j").ge(2), [SB.exit_stmt()])
        p = b.build()
        y = np.zeros((3, 4))
        interp = Interpreter(p, ExecutionContext(p))
        interp.call("f", [y])
        expected = np.zeros((3, 4))
        expected[:, 0] = [11, 21, 31]
        expected[:, 1] = [12, 22, 32]
        assert np.array_equal(y, expected)
        assert interp.stats.loop_iterations == {("f", 0): 6}

    @pytest.mark.parametrize("ty,dtype,value", [
        (T_INT, np.int64, 7),          # 3.0 * 2.5 truncates toward zero
        (T_REAL8, np.float64, 7.5),
    ])
    def test_return_inside_nest_casts_to_result_dtype(self, ty, dtype, value):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=ty)
        f.param("x", T_REAL8, dims=(2, 3), intent="in")
        s = f.step("find")
        s.foreach(i=(1, 2), j=(1, 3))
        s.if_(ref("x", I("i"), I("j")).gt(2.0),
              [SB.ret(ref("x", I("i"), I("j")) * 2.5)])
        f.returns(-1)
        p = b.build()
        x = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        interp = Interpreter(p, ExecutionContext(p))
        result = interp.call("f", [x])
        assert type(result) is dtype and result == value
        # The search stopped at the first hit, (2, 1): four iterations.
        assert interp.stats.loop_iterations == {("f", 0): 4}


def _stats_program():
    b = GlafBuilder("t")
    m = b.module("M")
    g = m.function("g", return_type=T_REAL8)
    g.param("v", T_REAL8, intent="in")
    g.local("tmp", T_REAL8, dims=(2,))
    g.local("acc", T_REAL8, dims=(1,), save=True)
    s = g.step("fill")
    s.foreach(k=(1, 2))
    s.formula(ref("tmp", I("k")), ref("v") * I("k"))
    s = g.step("keep")
    s.formula(ref("acc", 1), ref("acc", 1) + ref("tmp", 2))
    g.returns(ref("acc", 1))
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("y", T_REAL8, dims=("n",), intent="inout")
    f.local("w", T_REAL8, dims=("n",))
    s = f.step("apply")
    s.foreach(i=(1, "n"))
    s.formula(ref("w", I("i")), FuncCall("g", (ref("y", I("i")),)))
    s = f.step("square")
    s.foreach(i=(1, "n"), j=(1, 2))
    s.formula(ref("y", I("i")), ref("w", I("i")) * I("j"))
    return b.build()


class TestCounters:
    def test_stats_after_two_calls_on_one_interpreter(self):
        p = _stats_program()
        interp = Interpreter(p, ExecutionContext(p))
        y = np.array([1.0, 2.0, 3.0])
        interp.call("f", [3, y])
        interp.call("f", [2, y[:2].copy()])
        assert interp.stats.loop_iterations == {
            ("f", 0): 5, ("g", 0): 10, ("f", 1): 10}
        assert interp.stats.calls == {"f": 2, "g": 5}
        # w twice, tmp once per call of g, acc once (SAVE'd).
        assert interp.stats.allocations == 2 + 5 + 1
        assert np.array_equal(y, [4.0, 12.0, 24.0])

    @pytest.mark.parametrize("executor", ["interpreter", "vectorized"])
    def test_dropped_interpreter_is_freed_without_the_cycle_collector(
            self, executor):
        import gc
        import weakref

        from repro.glafexec.vectorize import VectorizedInterpreter

        cls = Interpreter if executor == "interpreter" else VectorizedInterpreter
        p = _stats_program()
        gc.collect()
        gc.disable()
        try:
            ctx = ExecutionContext(p)
            interp = cls(p, ctx)
            interp.call("f", [3, np.ones(3)])
            refs = (weakref.ref(interp), weakref.ref(ctx))
            del interp, ctx
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# integer zero divisors raise the typed error under both executors
# ----------------------------------------------------------------------
def _divide_program(formula):
    b = GlafBuilder("t")
    m = b.module("M")
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("d", T_INT, dims=("n",), intent="in")
    f.param("y", T_INT, dims=("n",), intent="inout")
    s = f.step("divide")
    s.foreach(i=(1, "n"))
    s.formula(ref("y", I("i")), formula)
    return b.build()


_ZERO_DIVISORS = {
    # NumPy-int operands: grid elements.
    "numpy-div": (ref("y", I("i")) / ref("d", I("i")),
                  "integer division by zero"),
    "numpy-floordiv": (ref("y", I("i")) // ref("d", I("i")),
                       "integer division by zero"),
    "numpy-mod": (ref("y", I("i")) % ref("d", I("i")), "modulo by zero"),
    # Python-int operands: the DO variable and a literal.
    "python-div": (I("i") / 0, "integer division by zero"),
    "python-floordiv": (I("i") // 0, "integer division by zero"),
    "python-mod": (I("i") % 0, "modulo by zero"),
}


class TestIntegerZeroDivisor:
    @pytest.mark.parametrize("executor", ["interpreter", "vectorized"])
    @pytest.mark.parametrize("case", sorted(_ZERO_DIVISORS))
    def test_zero_divisor_is_a_typed_error(self, case, executor):
        from repro.glafexec import get_executor

        formula, message = _ZERO_DIVISORS[case]
        p = _divide_program(formula)
        y = np.array([7, 9], dtype=np.int64)
        d = np.array([2, 0], dtype=np.int64)
        with pytest.raises(ExecutionError) as exc:
            get_executor(executor).run(p, "f", [2, d, y], sizes={"n": 2})
        assert str(exc.value) == message

    @pytest.mark.parametrize("executor", ["interpreter", "vectorized"])
    def test_nonzero_divisors_keep_fortran_semantics(self, executor):
        from repro.glafexec import get_executor

        p = _divide_program(ref("y", I("i")) / ref("d", I("i")))
        y = np.array([7, -7, 7], dtype=np.int64)
        get_executor(executor).run(
            p, "f", [3, np.array([2, 2, -2], dtype=np.int64), y],
            sizes={"n": 3})
        assert np.array_equal(y, [3, -3, -3])
