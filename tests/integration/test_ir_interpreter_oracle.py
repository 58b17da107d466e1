"""Bitwise oracle: the IR interpreter against generated Python.

Every unit the fuzzer draws (seeds 1-40, profiles ``small`` and ``full``)
runs through :class:`~repro.glafexec.Interpreter` and through the
generated-Python path (``GLAF serial``) on the fuzz runner's seeded
arguments.  The result, the output array and every global grid must be
bitwise equal (NaN equal to NaN in float grids).  The generated module is
an independent implementation of the same semantics, so this pins the
interpreter on every construct kind without trusting it as its own
reference.

The vectorized executor must match the interpreter just as exactly: on
the same 80 draws, and on SARB and FUN3D at seeds 1, 3 and 7 (FUN3D also
with ``save_inner_arrays``), its reductions fold in loop order, so nothing
may differ by reassociation.  Its :class:`~repro.glafexec.ExecStats` must
be the interpreter's too: calls, loop iterations and allocations, which
FUN3D's lifted cell sweep accounts for without making the calls.
"""

import numpy as np
import pytest

from repro import fun3d, sarb
from repro.codegen.fortran import FortranGenerator
from repro.core import GlafBuilder, I, T_INT, T_VOID, ref
from repro.errors import ExecutionError, FortranRuntimeError
from repro.fortranlib import FortranRuntime
from repro.fuzz.generate import build_program, generate_spec
from repro.fuzz.profile import STEP_KINDS
from repro.fuzz.runner import _unit_args
from repro.glafexec import (
    ExecutionContext,
    Interpreter,
    VectorizedInterpreter,
    run_generated_python,
)
from repro.optimize import make_plan

SEEDS = range(1, 41)
PROFILES = ("small", "full")


def _same_stats(a, b, where: str) -> None:
    assert b.stats.calls == a.stats.calls, f"{where}: calls"
    assert b.stats.loop_iterations == a.stats.loop_iterations, \
        f"{where}: loop iterations"
    assert b.stats.allocations == a.stats.allocations, f"{where}: allocations"


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return np.array_equal(a, b, equal_nan=np.issubdtype(a.dtype, np.floating))


def test_draws_cover_every_step_kind():
    kinds = {step.kind
             for profile in PROFILES for seed in SEEDS
             for unit in generate_spec(seed, profile).units
             for step in unit.steps}
    assert kinds == set(STEP_KINDS) and len(kinds) == 12


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES)
def test_interpreter_bitwise_equals_generated_python(profile, seed):
    spec = generate_spec(seed, profile)
    program = build_program(spec)
    sizes = {"n": spec.extent}
    for unit in spec.units:
        args = _unit_args(spec, unit)
        ctx = ExecutionContext(program, sizes=sizes)
        result = Interpreter(program, ctx).call(unit.name, list(args))

        gen_args = _unit_args(spec, unit)
        gen_result, gen_ctx = run_generated_python(
            program, unit.name, gen_args, sizes=sizes)

        where = f"{profile} seed {seed} unit {unit.name}"
        assert (result is None) == (gen_result is None), where
        if result is not None:
            assert _same(result, gen_result), where
        assert _same(args[2], gen_args[2]), f"{where}: output y"
        assert sorted(ctx.globals) == sorted(gen_ctx.globals), where
        for name, store in ctx.globals.items():
            assert _same(store, gen_ctx.get(name)), f"{where}: grid {name}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES)
def test_vectorized_bitwise_equals_interpreter(profile, seed):
    spec = generate_spec(seed, profile)
    program = build_program(spec)
    sizes = {"n": spec.extent}
    for unit in spec.units:
        runs = []
        for cls in (Interpreter, VectorizedInterpreter):
            args = _unit_args(spec, unit)
            ctx = ExecutionContext(program, sizes=sizes)
            interp = cls(program, ctx)
            runs.append((interp.call(unit.name, list(args)), args, ctx,
                         interp))
        (result, args, ctx, ref), (vec_result, vec_args, vec_ctx, vec) = runs

        where = f"{profile} seed {seed} unit {unit.name}"
        assert (result is None) == (vec_result is None), where
        if result is not None:
            assert _same(result, vec_result), where
        assert _same(args[2], vec_args[2]), f"{where}: output y"
        for name, store in ctx.globals.items():
            assert _same(store, vec_ctx.get(name)), f"{where}: grid {name}"
        _same_stats(ref, vec, where)


def _case_runs(program, entry, args, save_inner_arrays=False, **context):
    """The interpreter and the vectorized executor on fresh contexts."""
    out = []
    for cls in (Interpreter, VectorizedInterpreter):
        ctx = ExecutionContext(program, **context)
        interp = cls(program, ctx, save_inner_arrays=save_inner_arrays)
        interp.call(entry, list(args))
        out.append((interp, ctx))
    return out


@pytest.mark.parametrize("seed", (1, 3, 7))
def test_vectorized_case_studies_equal_interpreter(seed):
    inp = sarb.make_inputs(seed=seed)
    (ref, ctx), (vec, vec_ctx) = _case_runs(
        sarb.build_sarb_program(inp.dims), "entropy_interface",
        [inp.dims.nv, inp.dims.nblw, inp.dims.nbsw],
        values=sarb.validation._context_values(inp))
    for name in sarb.OUTPUT_NAMES:
        assert np.array_equal(vec_ctx.get(name), ctx.get(name)), name
    _same_stats(ref, vec, f"SARB seed {seed}")

    mesh = fun3d.make_mesh(27, seed)
    for save in (False, True):
        (ref, ctx), (vec, vec_ctx) = _case_runs(
            fun3d.build_fun3d_program(), "edgejp", [mesh.ncell, mesh.nnz],
            sizes=fun3d.mesh_sizes(mesh), values=fun3d.context_values(mesh),
            save_inner_arrays=save)
        where = f"FUN3D seed {seed} save_inner_arrays={save}"
        assert vec.fallbacks == [], where
        for name in ctx.globals:            # jac, and the last cell's grad
            assert _same(ctx.get(name), vec_ctx.get(name)), f"{where}: {name}"
        assert sorted(vec._save_store) == sorted(ref._save_store), where
        for key, store in ref._save_store.items():
            assert _same(store, vec._save_store[key]), f"{where}: {key}"
        _same_stats(ref, vec, where)


def _sweep_draw(seed: int):
    """A seeded sweep ``f`` calling ``leaf(c)``, which writes per-call
    scratch, a module grid, a search result and an accumulator, under
    drawn conditions; some draws carry state the lift must refuse."""
    import random

    from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, ref
    from repro.core.builder import StepBuilder as SB
    from repro.core.expr import FuncCall
    from repro.core.step import CallStmt

    rng = random.Random(seed)
    b = GlafBuilder("sweep")
    for name, ty, dims in (("xs", T_REAL8, ("n",)), ("ix", T_INT, ("n",)),
                           ("ys", T_REAL8, ("n",)), ("g", T_REAL8, (3,)),
                           ("acc", T_REAL8, (4,)), ("tot", T_REAL8, ())):
        b.global_grid(name, ty, dims=dims, module_scope=True)
    m = b.module("M")
    fn = m.function("twice", return_type=rng.choice([T_REAL8, T_INT]))
    fn.param("v", rng.choice([T_REAL8, T_INT]), intent="in")
    fn.returns(ref("v") * 2.0 + 1.0)
    find = m.function("find", return_type=T_INT)
    find.param("lo", T_INT, intent="in")
    find.param("key", T_INT, intent="in")
    s = find.step("scan")
    s.foreach(p=(ref("lo"), 9))
    s.if_(ref("ix", I("p")).eq(ref("key")), [SB.ret(I("p"))])
    find.returns(rng.choice([-1, 0, 1]))
    bump = m.function("bump", return_type=T_VOID)
    bump.param("j", T_INT, intent="in")
    bump.param("w", T_REAL8, intent="in")
    slot = ref("ix", ref("j")) % 4 + 1
    bump.step("add").formula(ref("acc", slot), ref("acc", slot) + ref("w"))
    leaf = m.function("leaf", return_type=T_VOID)
    leaf.param("i", T_INT, intent="in")
    leaf.local("t", T_REAL8, dims=(3,), allocatable=rng.random() < 0.7,
               save=rng.random() < 0.15)
    leaf.local("s", T_REAL8)
    leaf.local("q", T_INT)
    if rng.random() < 0.8:
        s = leaf.step("fill")
        s.foreach(k=(1, 3))
        s.formula(ref("t", I("k")), ref("xs", ref("i")) * I("k"))
    if rng.random() < 0.7:
        s = leaf.step("glob")
        s.foreach(k=(1, 3))
        s.formula(ref("g", I("k")), ref("t", I("k")) + (
            1.0 if rng.random() < 0.8 else ref("g", I("k"))))
    leaf.step("sum").formula(ref("s"), ref("g", 1)
                             + ref("t", rng.choice([1, 2, 3])))
    if rng.random() < 0.5:
        leaf.step("search").formula(ref("q"), FuncCall(
            "find", (rng.choice([ref("i"), 1]), ref("ix", ref("i")))))
    s = leaf.step("out")
    kind = rng.random()
    if kind < 0.4:
        s.condition(ref("xs", ref("i")).gt(rng.choice([-0.5, 0.0, 0.7])))
        s.formula(ref("ys", ref("i")), ref("s") * 2.0)
    elif kind < 0.7:
        s.if_(ref("s").gt(0.5), [CallStmt("bump", (ref("i"), ref("s")))],
              [SB.assign(ref("ys", ref("i")),
                         FuncCall("twice", (ref("xs", ref("i")),)))])
    else:
        s.formula(ref("tot"), ref("tot") + ref("s"))
    f = m.function("f", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    s = f.step("sweep")
    s.foreach(c=(rng.choice([1, 2]), "n", rng.choice([1, 1, 2])))
    if rng.random() < 0.3:
        s.condition(ref("xs", I("c")).lt(1.5))
    body = [CallStmt("leaf", (I("c"),))]
    if rng.random() < 0.4:
        body = [SB.if_stmt(ref("ix", I("c")).gt(3), body)]
    if rng.random() < 0.3:
        body.insert(0, SB.assign(ref("ys", I("c")), ref("xs", I("c")) + 1.0))
    s.step.stmts.extend(body)
    return b.build()


def test_vectorized_sweeps_equal_interpreter():
    """Inlined sweeps match the interpreter in every grid, the save store
    and ExecStats, whether they lift or are refused."""
    lifted = 0
    for seed in range(60):
        program = _sweep_draw(seed)
        data = np.random.default_rng(seed)
        xs, ix = data.standard_normal(9), data.integers(1, 6, 9)
        for save in (False, True):
            runs = []
            for cls in (Interpreter, VectorizedInterpreter):
                ctx = ExecutionContext(program, sizes={"n": 9})
                ctx.get("xs")[...] = xs
                ctx.get("ix")[...] = ix
                interp = cls(program, ctx, save_inner_arrays=save)
                interp.call("f", [9])
                runs.append((interp, ctx))
            (ref, ctx), (vec, vec_ctx) = runs
            where = f"seed {seed} save_inner_arrays={save}"
            for name in ctx.globals:
                assert _same(ctx.get(name), vec_ctx.get(name)), \
                    f"{where}: grid {name}"
            assert sorted(vec._save_store) == sorted(ref._save_store), where
            for key, store in ref._save_store.items():
                assert _same(store, vec._save_store[key]), f"{where}: {key}"
            _same_stats(ref, vec, where)
            lifted += not any(e.function == "f" for e in vec.fallbacks)
    # Not vacuous: most draws really lift.
    assert lifted >= 60


# -- integer division is exact on every back end ---------------------------
def _division_program():
    """``q(i) = a(i) / b(i)`` and ``r(i) = a(i) // b(i)`` over INTEGERs."""
    b = GlafBuilder("idiv")
    f = b.module("M").function("divide", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    for name, intent in (("a", "in"), ("b", "in"), ("q", "out"), ("r", "out")):
        f.param(name, T_INT, dims=("n",), intent=intent)
    for name, target, op in (("div", "q", "/"), ("floordiv", "r", "//")):
        s = f.step(name)
        s.foreach(i=(1, "n"))
        left, right = ref("a", I("i")), ref("b", I("i"))
        s.formula(ref(target, I("i")),
                  left / right if op == "/" else left // right)
    return b.build()


def _interpreter(cls):
    def run(program, args):
        interp = cls(program, ExecutionContext(program))
        interp.call("divide", args)
        assert getattr(interp, "fallbacks", []) == []   # the steps lifted
    return run


def _generated_fortran(program, args):
    rt = FortranRuntime()
    rt.load(FortranGenerator(make_plan(program, "GLAF serial")).generate_module())
    rt.call("divide", args)


DIVISION_BACKENDS = {
    "interpreter": (_interpreter(Interpreter), ExecutionError),
    "vectorized": (_interpreter(VectorizedInterpreter), ExecutionError),
    "generated-python": (
        lambda program, args: run_generated_python(program, "divide", args),
        ZeroDivisionError),
    "generated-fortran": (_generated_fortran, FortranRuntimeError),
}


def _division_args(a, b):
    n = len(a)
    return [n, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
            np.zeros(n, np.int64), np.zeros(n, np.int64)]


@pytest.mark.parametrize("backend", sorted(DIVISION_BACKENDS))
def test_integer_division_above_2_53_is_exact(backend):
    run, _ = DIVISION_BACKENDS[backend]
    a = [2**53 + 1, -(2**62 + 3), 2**62 + 1, -7, 7, 2**63 - 1, -2**63 + 1]
    b = [1, 7, -3, 2, -2, -2, 3]
    want = [abs(x) // abs(y) * (1 if (x < 0) == (y < 0) else -1)
            for x, y in zip(a, b)]
    args = _division_args(a, b)
    run(_division_program(), args)
    assert args[3].tolist() == want
    assert args[4].tolist() == want


@pytest.mark.parametrize("backend", sorted(DIVISION_BACKENDS))
def test_integer_division_by_zero_raises(backend):
    run, error = DIVISION_BACKENDS[backend]
    with pytest.raises(error, match="by zero"):
        run(_division_program(), _division_args([2**53 + 1, 5], [3, 0]))


@pytest.mark.parametrize("backend", sorted(DIVISION_BACKENDS))
def test_integer_division_overflow_raises(backend):
    # -2**63 / -1 is 2**63, one past INTEGER's range: a typed error, or
    # Python's OverflowError in generated Python (as ZeroDivisionError
    # above).
    run, error = DIVISION_BACKENDS[backend]
    if error is ZeroDivisionError:
        error = OverflowError
    with pytest.raises(error):
        run(_division_program(), _division_args([2**53 + 1, -2**63],
                                                [3, -1]))
