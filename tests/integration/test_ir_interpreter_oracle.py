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
the same 80 draws, and on SARB and FUN3D at seeds 1, 3 and 7, its
reductions fold in loop order, so nothing may differ by reassociation.
"""

import numpy as np
import pytest

from repro import fun3d, sarb
from repro.fuzz.generate import build_program, generate_spec
from repro.fuzz.profile import STEP_KINDS
from repro.fuzz.runner import _unit_args
from repro.glafexec import (
    ExecutionContext,
    Interpreter,
    VectorizedInterpreter,
    run_generated_python,
)

SEEDS = range(1, 41)
PROFILES = ("small", "full")


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
            runs.append((cls(program, ctx).call(unit.name, list(args)),
                         args, ctx))
        (result, args, ctx), (vec_result, vec_args, vec_ctx) = runs

        where = f"{profile} seed {seed} unit {unit.name}"
        assert (result is None) == (vec_result is None), where
        if result is not None:
            assert _same(result, vec_result), where
        assert _same(args[2], vec_args[2]), f"{where}: output y"
        for name, store in ctx.globals.items():
            assert _same(store, vec_ctx.get(name)), f"{where}: grid {name}"


@pytest.mark.parametrize("seed", (1, 3, 7))
def test_vectorized_case_studies_equal_interpreter(seed):
    inp = sarb.make_inputs(seed=seed)
    want = sarb.run_ir_interpreter(inp, guarded=False, executor="interpreter")
    got = sarb.run_ir_interpreter(inp, guarded=False, executor="vectorized")
    for name in sarb.OUTPUT_NAMES:
        assert np.array_equal(got[name], want[name]), name
    mesh = fun3d.make_mesh(27, seed)
    assert np.array_equal(
        fun3d.run_ir_interpreter(mesh, guarded=False, executor="vectorized"),
        fun3d.run_ir_interpreter(mesh, guarded=False, executor="interpreter"))
