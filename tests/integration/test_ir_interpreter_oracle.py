"""Bitwise oracle: the IR interpreter against generated Python.

Every unit the fuzzer draws (seeds 1-40, profiles ``small`` and ``full``)
runs through :class:`~repro.glafexec.Interpreter` and through the
generated-Python path (``GLAF serial``) on the fuzz runner's seeded
arguments.  The result, the output array and every global grid must be
bitwise equal (NaN equal to NaN in float grids).  The generated module is
an independent implementation of the same semantics, so this pins the
interpreter on every construct kind without trusting it as its own
reference.
"""

import numpy as np
import pytest

from repro.fuzz.generate import build_program, generate_spec
from repro.fuzz.profile import STEP_KINDS
from repro.fuzz.runner import _unit_args
from repro.glafexec import ExecutionContext, Interpreter, run_generated_python

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
