"""Integration: shuffled-order validation of the parallel annotations.

Mechanizes the paper's manual OpenMP-directive verification: every loop a
plan marks PARALLEL DO must be order-independent.  The SARB and FUN3D
kernel sets pass; a deliberately mis-annotated loop fails.
"""

import numpy as np
import pytest

from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, ref
from repro.fun3d import Fun3DOptions, build_fun3d_program, make_fun3d_plan, make_mesh
from repro.fun3d.kernels import context_values
from repro.fun3d.validation import mesh_sizes
from repro.glafexec import validate_parallel_semantics
from repro.optimize import make_plan
from repro.sarb import build_sarb_program, make_inputs
from repro.sarb.validation import _context_values


class TestSarb:
    def test_v0_annotations_are_order_independent(self):
        inp = make_inputs()
        program = build_sarb_program(inp.dims)
        plan = make_plan(program, "GLAF-parallel v0", threads=4)
        v = validate_parallel_semantics(
            program, plan, "entropy_interface",
            lambda: [inp.dims.nv, inp.dims.nblw, inp.dims.nbsw],
            values=_context_values(inp),
            tolerance=1e-9,
        )
        assert v.ok, v.max_abs_error
        # The serial smoothing sweep of adjust2 must NOT have been shuffled.
        assert ("adjust2", 1) not in v.shuffled_steps
        # The big reduction loops were shuffled.
        assert ("longwave_entropy_model", 4) in v.shuffled_steps

    def test_v3_annotations_are_order_independent(self):
        inp = make_inputs()
        program = build_sarb_program(inp.dims)
        plan = make_plan(program, "GLAF-parallel v3", threads=4)
        v = validate_parallel_semantics(
            program, plan, "entropy_interface",
            lambda: [inp.dims.nv, inp.dims.nblw, inp.dims.nbsw],
            values=_context_values(inp),
            tolerance=1e-9,
        )
        assert v.ok
        assert set(v.shuffled_steps) == {
            ("longwave_entropy_model", 4), ("longwave_entropy_model", 5),
        }


class TestFun3D:
    def test_all_options_order_independent(self):
        mesh = make_mesh(27)
        program = build_fun3d_program()
        plan = make_fun3d_plan(
            program, Fun3DOptions(True, True, True, True, True), threads=16)
        v = validate_parallel_semantics(
            program, plan, "edgejp",
            lambda: [mesh.ncell, mesh.nnz],
            sizes=mesh_sizes(mesh),
            values=context_values(mesh),
            seeds=(1, 7),
            tolerance=1e-9,
            # grad is per-cell scratch: its post-run value depends on which
            # cell ran last, by design (the threadprivate story).
            compare=["jac"],
        )
        assert v.ok, v.max_abs_error
        # The indirect jac updates (atomic) were exercised under shuffle.
        assert ("edge_loop", 7) in v.shuffled_steps   # edge_assembly


class TestNegativeControl:
    def test_misannotated_carried_loop_is_caught(self):
        """Force a loop-carried prefix-sum parallel: shuffling must break it."""
        b = GlafBuilder("bad")
        m = b.module("M")
        f = m.function("prefix", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("a", T_REAL8, dims=("n",), intent="inout")
        s = f.step("carried")
        s.foreach(i=(2, "n"))
        s.formula(ref("a", I("i")), ref("a", I("i")) + ref("a", I("i") - 1))
        program = b.build()
        plan = make_plan(program, "GLAF-parallel v0", threads=4,
                         force_parallel=frozenset({("prefix", 0)}))
        # The analyzer correctly refuses (so force_parallel has no effect)...
        assert not plan.step_is_parallel("prefix", 0)
        # ...so to build the negative control we override the verdict.
        plan.parallel_plan.steps[("prefix", 0)].parallel = True
        rng = np.random.default_rng(5)
        data = rng.uniform(1.0, 2.0, 16)
        v = validate_parallel_semantics(
            program, plan, "prefix",
            lambda: [16, data.copy()],
            sizes={"n": 16},
            tolerance=1e-9,
        )
        # Globals are unchanged (a is an argument) — compare directly:
        a_seq = data.copy()
        from repro.glafexec import ExecutionContext, Interpreter
        from repro.glafexec.shuffle import ShuffledInterpreter

        ctx = ExecutionContext(program, sizes={"n": 16})
        Interpreter(program, ctx).call("prefix", [16, a_seq])
        a_shuf = data.copy()
        ctx2 = ExecutionContext(program, sizes={"n": 16})
        ShuffledInterpreter(program, ctx2, plan, seed=5).call("prefix", [16, a_shuf])
        assert not np.allclose(a_seq, a_shuf)

    def test_nan_divergence_is_caught(self):
        """A shuffled run that leaves NaN must fail, not compare as 0.0."""
        b = GlafBuilder("nan")
        b.global_grid("g", T_REAL8, dims=("n",), module_scope=True)
        m = b.module("M")
        f = m.function("carry", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        s = f.step("carried")
        s.foreach(i=(2, "n"))
        s.formula(ref("g", I("i")), ref("g", I("i") - 1) + 1.0)
        program = b.build()
        plan = make_plan(program, "GLAF-parallel v0", threads=4,
                         force_parallel=frozenset({("carry", 0)}))
        plan.parallel_plan.steps[("carry", 0)].parallel = True
        g0 = np.r_[0.0, np.full(15, np.nan)]
        v = validate_parallel_semantics(
            program, plan, "carry", lambda: [16],
            sizes={"n": 16}, values={"g": g0}, tolerance=1e-9,
        )
        assert v.shuffled_steps == [("carry", 0)]
        assert not v.ok
        assert v.max_abs_error == float("inf")
        assert "NaN in got" in v.detail
