"""Integration: the access-conflict check of the parallel annotations.

Mechanizes the paper's manual OpenMP-directive verification: one serial
run records which iterations of each plan-parallel step touch which
cells.  SARB's annotations are clean; every FUN3D plan that parallelizes
EdgeJP's cell sweep races on module ``grad`` (and, per option, on ``jac``
and the SAVE'd temporaries); deliberately mis-annotated loops are caught.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, ref
from repro.fun3d import Fun3DOptions, build_fun3d_program, make_fun3d_plan, make_mesh
from repro.fun3d.kernels import context_values
from repro.fun3d.options import all_combinations
from repro.fun3d.validation import mesh_sizes
from repro.glafexec import validate_parallel_semantics
from repro.optimize import Tweaks, make_plan
from repro.sarb import build_sarb_program, make_inputs
from repro.sarb.validation import _context_values

SAVED_TEMPS = {"qa", "eoff"} | {f"tmp{k:02d}" for k in range(1, 7)}


def _sarb(variant, **plan_options):
    inp = make_inputs()
    program = build_sarb_program(inp.dims)
    plan = make_plan(program, variant, threads=4, **plan_options)
    return validate_parallel_semantics(
        program, plan, "entropy_interface",
        [inp.dims.nv, inp.dims.nblw, inp.dims.nbsw],
        values=_context_values(inp))


def _fun3d(opts, n_points, **plan_changes):
    mesh = make_mesh(n_points)
    program = build_fun3d_program()
    plan = replace(make_fun3d_plan(program, opts, threads=16), **plan_changes)
    return validate_parallel_semantics(
        program, plan, "edgejp", [mesh.ncell, mesh.nnz],
        sizes=mesh_sizes(mesh), values=context_values(mesh))


def _grids(v):
    """The conflicting grids; every FUN3D conflict is at edgejp's sweep."""
    assert {(c.function, c.step_index) for c in v.conflicts} <= {("edgejp", 2)}
    return {c.grid for c in v.conflicts}


class TestSarb:
    def test_v0_annotations_are_order_independent(self):
        v = _sarb("GLAF-parallel v0")
        assert v.ok, [str(c) for c in v.conflicts]
        # The serial smoothing sweep of adjust2 must NOT have been checked.
        assert ("adjust2", 1) not in v.checked_steps
        # The big reduction loops were checked.
        assert ("longwave_entropy_model", 4) in v.checked_steps

    def test_v3_annotations_are_order_independent(self):
        v = _sarb("GLAF-parallel v3")
        assert v.ok, [str(c) for c in v.conflicts]
        assert set(v.checked_steps) == {
            ("longwave_entropy_model", 4), ("longwave_entropy_model", 5),
        }

    @pytest.mark.parametrize("variant", ["GLAF-parallel v1", "GLAF-parallel v2"])
    def test_v1_v2_annotations_are_clean(self, variant):
        assert _sarb(variant).ok

    def test_single_variable_reduction_clause_races(self):
        # §4.2.1: a loop with two outputs needs both in its REDUCTION
        # clause; with the tweak off FORTRAN names only the first.
        v = _sarb("GLAF-parallel v0",
                  tweaks=Tweaks(multi_var_reductions=False))
        c, = v.conflicts
        assert (c.function, c.step_index, c.grid) == \
            ("longwave_entropy_model", 4, "slw")


def _expected(opts):
    """Each F7 plan's conflict set (the races the parallel variants carry
    until the directives are fixed)."""
    if not opts.parallel_edgejp:
        return set()
    grids = {"grad"}
    if not opts.parallel_edge_loop:      # jac's update carries no ATOMIC
        grids.add("jac")
    if opts.no_reallocation:             # SAVE makes the temporaries shared
        grids |= SAVED_TEMPS
    return grids


class TestFun3D:
    def test_all_options_order_independent(self):
        v = _fun3d(Fun3DOptions(True, True, True, True, True), 27)
        # The cell sweep shares module grad and the SAVE'd temporaries; jac
        # is only ever updated ATOMIC.
        assert _grids(v) == {"grad"} | SAVED_TEMPS
        # The indirect jac updates (atomic) ran under the check.
        assert ("edge_loop", 7) in v.checked_steps   # edge_assembly

    @pytest.mark.parametrize("opts", all_combinations(), ids=lambda o: o.label)
    def test_f7_plan_conflicts(self, opts):
        assert _grids(_fun3d(opts, 8)) == _expected(opts)

    def test_grad_conflict_names_cells_one_and_two(self):
        v = _fun3d(Fun3DOptions(parallel_edgejp=True), 8)
        grad = next(c for c in v.conflicts if c.grid == "grad")
        assert (grad.cell, grad.first, grad.second, grad.kind) == \
            ((1, 1), (1,), (2,), "write-write")

    def test_threadprivate_grad_leaves_only_jac(self):
        v = _fun3d(Fun3DOptions(parallel_edgejp=True), 8,
                   tweaks=Tweaks(threadprivate_module_arrays=True))
        assert _grids(v) == {"jac"}


class TestNegativeControl:
    def test_misannotated_carried_loop_is_caught(self):
        """Force a loop-carried prefix-sum parallel: the check must flag it."""
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
        data = np.random.default_rng(5).uniform(1.0, 2.0, 16)
        v = validate_parallel_semantics(program, plan, "prefix",
                                        [16, data.copy()], sizes={"n": 16})
        assert v.checked_steps == [("prefix", 0)]
        c, = v.conflicts
        assert c.grid == "a" and c.second[0] == c.first[0] + 1
        assert (c.cell, c.kind) == ((2,), "write-read")

    def test_nan_divergence_is_caught(self):
        """A carried chain through NaN cells is caught by its accesses,
        whatever values flow through it."""
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
            program, plan, "carry", [16], sizes={"n": 16}, values={"g": g0})
        assert v.checked_steps == [("carry", 0)]
        c, = v.conflicts
        assert c.grid == "g" and (c.first, c.second) == ((2,), (3,))
        assert str(c) == "write-read on g(2) in carry/0, iterations 2 and 3"
