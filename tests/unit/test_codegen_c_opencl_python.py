"""Unit tests for the C, OpenCL and executable-Python generators."""

import numpy as np
import pytest

from repro.codegen import (
    generate_c_source,
    generate_opencl,
    generate_python_source,
)
from repro.core import GlafBuilder, I, T_INT, T_REAL8, T_VOID, lib, ref
from repro.core.builder import StepBuilder as SB
from repro.glafexec import ExecutionContext, GeneratedModule
from repro.optimize import Tweaks, make_plan


def _program():
    b = GlafBuilder("cdemo")
    b.derived_type("rt", {"tsfc": (T_REAL8, 0)}, defined_in_module="phys_mod")
    b.global_grid("tsfc", T_REAL8, exists_in_module="phys_mod",
                  type_parent="fin", type_name="rt")
    b.global_grid("w", T_REAL8, dims=(4,), common_block="wts")
    b.global_grid("acc", T_REAL8, dims=(8,), module_scope=True)
    m = b.module("M")
    f = m.function("kern", return_type=T_VOID)
    f.param("n", T_INT, intent="in")
    f.param("a", T_REAL8, dims=("n",), intent="inout")
    f.param("m2", T_REAL8, dims=("n", 4), intent="in")
    s = f.step("init")
    s.foreach(i=(1, "n"))
    s.formula(ref("a", I("i")), 0.0)
    s = f.step("work")
    s.foreach(i=(1, "n"), j=(1, 4))
    s.formula(ref("a", I("i")),
              ref("a", I("i")) + ref("m2", I("i"), I("j")) * ref("w", I("j"))
              + lib("EXP", -ref("m2", I("i"), I("j"))) * 0.0 + ref("tsfc"))
    g = m.function("fval", return_type=T_INT)
    g.param("x", T_REAL8, intent="in")
    g.returns(2)
    return b.build()


class TestCGenerator:
    @pytest.fixture(scope="class")
    def csrc(self):
        return generate_c_source(make_plan(_program(), "GLAF-parallel v0"))

    def test_linearized_indexing(self, csrc):
        # 2-D m2(i, j) -> row-major flattened with -1 shifts.
        assert "m2[(i - 1) * (4) + (j - 1)]" in csrc

    def test_pragma_omp(self, csrc):
        assert "#pragma omp parallel for" in csrc

    def test_common_becomes_extern(self, csrc):
        assert "/* COMMON /wts/ (paper 3.2) */" in csrc
        assert "extern double w[(4)];" in csrc

    def test_module_include(self, csrc):
        assert '#include "phys_mod.h"' in csrc

    def test_type_element_dot_access(self, csrc):
        assert "fin.tsfc" in csrc

    def test_void_function_and_prototype(self, csrc):
        assert "void kern(long n, double *a, const double *m2);" in csrc

    def test_value_function_returns(self, csrc):
        assert "long fval(double x)" in csrc
        assert "return" in csrc

    def test_intrinsics_mapped(self, csrc):
        assert "exp(" in csrc

    def test_reduction_clause_lowercase(self, csrc):
        assert "reduction(+:a)" in csrc

    @pytest.mark.parametrize("multi", [True, False])
    @pytest.mark.parametrize("variant", [f"GLAF-parallel v{k}"
                                         for k in range(4)])
    def test_reductions_match_the_fortran_back_end(self, variant, multi):
        import re

        from repro.codegen.fortran import FortranGenerator
        from repro.sarb import build_sarb_program

        plan = make_plan(build_sarb_program(), variant,
                         tweaks=Tweaks(multi_var_reductions=multi))
        fortran = [re.findall(r"REDUCTION\(([^)]*)\)", line) for line in
                   FortranGenerator(plan).generate_module().splitlines()
                   if line.startswith("!$OMP PARALLEL DO")]
        c = [re.findall(r"reduction\(([^)]*)\)", line) for line in
             generate_c_source(plan).splitlines()
             if line.startswith("#pragma omp parallel for")]
        assert fortran == c
        assert (["+:scratch, slw"] in c) is multi


class TestOpenCLGenerator:
    @pytest.fixture(scope="class")
    def ocl(self):
        return generate_opencl(make_plan(_program(), "GLAF-parallel v0"))

    def test_kernel_per_parallel_step(self, ocl):
        kernel_launches = [l for l in ocl.launch_plan if l.kind == "kernel"]
        assert {l.name for l in kernel_launches} == {"kern_step0", "kern_step1"}

    def test_global_id_mapping_and_guard(self, ocl):
        assert "get_global_id(0)" in ocl.kernels_source
        assert "if (!(" in ocl.kernels_source

    def test_2d_kernel_uses_two_ids(self, ocl):
        assert "get_global_id(1)" in ocl.kernels_source

    def test_buffers_recorded(self, ocl):
        k = next(l for l in ocl.launch_plan if l.name == "kern_step1")
        assert "m2" in k.buffers and "w" in k.buffers

    def test_serial_steps_stay_host_side(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("n", T_INT, intent="in")
        f.param("a", T_REAL8, dims=("n",), intent="inout")
        s = f.step()
        s.foreach(i=(2, "n"))
        s.formula(ref("a", I("i")), ref("a", I("i") - 1))  # carried: serial
        p = b.build()
        out = generate_opencl(make_plan(p, "GLAF-parallel v0"))
        assert all(l.kind == "host" for l in out.launch_plan)


class TestPythonGenerator:
    def test_source_compiles_and_runs(self):
        p = _program()
        ctx = ExecutionContext(
            p, sizes={},
            values={"tsfc": 1.5, "w": np.arange(1.0, 5.0),
                    "acc": np.zeros(8)})
        mod = GeneratedModule(make_plan(p, "GLAF serial"), ctx)
        a = np.zeros(3)
        m2 = np.arange(12.0).reshape(3, 4)
        mod.call("kern", [3, a, m2])
        expected = (m2 * np.arange(1.0, 5.0)).sum(axis=1) + 4 * 1.5
        assert np.allclose(a, expected)

    def test_integer_division_truncates(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_INT)
        f.param("x", T_INT, intent="in")
        f.param("y", T_INT, intent="in")
        f.returns(ref("x") / ref("y"))
        p = b.build()
        ctx = ExecutionContext(p)
        mod = GeneratedModule(make_plan(p, "GLAF serial"), ctx)
        assert mod.call("f", [7, 2]) == 3
        assert mod.call("f", [-7, 2]) == -3  # trunc toward zero, not floor

    def test_save_store_persists(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("bump", return_type=T_VOID)
        f.param("out", T_REAL8, dims=(1,), intent="inout")
        f.local("state", T_REAL8, dims=(1,), save=True)
        s = f.step()
        s.foreach(i=(1, 1))
        s.formula(ref("state", 1), ref("state", 1) + 1.0)
        s.formula(ref("out", 1), ref("state", 1))
        p = b.build()
        ctx = ExecutionContext(p)
        mod = GeneratedModule(make_plan(p, "GLAF serial"), ctx)
        out = np.zeros(1)
        mod.call("bump", [out])
        mod.call("bump", [out])
        assert out[0] == 2.0
        mod.reset_save_store()
        mod.call("bump", [out])
        assert out[0] == 1.0

    def test_scalar_out_param_by_reference(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("setx", return_type=T_VOID)
        f.param("x", T_REAL8, intent="out")
        f.step().formula(ref("x"), 42.0)
        p = b.build()
        ctx = ExecutionContext(p)
        mod = GeneratedModule(make_plan(p, "GLAF serial"), ctx)
        cell = np.zeros(())
        mod.call("setx", [cell])
        assert cell[()] == 42.0

    def test_exit_breaks_innermost(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_VOID)
        f.param("cnt", T_REAL8, dims=(1,), intent="inout")
        s = f.step()
        s.foreach(i=(1, 3), j=(1, 10))
        s.if_(ref("cnt", 1).ge(0.0), [SB.exit_stmt()])  # exit j-loop at once
        s.formula(ref("cnt", 1), ref("cnt", 1) + 1.0)
        p = b.build()
        ctx = ExecutionContext(p)
        mod = GeneratedModule(make_plan(p, "GLAF serial"), ctx)
        cnt = np.zeros(1)
        mod.call("f", [cnt])
        assert cnt[0] == 0.0  # j-loop exits immediately every i iteration

    def test_mod_semantics(self):
        b = GlafBuilder("t")
        m = b.module("M")
        f = m.function("f", return_type=T_INT)
        f.param("x", T_INT, intent="in")
        f.returns(ref("x") % 3)
        p = b.build()
        mod = GeneratedModule(make_plan(p, "GLAF serial"), ExecutionContext(p))
        assert mod.call("f", [7]) == 1
        assert mod.call("f", [-7]) == -1  # FORTRAN MOD follows dividend sign
