"""Tests asserting each §4.2.1 manual-tweak switch changes the emitted code
in the documented way — the paper's complete adaptation list."""

import numpy as np
import pytest

from repro.codegen.fortran import FortranGenerator
from repro.fortranlib import FortranRuntime
from repro.fun3d import Fun3DOptions, build_fun3d_program, make_fun3d_plan, make_mesh
from repro.fun3d.legacy_src import full_legacy_source
from repro.fun3d.validation import set_fun3d_inputs
from repro.optimize import Tweaks, make_plan


@pytest.fixture(scope="module")
def program():
    return build_fun3d_program()


def _src(program, tweaks: Tweaks, variant="GLAF-parallel v0") -> str:
    return FortranGenerator(make_plan(program, variant, tweaks=tweaks)).generate_module()


class TestTweakList:
    def test_bullet1_save_attribute(self, program):
        """'Function-scope arrays from inner functions are applied the save
        attribute ... to reduce excess dynamic reallocation.'"""
        base = _src(program, Tweaks())
        saved = _src(program, Tweaks(save_inner_arrays=True))
        assert "ALLOCATABLE, SAVE :: tmp01(:)" not in base
        assert "ALLOCATABLE, SAVE :: tmp01(:)" in saved

    def test_bullet2_threadprivate(self, program):
        """'Module-scope (and some function-scope) arrays are explicitly
        declared as private or threadprivate as appropriate.'"""
        base = _src(program, Tweaks())
        tp = _src(program, Tweaks(threadprivate_module_arrays=True))
        assert "!$OMP THREADPRIVATE" not in base
        assert "!$OMP THREADPRIVATE(grad)" in tp

    def test_bullet3_copyprivate_pointer_target(self, program):
        """'Some module-scope arrays are replaced with pointers and
        copyprivate clauses when supporting nested parallelism.'"""
        base = _src(program, Tweaks())
        cp = _src(program, Tweaks(copyprivate_pointers=True))
        assert ", TARGET :: grad(5, 3)" not in base
        assert ", TARGET :: grad(5, 3)" in cp

    def test_bullet4_multi_variable_reductions(self):
        """'Reduction clauses are updated to specify multiple reduction
        variables when a loop has effectively more than one output.'"""
        from repro.sarb import build_sarb_program

        sarb = build_sarb_program()
        full = _src(sarb, Tweaks(multi_var_reductions=True))
        assert "REDUCTION(+:scratch, slw)" in full
        crippled = _src(sarb, Tweaks(multi_var_reductions=False))
        assert "REDUCTION(+:scratch, slw)" not in crippled

    def test_bullet5_atomic_updates(self, program):
        """'Atomic update clauses are added to parallel updates to
        module-scope arrays.'"""
        plan = make_fun3d_plan(program, Fun3DOptions(parallel_edge_loop=True))
        src = FortranGenerator(plan).generate_module()
        assert "!$OMP ATOMIC" in src

    def test_bullet6_critical_early_return(self, program):
        """'An OpenMP critical clause is added to the early-return section
        of ioff_search.'"""
        plan = make_fun3d_plan(program, Fun3DOptions(parallel_ioff_search=True))
        src = FortranGenerator(plan).generate_module()
        assert "!$OMP CRITICAL" in src


class TestTweakedCodeStillRuns:
    def test_threadprivate_module_loads_and_runs(self, program):
        mesh = make_mesh(27)
        tweaks = Tweaks(threadprivate_module_arrays=True,
                        copyprivate_pointers=True,
                        save_inner_arrays=True)
        src = _src(program, tweaks)
        rt = FortranRuntime()
        rt.load(full_legacy_source(mesh)["fun3d_modules.f90"])
        rt.load(src)
        set_fun3d_inputs(rt, mesh)
        rt.call("edgejp", [mesh.ncell, mesh.nnz])
        jac = rt.modules["fun3d_jac_mod"].variables["jac"].store
        assert np.any(jac != 0)
        assert any(e.kind == "threadprivate" and "grad" in e.private
                   for e in rt.omp_log)

    def test_tweaks_do_not_change_numbers(self, program):
        mesh = make_mesh(27)

        def run(tweaks):
            src = _src(program, tweaks)
            rt = FortranRuntime()
            rt.load(full_legacy_source(mesh)["fun3d_modules.f90"])
            rt.load(src)
            set_fun3d_inputs(rt, mesh)
            rt.call("edgejp", [mesh.ncell, mesh.nnz])
            return rt.modules["fun3d_jac_mod"].variables["jac"].store.copy()

        base = run(Tweaks())
        tweaked = run(Tweaks(threadprivate_module_arrays=True,
                             copyprivate_pointers=True,
                             save_inner_arrays=True))
        assert np.array_equal(base, tweaked)


def _run_twin(src: str, mesh, twin: bool):
    """Run a generated module, or its twin whose cell sweep ``DO c`` starts
    with ``IF (.FALSE.) CYCLE`` and so runs on the scalar closure: the
    Jacobian, ``grad``, the allocation count and ``omp_log``."""
    head = "    DO c = 1, ncells\n"
    assert head in src
    if twin:
        src = src.replace(head, head + "      IF (.FALSE.) CYCLE\n")
    rt = FortranRuntime()
    rt.load(full_legacy_source(mesh)["fun3d_modules.f90"])
    rt.load(src)
    set_fun3d_inputs(rt, mesh)
    rt.call("edgejp", [mesh.ncell, mesh.nnz])
    return (rt.modules["fun3d_jac_mod"].variables["jac"].store.tobytes(),
            rt.modules["glaf_fun3d_mod"].variables["grad"].store.tobytes(),
            rt.allocation_count, rt.omp_log)


class TestCellSweepLiftIsInvisible:
    @pytest.mark.parametrize("variant,tweaks", [
        ("GLAF serial", Tweaks(save_inner_arrays=False)),
        ("GLAF serial", Tweaks(save_inner_arrays=True)),
        ("GLAF-parallel v0", Tweaks()),
        ("GLAF-parallel v0", Tweaks(threadprivate_module_arrays=True,
                                    copyprivate_pointers=True,
                                    save_inner_arrays=True)),
    ])
    def test_matches_the_scalar_twin(self, program, variant, tweaks):
        mesh = make_mesh(27)
        src = _src(program, tweaks, variant)
        assert _run_twin(src, mesh, twin=False) == _run_twin(src, mesh,
                                                             twin=True)


class TestGlobalsModuleAttributes:
    """The splice path's globals module carries the module-scope
    attributes the tweaks ask for."""

    TWEAKS = [(Tweaks(threadprivate_module_arrays=True),
               "!$OMP THREADPRIVATE(grad)"),
              (Tweaks(copyprivate_pointers=True),
               "REAL(KIND=8), TARGET :: grad(5, 3)")]

    def _spliced(self, program, tweaks):
        from repro.fun3d import FUN3D_FUNCTIONS
        from repro.fun3d.validation import build_legacy_codebase
        from repro.integration import splice_into_codebase

        mesh = make_mesh(27)
        plan = make_plan(program, "GLAF-parallel v0", tweaks=tweaks)
        return mesh, splice_into_codebase(plan, build_legacy_codebase(mesh),
                                          list(FUN3D_FUNCTIONS),
                                          add_missing=True)

    @pytest.mark.parametrize("tweaks,line", TWEAKS)
    def test_generated_and_spliced_text(self, program, tweaks, line):
        plan = make_plan(program, "GLAF-parallel v0", tweaks=tweaks)
        src = FortranGenerator(
            plan, globals_module="glaf_fun3d_globals").generate_module()
        assert line in src.split("END MODULE glaf_fun3d_globals")[0]
        assert src.count(line) == 1
        _, result = self._spliced(program, tweaks)
        assert line in result.support_source

    def test_untweaked_globals_carry_no_attributes(self, program):
        _, result = self._spliced(program, Tweaks())
        assert "THREADPRIVATE" not in result.support_source
        assert "TARGET" not in result.support_source

    def test_spliced_run_logs_threadprivate_grad(self, program):
        mesh, result = self._spliced(
            program, Tweaks(threadprivate_module_arrays=True))
        rt = FortranRuntime()
        rt.load(result.support_source)
        for name in sorted(result.files):
            rt.load(result.files[name])
        set_fun3d_inputs(rt, mesh)
        rt.run_program("fun3d_test")
        assert any(e.kind == "threadprivate" and "grad" in e.private
                   for e in rt.omp_log)
