"""Integration test: the full FUN3D methodology of paper §4.2.

Covers the RMS gate, the SAVE/no-reallocation adaptation, the atomic and
critical clause emission for the parallel options, and the full option
lattice's effect on generated code.
"""

import numpy as np
import pytest

from repro.codegen.fortran import FortranGenerator
from repro.fun3d import (
    FUN3D_FUNCTIONS,
    Fun3DOptions,
    build_fun3d_program,
    jac_rms,
    make_fun3d_plan,
    make_mesh,
    rms_check,
    run_generated_fortran,
    run_generated_python,
    run_ir_interpreter,
    run_legacy_fortran,
    run_reference,
    run_spliced,
)


@pytest.fixture(scope="module")
def mesh():
    return make_mesh(64)


@pytest.fixture(scope="module")
def reference(mesh):
    return run_reference(mesh)


class TestCorrectness:
    def test_ir_matches_reference(self, mesh, reference):
        jac = run_ir_interpreter(mesh)
        assert np.allclose(jac, reference, rtol=1e-10, atol=1e-13)
        assert rms_check(jac, reference)

    def test_generated_python_matches(self, mesh, reference):
        jac = run_generated_python(mesh)
        assert np.allclose(jac, reference, rtol=1e-10, atol=1e-13)

    def test_legacy_fortran_matches(self, mesh, reference):
        jac, _ = run_legacy_fortran(mesh)
        assert np.allclose(jac, reference, rtol=1e-10, atol=1e-13)

    def test_generated_fortran_matches_legacy(self, mesh):
        leg, _ = run_legacy_fortran(mesh)
        gen, _, _ = run_generated_fortran(mesh)
        assert np.allclose(gen, leg, rtol=1e-12, atol=1e-14)

    def test_rms_gate_at_1e7(self, mesh, reference):
        jac, _, _ = run_generated_fortran(mesh)
        assert abs(jac_rms(jac) - jac_rms(reference)) <= 1e-7


class TestNoReallocationAdaptation:
    def test_save_reduces_allocations_dramatically(self, mesh):
        _, rt_realloc, _ = run_generated_fortran(mesh)
        _, rt_saved, _ = run_generated_fortran(mesh, save_inner_arrays=True)
        # 50 temporaries re-allocated per edge_loop call vs once ever.
        assert rt_realloc.allocation_count > 20 * rt_saved.allocation_count

    def test_save_does_not_change_numbers(self, mesh):
        a, _, _ = run_generated_fortran(mesh)
        b, _, _ = run_generated_fortran(mesh, save_inner_arrays=True)
        assert np.array_equal(a, b)

    def test_ir_interpreter_save_option(self, mesh):
        a = run_ir_interpreter(mesh)
        b = run_ir_interpreter(mesh, save_inner_arrays=True)
        assert np.array_equal(a, b)


class TestSpliceAndRun:
    def test_spliced_driver_reports_same_rms(self, mesh, reference):
        jac, rt, output = run_spliced(mesh)
        assert np.allclose(jac, reference, rtol=1e-10, atol=1e-13)
        printed = dict(output)
        assert printed["jac_rms"] == pytest.approx(jac_rms(jac), rel=1e-12)

    def test_spliced_files_contain_decomposition(self, mesh):
        from repro.integration import splice_into_codebase
        from repro.fun3d.validation import build_legacy_codebase
        from repro.optimize import make_plan

        program = build_fun3d_program()
        legacy = build_legacy_codebase(mesh)
        result = splice_into_codebase(make_plan(program, "GLAF serial"),
                                      legacy, list(FUN3D_FUNCTIONS),
                                      add_missing=True)
        # edgejp replaced in place; the other four added as new units.
        assert result.replaced["edgejp"] == "fun3d_edgejp.f90"
        added = result.files["glaf_generated_units.f90"]
        for name in ("cell_loop", "edge_loop", "angle_check", "ioff_search"):
            assert name in added


class TestCellSweepLift:
    """The generated and spliced ``edgejp`` sweep ``DO c; CALL
    cell_loop(c)`` lifts in the FORTRAN runtime through the inliner, and
    so does legacy ``edgejp``'s ``DO c``, outlined."""

    @pytest.mark.parametrize("run", [run_generated_fortran, run_spliced])
    def test_sweep_inlines_without_fallback(self, mesh, run):
        from repro import observe

        with observe.observed() as obs:
            run(mesh)
        sweep = [d for d in obs.decisions.for_stage("executor:fallback")
                 if d.function == "edgejp"]
        assert sweep == []
        inline = [d for d in obs.decisions.for_stage("executor:inline")
                  if d.function == "edgejp"]
        assert len(inline) == 1 and inline[0].step_name == "DO c"
        assert inline[0].reasons[0] == (
            "callees: cell_loop, angle_check, edge_loop, ioff_search")
        assert "grad" in inline[0].reasons[1]
        assert obs.metrics.counter("exec.fortran.lifted").value >= 1

    def test_sentinels_run_the_scalar_path_without_fallback(self):
        # While the sentinels are on, every DO statement runs on its scalar
        # closure and records nothing.  What remains are the compile-time
        # refusals of the two callees that run on their own only when the
        # sweep runs scalar.
        from repro import observe
        from repro.cases import get_case
        from repro.numeric import SentinelConfig
        from repro.runconfig import configured

        with observe.observed() as obs, \
                configured(sentinels=SentinelConfig()):
            run_generated_fortran(get_case("fun3d").sample())
        refused = sorted((d.function, d.step_name, d.reasons) for d in
                         obs.decisions.for_stage("executor:fallback"))
        assert refused == [
            ("angle_check", "DO fc", ("RETURN statement in the loop body",)),
            ("ioff_search", "DO p", ("RETURN statement in the loop body",))]
        assert obs.metrics.counter("exec.fortran.fallbacks").value == 2
        assert obs.metrics.counter("exec.fortran.lifted").value == 0

    def test_legacy_cell_loop_outlines_without_fallback(self, mesh):
        # Legacy edgejp's DO c holds the inner DOs, searches and IF that
        # GLAF splits into functions; the runtime outlines them itself.
        from repro import observe

        with observe.observed() as obs:
            run_legacy_fortran(mesh)
        assert obs.decisions.for_stage("executor:fallback") == []
        inline = [d for d in obs.decisions.for_stage("executor:inline")
                  if d.function == "edgejp"]
        assert [d.step_name for d in inline] == ["DO c"]
        callees, expanded = inline[0].reasons
        # The body of DO c, the face-angle search, the IF (flagv == 0)
        # branch, the body of DO e and the CSR offset search.
        assert callees == ("callees: edgejp@27, edgejp@49, edgejp@55, "
                           "edgejp@60, edgejp@64")
        for grid in ("edgejp@27.qa", "edgejp@27.flagv", "edgejp@55.tmp1",
                     "edgejp@60.n1v", "edgejp@60.n2v", "edgejp@60.ioffv",
                     "grad", "tmp2"):
            assert grid in expanded

    def test_legacy_equals_its_scalar_cell_loop(self, mesh):
        from repro.fortranlib import FortranRuntime
        from repro.fun3d.legacy_src import full_legacy_source
        from repro.fun3d.validation import set_fun3d_inputs

        jac, rt = run_legacy_fortran(mesh)
        src = full_legacy_source(mesh)
        head = "  DO c = 1, ncells\n"
        kernel = src["fun3d_edgejp.f90"]
        assert head in kernel
        twin = FortranRuntime()
        for name in sorted(src):
            twin.load(src[name] if name != "fun3d_edgejp.f90" else
                      kernel.replace(head, head + "    IF (.FALSE.) CYCLE\n"))
        set_fun3d_inputs(twin, mesh)
        twin.call("edgejp", [mesh.ncell, mesh.nnz])
        want = twin.modules["fun3d_jac_mod"].variables["jac"].store
        assert jac.tobytes() == want.tobytes()
        assert rt.allocation_count == twin.allocation_count


class TestOptionLatticeCodegen:
    def _source(self, opts: Fun3DOptions) -> str:
        program = build_fun3d_program()
        plan = make_fun3d_plan(program, opts, threads=16)
        return FortranGenerator(plan).generate_module()

    def test_all_off_produces_no_directives(self):
        src = self._source(Fun3DOptions())
        assert "!$OMP PARALLEL DO" not in src

    def test_edgejp_option_annotates_cell_sweep_only(self):
        src = self._source(Fun3DOptions(parallel_edgejp=True))
        assert src.count("!$OMP PARALLEL DO") == 1
        sweep = src[src.index("loop over all cells"):]
        assert sweep.strip().splitlines()[1].startswith("!$OMP PARALLEL DO")

    def test_edge_loop_option_emits_atomic(self):
        src = self._source(Fun3DOptions(parallel_edge_loop=True))
        assert "!$OMP ATOMIC" in src

    def test_ioff_option_emits_critical(self):
        src = self._source(Fun3DOptions(parallel_ioff_search=True))
        assert "!$OMP CRITICAL" in src
        assert "!$OMP END CRITICAL" in src

    def test_cell_loop_option_reduction_clauses(self):
        src = self._source(Fun3DOptions(parallel_cell_loop=True))
        assert "REDUCTION(+:qa)" in src
        assert "REDUCTION(+:grad)" in src

    def test_save_option_changes_declarations(self):
        src = self._source(Fun3DOptions(no_reallocation=True))
        assert "ALLOCATABLE, SAVE :: tmp01(:)" in src
        assert "IF (.NOT. ALLOCATED(tmp01)) ALLOCATE(tmp01(5))" in src

    def test_parallel_options_preserve_results(self, mesh):
        """Generated code for any option combo must compute the same jac
        (directives are semantic no-ops in the sequential runtime)."""
        base, _, _ = run_generated_fortran(mesh)
        program = build_fun3d_program()
        from repro.fortranlib import FortranRuntime
        from repro.fun3d.legacy_src import full_legacy_source
        from repro.fun3d.validation import set_fun3d_inputs

        for opts in (Fun3DOptions(parallel_edgejp=True, no_reallocation=True),
                     Fun3DOptions(parallel_cell_loop=True),
                     Fun3DOptions(True, True, True, True, True)):
            plan = make_fun3d_plan(program, opts, threads=16)
            src = FortranGenerator(plan).generate_module()
            rt = FortranRuntime()
            rt.load(full_legacy_source(mesh)["fun3d_modules.f90"])
            rt.load(src)
            set_fun3d_inputs(rt, mesh)
            rt.call("edgejp", [mesh.ncell, mesh.nnz])
            jac = rt.modules["fun3d_jac_mod"].variables["jac"].store
            assert np.array_equal(jac, base), opts.label
