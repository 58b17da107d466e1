"""SARB functional-correctness methodology (paper §4.1.1).

Implements the paper's validation pipeline end to end:

1. **Wrapper-based unit testing** — generate a wrapper PROGRAM per
   subroutine with sample inputs, run it against both the legacy original
   and the GLAF-generated code, compare outputs element by element.
2. **Side-by-side comparison** — run the whole pipeline through every
   execution path (NumPy reference, GLAF IR interpreter, generated Python,
   generated FORTRAN on the FORTRAN runtime, legacy FORTRAN) and compare.
3. **Splice-and-run** — substitute the generated subroutines into the
   legacy codebase, run the legacy test-suite driver, and corroborate the
   printed statistics against the original run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..codegen.fortran import FortranGenerator
from ..fortranlib import FortranRuntime
from ..glafexec import ExecutionContext, GeneratedModule, run_configured
from ..errors import NumericIntegrityError
from ..integration import LegacyCodebase, check_program, splice_into_codebase
from ..numeric import AbsolutePolicy, ComparisonResult, compare_grids
from ..optimize.plan import OptimizationPlan, make_plan
from .atmosphere import DEFAULT_DIMS, AtmosphereInputs, SarbDimensions, make_inputs
from .fuliou import SarbState, fresh_state, ref_entropy_interface
from .kernels import SARB_SUBROUTINES, build_sarb_program
from .legacy_src import full_legacy_source

__all__ = ["load_sarb_runtime", "set_sarb_inputs", "read_outputs",
           "run_reference", "run_ir_interpreter", "run_generated_python",
           "run_legacy_fortran", "run_generated_fortran", "run_spliced",
           "build_legacy_codebase", "compare_outputs", "OUTPUT_NAMES",
           "SARB_COMPARE_TOLERANCE"]

OUTPUT_NAMES = ("fulw", "fusw", "fwin", "slw", "ssw")

#: The paper's side-by-side agreement bar for the SARB outputs (§4.1.1).
SARB_COMPARE_TOLERANCE = 1e-9


def compare_outputs(
    got: dict[str, np.ndarray], ref: dict[str, np.ndarray],
    *, tolerance: float = SARB_COMPARE_TOLERANCE,
) -> ComparisonResult:
    """Compare two SARB output sets under the ``abs`` policy.

    A NaN on either side fails loudly, a missing output fails, and the
    worst output is named in the result detail
    (:func:`repro.numeric.compare_grids`).  An empty reference raises
    instead: the paper gate must never pass vacuously.
    """
    outputs = {n: ref[n] for n in OUTPUT_NAMES if n in ref}
    if not outputs:
        raise NumericIntegrityError(
            "compare_outputs: no outputs to compare (empty reference)")
    return compare_grids(got, outputs, AbsolutePolicy(tolerance))


def build_legacy_codebase(dims: SarbDimensions = DEFAULT_DIMS) -> LegacyCodebase:
    legacy = LegacyCodebase("synoptic-sarb")
    for fname, src in full_legacy_source(dims).items():
        legacy.add_file(fname, src)
    return legacy


def load_sarb_runtime(sources: dict[str, str]) -> FortranRuntime:
    rt = FortranRuntime()
    for fname in sorted(sources):
        rt.load(sources[fname])
    return rt


def set_sarb_inputs(rt: FortranRuntime, inp: AtmosphereInputs) -> None:
    """Populate legacy module + COMMON storage from synthetic inputs."""
    fm = rt.modules["fuliou_mod"]
    fin = fm.variables["fin"].store
    fin.fields["tsfc"][()] = inp.tsfc
    fin.fields["pres"][...] = inp.pres
    fin.fields["temp"][...] = inp.temp
    fin.fields["cld"][...] = inp.cld
    fm.variables["taudp"].store[...] = inp.taudp
    fm.variables["tausw"].store[...] = inp.tausw
    rt.call("set_entwts", [inp.wlw.copy(), inp.wsw.copy(), inp.wwin.copy()])


def read_outputs(rt: FortranRuntime) -> dict[str, np.ndarray]:
    rom = rt.modules["rad_output_mod"]
    return {n: rom.variables[n].store.copy() for n in OUTPUT_NAMES}


def run_reference(inp: AtmosphereInputs) -> dict[str, np.ndarray]:
    st = fresh_state(inp.dims.nv)
    ref_entropy_interface(inp, st)
    return {"fulw": st.fulw, "fusw": st.fusw, "fwin": st.fwin,
            "slw": st.slw, "ssw": st.ssw}


def _context_values(inp: AtmosphereInputs) -> dict[str, np.ndarray]:
    return {
        "tsfc": inp.tsfc, "pres": inp.pres, "temp": inp.temp, "cld": inp.cld,
        "taudp": inp.taudp, "tausw": inp.tausw,
        "wlw": inp.wlw, "wsw": inp.wsw, "wwin": inp.wwin,
    }


def run_ir_interpreter(inp: AtmosphereInputs, *, guarded: bool | None = None,
                       executor: str | None = None) -> dict[str, np.ndarray]:
    """Run through the IR execution pipeline.

    Under ``--guarded`` (or explicit ``guarded=True``) execution goes
    through :class:`GuardedRunner`, which checks every plan-parallel step
    for access conflicts and falls back to serial on one (results are
    bit-identical either way — the checked run is the serial run).
    Otherwise the selected executor runs the program: ``executor=None``
    honors the configured one (the CLI's ``--executor`` flag),
    ``"interpreter"`` is the reference path, ``"vectorized"`` lifts loop
    steps to whole-grid array programs, ``"guarded"`` cross-checks the
    vectorized path against the interpreter."""
    program = build_sarb_program(inp.dims)
    ctx = ExecutionContext(program, values=_context_values(inp))
    run_configured(program, "entropy_interface",
                   [inp.dims.nv, inp.dims.nblw, inp.dims.nbsw], context=ctx,
                   guarded=guarded, executor=executor)
    return {n: ctx.get(n).copy() for n in OUTPUT_NAMES}


def run_generated_python(inp: AtmosphereInputs,
                         variant: str = "GLAF serial") -> dict[str, np.ndarray]:
    program = build_sarb_program(inp.dims)
    ctx = ExecutionContext(program, values=_context_values(inp))
    plan = make_plan(program, variant)
    mod = GeneratedModule(plan, ctx)
    mod.call("entropy_interface", [inp.dims.nv, inp.dims.nblw, inp.dims.nbsw])
    return {n: ctx.get(n).copy() for n in OUTPUT_NAMES}


def run_legacy_fortran(inp: AtmosphereInputs) -> tuple[dict[str, np.ndarray], FortranRuntime]:
    rt = load_sarb_runtime(full_legacy_source(inp.dims))
    set_sarb_inputs(rt, inp)
    rt.call("entropy_interface", [inp.dims.nv, inp.dims.nblw, inp.dims.nbsw])
    return read_outputs(rt), rt


def run_generated_fortran(
    inp: AtmosphereInputs, variant: str = "GLAF serial"
) -> tuple[dict[str, np.ndarray], FortranRuntime, str]:
    """Generate FORTRAN for the GLAF program, load it alongside the legacy
    modules (for fuliou_mod / rad_output_mod) and execute the generated
    entry point."""
    program = build_sarb_program(inp.dims)
    plan = make_plan(program, variant)
    source = FortranGenerator(plan).generate_module()
    sources = full_legacy_source(inp.dims)
    rt = FortranRuntime()
    # Load the legacy data modules and setup, but NOT the legacy kernels —
    # the generated module provides the subroutines under test.
    rt.load(sources["fuliou_modules.f90"])
    rt.load(sources["sarb_setup.f90"])
    rt.load(source)
    set_sarb_inputs(rt, inp)
    rt.call("entropy_interface", [inp.dims.nv, inp.dims.nblw, inp.dims.nbsw])
    return read_outputs(rt), rt, source


def run_spliced(
    inp: AtmosphereInputs, variant: str = "GLAF serial",
    subroutines: tuple[str, ...] = SARB_SUBROUTINES,
) -> tuple[dict[str, np.ndarray], FortranRuntime, list]:
    """The paper's final step: substitute the generated subroutines into the
    legacy code and run the provided test-suite driver."""
    program = build_sarb_program(inp.dims)
    plan = make_plan(program, variant)
    legacy = build_legacy_codebase(inp.dims)
    reports = check_program(program, legacy, list(subroutines))
    bad = {n: r for n, r in reports.items() if not r.ok}
    if bad:
        details = "; ".join(
            f"{n}: {[i.message for i in r.errors()]}" for n, r in bad.items()
        )
        raise AssertionError(f"interface checks failed before splicing: {details}")
    result = splice_into_codebase(plan, legacy, list(subroutines))
    rt = FortranRuntime()
    if result.support_source:
        rt.load(result.support_source)
    for fname in sorted(result.files):
        rt.load(result.files[fname])
    set_sarb_inputs(rt, inp)
    rt.run_program("sarb_test_suite")
    return read_outputs(rt), rt, rt.output
