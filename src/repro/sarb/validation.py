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

import numpy as np

from ..cases import Case
from ..errors import NumericIntegrityError
from ..fortranlib import FortranRuntime
from ..integration import LegacyCodebase
from ..numeric import AbsolutePolicy, ComparisonResult, compare_grids
from .atmosphere import DEFAULT_DIMS, AtmosphereInputs, SarbDimensions, make_inputs
from .fuliou import fresh_state, ref_entropy_interface
from .kernels import SARB_SUBROUTINES, build_sarb_program
from .legacy_src import full_legacy_source

__all__ = ["set_sarb_inputs", "read_outputs", "run_reference",
           "run_ir_interpreter", "run_generated_python",
           "run_legacy_fortran", "run_generated_fortran", "run_spliced",
           "build_legacy_codebase", "compare_outputs", "OUTPUT_NAMES",
           "SARB_COMPARE_TOLERANCE", "CASE"]

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


#: The SARB case: the generated module loads beside the legacy data
#: modules and setup, and the splice is interface-checked first.
CASE = Case(
    name="sarb", codebase="synoptic-sarb", entry="entropy_interface",
    driver="sarb_test_suite", units=SARB_SUBROUTINES,
    output_module="rad_output_mod", outputs=OUTPUT_NAMES,
    support=("fuliou_modules.f90", "sarb_setup.f90"),
    check_interfaces=True, add_missing=False,
    program=lambda inp: build_sarb_program(inp.dims),
    sources=lambda inp: full_legacy_source(inp.dims),
    arguments=lambda inp: [inp.dims.nv, inp.dims.nblw, inp.dims.nbsw],
    context=lambda inp: {"values": _context_values(inp)},
    set_inputs=set_sarb_inputs,
    sample=lambda: make_inputs(DEFAULT_DIMS, seed=0),
)


def build_legacy_codebase(dims: SarbDimensions = DEFAULT_DIMS) -> LegacyCodebase:
    return CASE.legacy_codebase(full_legacy_source(dims))


read_outputs = CASE.read_outputs
run_ir_interpreter = CASE.run_ir_interpreter
run_generated_python = CASE.run_generated_python
run_legacy_fortran = CASE.run_legacy_fortran
run_generated_fortran = CASE.run_generated_fortran
run_spliced = CASE.run_spliced
