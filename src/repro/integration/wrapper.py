"""Correctness-wrapper generation (paper §4.1.1).

"For evaluating the functional correctness of the code, we create a wrapper
function that calls the GLAF auto-generated subroutines and provides sample
values for the required inputs."  This module generates exactly that
wrapper: a FORTRAN PROGRAM that declares the arguments, fills inputs with
supplied sample values, calls the subprogram, and PRINTs every output
element so a harness can compare runs side by side.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..codegen.base import Emitter
from ..codegen.fortran import FortranExprRenderer
from ..core.expr import Const
from ..core.function import GlafProgram
from ..core.types import GlafType, fortran_decl
from ..errors import IntegrationError

__all__ = ["generate_wrapper", "parse_wrapper_output"]


def _literal(renderer: FortranExprRenderer, ty: GlafType, v: Any) -> str:
    if ty is GlafType.T_INT:
        return str(int(v))
    if ty is GlafType.T_LOGICAL:
        return ".TRUE." if v else ".FALSE."
    return renderer.render_const(Const(float(v)))


def generate_wrapper(
    program: GlafProgram,
    fn_name: str,
    sample_inputs: dict[str, Any],
    *,
    module_name: str,
) -> str:
    """Generate a PROGRAM that drives ``fn_name`` with the given samples.

    ``sample_inputs`` maps each dummy-argument name to a scalar or NumPy
    array of sample values; intent(out) arguments may be omitted (they are
    zero-initialized).  Every argument is printed after the call, one
    element per PRINT line, tagged ``name(index) value``.
    """
    fn = program.find_function(fn_name)
    renderer = FortranExprRenderer(program, fn)
    wrapper_name = f"test_{fn_name}"
    em = Emitter()
    em.emit(f"! Correctness wrapper for {fn_name} (paper section 4.1.1)")
    em.emit(f"PROGRAM {wrapper_name}")
    em.indent()
    em.emit(f"USE {module_name}")
    em.emit("IMPLICIT NONE")

    # Resolve symbolic dims from integer sample inputs.
    sizes: dict[str, int] = {}
    for p in fn.params:
        g = fn.grids[p]
        if g.ty is GlafType.T_INT and g.rank == 0 and p in sample_inputs:
            sizes[p] = int(sample_inputs[p])

    arrays: list[tuple[str, tuple[int, ...]]] = []
    for p in fn.params:
        g = fn.grids[p]
        if g.rank == 0:
            em.emit(f"{fortran_decl(g.ty)} :: {g.name}")
        else:
            shape = g.shape(sizes)
            dims = ", ".join(str(n) for n in shape)
            em.emit(f"{fortran_decl(g.ty)} :: {g.name}({dims})")
            arrays.append((p, shape))
    if not fn.is_subroutine:
        em.emit(f"{fortran_decl(fn.return_type)} :: wrapper_result")
    em.blank()

    # Assign sample values.
    for p in fn.params:
        g = fn.grids[p]
        if p not in sample_inputs:
            if g.intent == "in":
                raise IntegrationError(
                    f"wrapper for {fn_name}: intent(in) argument {p!r} needs a sample"
                )
            continue
        v = sample_inputs[p]
        if g.rank == 0:
            em.emit(f"{g.name} = {_literal(renderer, g.ty, v)}")
        else:
            arr = np.asarray(v)
            shape = g.shape(sizes)
            if arr.shape != shape:
                raise IntegrationError(
                    f"wrapper for {fn_name}: sample for {p!r} has shape "
                    f"{arr.shape}, expected {shape}"
                )
            for idx in np.ndindex(*shape):
                subs = ", ".join(str(i + 1) for i in idx)
                em.emit(f"{g.name}({subs}) = {_literal(renderer, g.ty, arr[idx])}")
    em.blank()

    args = ", ".join(fn.params)
    if fn.is_subroutine:
        em.emit(f"CALL {fn_name}({args})")
    else:
        em.emit(f"wrapper_result = {fn_name}({args})")
        em.emit("PRINT *, 'result', wrapper_result")

    # Print every argument element for side-by-side comparison.
    for p in fn.params:
        g = fn.grids[p]
        if g.rank == 0:
            em.emit(f"PRINT *, '{p}', {g.name}")
        else:
            shape = g.shape(sizes)
            for idx in np.ndindex(*shape):
                subs = ", ".join(str(i + 1) for i in idx)
                em.emit(f"PRINT *, '{p}({subs})', {g.name}({subs})")
    em.dedent()
    em.emit(f"END PROGRAM {wrapper_name}")
    return em.text()


def parse_wrapper_output(output: list[tuple]) -> dict[str, float]:
    """Turn the runtime's PRINT log into a {'name(i, j)': value} mapping."""
    out: dict[str, float] = {}
    for entry in output:
        if len(entry) == 2 and isinstance(entry[0], str):
            out[entry[0]] = entry[1]
    return out
