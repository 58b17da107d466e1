"""FUN3D functional correctness (paper §4.2.1).

"The produced code is integrated with the rest of the program's code, and
output at various stages is compared to that produced by the original on a
representative data set ... the dataset includes a reference root mean
square of the output arrays that is automatically checked at a 1e-7
(absolute) tolerance after all cells have been processed."
"""

from __future__ import annotations

import numpy as np

from ..cases import Case
from ..fortranlib import FortranRuntime
from ..integration import LegacyCodebase
from ..numeric import RmsPolicy
from .jacobian import RMS_TOLERANCE, ref_jacobian_recon
from .kernels import FUN3D_FUNCTIONS, build_fun3d_program, context_values
from .legacy_src import full_legacy_source
from .mesh import TetMesh, make_mesh

__all__ = ["mesh_sizes", "run_reference", "run_ir_interpreter",
           "run_generated_python", "run_legacy_fortran",
           "run_generated_fortran", "run_spliced", "rms_check",
           "build_legacy_codebase", "set_fun3d_inputs", "CASE"]


def mesh_sizes(mesh: TetMesh) -> dict[str, int]:
    return {"nnode": mesh.nnode, "ncell": mesh.ncell, "nedge": mesh.nedge,
            "nnodep1": mesh.nnode + 1, "nnz": mesh.nnz}


def rms_check(jac: np.ndarray, reference: np.ndarray) -> bool:
    """The paper's automatic gate: RMS agreement at 1e-7 absolute.

    Routed through the ``rms`` tolerance policy, so a NaN or infinity in
    either Jacobian fails the gate loudly (``nan <= tol`` is ``False``
    only by accident of direction; the policy makes the semantics
    explicit) and empty arrays raise instead of passing vacuously.
    """
    return bool(RmsPolicy(RMS_TOLERANCE).compare(jac, reference))


def run_reference(mesh: TetMesh) -> np.ndarray:
    return ref_jacobian_recon(mesh)


def set_fun3d_inputs(rt: FortranRuntime, mesh: TetMesh) -> None:
    gm = rt.modules["fun3d_grids_mod"]
    gm.variables["q"].store[...] = mesh.q
    gm.variables["cell_nodes"].store[...] = mesh.cell_nodes
    gm.variables["cell_edges"].store[...] = mesh.cell_edges
    gm.variables["edge_nodes"].store[...] = mesh.edge_nodes
    gm.variables["face_norm"].store[...] = mesh.face_norm
    gm.variables["face_angle"].store[...] = mesh.face_angle
    gm.variables["row_ptr"].store[...] = mesh.row_ptr
    gm.variables["col_idx"].store[...] = mesh.col_idx


#: The FUN3D case: the GLAF decomposition replaces the legacy monolithic
#: ``edgejp``, and the splice appends the four factored-out functions the
#: legacy code lacks.
CASE = Case(
    name="fun3d", codebase="fun3d-mini", entry="edgejp", driver="fun3d_test",
    units=FUN3D_FUNCTIONS, output_module="fun3d_jac_mod", outputs=("jac",),
    support=("fun3d_modules.f90",), check_interfaces=False, add_missing=True,
    program=lambda mesh: build_fun3d_program(),
    sources=full_legacy_source,
    arguments=lambda mesh: [mesh.ncell, mesh.nnz],
    context=lambda mesh: {"sizes": mesh_sizes(mesh),
                          "values": context_values(mesh)},
    set_inputs=set_fun3d_inputs,
    sample=lambda: make_mesh(n_points=40, seed=42),
)


def build_legacy_codebase(mesh: TetMesh) -> LegacyCodebase:
    return CASE.legacy_codebase(full_legacy_source(mesh))


run_ir_interpreter = CASE.run_ir_interpreter
run_generated_python = CASE.run_generated_python
run_legacy_fortran = CASE.run_legacy_fortran
run_generated_fortran = CASE.run_generated_fortran
run_spliced = CASE.run_spliced
