"""Bitwise oracle for the FORTRAN-text runtime.

The six FORTRAN paths of the two case studies (legacy, generated and
spliced, for SARB and for FUN3D) must reproduce the GLAF IR interpreter
bit for bit, not merely within the case tolerance.  The reference is the
reference interpreter itself (``guarded=False, executor="interpreter"``),
an evaluator independent of :mod:`repro.fortranlib`, so the check holds on
any host and under every ``REPRO_EXECUTOR`` setting.
"""

import numpy as np
import pytest

from repro import fun3d, sarb

SEEDS = (1, 3, 7)

SARB_PATHS = {
    "legacy": lambda inp: sarb.run_legacy_fortran(inp)[0],
    "generated": lambda inp: sarb.run_generated_fortran(inp)[0],
    "spliced": lambda inp: sarb.run_spliced(inp)[0],
    "spliced-v3": lambda inp: sarb.run_spliced(inp, variant="GLAF-parallel v3")[0],
}

FUN3D_PATHS = {
    "legacy": lambda mesh: fun3d.run_legacy_fortran(mesh)[0],
    "generated": lambda mesh: fun3d.run_generated_fortran(mesh)[0],
    "spliced": lambda mesh: fun3d.run_spliced(mesh)[0],
}


@pytest.mark.parametrize("path", sorted(SARB_PATHS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sarb_fortran_bitwise_equals_ir_interpreter(seed, path):
    inp = sarb.make_inputs(seed=seed)
    want = sarb.run_ir_interpreter(inp, guarded=False, executor="interpreter")
    got = SARB_PATHS[path](inp)
    for name in sarb.OUTPUT_NAMES:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("path", sorted(FUN3D_PATHS))
@pytest.mark.parametrize("seed", SEEDS)
def test_fun3d_fortran_bitwise_equals_ir_interpreter(seed, path):
    mesh = fun3d.make_mesh(27, seed)
    want = fun3d.run_ir_interpreter(mesh, guarded=False, executor="interpreter")
    assert np.array_equal(FUN3D_PATHS[path](mesh), want)
