"""Bitwise oracle for the FORTRAN-text runtime.

The six FORTRAN paths of the two case studies (legacy, generated and
spliced, for SARB and for FUN3D) must reproduce the GLAF IR interpreter
bit for bit, not merely within the case tolerance.  The reference is the
reference interpreter itself (``guarded=False, executor="interpreter"``),
an evaluator independent of :mod:`repro.fortranlib`, so the check holds on
any host and under every ``REPRO_EXECUTOR`` setting.
"""

from functools import partial

import numpy as np
import pytest

from repro import fun3d, sarb
from repro.cases import CASE_NAMES, get_case

SEEDS = (1, 3, 7)

#: Every case's FORTRAN paths, plus SARB spliced at the most pruned level.
PATHS = {name: get_case(name).fortran_paths() for name in CASE_NAMES}
PATHS["sarb"]["spliced-v3"] = partial(sarb.run_spliced,
                                      variant="GLAF-parallel v3")


@pytest.mark.parametrize("path", sorted(PATHS["sarb"]))
@pytest.mark.parametrize("seed", SEEDS)
def test_sarb_fortran_bitwise_equals_ir_interpreter(seed, path):
    inp = sarb.make_inputs(seed=seed)
    want = sarb.run_ir_interpreter(inp, guarded=False, executor="interpreter")
    got = PATHS["sarb"][path](inp)[0]
    for name in sarb.OUTPUT_NAMES:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("path", sorted(PATHS["fun3d"]))
@pytest.mark.parametrize("seed", SEEDS)
def test_fun3d_fortran_bitwise_equals_ir_interpreter(seed, path):
    mesh = fun3d.make_mesh(27, seed)
    want = fun3d.run_ir_interpreter(mesh, guarded=False, executor="interpreter")
    assert np.array_equal(PATHS["fun3d"][path](mesh)[0], want)
