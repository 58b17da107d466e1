"""The case registry: each validation path has one implementation."""

import numpy as np
import pytest

from repro import fun3d, sarb
from repro.cases import CASE_NAMES, Case, get_case

PATHS = ("run_ir_interpreter", "run_generated_python", "run_legacy_fortran",
         "run_generated_fortran", "run_spliced")


@pytest.mark.parametrize("name", CASE_NAMES)
def test_every_exported_path_is_a_method_of_the_registered_case(name):
    case = get_case(name)
    package = {"sarb": sarb, "fun3d": fun3d}[name]
    for module in (package, package.validation):
        exported = {n for n in module.__all__ if n.startswith("run_")}
        assert exported - {"run_reference"} == set(PATHS), module.__name__
        for path in PATHS:
            method = getattr(module, path)
            assert method.__self__ is case, (module.__name__, path)
            assert method.__func__ is getattr(Case, path), (module.__name__,
                                                             path)


def test_the_sample_inputs_are_the_tooling_inputs():
    want = sarb.make_inputs(sarb.DEFAULT_DIMS, seed=0)
    got = get_case("sarb").sample()
    assert got.dims == want.dims and np.array_equal(got.temp, want.temp)
    want = fun3d.make_mesh(n_points=40, seed=42)
    got = get_case("fun3d").sample()
    assert got.ncell == want.ncell and np.array_equal(got.q, want.q)
