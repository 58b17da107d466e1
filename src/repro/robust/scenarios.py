"""Executable case-study scenarios for guarded execution and faultcheck.

An :class:`ExecScenario` bundles what the robustness tooling needs to run
one paper workload end to end: how to build the GLAF program, the entry
point with its arguments/sizes/values, and which global grids constitute
the observable output.  ``repro profile --guarded`` and the
``repro faultcheck`` sweep both resolve workloads through
:func:`scenario_for`.

Unlike :mod:`repro.robust.faults` / :mod:`repro.robust.watchdog`, this
module imports the case-study packages, so it must be imported explicitly
(``from repro.robust import scenarios``) — never from
``repro.robust.__init__`` (import cycle: sarb/fun3d import glafexec,
which imports robust).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import WorkloadError

__all__ = ["ExecScenario", "SCENARIOS", "scenario_for"]

# setup() -> (program, args, sizes, values, compare)
_Setup = Callable[[], tuple]


@dataclass(frozen=True)
class ExecScenario:
    """One runnable case-study workload for the robustness tooling."""

    name: str
    entry: str
    _setup: _Setup

    def setup(self) -> tuple:
        """``(program, args, sizes, values, compare_grids)`` for one run."""
        return self._setup()

    def run_guarded(self, *, limits=None):
        """Run under :class:`repro.glafexec.GuardedRunner`."""
        from ..glafexec import GuardedRunner

        program, args, sizes, values, _ = self.setup()
        return GuardedRunner(program, limits=limits).run(
            self.entry, args, sizes=sizes, values=values)

    def run_executor(self, executor: str, **kwargs):
        """Run under a named executor (``docs/EXECUTORS.md``)."""
        from ..glafexec import get_executor

        program, args, sizes, values, _ = self.setup()
        return get_executor(executor, **kwargs).run(
            program, self.entry, args, sizes=sizes, values=values)

    def reference(self) -> dict[str, np.ndarray]:
        """Plain-interpreter output snapshot of the compare grids."""
        from ..glafexec import run_interpreted

        program, args, sizes, values, compare = self.setup()
        _, ctx, _ = run_interpreted(program, self.entry, args,
                                    sizes=sizes, values=values)
        return ctx.snapshot(list(compare))


def _sarb_setup() -> tuple:
    from ..sarb.atmosphere import DEFAULT_DIMS, make_inputs
    from ..sarb.kernels import build_sarb_program
    from ..sarb.validation import OUTPUT_NAMES, _context_values

    inp = make_inputs(DEFAULT_DIMS, seed=0)
    program = build_sarb_program(inp.dims)
    args = [inp.dims.nv, inp.dims.nblw, inp.dims.nbsw]
    return program, args, None, _context_values(inp), tuple(OUTPUT_NAMES)


def _fun3d_setup() -> tuple:
    from ..fun3d.kernels import build_fun3d_program, context_values
    from ..fun3d.mesh import make_mesh
    from ..fun3d.validation import mesh_sizes

    mesh = make_mesh(n_points=40, seed=42)
    program = build_fun3d_program()
    return (program, [mesh.ncell, mesh.nnz], mesh_sizes(mesh),
            context_values(mesh), ("jac",))


SCENARIOS: dict[str, ExecScenario] = {
    "sarb": ExecScenario("sarb", "entropy_interface", _sarb_setup),
    "fun3d": ExecScenario("fun3d", "edgejp", _fun3d_setup),
}


def scenario_for(program_name: str) -> ExecScenario:
    try:
        return SCENARIOS[program_name]
    except KeyError:
        raise WorkloadError(
            f"no robustness scenario for program {program_name!r}; "
            f"known: {', '.join(sorted(SCENARIOS))}"
        ) from None
