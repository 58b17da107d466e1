"""Figure-5 / Figure-6 / Table-1 / Table-2 harnesses for the SARB study."""

from __future__ import annotations

from ..codegen.fortran import FortranGenerator
from ..codegen.sloc import module_unit_slocs
from ..optimize.plan import make_plan
from ..optimize.pruning import describe_variants
from ..perf.machine import MachineSpec, i5_2400
from ..perf.simulate import SimOptions, SimResult, simulate
from .atmosphere import DEFAULT_DIMS, SarbDimensions
from .kernels import SARB_SUBROUTINES, build_sarb_program, sarb_workload

__all__ = ["PAPER_FIGURE5", "PAPER_FIGURE6", "PAPER_TABLE1",
           "figure5_rows", "figure6_rows", "table1_rows", "table2_rows",
           "simulate_variant"]

# Paper-reported values.
PAPER_FIGURE5 = {
    "original serial": 1.00,
    "GLAF serial": 0.89,
    "GLAF-parallel v0": 0.48,
    "GLAF-parallel v1": 0.66,
    "GLAF-parallel v2": 1.11,
    "GLAF-parallel v3": 1.41,
}
PAPER_FIGURE6 = {1: 0.92, 2: 1.24, 4: 1.59, 8: 0.70}
PAPER_TABLE1 = {
    "lw_spectral_integration": 75,
    "longwave_entropy_model": 422,
    "sw_spectral_integration": 50,
    "shortwave_entropy_model": 13,
    "entropy_interface": 46,
    "adjust2": 38,
}


def simulate_variant(variant: str, threads: int = 4, *,
                     monolithic: bool = False,
                     dims: SarbDimensions = DEFAULT_DIMS,
                     machine: MachineSpec = i5_2400) -> SimResult:
    program = build_sarb_program(dims)
    wl = sarb_workload(dims)
    plan = make_plan(program, variant, threads=threads)
    return simulate(plan, machine, wl,
                    SimOptions(threads=threads, monolithic=monolithic))


def figure5_rows(dims: SarbDimensions = DEFAULT_DIMS,
                 machine: MachineSpec = i5_2400,
                 *, include_auto: bool = False) -> list[tuple[str, float]]:
    """Speed-up of each Table-2 variant vs the original serial (4 threads).

    With ``include_auto`` an extra bar is appended for the model-guided
    advisor's variant — the future-work extension, not a paper bar.
    """
    base = simulate_variant("original serial", threads=1, monolithic=True,
                            dims=dims, machine=machine)
    rows = [("original serial", 1.0)]
    for name in ("GLAF serial", "GLAF-parallel v0", "GLAF-parallel v1",
                 "GLAF-parallel v2", "GLAF-parallel v3"):
        threads = 1 if name == "GLAF serial" else 4
        r = simulate_variant(name, threads=threads, dims=dims, machine=machine)
        rows.append((name, base.total_cycles / r.total_cycles))
    if include_auto:
        from ..optimize.advisor import advise

        auto_plan, _ = advise(build_sarb_program(dims), machine,
                              sarb_workload(dims), threads=4)
        r = simulate(auto_plan, machine, sarb_workload(dims),
                     SimOptions(threads=4))
        rows.append(("GLAF-parallel auto", base.total_cycles / r.total_cycles))
    return rows


def figure6_rows(dims: SarbDimensions = DEFAULT_DIMS,
                 machine: MachineSpec = i5_2400) -> list[tuple[int, float]]:
    """Speed-up of GLAF-parallel v3 over GLAF serial, by thread count."""
    glaf_serial = simulate_variant("GLAF serial", threads=1, dims=dims,
                                   machine=machine)
    rows = []
    for t in (1, 2, 4, 8):
        r = simulate_variant("GLAF-parallel v3", threads=t, dims=dims,
                             machine=machine)
        rows.append((t, glaf_serial.total_cycles / r.total_cycles))
    return rows


def table1_rows(dims: SarbDimensions = DEFAULT_DIMS) -> dict[str, int]:
    """Generated-FORTRAN SLOC per subroutine (our Table 1)."""
    program = build_sarb_program(dims)
    plan = make_plan(program, "GLAF-parallel v0")
    source = FortranGenerator(plan).generate_module()
    slocs = module_unit_slocs(source)
    return {name: slocs[name] for name in SARB_SUBROUTINES}


def table2_rows() -> list[tuple[str, str]]:
    """The implementation matrix (Table 2)."""
    return describe_variants()
