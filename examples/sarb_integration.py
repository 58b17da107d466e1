"""The full Synoptic SARB workflow of paper §4.1, end to end:

1. build the six Table-1 subroutines through the programmatic GPI;
2. check every generated interface against the legacy codebase;
3. splice the generated subroutines into the legacy source and run the
   legacy test-suite driver under the FORTRAN interpreter;
4. reproduce Figure 5 and Figure 6 with the performance model;
5. profile the pipeline under :mod:`repro.observe` (the worked example of
   ``docs/OBSERVABILITY.md``).

Run:  python examples/sarb_integration.py
"""

import numpy as np

from repro.bench import format_table, run_figure5, run_figure6, run_table1
from repro.integration import check_program
from repro.sarb import (
    OUTPUT_NAMES,
    SARB_SUBROUTINES,
    build_legacy_codebase,
    build_sarb_program,
    make_inputs,
    run_legacy_fortran,
    run_reference,
    run_spliced,
)


def main():
    inp = make_inputs()
    program = build_sarb_program(inp.dims)

    print("=== step 1: interface checks against the legacy codebase ===")
    legacy = build_legacy_codebase(inp.dims)
    reports = check_program(program, legacy, list(SARB_SUBROUTINES))
    for name, report in reports.items():
        status = "OK" if report.ok else "FAIL"
        warnings = sum(1 for i in report.issues if i.severity == "warning")
        print(f"  {name:28s} {status}  ({warnings} warning(s))")
    assert all(r.ok for r in reports.values())

    print("\n=== step 2: splice GLAF-parallel v3 into the legacy code ===")
    ref = run_reference(inp)
    leg, _ = run_legacy_fortran(inp)
    spl, rt, driver_output = run_spliced(inp, variant="GLAF-parallel v3")
    max_err = max(float(np.max(np.abs(spl[n] - leg[n]))) for n in OUTPUT_NAMES)
    print(f"  legacy test-suite driver output: {driver_output}")
    print(f"  max |error| vs original serial run: {max_err:.2e}")
    omp = [e for e in rt.omp_log if e.kind == "parallel_do"]
    print(f"  OpenMP regions executed: {len(omp)} "
          f"(both in longwave_entropy_model, COLLAPSE(2)) — the paper's v3")

    print("\n=== step 3: Table 1 (generated SLOC) ===")
    print(format_table(run_table1()))

    print("\n=== step 4: Figure 5 (variant speed-ups vs original serial) ===")
    print(format_table(run_figure5()))

    print("\n=== step 5: Figure 6 (v3 thread scaling vs GLAF serial) ===")
    print(format_table(run_figure6()))

    print("\n=== step 6: where v0's time goes (the 0.48x explanation) ===")
    from repro.optimize import make_plan
    from repro.perf import SimOptions, breakdown_table, i5_2400, \
        overhead_summary, simulate
    from repro.sarb import sarb_workload

    r = simulate(make_plan(program, "GLAF-parallel v0", threads=4),
                 i5_2400, sarb_workload(inp.dims), SimOptions(threads=4))
    print(overhead_summary(r))

    print("\n=== step 7: profile the pipeline itself (docs/OBSERVABILITY.md) ===")
    from repro import observe
    from repro.codegen import generate_fortran_module

    with observe.observed() as obs:
        plan = make_plan(program, "GLAF-parallel v2", threads=4)
        generate_fortran_module(plan)
    record = observe.build_record(command="example", observation=obs)
    for row in record["stages"]:
        print(f"{row['stage']:<12s} {row['calls']:>6d} calls "
              f"{row['cumulative_s'] * 1e3:>10.3f}ms cumulative "
              f"{row['self_s'] * 1e3:>10.3f}ms self")
    pruned = [d for d in record["decisions"] if d["stage"] == "pruning"
              and d["verdict"] == "pruned"]
    print(f"v2 pruned {len(pruned)} directive(s); "
          f"run 'python -m repro profile' for the full decision log")


if __name__ == "__main__":
    main()
