"""Registry of reproduced experiments: every table and figure of §4.

=====  =========================================================
id     paper artifact
=====  =========================================================
T1     Table 1 — SLOC of the six SARB subroutines
T2     Table 2 — the implementation-variant matrix
F5     Figure 5 — SARB variant speed-ups vs original serial (4T)
F6     Figure 6 — v3 thread scaling vs GLAF serial
F7     Figure 7 — FUN3D option-lattice speed-ups (16T) + manual
C1     §4.1.1 — SARB functional-correctness gates
C2     §4.2.1 — FUN3D RMS gate at 1e-7
X1     docs/EXECUTORS.md — vectorized-executor speedup vs interpreter
X2     docs/BATCH.md — warm-artifact-cache batch throughput vs cold
=====  =========================================================
"""

from __future__ import annotations

from typing import Any

from ..fun3d.perffig import PAPER_FIGURE7, figure7_rows
from ..sarb.perffig import (
    PAPER_FIGURE5,
    PAPER_FIGURE6,
    PAPER_TABLE1,
    figure5_rows,
    figure6_rows,
    table1_rows,
    table2_rows,
)
from .harness import Experiment, ExperimentResult

__all__ = ["EXPERIMENTS", "get_experiment", "run_table1", "run_table2",
           "run_figure5", "run_figure6", "run_figure7",
           "run_sarb_correctness", "run_fun3d_correctness",
           "run_executor_speedup", "EXECUTOR_SPEEDUP_GATE",
           "run_warm_cache", "WARM_CACHE_HIT_GATE",
           "WARM_CACHE_SPEEDUP_GATE"]


def run_table1() -> ExperimentResult:
    ours = table1_rows()
    rows = [
        [name, PAPER_TABLE1[name], ours[name]]
        for name in ours
    ]
    return ExperimentResult(
        experiment_id="T1",
        title="Subroutines implemented using GLAF (SLOC)",
        headers=["subroutine", "paper SLOC", "our generated SLOC"],
        rows=rows,
        notes=("Paper SLOC counts NASA's original sources; ours counts the "
               "synthetic kernels' generated FORTRAN. The ordering (the "
               "longwave entropy model dominating) is the comparable shape."),
    )


def run_table2() -> ExperimentResult:
    rows = [[name, desc] for name, desc in table2_rows()]
    return ExperimentResult(
        experiment_id="T2",
        title="Synoptic SARB implementations",
        headers=["Implementation", "Description"],
        rows=rows,
    )


def run_figure5() -> ExperimentResult:
    rows = []
    for name, speedup in figure5_rows():
        rows.append([name, PAPER_FIGURE5[name], round(speedup, 3)])
    return ExperimentResult(
        experiment_id="F5",
        title="Speed-up of GLAF-generated versions vs original serial "
              "(SARB kernels, 4 threads)",
        headers=["implementation", "paper", "model"],
        rows=rows,
    )


def run_figure6() -> ExperimentResult:
    rows = []
    for threads, speedup in figure6_rows():
        rows.append([f"{threads}T", PAPER_FIGURE6[threads], round(speedup, 3)])
    return ExperimentResult(
        experiment_id="F6",
        title="GLAF-parallel v3 speed-up vs GLAF serial, by thread count",
        headers=["threads", "paper", "model"],
        rows=rows,
    )


def run_figure7(ncell: int = 1_000_000) -> ExperimentResult:
    rows = []
    for r in sorted(figure7_rows(ncell), key=lambda x: x.speedup):
        rows.append([r.label, round(r.speedup, 4)])
    return ExperimentResult(
        experiment_id="F7",
        title="FUN3D 16-thread speed-up over original serial, all option "
              "combinations + manual",
        headers=["configuration", "speed-up"],
        rows=rows,
        notes=(f"paper anchors: manual {PAPER_FIGURE7['manual']}x, best GLAF "
               f"{PAPER_FIGURE7['best_glaf']}x, worst ~1/128x"),
    )


def run_sarb_correctness() -> ExperimentResult:
    from ..sarb import (
        make_inputs,
        run_generated_fortran,
        run_generated_python,
        run_ir_interpreter,
        run_legacy_fortran,
        run_reference,
        run_spliced,
    )
    from ..sarb.validation import SARB_COMPARE_TOLERANCE, compare_outputs

    inp = make_inputs()
    ref = run_reference(inp)
    paths = {
        "IR interpreter": run_ir_interpreter(inp),
        "generated Python": run_generated_python(inp),
        "legacy FORTRAN": run_legacy_fortran(inp)[0],
        "generated FORTRAN": run_generated_fortran(inp)[0],
        "spliced v3 run": run_spliced(inp, variant="GLAF-parallel v3")[0],
    }
    rows = []
    for label, outs in paths.items():
        # NaN/Inf-aware: a NaN in any output fails this gate loudly
        # instead of slipping past the naive max-abs comparison.
        res = compare_outputs(outs, ref, tolerance=SARB_COMPARE_TOLERANCE)
        rows.append([label, res.max_error, "PASS" if res.ok else "FAIL"])
    return ExperimentResult(
        experiment_id="C1",
        title="SARB side-by-side functional comparison (max abs error vs "
              "NumPy reference)",
        headers=["execution path", "max |err|", "verdict"],
        rows=rows,
    )


def run_fun3d_correctness() -> ExperimentResult:
    from ..fun3d import (
        jac_rms,
        make_mesh,
        rms_check,
        run_generated_fortran,
        run_ir_interpreter,
        run_legacy_fortran,
        run_reference,
        run_spliced,
    )

    mesh = make_mesh(27)
    ref = run_reference(mesh)
    paths = {
        "IR interpreter": run_ir_interpreter(mesh),
        "legacy FORTRAN": run_legacy_fortran(mesh)[0],
        "generated FORTRAN": run_generated_fortran(mesh)[0],
        "generated FORTRAN + SAVE": run_generated_fortran(
            mesh, save_inner_arrays=True)[0],
        "spliced run": run_spliced(mesh)[0],
    }
    rows = []
    for label, jac in paths.items():
        rows.append([
            label,
            jac_rms(jac),
            abs(jac_rms(jac) - jac_rms(ref)),
            "PASS" if rms_check(jac, ref) else "FAIL",
        ])
    return ExperimentResult(
        experiment_id="C2",
        title="FUN3D RMS reference check at 1e-7 absolute tolerance",
        headers=["execution path", "jac RMS", "|RMS err|", "verdict"],
        rows=rows,
    )


#: The vectorized executor must beat the interpreter by at least this
#: factor on the scaled SARB workload.  Measured warm headroom is
#: ~23-38x against the step-compiling interpreter, so this gate survives
#: noisy CI hosts.
EXECUTOR_SPEEDUP_GATE = 10.0


def _warm_times(run) -> tuple[float, Any, float, Any]:
    """Interpreter ms and output, then vectorized ms and output, of
    ``run(executor)``: one untimed warm-up call of each executor, then the
    median of three timed calls of each."""
    import statistics
    import time

    for how in ("interpreter", "vectorized"):
        run(how)
    out: list[Any] = []
    for how in ("interpreter", "vectorized"):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            result = run(how)
            times.append(time.perf_counter() - t0)
        out += [statistics.median(times) * 1e3, result]
    return tuple(out)


def run_executor_speedup() -> ExperimentResult:
    """Measured interpreter-vs-vectorized wall time (docs/EXECUTORS.md).

    Both case studies run under both executors with identical inputs;
    outputs must agree at the case study's own tolerance, and the scaled
    SARB workload must clear :data:`EXECUTOR_SPEEDUP_GATE`.  FUN3D is
    reported but not speed-gated: its hot loop calls a subprogram per
    cell, which the vectorizer correctly demotes to the interpreter
    (``executor:fallback``), so only the pointwise steps are lifted.

    Each executor is timed as the median of three calls after one untimed
    warm-up call of every executor, so set-up a process pays once (lazy
    imports such as the dataflow engine behind lift analysis) lands on
    neither side.
    """
    from ..fun3d import make_mesh, rms_check
    from ..fun3d import run_ir_interpreter as fun3d_run
    from ..sarb import make_inputs
    from ..sarb import run_ir_interpreter as sarb_run
    from ..sarb.atmosphere import SarbDimensions
    from ..sarb.validation import SARB_COMPARE_TOLERANCE, compare_outputs

    rows = []

    # SARB at scaled dimensions: enough work per step for the array path
    # to amortize its per-step setup (the paper-default dims still show
    # >10x, the scaled run shows the asymptotic picture).
    inp = make_inputs(SarbDimensions(nv=600, nblw=24, nbsw=12))
    t_interp, ref, t_vec, vec = _warm_times(
        lambda how: sarb_run(inp, executor=how))
    agree = compare_outputs(vec, ref, tolerance=SARB_COMPARE_TOLERANCE).ok
    speedup = t_interp / t_vec
    rows.append(["SARB nv=600", round(t_interp, 2), round(t_vec, 2),
                 round(speedup, 1),
                 "PASS" if agree and speedup >= EXECUTOR_SPEEDUP_GATE
                 else "FAIL"])

    # FUN3D: correctness-gated only (see docstring).
    mesh = make_mesh(27)
    t_interp, jac_ref, t_vec, jac_vec = _warm_times(
        lambda how: fun3d_run(mesh, executor=how))
    rows.append(["FUN3D mesh 27", round(t_interp, 2), round(t_vec, 2),
                 round(t_interp / t_vec, 1),
                 "PASS" if rms_check(jac_vec, jac_ref) else "FAIL"])

    return ExperimentResult(
        experiment_id="X1",
        title="Vectorized executor vs reference interpreter (measured wall "
              "time)",
        headers=["workload", "interp ms", "vectorized ms", "speedup",
                 "verdict"],
        rows=rows,
        notes=(f"gate: SARB speedup >= {EXECUTOR_SPEEDUP_GATE:g}x with "
               "outputs agreeing at each case study's tolerance; FUN3D is "
               "correctness-gated only (per-cell subprogram call demotes "
               "its hot loop to the interpreter); times are the median of "
               "three calls after one warm-up call of each executor."),
    )


#: The warm (cached) batch run must serve at least this fraction of its
#: items from the content-addressed artifact cache …
WARM_CACHE_HIT_GATE = 0.9
#: … and finish at least this many times faster than the cold run.  The
#: measured headroom is large (a hit is one JSON read vs a full
#: parse→…→lint compile), so 2x survives noisy CI hosts.
WARM_CACHE_SPEEDUP_GATE = 2.0


def run_warm_cache() -> ExperimentResult:
    """Cold-vs-warm batch compile throughput (docs/BATCH.md).

    One fuzz-drawn corpus is compiled twice through the real batch
    driver against a fresh content-addressed cache: the first (cold) run
    fills it, the second (warm) run must hit for at least
    :data:`WARM_CACHE_HIT_GATE` of the items and clear
    :data:`WARM_CACHE_SPEEDUP_GATE` end-to-end — and both runs must
    produce the same manifest digest, proving a cache hit is
    observationally equivalent to a recompile.  Serial, with
    checkpointing off, so the numbers measure the cache rather than the
    process pool or checkpoint I/O.
    """
    import tempfile
    import time

    from ..batch import BatchOptions, ingest_corpus, run_batch

    items = ingest_corpus(["fuzz:11:12"])
    with tempfile.TemporaryDirectory(prefix="repro-warm-cache-") as tmp:
        options = BatchOptions(
            jobs=1, retries=0,
            cache_dir=f"{tmp}/cache", checkpoint_dir=None,
            quarantine_dir=f"{tmp}/quarantine")
        rows = []
        digests = []
        timings = {}
        for phase in ("cold", "warm"):
            t0 = time.perf_counter()
            result = run_batch(items, options)
            wall = time.perf_counter() - t0
            timings[phase] = wall
            cache = result.stats["cache"]
            hit_rate = cache["hits"] / result.stats["items"]
            digests.append(result.manifest["content_sha256"])
            ok = (result.stats["failed"] == 0
                  and result.stats["quarantined"] == 0
                  and (phase == "cold"
                       or hit_rate >= WARM_CACHE_HIT_GATE))
            rows.append([phase, result.stats["items"], cache["hits"],
                         cache["misses"], round(hit_rate, 3),
                         round(wall * 1e3, 2),
                         "PASS" if ok else "FAIL"])
        speedup = timings["cold"] / timings["warm"]
        rows.append(["warm speedup", "", "", "", "",
                     round(speedup, 1),
                     "PASS" if speedup >= WARM_CACHE_SPEEDUP_GATE
                     and digests[0] == digests[1] else "FAIL"])
    return ExperimentResult(
        experiment_id="X2",
        title="Batch compile throughput: cold vs warm artifact cache",
        headers=["phase", "items", "hits", "misses", "hit rate", "ms",
                 "verdict"],
        rows=rows,
        notes=(f"gates: warm hit rate >= {WARM_CACHE_HIT_GATE:.0%} and "
               f"warm run >= {WARM_CACHE_SPEEDUP_GATE:g}x faster than "
               "cold, with cold and warm manifests digest-identical."),
    )


EXPERIMENTS: dict[str, Experiment] = {
    "T1": Experiment("T1", "Table 1: SLOC per subroutine", "Table 1", run_table1),
    "T2": Experiment("T2", "Table 2: implementation matrix", "Table 2", run_table2),
    "F5": Experiment("F5", "Figure 5: SARB variant speed-ups", "Figure 5", run_figure5),
    "F6": Experiment("F6", "Figure 6: v3 thread scaling", "Figure 6", run_figure6),
    "F7": Experiment("F7", "Figure 7: FUN3D option lattice", "Figure 7", run_figure7),
    "C1": Experiment("C1", "SARB correctness gates", "§4.1.1", run_sarb_correctness),
    "C2": Experiment("C2", "FUN3D RMS gate", "§4.2.1", run_fun3d_correctness),
    "X1": Experiment("X1", "Executor speedup: vectorized vs interpreter",
                     "docs/EXECUTORS.md", run_executor_speedup),
    "X2": Experiment("X2", "Batch throughput: warm artifact cache vs cold",
                     "docs/BATCH.md", run_warm_cache),
}


def get_experiment(experiment_id: str) -> Experiment:
    return EXPERIMENTS[experiment_id]
