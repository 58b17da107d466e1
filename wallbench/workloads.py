"""The four wallbench workloads.

A workload turns a seed into inputs and references during set-up, then
hands the harness one round of :class:`Call` objects at a time.  Every
round holds the same mix of calls, so runs that end on a round boundary
measure the same program mix however long they last.

Each call has two forms:

``run``
    The program's own entry point, exactly as a user calls it
    (``run_legacy_fortran``, ``run_item``, ``run_campaign``, ...).  Only
    this form produces the end-to-end metrics.
``traced``
    The same sequence of layer calls, written out here with a span of
    the benchmark's own :class:`repro.observe.Tracer` around each public
    layer call.  The program's global tracer stays off.  Its output must
    be identical to the entry point's, which the harness checks.

Layers are the repository's modules; a span name is ``<layer>.<what>``
and becomes the per-layer metric ``<layer>.<what>_ms``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import WallbenchError

__all__ = ["Call", "OpRecord", "WORKLOADS", "digest", "fun3d_mesh"]

#: FUN3D meshes are drawn until one has exactly this many cells, of which
#: exactly this many pass the face-angle check.  The per-cell loop
#: dominates every FUN3D path, and only cells that pass the check run its
#: edge loop, so fixing both keeps the work per op the same for every seed
#: while the geometry and the flow state still vary.  Between 64 and 85 of
#: 96 cells pass, and with them the FUN3D op times moved by up to 20%.
#: These are the most common counts that ``make_mesh(27, ...)`` produces.
FUN3D_CELLS, FUN3D_EDGE_CELLS = 96, 72


@dataclass
class Call:
    """One timed call into the program, covering ``ops`` operations.

    ``run`` and ``traced`` return ``(failed_ops, output)``, and their
    outputs must digest identically.  ``side``, when set, runs after the
    traced op (outside its span) and returns extra per-layer counts from
    the op's output; the harness adds its time as the count ``side_s``.
    """

    label: str
    ops: int
    run: Callable[[], tuple[int, Any]]
    traced: Callable[[Any], tuple[int, Any]]
    side: Callable[[Any], dict[str, float]] | None = None


@dataclass
class OpRecord:
    """What one traced call spent, by layer."""

    label: str
    ops: int
    wall_s: float
    self_s: dict[str, float]
    counts: dict[str, float]
    unattributed_s: float


def digest(obj: Any) -> str:
    """A sha256 over arrays, strings, numbers, containers of them, and
    objects with a ``to_json`` document."""
    h = hashlib.sha256()

    def feed(o: Any) -> None:
        if hasattr(o, "to_json"):
            feed(o.to_json())
        elif isinstance(o, np.ndarray):
            a = np.ascontiguousarray(o)
            h.update(f"nd{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
        elif isinstance(o, dict):
            h.update(b"{")
            for k in sorted(o):
                feed(str(k))
                feed(o[k])
            h.update(b"}")
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        else:
            h.update(json.dumps(o, sort_keys=True, default=str).encode())

    feed(obj)
    return h.hexdigest()


def _lines(*texts: str) -> int:
    return sum(t.count("\n") + 1 for t in texts)


def fun3d_mesh(seed: int):
    """The first mesh of ``seed``'s stream with :data:`FUN3D_CELLS` cells,
    :data:`FUN3D_EDGE_CELLS` of them passing the face-angle check."""
    from repro.fun3d import ANGLE_THRESHOLD, make_mesh

    for k in range(10_000):
        mesh = make_mesh(27, seed * 10_000 + k)
        if (mesh.ncell == FUN3D_CELLS
                and (mesh.face_angle <= ANGLE_THRESHOLD).all(axis=1).sum()
                == FUN3D_EDGE_CELLS):
            return mesh
    raise WallbenchError(f"no {FUN3D_CELLS}-cell mesh with "
                         f"{FUN3D_EDGE_CELLS} edge-loop cells in seed "
                         f"{seed}'s stream")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_op_ms(records: list[OpRecord], span: str, prefix: str = "") -> float:
    """Mean self time of ``span`` per op, over calls whose label starts
    with ``prefix``."""
    chosen = [r for r in records if r.label.startswith(prefix)]
    return 1e3 * _ratio(sum(r.self_s.get(span, 0.0) for r in chosen),
                        sum(r.ops for r in chosen))


def _per_op_count(records: list[OpRecord], key: str, prefix: str = ""
                  ) -> float:
    chosen = [r for r in records if r.label.startswith(prefix)]
    return _ratio(sum(r.counts.get(key, 0.0) for r in chosen),
                  sum(r.ops for r in chosen))


def _unattributed_ms(records: list[OpRecord]) -> float:
    return 1e3 * _ratio(sum(r.unattributed_s for r in records),
                        sum(r.ops for r in records))


class Workload:
    """Set-up happens in ``__init__``; rounds come from :meth:`calls`."""

    name = ""

    def calls(self, round_index: int) -> list[Call]:
        raise NotImplementedError

    def layer_metrics(self, records: list[OpRecord]) -> dict[str, float]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# legacy-fortran: the paper's validation paths on the FORTRAN runtime
# ----------------------------------------------------------------------
class LegacyFortran(Workload):
    name = "legacy-fortran"

    def __init__(self, seed: int, work: Path):
        from repro import fun3d, sarb

        self.inp = sarb.make_inputs(seed=seed)
        self.mesh = fun3d_mesh(seed)
        self.sarb_ref = sarb.run_reference(self.inp)
        self.fun3d_ref = fun3d.run_reference(self.mesh)

    # -- checks (a span of the numeric layer in the traced form) -------
    def _check_sarb(self, t, outs) -> int:
        from repro.sarb.validation import compare_outputs

        with t.span("numeric.compare"):
            ok = compare_outputs(outs, self.sarb_ref).ok
        return 0 if ok else 1

    def _check_fun3d(self, t, jac) -> int:
        from repro.fun3d import rms_check

        with t.span("numeric.compare"):
            ok = rms_check(jac, self.fun3d_ref)
        return 0 if ok else 1

    def calls(self, round_index: int) -> list[Call]:
        from repro import fun3d, sarb
        from repro.observe import NULL_TRACER as N

        inp, mesh = self.inp, self.mesh

        def sarb_call(label, entry, traced):
            def run():
                outs = entry()
                return self._check_sarb(N, outs), outs
            return Call(label, 1, run, traced)

        def fun3d_call(label, entry, traced):
            def run():
                jac = entry()
                return self._check_fun3d(N, jac), jac
            return Call(label, 1, run, traced)

        return [
            sarb_call("sarb-legacy",
                      lambda: sarb.run_legacy_fortran(inp)[0],
                      self._sarb_legacy),
            sarb_call("sarb-generated",
                      lambda: sarb.run_generated_fortran(inp)[0],
                      self._sarb_generated),
            sarb_call("sarb-spliced-v3",
                      lambda: sarb.run_spliced(
                          inp, variant="GLAF-parallel v3")[0],
                      self._sarb_spliced),
            fun3d_call("fun3d-legacy",
                       lambda: fun3d.run_legacy_fortran(mesh)[0],
                       self._fun3d_legacy),
            fun3d_call("fun3d-generated",
                       lambda: fun3d.run_generated_fortran(mesh)[0],
                       self._fun3d_generated),
            fun3d_call("fun3d-spliced",
                       lambda: fun3d.run_spliced(mesh)[0],
                       self._fun3d_spliced),
        ]

    # -- traced forms: the bodies of repro.sarb/fun3d.validation -------
    def _sarb_run(self, t, loads: list[str], start) -> dict:
        from repro.fortranlib import FortranRuntime
        from repro.sarb.validation import read_outputs, set_sarb_inputs

        with t.span("fortranlib.load") as s:
            rt = FortranRuntime()
            for src in loads:
                rt.load(src)
        s.set(lines=_lines(*loads))
        with t.span("fortranlib.exec"):
            set_sarb_inputs(rt, self.inp)
            start(rt)
        return read_outputs(rt)

    def _sarb_entry(self, rt) -> None:
        d = self.inp.dims
        rt.call("entropy_interface", [d.nv, d.nblw, d.nbsw])

    def _sarb_legacy(self, t):
        from repro.sarb import full_legacy_source

        sources = full_legacy_source(self.inp.dims)
        outs = self._sarb_run(t, [sources[f] for f in sorted(sources)],
                              self._sarb_entry)
        return self._check_sarb(t, outs), outs

    def _sarb_generated(self, t):
        from repro.codegen.fortran import FortranGenerator
        from repro.optimize.plan import make_plan
        from repro.sarb import build_sarb_program, full_legacy_source

        with t.span("core.build"):
            program = build_sarb_program(self.inp.dims)
        with t.span("optimize.plan"):
            plan = make_plan(program, "GLAF serial")
        with t.span("codegen.fortran"):
            source = FortranGenerator(plan).generate_module()
        sources = full_legacy_source(self.inp.dims)
        outs = self._sarb_run(
            t, [sources["fuliou_modules.f90"], sources["sarb_setup.f90"],
                source], self._sarb_entry)
        return self._check_sarb(t, outs), outs

    def _sarb_spliced(self, t):
        from repro.integration import check_program, splice_into_codebase
        from repro.optimize.plan import make_plan
        from repro.sarb import SARB_SUBROUTINES, build_sarb_program
        from repro.sarb.validation import build_legacy_codebase

        with t.span("core.build"):
            program = build_sarb_program(self.inp.dims)
        with t.span("optimize.plan"):
            plan = make_plan(program, "GLAF-parallel v3")
        with t.span("integration.splice"):
            legacy = build_legacy_codebase(self.inp.dims)
            reports = check_program(program, legacy, list(SARB_SUBROUTINES))
            if not all(r.ok for r in reports.values()):
                raise AssertionError("interface checks failed before "
                                     "splicing")
            result = splice_into_codebase(plan, legacy,
                                          list(SARB_SUBROUTINES))
        loads = ([result.support_source] if result.support_source else [])
        loads += [result.files[f] for f in sorted(result.files)]
        outs = self._sarb_run(t, loads,
                              lambda rt: rt.run_program("sarb_test_suite"))
        return self._check_sarb(t, outs), outs

    def _fun3d_run(self, t, loads: list[str], start) -> np.ndarray:
        from repro.fortranlib import FortranRuntime
        from repro.fun3d.validation import set_fun3d_inputs

        with t.span("fortranlib.load") as s:
            rt = FortranRuntime()
            for src in loads:
                rt.load(src)
        s.set(lines=_lines(*loads))
        with t.span("fortranlib.exec"):
            set_fun3d_inputs(rt, self.mesh)
            start(rt)
        return rt.modules["fun3d_jac_mod"].variables["jac"].store.copy()

    def _fun3d_entry(self, rt) -> None:
        rt.call("edgejp", [self.mesh.ncell, self.mesh.nnz])

    def _fun3d_legacy(self, t):
        from repro.fun3d import full_legacy_source

        sources = full_legacy_source(self.mesh)
        jac = self._fun3d_run(t, [src for _, src in sorted(sources.items())],
                              self._fun3d_entry)
        return self._check_fun3d(t, jac), jac

    def _fun3d_generated(self, t):
        from repro.codegen.fortran import FortranGenerator
        from repro.fun3d import build_fun3d_program, full_legacy_source
        from repro.optimize.plan import Tweaks, make_plan

        with t.span("core.build"):
            program = build_fun3d_program()
        with t.span("optimize.plan"):
            plan = make_plan(program, "GLAF serial",
                             tweaks=Tweaks(save_inner_arrays=False))
        with t.span("codegen.fortran"):
            source = FortranGenerator(plan).generate_module()
        modules = full_legacy_source(self.mesh)["fun3d_modules.f90"]
        jac = self._fun3d_run(t, [modules, source], self._fun3d_entry)
        return self._check_fun3d(t, jac), jac

    def _fun3d_spliced(self, t):
        from repro.fun3d import (FUN3D_FUNCTIONS, build_fun3d_program,
                                 build_legacy_codebase)
        from repro.integration import splice_into_codebase
        from repro.optimize.plan import make_plan

        with t.span("core.build"):
            program = build_fun3d_program()
        with t.span("optimize.plan"):
            plan = make_plan(program, "GLAF serial")
        with t.span("integration.splice"):
            legacy = build_legacy_codebase(self.mesh)
            result = splice_into_codebase(plan, legacy,
                                          list(FUN3D_FUNCTIONS),
                                          add_missing=True)
        loads = ([result.support_source] if result.support_source else [])
        loads += [result.files[f] for f in sorted(result.files)]
        jac = self._fun3d_run(t, loads,
                              lambda rt: rt.run_program("fun3d_test"))
        return self._check_fun3d(t, jac), jac

    def layer_metrics(self, records):
        r = records
        wall = sum(x.wall_s for x in r)
        execs = sum(x.self_s.get("fortranlib.exec", 0.0) for x in r)
        return {
            "fortranlib.exec_ms": _per_op_ms(r, "fortranlib.exec"),
            "fortranlib.exec_ms.sarb": _per_op_ms(r, "fortranlib.exec",
                                                  "sarb-"),
            "fortranlib.exec_ms.fun3d": _per_op_ms(r, "fortranlib.exec",
                                                   "fun3d-"),
            "fortranlib.exec_share": _ratio(execs, wall),
            "fortranlib.load_ms": _per_op_ms(r, "fortranlib.load"),
            "fortranlib.lines_loaded": _per_op_count(r, "lines"),
            "core.build_ms": _per_op_ms(r, "core.build"),
            "optimize.plan_ms": _per_op_ms(r, "optimize.plan"),
            "codegen.fortran_ms": _per_op_ms(r, "codegen.fortran"),
            "integration.splice_ms": _per_op_ms(r, "integration.splice"),
            "numeric.compare_ms": _per_op_ms(r, "numeric.compare"),
            "unattributed_ms": _unattributed_ms(r),
        }


# ----------------------------------------------------------------------
# ir-executors: the three GLAF IR executors, no FORTRAN runtime
# ----------------------------------------------------------------------
class IrExecutors(Workload):
    name = "ir-executors"

    def __init__(self, seed: int, work: Path):
        from repro import fun3d, sarb
        from repro.sarb import SarbDimensions

        self.inp = sarb.make_inputs(
            SarbDimensions(nv=240, nblw=24, nbsw=12), seed=seed)
        self.mesh = fun3d_mesh(seed)
        self.sarb_ref = sarb.run_reference(self.inp)
        self.fun3d_ref = fun3d.run_reference(self.mesh)
        self.sarb_args = [self.inp.dims.nv, self.inp.dims.nblw,
                          self.inp.dims.nbsw]
        self.fun3d_args = [self.mesh.ncell, self.mesh.nnz]

    def _sarb_values(self) -> dict:
        inp = self.inp
        return {"tsfc": inp.tsfc, "pres": inp.pres, "temp": inp.temp,
                "cld": inp.cld, "taudp": inp.taudp, "tausw": inp.tausw,
                "wlw": inp.wlw, "wsw": inp.wsw, "wwin": inp.wwin}

    def _check(self, t, case: str, out) -> int:
        from repro.fun3d import rms_check
        from repro.sarb.validation import compare_outputs

        with t.span("numeric.compare"):
            ok = (compare_outputs(out, self.sarb_ref).ok if case == "sarb"
                  else rms_check(out, self.fun3d_ref))
        return 0 if ok else 1

    def calls(self, round_index: int) -> list[Call]:
        from repro import fun3d, sarb
        from repro.observe import NULL_TRACER as N

        inp, mesh = self.inp, self.mesh
        entries = {
            ("sarb", "interpreter"): lambda: sarb.run_ir_interpreter(
                inp, guarded=False, executor="interpreter"),
            ("sarb", "vectorized"): lambda: sarb.run_ir_interpreter(
                inp, guarded=False, executor="vectorized"),
            ("sarb", "generated"): lambda: sarb.run_generated_python(inp),
            ("fun3d", "interpreter"): lambda: fun3d.run_ir_interpreter(
                mesh, guarded=False, executor="interpreter"),
            ("fun3d", "vectorized"): lambda: fun3d.run_ir_interpreter(
                mesh, guarded=False, executor="vectorized"),
            ("fun3d", "generated"): lambda: fun3d.run_generated_python(mesh),
        }
        calls = []
        for (case, how), entry in entries.items():
            def run(case=case, entry=entry):
                out = entry()
                return self._check(N, case, out), out

            def traced(t, case=case, how=how):
                out = self._traced(t, case, how)
                return self._check(t, case, out), out

            calls.append(Call(f"{how}-{case}", 1, run, traced))
        return calls

    # -- traced form: the bodies of run_ir_interpreter / run_generated_python
    def _traced(self, t, case: str, how: str):
        from repro.codegen import generate_python_source
        from repro.glafexec import ExecutionContext, Interpreter, get_executor
        from repro.optimize.plan import Tweaks, make_plan

        if case == "sarb":
            from repro.sarb import build_sarb_program

            with t.span("core.build"):
                program = build_sarb_program(self.inp.dims)
            entry, args, names = ("entropy_interface", self.sarb_args,
                                  ("fulw", "fusw", "fwin", "slw", "ssw"))
            context = dict(values=self._sarb_values())
            tweaks = None
        else:
            from repro.fun3d import (build_fun3d_program, context_values,
                                     mesh_sizes)

            with t.span("core.build"):
                program = build_fun3d_program()
            entry, args, names = "edgejp", self.fun3d_args, ("jac",)
            context = dict(sizes=mesh_sizes(self.mesh),
                           values=context_values(self.mesh))
            tweaks = Tweaks(save_inner_arrays=False)

        if how == "generated":
            with t.span("glafexec.generated"):
                ctx = ExecutionContext(program, **context)
            with t.span("optimize.plan"):
                plan = make_plan(program, "GLAF serial", tweaks=tweaks)
            with t.span("codegen.python"):
                source = generate_python_source(plan)
            with t.span("glafexec.generated"):
                # GeneratedModule's constructor and call, past codegen.
                ns: dict[str, Any] = {}
                exec(compile(source, f"<glaf:{program.name}>", "exec"), ns)
                ns[entry](ns["Globals"](**ctx.globals), *args)
        else:
            with t.span(f"glafexec.{how}") as s:
                ctx = ExecutionContext(program, **context)
                if how == "interpreter":
                    Interpreter(program, ctx).call(entry, list(args))
                else:
                    run = get_executor(how).run(program, entry, args,
                                                context=ctx)
            if how == "vectorized":
                s.set(fallbacks=len(run.fallbacks))
        if case == "sarb":
            return {n: ctx.get(n).copy() for n in names}
        return ctx.get("jac").copy()

    def layer_metrics(self, records):
        from repro.fun3d import build_fun3d_program
        from repro.glafexec import liftability_report
        from repro.sarb import build_sarb_program

        r = records
        steps = {}
        for program in (build_sarb_program(self.inp.dims),
                        build_fun3d_program()):
            steps.update({(program.name, k): v for k, v in
                          liftability_report(program).items()})
        lifted = sum(1 for reason in steps.values() if not reason)
        out = {
            f"glafexec.{how}_ms.{case}": _per_op_ms(
                r, f"glafexec.{how}", f"{how}-{case}")
            for case in ("sarb", "fun3d")
            for how in ("interpreter", "vectorized")
        }
        out.update({
            "glafexec.generated_ms": _per_op_ms(r, "glafexec.generated",
                                                "generated-"),
            "codegen.python_ms": _per_op_ms(r, "codegen.python",
                                            "generated-"),
            "glafexec.fallbacks": _per_op_count(r, "fallbacks",
                                                "vectorized-"),
            "glafexec.lift_ratio": _ratio(lifted, len(steps)),
            "core.build_ms": _per_op_ms(r, "core.build"),
            "optimize.plan_ms": _per_op_ms(r, "optimize.plan"),
            "numeric.compare_ms": _per_op_ms(r, "numeric.compare"),
            "unattributed_ms": _unattributed_ms(r),
        })
        return out


# ----------------------------------------------------------------------
# compile-corpus: the in-process batch compile, nothing executes
# ----------------------------------------------------------------------
class CompileCorpus(Workload):
    name = "compile-corpus"

    FUZZ_ITEMS = 24

    def __init__(self, seed: int, work: Path):
        from repro import fun3d, sarb
        from repro.batch import BatchOptions, CorpusItem
        from repro.core.project import program_to_dict

        self.seed = seed
        self.config = BatchOptions(fuzz_profile="full").worker_config()
        mesh = fun3d_mesh(seed)
        fixed = [
            CorpusItem("sarb.json", "project", json.dumps(
                program_to_dict(sarb.build_sarb_program()), sort_keys=True)),
            CorpusItem("fun3d.json", "project", json.dumps(
                program_to_dict(fun3d.build_fun3d_program()),
                sort_keys=True)),
        ]
        for name, src in sorted(sarb.full_legacy_source().items()):
            fixed.append(CorpusItem(f"sarb-{name}", "source", src))
        for name, src in sorted(fun3d.full_legacy_source(mesh).items()):
            fixed.append(CorpusItem(f"fun3d-{name}", "source", src))
        self.fixed = fixed
        #: First artifact digest of each item that every pass repeats.
        self.expected: dict[str, str] = {}

    def corpus(self, round_index: int) -> list:
        """One pass: the fixed items, then ``fuzz:(seed+pass):24`` drawn
        from the full profile."""
        from repro.batch import ingest_corpus

        return self.fixed + ingest_corpus(
            [f"fuzz:{self.seed + round_index}:{self.FUZZ_ITEMS}"],
            fuzz_profile="full")

    def _check(self, item, artifacts: dict) -> int:
        """Generated and legacy code must lint clean, every legacy unit
        must get a range summary, and an item compiled again must give the
        same artifact digest."""
        from repro.numeric.integrity import content_digest

        bad = bool(artifacts["lint"].get("findings"))
        if item.kind == "source":
            bad |= len(artifacts["ranges"]) != artifacts["units"]
        else:
            bad |= not artifacts["code"]
        if item.kind != "fuzz":
            d = content_digest(artifacts)
            bad |= self.expected.setdefault(item.id, d) != d
        return int(bad)

    def calls(self, round_index: int) -> list[Call]:
        from repro.batch import run_item

        def call(item):
            def run():
                artifacts = run_item(item, self.config)
                return self._check(item, artifacts), artifacts

            def traced(t):
                artifacts = self._run_item_traced(t, item)
                return self._check(item, artifacts), artifacts

            def side(artifacts):
                return {"sloc": artifacts["sloc"],
                        "findings": len(artifacts["lint"].get("findings",
                                                              ()))}

            return Call(item.kind, 1, run, traced, side)

        return [call(item) for item in self.corpus(round_index)]

    # -- traced form: repro.batch.worker.run_item and compile_item -----
    def _run_item_traced(self, t, item) -> dict:
        from repro import observe
        from repro.robust.watchdog import Budget

        with t.span("observe.wrap"):
            with observe.observed() as obs:
                budget = Budget(self.config.limits, what=f"batch:{item.id}")
                budget.start()
                if item.kind == "source":
                    artifacts = self._compile_source(t, item, budget)
                else:
                    artifacts = self._compile_program(t, item, budget)
            decisions = []
            for d in obs.decisions.events:
                doc = d.to_dict()
                doc.pop("t", None)
                decisions.append(doc)
            artifacts["decisions"] = decisions
        return artifacts

    def _compile_source(self, t, item, budget) -> dict:
        from repro.batch import ARTIFACT_SCHEMA
        from repro.codegen import count_sloc
        from repro.fortranlib.parser import parse_source
        from repro.lint.dataflow import analyze_batch_ranges
        from repro.lint.runner import lint_text

        with t.span("fortranlib.parse") as s:
            parsed = parse_source(item.content, recover=True)
        s.set(lines=_lines(item.content))
        budget.check_time()
        with t.span("dataflow.ranges"):
            ranges = analyze_batch_ranges({"source.f90": parsed})
        summary = {ur.unit: {"proven": ur.summary.proven,
                             "possible": ur.summary.possible,
                             "unknown": ur.summary.unknown}
                   for ur in ranges}
        budget.check_time()
        with t.span("lint.lint"):
            report = lint_text(item.content)
        budget.check_time()
        return {"schema": ARTIFACT_SCHEMA, "target": "source", "code": "",
                "sloc": count_sloc(item.content), "units": report.units,
                "lint": report.to_json(), "ranges": summary}

    def _compile_program(self, t, item, budget) -> dict:
        from repro.batch import ARTIFACT_SCHEMA
        from repro.codegen import count_sloc, generate_fortran_module
        from repro.fortranlib.parser import parse_source
        from repro.lint.runner import lint_text
        from repro.optimize import make_plan

        with t.span("core.build"):
            if item.kind == "fuzz":
                from repro.fuzz import CodebaseSpec, build_program

                program = build_program(
                    CodebaseSpec.from_json(json.loads(item.content)))
            else:
                from repro.core.project import program_from_dict
                from repro.core.validate import validate_program

                program = program_from_dict(json.loads(item.content))
                validate_program(program, collect=True)
        budget.check_time()
        with t.span("optimize.plan"):
            plan = make_plan(program, self.config.variant)
        budget.check_time()
        with t.span("codegen.fortran"):
            code = generate_fortran_module(plan)
        budget.check_time()
        with t.span("fortranlib.parse") as s:
            parse_source(code)
        s.set(lines=_lines(code))
        budget.check_time()
        with t.span("lint.lint"):
            report_json = lint_text(code, plan=plan).to_json()
        budget.check_time()
        return {"schema": ARTIFACT_SCHEMA, "target": self.config.target,
                "code": code, "sloc": count_sloc(code),
                "units": report_json.get("units", 0), "lint": report_json,
                "ranges": {}}

    def layer_metrics(self, records):
        r = records
        return {
            "core.build_ms": _per_op_ms(r, "core.build"),
            "optimize.plan_ms": _per_op_ms(r, "optimize.plan"),
            "codegen.fortran_ms": _per_op_ms(r, "codegen.fortran"),
            "fortranlib.parse_ms": _per_op_ms(r, "fortranlib.parse"),
            "dataflow.ranges_ms": _per_op_ms(r, "dataflow.ranges"),
            "lint.lint_ms": _per_op_ms(r, "lint.lint"),
            "observe.wrap_ms": _per_op_ms(r, "observe.wrap"),
            "unattributed_ms": _unattributed_ms(r),
            "fortranlib.lines_parsed": _per_op_count(r, "lines"),
            "codegen.sloc": _per_op_count(r, "sloc"),
            "lint.findings": _per_op_count(r, "findings"),
        }


# ----------------------------------------------------------------------
# fuzz-campaign: the serial differential fuzz campaign
# ----------------------------------------------------------------------
class FuzzCampaign(Workload):
    name = "fuzz-campaign"
    #: Cases per campaign.  Case costs vary widely, and a run's metrics
    #: are medians over campaigns: with 25-case campaigns they spread 10%
    #: over ten seeds, against 3% with 5-case ones, at the same cases per
    #: second.  Shorter campaigns also let the reference probes follow the
    #: host's drift more closely.
    CASES = 5

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.checkpoints = str(work / "checkpoints")
        self.quarantine = str(work / "quarantine")

    def calls(self, round_index: int) -> list[Call]:
        from repro.fuzz import run_campaign

        seed = self.seed + round_index

        def run():
            summary = run_campaign(seed, self.CASES, "small",
                                   crosscheck=True,
                                   checkpoint_dir=self.checkpoints,
                                   quarantine_dir=self.quarantine)
            return summary.failed, summary

        return [Call("campaign", self.CASES, run,
                     lambda t: self._traced(t, seed), self._side)]

    # -- traced form: run_campaign's loop on the clean path ------------
    def _traced(self, t, seed: int):
        from repro.fuzz import (CampaignSummary, Triage, generate_spec,
                                get_profile, run_item)
        from repro.numeric import CheckpointStore

        prof = get_profile("small")
        with t.span("numeric.checkpoint"):
            store = CheckpointStore(self.checkpoints)
            store.clear()
        triage = Triage(self.quarantine)
        summary = CampaignSummary(seed=seed, count=self.CASES, profile=prof)
        for index in range(self.CASES):
            with t.span("fuzz.generate"):
                spec = generate_spec(seed, prof, index)
            with t.span("fuzz.case"):
                item = run_item(spec, prof, crosscheck=True)
            with t.span("numeric.checkpoint"):
                store.save(f"item-{index:05d}", {"item": item.to_json()})
            summary.items.append(item)
            for failure in item.failures:
                triage.bucket(failure.signature)
        summary.buckets = dict(triage.buckets)
        with t.span("numeric.checkpoint"):
            store.clear()
        return summary.failed, summary

    def _side(self, summary) -> dict[str, float]:
        """Compile-only pass over the same specs: build, plan, codegen,
        parse and lint, as ``fuzz.run_item`` does before executing."""
        from repro.codegen import generate_fortran_module
        from repro.fortranlib.parser import parse_source
        from repro.fuzz import build_program, get_profile
        from repro.lint import lint_text
        from repro.optimize import make_plan

        variant = get_profile("small").variant
        for item in summary.items:
            plan = make_plan(build_program(item.spec), variant)
            source = generate_fortran_module(plan)
            parse_source(source, recover=True)
            lint_text(source, plan=plan)
        stats = summary.to_json()["stats"]
        return {"fallbacks": stats["fallbacks"],
                "units": stats["units_run"],
                "claims_proven": stats["claims_proven"]}

    def layer_metrics(self, records):
        def total(key):
            return sum(r.counts.get(key, 0.0) for r in records)

        case_ms = _per_op_ms(records, "fuzz.case")
        compile_ms = 1e3 * _ratio(total("side_s"),
                                  sum(r.ops for r in records))
        return {
            "fuzz.case_ms": case_ms,
            "fuzz.generate_ms": _per_op_ms(records, "fuzz.generate"),
            "numeric.checkpoint_ms": _per_op_ms(records,
                                                "numeric.checkpoint"),
            "unattributed_ms": _unattributed_ms(records),
            "fuzz.compile_ms": compile_ms,
            "fuzz.execute_ms": case_ms - compile_ms,
            "fuzz.fallbacks_per_unit": _ratio(total("fallbacks"),
                                              total("units")),
            "fuzz.claims_proven": _ratio(total("claims_proven"),
                                         sum(r.ops for r in records)),
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (LegacyFortran, IrExecutors, CompileCorpus,
                        FuzzCampaign)
}
