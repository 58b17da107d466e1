"""The case studies as one registry (paper §4.1.1 and §4.2.1).

The paper validates each case study by running one kernel through several
paths and comparing their outputs.  A :class:`Case` holds, as data,
everything that differs between SARB and FUN3D: the GLAF program, the
legacy FORTRAN, how both take one input and which grids they produce.
The five paths are its methods, written once: the IR on the configured
executor, generated Python, legacy FORTRAN, the generated MODULE beside
the legacy modules it uses, and the generated units spliced into the
legacy codebase and run through its driver PROGRAM.  One output grid
comes back as the array, several as a dict by name.

Each case is defined in ``repro.<name>.validation``, which exports the
paths as the case's bound methods; :func:`get_case` finds it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable

from .codegen.fortran import FortranGenerator
from .errors import WorkloadError
from .fortranlib import FortranRuntime
from .glafexec import get_executor, run_generated_python
from .integration import LegacyCodebase, check_program, splice_into_codebase
from .optimize.plan import Tweaks, make_plan

__all__ = ["CASE_NAMES", "Case", "get_case"]

#: Every registered case, each defined in ``repro.<name>.validation``.
CASE_NAMES = ("sarb", "fun3d")


@dataclass(frozen=True)
class Case:
    """One case study.  The callables take one input of the case (SARB's
    ``AtmosphereInputs``, FUN3D's ``TetMesh``)."""

    name: str
    codebase: str                 # the legacy codebase's name
    entry: str                    # the entry subroutine, GLAF and legacy
    driver: str                   # the legacy driver PROGRAM
    units: tuple[str, ...]        # the units a splice replaces
    output_module: str            # the MODULE that holds the outputs
    outputs: tuple[str, ...]      # the output grids
    support: tuple[str, ...]      # legacy files the generated module uses
    check_interfaces: bool        # run check_program before splicing
    add_missing: bool             # splice appends units legacy lacks
    program: Callable[[Any], Any]
    sources: Callable[[Any], dict[str, str]]
    arguments: Callable[[Any], list]
    context: Callable[[Any], dict[str, Any]]   # ExecutionContext kwargs
    set_inputs: Callable[[FortranRuntime, Any], None]
    sample: Callable[[], Any]     # the one input the tooling runs

    def setup(self, inp: Any) -> tuple[Any, list, dict[str, Any]]:
        """``(program, entry arguments, context kwargs)`` of one IR run,
        for callers that build their own runner."""
        return self.program(inp), self.arguments(inp), self.context(inp)

    def legacy_codebase(self, sources: dict[str, str]) -> LegacyCodebase:
        """``sources`` (file name to text) as the case's legacy codebase."""
        legacy = LegacyCodebase(self.codebase)
        for fname, src in sources.items():
            legacy.add_file(fname, src)
        return legacy

    def _outputs(self, grid: Callable[[str], Any]) -> Any:
        if len(self.outputs) == 1:
            return grid(self.outputs[0]).copy()
        return {n: grid(n).copy() for n in self.outputs}

    def read_outputs(self, rt: FortranRuntime) -> Any:
        module = rt.modules[self.output_module]
        return self._outputs(lambda n: module.variables[n].store)

    def fortran_paths(self) -> dict[str, Callable]:
        """The paths on the FORTRAN-text runtime, by short name."""
        return {"legacy": self.run_legacy_fortran,
                "generated": self.run_generated_fortran,
                "spliced": self.run_spliced}

    def run_ir_interpreter(self, inp: Any, *, save_inner_arrays: bool = False,
                           guarded: bool = False,
                           executor: str | None = None) -> Any:
        """Run the IR on ``executor`` (``None``: the configured
        ``--executor``); ``guarded=True`` is ``executor="guarded"``."""
        program, args, context = self.setup(inp)
        run = get_executor("guarded" if guarded else executor,
                           save_inner_arrays=save_inner_arrays).run(
            program, self.entry, args, **context)
        return self._outputs(run.context.get)

    def run_generated_python(self, inp: Any) -> Any:
        program, args, context = self.setup(inp)
        _, ctx = run_generated_python(program, self.entry, args, **context)
        return self._outputs(ctx.get)

    def _run_fortran(self, inp: Any, texts: list[str],
                     driver: str | None = None) -> tuple[Any, FortranRuntime]:
        """Load ``texts`` in order, set the inputs, then run ``driver`` or
        call the entry."""
        rt = FortranRuntime()
        for text in texts:
            rt.load(text)
        self.set_inputs(rt, inp)
        if driver:
            rt.run_program(driver)
        else:
            rt.call(self.entry, self.arguments(inp))
        return self.read_outputs(rt), rt

    def run_legacy_fortran(self, inp: Any) -> tuple[Any, FortranRuntime]:
        sources = self.sources(inp)
        return self._run_fortran(inp, [sources[f] for f in sorted(sources)])

    def run_generated_fortran(
        self, inp: Any, variant: str = "GLAF serial", *,
        save_inner_arrays: bool = False,
    ) -> tuple[Any, FortranRuntime, str]:
        """Load the generated MODULE beside the legacy modules it uses, not
        the legacy kernels it replaces, and call its entry point."""
        plan = make_plan(self.program(inp), variant,
                         tweaks=Tweaks(save_inner_arrays=save_inner_arrays))
        source = FortranGenerator(plan).generate_module()
        sources = self.sources(inp)
        outputs, rt = self._run_fortran(
            inp, [sources[f] for f in self.support] + [source])
        return outputs, rt, source

    def run_spliced(self, inp: Any, variant: str = "GLAF serial"
                    ) -> tuple[Any, FortranRuntime, list]:
        """The paper's final step: substitute the generated units into the
        legacy codebase and run its test-suite driver."""
        program = self.program(inp)
        plan = make_plan(program, variant)
        legacy = self.legacy_codebase(self.sources(inp))
        if self.check_interfaces:
            reports = check_program(program, legacy, list(self.units))
            bad = {n: r for n, r in reports.items() if not r.ok}
            if bad:
                details = "; ".join(f"{n}: {[i.message for i in r.errors()]}"
                                    for n, r in bad.items())
                raise AssertionError(
                    f"interface checks failed before splicing: {details}")
        result = splice_into_codebase(plan, legacy, list(self.units),
                                      add_missing=self.add_missing)
        texts = [result.support_source] if result.support_source else []
        texts += [result.files[f] for f in sorted(result.files)]
        outputs, rt = self._run_fortran(inp, texts, self.driver)
        return outputs, rt, rt.output


def get_case(name: str) -> Case:
    """The registered case ``name``; any other name is a WorkloadError."""
    if name not in CASE_NAMES:
        raise WorkloadError(f"no case study {name!r}; known: "
                            f"{', '.join(CASE_NAMES)}")
    return import_module(f"{__package__}.{name}.validation").CASE
