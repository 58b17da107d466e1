"""OpenCL code generation (GLAF's offload target, paper §2.1 / [14]).

For every parallel step the generator emits one ``__kernel`` whose global
work size covers the step's (collapsed) iteration space, plus a host-side
launch plan describing buffers to create and kernels to enqueue.  Serial
steps remain host-side and are listed in the launch plan as host sections.

This back-end exists because the paper positions GLAF as generating code
for "many languages" and cites the OpenCL extension; the case studies
themselves only exercise the FORTRAN path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.function import GlafFunction
from ..core.step import Assign, CallStmt, ExitLoop, IfStmt, Return, Step, Stmt
from ..core.types import opencl_decl
from ..errors import CodegenError
from ..optimize.plan import OptimizationPlan
from .base import Emitter
from .c import CExprRenderer

__all__ = ["OpenCLGenerator", "generate_opencl", "KernelLaunch"]


@dataclass(frozen=True)
class KernelLaunch:
    """One entry of the host launch plan."""

    kind: str                 # 'kernel' | 'host'
    name: str
    function: str
    step_index: int
    work_dims: int = 0
    buffers: tuple[str, ...] = ()


@dataclass
class OpenCLOutput:
    kernels_source: str
    launch_plan: list[KernelLaunch] = field(default_factory=list)


class OpenCLGenerator:
    def __init__(self, plan: OptimizationPlan):
        self.plan = plan
        self.program = plan.program

    def generate(self) -> OpenCLOutput:
        em = Emitter("    ")
        em.emit(f"/* GLAF OpenCL kernels for program {self.program.name} */")
        em.emit("#pragma OPENCL EXTENSION cl_khr_fp64 : enable")
        em.blank()
        launches: list[KernelLaunch] = []
        for fn in self.program.functions():
            for idx, step in enumerate(fn.steps):
                if self.plan.step_is_parallel(fn.name, idx) and step.is_loop \
                        and not step.has_calls():
                    kname = f"{fn.name}_step{idx}"
                    buffers = tuple(sorted(step.grids_referenced()))
                    self._emit_kernel(em, fn, idx, step, kname)
                    em.blank()
                    launches.append(KernelLaunch(
                        kind="kernel", name=kname, function=fn.name,
                        step_index=idx, work_dims=step.depth, buffers=buffers,
                    ))
                else:
                    launches.append(KernelLaunch(
                        kind="host", name=f"{fn.name}_step{idx}_host",
                        function=fn.name, step_index=idx,
                    ))
        return OpenCLOutput(kernels_source=em.text(), launch_plan=launches)

    def _emit_kernel(self, em: Emitter, fn: GlafFunction, idx: int,
                     step: Step, kname: str) -> None:
        renderer = CExprRenderer(self.program, fn)
        params: list[str] = []
        seen: set[str] = set()
        for gname in sorted(step.grids_referenced()):
            if gname in seen:
                continue
            seen.add(gname)
            try:
                g = self.program.resolve_grid(fn, gname)
            except KeyError:
                continue
            base = opencl_decl(g.ty)
            if g.rank == 0:
                params.append(f"const {base} {g.name}")
            else:
                params.append(f"__global {base} *{g.name}")
        em.emit(f"__kernel void {kname}({', '.join(params)})")
        em.emit("{")
        em.indent()
        # Map each nest dimension to a global id; bounds are enforced by the
        # host's NDRange, with a guard for partial workgroups.
        guards: list[str] = []
        for dim, r in enumerate(step.ranges):
            start = renderer.render(r.start)
            end = renderer.render(r.end)
            em.emit(f"long {r.var} = get_global_id({dim}) + ({start});")
            guards.append(f"{r.var} <= ({end})")
        if guards:
            em.emit(f"if (!({' && '.join(guards)})) return;")
        if step.condition is not None:
            em.emit(f"if (!({renderer.render(step.condition)})) return;")
        for s in step.stmts:
            self._emit_stmt(em, renderer, s)
        em.dedent()
        em.emit("}")

    def _emit_stmt(self, em: Emitter, renderer: CExprRenderer, s: Stmt) -> None:
        if isinstance(s, Assign):
            em.emit(f"{renderer.render(s.target)} = {renderer.render(s.expr)};")
        elif isinstance(s, IfStmt):
            em.emit(f"if ({renderer.render(s.cond)}) {{")
            em.indent()
            for x in s.then:
                self._emit_stmt(em, renderer, x)
            em.dedent()
            if s.orelse:
                em.emit("} else {")
                em.indent()
                for x in s.orelse:
                    self._emit_stmt(em, renderer, x)
                em.dedent()
            em.emit("}")
        elif isinstance(s, Return):
            em.emit("return;")
        elif isinstance(s, ExitLoop):
            em.emit("return;  /* early exit maps to thread retirement */")
        elif isinstance(s, CallStmt):
            raise CodegenError("kernels with GLAF calls stay host-side")
        else:
            raise CodegenError(f"cannot emit statement {type(s).__name__}")


def generate_opencl(plan: OptimizationPlan) -> OpenCLOutput:
    from ..observe import get_metrics, get_tracer

    with get_tracer().span("codegen.opencl", variant=plan.variant.name) as _sp:
        out = OpenCLGenerator(plan).generate()
        _sp.set(kernels=len(out.launch_plan))
        get_metrics().counter("codegen.opencl.kernels").inc(len(out.launch_plan))
        return out
