"""The performance simulator.

Predicts the run time of a GLAF program under an
:class:`~repro.optimize.plan.OptimizationPlan` (which fixes the OpenMP
directive set), a :class:`Workload` (concrete sizes and data-dependent trip
counts), a :class:`~repro.perf.machine.MachineSpec` and
:class:`SimOptions`.

This is the reproduction's substitute for running natively compiled
binaries on the paper's testbeds (see DESIGN.md §2).  Every mechanism the
paper invokes to explain its numbers is modelled explicitly:

* loop work from the IR (cost model) with compiler optimization per loop
  class (memset / SIMD / unroll / scalar);
* OpenMP region overheads, per-thread costs, SMT contention, nested-region
  penalties;
* function-call overhead for GLAF's function-per-nested-loop structure,
  versus the ``monolithic`` option modelling the hand-written original;
* per-call heap reallocation of temporary arrays, versus SAVE'd storage
  (the FUN3D no-reallocation option);
* ATOMIC / CRITICAL costs for the FUN3D adaptation clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.expr import BinOp, Const, Expr, FuncCall, GridRef, IndexVar, LibCall, UnOp
from ..core.function import GlafFunction, GlafProgram
from ..core.step import Assign, CallStmt, ExitLoop, IfStmt, Return, Step, Stmt, walk_stmts
from ..errors import PerfModelError
from ..optimize.plan import OptimizationPlan
from .compilermodel import CompilerModel
from .costmodel import Cost, ZERO, expr_cost, stmt_cost
from .machine import MachineSpec
from .omp_runtime import OmpCostModel

__all__ = ["Workload", "SimOptions", "StepBreakdown", "SimResult", "Simulator",
           "simulate"]


@dataclass(frozen=True)
class Workload:
    """Concrete workload: sizes for symbolic bounds plus dynamic-behaviour
    knobs the IR cannot express statically."""

    name: str
    entry: str
    sizes: dict[str, int] = field(default_factory=dict)
    entry_calls: int = 1
    # (function, step_index) -> average trip count of that step's whole nest,
    # for bounds the simulator cannot evaluate (data-dependent loops).
    trip_overrides: dict[tuple[str, int], float] = field(default_factory=dict)
    # (function, step_index) -> fraction of iterations whose IfStmt bodies
    # execute (default 0.5) / whose step condition holds (default 1.0).
    branch_fractions: dict[tuple[str, int], float] = field(default_factory=dict)
    # (function, step_index) -> fraction of the nominal trip count actually
    # executed before an early exit (search loops; default 0.5 when the
    # step contains Return/ExitLoop).
    early_exit_fractions: dict[tuple[str, int], float] = field(default_factory=dict)
    # Maximum useful parallel speedup when this workload's data streams
    # from DRAM (bandwidth-bound kernels stop scaling once memory
    # saturates).  None = cache-resident working set, no cap.
    parallel_throughput_cap: float | None = None


@dataclass(frozen=True)
class SimOptions:
    threads: int = 1
    # Model the hand-written monolithic original: all calls inlined and the
    # compiler optimizes across GLAF's step/function boundaries.
    monolithic: bool = False
    # SAVE temporaries instead of reallocating per call (FUN3D tweak).
    save_arrays: bool = False


@dataclass
class StepBreakdown:
    function: str
    step_index: int
    step_name: str
    trips: float
    parallel: bool
    opt_kind: str
    body_cycles_per_iter: float
    total_cycles: float
    overhead_cycles: float = 0.0


@dataclass
class SimResult:
    workload: str
    variant: str
    machine: str
    threads: int
    total_cycles: float
    seconds: float
    steps: list[StepBreakdown] = field(default_factory=list)
    alloc_cycles: float = 0.0
    call_overhead_cycles: float = 0.0


class Simulator:
    def __init__(
        self,
        plan: OptimizationPlan,
        machine: MachineSpec,
        workload: Workload,
        options: SimOptions,
        omp: OmpCostModel | None = None,
        compiler: CompilerModel | None = None,
    ):
        self.plan = plan
        self.program: GlafProgram = plan.program
        self.machine = machine
        self.workload = workload
        self.options = options
        self.omp = omp or OmpCostModel()
        self.compiler = compiler or CompilerModel(machine)
        self._memo: dict[tuple[str, bool], float] = {}
        self._steps: list[StepBreakdown] = []
        self._alloc_cycles = 0.0
        self._call_cycles = 0.0
        # Call multiplicity accounting for breakdown totals.
        self._mult_stack: list[float] = [1.0]

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        self._steps = []
        self._alloc_cycles = 0.0
        self._call_cycles = 0.0
        self._memo.clear()
        per_call = self._function_cycles(self.workload.entry, in_parallel=False,
                                         multiplicity=float(self.workload.entry_calls))
        total = per_call * self.workload.entry_calls
        return SimResult(
            workload=self.workload.name,
            variant=self.plan.variant.name + (" (monolithic)" if self.options.monolithic else ""),
            machine=self.machine.name,
            threads=self.options.threads,
            total_cycles=total,
            seconds=self.machine.seconds(total),
            steps=self._steps,
            alloc_cycles=self._alloc_cycles,
            call_overhead_cycles=self._call_cycles,
        )

    def _grid_rank(self, fn: GlafFunction, name: str) -> int:
        try:
            return self.program.resolve_grid(fn, name).rank
        except KeyError:
            return 0

    # ------------------------------------------------------------------
    # size evaluation
    # ------------------------------------------------------------------
    def eval_size(self, e: Expr) -> float:
        if isinstance(e, Const):
            if isinstance(e.value, (int, float)):
                return float(e.value)
            raise PerfModelError(f"non-numeric bound {e.value!r}")
        if isinstance(e, GridRef) and not e.indices:
            if e.grid in self.workload.sizes:
                return float(self.workload.sizes[e.grid])
            g = self.program.global_grids.get(e.grid)
            if g is not None and g.is_parameter and g.init_data is not None:
                return float(g.init_data)
            raise PerfModelError(
                f"workload {self.workload.name!r} gives no size for {e.grid!r}"
            )
        if isinstance(e, BinOp):
            l, r = self.eval_size(e.left), self.eval_size(e.right)
            return {
                "+": l + r, "-": l - r, "*": l * r, "/": l / r,
                "//": float(int(l // r)), "%": float(l % r), "**": l ** r,
            }[e.op]
        if isinstance(e, UnOp) and e.op == "neg":
            return -self.eval_size(e.operand)
        raise PerfModelError(
            f"cannot statically evaluate bound {e!r}; add a trip_override"
        )

    def _nest_trips(self, fname: str, idx: int, step: Step) -> float:
        override = self.workload.trip_overrides.get((fname, idx))
        if override is not None:
            return max(0.0, float(override))
        trips = 1.0
        for r in step.ranges:
            start = self.eval_size(r.start)
            end = self.eval_size(r.end)
            stride = self.eval_size(r.step)
            trips *= max(0.0, (end - start) / max(stride, 1e-300) + 1.0)
        return trips

    # ------------------------------------------------------------------
    # functions
    # ------------------------------------------------------------------
    def _function_cycles(self, fname: str, *, in_parallel: bool,
                         multiplicity: float) -> float:
        key = (fname, in_parallel)
        if key in self._memo:
            return self._memo[key]
        fn = self.program.find_function(fname)

        cycles = 0.0
        # Per-call allocation of local array temporaries.
        n_arrays = sum(1 for g in fn.local_grids().values() if g.rank > 0)
        saved = self.options.save_arrays or any(
            g.save for g in fn.local_grids().values()
        )
        if n_arrays:
            if saved:
                alloc = 0.0   # first-call cost amortized to nothing
            else:
                alloc = n_arrays * self.machine.alloc_cycles
            cycles += alloc
            self._alloc_cycles += alloc * multiplicity

        for idx, step in enumerate(fn.steps):
            cycles += self._step_cycles(fn, idx, step, in_parallel=in_parallel,
                                        multiplicity=multiplicity)
        self._memo[key] = cycles
        return cycles

    # ------------------------------------------------------------------
    # steps
    # ------------------------------------------------------------------
    def _step_cycles(self, fn: GlafFunction, idx: int, step: Step, *,
                     in_parallel: bool, multiplicity: float) -> float:
        fname = fn.name
        key = (fname, idx)
        sp = self.plan.parallel_plan.steps.get(key)
        parallel = self.plan.step_is_parallel(fname, idx) and step.is_loop

        trips = self._nest_trips(fname, idx, step) if step.is_loop else 1.0
        # Early exit shortens the executed trip count.
        has_exit = any(isinstance(s, (Return, ExitLoop)) for s in walk_stmts(step.stmts))
        if has_exit and step.is_loop:
            frac = self.workload.early_exit_fractions.get(key, 0.5)
            trips *= frac

        branch_frac = self.workload.branch_fractions.get(key, 0.5)
        body_in_parallel = in_parallel or parallel
        body = self._body_cost(fn, idx, step.stmts, branch_frac,
                               in_parallel=body_in_parallel,
                               multiplicity=multiplicity * max(trips, 1.0))
        per_iter = body.cycles(self.machine)
        if step.condition is not None:
            cond_frac = self.workload.branch_fractions.get(key, 1.0)
            per_iter = expr_cost(step.condition).cycles(self.machine) \
                + per_iter * cond_frac

        # ATOMIC / CRITICAL costs under parallel execution.
        overhead = 0.0
        if parallel and sp is not None:
            n_atomic_stmts = sum(
                1 for s in walk_stmts(step.stmts)
                if isinstance(s, Assign)
                and self.plan.atomic_update(fname, idx, s.target.grid)
            )
            per_iter += n_atomic_stmts * self.omp.atomic_cycles
            if sp.critical_early_exit:
                per_iter += self.omp.critical_cycles

        if not step.is_loop:
            total = per_iter
            self._steps.append(StepBreakdown(
                function=fname, step_index=idx, step_name=step.name,
                trips=1.0, parallel=False, opt_kind="straight-line",
                body_cycles_per_iter=per_iter, total_cycles=total * multiplicity,
            ))
            return total

        has_calls = self.compiler.has_calls(step)
        if parallel:
            threads = self.options.threads
            # Array reductions share cache lines between threads; scalar
            # reductions live in registers.
            contended = any(
                self._grid_rank(fn, g) > 0 for g in (sp.reductions if sp else {})
            )
            useful, penalty = self.omp.effective_speedup(
                self.machine, threads, trips, contended=contended
            )
            cap = self.workload.parallel_throughput_cap
            if cap is not None:
                useful = min(useful, cap)
            region = self.omp.region_overhead(
                threads, nested=in_parallel,
                n_reductions=len(sp.reductions) if sp else 0,
            )
            work = per_iter * penalty * trips / useful
            total = region + work
            overhead += region
            opt_kind = f"omp({threads}T{',nested' if in_parallel else ''})"
        elif self.plan.step_is_simd(fname, idx) and not has_calls:
            # `!$OMP SIMD`: forced vectorization with masked lanes — both
            # branch sides execute, so the payoff is below plain SIMD but
            # available even where the auto-vectorizer gave up.
            opt = self.compiler.loop_optimization(step, trips, under_omp=False)
            forced = max(1.0, self.machine.simd_doubles
                         * self.machine.simd_masked_efficiency)
            speed = max(opt.speedup, forced)
            total = per_iter * trips / speed
            opt_kind = f"simd-directive(x{speed:.2f})"
        else:
            opt = self.compiler.loop_optimization(step, trips, under_omp=False)
            # Calls inside the body cannot be vectorized away.
            speed = 1.0 if has_calls else opt.speedup
            total = per_iter * trips / speed
            opt_kind = opt.kind if not has_calls else "scalar+calls"
        self._steps.append(StepBreakdown(
            function=fname, step_index=idx, step_name=step.name,
            trips=trips, parallel=parallel, opt_kind=opt_kind,
            body_cycles_per_iter=per_iter, total_cycles=total * multiplicity,
            overhead_cycles=overhead * multiplicity,
        ))
        return total

    def _body_cost(self, fn: GlafFunction, idx: int, stmts, branch_frac: float,
                   *, in_parallel: bool, multiplicity: float) -> Cost:
        """Cost of one iteration of a statement list (callee time included
        as flop-equivalents so it flows through the loop math)."""
        # The monolithic original benefits from cross-step fusion/CSE on its
        # *local* statement work; callee cycles are scaled inside the callee.
        fusion = (self.compiler.monolithic_fusion_factor
                  if self.options.monolithic else 1.0)
        total = ZERO
        for s in stmts:
            if isinstance(s, IfStmt):
                cond = stmt_cost(s).scaled(fusion)
                then = self._body_cost(fn, idx, s.then, branch_frac,
                                       in_parallel=in_parallel,
                                       multiplicity=multiplicity * branch_frac)
                orelse = self._body_cost(fn, idx, s.orelse, branch_frac,
                                         in_parallel=in_parallel,
                                         multiplicity=multiplicity * (1 - branch_frac))
                total = total + cond + then.scaled(branch_frac) \
                    + orelse.scaled(1.0 - branch_frac)
                continue
            total = total + stmt_cost(s).scaled(fusion)
            # User-function calls: add callee cycles (+ call overhead).
            callees: list[str] = []
            if isinstance(s, CallStmt):
                callees.append(s.name)
            for e in _stmt_exprs(s):
                for node in _walk_expr(e):
                    if isinstance(node, FuncCall):
                        callees.append(node.name)
            for cname in callees:
                callee_cycles = self._function_cycles(
                    cname, in_parallel=in_parallel, multiplicity=multiplicity
                )
                call_oh = 0.0
                if not self.options.monolithic:
                    callee = self.program.find_function(cname)
                    if not self.compiler.should_inline(callee):
                        call_oh = self.machine.call_overhead_cycles
                        self._call_cycles += call_oh * multiplicity
                # Express as flops so cycles() reproduces the value.
                total = total + Cost(
                    flops=(callee_cycles + call_oh) / self.machine.cycles_per_flop
                )
        return total


def _stmt_exprs(s: Stmt):
    from ..core.step import stmt_exprs

    yield from stmt_exprs(s)


def _walk_expr(e: Expr):
    from ..core.expr import walk

    yield from walk(e)


def simulate(
    plan: OptimizationPlan,
    machine: MachineSpec,
    workload: Workload,
    options: SimOptions | None = None,
    **kw,
) -> SimResult:
    """One-call simulation."""
    options = options or SimOptions(threads=plan.threads)
    return Simulator(plan, machine, workload, options, **kw).run()
