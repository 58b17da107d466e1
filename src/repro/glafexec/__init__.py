"""Functional execution of GLAF IR (reference semantics + generated Python
+ the pluggable executor back ends)."""

from .conflicts import (
    CheckedInterpreter,
    Conflict,
    ParallelValidation,
    validate_parallel_semantics,
)
from .context import ExecutionContext, as_storage
from .executor import (
    EXECUTOR_NAMES,
    Executor,
    ExecutorRun,
    GuardedExecutor,
    InterpreterExecutor,
    VectorizedExecutor,
    get_executor,
)
from .interp import ExecStats, Interpreter
from .runner import GeneratedModule, run_generated_python, run_interpreted
from .vectorize import (
    FallbackEvent,
    LiftedStep,
    LiftedSweep,
    LiftFailure,
    VectorizedInterpreter,
    compile_step,
    liftability_report,
)

__all__ = [
    "ExecutionContext", "as_storage",
    "ExecStats", "Interpreter",
    "GeneratedModule", "run_generated_python", "run_interpreted",
    "CheckedInterpreter", "Conflict", "ParallelValidation",
    "validate_parallel_semantics",
    "EXECUTOR_NAMES", "Executor", "ExecutorRun", "GuardedExecutor",
    "InterpreterExecutor", "VectorizedExecutor", "get_executor",
    "FallbackEvent", "LiftFailure", "LiftedStep", "LiftedSweep",
    "VectorizedInterpreter",
    "compile_step", "liftability_report",
]
