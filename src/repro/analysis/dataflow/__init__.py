"""Reusable dataflow analyses over per-unit control-flow graphs.

The package builds basic-block CFGs from two IRs — parsed FORTRAN
subprograms (:mod:`repro.fortranlib.ast`) and GLAF step bodies
(:mod:`repro.core.step`) — and runs lattice fixpoints over them with one
generic worklist engine (:mod:`.engine`):

* :mod:`.reaching` — may-uninitialized forward analysis (reaching of the
  UNINIT pseudo-definition) → use-before-def and INTENT violations,
  interprocedural across CALL sites via :mod:`.intent` summaries;
* :mod:`.liveness` — backward liveness → dead stores, never-read local
  arrays, and the grid liveness the vectorizer's inliner uses to decide
  per-iteration scratch;
* :mod:`.ranges` — forward interval propagation on integer scalars with
  widening at loop joins;
* :mod:`.bounds` — affine subscript classification (proven-in-bounds /
  possible-OOB / unknown) on top of the interval facts, plus detection
  of constant-false conditionals guarding parallel regions.

The analyses return neutral record types; :mod:`repro.lint.dataflow`
maps them onto lint rules and findings.
"""

from .bounds import BoundsIssue, GuardIssue, RangeSummary, check_bounds
from .cfg import CFG, Atom, Block, build_step_cfg, build_unit_cfg
from .engine import Problem, solve
from .intent import UnitSummary, infer_summaries
from .liveness import DeadStore, dead_stores, step_live_on_entry
from .model import UnitModel, build_model
from .ranges import Interval, TOP, solve_ranges
from .reaching import IntentIssue, UninitUse, analyze_uninit

__all__ = [
    "CFG", "Atom", "Block", "build_unit_cfg", "build_step_cfg",
    "Problem", "solve",
    "UnitModel", "build_model",
    "UnitSummary", "infer_summaries",
    "UninitUse", "IntentIssue", "analyze_uninit",
    "DeadStore", "dead_stores", "step_live_on_entry",
    "Interval", "TOP", "solve_ranges",
    "BoundsIssue", "GuardIssue", "RangeSummary", "check_bounds",
]
