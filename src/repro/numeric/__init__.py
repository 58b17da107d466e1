"""Numerical-integrity layer: sentinels, tolerance policies, checkpoints.

The paper's correctness methodology is entirely differential — SARB is
validated by wrapper-driven side-by-side comparison against the legacy
subroutines, FUN3D by RMS agreement at 1e-7 on the reference dataset
(§4.1.1, §4.2.1).  This package hardens the numerics around those
comparisons (see ``docs/NUMERICS.md``):

* :mod:`repro.numeric.sentinel` — configurable NaN/Inf/overflow/denormal
  **sentinels** hooked into both interpreters through the active run
  configuration, as the fault-injection hooks are; a trip raises the
  typed :class:`repro.errors.NumericIntegrityError` naming the offending
  step/cell and records a ``numeric:<kind>`` DecisionLog event;
* :mod:`repro.numeric.tolerance` — the **tolerance-policy engine**
  (``abs`` / ``rel`` / ``ulp`` / ``rms``) with explicit NaN/Inf semantics
  that replaces the pipeline's ad-hoc comparisons: NaN never compares
  equal, mismatched infinities fail loudly, and empty arrays raise
  instead of vacuously passing.  ``compare_grids`` applies a policy
  grid by grid and is the one oracle every run-versus-reference check
  calls;
* :mod:`repro.numeric.integrity` — atomic ``os.replace`` writes and
  canonical-JSON sha256 content digests for every persisted artifact;
* :mod:`repro.numeric.checkpoint` — the :class:`CheckpointStore` behind
  ``repro bench record --resume`` / ``repro experiments --resume``:
  per-repeat/per-case checkpoints that survive a crash and are verified
  by digest before being ingested;
* :mod:`repro.numeric.retry` — seeded, deterministic retry-with-backoff
  for transiently-failing stages, budget-aware via the
  :class:`repro.robust.ResourceLimits` wall-clock budget.

This ``__init__`` must stay dependency-light (errors + numpy only): the
interpreters (``glafexec``, ``fortranlib``) import it at module load, so
:mod:`repro.observe` is only imported lazily at event-record time.
"""

from .checkpoint import CHECKPOINT_SCHEMA, CheckpointStore
from .integrity import (
    atomic_write_json,
    atomic_write_text,
    canonical_json,
    content_digest,
)
from .retry import RetryPolicy, retry_call
from .sentinel import SENTINEL_KINDS, SentinelConfig, check_value
from .tolerance import (
    POLICIES,
    AbsolutePolicy,
    ComparisonResult,
    RelativePolicy,
    RmsPolicy,
    TolerancePolicy,
    UlpPolicy,
    compare_grids,
    get_policy,
    ulp_distance,
)

__all__ = [
    # sentinels
    "SENTINEL_KINDS", "SentinelConfig", "check_value",
    # tolerance policies
    "POLICIES", "TolerancePolicy", "AbsolutePolicy", "RelativePolicy",
    "UlpPolicy", "RmsPolicy", "ComparisonResult", "compare_grids",
    "get_policy", "ulp_distance",
    # integrity
    "atomic_write_json", "atomic_write_text", "canonical_json",
    "content_digest",
    # checkpoints
    "CHECKPOINT_SCHEMA", "CheckpointStore",
    # retry
    "RetryPolicy", "retry_call",
]
