"""Campaign profiles: how big and how adventurous one fuzz item is.

A :class:`FuzzProfile` bounds everything the generator and the runner
draw from a seed — number of kernel units, steps per unit, the runtime
extent bound to the symbolic size ``n``, which construct kinds may be
drawn, and the per-item resource budgets the differential runner
enforces.  Two profiles are registered: ``small`` keeps a CI leg under a
minute; ``full`` is the nightly setting that exercises every construct
the pipeline claims to handle (docs/FUZZING.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError

__all__ = ["FuzzProfile", "PROFILES", "get_profile",
           "STEP_KINDS", "STRUCTURE_KINDS"]

#: Loop/step construct kinds the generator knows how to emit.  Each one
#: maps to a loop class the parallelizer and the vectorized lifter rule
#: on (docs/FUZZING.md has the rendered shape of every kind).
STEP_KINDS = (
    "pointwise",            # y(i) = a*x(i) + c                 (liftable)
    "stencil",              # y(i) = x(i) - x(i-1), i from 2    (liftable)
    "masked",               # IF/ELSE writing y(i) per lane     (liftable)
    "reduction-sum",        # y(1) = y(1) + x(i)**2             (liftable)
    "reduction-max",        # y(1) = MAX(y(1), x(i))            (liftable)
    "masked-multi-acc",     # IF branches feeding two accumulators
    "loop-carried",         # y(i) = f(y(i-1))                  (fallback)
    "indirect-write",       # y(idx(i)) = x(i)                  (fallback)
    "triangular",           # j-bound depends on i              (fallback)
    "early-exit",           # EXIT inside the nest              (fallback)
    "early-return",         # RETURN inside the nest            (fallback)
    "call-helper",          # y(i) = helper(x(i))               (inlined)
)

#: Storage/structure kinds a generated codebase may mix in: where grids
#: live, and whether a unit drives a helper SUBROUTINE through CALL.
STRUCTURE_KINDS = (
    "common-block",         # grids grouped in COMMON /blk/ (§3.2)
    "module-scope",         # module-level state (§3.3)
    "derived-type",         # parent%element access (§3.5)
    "call-subroutine",      # CALL scale_y(n, y) trailer step (§3.4)
)


@dataclass(frozen=True)
class FuzzProfile:
    """Bounds for one generated codebase and its differential run."""

    name: str
    units: tuple[int, int] = (2, 4)         # kernel subprograms per codebase
    steps: tuple[int, int] = (1, 3)         # loop steps per kernel
    extent: tuple[int, int] = (8, 24)       # runtime size bound to 'n'
    step_kinds: tuple[str, ...] = STEP_KINDS
    structure_kinds: tuple[str, ...] = STRUCTURE_KINDS
    max_loop_iterations: int = 2_000_000    # per-run interpreter budget
    max_wall_seconds: float = 30.0          # per-run wall-clock budget
    retries: int = 1                        # seeded numeric.retry re-attempts
    tolerance: float = 1e-9                 # differential-oracle threshold
    policy: str = "abs"                     # numeric.tolerance policy name
    variant: str = "GLAF-parallel v0"       # pruning variant to plan/lint

    def __post_init__(self) -> None:
        for lo, hi, what in ((*self.units, "units"), (*self.steps, "steps"),
                             (*self.extent, "extent")):
            if not (1 <= lo <= hi):
                raise ValidationError(
                    f"profile {self.name!r}: bad {what} range ({lo}, {hi})")
        unknown = set(self.step_kinds) - set(STEP_KINDS)
        unknown |= set(self.structure_kinds) - set(STRUCTURE_KINDS)
        if unknown:
            raise ValidationError(
                f"profile {self.name!r}: unknown construct kind(s) "
                f"{', '.join(sorted(unknown))}")

    def to_json(self) -> dict[str, object]:
        return {
            "name": self.name,
            "units": list(self.units),
            "steps": list(self.steps),
            "extent": list(self.extent),
            "step_kinds": list(self.step_kinds),
            "structure_kinds": list(self.structure_kinds),
            "max_loop_iterations": self.max_loop_iterations,
            "max_wall_seconds": self.max_wall_seconds,
            "retries": self.retries,
            "tolerance": self.tolerance,
            "policy": self.policy,
            "variant": self.variant,
        }


PROFILES: dict[str, FuzzProfile] = {
    "small": FuzzProfile(
        name="small",
        units=(1, 3),
        steps=(1, 2),
        extent=(6, 16),
        max_wall_seconds=20.0,
    ),
    "full": FuzzProfile(
        name="full",
        units=(2, 6),
        steps=(1, 4),
        extent=(16, 64),
        max_loop_iterations=20_000_000,
        max_wall_seconds=120.0,
        retries=2,
    ),
}


def get_profile(name: str) -> FuzzProfile:
    """Look up a registered profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValidationError(
            f"unknown fuzz profile {name!r}; "
            f"registered: {', '.join(sorted(PROFILES))}") from None
