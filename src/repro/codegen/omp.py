"""OpenMP directive rendering for FORTRAN (`!$OMP`) and C (`#pragma omp`).

The clause set mirrors what the paper reports GLAF emitting: ``PARALLEL DO``
with ``PRIVATE``, ``FIRSTPRIVATE``, ``REDUCTION`` (possibly multi-variable),
``COLLAPSE(n)``, plus statement-level ``ATOMIC`` and block-level
``CRITICAL`` for the FUN3D adaptations (§4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OmpDirective", "render_fortran", "render_fortran_end",
           "render_c", "FORTRAN_SENTINEL"]

FORTRAN_SENTINEL = "!$OMP"


@dataclass(frozen=True)
class OmpDirective:
    """One parallel-loop directive."""

    private: tuple[str, ...] = ()
    firstprivate: tuple[str, ...] = ()
    reductions: tuple[tuple[str, str], ...] = ()   # (omp_op, var)
    collapse: int = 1
    schedule: str | None = None                    # e.g. "STATIC"
    num_threads: int | None = None
    # Set only by the 'drop-directive' fault transform: codegen skips the
    # directive (and its END) entirely, leaving the loop unannotated.
    suppressed: bool = False

    def clauses(self, *, upper: bool = True) -> list[str]:
        def case(s: str) -> str:
            return s.upper() if upper else s.lower()

        out: list[str] = []
        if self.private:
            out.append(f"{case('private')}({', '.join(self.private)})")
        if self.firstprivate:
            out.append(f"{case('firstprivate')}({', '.join(self.firstprivate)})")
        # Group reduction variables by operator so a loop with several
        # outputs gets one clause per operator listing all its variables —
        # the multi-variable reduction form the paper calls out.
        by_op: dict[str, list[str]] = {}
        for op, var in self.reductions:
            by_op.setdefault(op, []).append(var)
        for op, vars_ in sorted(by_op.items()):
            spelled = case(op) if op in ("MIN", "MAX") else op
            out.append(f"{case('reduction')}({spelled}:{', '.join(vars_)})")
        if self.collapse > 1:
            out.append(f"{case('collapse')}({self.collapse})")
        if self.schedule:
            out.append(f"{case('schedule')}({case(self.schedule)})")
        if self.num_threads is not None:
            out.append(f"{case('num_threads')}({self.num_threads})")
        return out


def render_fortran(d: OmpDirective) -> str:
    parts = [FORTRAN_SENTINEL, "PARALLEL DO"] + d.clauses(upper=True)
    return " ".join(parts)


def render_fortran_end() -> str:
    return f"{FORTRAN_SENTINEL} END PARALLEL DO"


def render_c(d: OmpDirective) -> str:
    parts = ["#pragma omp parallel for"] + d.clauses(upper=False)
    return " ".join(parts)
