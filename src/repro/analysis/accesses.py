"""Access extraction and affine index analysis.

The auto-parallelization back-end works from the set of grid *accesses* each
step makes: which grid, read or write, and the index expression per
dimension.  Index expressions that are affine in the step's index variables
(``c0 + c1*i + c2*j ...`` with integer-constant coefficients) admit exact
dependence tests; anything else (e.g. an index loaded from another grid, as
in FUN3D's ``ioff`` offsets) is *indirect* and handled conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.expr import (
    BinOp,
    Const,
    Expr,
    GridRef,
    IndexVar,
    UnOp,
    walk,
)
from ..core.step import Assign, CallStmt, IfStmt, Return, Step, Stmt

__all__ = ["AffineForm", "Access", "affine_form", "step_accesses", "collect_reads"]


@dataclass(frozen=True)
class AffineForm:
    """``const + sum(coeffs[v] * v)`` over index variables."""

    const: int
    coeffs: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Drop zero coefficients so equal forms compare equal.
        object.__setattr__(
            self, "coeffs", {v: c for v, c in self.coeffs.items() if c != 0}
        )

    def uses(self, var: str) -> bool:
        return var in self.coeffs

    def vars(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineForm)
            and self.const == other.const
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.const, tuple(sorted(self.coeffs.items()))))

    def minus(self, other: "AffineForm") -> "AffineForm":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) - c
        return AffineForm(self.const - other.const, coeffs)


def affine_form(e: Expr, index_vars: set[str]) -> AffineForm | None:
    """Affine decomposition of ``e`` over ``index_vars``; ``None`` if not affine.

    Grid references (even to loop-invariant scalars) make an index
    *symbolically* affine at best; for dependence testing we only accept
    pure constants and index variables, treating everything else as
    non-affine.  Loop-invariant scalar offsets could be supported with a
    symbolic constant term; GLAF's dependence tests take the same
    conservative view.
    """
    if isinstance(e, Const):
        if isinstance(e.value, bool) or not isinstance(e.value, int):
            return None
        return AffineForm(e.value)
    if isinstance(e, IndexVar):
        if e.name in index_vars:
            return AffineForm(0, {e.name: 1})
        return None
    if isinstance(e, UnOp) and e.op == "neg":
        inner = affine_form(e.operand, index_vars)
        if inner is None:
            return None
        return AffineForm(-inner.const, {v: -c for v, c in inner.coeffs.items()})
    if isinstance(e, BinOp):
        if e.op == "+":
            left, right = affine_form(e.left, index_vars), affine_form(e.right, index_vars)
            if left is None or right is None:
                return None
            coeffs = dict(left.coeffs)
            for v, c in right.coeffs.items():
                coeffs[v] = coeffs.get(v, 0) + c
            return AffineForm(left.const + right.const, coeffs)
        if e.op == "-":
            left, right = affine_form(e.left, index_vars), affine_form(e.right, index_vars)
            if left is None or right is None:
                return None
            return left.minus(right)
        if e.op == "*":
            left, right = affine_form(e.left, index_vars), affine_form(e.right, index_vars)
            if left is None or right is None:
                return None
            if not left.coeffs:  # constant * affine
                k = left.const
                return AffineForm(k * right.const, {v: k * c for v, c in right.coeffs.items()})
            if not right.coeffs:
                k = right.const
                return AffineForm(k * left.const, {v: k * c for v, c in left.coeffs.items()})
            return None
    return None


@dataclass(frozen=True)
class Access:
    """One read or write of a grid inside a step body."""

    grid: str
    indices: tuple[Expr, ...]
    is_write: bool
    stmt_pos: int                       # position in flattened statement order
    affine: tuple[AffineForm | None, ...]  # per-dimension affine form or None
    conditional: bool = False           # under an IfStmt or step condition

    @property
    def fully_affine(self) -> bool:
        return all(a is not None for a in self.affine)

    def vars_used(self) -> frozenset[str]:
        out: set[str] = set()
        for a in self.affine:
            if a is not None:
                out |= a.vars()
        return frozenset(out)


def collect_reads(e: Expr) -> list[GridRef]:
    """All grid references appearing in an expression (reads)."""
    return [n for n in walk(e) if isinstance(n, GridRef)]


def step_accesses(step: Step) -> list[Access]:
    """Flattened read/write accesses of a step body, in statement order.

    Call arguments are treated as reads of the argument expressions; the
    callee's own effects are summarized separately (see
    :mod:`repro.analysis.parallelize`).
    """
    from ..observe import get_metrics

    index_vars = set(step.index_names())
    accesses: list[Access] = []
    pos = 0

    def mk(refnode: GridRef, is_write: bool, conditional: bool) -> Access:
        aff = tuple(affine_form(i, index_vars) for i in refnode.indices)
        return Access(
            grid=refnode.grid,
            indices=refnode.indices,
            is_write=is_write,
            stmt_pos=pos,
            affine=aff,
            conditional=conditional,
        )

    def visit(stmts: list[Stmt] | tuple[Stmt, ...], conditional: bool) -> None:
        nonlocal pos
        for s in stmts:
            if isinstance(s, Assign):
                # Reads from index expressions of the target happen too.
                for idx in s.target.indices:
                    for r in collect_reads(idx):
                        accesses.append(mk(r, False, conditional))
                for r in collect_reads(s.expr):
                    accesses.append(mk(r, False, conditional))
                accesses.append(mk(s.target, True, conditional))
                pos += 1
            elif isinstance(s, CallStmt):
                for a in s.args:
                    for r in collect_reads(a):
                        accesses.append(mk(r, False, conditional))
                pos += 1
            elif isinstance(s, IfStmt):
                for r in collect_reads(s.cond):
                    accesses.append(mk(r, False, conditional))
                pos += 1
                visit(s.then, True)
                visit(s.orelse, True)
            elif isinstance(s, Return):
                if s.value is not None:
                    for r in collect_reads(s.value):
                        accesses.append(mk(r, False, conditional))
                pos += 1
            else:  # ExitLoop
                pos += 1

    cond = step.condition is not None
    if cond:
        for r in collect_reads(step.condition):
            accesses.append(mk(r, False, False))
    visit(step.stmts, cond)
    m = get_metrics()
    if m.enabled:
        m.counter("analysis.accesses.collected").inc(len(accesses))
        m.counter("analysis.accesses.steps").inc()
    return accesses
