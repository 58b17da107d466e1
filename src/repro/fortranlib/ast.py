"""AST for the FORTRAN subset.

The subset covers everything the GLAF FORTRAN generator emits plus the
constructs our synthetic legacy codes use: modules with CONTAINS, derived
TYPEs, COMMON blocks, USE/ONLY, subroutines and functions, DO/IF control
flow, ALLOCATE/DEALLOCATE, and ``!$OMP`` sentinels (which parse into
annotation nodes the interpreter records and the performance model reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "FNode", "FExpr", "FNum", "FString", "FLogical", "FVar", "FIndexed",
    "FFieldRef", "FBin", "FUn", "FCallExpr",
    "FStmt", "FAssign", "FCall", "FIf", "FDo", "FDoWhile",
    "FReturn", "FExit", "FCycle", "FAllocate", "FDeallocate", "FPrint",
    "FStop", "FContinue", "FOmpClause", "FOmpDirective", "FOmpEnd",
    "FTypeSpec", "FDecl", "FDeclEntity", "FCommon", "FUse", "FImplicitNone",
    "FTypeDef", "FSubprogram", "FModule", "FProgramUnit", "FSourceFile",
]


class FNode:
    __slots__ = ()


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class FExpr(FNode):
    __slots__ = ()


@dataclass(frozen=True)
class FNum(FExpr):
    value: int | float
    is_double: bool = False  # had a D exponent or is a REAL literal


@dataclass(frozen=True)
class FString(FExpr):
    value: str


@dataclass(frozen=True)
class FLogical(FExpr):
    value: bool


@dataclass(frozen=True)
class FVar(FExpr):
    name: str  # lowercase canonical


@dataclass(frozen=True)
class FIndexed(FExpr):
    """``base(args)`` — array reference or function call; resolved at runtime."""

    base: FExpr           # FVar or FFieldRef
    args: tuple[FExpr, ...]


@dataclass(frozen=True)
class FFieldRef(FExpr):
    """``base%field`` access on a derived-type value."""

    base: FExpr
    field: str


@dataclass(frozen=True)
class FBin(FExpr):
    op: str               # + - * / ** == /= < <= > >= .and. .or. //(concat unused)
    left: FExpr
    right: FExpr


@dataclass(frozen=True)
class FUn(FExpr):
    op: str               # neg, not, pos
    operand: FExpr


@dataclass(frozen=True)
class FCallExpr(FExpr):
    """Explicit intrinsic call kept distinct when unambiguous (rare)."""

    name: str
    args: tuple[FExpr, ...]


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------

class FStmt(FNode):
    __slots__ = ()


@dataclass
class FAssign(FStmt):
    target: FExpr         # FVar / FIndexed / FFieldRef chain
    value: FExpr
    line: int = 0


@dataclass
class FCall(FStmt):
    name: str
    args: tuple[FExpr, ...]
    line: int = 0


@dataclass
class FIf(FStmt):
    branches: list[tuple[FExpr | None, list[FStmt]]]  # (cond|None for else, body)
    line: int = 0


@dataclass
class FDo(FStmt):
    var: str
    start: FExpr
    end: FExpr
    step: FExpr | None
    body: list[FStmt]
    omp: "FOmpDirective | None" = None
    line: int = 0


@dataclass
class FDoWhile(FStmt):
    cond: FExpr
    body: list[FStmt]
    line: int = 0


@dataclass
class FReturn(FStmt):
    line: int = 0


@dataclass
class FExit(FStmt):
    line: int = 0


@dataclass
class FCycle(FStmt):
    line: int = 0


@dataclass
class FAllocate(FStmt):
    items: list[tuple[FExpr, tuple[FExpr, ...]]]  # (variable ref, dims)
    line: int = 0


@dataclass
class FDeallocate(FStmt):
    items: list[FExpr]
    line: int = 0


@dataclass
class FPrint(FStmt):
    args: tuple[FExpr, ...]
    line: int = 0


@dataclass
class FStop(FStmt):
    message: str | None = None
    line: int = 0


@dataclass
class FContinue(FStmt):
    line: int = 0


@dataclass(frozen=True)
class FOmpClause:
    """One parsed clause of an ``!$OMP`` directive.

    ``name`` is the lowercase clause keyword (``private``, ``reduction``,
    ``collapse``, ...); ``vars`` carries the variable list for list-valued
    clauses, ``op`` the REDUCTION operator, and ``value`` the integer
    argument of COLLAPSE / NUM_THREADS.
    """

    name: str
    vars: tuple[str, ...] = ()
    op: str | None = None
    value: int | None = None


@dataclass
class FOmpDirective(FStmt):
    """A ``!$OMP`` sentinel: PARALLEL DO / ATOMIC / CRITICAL / END ...

    ``kind`` in {"parallel_do", "atomic", "critical", "end_critical",
    "end_parallel_do"}; the raw text is kept alongside the structured
    ``clauses`` tuple and the derived convenience fields (``private``,
    ``reductions``, ``collapse``) the performance model and the static
    linter consume.  For ``parallel_do`` directives the parser also
    attaches the node to the following loop's :attr:`FDo.omp`.
    """

    kind: str
    text: str
    private: tuple[str, ...] = ()
    firstprivate: tuple[str, ...] = ()
    reductions: tuple[tuple[str, str], ...] = ()
    collapse: int = 1
    clauses: tuple[FOmpClause, ...] = ()
    line: int = 0


@dataclass
class FOmpEnd(FStmt):
    kind: str
    line: int = 0


# ---------------------------------------------------------------------------
# declarations and units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FTypeSpec:
    base: str                  # 'integer' 'real' 'logical' 'character' 'type'
    kind: int = 4              # 4 or 8 for numeric
    type_name: str | None = None   # for TYPE(name)
    char_len: int | None = None


@dataclass
class FDeclEntity:
    name: str
    dims: tuple[FExpr, ...] = ()       # () = scalar; deferred shape = (None-like,)
    deferred_rank: int = 0             # number of ':' dims (allocatable)
    init: FExpr | None = None


@dataclass
class FDecl(FStmt):
    spec: FTypeSpec
    attrs: tuple[str, ...]             # 'parameter','allocatable','save','pointer'
    intent: str | None
    entities: list[FDeclEntity]
    line: int = 0


@dataclass
class FCommon(FStmt):
    block: str
    names: list[str]
    line: int = 0


@dataclass
class FUse(FStmt):
    module: str
    only: tuple[str, ...] | None = None
    line: int = 0


@dataclass
class FImplicitNone(FStmt):
    line: int = 0


@dataclass
class FTypeDef(FStmt):
    name: str
    decls: list[FDecl]
    line: int = 0


@dataclass
class FSubprogram(FNode):
    kind: str                      # 'subroutine' | 'function'
    name: str
    params: list[str]
    result: str | None             # function result variable
    decls: list[FStmt]             # FDecl / FCommon / FUse / FImplicitNone
    body: list[FStmt]
    line: int = 0


@dataclass
class FModule(FNode):
    name: str
    decls: list[FStmt] = field(default_factory=list)   # incl. FTypeDef
    subprograms: list[FSubprogram] = field(default_factory=list)
    line: int = 0


@dataclass
class FProgramUnit(FNode):
    """A main PROGRAM."""

    name: str
    decls: list[FStmt] = field(default_factory=list)
    body: list[FStmt] = field(default_factory=list)
    subprograms: list[FSubprogram] = field(default_factory=list)  # CONTAINS
    line: int = 0


@dataclass
class FSourceFile(FNode):
    modules: list[FModule] = field(default_factory=list)
    programs: list[FProgramUnit] = field(default_factory=list)
    subprograms: list[FSubprogram] = field(default_factory=list)  # bare units
