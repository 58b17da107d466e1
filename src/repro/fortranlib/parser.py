"""Recursive-descent parser for the FORTRAN subset.

Accepts free-form source containing MODULEs (with CONTAINS), PROGRAM units,
bare subprograms, and the statement set described in
:mod:`repro.fortranlib.ast`.  Both modern (``REAL(KIND=8) :: x(n)``) and
legacy (``REAL*8 x(n)``) declaration styles are accepted, since the
case-study "legacy" sources deliberately use FORTRAN-77 idioms (COMMON
blocks) alongside modern modules.
"""

from __future__ import annotations

import re

from ..errors import DiagnosticBundle, FortranSyntaxError
from .ast import (
    FAllocate,
    FAssign,
    FBin,
    FCall,
    FCommon,
    FContinue,
    FCycle,
    FDeallocate,
    FDecl,
    FDeclEntity,
    FDo,
    FDoWhile,
    FExit,
    FExpr,
    FFieldRef,
    FIf,
    FImplicitNone,
    FIndexed,
    FLogical,
    FModule,
    FNum,
    FOmpClause,
    FOmpDirective,
    FPrint,
    FProgramUnit,
    FReturn,
    FSourceFile,
    FStop,
    FStmt,
    FString,
    FSubprogram,
    FTypeDef,
    FTypeSpec,
    FUn,
    FUse,
    FVar,
)
from .lexer import Token, TokenStream, tokenize

__all__ = ["parse_source", "Parser"]

_TYPE_KEYWORDS = {"integer", "real", "double", "logical", "character", "type"}
_ATTR_KEYWORDS = {"parameter", "allocatable", "save", "pointer", "target"}

# Expression binding levels, loosest first.
_OR, _AND, _NOT, _RELATION, _SUM, _PRODUCT, _FACTOR, _PRIMARY = range(1, 9)
# Binary operator -> (its level, the level its right operand is parsed
# at).  ``**`` parses its right operand at its own level, so it binds
# right to left; the others bind left to right.
_BINARY = {
    "or": (_OR, _AND), "and": (_AND, _NOT),
    **{op: (_RELATION, _SUM) for op in ("==", "/=", "<", "<=", ">", ">=")},
    "+": (_SUM, _PRODUCT), "-": (_SUM, _PRODUCT),
    "*": (_PRODUCT, _FACTOR), "/": (_PRODUCT, _FACTOR),
    "**": (_FACTOR, _FACTOR),
}


def parse_source(source: str, *, recover: bool = False) -> FSourceFile:
    """Parse ``source``; with ``recover=True`` the parser resynchronizes at
    statement and unit boundaries, collecting every syntax error into one
    :class:`DiagnosticBundle` (raised at the end, with the partial parse
    attached) instead of stopping at the first."""
    from ..observe import get_metrics, get_tracer

    with get_tracer().span("fortran.parse") as _sp:
        try:
            f = Parser(source, recover=recover).parse_file()
        except DiagnosticBundle:
            raise
        except FortranSyntaxError as e:
            if recover:
                # Lexer errors surface before any parsing can start; wrap
                # them so recover-mode callers see one exception type.
                raise DiagnosticBundle([e], partial=FSourceFile()) from e
            raise
        n_units = len(f.modules) + len(f.programs) + len(f.subprograms)
        _sp.set(units=n_units)
        get_metrics().counter("fortran.parse.units").inc(n_units)
        return f


class _RecoveryAbort(Exception):
    """Internal: recovery cannot make progress (or hit the diagnostics cap)."""


def _attach_omp(stmts: list) -> None:
    """Attach each ``parallel_do`` directive to the loop that follows it.

    The directive stays in the statement list (the interpreter and the
    performance model both walk the stream), but the following
    :class:`FDo` also gets it as :attr:`FDo.omp` so AST consumers — the
    static linter above all — see directive and loop as one region.
    """
    pending: FOmpDirective | None = None
    for s in stmts:
        if isinstance(s, FOmpDirective):
            pending = s if s.kind == "parallel_do" else None
            continue
        if isinstance(s, FDo):
            if pending is not None:
                s.omp = pending
            _attach_omp(s.body)
        elif isinstance(s, FDoWhile):
            _attach_omp(s.body)
        elif isinstance(s, FIf):
            for _, body in s.branches:
                _attach_omp(body)
        pending = None


def _attach_omp_file(out: FSourceFile) -> None:
    units = list(out.subprograms)
    for mod in out.modules:
        units.extend(mod.subprograms)
    for prog in out.programs:
        _attach_omp(prog.body)
        units.extend(prog.subprograms)
    for sub in units:
        _attach_omp(sub.body)


class Parser:
    def __init__(self, source: str, *, recover: bool = False,
                 max_diagnostics: int = 50):
        self.ts = TokenStream(tokenize(source))
        self.recover = recover
        self.max_diagnostics = max_diagnostics
        self.diagnostics: list[FortranSyntaxError] = []

    # ------------------------------------------------------------------
    # error recovery
    # ------------------------------------------------------------------
    def _note(self, err: FortranSyntaxError) -> None:
        self.diagnostics.append(err)
        if len(self.diagnostics) >= self.max_diagnostics:
            raise _RecoveryAbort()

    def _resync(self) -> None:
        """Statement-level resynchronization: skip past the next newline."""
        ts = self.ts
        while not (ts.at("newline") or ts.at("eof")):
            ts.next()
        if ts.at("newline"):
            ts.next()

    def _resync_unit(self) -> None:
        """Unit-level resynchronization: skip lines until a unit start."""
        ts = self.ts
        while not ts.at("eof"):
            ts.skip_newlines()
            if ts.at("eof"):
                return
            if (
                (ts.at_name("module") and ts.peek(1).kind == "name")
                or ts.at_name("program")
                or self._at_subprogram_start()
            ):
                return
            while not (ts.at("newline") or ts.at("eof")):
                ts.next()

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------
    def parse_file(self) -> FSourceFile:
        out = FSourceFile()
        ts = self.ts
        ts.skip_newlines()
        while not ts.at("eof"):
            pos = ts.pos
            try:
                if ts.at_name("module") and ts.peek(1).kind == "name":
                    out.modules.append(self.parse_module())
                elif ts.at_name("program"):
                    out.programs.append(self.parse_program())
                elif self._at_subprogram_start():
                    out.subprograms.append(self.parse_subprogram())
                else:
                    t = ts.peek()
                    raise FortranSyntaxError(
                        f"expected MODULE, PROGRAM, SUBROUTINE or FUNCTION, found {t.text!r}",
                        t.line, t.col,
                    )
            except FortranSyntaxError as e:
                if not self.recover:
                    raise
                try:
                    self._note(e)
                except _RecoveryAbort:
                    break
                self._resync_unit()
                if ts.pos == pos:
                    break
            except _RecoveryAbort:
                break
            ts.skip_newlines()
        _attach_omp_file(out)
        if self.diagnostics:
            raise DiagnosticBundle(self.diagnostics, partial=out)
        return out

    def _at_subprogram_start(self) -> bool:
        ts = self.ts
        if ts.at_name("subroutine", "function"):
            return True
        # "REAL(KIND=8) FUNCTION foo(...)" style prefix.
        if ts.at("name") and ts.peek().lower() in _TYPE_KEYWORDS:
            i = 1
            depth = 0
            while True:
                t = ts.peek(i)
                if t.kind == "eof" or t.kind == "newline":
                    return False
                if t.kind == "op" and t.text == "(":
                    depth += 1
                elif t.kind == "op" and t.text == ")":
                    depth -= 1
                elif depth == 0 and t.kind == "name" and t.lower() == "function":
                    return True
                elif depth == 0 and t.kind == "op" and t.text == "::":
                    return False
                i += 1
        return False

    # ------------------------------------------------------------------
    # modules / programs
    # ------------------------------------------------------------------
    def parse_module(self) -> FModule:
        ts = self.ts
        start = ts.expect("name")  # MODULE
        name = ts.expect("name").lower()
        ts.expect_eol()
        mod = FModule(name=name, line=start.line)
        ts.skip_newlines()
        while True:
            if ts.peek().kind == "omp":
                # Module-level sentinels: THREADPRIVATE(...) and friends.
                mod.decls.append(self._parse_omp(ts.peek()))
                ts.skip_newlines()
                continue
            if ts.at_name("contains"):
                ts.next()
                ts.expect_eol()
                ts.skip_newlines()
                while not ts.at_name("end"):
                    mod.subprograms.append(self.parse_subprogram())
                    ts.skip_newlines()
                break
            if ts.at_name("end"):
                break
            mod.decls.append(self.parse_spec_statement())
            ts.skip_newlines()
        self._parse_end(("module",), name)
        return mod

    def parse_program(self) -> FProgramUnit:
        ts = self.ts
        start = ts.expect("name")  # PROGRAM
        name = ts.expect("name").lower()
        ts.expect_eol()
        unit = FProgramUnit(name=name, line=start.line)
        ts.skip_newlines()
        decls, body = self._parse_unit_body(end_kinds=("program",), unit_name=name,
                                            contains_target=unit.subprograms)
        unit.decls, unit.body = decls, body
        return unit

    def _parse_end(self, kinds: tuple[str, ...], name: str | None) -> None:
        ts = self.ts
        t = ts.expect("name")  # END
        if t.lower() != "end":
            raise FortranSyntaxError(f"expected END, found {t.text!r}", t.line, t.col)
        if ts.at("name") and ts.peek().lower() in kinds:
            ts.next()
            if ts.at("name"):
                ts.next()  # optional unit name
        ts.expect_eol()

    # ------------------------------------------------------------------
    # subprograms
    # ------------------------------------------------------------------
    def parse_subprogram(self) -> FSubprogram:
        ts = self.ts
        line = ts.peek().line
        # Optional function type prefix (recorded as a declaration for the
        # result variable).
        prefix_spec: FTypeSpec | None = None
        if ts.at("name") and ts.peek().lower() in _TYPE_KEYWORDS and not ts.at_name("type"):
            prefix_spec = self.parse_type_spec()
        kw = ts.expect("name").lower()
        if kw not in ("subroutine", "function"):
            raise FortranSyntaxError(f"expected SUBROUTINE or FUNCTION, found {kw!r}",
                                     line, None)
        name = ts.expect("name").lower()
        params: list[str] = []
        if ts.accept("op", "("):
            while not ts.at("op", ")"):
                params.append(ts.expect("name").lower())
                if not ts.accept("op", ","):
                    break
            ts.expect("op", ")")
        result = None
        if ts.at_name("result"):
            ts.next()
            ts.expect("op", "(")
            result = ts.expect("name").lower()
            ts.expect("op", ")")
        ts.expect_eol()
        if kw == "function" and result is None:
            result = name
        ts.skip_newlines()
        decls, body = self._parse_unit_body(
            end_kinds=("subroutine", "function"), unit_name=name, contains_target=None
        )
        if prefix_spec is not None and result is not None:
            decls.insert(0, FDecl(spec=prefix_spec, attrs=(), intent=None,
                                  entities=[FDeclEntity(name=result)], line=line))
        return FSubprogram(kind=kw, name=name, params=params, result=result,
                           decls=decls, body=body, line=line)

    def _parse_unit_body(
        self, end_kinds: tuple[str, ...], unit_name: str,
        contains_target: list | None,
    ) -> tuple[list[FStmt], list[FStmt]]:
        ts = self.ts
        decls: list[FStmt] = []
        body: list[FStmt] = []
        while True:
            ts.skip_newlines()
            if ts.at_name("end") and not ts.at_name("enddo", "endif"):
                nxt = ts.peek(1)
                if nxt.kind in ("newline", "eof") or (
                    nxt.kind == "name" and nxt.lower() in end_kinds
                ):
                    break
            if ts.at_name("contains") and contains_target is not None:
                ts.next()
                ts.expect_eol()
                ts.skip_newlines()
                while not ts.at_name("end"):
                    contains_target.append(self.parse_subprogram())
                    ts.skip_newlines()
                break
            if self._at_spec_statement():
                self._recovering_parse(self.parse_spec_statement, decls)
            else:
                self._recovering_parse(self.parse_exec_statement, body)
        self._parse_end(end_kinds, unit_name)
        return decls, body

    def _recovering_parse(self, parse_fn, sink: list) -> None:
        """Parse one statement into ``sink``; in recovery mode a syntax
        error is recorded and the stream resynchronized past the next
        newline (aborting if that makes no progress, e.g. at EOF)."""
        pos = self.ts.pos
        try:
            sink.append(parse_fn())
        except FortranSyntaxError as e:
            if not self.recover:
                raise
            self._note(e)
            self._resync()
            if self.ts.pos == pos:
                raise _RecoveryAbort()

    # ------------------------------------------------------------------
    # specification statements
    # ------------------------------------------------------------------
    def _at_spec_statement(self) -> bool:
        ts = self.ts
        if ts.at_name("use", "implicit", "common"):
            return True
        if ts.at("name") and ts.peek().lower() in _TYPE_KEYWORDS:
            if ts.at_name("type"):
                # TYPE(name) :: x  is a declaration; TYPE name is a typedef;
                # type_var%field = ... would be 'name' op '%', not keyword.
                nxt = ts.peek(1)
                return nxt.kind == "op" and nxt.text == "(" or nxt.kind == "name" \
                    or (nxt.kind == "op" and nxt.text == "::")
            # Distinguish "REAL(...) :: x" / "REAL x" declaration from an
            # assignment to a variable that happens to be named like a type
            # keyword (we simply forbid such variable names).
            return True
        return False

    def parse_spec_statement(self) -> FStmt:
        ts = self.ts
        t = ts.peek()
        if ts.at_name("use"):
            ts.next()
            module = ts.expect("name").lower()
            only = None
            if ts.accept("op", ","):
                word = ts.expect("name")
                if word.lower() != "only":
                    raise FortranSyntaxError("expected ONLY", word.line, word.col)
                ts.expect("op", ":")
                names = [ts.expect("name").lower()]
                while ts.accept("op", ","):
                    names.append(ts.expect("name").lower())
                only = tuple(names)
            ts.expect_eol()
            return FUse(module=module, only=only, line=t.line)
        if ts.at_name("implicit"):
            ts.next()
            word = ts.expect("name")
            if word.lower() != "none":
                raise FortranSyntaxError("only IMPLICIT NONE is supported",
                                         word.line, word.col)
            ts.expect_eol()
            return FImplicitNone(line=t.line)
        if ts.at_name("common"):
            ts.next()
            ts.expect("op", "/")
            block = ts.expect("name").lower()
            ts.expect("op", "/")
            names = [ts.expect("name").lower()]
            while ts.accept("op", ","):
                names.append(ts.expect("name").lower())
            ts.expect_eol()
            return FCommon(block=block, names=names, line=t.line)
        if ts.at_name("type") and ts.peek(1).kind == "name":
            return self.parse_type_def()
        return self.parse_declaration()

    def parse_type_def(self) -> FTypeDef:
        ts = self.ts
        t = ts.expect("name")  # TYPE
        name = ts.expect("name").lower()
        ts.expect_eol()
        decls: list[FDecl] = []
        ts.skip_newlines()
        while not ts.at_name("end"):
            stmt = self.parse_declaration()
            decls.append(stmt)
            ts.skip_newlines()
        self._parse_end(("type",), name)
        return FTypeDef(name=name, decls=decls, line=t.line)

    def parse_type_spec(self) -> FTypeSpec:
        ts = self.ts
        t = ts.expect("name")
        base = t.lower()
        if base == "double":
            word = ts.expect("name")
            if word.lower() != "precision":
                raise FortranSyntaxError("expected DOUBLE PRECISION", word.line, word.col)
            return FTypeSpec(base="real", kind=8)
        if base == "type":
            ts.expect("op", "(")
            tname = ts.expect("name").lower()
            ts.expect("op", ")")
            return FTypeSpec(base="type", type_name=tname)
        kind = 4
        char_len: int | None = None
        if base == "character":
            char_len = 64
            if ts.accept("op", "("):
                if ts.at_name("len"):
                    ts.next()
                    ts.expect("op", "=")
                tok = ts.accept("int")
                if tok:
                    char_len = int(tok.text)
                elif ts.accept("op", "*"):
                    char_len = None
                ts.expect("op", ")")
            elif ts.accept("op", "*"):
                char_len = int(ts.expect("int").text)
            return FTypeSpec(base="character", char_len=char_len)
        if ts.accept("op", "*"):  # REAL*8 legacy kind
            kind = int(ts.expect("int").text)
        elif ts.at("op", "(") and base in ("integer", "real", "logical"):
            # REAL(KIND=8) or REAL(8)
            ts.next()
            if ts.at_name("kind"):
                ts.next()
                ts.expect("op", "=")
            kind = int(ts.expect("int").text)
            ts.expect("op", ")")
        if base == "real" and kind not in (4, 8):
            raise FortranSyntaxError(f"unsupported REAL kind {kind}", t.line, t.col)
        return FTypeSpec(base=base, kind=kind)

    def parse_declaration(self) -> FDecl:
        ts = self.ts
        t = ts.peek()
        spec = self.parse_type_spec()
        attrs: list[str] = []
        intent: str | None = None
        dimension_dims: tuple | None = None
        while ts.accept("op", ","):
            word = ts.expect("name").lower()
            if word == "intent":
                ts.expect("op", "(")
                intent = ts.expect("name").lower()
                ts.expect("op", ")")
            elif word == "dimension":
                dims, deferred = self._parse_dims()
                dimension_dims = (dims, deferred)
            elif word in _ATTR_KEYWORDS:
                attrs.append(word)
            else:
                raise FortranSyntaxError(f"unknown attribute {word!r}", t.line, t.col)
        ts.accept("op", "::")
        entities: list[FDeclEntity] = []
        while True:
            name = ts.expect("name").lower()
            dims: tuple = ()
            deferred = 0
            if ts.at("op", "("):
                dims, deferred = self._parse_dims()
            elif dimension_dims is not None:
                dims, deferred = dimension_dims
            init: FExpr | None = None
            if ts.accept("op", "="):
                init = self.parse_expr()
            entities.append(FDeclEntity(name=name, dims=dims,
                                        deferred_rank=deferred, init=init))
            if not ts.accept("op", ","):
                break
        ts.expect_eol()
        return FDecl(spec=spec, attrs=tuple(attrs), intent=intent,
                     entities=entities, line=t.line)

    def _parse_dims(self) -> tuple[tuple[FExpr, ...], int]:
        ts = self.ts
        ts.expect("op", "(")
        dims: list[FExpr] = []
        deferred = 0
        while True:
            if ts.at("op", ":"):
                ts.next()
                deferred += 1
                dims.append(FNum(0))
            else:
                dims.append(self.parse_expr())
            if not ts.accept("op", ","):
                break
        ts.expect("op", ")")
        if deferred and deferred != len(dims):
            raise FortranSyntaxError("mixed explicit and deferred dimensions",
                                     ts.peek().line, ts.peek().col)
        return tuple(dims), deferred

    # ------------------------------------------------------------------
    # executable statements
    # ------------------------------------------------------------------
    def parse_exec_statement(self) -> FStmt:
        ts = self.ts
        t = ts.peek()
        if t.kind == "omp":
            return self._parse_omp(t)
        if ts.at_name("if"):
            return self.parse_if()
        if ts.at_name("do"):
            return self.parse_do()
        if ts.at_name("call"):
            ts.next()
            name = ts.expect("name").lower()
            args: list[FExpr] = []
            if ts.accept("op", "("):
                while not ts.at("op", ")"):
                    args.append(self.parse_expr())
                    if not ts.accept("op", ","):
                        break
                ts.expect("op", ")")
            ts.expect_eol()
            return FCall(name=name, args=tuple(args), line=t.line)
        if ts.at_name("return"):
            ts.next()
            ts.expect_eol()
            return FReturn(line=t.line)
        if ts.at_name("exit"):
            ts.next()
            ts.expect_eol()
            return FExit(line=t.line)
        if ts.at_name("cycle"):
            ts.next()
            ts.expect_eol()
            return FCycle(line=t.line)
        if ts.at_name("continue"):
            ts.next()
            ts.expect_eol()
            return FContinue(line=t.line)
        if ts.at_name("stop"):
            ts.next()
            msg = None
            if ts.at("string"):
                msg = ts.next().text
            elif ts.at("int"):
                msg = ts.next().text
            ts.expect_eol()
            return FStop(message=msg, line=t.line)
        if ts.at_name("allocate"):
            ts.next()
            ts.expect("op", "(")
            items: list[tuple[FExpr, tuple[FExpr, ...]]] = []
            while True:
                target = self.parse_designator()
                if not isinstance(target, FIndexed):
                    raise FortranSyntaxError("ALLOCATE needs shaped items",
                                             t.line, t.col)
                items.append((target.base, target.args))
                if not ts.accept("op", ","):
                    break
            ts.expect("op", ")")
            ts.expect_eol()
            return FAllocate(items=items, line=t.line)
        if ts.at_name("deallocate"):
            ts.next()
            ts.expect("op", "(")
            items = [self.parse_designator()]
            while ts.accept("op", ","):
                items.append(self.parse_designator())
            ts.expect("op", ")")
            ts.expect_eol()
            return FDeallocate(items=items, line=t.line)
        if ts.at_name("print"):
            ts.next()
            ts.expect("op", "*")
            args: list[FExpr] = []
            while ts.accept("op", ","):
                args.append(self.parse_expr())
            ts.expect_eol()
            return FPrint(args=tuple(args), line=t.line)
        if ts.at_name("write"):
            # WRITE(*,*) args — treated as PRINT.
            ts.next()
            ts.expect("op", "(")
            depth = 1
            while depth:
                tok = ts.next()
                if tok.kind == "op" and tok.text == "(":
                    depth += 1
                elif tok.kind == "op" and tok.text == ")":
                    depth -= 1
                elif tok.kind in ("newline", "eof"):
                    raise FortranSyntaxError("bad WRITE control list", t.line, t.col)
            args = []
            if not ts.at("newline"):
                args.append(self.parse_expr())
                while ts.accept("op", ","):
                    args.append(self.parse_expr())
            ts.expect_eol()
            return FPrint(args=tuple(args), line=t.line)
        # Assignment.
        target = self.parse_designator()
        ts.expect("op", "=")
        value = self.parse_expr()
        ts.expect_eol()
        return FAssign(target=target, value=value, line=t.line)

    # -- OMP ---------------------------------------------------------------
    _OMP_CLAUSE = re.compile(r"([a-z_]+)\s*(?:\(([^()]*)\))?", re.IGNORECASE)

    def _parse_omp_clauses(self, low: str, prefix: str,
                           t: Token) -> tuple[FOmpClause, ...]:
        """Parse the clause list following the directive keywords.

        ``low`` is the whitespace-normalized lowercase directive text;
        ``prefix`` the directive spelling (e.g. ``"!$omp parallel do"``).
        """
        rest = low[len(prefix):].strip()
        clauses: list[FOmpClause] = []
        pos, n = 0, len(rest)
        while pos < n:
            if rest[pos] in " ,":
                pos += 1
                continue
            m = self._OMP_CLAUSE.match(rest, pos)
            if not m or m.end() == pos:
                raise FortranSyntaxError(
                    f"malformed OMP clause text {rest[pos:]!r}", t.line, None
                )
            clauses.append(self._make_omp_clause(m.group(1), m.group(2), t))
            pos = m.end()
        return tuple(clauses)

    def _make_omp_clause(self, name: str, arg: str | None, t: Token) -> FOmpClause:
        name = name.lower()
        if name in ("collapse", "num_threads"):
            if arg is None or not arg.strip().isdigit():
                raise FortranSyntaxError(
                    f"OMP {name.upper()} needs an integer argument", t.line, None
                )
            return FOmpClause(name=name, value=int(arg))
        if name == "reduction":
            op, sep, var_text = (arg or "").partition(":")
            op = op.strip()
            vars_ = tuple(v.strip().lower() for v in var_text.split(",")
                          if v.strip())
            if not sep or not op or not vars_:
                raise FortranSyntaxError(
                    "OMP REDUCTION needs '(op : var, ...)'", t.line, None
                )
            op = op.upper() if op.lower() in ("min", "max") else op
            return FOmpClause(name=name, op=op, vars=vars_)
        # List-valued clauses (PRIVATE, FIRSTPRIVATE, SHARED, THREADPRIVATE,
        # SCHEDULE, DEFAULT, ...) — keep the argument list as-is.
        vars_ = tuple(v.strip().lower() for v in (arg or "").split(",")
                      if v.strip())
        return FOmpClause(name=name, vars=vars_)

    @staticmethod
    def _clause_vars(clauses: tuple[FOmpClause, ...], name: str) -> tuple[str, ...]:
        return tuple(v for c in clauses if c.name == name for v in c.vars)

    def _parse_omp(self, t: Token) -> FStmt:
        ts = self.ts
        ts.next()
        if ts.at("newline"):
            ts.next()
        text = t.text
        low = " ".join(text.lower().split())
        if low.startswith("!$omp end parallel do"):
            return FOmpDirective(kind="end_parallel_do", text=text, line=t.line)
        if low.startswith("!$omp end critical"):
            return FOmpDirective(kind="end_critical", text=text, line=t.line)
        if low.startswith("!$omp parallel do"):
            clauses = self._parse_omp_clauses(low, "!$omp parallel do", t)
            reds = tuple((c.op, v) for c in clauses if c.name == "reduction"
                         for v in c.vars)
            collapse = next((c.value for c in clauses
                             if c.name == "collapse"), 1)
            return FOmpDirective(kind="parallel_do", text=text,
                                 private=self._clause_vars(clauses, "private"),
                                 firstprivate=self._clause_vars(clauses,
                                                                "firstprivate"),
                                 reductions=reds, collapse=collapse,
                                 clauses=clauses, line=t.line)
        if low.startswith("!$omp atomic"):
            return FOmpDirective(kind="atomic", text=text, line=t.line)
        if low.startswith("!$omp critical"):
            return FOmpDirective(kind="critical", text=text, line=t.line)
        if low.startswith("!$omp end simd"):
            return FOmpDirective(kind="end_simd", text=text, line=t.line)
        if low.startswith("!$omp threadprivate"):
            clauses = self._parse_omp_clauses(low, "!$omp", t)
            names = self._clause_vars(clauses, "threadprivate")
            return FOmpDirective(kind="threadprivate", text=text,
                                 private=names, clauses=clauses, line=t.line)
        if low.startswith("!$omp simd"):
            clauses = self._parse_omp_clauses(low, "!$omp simd", t)
            reds = tuple((c.op, v) for c in clauses if c.name == "reduction"
                         for v in c.vars)
            return FOmpDirective(kind="simd", text=text, reductions=reds,
                                 clauses=clauses, line=t.line)
        raise FortranSyntaxError(f"unsupported OMP directive {text!r}", t.line, None)

    # -- control flow --------------------------------------------------------
    def parse_if(self) -> FStmt:
        ts = self.ts
        t = ts.expect("name")  # IF
        ts.expect("op", "(")
        cond = self.parse_expr()
        ts.expect("op", ")")
        if ts.at_name("then"):
            ts.next()
            ts.expect_eol()
            branches: list[tuple[FExpr | None, list[FStmt]]] = []
            body: list[FStmt] = []
            branches.append((cond, body))
            while True:
                ts.skip_newlines()
                if ts.at_name("else"):
                    ts.next()
                    if ts.at_name("if"):
                        ts.next()
                        ts.expect("op", "(")
                        c2 = self.parse_expr()
                        ts.expect("op", ")")
                        word = ts.expect("name")
                        if word.lower() != "then":
                            raise FortranSyntaxError("expected THEN", word.line, word.col)
                        ts.expect_eol()
                        body = []
                        branches.append((c2, body))
                    else:
                        ts.expect_eol()
                        body = []
                        branches.append((None, body))
                    continue
                if ts.at_name("end"):
                    nxt = ts.peek(1)
                    if nxt.kind == "name" and nxt.lower() == "if":
                        ts.next()
                        ts.next()
                        ts.expect_eol()
                        break
                    raise FortranSyntaxError("expected END IF", nxt.line, nxt.col)
                if ts.at_name("endif"):
                    ts.next()
                    ts.expect_eol()
                    break
                self._recovering_parse(self.parse_exec_statement, body)
            return FIf(branches=branches, line=t.line)
        # One-line IF.
        stmt = self.parse_exec_statement()
        return FIf(branches=[(cond, [stmt])], line=t.line)

    def parse_do(self) -> FStmt:
        ts = self.ts
        t = ts.expect("name")  # DO
        if ts.at_name("while"):
            ts.next()
            ts.expect("op", "(")
            cond = self.parse_expr()
            ts.expect("op", ")")
            ts.expect_eol()
            body = self._parse_do_body()
            return FDoWhile(cond=cond, body=body, line=t.line)
        var = ts.expect("name").lower()
        ts.expect("op", "=")
        start = self.parse_expr()
        ts.expect("op", ",")
        end = self.parse_expr()
        step = None
        if ts.accept("op", ","):
            step = self.parse_expr()
        ts.expect_eol()
        body = self._parse_do_body()
        return FDo(var=var, start=start, end=end, step=step, body=body, line=t.line)

    def _parse_do_body(self) -> list[FStmt]:
        ts = self.ts
        body: list[FStmt] = []
        while True:
            ts.skip_newlines()
            if ts.at_name("end"):
                nxt = ts.peek(1)
                if nxt.kind == "name" and nxt.lower() == "do":
                    ts.next()
                    ts.next()
                    ts.expect_eol()
                    return body
            if ts.at_name("enddo"):
                ts.next()
                ts.expect_eol()
                return body
            self._recovering_parse(self.parse_exec_statement, body)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def parse_expr(self) -> FExpr:
        return self._parse_binary(_OR)

    def _parse_binary(self, min_level: int) -> FExpr:
        """Precedence climbing: an expression whose binary operators all
        bind at ``min_level`` or tighter (:data:`_BINARY`).

        Relations do not chain.  A sign that opens a sum covers the
        product after it (``-a*b`` is ``-(a*b)``); a sign anywhere else
        covers one factor.  ``.NOT.`` may open only a logical operand."""
        ts = self.ts
        t = ts.peek()
        if t.kind == "op" and t.text == "not" and min_level <= _NOT:
            ts.next()
            left, level = FUn("not", self._parse_binary(_NOT)), _NOT
        elif t.kind == "op" and t.text in ("-", "+"):
            ts.next()
            level = _SUM if min_level <= _SUM else _FACTOR
            left = self._parse_binary(_PRODUCT if level == _SUM else _FACTOR)
            if t.text == "-":
                left = FUn("neg", left)
        else:
            left, level = self._parse_primary(), _PRIMARY
        while True:
            t = ts.peek()
            op = _BINARY.get(t.text) if t.kind == "op" else None
            if (op is None or op[0] < min_level
                    or (op[0] == _RELATION and level < _SUM)):
                return left
            ts.next()
            left = FBin(t.text, left, self._parse_binary(op[1]))
            level = op[0]

    def _parse_primary(self) -> FExpr:
        ts = self.ts
        t = ts.peek()
        if t.kind == "int":
            ts.next()
            text = t.text.split("_")[0]
            return FNum(int(text))
        if t.kind == "real":
            ts.next()
            text = t.text.split("_")[0]
            is_double = "d" in text.lower()
            norm = text.lower().replace("d", "e")
            return FNum(float(norm), is_double=is_double)
        if t.kind == "string":
            ts.next()
            return FString(t.text)
        if t.kind == "logical":
            ts.next()
            return FLogical(t.text == "true")
        if ts.accept("op", "("):
            e = self.parse_expr()
            ts.expect("op", ")")
            return e
        if t.kind == "name":
            return self.parse_designator()
        raise FortranSyntaxError(f"unexpected token {t.text!r}", t.line, t.col)

    def parse_designator(self) -> FExpr:
        """``name [ (args) ] [ % field [ (args) ] ]*``"""
        ts = self.ts
        name = ts.expect("name")
        node: FExpr = FVar(name.lower())
        while True:
            if ts.at("op", "("):
                ts.next()
                args: list[FExpr] = []
                while not ts.at("op", ")"):
                    args.append(self.parse_expr())
                    if not ts.accept("op", ","):
                        break
                ts.expect("op", ")")
                node = FIndexed(base=node, args=tuple(args))
            elif ts.at("op", "%"):
                ts.next()
                fieldname = ts.expect("name").lower()
                node = FFieldRef(base=node, field=fieldname)
            else:
                return node
