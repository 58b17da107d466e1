"""Unit tests for the FORTRAN lexer and parser."""

import pytest

from repro.errors import FortranSyntaxError
from repro.fortranlib.ast import (
    FAssign,
    FBin,
    FCall,
    FDecl,
    FDo,
    FDoWhile,
    FIf,
    FIndexed,
    FNum,
    FOmpDirective,
    FPrint,
    FTypeDef,
    FUn,
    FVar,
)
from repro.fortranlib.lexer import tokenize
from repro.fortranlib.parser import parse_source


class TestLexer:
    def test_basic_tokens(self):
        toks = tokenize("x = a(1) + 2.5")
        kinds = [t.kind for t in toks]
        assert kinds[:8] == ["name", "op", "name", "op", "int", "op", "op", "real"]

    def test_case_preserved_but_matchers_fold(self):
        toks = tokenize("Integer :: N")
        assert toks[0].text == "Integer"
        assert toks[0].lower() == "integer"

    def test_d_exponent_is_real(self):
        toks = tokenize("x = 1.5D-3")
        real = [t for t in toks if t.kind == "real"]
        assert real and real[0].text == "1.5D-3"

    def test_dotted_operators(self):
        toks = tokenize("a .AND. .NOT. b .OR. .TRUE.")
        texts = [(t.kind, t.text) for t in toks if t.kind in ("op", "logical")]
        assert ("op", "and") in texts and ("op", "not") in texts
        assert ("logical", "true") in texts

    def test_dotted_relational_aliases(self):
        toks = tokenize("IF (a .GT. b .and. c .le. d) x = 1")
        ops = [t.text for t in toks if t.kind == "op"]
        assert ">" in ops and "<=" in ops

    def test_string_with_doubled_quote(self):
        toks = tokenize("s = 'it''s'")
        assert any(t.kind == "string" and t.text == "it's" for t in toks)

    def test_continuation(self):
        toks = tokenize("x = 1 + &\n    2")
        newlines_before_end = [t for t in toks if t.kind == "newline"]
        # The continuation swallows the first newline.
        assert len(newlines_before_end) == 1

    def test_comment_ignored_but_omp_kept(self):
        toks = tokenize("! plain comment\n!$OMP PARALLEL DO PRIVATE(i)\n")
        omp = [t for t in toks if t.kind == "omp"]
        assert len(omp) == 1 and "PRIVATE" in omp[0].text

    def test_unterminated_string(self):
        with pytest.raises(FortranSyntaxError):
            tokenize("s = 'oops")

    def test_semicolon_separates_statements(self):
        toks = tokenize("x = 1; y = 2")
        assert sum(1 for t in toks if t.kind == "newline") >= 2


# (source, [(kind, text, line, col), ...]) — the full token stream.
_TOKEN_STREAMS = [
    # '1.' is a real, so '.eq.' is never seen as an operator here.
    ("1.eq.2", [("real", "1.", 1, 1), ("name", "eq", 1, 3),
                ("real", ".2", 1, 5), ("newline", "\n", 1, 7),
                ("eof", "", 2, 1)]),
    (".5e3_8", [("real", ".5e3_8", 1, 1), ("newline", "\n", 1, 7),
                ("eof", "", 2, 1)]),
    ("10_4", [("int", "10_4", 1, 1), ("newline", "\n", 1, 5),
              ("eof", "", 2, 1)]),
    ("2.5d0", [("real", "2.5d0", 1, 1), ("newline", "\n", 1, 6),
               ("eof", "", 2, 1)]),
    ("a .AND. b", [("name", "a", 1, 1), ("op", "and", 1, 3),
                   ("name", "b", 1, 9), ("newline", "\n", 1, 10),
                   ("eof", "", 2, 1)]),
    ("s = 'it''s'; t = \"a\"\"b\"",
     [("name", "s", 1, 1), ("op", "=", 1, 3), ("string", "it's", 1, 5),
      ("newline", ";", 1, 12), ("name", "t", 1, 14), ("op", "=", 1, 16),
      ("string", 'a"b', 1, 18), ("newline", "\n", 1, 24),
      ("eof", "", 2, 1)]),
    ("x = 1 + & ! note\n  2",
     [("name", "x", 1, 1), ("op", "=", 1, 3), ("int", "1", 1, 5),
      ("op", "+", 1, 7), ("int", "2", 2, 3), ("newline", "\n", 2, 4),
      ("eof", "", 3, 1)]),
    # A Unicode decimal digit is a digit.
    ("x = ٣",
     [("name", "x", 1, 1), ("op", "=", 1, 3), ("int", "٣", 1, 5),
      ("newline", "\n", 1, 6), ("eof", "", 2, 1)]),
    # An OMP line after a trailing '&' is still its own token.
    ("x = 1 + &\n!$OMP BARRIER\n2",
     [("name", "x", 1, 1), ("op", "=", 1, 3), ("int", "1", 1, 5),
      ("op", "+", 1, 7), ("omp", "!$OMP BARRIER", 2, 1),
      ("newline", "\n", 2, 14), ("int", "2", 3, 1),
      ("newline", "\n", 3, 2), ("eof", "", 4, 1)]),
]

# (source, message, line, col) — every lexer error, in full.
_LEXER_ERRORS = [
    ("s = 'oops", "unterminated string", 1, 5),
    ("s = 'it''", "unterminated string", 1, 5),
    ("x = a @ b", "unexpected character '@'", 1, 7),
    # Not a dotted operator, and not a number either.
    (".x.", "unexpected character '.'", 1, 1),
    # Dotted operators fold ASCII case only: the long s is not an 's'.
    ("x = .falſe.", "unexpected character '.'", 1, 5),
    # A digit to str.isdigit() but not a decimal digit.
    ("x = ²", "unexpected character '²'", 1, 5),
    ("x = 1 + & y", "unexpected text after continuation '&'", 1, 11),
    ("!$OMP PARALLEL DO &\nx = 1",
     "'!$OMP' continuation ('&') not followed by an '!$OMP' line", 1, 1),
    ("!$OMP PARALLEL DO &",
     "'!$OMP' continuation ('&') at end of source", 1, 1),
]


class TestLexerContract:
    @pytest.mark.parametrize("src,expected", _TOKEN_STREAMS,
                             ids=[s for s, _ in _TOKEN_STREAMS])
    def test_token_stream(self, src, expected):
        assert [(t.kind, t.text, t.line, t.col)
                for t in tokenize(src)] == expected

    @pytest.mark.parametrize("src,message,line,col", _LEXER_ERRORS,
                             ids=[s for s, *_ in _LEXER_ERRORS])
    def test_error(self, src, message, line, col):
        with pytest.raises(FortranSyntaxError) as info:
            tokenize(src)
        e = info.value
        assert (e.message, e.line, e.col) == (message, line, col)
        assert str(e) == f"{message} (line {line}, col {col})"

    def test_token_keyword_constructor_and_folding(self):
        from repro.fortranlib.lexer import Token

        t = Token(kind="name", text="MiXed", line=3, col=7)
        assert (t.kind, t.text, t.line, t.col) == ("name", "MiXed", 3, 7)
        assert t.lower() == t.low == "mixed"


class TestFreeFormContinuation:
    """A statement continued with '&' may cross comment and blank lines,
    and its continuation line may start with '&'."""

    HEAD = "SUBROUTINE s()\nREAL(KIND=8) :: x\nx = 1.0D0 + &\n"
    TAIL = "END SUBROUTINE s\n"

    def _one_line(self):
        return parse_source("SUBROUTINE s()\nREAL(KIND=8) :: x\n"
                            "x = 1.0D0 + 2.0D0\n" + self.TAIL)

    @pytest.mark.parametrize("between,lead", [
        ("  ! the second term\n", ""),
        ("\n", ""),
        ("", "      & "),
        ("\n   \n  ! two\n! comments\n", "  &"),
        ("      & ! a lone '&' is itself a trailing '&'\n", ""),
    ], ids=["comment-line", "blank-line", "leading-amp", "mixed", "lone-amp"])
    def test_parses_like_one_line(self, between, lead):
        src = self.HEAD + between + lead + "2.0D0\n" + self.TAIL
        assert repr(parse_source(src)) == repr(self._one_line())
        assert repr(parse_source(src, recover=True)) == repr(self._one_line())

    def test_text_after_trailing_amp_still_fails(self):
        with pytest.raises(FortranSyntaxError) as info:
            tokenize("x = 1.0D0 + & 2.0D0")
        assert (info.value.message, info.value.line, info.value.col) == (
            "unexpected text after continuation '&'", 1, 15)

    def test_leading_amp_needs_a_continued_statement(self):
        with pytest.raises(FortranSyntaxError) as info:
            tokenize("x = 1.0D0\n  & 2.0D0")
        assert (info.value.line, info.value.col) == (2, 5)

    def test_amp_on_last_line_still_fails(self):
        with pytest.raises(FortranSyntaxError):
            parse_source(self.HEAD.rstrip("\n"))
        with pytest.raises(FortranSyntaxError):
            parse_source(self.HEAD + "! trailing comment\n\n")


def _sub_body(src: str):
    full = f"SUBROUTINE t()\n{src}\nEND SUBROUTINE t\n"
    tree = parse_source(full)
    return tree.subprograms[0]


class TestParserDeclarations:
    def test_modern_and_legacy_styles(self):
        sub = _sub_body(
            "REAL(KIND=8), INTENT(INOUT) :: a(10)\n"
            "REAL*8 b(5, 5)\n"
            "DOUBLE PRECISION c\n"
            "INTEGER, PARAMETER :: n = 4\n"
            "LOGICAL :: flag\n"
        )
        decls = [d for d in sub.decls if isinstance(d, FDecl)]
        by_name = {e.name: (d.spec, e) for d in decls for e in d.entities}
        assert by_name["a"][0].kind == 8
        assert by_name["b"][0].kind == 8 and len(by_name["b"][1].dims) == 2
        assert by_name["c"][0].base == "real" and by_name["c"][0].kind == 8
        assert by_name["n"][1].init == FNum(4)
        assert by_name["flag"][0].base == "logical"

    def test_dimension_attribute(self):
        sub = _sub_body("REAL(KIND=8), DIMENSION(3, 3) :: m\n")
        d = next(d for d in sub.decls if isinstance(d, FDecl))
        assert len(d.entities[0].dims) == 2

    def test_deferred_shape_allocatable(self):
        sub = _sub_body("REAL(KIND=8), ALLOCATABLE, SAVE :: t(:)\n")
        d = next(d for d in sub.decls if isinstance(d, FDecl))
        assert "allocatable" in d.attrs and "save" in d.attrs
        assert d.entities[0].deferred_rank == 1

    def test_common_block(self):
        sub = _sub_body("REAL(KIND=8) :: w(4)\nCOMMON /wts/ w\n")
        from repro.fortranlib.ast import FCommon

        c = next(d for d in sub.decls if isinstance(d, FCommon))
        assert c.block == "wts" and c.names == ["w"]

    def test_type_definition_in_module(self):
        tree = parse_source(
            "MODULE m\nTYPE pt\nREAL(KIND=8) :: x\nREAL(KIND=8) :: y(3)\n"
            "END TYPE pt\nTYPE(pt) :: p\nEND MODULE m\n"
        )
        td = next(d for d in tree.modules[0].decls if isinstance(d, FTypeDef))
        assert td.name == "pt" and len(td.decls) == 2


class TestParserStatements:
    def test_do_with_step(self):
        sub = _sub_body("INTEGER :: i\nDO i = 10, 1, -1\nEND DO\n")
        do = next(s for s in sub.body if isinstance(s, FDo))
        assert isinstance(do.step, FUn)

    def test_do_while(self):
        sub = _sub_body("INTEGER :: i\ni = 0\nDO WHILE (i < 3)\ni = i + 1\nEND DO\n")
        assert any(isinstance(s, FDoWhile) for s in sub.body)

    def test_if_elseif_else(self):
        sub = _sub_body(
            "INTEGER :: x\nIF (x > 0) THEN\nx = 1\nELSE IF (x < 0) THEN\n"
            "x = 2\nELSE\nx = 3\nEND IF\n"
        )
        fi = next(s for s in sub.body if isinstance(s, FIf))
        assert len(fi.branches) == 3
        assert fi.branches[2][0] is None

    def test_one_line_if(self):
        sub = _sub_body("INTEGER :: x\nIF (x > 0) x = 0\n")
        fi = next(s for s in sub.body if isinstance(s, FIf))
        assert len(fi.branches) == 1 and len(fi.branches[0][1]) == 1

    def test_omp_sentinel_statements(self):
        sub = _sub_body(
            "INTEGER :: i\nREAL(KIND=8) :: s\n"
            "!$OMP PARALLEL DO PRIVATE(i) REDUCTION(+:s) COLLAPSE(2)\n"
            "DO i = 1, 4\ns = s + 1.0D0\nEND DO\n"
            "!$OMP END PARALLEL DO\n"
        )
        omp = next(s for s in sub.body if isinstance(s, FOmpDirective))
        assert omp.kind == "parallel_do"
        assert omp.private == ("i",)
        assert omp.reductions == (("+", "s"),)
        assert omp.collapse == 2

    def test_print_and_write(self):
        sub = _sub_body("PRINT *, 'x', 1 + 2\nWRITE(*,*) 'y'\n")
        prints = [s for s in sub.body if isinstance(s, FPrint)]
        assert len(prints) == 2

    def test_allocate_deallocate(self):
        from repro.fortranlib.ast import FAllocate, FDeallocate

        sub = _sub_body(
            "REAL(KIND=8), ALLOCATABLE :: t(:)\nALLOCATE(t(10))\nDEALLOCATE(t)\n"
        )
        assert any(isinstance(s, FAllocate) for s in sub.body)
        assert any(isinstance(s, FDeallocate) for s in sub.body)

    def test_designator_chain(self):
        sub = _sub_body("REAL(KIND=8) :: x\nx = fin%pres(3) + obj%a%b\n")
        a = next(s for s in sub.body if isinstance(s, FAssign))
        assert isinstance(a.value, FBin)

    def test_call_without_parens(self):
        sub = _sub_body("CALL doit\n")
        c = next(s for s in sub.body if isinstance(s, FCall))
        assert c.name == "doit" and c.args == ()


class TestParserExpressions:
    def _expr(self, text):
        sub = _sub_body(f"REAL(KIND=8) :: x\nx = {text}\n")
        return next(s for s in sub.body if isinstance(s, FAssign)).value

    def test_precedence(self):
        e = self._expr("1 + 2 * 3")
        assert isinstance(e, FBin) and e.op == "+"
        assert isinstance(e.right, FBin) and e.right.op == "*"

    def test_power_right_assoc(self):
        e = self._expr("2 ** 3 ** 2")
        assert e.op == "**"
        assert isinstance(e.right, FBin) and e.right.op == "**"

    def test_unary_minus(self):
        e = self._expr("-x + 1")
        assert e.op == "+" and isinstance(e.left, FUn)

    def test_comparison_and_logic(self):
        e = self._expr("x > 1 .AND. .NOT. (x < 5)")
        assert e.op == "and"

    def test_double_literal_flag(self):
        e = self._expr("1.5D0")
        assert isinstance(e, FNum) and e.is_double

    @pytest.mark.parametrize("text,tree", [
        # A sign opening a sum covers the product after it...
        ("-a*b", FUn("neg", FBin("*", FVar("a"), FVar("b")))),
        ("-a**2", FUn("neg", FBin("**", FVar("a"), FNum(2)))),
        ("+a*b + c", FBin("+", FBin("*", FVar("a"), FVar("b")), FVar("c"))),
        ("-a < -b * c", FBin("<", FUn("neg", FVar("a")),
                             FUn("neg", FBin("*", FVar("b"), FVar("c"))))),
        # ...any other sign covers one factor.
        ("a*-b*c", FBin("*", FBin("*", FVar("a"), FUn("neg", FVar("b"))),
                        FVar("c"))),
        ("a - -b", FBin("-", FVar("a"), FUn("neg", FVar("b")))),
        ("a**-b**c", FBin("**", FVar("a"),
                          FUn("neg", FBin("**", FVar("b"), FVar("c"))))),
        ("2 ** 3 ** 2", FBin("**", FNum(2), FBin("**", FNum(3), FNum(2)))),
        ("a + b < c * d", FBin("<", FBin("+", FVar("a"), FVar("b")),
                               FBin("*", FVar("c"), FVar("d")))),
        (".not. a < b", FUn("not", FBin("<", FVar("a"), FVar("b")))),
        (".not. a .and. b .or. c",
         FBin("or", FBin("and", FUn("not", FVar("a")), FVar("b")),
              FVar("c"))),
        ("a < b .and. .not. c >= d",
         FBin("and", FBin("<", FVar("a"), FVar("b")),
              FUn("not", FBin(">=", FVar("c"), FVar("d"))))),
        ("(a < b) .eq. c", FBin("==", FBin("<", FVar("a"), FVar("b")),
                                FVar("c"))),
    ])
    def test_precedence_table(self, text, tree):
        assert self._expr(text) == tree

    @pytest.mark.parametrize("text,message,col", [
        # Relations do not chain.
        ("a < b < c", "expected end of statement, found '<'", 11),
        # .NOT. opens only a logical operand.
        ("a + .not. b", "unexpected token 'not'", 9),
        ("a < .not. b", "unexpected token 'not'", 9),
    ])
    def test_precedence_errors(self, text, message, col):
        with pytest.raises(FortranSyntaxError) as info:
            self._expr(text)
        assert (info.value.message, info.value.line, info.value.col) == (
            message, 3, col)

    def test_function_prefix_form(self):
        tree = parse_source(
            "REAL(KIND=8) FUNCTION f(x)\nREAL(KIND=8) :: x\nf = x\nEND FUNCTION f\n"
        )
        sub = tree.subprograms[0]
        assert sub.kind == "function" and sub.result == "f"
        # prefix declaration recorded
        assert any(isinstance(d, FDecl) and d.entities[0].name == "f"
                   for d in sub.decls)

    def test_result_clause(self):
        tree = parse_source(
            "FUNCTION f(x) RESULT(r)\nREAL(KIND=8) :: x\nREAL(KIND=8) :: r\n"
            "r = x\nEND FUNCTION f\n"
        )
        assert tree.subprograms[0].result == "r"


class TestParserErrors:
    def test_garbage_top_level(self):
        with pytest.raises(FortranSyntaxError):
            parse_source("WHAT IS THIS\n")

    def test_missing_end(self):
        with pytest.raises(FortranSyntaxError):
            parse_source("SUBROUTINE t()\nx = 1\n")

    def test_implicit_other_than_none(self):
        with pytest.raises(FortranSyntaxError):
            parse_source("SUBROUTINE t()\nIMPLICIT REAL\nEND SUBROUTINE\n")
