"""Tokenizer for the FORTRAN subset (free-form source).

Handles case-insensitive keywords/identifiers, integer/real literals with
``E``/``D`` exponents, string literals with doubled-quote escaping, dotted
logical operators (``.AND.``), ``&`` continuation lines, ``!`` comments, and
``!$OMP`` sentinels (surfaced as dedicated OMP tokens carrying their text).

Each line is cut into lexemes by one compiled scanner regex (:data:`_SCAN`);
Python code runs once per lexeme, not once per character.  Continuation
follows free form: comment and blank lines between a trailing ``&`` and its
continuation line are skipped, and a leading ``&`` on the continuation line
marks where the statement resumes.
"""

from __future__ import annotations

import re

from ..errors import FortranSyntaxError
from ..robust import inject

__all__ = ["Token", "tokenize", "TokenStream"]


class Token:
    """One lexeme.  ``low`` is ``text`` case-folded once, for the matchers."""

    __slots__ = ("kind", "text", "line", "col", "low")

    def __init__(self, kind: str, text: str, line: int, col: int):
        # kind: 'name','int','real','string','op','logical','newline',
        # 'omp','eof'
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.low = text.lower()

    def lower(self) -> str:
        return self.low

    def __repr__(self) -> str:
        return (f"Token(kind={self.kind!r}, text={self.text!r}, "
                f"line={self.line}, col={self.col})")


_DOTTED = {
    ".and.": "and", ".or.": "or", ".not.": "not",
    ".true.": "true", ".false.": "false",
    ".eq.": "==", ".ne.": "/=", ".lt.": "<", ".le.": "<=",
    ".gt.": ">", ".ge.": ">=",
}

# Alternatives are tried in order at each position: a dotted operator
# before a number (``.5``), and the operators longest first.  The dotted
# words fold ASCII case only, so ``.falſe.`` is not ``.false.``.  A group
# name is the token kind it produces, except for the line-level cases.
_SCAN = re.compile(r"""
    [ \t]+
  | (?P<logical>\.(?ai:true|false)\.)
  | (?P<dotted>\.(?ai:and|or|not|eq|ne|lt|le|gt|ge)\.)
  | (?P<real>(?:\d+\.\d*|\.\d+)(?:[eEdD][+-]?\d+)?(?:_\d+)?
            |\d+[eEdD][+-]?\d+(?:_\d+)?)
  | (?P<int>\d+(?:_\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>::|\*\*|==|/=|<=|>=|=>|[(),+\-*/<>=%:])
  | (?P<semicolon>;)
  | (?P<string>'[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!"))
  | (?P<comment>!)
  | (?P<continuation>&(?=[ \t]*(?:!|$)))
  | (?P<amp>&[ \t]*)
  | (?P<bad>.)
""", re.VERBOSE)

_PLAIN = frozenset(("name", "op", "int", "real"))


def tokenize(source: str) -> list[Token]:
    from ..observe import get_metrics, get_tracer

    with get_tracer().span("fortran.lex") as _sp:
        tokens = _tokenize(source)
        tokens = inject("fortran.lex.tokens", tokens) or tokens
        _sp.set(tokens=len(tokens))
        get_metrics().counter("fortran.lex.tokens").inc(len(tokens))
        return tokens


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    lines = source.splitlines()
    # The statement continues on the next non-comment, non-blank line.
    continued = False
    # An OMP directive whose last line ended with '&': it continues on the
    # next line, which must be another '!$OMP' (or '!$OMP&') sentinel line.
    omp_open: Token | None = None

    for lineno, line in enumerate(lines, start=1):
        if omp_open is not None and not line.lstrip().upper().startswith("!$OMP"):
            raise FortranSyntaxError(
                "'!$OMP' continuation ('&') not followed by an '!$OMP' line",
                omp_open.line, omp_open.col,
            )
        was_continued, continued = continued, False
        start = len(tokens)
        emitted_on_line = False
        for m in _SCAN.finditer(line):
            kind = m.lastgroup
            if kind is None:                      # blanks
                continue
            if kind in _PLAIN:
                append(Token(kind, m.group(), lineno, m.start() + 1))
                emitted_on_line = True
            elif kind == "semicolon":
                append(Token("newline", ";", lineno, m.start() + 1))
            elif kind == "string":
                text = m.group()
                quote = text[0]
                append(Token("string", text[1:-1].replace(quote * 2, quote),
                             lineno, m.start() + 1))
                emitted_on_line = True
            elif kind == "logical" or kind == "dotted":
                word = _DOTTED[m.group().lower()]
                append(Token("op" if kind == "dotted" else "logical", word,
                             lineno, m.start() + 1))
                emitted_on_line = True
            elif kind == "comment":
                rest = line[m.start():]
                if rest.upper().startswith("!$OMP"):
                    text = rest.strip()
                    if omp_open is not None:
                        # Continuation line: drop the '!$OMP' (or '!$OMP&')
                        # sentinel and splice onto the open directive.
                        body = text[5:]
                        if body.startswith("&"):
                            body = body[1:]
                        text = f"{omp_open.text} {body.strip()}"
                        omp_open = Token("omp", text, omp_open.line, omp_open.col)
                    else:
                        omp_open = Token("omp", text, lineno, m.start() + 1)
                    if omp_open.text.endswith("&"):
                        # Multi-line directive: stay open for the next line.
                        omp_open = Token("omp", omp_open.text[:-1].rstrip(),
                                         omp_open.line, omp_open.col)
                    else:
                        append(omp_open)
                        omp_open = None
                        emitted_on_line = True
                break
            elif kind == "continuation":
                # Trailing '&' (maybe before a comment): no newline here.
                continued = True
                break
            elif kind == "amp":
                if was_continued and not line[:m.start()].strip(" \t"):
                    continue          # leading '&' of a continuation line
                raise FortranSyntaxError(
                    "unexpected text after continuation '&'",
                    lineno, m.end() + 1)
            else:
                c = m.group()
                if c in "'\"":
                    raise FortranSyntaxError("unterminated string",
                                             lineno, m.start() + 1)
                raise FortranSyntaxError(f"unexpected character {c!r}",
                                         lineno, m.start() + 1)

        if continued or omp_open is not None:
            continue          # statement or directive still open
        if was_continued and len(tokens) == start:
            continued = True  # comment or blank line inside a statement
            continue
        if emitted_on_line or (tokens and tokens[-1].kind != "newline"):
            append(Token("newline", "\n", lineno, len(line) + 1))

    if omp_open is not None:
        raise FortranSyntaxError(
            "'!$OMP' continuation ('&') at end of source",
            omp_open.line, omp_open.col,
        )
    tokens.append(Token("eof", "", len(lines) + 1, 1))
    return tokens


class TokenStream:
    """Cursor over the token list with convenience matchers.

    The list always ends with the ``eof`` token and the cursor never moves
    past it, so the matchers index the list directly.  ``text`` arguments
    are lower-case literals, compared with each token's pre-folded
    ``low``.
    """

    __slots__ = ("tokens", "pos")

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.tokens[self.pos]
        return t.kind == kind and (text is None or t.low == text)

    def at_name(self, *names: str) -> bool:
        t = self.tokens[self.pos]
        return t.kind == "name" and t.low in names

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        t = self.tokens[self.pos]
        if t.kind != kind or (text is not None and t.low != text):
            return None
        if kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.tokens[self.pos]
        if t.kind != kind or (text is not None and t.low != text):
            raise FortranSyntaxError(
                f"expected {text or kind!r}, found {t.text!r}", t.line, t.col
            )
        if kind != "eof":
            self.pos += 1
        return t

    def skip_newlines(self) -> None:
        tokens = self.tokens
        while tokens[self.pos].kind == "newline":
            self.pos += 1

    def expect_eol(self) -> None:
        t = self.tokens[self.pos]
        if t.kind == "newline":
            self.pos += 1
        elif t.kind != "eof":
            raise FortranSyntaxError(
                f"expected end of statement, found {t.text!r}", t.line, t.col
            )
