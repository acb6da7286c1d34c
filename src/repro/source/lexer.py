"""Hand-written lexer for the J&s surface language."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..diagnostics import Span
from ..errors import JnsError
from ..obs import TRACER
from .tokens import (
    DOUBLE_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    KEYWORDS,
    PUNCT,
    PUNCTUATION,
    STRING_LIT,
    Token,
)

if TYPE_CHECKING:
    from ..sink import DiagnosticSink


class LexError(JnsError):
    """Raised when the input contains a character sequence that is not a
    valid J&s token."""

    code = "JNS-LEX-001"

    def __init__(
        self, message: str, line: int, col: int, code: Optional[str] = None
    ) -> None:
        super().__init__(
            f"{message} at {line}:{col}", code=code, span=Span(line, col)
        )
        self.line = line
        self.col = col


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\", "'": "'", "0": "\0"}

#: Punctuation by first character, longest first (greedy matching).
_PUNCT_BY_FIRST: Dict[str, Tuple[str, ...]] = {}
for _punct in PUNCTUATION:
    _PUNCT_BY_FIRST[_punct[0]] = _PUNCT_BY_FIRST.get(_punct[0], ()) + (_punct,)
del _punct

_SPACE = re.compile(r"[ \t\r\n]+")
#: The rest of an identifier: ``\w`` is exactly ``str.isalnum()`` or ``_``.
_WORD = re.compile(r"\w*")
#: A run of string-literal characters that need no special handling.
_STRING_RUN = re.compile(r'[^"\\\n]*')


def tokenize(source: str, sink: Optional[DiagnosticSink] = None) -> List[Token]:
    """Convert ``source`` into a token list ending with an EOF token.

    Supports ``//`` line comments and ``/* */`` block comments.

    Without a ``sink`` the first lexical error raises :class:`LexError`.
    With one, errors are recorded as diagnostics and lexing continues
    (skipping the offending character / truncating the offending
    literal) so later phases can still report *their* findings.
    """
    if not TRACER.enabled:
        return _tokenize(source, sink)
    with TRACER.span("lex", chars=len(source)):
        tokens = _tokenize(source, sink)
        TRACER.count("lex.tokens", len(tokens))
        return tokens


def _tokenize(source: str, sink: Optional[DiagnosticSink]) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append

    def fail(message: str, line: int, col: int, code: str) -> None:
        if sink is None:
            raise LexError(message, line, col, code=code)
        sink.error(code, f"{message} at {line}:{col}", span=Span(line, col))

    # Positions are tracked per token, not per character: ``bol`` is the
    # index where ``line`` begins, so the column of index ``i`` is
    # ``i - bol + 1``.  Only whitespace, block comments and string
    # literals can contain newlines; they end at the bottom of the loop,
    # which moves ``line``/``bol`` past the newlines they consumed.
    i = 0
    line = 1
    bol = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            j = _SPACE.match(source, i).end()
        elif ch == "/" and source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        elif ch == "/" and source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                fail("unterminated block comment", line, i - bol + 1, "JNS-LEX-003")
                j = n
            else:
                j += 2
        elif ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_double = False
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                is_double = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    is_double = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            kind = DOUBLE_LIT if is_double else INT_LIT
            append(Token(kind, source[i:j], line, i - bol + 1))
            i = j
            continue
        elif ch.isalpha() or ch == "_":
            j = _WORD.match(source, i + 1).end()
            text = source[i:j]
            append(Token(KEYWORD if text in KEYWORDS else IDENT, text, line, i - bol + 1))
            i = j
            continue
        elif ch == '"':
            col = i - bol + 1
            chars: List[str] = []
            j = i + 1
            while True:
                k = _STRING_RUN.match(source, j).end()
                chars.append(source[j:k])
                j = k
                if j >= n:
                    fail("unterminated string literal", line, col, "JNS-LEX-002")
                    break
                c = source[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    if j + 1 >= n:
                        j = n
                        fail("unterminated string literal", line, col, "JNS-LEX-002")
                        break
                    esc = source[j + 1]
                    chars.append(_ESCAPES.get(esc, esc))
                    j += 2
                    continue
                # A raw newline (an escaped one is part of the literal).
                last = source.rfind("\n", i, j)
                if last < 0:
                    fail("newline in string literal", line, j - bol + 1, "JNS-LEX-004")
                else:
                    at_line = line + source.count("\n", i, j)
                    fail("newline in string literal", at_line, j - last, "JNS-LEX-004")
                j += 1  # recovery: the newline ends the literal
                break
            append(Token(STRING_LIT, "".join(chars), line, col))
        else:
            for punct in _PUNCT_BY_FIRST.get(ch, ()):
                if source.startswith(punct, i):
                    append(Token(PUNCT, punct, line, i - bol + 1))
                    i += len(punct)
                    break
            else:
                fail(f"unexpected character {ch!r}", line, i - bol + 1, "JNS-LEX-001")
                i += 1  # recovery: skip the offending character
            continue
        newlines = source.count("\n", i, j)
        if newlines:
            line += newlines
            bol = source.rfind("\n", i, j) + 1
        i = j

    append(Token(EOF, "", line, n - bol + 1))
    return tokens
