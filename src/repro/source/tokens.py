"""Token definitions for the J&s surface language.

The surface language is the Java-like subset used throughout the paper
(Figures 1-7), extended with the pieces the evaluation programs need:
arrays, ``double`` arithmetic, and a small ``Sys`` native library.
"""

from __future__ import annotations

from ..records import Frozen

# Token kinds.
IDENT = "IDENT"
INT_LIT = "INT_LIT"
DOUBLE_LIT = "DOUBLE_LIT"
STRING_LIT = "STRING_LIT"
KEYWORD = "KEYWORD"
PUNCT = "PUNCT"
EOF = "EOF"

KEYWORDS = frozenset(
    {
        "class",
        "extends",
        "shares",
        "adapts",
        "sharing",
        "view",
        "new",
        "final",
        "abstract",
        "this",
        "null",
        "true",
        "false",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
        "instanceof",
        "int",
        "double",
        "boolean",
        "String",
        "void",
    }
)

# Multi-character punctuation must be listed longest-first so the lexer
# can do greedy matching.
PUNCTUATION = (
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "++",
    "--",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    ".",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "&",
    "|",
    "\\",
    "?",
    ":",
)


_set = object.__setattr__


class Token(Frozen):
    """A single lexical token with its source position (1-based)."""

    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int) -> None:
        _set(self, "kind", kind)
        _set(self, "value", value)
        _set(self, "line", line)
        _set(self, "col", col)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (
                self.kind == other.kind
                and self.value == other.value
                and self.line == other.line
                and self.col == other.col
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.value, self.line, self.col))

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"

    def is_keyword(self, word: str) -> bool:
        return self.kind == KEYWORD and self.value == word

    def is_punct(self, punct: str) -> bool:
        return self.kind == PUNCT and self.value == punct
