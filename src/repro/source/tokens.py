"""Token definitions for the J&s surface language.

The surface language is the Java-like subset used throughout the paper
(Figures 1-7), extended with the pieces the evaluation programs need:
arrays, ``double`` arithmetic, and a small ``Sys`` native library.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    """A single lexical token with its source position (1-based)."""

    kind: str
    value: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"

    def is_keyword(self, word: str) -> bool:
        return self.kind == KEYWORD and self.value == word

    def is_punct(self, punct: str) -> bool:
        return self.kind == PUNCT and self.value == punct
