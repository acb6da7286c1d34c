"""Lexer unit tests."""

import hashlib
from pathlib import Path

import pytest

from repro.diagnostics import DiagnosticSink
from repro.programs import jolden, lambdac, trees
from repro.programs.corona.source import SOURCE as CORONA_SOURCE
from repro.source.lexer import LexError, tokenize
from repro.source.tokens import (
    DOUBLE_LIT,
    EOF,
    IDENT,
    INT_LIT,
    KEYWORD,
    PUNCT,
    STRING_LIT,
)


def kinds(src):
    return [t.kind for t in tokenize(src)[:-1]]


def values(src):
    return [t.value for t in tokenize(src)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == EOF

    def test_identifier(self):
        toks = tokenize("fooBar_12")
        assert toks[0].kind == IDENT
        assert toks[0].value == "fooBar_12"

    def test_keyword_recognized(self):
        assert kinds("class") == [KEYWORD]

    def test_keyword_prefix_is_identifier(self):
        toks = tokenize("classy")
        assert toks[0].kind == IDENT

    def test_all_keywords(self):
        for word in ("view", "shares", "adapts", "sharing", "instanceof", "final"):
            assert tokenize(word)[0].kind == KEYWORD

    def test_int_literal(self):
        tok = tokenize("42")[0]
        assert tok.kind == INT_LIT
        assert tok.value == "42"

    def test_double_literal(self):
        tok = tokenize("3.25")[0]
        assert tok.kind == DOUBLE_LIT

    def test_double_with_exponent(self):
        assert tokenize("1e9")[0].kind == DOUBLE_LIT
        assert tokenize("2.5e-3")[0].kind == DOUBLE_LIT

    def test_int_followed_by_dot_method(self):
        # "1.e" is not a double continuation in our grammar: digit required
        toks = tokenize("x.f")
        assert [t.value for t in toks[:-1]] == ["x", ".", "f"]

    def test_string_literal(self):
        tok = tokenize('"hello world"')[0]
        assert tok.kind == STRING_LIT
        assert tok.value == "hello world"

    def test_string_escapes(self):
        assert tokenize(r'"a\nb\tc\\d\"e"')[0].value == 'a\nb\tc\\d"e'

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_newline_in_string_rejected(self):
        with pytest.raises(LexError):
            tokenize('"line\nbreak"')


class TestPunctuation:
    def test_multichar_greedy(self):
        assert values("== != <= >= && ||") == ["==", "!=", "<=", ">=", "&&", "||"]

    def test_single_chars(self):
        assert values("{}()[];,.") == list("{}()[];,.")

    def test_backslash_for_masks(self):
        assert values("T\\f") == ["T", "\\", "f"]

    def test_exactness_bang(self):
        assert values("A!.B") == ["A", "!", ".", "B"]

    def test_increment(self):
        assert values("i++") == ["i", "++"]

    def test_unknown_character(self):
        with pytest.raises(LexError):
            tokenize("§")


class TestCommentsAndPositions:
    def test_line_comment(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_line_numbers(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)

    def test_positions_after_comment(self):
        toks = tokenize("/* c */ x")
        assert toks[0].line == 1
        assert toks[0].col == 9

    def test_token_helpers(self):
        tok = tokenize("class")[0]
        assert tok.is_keyword("class")
        assert not tok.is_keyword("view")
        assert not tok.is_punct("{")


# ----------------------------------------------------------------------
# golden token streams
# ----------------------------------------------------------------------

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: sha256 (first 16 hex digits) of every bundled program's token stream,
#: one ``kind, value!r, line:col`` line per token, pinned when the lexer
#: still advanced its position one character at a time.
GOLDEN_STREAMS = {
    "jolden:bh": (1126, "2516c14a1c9f0591"),
    "jolden:bisort": (671, "403ce659bc476da1"),
    "jolden:em3d": (523, "19f7ccf9f916c1a1"),
    "jolden:health": (902, "a3076adf8547ebad"),
    "jolden:mst": (431, "4ccf4f04119a47d4"),
    "jolden:perimeter": (710, "f7cbac0a1212a9b5"),
    "jolden:power": (663, "f71ac5b5e9b7ea48"),
    "jolden:treeadd": (182, "f1fae76d38558e0e"),
    "jolden:tsp": (1020, "6ff22d8dfaf7902a"),
    "jolden:voronoi": (552, "44371217f9f9f6f0"),
    "trees": (420, "0bcaac33b118be92"),
    "lambdac": (1460, "053c2809b1623620"),
    "corona": (1936, "06e0496999c0819a"),
    "examples/lambda_pair.jns": (139, "e7289af0fa69b5c7"),
    "examples/lambda_pair_bad.jns": (137, "0021c854c2af081b"),
}


def bundled_sources():
    for mod in jolden.ALL:
        yield "jolden:" + mod.NAME, mod.SOURCE
    yield "trees", trees.SOURCE
    yield "lambdac", lambdac.SOURCE
    yield "corona", CORONA_SOURCE
    for path in sorted(EXAMPLES.glob("*.jns")):
        yield "examples/" + path.name, path.read_text()


def stream_digest(tokens):
    h = hashlib.sha256()
    for t in tokens:
        h.update(f"{t.kind}\t{t.value!r}\t{t.line}:{t.col}\n".encode())
    return h.hexdigest()[:16]


def test_bundled_token_streams_match_golden():
    seen = {}
    for name, source in bundled_sources():
        tokens = tokenize(source)
        seen[name] = (len(tokens), stream_digest(tokens))
    assert seen == GOLDEN_STREAMS


#: Edge inputs with their exact streams: whitespace kinds, comments over
#: lines, escapes (a backslash-newline continues a literal), numbers,
#: Unicode letters and digits, and greedy punctuation.
EDGE_STREAMS = [
    ("a\t b\r\n  c /* multi\n line */ d // tail\n e",
     [(IDENT, "a", 1, 1), (IDENT, "b", 1, 4), (IDENT, "c", 2, 3), (IDENT, "d", 3, 10),
      (IDENT, "e", 4, 2), (EOF, "", 4, 3)]),
    ('"esc \\n \\t \\" \\\\ \\q" x',
     [(STRING_LIT, 'esc \n \t " \\ q', 1, 1), (IDENT, "x", 1, 22), (EOF, "", 1, 23)]),
    ('"back\\\nslash" y',
     [(STRING_LIT, "back\nslash", 1, 1), (IDENT, "y", 2, 8), (EOF, "", 2, 9)]),
    (".5 1.e3 2.5e-3 3. 1_0",
     [(DOUBLE_LIT, ".5", 1, 1), (INT_LIT, "1", 1, 4), (PUNCT, ".", 1, 5),
      (IDENT, "e3", 1, 6), (DOUBLE_LIT, "2.5e-3", 1, 9), (INT_LIT, "3", 1, 16),
      (PUNCT, ".", 1, 17), (INT_LIT, "1", 1, 19), (IDENT, "_0", 1, 20), (EOF, "", 1, 22)]),
    ("café ٣٤ ²x a%=b--c",
     [(IDENT, "café", 1, 1), (INT_LIT, "٣٤", 1, 6), (INT_LIT, "²", 1, 9), (IDENT, "x", 1, 10),
      (IDENT, "a", 1, 12), (PUNCT, "%=", 1, 13), (IDENT, "b", 1, 15), (PUNCT, "--", 1, 16),
      (IDENT, "c", 1, 18), (EOF, "", 1, 19)]),
    ("\n\n\n", [(EOF, "", 4, 1)]),
]


@pytest.mark.parametrize("source,expected", EDGE_STREAMS)
def test_edge_streams(source, expected):
    assert [(t.kind, t.value, t.line, t.col) for t in tokenize(source)] == expected


# ----------------------------------------------------------------------
# JNS-LEX-* codes and positions, raising and with a sink
# ----------------------------------------------------------------------

#: (source, [(code, line, col)] reported with a sink, tokens kept).
LEX_ERRORS = [
    ('"unterminated', [("JNS-LEX-002", 1, 1)], [(STRING_LIT, "unterminated", 1, 1)]),
    ('x = "a\\', [("JNS-LEX-002", 1, 5)],
     [(IDENT, "x", 1, 1), (PUNCT, "=", 1, 3), (STRING_LIT, "a", 1, 5)]),
    ("a\n  /* never ends\n\n", [("JNS-LEX-003", 2, 3)], [(IDENT, "a", 1, 1)]),
    ('"new\nline" z', [("JNS-LEX-004", 1, 5), ("JNS-LEX-002", 2, 5)],
     [(STRING_LIT, "new", 1, 1), (IDENT, "line", 2, 1), (STRING_LIT, " z", 2, 5)]),
    ('  "a\\\nb\nc"', [("JNS-LEX-004", 2, 2), ("JNS-LEX-002", 3, 2)],
     [(STRING_LIT, "a\nb", 1, 3), (IDENT, "c", 3, 1), (STRING_LIT, "", 3, 2)]),
    ("x § y", [("JNS-LEX-001", 1, 3)], [(IDENT, "x", 1, 1), (IDENT, "y", 1, 5)]),
]


@pytest.mark.parametrize("source,codes,kept", LEX_ERRORS)
def test_lex_error_raises_first_code_at_its_position(source, codes, kept):
    code, line, col = codes[0]
    with pytest.raises(LexError) as info:
        tokenize(source)
    err = info.value
    assert (err.code, err.line, err.col) == (code, line, col)
    assert str(err).endswith(f" at {line}:{col}")


@pytest.mark.parametrize("source,codes,kept", LEX_ERRORS)
def test_lex_error_sink_records_every_code_and_keeps_lexing(source, codes, kept):
    sink = DiagnosticSink()
    tokens = tokenize(source, sink)
    assert [(d.code, d.span.line, d.span.col) for d in sink.diagnostics] == codes
    assert all(d.message.endswith(f" at {d.span.line}:{d.span.col}") for d in sink.diagnostics)
    assert [(t.kind, t.value, t.line, t.col) for t in tokens[:-1]] == kept
    assert tokens[-1].kind == EOF
