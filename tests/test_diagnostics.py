"""The structured diagnostics engine: spans, stable codes, caret
rendering, JSON output, and multi-error accumulation across the whole
static pipeline (``check_source``)."""

import json

import pytest

from repro import check_source
from repro.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticSink,
    Span,
    render,
)

# Three independent front-end errors: a dangling `+` (line 3), a missing
# `;` before `}` (line 4), and a stray `$` (line 7).  Panic-mode
# recovery must report all of them in one pass.
PARSE_ERRORS_SOURCE = """\
class Main {
  int main() {
    int x = 1 +;
    return x
  }
  int ok() { return 2; }
  double bad() { return $ 3.0; }
}
"""

# Three independent semantic errors: an unknown name (line 4) and two
# type errors in a sibling method (line 6).
TYPE_ERRORS_SOURCE = """\
class Main {
  int main() {
    int x = 1;
    return y;
  }
  boolean b() { return 1 + true; }
}
"""


class TestMultiError:
    def test_parse_errors_all_reported_with_lines(self):
        sink = check_source(PARSE_ERRORS_SOURCE)
        errors = sink.errors
        assert len(errors) >= 3
        codes = {d.code for d in errors}
        assert {"JNS-LEX-001", "JNS-PARSE-001", "JNS-PARSE-002"} <= codes
        lines = {d.span.line for d in errors if d.span is not None}
        assert {3, 4, 7} <= lines

    def test_type_errors_all_reported_with_lines(self):
        sink = check_source(TYPE_ERRORS_SOURCE)
        errors = sink.errors
        assert len(errors) >= 3
        by_code = {d.code: d for d in errors}
        assert by_code["JNS-RESOLVE-001"].span.line == 4
        assert by_code["JNS-TYPE-005"].span.line == 6
        assert by_code["JNS-TYPE-004"].span.line == 6

    def test_every_reported_code_is_registered(self):
        for source in (PARSE_ERRORS_SOURCE, TYPE_ERRORS_SOURCE):
            for diag in check_source(source):
                assert diag.code in CODES

    def test_clean_program_has_no_diagnostics(self):
        sink = check_source("class A { int m() { return 1; } }")
        assert not sink.has_errors
        assert len(sink) == 0


class TestSpan:
    def test_from_pos(self):
        span = Span.from_pos((3, 7))
        assert (span.line, span.col) == (3, 7)
        assert str(span) == "3:7"

    def test_from_pos_none_safe(self):
        assert Span.from_pos(None) is None

    def test_with_file_and_str(self):
        span = Span(2, 5).with_file("demo.jns")
        assert str(span) == "demo.jns:2:5"
        # stamping never overwrites an existing file
        assert span.with_file("other.jns").file == "demo.jns"

    def test_to_dict_defaults_end_to_start(self):
        assert Span(4, 9).to_dict() == {
            "line": 4,
            "col": 9,
            "end_line": 4,
            "end_col": 9,
        }


class TestDiagnostic:
    def test_str_keeps_where_message_shape(self):
        d = Diagnostic("JNS-TYPE-001", "error", "boom", where="Main.main")
        assert str(d) == "Main.main: boom"

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Diagnostic("JNS-GEN-000", "fatal", "boom")

    def test_render_caret_points_at_column(self):
        source = "class A {\n  int x = @1;\n}\n"
        d = Diagnostic(
            "JNS-LEX-001", "error", "unexpected character '@'",
            span=Span(2, 11, file="demo.jns"),
        )
        out = render(d, source)
        line_text, caret = out.splitlines()[1:3]
        assert line_text == "      int x = @1;"
        assert caret == "    " + " " * 10 + "^"
        assert out.splitlines()[0].startswith("demo.jns:2:11: error:")
        assert out.splitlines()[0].endswith("[JNS-LEX-001]")

    def test_render_includes_notes(self):
        d = Diagnostic("JNS-RES-001", "error", "out of fuel",
                       notes=["at Main.main"])
        assert "  note: at Main.main" in render(d, None)


class TestDiagnosticSink:
    def test_accumulates_and_classifies(self):
        sink = DiagnosticSink()
        sink.error("JNS-TYPE-001", "bad")
        sink.warning("JNS-TYPE-014", "iffy")
        assert len(sink) == 2
        assert [d.code for d in sink.errors] == ["JNS-TYPE-001"]
        assert [d.code for d in sink.warnings] == ["JNS-TYPE-014"]
        assert sink.has_errors

    def test_stamps_default_file_on_spans(self):
        sink = DiagnosticSink(file="demo.jns")
        d = sink.error("JNS-PARSE-001", "bad", span=Span(1, 1))
        assert d.span.file == "demo.jns"

    def test_json_shape_matches_text_set(self):
        sink = check_source(TYPE_ERRORS_SOURCE, file="demo.jns")
        payload = json.loads(sink.to_json())
        assert payload["ok"] is False
        json_codes = sorted(d["code"] for d in payload["diagnostics"])
        assert json_codes == sorted(d.code for d in sink)
        for entry in payload["diagnostics"]:
            assert entry["severity"] in ("error", "warning", "note")
            assert entry["code"] in CODES
            if "span" in entry:
                assert entry["span"]["line"] >= 1
                assert entry["span"]["col"] >= 1


# One ill-formed program per error, each pinned to its first diagnostic:
# code, line, column and message.
PINNED_ERRORS = [
    (
        "class Main {\n  int main() {\n    int x = 1;\n    x + 1 = 2;\n"
        "    return x;\n  }\n}\n",
        ("JNS-PARSE-003", 4, 11, "invalid assignment target at 4:11 (got '=')"),
    ),
    (
        "class Main {\n  int main() {\n    return new Main;\n  }\n}\n",
        ("JNS-PARSE-001", 3, 20,
         "expected '(' or '[' after new T at 3:20 (got ';')"),
    ),
    (
        "class Main {\n  boolean main() {\n    int x = 1;\n    return !x;\n"
        "  }\n}\n",
        ("JNS-TYPE-005", 4, 12, "! applied to int"),
    ),
    (
        # an error in a local's initializer is reported where it is,
        # not as "expected ';'" at the local's name
        "class Main {\n  int main() {\n    Main m = new Main;\n"
        "    return 0;\n  }\n}\n",
        ("JNS-PARSE-001", 3, 22,
         "expected '(' or '[' after new T at 3:22 (got ';')"),
    ),
]


class TestPinnedErrors:
    @pytest.mark.parametrize("source,expected", PINNED_ERRORS)
    def test_first_diagnostic_is_pinned(self, source, expected):
        first = check_source(source).errors[0]
        assert (first.code, first.span.line, first.span.col, first.message) == expected

    def test_run_without_entry_class(self, tmp_path, capsys):
        """``repro run`` of a file with no ``Main`` fails with
        JNS-RESOLVE-006, which carries no source position; it is not a
        failure of the running program, so it is no "runtime error"."""
        from repro.cli import main

        path = tmp_path / "nomain.jns"
        path.write_text("class A { int m() { return 1; } }\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: no entry class Main",
            "[JNS-RESOLVE-006]",
        ]
