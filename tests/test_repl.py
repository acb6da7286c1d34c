"""REPL session tests."""

import pytest

from repro.repl import ReplSession


@pytest.fixture
def session():
    return ReplSession()


class TestDeclarations:
    def test_class_accumulates(self, session):
        out = session.feed("class A { class C { int v = 7; } }")
        assert out == ["ok (1 top-level classes: A)"]
        assert len(session.decls) == 1

    def test_multiple_classes(self, session):
        session.feed("class A { class C { } }")
        out = session.feed("class B extends A { class C shares A.C { } }")
        assert "A, B" in out[0]

    def test_bad_declaration_not_kept(self, session):
        out = session.feed("class X extends Missing { }")
        assert out[0].startswith("error:")
        assert session.decls == []

    def test_reset(self, session):
        session.feed("class A { }")
        assert session.feed(":reset") == ["(cleared)"]
        assert session.decls == []

    def test_classes_listing(self, session):
        session.feed("class A { }")
        assert session.feed(":classes") == ["class A { }"]


class TestEvaluation:
    def test_expression_prints_value(self, session):
        assert session.feed("1 + 2 * 3") == ["7"]

    def test_trailing_semicolon_suppresses(self, session):
        assert session.feed("1 + 2;") == []

    def test_statements_run(self, session):
        out = session.feed('int x = 3; Sys.print(x * x);')
        assert out == ["9"]

    def test_uses_declared_classes(self, session):
        session.feed("class A { class C { int v = 7; } }")
        session.feed(
            "class B extends A { class C shares A.C "
            "{ int twice() { return v * 2; } } }"
        )
        out = session.feed("B!.C c = (view B!.C)(new A.C()); Sys.print(c.twice());")
        assert out == ["14"]

    def test_parse_error_reported(self, session):
        out = session.feed("nonsense +")
        assert out[0].startswith("error:")

    def test_runtime_error_reported(self, session):
        out = session.feed("int[] a = new int[1]; Sys.print(a[5]);")
        assert any("runtime error" in line for line in out)

    def test_empty_input(self, session):
        assert session.feed("   ") == []


class TestMetaCommands:
    @pytest.fixture(autouse=True)
    def _tracer_restored(self):
        from repro import obs

        yield
        obs.disable()
        obs.TRACER.reset()

    def test_stats_prints_cache_table(self, session):
        session.feed("1 + 2")
        out = session.feed(":stats")
        assert out and out[0].startswith("cache stats")

    def test_trace_on_off(self, session):
        from repro import obs

        assert session.feed(":trace on") == [
            "(tracing on — run some input, then :profile)"
        ]
        assert obs.TRACER.enabled
        session.feed("1 + 2")
        assert obs.TRACER.observations > 0
        assert session.feed(":trace off") == ["(tracing off)"]
        assert not obs.TRACER.enabled

    def test_profile_reports_traced_work(self, session):
        session.feed(":trace on")
        session.feed("class A { class C { int v = 7; } }")
        session.feed("Sys.print(new A.C().v);")
        out = session.feed(":profile")
        text = "\n".join(out)
        assert "phase timings:" in text
        # REPL inputs run the full static pipeline per line
        assert "lex" in text and "typecheck" in text
        assert "cache stats" in text  # CacheStats folded into the report

    def test_profile_shows_specialize_phase(self, session):
        """Statement inputs run on the codegen backend, so the traced
        pipeline includes the ahead-of-time specialization pass."""
        session.feed(":trace on")
        session.feed("class A { class C { int v = 7; } }")
        session.feed("Sys.print(new A.C().v);")
        out = session.feed(":profile")
        text = "\n".join(out)
        assert "specialize" in text

    def test_stats_after_specialized_run(self, session):
        """:stats still renders the process-wide cache table when the
        codegen backend (with its class records and layout table) has
        executed a statement."""
        session.feed("class A { class C { int v = 7; } }")
        assert session.feed("Sys.print(new A.C().v);") == ["7"]
        out = session.feed(":stats")
        assert out and out[0].startswith("cache stats")
        assert any("hit" in line for line in out)

    def test_profile_without_trace_hints_at_enabling(self, session):
        out = session.feed(":profile")
        assert out == ["(no trace data — enable collection with :trace on)"]

    def test_unknown_meta_command(self, session):
        out = session.feed(":bogus")
        assert "unknown command" in out[0] and ":trace" in out[0]


class TestMultiline:
    def test_needs_more_on_open_brace(self):
        assert ReplSession.needs_more("class A {")
        assert not ReplSession.needs_more("class A { }")

    def test_needs_more_ignores_braces_in_strings(self):
        assert not ReplSession.needs_more('Sys.print("{");')


class TestLineProfile:
    def test_lines_toggle_and_table(self, session):
        session.feed(
            "class A { int f() { int i = 0; int t = 0; "
            "while (i < 5) { t = t + i; i = i + 1; } return t; } }"
        )
        out = session.feed(":lines on")
        assert "line profiling on" in out[0]
        out = session.feed("new A().f()")
        assert out[0] == "10"  # the value still prints first
        assert any("steps" in line for line in out)
        assert any("█" in line for line in out)

    def test_bare_lines_reshows_last_table(self, session):
        session.feed("class A { int f() { return 3; } }")
        session.feed(":lines on")
        ran = session.feed("new A().f()")
        again = session.feed(":lines")
        assert again == ran[1:]  # the table, minus the printed value

    def test_bare_lines_before_any_run(self, session):
        assert "no line profile yet" in session.feed(":lines")[0]

    def test_lines_off(self, session):
        session.feed(":lines on")
        out = session.feed(":lines off")
        assert "off" in out[0]
        session.feed("class A { int f() { return 3; } }")
        out = session.feed("new A().f()")
        assert out == ["3"]
