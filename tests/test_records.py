"""The value classes of the run path other than types: field-wise
equality, hashing (or none, for the mutable ones), defaults, reprs and
immutability, as ``@dataclass`` gave them before they were hand-written
over ``__slots__`` (see :mod:`repro.records`)."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.api import Program, compile_program
from repro.diagnostics import Diagnostic, Span
from repro.lang.incremental import Sig
from repro.lang.queries import CacheStats, QueryStat
from repro.lang.typecheck import CheckReport
from repro.obs import InstantRecord, SpanRecord
from repro.source.tokens import Token
from repro.telemetry import TraceContext

#: (builder, field tuple, a same-class value differing in one field)
FROZEN = [
    (lambda: Token("IDENT", "x", 1, 2), ("IDENT", "x", 1, 2), Token("IDENT", "x", 1, 3)),
    (lambda: Span(1, 2, 1, 4, "f.jns"), (1, 2, 1, 4, "f.jns"), Span(1, 2, 1, 4)),
    (lambda: QueryStat("table", "mem", 3, 1, 2), ("table", "mem", 3, 1, 2, 0),
     QueryStat("table", "mem", 3, 1, 2, 1)),
    (lambda: CacheStats((QueryStat("t", "q", 1, 0, 1),)), ((QueryStat("t", "q", 1, 0, 1),),),
     CacheStats(())),
    (lambda: SpanRecord("parse", ("run", "parse"), 5, 7, (("n", 1),)),
     ("parse", ("run", "parse"), 5, 7, (("n", 1),), 1),
     SpanRecord("parse", ("run", "parse"), 5, 7, (("n", 1),), 2)),
    (lambda: InstantRecord("hit", 9, ()), ("hit", 9, (), 1), InstantRecord("hit", 10, ())),
    (lambda: TraceContext(1, 2), (1, 2, None), TraceContext(1, 2, 3)),
]
FROZEN_IDS = [type(build()).__name__ for build, *_ in FROZEN]


@pytest.mark.parametrize("build,fields,other", FROZEN, ids=FROZEN_IDS)
class TestFrozen:
    def test_equality_and_hash(self, build, fields, other):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b) == hash(fields)
        assert a != other
        assert a.__eq__(fields) is NotImplemented and a != fields

    def test_fields_cannot_be_assigned(self, build, fields, other):
        a = build()
        for name in type(a).__slots__:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == build()

    def test_copy_and_pickle(self, build, fields, other):
        a = build()
        for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert clone == a


def test_field_reprs():
    assert repr(Span(1, 2)) == "Span(line=1, col=2, end_line=None, end_col=None, file=None)"
    assert repr(QueryStat("t", "q", 1, 0, 1)) == (
        "QueryStat(engine='t', name='q', hits=1, misses=0, size=1, revalidations=0)"
    )
    assert repr(Token("IDENT", "x", 1, 2)) == "Token(IDENT, 'x', 1:2)"


class TestDiagnostic:
    def test_defaults_are_fresh_per_instance(self):
        a = Diagnostic("JNS-GEN-000", "error", "m")
        b = Diagnostic("JNS-GEN-000", "error", "m")
        assert (a.span, a.where, a.notes, a.explain) == (None, None, [], None)
        a.notes.append("n")
        assert b.notes == []

    def test_bad_severity_raises(self):
        with pytest.raises(ValueError, match="unknown severity 'fatal'"):
            Diagnostic("JNS-GEN-000", "fatal", "m")

    def test_keywords_equality_and_no_hash(self):
        a = Diagnostic(code="JNS-GEN-000", severity="note", message="m", span=Span(1, 1),
                       notes=["x"])
        assert a == Diagnostic("JNS-GEN-000", "note", "m", Span(1, 1), None, ["x"])
        assert a != Diagnostic("JNS-GEN-000", "note", "m", Span(1, 1))
        assert a.__eq__("m") is NotImplemented
        with pytest.raises(TypeError):
            hash(a)
        a.where = "Main.main"  # mutable
        assert str(a) == "Main.main: m"
        assert repr(a).startswith("Diagnostic(code='JNS-GEN-000', severity='note'")


class TestCheckReport:
    def test_defaults_are_fresh_per_instance(self):
        a, b = CheckReport(), CheckReport()
        assert (a.errors, a.warnings, a.cache_stats) == ([], [], None)
        a.errors.append(Diagnostic("JNS-GEN-000", "error", "m"))
        assert b.errors == [] and b.warnings == [] and a.warnings is not b.warnings
        assert not a.ok and b.ok

    def test_equality_and_no_hash(self):
        assert CheckReport() == CheckReport([], [], None)
        assert CheckReport() != CheckReport([Diagnostic("JNS-GEN-000", "error", "m")])
        with pytest.raises(TypeError):
            hash(CheckReport())


def test_program_and_sig_compare_fieldwise_without_hash():
    program = compile_program("class Main { int main() { return 1; } }")
    assert program == Program(program.table, program.report)
    assert program != Program(program.table, None)
    assert Sig(1, (2,), (3,)) == Sig(1, (2,), (3,)) != Sig(1, (2,), (4,))
    for value in (program, Sig(1, 2, 3)):
        with pytest.raises(TypeError):
            hash(value)
