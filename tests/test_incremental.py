"""The fine-grained incremental checker (ISSUE 7 tentpole).

Covers the chunker (two-level class regions with context fragments),
the three-signature edit classifier (struct / api / body), the
scratch-fallback taxonomy, the incremental accounting, and — most
importantly — that a body-only graft is visible to *existing* runtime
consumers (interpreters built before the edit), since the splice keeps
the resolved declaration objects that live caches retained.
"""

from __future__ import annotations

import pytest

from repro.api import check_source
from repro.lang.incremental import (
    CTX,
    NESTED,
    TOP,
    IncrementalChecker,
    class_sigs,
    split_chunks,
)
from repro.runtime.interp import Interp
from repro.source.parser import parse_program

BASE = """\
class app {
  class A {
    int x;
    int get() { return x; }
  }
  class B extends A {
    int twice() { return get() + get(); }
  }
}
"""

FLAT = """\
class Lib {
  int helper() { return 7; }
}
class Use extends Lib {
  int call() { return helper(); }
}
"""


# ----------------------------------------------------------------------
# chunking
# ----------------------------------------------------------------------


def test_split_chunks_nested():
    chunks = split_chunks(BASE)
    assert chunks is not None
    kinds = [c.kind for c in chunks]
    assert kinds == [CTX, NESTED, NESTED, CTX]
    # reassembly is exact
    assert "".join(c.text for c in chunks) == BASE
    assert [c.start_line for c in chunks] == [1, 2, 6, 9]


def test_split_chunks_flat():
    chunks = split_chunks(FLAT)
    assert chunks is not None
    assert [c.kind for c in chunks] == [TOP, TOP]
    assert "".join(c.text for c in chunks) == FLAT


def test_split_chunks_no_classes():
    assert split_chunks("// just a comment\n") is None


# ----------------------------------------------------------------------
# signatures
# ----------------------------------------------------------------------


def _decl(src, name="A"):
    unit = parse_program(src)
    for d in unit.classes[0].members:
        if getattr(d, "name", None) == name:
            return d
    raise AssertionError(name)


def test_sig_body_only_change():
    a = _decl(BASE)
    b = _decl(BASE.replace("return x;", "return x + 1;"))
    sa, sb = class_sigs(a), class_sigs(b)
    assert sa.struct == sb.struct
    assert sa.api == sb.api
    assert sa.body != sb.body


def test_sig_api_change():
    a = _decl(BASE)
    b = _decl(BASE.replace("int get()", "String get()"))
    sa, sb = class_sigs(a), class_sigs(b)
    assert sa.struct == sb.struct
    assert sa.api != sb.api


def test_sig_struct_change():
    a = _decl(BASE)
    b = _decl(BASE.replace("int x;", "int x;\n    int y;"))
    assert class_sigs(a).struct != class_sigs(b).struct


def test_sig_position_shift_is_body_level_only():
    # A pure line shift below a class must not disturb *it*; positions
    # live in the api/body signatures of the shifted class itself.
    a = _decl(BASE, "B")
    b = _decl("\n" + BASE, "B")
    assert class_sigs(a).struct == class_sigs(b).struct
    assert class_sigs(a).api != class_sigs(b).api  # pos moved


# ----------------------------------------------------------------------
# edit strategies
# ----------------------------------------------------------------------


def _edited(src, old, new):
    inc = IncrementalChecker(src, file="t.jns")
    inc.check()
    stats = inc.apply_edit(src.replace(old, new))
    return inc, stats


@pytest.mark.parametrize(
    "old,new,dirty",
    [
        ("return x;", "return x + 1;", ["app.A"]),
        ("int get()", "String get()", ["app.A"]),
        ("return get() + get();", "return get();", ["app.B"]),
    ],
)
def test_incremental_edit_dirty_set(old, new, dirty):
    _, stats = _edited(BASE, old, new)
    assert stats["strategy"] == "incremental"
    assert stats["dirty"] == dirty


@pytest.mark.parametrize(
    "old,new,reason",
    [
        ("int x;", "int x;\n    int y;", "structural"),  # field added
        ("class B extends A {", "class C {}\n  class B extends A {",
         "reshape"),  # class count changed
        ("return x;", "return x", "parse-error"),
        ("class app {", "abstract class app {", "wrapper-edit"),
    ],
)
def test_scratch_fallback_reasons(old, new, reason):
    _, stats = _edited(BASE, old, new)
    assert stats["strategy"] == "scratch"
    assert stats["reason"] == reason


TRAILING = """\
class Fam1 {
  class Add {
    int show() { return 1; }
  }
  int display() { return new Add().show(); }
}
"""

LEADING = """\
class Fam1 {
  int display() { return new Add().show(); }
  class Add {
    int show() { return 1; }
  }
}
"""


BETWEEN = """\
class Fam1 {
  class Add {
    int show() { return 1; }
  }
  int display() { return new Add().show() + new Sub().show(); }
  class Sub {
    int show() { return 5; }
  }
}
"""


@pytest.mark.parametrize(
    "src", [TRAILING, LEADING, BETWEEN], ids=["after", "before", "between"]
)
def test_members_after_the_last_nested_class_stay_incremental(src):
    """A family member declared after a nested class belongs to a wrapper
    ``ctx`` chunk (the trailer, or the text between two nested classes),
    so an edit of that nested class still grafts (the member once fell
    into the nested chunk, which then failed to parse), while an edit of
    the member itself rebuilds from scratch (``wrapper-edit``)."""
    chunks = split_chunks(src)
    assert all("display" not in c.text for c in chunks if c.kind == NESTED)
    inc = IncrementalChecker(src, file="t.jns")
    inc.check()
    prev = "return 1;"
    for body in ("return 2;", 'return "two";', "return 3;"):
        edited = src.replace(prev, body)
        stats = inc.apply_edit(edited)
        assert stats["strategy"] == "incremental", stats
        assert stats["dirty"] == ["Fam1.Add"]
        got, want = inc.check(), check_source(edited, file="t.jns")
        assert got.to_json() == want.to_json()
        assert got.render(edited) == want.render(edited)
        assert want.has_errors == (body == 'return "two";')
        src, prev = edited, body
    edited = src.replace("new Add().show()", "new Add().show() + 1")
    stats = inc.apply_edit(edited)
    assert (stats["strategy"], stats["reason"]) == ("scratch", "wrapper-edit")
    got, want = inc.check(), check_source(edited, file="t.jns")
    assert got.to_json() == want.to_json()
    assert got.render(edited) == want.render(edited)


TRAILING_COMMENT = """\
class Fam1 {
  class Add {
    int show() { return 1; }
  }
  // the last nested class ends above
}
"""


def test_comment_after_the_last_nested_class_is_trailer_text():
    """Blank and comment lines after the last nested class's closing
    brace belong to the wrapper's trailer: editing them rebuilds from
    scratch (``wrapper-edit``), while an edit of the class itself still
    grafts.  Both paths agree with a scratch check."""
    chunks = split_chunks(TRAILING_COMMENT)
    assert [c.kind for c in chunks] == [CTX, NESTED, CTX]
    assert chunks[1].text.endswith("  }\n")
    assert chunks[2].text.startswith("  // the last nested class")
    src = TRAILING_COMMENT
    for old, new, strategy in [
        ("ends above", "is Add", "scratch"),
        ("return 1;", "return 2;", "incremental"),
    ]:
        inc = IncrementalChecker(src, file="t.jns")
        inc.check()
        edited = src.replace(old, new)
        stats = inc.apply_edit(edited)
        assert stats["strategy"] == strategy, stats
        assert inc.check().to_json() == check_source(edited, file="t.jns").to_json()


def test_noop_edit():
    inc = IncrementalChecker(BASE, file="t.jns")
    inc.check()
    stats = inc.apply_edit(BASE)
    assert stats["strategy"] == "noop"


def test_edit_after_parse_error_rebuilds():
    bad = BASE.replace("return x;", "return x")
    inc = IncrementalChecker(bad, file="t.jns")
    assert inc.check().has_errors
    stats = inc.apply_edit(BASE)
    assert stats["strategy"] == "scratch"
    assert not inc.check().has_errors


def test_class_rename_falls_back():
    _, stats = _edited(
        BASE.replace("extends A", ""), "class A {", "class AA {"
    )
    assert stats["strategy"] == "scratch"
    assert stats["reason"] == "classset"


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------


def test_accounting_reuse_and_recompute():
    inc = IncrementalChecker(BASE, file="t.jns")
    inc.check()
    inc.apply_edit(BASE.replace("return x;", "return x + 1;"))
    inc.check()
    acct = inc.last_stats["check"]
    # A touches only itself; B green-revalidates (A's interface is
    # unchanged), nothing is served blind from cache on the first
    # post-edit check.
    assert acct["recomputed"] == 1
    assert acct["revalidated"] >= 1
    # A second check with no edit reuses everything.
    inc.check()
    acct = inc.last_stats["check"]
    assert acct["recomputed"] == 0
    assert acct["revalidated"] == 0
    assert acct["reused"] >= 2


def test_stats_monotonic_across_edits():
    """CacheStats totals must keep absorbing across incremental edits —
    an invalidation never makes the observed hit totals go backwards."""
    inc = IncrementalChecker(BASE, file="t.jns")
    inc.check()
    seen = []
    src = BASE
    for i in range(3):
        src = src.replace("+ get()", f"+ get() + {i}")
        inc.apply_edit(src)
        inc.check()
        stats = inc.table.queries.stats()
        seen.append((stats.hits, stats.misses))
    for (h0, m0), (h1, m1) in zip(seen, seen[1:]):
        assert h1 >= h0 and m1 >= m0


# ----------------------------------------------------------------------
# runtime visibility of grafted bodies
# ----------------------------------------------------------------------

RUNTIME = """\
class app {
  class Greeter {
    String greet() { return "hello"; }
  }
  class Main {
    String run() {
      Greeter g = new Greeter();
      return g.greet();
    }
  }
}
"""


def _run(interp):
    obj = interp.new_instance(("app", "Main"), [])
    return interp.call_method(obj, "run", [])


def test_body_graft_reaches_existing_interpreter():
    inc = IncrementalChecker(RUNTIME, file="t.jns")
    assert not inc.check().has_errors
    live = Interp(inc.table)
    assert _run(live) == "hello"
    stats = inc.apply_edit(RUNTIME.replace('"hello"', '"howdy"'))
    assert stats["strategy"] == "incremental"
    assert not inc.check().has_errors
    # Both a fresh interpreter and the one built before the edit must
    # observe the new body: the splice grafts it into the retained
    # (cached) member objects and retires their compiled bodies.
    assert _run(Interp(inc.table)) == "howdy"
    assert _run(live) == "howdy"


def test_api_edit_reaches_existing_interpreter():
    inc = IncrementalChecker(RUNTIME, file="t.jns")
    assert not inc.check().has_errors
    live = Interp(inc.table)
    assert _run(live) == "hello"
    edited = RUNTIME.replace("String greet()", "String yo()").replace(
        "g.greet()", "g.yo()"
    )
    stats = inc.apply_edit(edited)
    assert stats["strategy"] == "incremental"
    assert sorted(stats["dirty"]) == ["app.Greeter", "app.Main"]
    assert not inc.check().has_errors
    assert _run(live) == "hello"  # body of Main changed too; new name works


def test_subclass_rtclass_evicted_on_superclass_edit():
    inc = IncrementalChecker(BASE, file="t.jns")
    assert not inc.check().has_errors
    live = Interp(inc.table)
    obj = live.new_instance(("app", "B"), [])
    assert live.call_method(obj, "twice", []) == 0
    # change A.get's body; B inherits it, so B's synthesized runtime
    # class must be evicted even though only A is dirty
    stats = inc.apply_edit(BASE.replace("return x;", "return x + 21;"))
    assert stats["dirty"] == ["app.A"]
    assert not inc.check().has_errors
    obj2 = live.new_instance(("app", "B"), [])
    assert live.call_method(obj2, "twice", []) == 42


LINKED = """\
class F0 {
  class A {
    int v;
    A next;
    String tag() { return "F0." + v; }
  }
}
class F1 extends F0 {
  class A shares F0.A {
    String tag() { return "F1." + v; }
  }
}
class Main {
  String main() sharing F0!.A = F1!.A {
    F0!.A a = new F0.A();
    F0!.A b = new F0.A();
    a.v = 1;
    b.v = 2;
    a.next = b;
    F1!.A x = (view F1!.A)a;
    return x.tag() + " " + x.next.tag() + " " + Sys.viewName(x.next);
  }
}
"""


@pytest.mark.parametrize("backend", ["walker", "codegen"])
@pytest.mark.parametrize("caches", ["warm", "cleared", "disabled"])
def test_edit_invalidates_view_transitions(backend, caches):
    """``x.next`` adapts ``b`` to the reader's family until an edit
    declares the link ``F0.A``; an interpreter kept warm across the edit
    (as ``repro serve`` keeps one) then answers like a fresh compile."""
    from repro import clear_caches, compile_program, set_caches_enabled

    edited = LINKED.replace("    A next;", "    F0.A next;")
    set_caches_enabled(caches != "disabled")
    try:
        inc = IncrementalChecker(LINKED, file="t.jns")
        assert not inc.check().has_errors
        live = Interp(inc.table, backend=backend)
        assert live.run("Main.main") == "F1.1 F1.2 F1.A"
        assert len(live._q_view_change) == (caches != "disabled")
        stats = inc.apply_edit(edited)
        assert not inc.check().has_errors
        if caches == "disabled":
            # with no caches to reuse the edit rebuilds the table, and a
            # new table gets a new interpreter, as repro serve does it
            assert stats["strategy"] == "scratch"
            live = Interp(inc.table, backend=backend)
        else:
            assert stats["strategy"] == "incremental"
            assert live.table is inc.table
        assert len(live._q_view_change) == 0
        if caches == "cleared":
            clear_caches()
        fresh = compile_program(edited).interp(backend=backend).run("Main.main")
        assert fresh == "F1.1 F0.2 F0.A"
        assert live.run("Main.main") == fresh
    finally:
        set_caches_enabled(True)
        clear_caches()
