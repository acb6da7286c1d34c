"""Loader ("classloader") and runtime internals tests, plus property
tests over the sharing machinery of whole programs."""

import pytest
from hypothesis import given, strategies as st

from repro import compile_program
from repro.lang.types import ClassType, View
from repro.runtime.interp import to_jstring
from repro.runtime.loader import Loader
from repro.runtime.values import Instance, Ref, default_value

from conftest import FIG123_SOURCE


@pytest.fixture(scope="module")
def table():
    return compile_program(FIG123_SOURCE).table


class TestLoader:
    def test_vtable_contents(self, table):
        loader = Loader(table, cached=True, sharing=True)
        rtc = loader.rtclass(("ASTDisplay", "Binary"))
        assert set(rtc.vtable) >= {"eval", "display"}
        assert rtc.vtable["display"][0] == ("ASTDisplay", "Binary")
        assert rtc.vtable["eval"][0] == ("AST", "Binary")

    def test_implicit_class_synthesized(self, table):
        loader = Loader(table, cached=True, sharing=True)
        rtc = loader.rtclass(("ASTDisplay", "Leaf"))  # implicit
        assert "display" in rtc.vtable

    def test_field_slots_use_fclass_in_sharing_mode(self, table):
        loader = Loader(table, cached=True, sharing=True)
        rtc = loader.rtclass(("ASTDisplay", "Binary"))
        assert rtc.field_slot["l"] == ("AST", "Binary")

    def test_field_slots_flat_without_sharing(self, table):
        loader = Loader(table, cached=True, sharing=False)
        rtc = loader.rtclass(("ASTDisplay", "Binary"))
        assert rtc.field_slot["l"] == ()

    def test_retarget_plan_for_view_dependent_fields(self, table):
        loader = Loader(table, cached=True, sharing=True)
        rtc = loader.rtclass(("AST", "Binary"))
        assert "l" in rtc.retarget and "r" in rtc.retarget

    def test_no_retarget_for_primitive_fields(self, table):
        loader = Loader(table, cached=True, sharing=True)
        rtc = loader.rtclass(("AST", "Value"))
        assert "v" not in rtc.retarget

    def test_abstract_flag(self):
        table = compile_program("abstract class A { } class B extends A { }").table
        loader = Loader(table, cached=True, sharing=True)
        assert loader.rtclass(("A",)).is_abstract
        assert not loader.rtclass(("B",)).is_abstract

    def test_init_schedule_base_first(self):
        table = compile_program(
            "class A { int x = 1; } class B extends A { int y = 2; }"
        ).table
        loader = Loader(table, cached=True, sharing=True)
        rtc = loader.rtclass(("B",))
        names = [decl.name for _, decl in rtc.init_schedule]
        assert names.index("x") < names.index("y")


class TestValues:
    def test_default_values(self):
        from repro.lang import types as T

        assert default_value(T.INT) == 0
        assert default_value(T.DOUBLE) == 0.0
        assert default_value(T.BOOLEAN) is False
        assert default_value(T.STRING) is None
        assert default_value(ClassType(("A",))) is None

    def test_instance_repr(self):
        inst = Instance(("A", "B"))
        assert "A.B" in repr(inst)

    def test_ref_repr(self):
        ref = Ref(Instance(("A",)), View(("A",)))
        assert "A!" in repr(ref)

    def test_to_jstring(self):
        assert to_jstring(None) == "null"
        assert to_jstring(True) == "true"
        assert to_jstring(False) == "false"
        assert to_jstring(3.0) == "3.0"
        assert to_jstring(0.5) == "0.5"
        assert to_jstring("x") == "x"
        assert to_jstring([1, 2]) == "[1, 2]"

    def test_to_jstring_ref(self):
        ref = Ref(Instance(("A", "B")), View(("A", "B")))
        assert to_jstring(ref).startswith("A.B@")


class TestSharingProperties:
    """Algebraic properties of the sharing machinery over a real program."""

    @pytest.fixture(scope="class")
    def big_table(self):
        from repro.programs.lambdac import SOURCE

        return compile_program(SOURCE).table

    def test_groups_partition_classes(self, big_table):
        paths = big_table.all_class_paths()
        for p in paths:
            group = big_table.sharing_group(p)
            assert p in group
            for q in group:
                assert set(big_table.sharing_group(q)) == set(group)

    def test_sharing_reflexive_symmetric(self, big_table):
        paths = big_table.all_class_paths()
        for p in paths:
            assert big_table.shared_with(p, p)
            for q in paths:
                assert big_table.shared_with(p, q) == big_table.shared_with(q, p)

    def test_fclass_stays_in_group(self, big_table):
        for p in big_table.all_class_paths():
            for _, decl in big_table.all_fields(p):
                owner = big_table.fclass(p, decl.name)
                assert big_table.shared_with(p, owner) or big_table.inherits(
                    p, owner
                )

    def test_fclass_idempotent(self, big_table):
        for p in big_table.all_class_paths():
            for _, decl in big_table.all_fields(p):
                owner = big_table.fclass(p, decl.name)
                assert big_table.fclass(owner, decl.name) == owner

    def test_view_roundtrip_identity(self, big_table):
        """For fully shared classes, viewing A->B->A recovers the original
        view path."""
        import repro.lang.types as T

        for fam_a, fam_b in (("base", "pair"), ("sum", "sumpair")):
            for cls in ("Var", "Abs", "App"):
                v = View((fam_a, cls))
                to_b = big_table.view_of(v, T.exact_class((fam_b, cls)))
                back = big_table.view_of(to_b, T.exact_class((fam_a, cls)))
                assert back.path == (fam_a, cls)


class TestRuntimeMisc:
    def test_output_capture_isolated_between_interps(self):
        program = compile_program('class Main { void main() { Sys.print("x"); } }')
        i1 = program.interp()
        i2 = program.interp()
        i1.run("Main.main")
        assert i1.output == ["x"] and not i2.output

    def test_conforms_cache(self, fig123):
        interp = fig123.interp()
        value = interp.new_instance(("AST", "Value"), (1,))
        t = ClassType(("AST", "Exp"))
        assert interp.conforms(value.view, t)
        # one table per target, keyed by the id of the source view
        per_target = interp.queries.queries["conforms"].table[t]
        assert per_target[id(value.view)] == (value.view, True)

    def test_instance_of_exact_type(self, fig123):
        interp = fig123.interp()
        src_main = interp.new_instance(("Main",), ())
        tree = interp.call_method(src_main, "sample", [])
        assert interp.conforms(tree.view, ClassType(("AST", "Binary"), frozenset({2})))
        assert not interp.conforms(
            tree.view, ClassType(("ASTDisplay", "Binary"), frozenset({2}))
        )


# ---------------------------------------------------------------------------
# one record per class, evicted per class by the interpreter's edit listener
# ---------------------------------------------------------------------------

#: ``B`` extends ``A``; ``U`` is unrelated to both.  ``A.next`` and
#: ``U.link`` are view-dependent, so both records carry read plans.
EDITED = """\
class F0 {
  class A {
    int v = 1;
    A next;
    int get() { return v; }
  }
  class B extends A {
    int get() { return v + 10; }
  }
  class U {
    int w = 3;
    U link;
    int val() { return w; }
  }
}
class Main {
  int main() {
    F0!.A a = new F0.A();
    a.next = new F0.B();
    F0!.U u = new F0.U();
    u.link = new F0.U();
    Sys.print(a.next.get());
    return a.get() + a.next.get() + u.link.val();
  }
}
"""
#: an interface edit of ``A`` (a field initializer)
IFACE_EDIT = EDITED.replace("int v = 1;", "int v = 2;")
#: a body-only edit of ``B``
BODY_EDIT = EDITED.replace("v + 10", "v + 20")
#: an interface edit of ``U``
U_EDIT = IFACE_EDIT.replace("int w = 3;", "int w = 5;")


def _live(backend="codegen"):
    from repro.lang.incremental import IncrementalChecker
    from repro.runtime.interp import Interp

    inc = IncrementalChecker(EDITED, file="t.jns")
    assert not inc.check().has_errors
    interp = Interp(inc.table, backend=backend)
    assert interp.run("Main.main") == 15
    return inc, interp


def _records(interp):
    return dict(interp.loader.queries.queries["rtclass"].table)


def _edit(inc, src):
    assert inc.apply_edit(src)["strategy"] == "incremental"
    assert not inc.check().has_errors


class TestRecordEviction:
    def test_interface_edit_keeps_unrelated_record(self):
        inc, interp = _live()
        unrelated = _records(interp)[("F0", "U")]
        layout, plans = unrelated.layout, unrelated.read_plan
        assert layout is not None and "link" in plans
        _edit(inc, IFACE_EDIT)
        assert _records(interp)[("F0", "U")] is unrelated
        assert unrelated.layout is layout and unrelated.read_plan is plans
        assert interp.run("Main.main") == 17
        assert _records(interp)[("F0", "U")] is unrelated

    def test_interface_edit_rebuilds_affected_records(self):
        inc, interp = _live()
        before = _records(interp)
        _edit(inc, IFACE_EDIT)
        # the edited class and its subclass are dropped, nothing else
        kept = _records(interp)
        assert set(before) - set(kept) == {("F0", "A"), ("F0", "B")}
        assert all(kept[path] is before[path] for path in kept)
        assert interp.run("Main.main") == 17
        rebuilt = _records(interp)
        for path in (("F0", "A"), ("F0", "B")):
            assert rebuilt[path] is not before[path]
            assert rebuilt[path].layout is not None
            assert "next" in rebuilt[path].read_plan

    def test_body_only_edit_keeps_every_record(self):
        inc, interp = _live()
        before = _records(interp)
        _edit(inc, BODY_EDIT)
        after = _records(interp)
        assert set(after) == set(before)
        assert all(after[path] is before[path] for path in before)
        # the kept records' dispatch tables hold the grafted declaration
        assert interp.run("Main.main") == 25
        assert _records(interp) == before

    def test_warm_interpreters_match_fresh_walker_after_each_edit(self):
        from repro.lang.incremental import IncrementalChecker
        from repro.runtime.interp import Interp

        inc = IncrementalChecker(EDITED, file="t.jns")
        assert not inc.check().has_errors
        warm = [Interp(inc.table, backend=b) for b in ("walker", "codegen")]
        for interp in warm:
            interp.run("Main.main")
        for src in (BODY_EDIT, IFACE_EDIT, U_EDIT, EDITED):
            _edit(inc, src)
            fresh = compile_program(src).interp(backend="walker")
            want = (fresh.run("Main.main"), fresh.output)
            for interp in warm:
                del interp.output[:]
                assert (interp.run("Main.main"), interp.output) == want
