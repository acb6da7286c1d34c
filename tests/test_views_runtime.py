"""Runtime view machinery tests: view changes, identity preservation,
view-dependent dispatch and fields, lazy implicit view changes,
memoization, duplicate fields, uninitialized-read protection."""

import pytest

from repro import JnsError, UninitializedFieldError, compile_program, obs
from repro.lang.types import ClassType
from repro.programs import cached_program, trees

from conftest import FIG123_SOURCE, FIG5_SOURCE


def setup(src, cls="Main"):
    program = compile_program(src)
    interp = program.interp()
    return interp, interp.new_instance((cls,), ())


PAIR = """
class A {
  class C {
    int payload;
    String who() { return "A"; }
  }
}
class B extends A {
  class C shares A.C {
    String who() { return "B"; }
  }
}
class Main {
  A!.C makeA() { return new A.C(); }
  B!.C toB(A!.C c) sharing A!.C = B!.C { return (view B!.C)c; }
  A!.C toA(B!.C c) sharing A!.C = B!.C { return (view A!.C)c; }
  String whoIs(A!.C c) { return c.who(); }
}
"""


class TestViewChange:
    def test_identity_preserved(self):
        interp, main = setup(PAIR)
        a = interp.call_method(main, "makeA", [])
        b = interp.call_method(main, "toB", [a])
        assert a.inst is b.inst
        assert a is not b

    def test_view_determines_dispatch(self):
        interp, main = setup(PAIR)
        a = interp.call_method(main, "makeA", [])
        b = interp.call_method(main, "toB", [a])
        assert interp.call_method(main, "whoIs", [a]) == "A"
        assert interp.call_method(main, "whoIs", [b]) == "B"

    def test_bidirectional(self):
        interp, main = setup(PAIR)
        a = interp.call_method(main, "makeA", [])
        b = interp.call_method(main, "toB", [a])
        back = interp.call_method(main, "toA", [b])
        assert back.view.path == ("A", "C")
        assert back.inst is a.inst

    def test_view_change_memoized(self):
        interp, main = setup(PAIR)
        a = interp.call_method(main, "makeA", [])
        b1 = interp.call_method(main, "toB", [a])
        b2 = interp.call_method(main, "toB", [a])
        assert b1 is b2  # the reference object is reused (Section 6.3)

    def test_shared_state_visible_through_both_views(self):
        interp, main = setup(PAIR)
        a = interp.call_method(main, "makeA", [])
        b = interp.call_method(main, "toB", [a])
        interp.set_field(a, "payload", 99)
        assert interp.get_field(b, "payload") == 99

    def test_noop_view_change(self):
        interp, main = setup(PAIR)
        a = interp.call_method(main, "makeA", [])
        again = interp.call_method(main, "toA", [a])
        assert again.view.path == ("A", "C")

    def test_view_transition_is_keyed_by_the_source_masks(self):
        """Two views of one class that differ only in masks move to the
        same unmasked target differently: one stays, one drops its mask
        and lands on the memoized unmasked reference."""
        from repro.lang.types import View
        from repro.runtime.values import Ref

        interp, main = setup(PAIR)
        a = interp.call_method(main, "makeA", [])
        target = a.view.as_type()
        assert interp._adapt(a, target) is a
        masked = Ref(a.inst, View(a.view.path, frozenset({"payload"})))
        assert interp._adapt(masked, target) is a

    def test_created_in_derived_viewed_in_base(self):
        interp, main = setup(PAIR)
        b = interp.new_instance(("B", "C"), ())
        a = interp.call_method(main, "toA", [b])
        assert interp.call_method(main, "whoIs", [a]) == "A"
        assert interp.call_method(main, "whoIs", [b]) == "B"

    def test_view_change_on_null_is_null(self):
        src = PAIR.replace(
            "A!.C makeA() { return new A.C(); }",
            "A!.C makeA() { return new A.C(); }\n"
            "  B!.C nullCase() sharing A!.C = B!.C { A!.C c = null; return (view B!.C)c; }",
        )
        interp, main = setup(src)
        assert interp.call_method(main, "nullCase", []) is None


class TestDuplicateFields:
    def test_each_view_has_own_copy(self):
        interp, main = setup(
            FIG5_SOURCE
            + """
        class Main {
          int run() {
            A2!.C c2 = new A2.C();
            c2.g = new A2.E();
            A1!.C\\g c1 = (view A1!.C\\g)c2;
            c1.g = new A1.D();
            return c1.g.tag() * 10 + c2.g.tag();
          }
        }
        """
        )
        assert interp.call_method(main, "run", []) == 12

    def test_uninitialized_duplicate_read_fails(self):
        interp, main = setup(
            FIG5_SOURCE
            + """
        class Main {
          A1!.C\\g toBase(A2!.C c) sharing A2!.C\\g = A1!.C\\g {
            return (view A1!.C\\g)c;
          }
        }
        """
        )
        c2 = interp.new_instance(("A2", "C"), ())
        c1 = interp.call_method(main, "toBase", [c2])
        with pytest.raises(UninitializedFieldError):
            interp.get_field(c1.inst.view_refs[("A1", "C")], "g")

    def test_new_field_uninitialized_until_assigned(self):
        interp, main = setup(
            FIG5_SOURCE
            + """
        class Main {
          A2!.B\\f toDerived(A1!.B b) sharing A1!.B = A2!.B\\f {
            return (view A2!.B\\f)b;
          }
        }
        """
        )
        b1 = interp.new_instance(("A1", "B"), ())
        b2 = interp.call_method(main, "toDerived", [b1])
        with pytest.raises(UninitializedFieldError):
            interp.get_field(b2, "f")
        interp.set_field(b2, "f", 7)
        assert interp.get_field(b2, "f") == 7

    def test_write_removes_runtime_mask(self):
        interp, main = setup(
            FIG5_SOURCE
            + """
        class Main {
          A2!.B\\f toDerived(A1!.B b) sharing A1!.B = A2!.B\\f {
            return (view A2!.B\\f)b;
          }
        }
        """
        )
        b1 = interp.new_instance(("A1", "B"), ())
        b2 = interp.call_method(main, "toDerived", [b1])
        assert "f" in b2.view.masks
        interp.set_field(b2, "f", 1)
        assert "f" not in b2.view.masks

    def test_shared_field_single_copy(self):
        interp, main = setup(PAIR)
        a = interp.call_method(main, "makeA", [])
        b = interp.call_method(main, "toB", [a])
        interp.set_field(b, "payload", 5)
        assert interp.get_field(a, "payload") == 5
        # only one heap slot exists
        assert len(a.inst.fields) == 1


class TestImplicitViewChanges:
    def test_children_adapt_lazily(self, fig123):
        interp = fig123.interp()
        main = interp.new_instance(("Main",), ())
        tree = interp.call_method(main, "sample", [])
        shown = interp.call_method(main, "showSample", [])
        assert shown == "(v1+v2)"

    def test_child_view_matches_parent_family(self, fig123):
        interp = fig123.interp()
        main = interp.new_instance(("Main",), ())
        tree = interp.call_method(main, "sample", [])
        display = interp.new_instance(("ASTDisplay",), ())
        adapted = interp._adapt(
            tree, ClassType(("ASTDisplay", "Exp"), frozenset({1}))
        )
        left = interp.get_field(adapted, "l")
        assert left.view.path == ("ASTDisplay", "Value")
        # through the original reference the child stays in the base family
        left_base = interp.get_field(tree, "l")
        assert left_base.view.path == ("AST", "Value")

    def test_implicit_views_memoized(self, fig123):
        interp = fig123.interp()
        main = interp.new_instance(("Main",), ())
        tree = interp.call_method(main, "sample", [])
        adapted = interp._adapt(
            tree, ClassType(("ASTDisplay", "Exp"), frozenset({1}))
        )
        left1 = interp.get_field(adapted, "l")
        left2 = interp.get_field(adapted, "l")
        assert left1 is left2

    def test_whole_tree_adapts_consistently(self, fig123):
        interp = fig123.interp()
        main = interp.new_instance(("Main",), ())
        # nested tree: (1 + (2 + 3))
        v1 = interp.new_instance(("AST", "Value"), (1,))
        v2 = interp.new_instance(("AST", "Value"), (2,))
        v3 = interp.new_instance(("AST", "Value"), (3,))
        inner = interp.new_instance(("AST", "Binary"), (v2, v3))
        root = interp.new_instance(("AST", "Binary"), (v1, inner))
        display = interp.new_instance(("ASTDisplay",), ())
        assert interp.call_method(display, "show", [root]) == "(v1+(v2+v3))"
        # original views untouched
        assert root.view.path == ("AST", "Binary")
        assert interp.call_method(root, "eval", []) == 6


class TestViewAblations:
    """Design choices D1 (memoized view changes) and D3 (lazy implicit
    view changes) of Section 6.3, measured exactly by the tracer's
    ``view_change.*`` counters on a Table 2 tree of height 6 (63 nodes,
    124 child edges)."""

    HEIGHT = 6

    @pytest.fixture(autouse=True)
    def _tracer_restored(self):
        yield
        obs.disable()
        obs.TRACER.reset()

    def _tree(self, **options):
        interp = cached_program(trees.SOURCE).interp(mode="jns", **options)
        harness = interp.new_instance(("Harness",), ())
        return interp, harness, interp.call_method(harness, "create", [self.HEIGHT])

    def _retraverse(self, memoize_views):
        interp, harness, root = self._tree(memoize_views=memoize_views)
        xroot = interp.call_method(harness, "change", [root])
        first = interp.call_method(harness, "traverseExt", [xroot])
        obs.enable()
        again = interp.call_method(harness, "traverseExt", [xroot])
        obs.disable()
        assert first == again == (2 ** self.HEIGHT - 1) * 2 ** self.HEIGHT
        return obs.TRACER.counters

    def test_d1_memoized_retraversal_allocates_nothing(self):
        counters = self._retraverse(memoize_views=True)
        assert counters.get("view_change.new_ref", 0) == 0
        assert counters["view_change.memo_hit"] == 124

    def test_d1_unmemoized_retraversal_reallocates_every_edge(self):
        counters = self._retraverse(memoize_views=False)
        assert counters["view_change.new_ref"] == 124
        assert counters.get("view_change.memo_hit", 0) == 0

    @pytest.mark.parametrize("eager,adapted", [(False, 6), (True, 63)])
    def test_d3_left_spine_visit(self, eager, adapted):
        """Adapt the root, then walk only the left spine: laziness adapts
        the six spine nodes, eagerness the whole tree."""
        interp, harness, root = self._tree(eager_views=eager)
        obs.enable()
        node = interp.call_method(harness, "change", [root])
        while node is not None:
            node = interp.get_field(node, "left")
        obs.disable()
        assert obs.TRACER.counters["view_change.new_ref"] == adapted

    def test_d3_eager_propagation_visits_everything(self):
        interp, harness, root = self._tree()
        xroot = interp.call_method(harness, "change", [root])
        assert interp.propagate_views(xroot) == 2 ** self.HEIGHT - 1


class TestViewChangeCounts:
    """The ``view_change`` query and codegen's inline no-op reads move no
    count: the traced counts of a fixed CorONA evolution and the line
    profiler's view column of a Table 2 run are pinned, per backend."""

    #: measured before view transitions were memoized per (view, target)
    #: and before inline-cache read sites skipped no-op reads
    PINNED = {
        "walker": {
            "conforms.check": 2400,
            "view_change.noop": 1769,
            "view_change.memo_hit": 522,
            "view_change.new_ref": 109,
            "view_change.explicit": 65,
        },
        "codegen": {
            "conforms.check": 640,
            "view_change.noop": 9,
            "view_change.memo_hit": 522,
            "view_change.new_ref": 109,
            "view_change.explicit": 65,
        },
    }

    TREES_MAIN = """
class Main {
  int main() {
    Harness h = new Harness();
    tree!.Node root = h.create(4);
    int s = h.traverse(root);
    xtree!.Node x = h.change(root);
    s = s + h.traverseExt(x) + h.traverseExt(x);
    return s + h.traverseExt(h.translate(root));
  }
}
"""
    #: jns line -> view events; lines 37-38 read ``n.left``/``n.right``
    #: through a local, an inline-cache site whose reads are no-ops
    TREES_VIEW = {9: 14, 10: 14, 28: 42, 29: 42, 37: 14, 38: 14, 52: 1}

    @pytest.fixture(autouse=True)
    def _tracer_restored(self):
        yield
        obs.disable()
        obs.TRACER.reset()

    @pytest.mark.parametrize("backend", ["walker", "codegen"])
    def test_corona_evolution_counts(self, backend):
        from repro.programs.corona import CoronaSystem

        obs.enable()
        system = CoronaSystem(size=8, objects=16, backend=backend)
        contents = []
        for family in ("corona", "pccorona", "beecorona"):
            if family != "corona":
                system.evolve(family)
            for start in range(4):
                contents.append(
                    [system.fetch(start, key, family) for key in range(0, 16, 3)]
                )
            system.publish(5, 2, "v2")
        obs.disable()
        counters = obs.TRACER.counters
        pinned = self.PINNED[backend]
        assert {name: counters.get(name, 0) for name in pinned} == pinned
        assert system.interp.get_field(system.net, "totalHops") == 74
        assert contents == [[f"feed-{key}" for key in range(0, 16, 3)]] * 12

    @pytest.mark.parametrize("backend", ["walker", "codegen"])
    def test_trees_profile_view_column(self, backend, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "trees.jns"
        path.write_text(trees.SOURCE + self.TREES_MAIN)
        assert main(["profile", str(path), "--det-backend", backend, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["lines"]
        assert {r["line"]: r["view"] for r in rows if r["view"]} == self.TREES_VIEW


class TestEvolution:
    """Dynamic object evolution via view change (Section 2.4, Figure 4):
    the server's stored dispatcher reference is cast to the exact base
    type and view-changed to the derived family, exactly the paper's
    two-line recipe."""

    SERVICE = """
    class service {
      class Handler {
        int count;
        String handle() { count = count + 1; return "plain"; }
      }
      class Dispatcher {
        Handler h;
        Dispatcher() { this.h = new Handler(); }
        String dispatch() { return h.handle(); }
      }
    }
    class logService extends service {
      class Handler shares service.Handler {
        String handle() { count = count + 1; return "logged"; }
      }
      class Dispatcher shares service.Dispatcher {
      }
    }
    class Server {
      service.Dispatcher disp;
      Server() { this.disp = new service.Dispatcher(); }
      String tick() { return disp.dispatch(); }
      void evolve() sharing service!.Dispatcher = logService!.Dispatcher {
        service!.Dispatcher d = (service!.Dispatcher)disp;  // cast
        disp = (view logService!.Dispatcher)d;              // view change
      }
    }
    """

    def test_behavior_changes_at_runtime(self):
        interp, server = setup(self.SERVICE, cls="Server")
        assert interp.call_method(server, "tick", []) == "plain"
        interp.call_method(server, "evolve", [])
        assert interp.call_method(server, "tick", []) == "logged"

    def test_nested_objects_evolve_transitively(self):
        # the Handler reached through the evolved dispatcher runs the
        # derived family's code without being touched explicitly
        interp, server = setup(self.SERVICE, cls="Server")
        interp.call_method(server, "evolve", [])
        disp = interp.get_field(server, "disp")
        handler = interp.get_field(disp, "h")
        assert handler.view.path == ("logService", "Handler")

    def test_state_survives_evolution(self):
        interp, server = setup(self.SERVICE, cls="Server")
        interp.call_method(server, "tick", [])
        interp.call_method(server, "tick", [])
        interp.call_method(server, "evolve", [])
        interp.call_method(server, "tick", [])
        disp = interp.get_field(server, "disp")
        handler = interp.get_field(disp, "h")
        assert interp.get_field(handler, "count") == 3

    def test_dispatcher_object_identity_preserved(self):
        interp, server = setup(self.SERVICE, cls="Server")
        before = interp.get_field(server, "disp")
        interp.call_method(server, "evolve", [])
        after = interp.get_field(server, "disp")
        assert before.inst is after.inst


# ---------------------------------------------------------------------------
# view-keyed view changes: each warm codegen decision keyed on the
# interned view, against the walker's full path
# ---------------------------------------------------------------------------

BACKENDS = ("walker", "codegen")


def _outcome(interp, fn, *args):
    """What a run shows: its result, or the error's code and message,
    and the output so far."""
    try:
        result = fn(*args)
    except JnsError as exc:
        result = (exc.code, str(exc))
    return result, list(interp.output)


def _both(src, entry="Main.main", check=True, runs=1):
    """The outcome of ``runs`` warm runs of ``entry`` per backend, which
    must agree; returns the walker's."""
    program = compile_program(src, check=check)
    seen = {}
    for backend in BACKENDS:
        interp = program.interp(backend=backend)
        seen[backend] = [_outcome(interp, interp.run, entry) for _ in range(runs)]
    assert seen["codegen"] == seen["walker"]
    return seen["walker"]


#: ``nextOf``'s read of ``r.next`` has a masked view-dependent type, so
#: every read adapts: ``v.next`` holds an ``F0!.A`` (a new reference,
#: then a memo hit), ``c.next`` an ``F1!.A\x`` (a no-op)
ONE_SITE = r"""
class F0 {
  class A {
    int x = 4;
    A\x next;
  }
}
class F1 extends F0 {
  class A shares F0.A { }
}
class Main {
  F1!.A\x nextOf(F1!.A r) { return r.next; }
  F1!.A makeV() sharing F0!.A = F1!.A {
    F0!.A a = new F0.A();
    a.next = new F0.A();
    return (view F1!.A)a;
  }
  F1!.A makeC(F1!.A v) {
    F1!.A c = new F1.A();
    c.next = this.nextOf(v);
    return c;
  }
  int main() {
    F1!.A v = this.makeV();
    F1!.A c = this.makeC(v);
    int same = 0;
    for (int i = 0; i < 3; i++) {
      F1!.A\x p = this.nextOf(v);
      F1!.A\x q = this.nextOf(c);
      if (p == q) { same = same + 1; }
      Sys.print(Sys.viewName(p) + " " + Sys.viewName(q));
    }
    return same;
  }
}
"""


def test_one_read_site_two_source_views():
    """One warm read site adapts two source views to one target in turn:
    the reference it returns for ``v`` is made once and then reused, the
    one for ``c`` is ``c``'s own, and the ``view_change`` query counts
    the same hits and misses on both backends."""
    from repro.lang.types import intern_view

    assert _both(ONE_SITE) == [(3, ["F1.A F1.A"] * 3)]
    program = compile_program(ONE_SITE)
    seen = {}
    for backend in BACKENDS:
        interp = program.interp(backend=backend)
        main = interp.new_instance(("Main",), ())
        v = interp.call_method(main, "makeV", [])
        c = interp.call_method(main, "makeC", [v])
        first = interp.call_method(main, "nextOf", [v])
        reads = [interp.call_method(main, "nextOf", [r]) for r in (c, v, c, v)]
        assert first.view is intern_view(("F1", "A"), frozenset({"x"}))
        assert first.inst is not v.inst
        assert all(r is first for r in reads)  # memo hits and no-ops
        q = interp._q_view_change
        seen[backend] = (q.hits, q.misses, len(q))
    assert seen["codegen"] == seen["walker"]


LINKED = r"""
class F0 {
  class A {
    int v;
    A next;
    String tag() { return "F0." + v; }
    B make() { return new B(); }
  }
  class B { String who() { return "F0.B"; } }
}
class F1 extends F0 {
  class A shares F0.A {
    String tag() { return "F1." + v; }
  }
  class B shares F0.B { String who() { return "F1.B"; } }
}
class Main {
  String main() sharing F0!.A = F1!.A {
    F0!.A a = new F0.A();
    F0!.A b = new F0.A();
    a.v = 1;
    b.v = 2;
    a.next = b;
    F1!.A x = (view F1!.A)a;
    return x.tag() + " " + x.next.tag() + " " + Sys.viewName(x.next)
      + " " + x.make().who() + " " + a.make().who();
  }
}
"""


def test_edits_between_warm_runs_match_a_fresh_walker():
    """A bodies-only edit keeps the interpreter, its emitted code and the
    view-change tables that code bound, with their entries: a graft
    changes no interface, so the first run after it makes no
    ``view_change`` miss, on either backend.  A ``shares`` clause is class
    structure, so that edit rebuilds the class table, and a new table
    gets a new interpreter, as ``repro serve`` does it.  Two warm runs
    after each edit answer as a fresh walker does."""
    from repro.lang.incremental import IncrementalChecker
    from repro.runtime.interp import Interp

    body_edit = LINKED.replace('return "F1." + v;', 'return "G1." + v;')
    shares_edit = body_edit.replace(
        "class B shares F0.B { String who", "class B { String who"
    )
    seen = {}
    for backend in BACKENDS:
        inc = IncrementalChecker(LINKED, file="t.jns")
        assert not inc.check().has_errors
        live = Interp(inc.table, backend=backend)
        q = live._q_view_change
        runs = [(live.run("Main.main"), q.hits, q.misses) for _ in range(2)]
        for edited, kept in ((body_edit, True), (shares_edit, False)):
            cg = live._cg
            held = len(q)
            stats = inc.apply_edit(edited)
            assert not inc.check().has_errors
            assert stats["strategy"] == ("incremental" if kept else "scratch")
            if kept:
                assert live.table is inc.table and len(q) == held > 0
                assert live._cg is cg
            else:
                live = Interp(inc.table, backend=backend)
                q = live._q_view_change
            runs += [(live.run("Main.main"), q.hits, q.misses) for _ in range(2)]
            if kept:
                assert runs[-2][2] == runs[-3][2]
            fresh = compile_program(edited).interp(backend="walker")
            assert runs[-1][0] == runs[-2][0] == fresh.run("Main.main")
        seen[backend] = runs
    assert seen["codegen"] == seen["walker"]
    assert [r[0] for r in seen["walker"]] == (
        ["F1.1 F1.2 F1.A F1.B F0.B"] * 2 + ["G1.1 G1.2 F1.A F1.B F0.B"] * 4
    )


#: ``make``'s ``new B()`` is ``F0[this.class].B``: a type whose only
#: dependent path is ``this``
THIS_NEW = r"""
class F0 {
  class A {
    int x = 1;
    B make() { return new B(); }
  }
  class B { int who() { return 0; } }
}
class F1 extends F0 {
  class A shares F0.A { }
  class B shares F0.B { int who() { return 1; } }
}
class Main {
  int main() sharing F0!.A = F1!.A\x {
    F0!.A a = new F0.A();
    F1!.A\x m = (view F1!.A\x)a;
    int s = 0;
    for (int i = 0; i < 2; i++) {
      s = s * 10 + a.make().who();
      s = s * 10 + m.make().who();
      Sys.print(Sys.viewName(m.make()) + " " + Sys.viewName(a.make()));
    }
    m.x = 3;
    s = s * 10 + m.make().who();
    return s;
  }
}
"""


def test_this_dependent_new_under_two_views():
    """``new B()`` entered by ``this`` under two families, and under the
    masked and the unmasked view of one (a call the checker would refuse
    on the masked view, so the program runs unchecked)."""
    assert _both(THIS_NEW, check=False, runs=2) == [
        (1011, ["F1.B F0.B"] * 2),
        (1011, ["F1.B F0.B"] * 4),
    ]
    interp = compile_program(THIS_NEW, check=False).interp(backend="codegen")
    interp.run("Main.main")
    # the body for F1.A receivers allocates from one class's plans,
    # fixed at emission: no frame view, no resolver taking ``this``
    (source,) = [s for label, s in interp._codegen().sources.items()
                 if label == "F1.A.make"]
    assert "_alloc((), _k0[0])" in source
    body = source.split("\n", 1)[1]  # the lines below the ``def`` header
    assert "(u_this)" not in body and "_FV(" not in body


#: ``X`` inherits ``make`` from two families, so ``F0[this.class]`` is
#: ambiguous for it (JNS-RESOLVE-006) and fine for an ``F0!.A``
AMBIGUOUS_NEW = r"""
class F0 {
  class A {
    B make() { return new B(); }
  }
  class B { int who() { return 0; } }
}
class F1 extends F0 {
  class B { int who() { return 1; } }
}
class F2 extends F0 {
  class B { int who() { return 2; } }
}
class X extends F1.A & F2.A { }
class Main {
  int main() { return new F0.A().make().who(); }
  int bad() { X x = new X(); return x.make().who(); }
}
"""


def test_failed_this_dependent_evaluation_is_not_cached():
    """A ``this``-keyed ``new`` site whose evaluation raises raises again
    on the next run, before and after the same site succeeds."""
    error = ("JNS-RESOLVE-006", "ambiguous prefix F0[X]: F1, F2, F0")
    assert _both(AMBIGUOUS_NEW, "Main.bad", check=False, runs=2) == [(error, [])] * 2
    program = compile_program(AMBIGUOUS_NEW, check=False)
    seen = {}
    for backend in BACKENDS:
        interp = program.interp(backend=backend)
        seen[backend] = [
            _outcome(interp, interp.run, entry)[0]
            for entry in ("Main.bad", "Main.main", "Main.bad", "Main.main")
        ]
    assert seen["codegen"] == seen["walker"] == [error, 0, error, 0]


#: ``A`` inside ``F0.A`` is ``F0[this.class].A``: ``probe``'s view change,
#: ``instanceof`` and cast and ``cast``'s cast have a type whose only
#: dependent path is ``this``; ``local``'s cast is rooted at a parameter
THIS_TYPES = r"""
class F0 {
  class A {
    int x = 1;
    String probe(F0!.A o) {
      A v = (view A)o;
      String s = Sys.viewName(v);
      if (o instanceof A) { s = s + " is"; } else { s = s + " not"; }
      A c = (A)v;
      return s + " " + Sys.viewName(c);
    }
    String cast(F0!.A o) { A c = (A)o; return Sys.viewName(c); }
    String local(F0!.A o, F0!.A p) { o.class q = (o.class)p; return Sys.viewName(q); }
  }
}
class F1 extends F0 {
  class A shares F0.A { }
}
class Main {
  F0!.A a() { return new F0.A(); }
  String main() sharing F0!.A = F1!.A\x, F0!.A = F1!.A, F0!.A = F0!.A\x {
    F0!.A a = a();
    F1!.A\x m = (view F1!.A\x)a;
    F1!.A u = (view F1!.A)a;
    F0!.A\x am = (view F0!.A\x)a;
    String s = a.probe(a) + " | " + m.probe(a) + " | " + u.probe(a)
      + " | " + am.probe(a);
    Sys.print(s);
    m.x = 3;
    return s + " | " + m.probe(a) + " | " + u.probe(u) + " | " + a.cast(a);
  }
  String castMasked() sharing F0!.A = F1!.A\x {
    F0!.A a = a();
    F1!.A\x m = (view F1!.A\x)a;
    return m.cast(a);
  }
  String castPlain() sharing F0!.A = F1!.A {
    F0!.A a = a();
    F1!.A u = (view F1!.A)a;
    return u.cast(u) + " " + u.cast(a);
  }
  String localOk() sharing F0!.A = F1!.A {
    F0!.A a = a();
    F1!.A u = (view F1!.A)a;
    return a.local(a, a) + " " + a.local(u, u);
  }
  String localBad() sharing F0!.A = F1!.A {
    F0!.A a = a();
    F1!.A u = (view F1!.A)a;
    return a.local(u, a);
  }
}
"""


def test_this_only_types_are_decided_at_emission():
    """A ``this``-only cast, ``instanceof`` and ``(view T)e`` in an
    ``F0.A`` method, entered as ``F1.A`` and as ``F0.A``, masked and
    unmasked (calls the checker would refuse on the masked views, so the
    program runs unchecked), agree with the walker on result, output and
    error.  Their sites are decided when the body for each receiver path
    is emitted, and take no frame view; a cast rooted at a parameter
    stays a frame site."""
    cast_error = "JNS-RUN-005"
    outcomes = {
        entry: _both(THIS_TYPES, entry, check=False, runs=2)
        for entry in ("Main.main", "Main.castMasked", "Main.castPlain",
                      "Main.localOk", "Main.localBad")
    }
    line = "F0.A is F0.A | F1.A not F1.A | F1.A not F1.A | F0.A is F0.A"
    assert outcomes["Main.main"][0] == (
        line + " | F1.A not F1.A | F1.A is F1.A | F0.A", [line]
    )
    for entry in ("Main.castMasked", "Main.castPlain", "Main.localBad"):
        assert [r[0][0] for r in outcomes[entry]] == [cast_error] * 2, entry
    assert outcomes["Main.localOk"][0][0] == "F0.A F1.A"
    interp = compile_program(THIS_TYPES, check=False).interp(backend="codegen")
    interp.run("Main.main")
    interp.run("Main.localOk")
    sources = interp._codegen().sources
    for label in ("F0.A.probe", "F1.A.probe", "F0.A.cast"):
        assert "_FV(" not in sources[label], label
    assert "_FV(" in sources["F0.A.local"]


#: Section 3.3's directional read: ``ext.Wrap`` duplicates ``e``, so
#: ``b.e`` finds its own copy uninitialized and reads ``base``'s
DIRECTIONAL = r"""
class base {
  class Exp { int v() { return 1; } }
  class Wrap { Exp e; }
}
class ext extends base {
  class Exp shares base.Exp { int v() { return 2; } }
  class Wrap shares base.Wrap\e { int n; }
}
class Main {
  int main() sharing base!.Wrap = ext!.Wrap\n, base!.Exp = ext!.Exp {
    base!.Wrap w = new base.Wrap();
    w.e = new base.Exp();
    ext!.Wrap\n b = (view ext!.Wrap\n)w;
    return b.e.v();
  }
}
"""
#: ``n`` is new in ``ext.Wrap``, so no copy of it exists for an object
#: made as ``base.Wrap``: a read the checker refuses (the view change
#: would need ``\n``), so this program runs unchecked
UNSHARED = DIRECTIONAL.replace("class Main {", r"""class Main {
  int unshared() {
    base!.Wrap w = new base.Wrap();
    ext!.Wrap b = (view ext!.Wrap)w;
    return b.n;
  }""")


class TestDirectionalRead:
    @pytest.fixture(autouse=True)
    def _tracer_restored(self):
        yield
        obs.disable()
        obs.TRACER.reset()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reads_the_other_familys_copy(self, backend):
        interp = compile_program(DIRECTIONAL).interp(backend=backend)
        obs.enable()
        assert interp.run("Main.main") == 2
        obs.disable()
        counters = obs.TRACER.counters
        assert counters["sharing.fallback_read"] == 1
        assert counters["sharing.group_lookup"] == 1

    def test_field_no_copy_holds_raises(self):
        assert _both(UNSHARED, "Main.unshared", check=False) == [(
            ("JNS-RUN-002",
             "field 'n' of an instance of base.Wrap is uninitialized in view "
             "ext.Wrap (duplicated/unshared field)"),
            [],
        )]
        with pytest.raises(JnsError, match="not justified by any sharing"):
            compile_program(UNSHARED)
