"""Tests for the ``jns -> Python`` codegen backend (ISSUE 9).

Covers the acceptance surface beyond the walker-vs-codegen differential:

- resource-guard parity with the walker (cumulative fuel trips
  mid-emitted-body as ``JNS-RES-001``, ``reset_budget`` recovery,
  call-depth trips as ``JNS-RES-002`` with identical stack labels,
  reentrancy refusal) mirroring ``TestResourceErrorRecovery``;
- ``EditNotice`` eviction: a body-only graft through
  :class:`~repro.lang.incremental.IncrementalChecker` must evict cached
  emitted closures (no stale emitted bodies);
- emitted-source shape: slot indices baked in, devirtualized direct
  calls, mask guards — asserted on the retained ``sources`` text;
- the ``codegen.*`` / ``dispatch.codegen_hit`` obs counters;
- the satellite counters: ``view_change.elided`` (static per-site view
  elision) and
  ``specialize.sites_devirtualized`` for receiver-monomorphic names.
"""

import dis
import sys

import pytest

from repro import JnsError, clear_caches, compile_program, obs
from repro.errors import JnsResourceError
from repro.runtime.values import NullDereference

LOOPY = (
    "class A { int spin(int n) { int i = 0; "
    "while (i < n) { i = i + 1; } return i; } "
    "int cheap() { return 7; } }"
)

MASKED = """
class F0 {
  class A {
    int x = 5;
    int get() { return x; }
  }
}
class F1 extends F0 {
  class A shares F0.A {
    int y;
    int get() { return x + y; }
  }
}
class Main {
  int main() {
    F0!.A a = new F0.A();
    F1!.A\\y v = (view F1!.A\\y)a;
    v.y = 37;
    return a.get() + v.get();
  }
}
"""


@pytest.fixture(autouse=True)
def _restored():
    yield
    obs.disable()
    obs.TRACER.reset()
    clear_caches()


def _interp(src, **kw):
    kw.setdefault("backend", "codegen")
    return compile_program(src).interp(mode="jns", **kw)


class TestResourceParity:
    """The emitted bodies must honor the same budgets, error codes, and
    stack labels as every other backend."""

    def test_fuel_trip_mid_emitted_body_then_reset(self):
        interp = _interp(LOOPY, max_steps=2000)
        ref = interp.new_instance(("A",), ())
        assert interp.call_method(ref, "cheap", []) == 7
        with pytest.raises(JnsResourceError) as exc_info:
            interp.call_method(ref, "spin", [10**6])
        assert exc_info.value.code == "JNS-RES-001"
        # cumulative budget: the per-call entry tick keeps tripping even
        # a cheap emitted body until the budget is re-armed
        with pytest.raises(JnsResourceError):
            interp.call_method(ref, "cheap", [])
        interp.reset_budget()
        assert interp._steps == 0
        assert interp.call_method(ref, "cheap", []) == 7
        assert interp.call_method(ref, "spin", [50]) == 50

    def test_depth_trip_recovers_without_reset(self):
        limit_before = sys.getrecursionlimit()
        src = "class A { int m() { return m(); } int cheap() { return 3; } }"
        interp = _interp(src, max_depth=80)
        ref = interp.new_instance(("A",), ())
        for _ in range(2):
            with pytest.raises(JnsResourceError) as exc_info:
                interp.call_method(ref, "m", [])
            assert exc_info.value.code == "JNS-RES-002"
            assert interp._depth == 0
            assert sys.getrecursionlimit() == limit_before
            assert interp.call_method(ref, "cheap", []) == 3

    def test_depth_trip_stack_labels_match_walker(self):
        src = "class A { int m() { return m(); } }"
        program = compile_program(src)
        stacks = {}
        for backend in ("walker", "codegen"):
            interp = program.interp(mode="jns", backend=backend, max_depth=40)
            ref = interp.new_instance(("A",), ())
            with pytest.raises(JnsResourceError) as exc_info:
                interp.call_method(ref, "m", [])
            stacks[backend] = exc_info.value.jns_stack
        assert stacks["codegen"] == stacks["walker"]
        assert stacks["codegen"][-1] == "A.m"

    def test_reset_budget_refuses_reentrant_use(self):
        interp = _interp(LOOPY, max_steps=2000)
        interp._depth = 3
        try:
            with pytest.raises(RuntimeError):
                interp.reset_budget()
        finally:
            interp._depth = 0


class TestEviction:
    def test_body_graft_evicts_emitted_closures(self):
        """A body-only edit through the incremental checker evicts the
        emitted body of the grafted declaration only: the compiler and
        the bodies of other classes survive, and the re-run sees the new
        body, never a stale emitted closure."""
        from repro.lang.incremental import IncrementalChecker
        from repro.runtime.interp import Interp

        v1 = "class A { int m() { return 1; } }\nclass B { int k() { return 7; } }"
        v2 = "class A { int m() { return 2; } }\nclass B { int k() { return 7; } }"
        inc = IncrementalChecker(v1)
        assert not inc.check().has_errors
        interp = Interp(inc.table, mode="jns", backend="codegen")
        ref = interp.new_instance(("A",), ())
        other = interp.new_instance(("B",), ())
        assert interp.call_method(ref, "m", []) == 1
        assert interp.call_method(other, "k", []) == 7
        cg = interp._cg
        m_decl = inc.table.explicit[("A",)].decl.methods[0]
        k_decl = inc.table.explicit[("B",)].decl.methods[0]
        kept = cg._fns[(id(k_decl), ("B",))]
        assert (id(m_decl), ("A",)) in cg._fns and "A.m" in cg.sources
        stats = inc.apply_edit(v2)
        assert stats["strategy"] == "incremental"  # a graft, not a rebuild
        assert interp._cg is cg  # the compiler survives
        assert (id(m_decl), ("A",)) not in cg._fns
        assert "A.m" not in cg.sources
        assert cg._fns[(id(k_decl), ("B",))] is kept
        assert interp.call_method(ref, "m", []) == 2

    def test_rerun_after_edit_reemits(self):
        from repro.lang.incremental import IncrementalChecker
        from repro.runtime.interp import Interp

        v1 = "class A { int m() { return 10; } int k() { return m() + 1; } }"
        v2 = "class A { int m() { return 20; } int k() { return m() + 1; } }"
        inc = IncrementalChecker(v1)
        interp = Interp(inc.table, mode="jns", backend="codegen")
        ref = interp.new_instance(("A",), ())
        assert interp.call_method(ref, "k", []) == 11
        inc.apply_edit(v2)
        # the devirtualized/this-call cell for m() must not survive
        assert interp.call_method(ref, "k", []) == 21


class TestEmission:
    def test_slot_indices_and_mask_guard_in_source(self):
        interp = _interp(MASKED)
        ref = interp.new_instance(("Main",), ())
        assert interp.call_method(ref, "main", []) == 47  # 5 + (5 + 37)
        sources = interp._cg.sources
        shared_get = sources["F1.A.get"]
        # Layout slots are baked in as literal indexed accesses, and the
        # mask guard is straight-line code, not a closure call.
        assert ".inst.slots[" in shared_get
        assert "u_this.view.masks" in shared_get
        base_get = sources["F0.A.get"]
        assert ".inst.slots[" in base_get

    def test_counters_and_codegen_hits(self):
        obs.enable()
        interp = _interp(MASKED)
        ref = interp.new_instance(("Main",), ())
        interp.call_method(ref, "main", [])
        counters = obs.TRACER.counters
        assert counters.get("codegen.bodies_emitted", 0) >= 2
        assert counters.get("codegen.sites_inlined", 0) >= 2
        assert counters.get("dispatch.codegen_hit", 0) >= 1
        assert interp._cg.bodies_emitted == counters["codegen.bodies_emitted"]
        assert interp._cg.sites_inlined == counters["codegen.sites_inlined"]

    def test_backend_attribute_resolution(self):
        program = compile_program(LOOPY)
        assert program.interp(backend="codegen").backend == "codegen"
        assert program.interp(backend="walker").backend == "walker"
        assert program.interp().backend == "walker"
        # jx mode has no run-time precomputation: it runs on the walker
        assert program.interp(mode="jx", backend="codegen").backend == "walker"
        for removed in ("bytecode", "compiled", "specialized"):
            with pytest.raises(ValueError):
                program.interp(backend=removed)

    def test_codegen_matches_walker_on_error_programs(self):
        src = (
            "class A { int m() { int[] xs = new int[2]; return xs[5]; } }"
        )
        program = compile_program(src, check=False)
        outcomes = {}
        for backend in ("walker", "codegen"):
            interp = program.interp(mode="jns", backend=backend)
            ref = interp.new_instance(("A",), ())
            with pytest.raises(JnsError) as exc_info:
                interp.call_method(ref, "m", [])
            outcomes[backend] = str(exc_info.value)
        assert outcomes["codegen"] == outcomes["walker"]


VIEW_NOOP = """
class F0 {
  class A {
    int x = 3;
    int get() { return x; }
  }
}
class F1 extends F0 {
  class A shares F0.A { }
}
class Main {
  int main() {
    int s = 0;
    for (int i = 0; i < 5; i++) {
      F0!.A a = new F0.A();
      s = s + ((view F0!.A)a).get();
    }
    return s;
  }
}
"""


class TestSatelliteCounters:
    @pytest.mark.parametrize("backend", ["codegen"])
    def test_static_view_change_elided(self, backend):
        """An explicit view change whose target is non-dependent and
        provably a no-op for the source view skips the runtime ``view``
        call in emitted code (satellite: per-site view elision for call
        receivers)."""
        obs.enable()
        interp = _interp(VIEW_NOOP, backend=backend)
        ref = interp.new_instance(("Main",), ())
        assert interp.call_method(ref, "main", []) == 15
        counters = obs.TRACER.counters
        assert counters.get("view_change.elided", 0) >= 5
        # the elided sites never reached the adapt machinery
        assert counters.get("view_change.noop", 0) == 0

    def test_receiver_monomorphic_devirtualization(self):
        """`get` is polymorphic globally (B redefines it) yet monomorphic
        for the receiver's static type A — the site devirtualizes via the
        conformance-set relaxation (satellite: per-receiver-class
        monomorphic names)."""
        src = """
class A { int get() { return 1; } }
class B { int get() { return 2; } }
class Main {
  int main() {
    A a = new A();
    B b = new B();
    return a.get() * 10 + b.get();
  }
}
"""
        program = compile_program(src)
        clear_caches()
        interp = program.interp(mode="jns", backend="codegen")
        ref = interp.new_instance(("Main",), ())
        assert interp.call_method(ref, "main", []) == 12
        assert interp.loader.sites_devirtualized >= 2

    def test_monomorphic_target_query(self):
        from repro.lang.types import ClassType

        src = """
class A { int get() { return 1; } }
class A2 extends A { }
class B { int get() { return 2; } }
"""
        table = compile_program(src).table
        assert table.sealed_method_target("get") is None
        paths = table.conforming_paths(ClassType(("A",)))
        target = table.monomorphic_method_target("get", paths)
        assert target is not None
        owner, decl, valid = target
        assert owner == ("A",)
        assert valid == frozenset({("A",), ("A2",)})
        mixed = table.conforming_paths(ClassType(("B",))) | paths
        assert table.monomorphic_method_target("get", frozenset(mixed)) is None


# ---------------------------------------------------------------------------
# stack labels on every emitted call path
# ---------------------------------------------------------------------------

#: the bottom of every recursion below: a loop only fuel can stop
SPIN = "int s = 0; while (true) { s = s + 1; }"

CALL_PATHS = {
    "this_call": """
class Main {
  int f(int n) { if (n == 0) { SPIN return s; } return f(n - 1) + 1; }
  int main() { return f(DEPTH); }
}
""",
    # `f` is sealed: the non-this site binds statically
    "devirtualized": """
class A {
  int f(A o, int n) { if (n == 0) { SPIN return s; } return o.f(o, n - 1) + 1; }
}
class Main { int main() { A a = new A(); return a.f(a, DEPTH); } }
""",
    # `f` is overridden, so the site keeps its inline cache; every
    # receiver is an N, so after the first miss every call hits
    "ic_hit": """
class N {
  int f(N o, int n) { if (n == 0) { SPIN return s; } return o.f(o, n - 1) + 1; }
}
class M extends N { int f(N o, int n) { return 0; } }
class Main { int main() { N a = new N(); return a.f(a, DEPTH); } }
""",
    # receivers rotate N, N, M, N: each body's site keeps missing
    "ic_miss": """
class N {
  int f(N a, N b, N c, int n) {
    if (n == 0) { SPIN return s; }
    return a.f(b, c, this, n - 1) + 1;
  }
}
class M extends N {
  int f(N a, N b, N c, int n) {
    if (n == 0) { SPIN return s; }
    return a.f(b, c, this, n - 1) + 2;
  }
}
class Main {
  int main() { N r = new N(); return r.f(new N(), new M(), new N(), DEPTH); }
}
""",
    # F1.A inherits f and g: labels name the declaring owner F0.A
    "inherited": """
class F0 {
  class A {
    int f(A o, int n) { if (n == 0) { SPIN return s; } return o.g(o, n); }
    int g(A o, int n) { return f(o, n - 1) + 1; }
  }
}
class F1 extends F0 { }
class Main { int main() { F1.A a = new F1.A(); return a.f(a, DEPTH); } }
""",
    # constructor -> method -> constructor, with a field initializer
    # that calls a method: `new C` and `C.mk` labels interleave
    "constructor": """
class C {
  C next;
  int tag = seed();
  C(int n) { if (n == 0) { SPIN } else { next = mk(n); } }
  C mk(int n) { return new C(n - 1); }
  int seed() { return 1; }
}
class Main { int main() { C c = new C(DEPTH); return c.tag; } }
""",
}

#: (budget, recursion depth): depth trips at 7 and 50 deep in a long
#: recursion; fuel trips in the bottom loop of a short one
BUDGETS = [
    ({"max_depth": 7}, 1000),
    ({"max_depth": 50}, 1000),
    ({"max_steps": 3000}, 5),
    ({"max_steps": 5000, "max_depth": 60}, 12),
]


def _no_valid_paths(interp):
    """Empty every devirtualized site's path set, so each receiver takes
    the generic fallback."""
    cg = interp._codegen()
    static = cg.static_target_for

    def target(name, rtype):
        found = static(name, rtype)
        return None if found is None else (found[0], found[1], frozenset())

    cg.static_target_for = target


def _trip(shape, backend, budget, depth, generic=False):
    src = CALL_PATHS[shape].replace("SPIN", SPIN).replace("DEPTH", str(depth))
    interp = compile_program(src).interp(mode="jns", backend=backend, **budget)
    if generic:
        _no_valid_paths(interp)
    with pytest.raises(JnsResourceError) as exc_info:
        interp.run("Main.main")
    return interp, (exc_info.value.code, exc_info.value.jns_stack)


class TestStackLabelParity:
    """Codegen's ``(code, jns_stack)`` equals the walker's, in full, on
    every emitted call path."""

    @pytest.mark.parametrize("budget,depth", BUDGETS)
    @pytest.mark.parametrize("shape", sorted(CALL_PATHS))
    def test_full_stack_matches_walker(self, shape, budget, depth):
        _, walker = _trip(shape, "walker", budget, depth)
        interp, codegen = _trip(shape, "codegen", budget, depth)
        assert codegen == walker
        code, stack = walker
        assert code == ("JNS-RES-001" if depth < 20 else "JNS-RES-002")
        assert stack[0] == "Main.main" and len(stack) > 2
        if code == "JNS-RES-002":
            assert len(stack) == budget["max_depth"] + 1
        misses = interp._cg.ic_misses
        if shape == "ic_miss":
            assert misses >= 3
        elif shape == "ic_hit":
            assert 1 <= misses <= 2
        elif shape in ("devirtualized", "inherited"):
            assert misses == 0 and interp.loader.sites_devirtualized >= 1

    @pytest.mark.parametrize("budget,depth", BUDGETS)
    def test_generic_fallback_matches_walker(self, budget, depth):
        _, walker = _trip("devirtualized", "walker", budget, depth)
        _, codegen = _trip("devirtualized", "codegen", budget, depth, generic=True)
        assert codegen == walker

    def test_labels_name_declaring_owner_and_allocations(self):
        _, (code, stack) = _trip("inherited", "codegen", {"max_depth": 7}, 1000)
        assert stack == ["Main.main"] + ["F0.A.f", "F0.A.g"] * 3 + ["F0.A.f"]
        _, (code, stack) = _trip("constructor", "codegen", {"max_depth": 7}, 1000)
        assert stack == ["Main.main"] + ["new C", "C.mk"] * 3 + ["new C"]


# ---------------------------------------------------------------------------
# the fast path: one Python frame per J&s call
# ---------------------------------------------------------------------------

NULL_AT_BOTTOM = {
    "this_call": """
class Node { int v; }
class Main {
  int f(Node z, int n) { if (n == 0) { return z.v; } return f(z, n - 1); }
}
""",
    "devirtualized": """
class Node { int v; }
class A {
  int f(A o, Node z, int n) { if (n == 0) { return z.v; } return o.f(o, z, n - 1); }
}
class Main {
  A a = new A();
  int f(Node z, int n) { return a.f(a, z, n - 1); }
}
""",
    "ic_hit": """
class Node { int v; }
class N {
  int f(N o, Node z, int n) { if (n == 0) { return z.v; } return o.f(o, z, n - 1); }
}
class M extends N { int f(N o, Node z, int n) { return 0; } }
class Main {
  N a = new N();
  int f(Node z, int n) { return a.f(a, z, n - 1); }
}
""",
}


@pytest.mark.parametrize("shape", sorted(NULL_AT_BOTTOM))
def test_emitted_calls_are_adjacent_python_frames(shape):
    """A null dereference raised k J&s calls deep under codegen unwinds
    through k ``<jns:…>`` frames in a row: no wrapper frame sits between
    an emitted call site and its callee."""
    interp = _interp(NULL_AT_BOTTOM[shape])
    main = interp.new_instance(("Main",), ())
    node = interp.new_instance(("Node",), ())
    depth = 6
    # warm every cell and cache, then fail at the same depth
    assert interp.call_method(main, "f", [node, depth - 1]) == 0
    with pytest.raises(NullDereference) as exc_info:
        interp.call_method(main, "f", [None, depth - 1])
    files = []
    tb = exc_info.value.__traceback__
    while tb is not None:
        files.append(tb.tb_frame.f_code.co_filename)
        tb = tb.tb_next
    jns = [i for i, name in enumerate(files) if name.startswith("<jns:")]
    assert len(jns) == depth
    assert jns == list(range(jns[0], jns[0] + depth))


def test_null_test_compiles_to_identity():
    """bisort's ``Node.isLeaf`` (``left == null``) is an ``is None``."""
    from repro.programs.jolden import bisort

    interp = _interp(bisort.SOURCE)
    ref = interp.new_instance(("Main",), ())
    interp.call_method(ref, "run", [4, 1])
    is_leaf = str(interp._cg.sources["Node.isLeaf"])
    assert "_eq(" not in is_leaf
    assert "is None)" in is_leaf


EQUALITY = """
class F0 { class A { int x; } }
class F1 extends F0 { class A shares F0.A { } }
class Main {
  boolean same(F0!.A p, F0!.A q) { return p == q; }
  int main() {
    F0!.A a = new F0.A();
    F0!.A b = new F0.A();
    F1!.A v = (view F1!.A)a;
    F0!.A n = null;
    int[] xs = new int[1];
    int[] ys = new int[1];
    String s = "x";
    Sys.print(a == a); Sys.print(a == b); Sys.print(a != b);
    Sys.print(v == a); Sys.print(a == v); Sys.print(v != a);
    Sys.print(a == null); Sys.print(null == a); Sys.print(n == null);
    Sys.print(n != null); Sys.print(null != n); Sys.print(null == null);
    Sys.print(same(a, (view F0!.A)v)); Sys.print(same(n, a)); Sys.print(same(n, n));
    Sys.print(xs == xs); Sys.print(xs == ys); Sys.print(s == null);
    Sys.print((view F1!.A)b == b);
    Sys.print(a == 1); Sys.print(xs != 0); Sys.print(a == -1); Sys.print(2.5 != b);
    return 0;
  }
}
"""


def test_reference_equality_matches_walker():
    """The inline ``==``/``!=`` (``is None`` against a null literal, an
    instance-identity test for two refs, ``_equals`` otherwise) prints
    what the walker prints, across views, null, arrays and literals."""
    program = compile_program(EQUALITY)
    outputs = {}
    for backend in ("walker", "codegen"):
        interp = program.interp(mode="jns", backend=backend)
        interp.run("Main.main")
        outputs[backend] = interp.output
    assert outputs["codegen"] == outputs["walker"]
    assert outputs["walker"] == [
        str(b).lower() for b in (
            True, False, True, True, True, False, False, False, True, False,
            False, True, True, False, True, True, False, False, True,
            False, True, False, True,
        )
    ]


# ---------------------------------------------------------------------------
# trace counts fixed at emission
# ---------------------------------------------------------------------------

#: per jolden driver, small arguments (perfbench's cold-run sizes)
SMALL_ARGS = {
    "bh": (8, 1, 7), "bisort": (5, 12345), "em3d": (16, 2, 2, 777),
    "health": (2, 4, 42), "mst": (16, 321), "perimeter": (8,),
    "power": (2, 2, 2, 2), "treeadd": (6, 2), "tsp": (16, 99),
    "voronoi": (12, 5),
}
TOGGLED = ("mask.check", "dispatch.codegen_hit", "alloc")


def _traced_run(interp, main, args):
    obs.enable()
    interp.call_method(main, "run", list(args))
    counts = {name: obs.TRACER.counters.get(name, 0) for name in TOGGLED}
    obs.disable()
    return counts


@pytest.mark.parametrize("name", sorted(SMALL_ARGS))
def test_trace_counts_survive_a_tracer_toggle(name):
    """Bodies count trace events only if tracing was on when they were
    emitted, so turning tracing on rebuilds the compiler: a warm,
    untraced interpreter then counts what one traced from the start
    counts."""
    from repro.programs.jolden import BY_NAME

    program = compile_program(BY_NAME[name].SOURCE)
    args = SMALL_ARGS[name]
    warm = program.interp(mode="jns", backend="codegen")
    main = warm.new_instance(("Main",), ())
    warm.call_method(main, "run", list(args))
    untraced = "".join(warm._cg.sources.values())
    assert "_TR." not in untraced and "enabled" not in untraced
    toggled = _traced_run(warm, main, args)
    assert "_TR.count(" in "".join(warm._cg.sources.values())

    obs.enable()
    traced = program.interp(mode="jns", backend="codegen")
    traced_main = traced.new_instance(("Main",), ())
    assert _traced_run(traced, traced_main, args) == toggled
    assert toggled["mask.check"] > 0 and toggled["alloc"] > 0


# ---------------------------------------------------------------------------
# type-directed /, %, .length and the allocator, against the walker
# ---------------------------------------------------------------------------


def _both(src, entry="Main.main", **kw):
    """(result or (code, message), output) per backend."""
    program = compile_program(src)
    seen = {}
    for backend in ("walker", "codegen"):
        interp = program.interp(mode="jns", backend=backend, **kw)
        try:
            result = interp.run(entry)
        except JnsError as exc:
            result = (exc.code, str(exc), getattr(exc, "jns_stack", None))
        seen[backend] = (result, interp.output)
    assert seen["codegen"] == seen["walker"]
    return seen["walker"]


def _java_div(a, b):
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


DIVIDENDS = (-7, -6, -1, 0, 1, 6, 7)
DIVISORS = (-3, -2, -1, 1, 2, 3)


def test_int_division_and_remainder_match_walker():
    """Every sign combination, a zero dividend, variable and folded
    divisors, and the compound forms."""
    lines = []
    for a in DIVIDENDS:
        for b in DIVISORS:
            lines.append(
                f"a = {a}; b = {b}; Sys.print(a / b); Sys.print(a % b); "
                f"Sys.print(a / {b}); Sys.print(a % ({b})); "
                f"c = a; c /= b; Sys.print(c); c = a; c %= b; Sys.print(c);"
            )
    src = (
        "class Main { int main() { int a = 0; int b = 0; int c = 0; "
        + " ".join(lines) + " return 0; } }"
    )
    _, output = _both(src)
    expected = []
    for a in DIVIDENDS:
        for b in DIVISORS:
            q = _java_div(a, b)
            expected += [q, a - q * b] * 3
    assert output == [str(v) for v in expected]


@pytest.mark.parametrize("expr,message", [
    ("a / z", "integer division by zero"),
    ("a % z", "integer modulo by zero"),
    ("a / 0", "integer division by zero"),
    ("a % 0", "integer modulo by zero"),
    ("0 / z", "integer division by zero"),
])
def test_int_zero_divisor_is_an_arithmetic_error(expr, message):
    result, _ = _both(
        f"class Main {{ int main() {{ int a = 7; int z = 0; return {expr}; }} }}"
    )
    assert result == ("JNS-RUN-007", message, None)


@pytest.mark.parametrize("stmt,message", [
    ("a /= z;", "integer division by zero"),
    ("a %= z;", "integer modulo by zero"),
])
def test_compound_zero_divisor_is_an_arithmetic_error(stmt, message):
    result, _ = _both(
        f"class Main {{ int main() {{ int a = 7; int z = 0; {stmt} return a; }} }}"
    )
    assert result == ("JNS-RUN-007", message, None)


@pytest.mark.parametrize("body,message", [
    ("int[] xs = new int[2]; return xs[2];", "array index 2 out of bounds (length 2)"),
    ("int[] xs = new int[2]; return xs[-1];", "array index -1 out of bounds (length 2)"),
    ("int[] xs = new int[2]; xs[5] = 1; return 0;", "array index 5 out of bounds (length 2)"),
    ("int[] xs = new int[2]; xs[-1] += 1; return 0;", "array index -1 out of bounds (length 2)"),
    ("int n = -1; int[] xs = new int[n]; return 0;", "bad array length -1"),
])
def test_array_errors_are_array_errors(body, message):
    result, _ = _both(f"class Main {{ int main() {{ {body} }} }}")
    assert result == ("JNS-RUN-006", message, None)


def test_double_holding_an_int_divides_as_the_walker_does():
    """``double x = 3`` keeps a Python int on both backends, so ``x / 2``
    truncates; a real double divides."""
    _, output = _both("""
class Main {
  int main() {
    double x = 3; double y = 7.0; double z = 0.0; double n = -1.5;
    Sys.print(x / 2); Sys.print(y / 2); Sys.print(x / y); Sys.print(y / x);
    Sys.print(y / z); Sys.print(n / z); Sys.print(z / z); Sys.print(x % 2);
    Sys.print(y % 2); Sys.print(n % 1.0); Sys.print(y % z); Sys.print((y / z) % 2.0);
    Sys.print(7 / 2.0); Sys.print(y / 0.5);
    return 0;
  }
}
""")
    assert output == [
        "1", "3.5", "0.42857142857142855", "2.3333333333333335",
        "Infinity", "-Infinity", "NaN", "1",
        "1.0", "-0.5", "NaN", "NaN",
        "3.5", "14.0",
    ]


INT_CASTS = """
class Main {
  int main() {
    double z = 0.0; double h = 2.9; int k = 7;
    Sys.print((int)(0.0 / z)); Sys.print((int)(1.0 / z)); Sys.print((int)(-1.0 / z));
    Sys.print(Sys.intOf(0.0 / z)); Sys.print(Sys.intOf(1.0 / z));
    Sys.print(Sys.intOf(-1.0 / z));
    Sys.print((int)h); Sys.print((int)(-h)); Sys.print((int)k); Sys.print((int)(1.0e12));
    return (int)(0.0 / z);
  }
}
"""


def test_int_cast_of_nan_and_infinity_is_java_s():
    """``(int)`` and ``Sys.intOf`` give Java's 0 for NaN and the int
    bound of an infinity's sign, on both backends; a finite value
    truncates as before, out of int range included."""
    result, output = _both(INT_CASTS)
    assert result == 0
    assert output == [
        "0", "2147483647", "-2147483648", "0", "2147483647", "-2147483648",
        "2", "-2", "7", "1000000000000",
    ]


def test_int_cast_of_a_static_int_stays_a_plain_int_call():
    interp = _interp(INT_CASTS)
    interp.run("Main.main")
    src = str(interp._cg.sources["Main.main"])
    assert "_int(u_k)" in src and "_jint(u_h)" in src


def test_length_of_a_null_array_is_a_null_dereference():
    for body in (
        "int[] xs = null; return xs.length;",
        "return this.ys.length;",
        "Main m = this; return m.ys.length;",
    ):
        result, _ = _both(
            f"class Main {{ int[] ys; int main() {{ {body} }} }}"
        )
        assert result == (
            "JNS-RUN-001", "null dereference reading field 'length'", None
        )
    result, _ = _both(
        "class Main { int[] ys = new int[3]; "
        "int main() { int[] xs = new int[4]; Main m = this; "
        "return xs.length * 10 + m.ys.length + this.ys.length; } }"
    )
    assert result == 46


def test_array_length_compiles_to_len():
    interp = _interp(
        "class Main { int main() { int[] xs = new int[4]; return xs.length; } }"
    )
    assert interp.run("Main.main") == 4
    src = str(interp._cg.sources["Main.main"])
    assert "_len(u_xs) if u_xs is not None" in src and "_gf" in src


ALLOCATIONS = """
class P { int v = 3; }
class C { int v; C(int n) { v = n; } C(int a, int b) { v = a * 10 + b; } }
class R { R next; int n; R(int k) { n = k; if (k > 0) { next = new R(k - 1); } } }
class L { L next = new L(); }
class F0 {
  class A { A next; int n; A(int k) { n = k; if (k > 0) { next = new A(k - 1); } } }
  class B { A make(int k) { return new A(k); } }
}
class F1 extends F0 { class A shares F0.A { } class B shares F0.B { } }
class Main {
  int main() { return new P().v + new C(4).v + new C(1, 2).v + new R(3).n; }
  int family() { F1!.A a = new F1.B().make(3); return a.n + a.next.n; }
  int deep() { R r = new R(1000); return r.n; }
  int loop() { L l = new L(); return 0; }
  int familyDeep() { F1!.A a = new F1.B().make(1000); return a.n; }
  int noCtor() { P p = new P(1); return 0; }
}
"""


@pytest.mark.parametrize("entry,expected", [
    ("Main.main", 3 + 4 + 12 + 3),
    ("Main.family", 5),
    ("Main.deep", ["Main.deep"] + ["new R"] * 7),
    ("Main.loop", ["Main.loop"] + ["new L"] * 7),
    ("Main.familyDeep", ["Main.familyDeep", "F0.B.make"] + ["new F1.A"] * 6),
    ("Main.noCtor", "JNS-RUN-004"),
])
def test_new_matches_walker_at_max_depth_7(entry, expected):
    """Classes with and without constructors, recursion through a
    constructor, a field initializer and a dependent (family) ``new``:
    same result, code and full J&s stack (``new P`` frames included) as
    the walker."""
    program = compile_program(ALLOCATIONS, check=False)
    seen = {}
    for backend in ("walker", "codegen"):
        interp = program.interp(mode="jns", backend=backend, max_depth=7)
        try:
            seen[backend] = interp.run(entry)
        except JnsError as exc:
            seen[backend] = (exc.code, str(exc), getattr(exc, "jns_stack", None))
    assert seen["codegen"] == seen["walker"]
    if isinstance(expected, list):
        assert seen["walker"][0] == "JNS-RES-002"
        assert seen["walker"][2] == expected
    elif isinstance(expected, str):
        assert seen["walker"][0] == expected
    else:
        assert seen["walker"] == expected


def test_abstract_new_fails_at_every_attempt():
    program = compile_program(
        "abstract class Q { } class Main { int main() { Q q = new Q(); return 0; } }",
        check=False,
    )
    interp = program.interp(mode="jns", backend="codegen")
    for _ in range(2):
        with pytest.raises(JnsError, match="cannot instantiate abstract class Q"):
            interp.run("Main.main")


def test_allocation_shares_one_unmasked_view_per_class():
    interp = _interp("class P { int v = 3; } class Main { int main() { return 0; } }")
    a = interp.new_instance(("P",), ())
    b = interp.new_instance(("P",), ())
    assert a.inst is not b.inst and a.view is b.view and not a.view.masks


# ---------------------------------------------------------------------------
# emission branches the jolden drivers never reach, against the walker
# ---------------------------------------------------------------------------

CONDITIONALS = """
class Main {
  int n;
  int bump(int k) { n = n + k; Sys.print("bump " + k); return n; }
  int pick(int a) { return a > 5 ? bump(2) : (a > 1 ? bump(3) : bump(4)); }
  int main() {
    int a = 3;
    int x = a > 2 ? bump(1) : bump(100);
    int y = pick(a) + pick(0) + pick(9);
    int z = (a < 0 ? 1 : 2) + (a > 0 ? bump(5) : 0);
    String s = a == 3 ? "three" : "other";
    double d = a > 0 ? 1.5 : 2.5;
    boolean b = x > y ? true : a > 1;
    int c = bump(1) > 0 ? bump(10) : bump(20);
    int zero = 0;
    int safe = a < 0 ? 10 / zero : 1;
    int i = 0;
    int acc = 0;
    while (i < 4) { acc = acc + (i % 2 == 0 ? bump(i) : -i); i = i + 1; }
    Sys.print(x); Sys.print(y); Sys.print(z); Sys.print(s); Sys.print(d);
    Sys.print(b); Sys.print(c); Sys.print(safe); Sys.print(acc); Sys.print(n);
    return x * 100 + y * 10 + z;
  }
  int fails() { int zero = 0; int a = 1; return a > 0 ? bump(1) + 10 / zero : 1; }
}
"""


def test_conditional_expressions_match_walker():
    """``?:`` with effects in a branch, in the condition and in nested
    conditionals: only the taken branch runs, in walker order; an
    untaken branch that would fail does not."""
    assert _both(CONDITIONALS) == (337, [
        "bump 1", "bump 3", "bump 4", "bump 2", "bump 5", "bump 1", "bump 10",
        "bump 0", "bump 2", "1", "22", "17", "three", "1.5", "true", "26",
        "1", "50", "28",
    ])
    assert _both(CONDITIONALS, "Main.fails") == (
        ("JNS-RUN-007", "integer division by zero", None), ["bump 1"]
    )
    interp = _interp(CONDITIONALS)
    interp.run("Main.main")
    src = str(interp._cg.sources["Main.main"])
    assert "else:" in src  # an effectful branch is a statement
    assert " if " in src and " else " in src  # a pure one an expression


COMPOUND_DOUBLES = """
class Main {
  double f = 2.0;
  int main() {
    double d = 7.5;
    d -= 2.25; Sys.print(d);
    d *= 3.0; Sys.print(d);
    d /= 2.0; Sys.print(d);
    d %= 2.5; Sys.print(d);
    double e = 1.0; e /= 0.0; Sys.print(e);
    e %= 2.0; Sys.print(e);
    double g = -5.5; g %= 2.0; Sys.print(g);
    f *= 2.5; f -= 0.5; f /= 3.0; f %= 1.5; Sys.print(f);
    double[] xs = new double[2];
    xs[0] -= 1.5; xs[1] *= 4.0; xs[0] /= 2.0; xs[1] %= 3.0;
    Sys.print(xs[0]); Sys.print(xs[1]);
    return 0;
  }
  int fails() { double d = 1.5; int zero = 0; d -= 1 / zero; return 0; }
}
"""


def test_compound_assignment_on_doubles_matches_walker():
    """``-=``, ``*=``, ``/=`` and ``%=`` on double locals, fields and
    array elements, with a zero divisor and a negative dividend."""
    assert _both(COMPOUND_DOUBLES) == (0, [
        "5.25", "15.75", "7.875", "0.375", "Infinity", "NaN", "-1.5", "0.0",
        "-0.75", "0.0",
    ])
    assert _both(COMPOUND_DOUBLES, "Main.fails") == (
        ("JNS-RUN-007", "integer division by zero", None), []
    )
    interp = _interp(COMPOUND_DOUBLES)
    interp.run("Main.main")
    src = str(interp._cg.sources["Main.main"])
    for helper in ("_csub(", "_cmul(", "_cdiv(", "_cmod("):
        assert helper in src


PRIMITIVE_CASTS = """
class Main {
  int main() {
    int i = 7; double z = 0.0; boolean t = i > 3;
    Sys.print((double) i); Sys.print((double) i / 2); Sys.print((double) (i / 2));
    Sys.print((double) 2.5); Sys.print((double) (0.0 / z)); Sys.print((double) (0 - 3));
    Sys.print((boolean) t); Sys.print((boolean) (i < 3)); Sys.print(!(boolean) t);
    double d = (double) i; boolean b = (boolean) (d > 6.5);
    Sys.print(d); Sys.print(b);
    return (int) ((double) i * 1.5);
  }
  int fails() { int zero = 0; double d = (double) (1 / zero); return 0; }
}
"""


def test_casts_to_double_and_boolean_match_walker():
    assert _both(PRIMITIVE_CASTS) == (10, [
        "7.0", "3.5", "3.0", "2.5", "NaN", "-3.0", "true", "false", "false",
        "7.0", "true",
    ])
    assert _both(PRIMITIVE_CASTS, "Main.fails") == (
        ("JNS-RUN-007", "integer division by zero", None), []
    )
    interp = _interp(PRIMITIVE_CASTS)
    interp.run("Main.main")
    src = str(interp._cg.sources["Main.main"])
    assert "_float(" in src and "_bool(" in src


SIGNED_CASTS = """
class Main {
  int main() {
    int x = 5; double d = 2.5;
    Sys.print((double) -3); Sys.print((double) -x); Sys.print((int) -d);
    Sys.print((int) +x); Sys.print((double) -(x * 2)); Sys.print((int) -d + x);
    int a = 9;
    Sys.print((a) - x); Sys.print((a) + x);
    return (int) -x;
  }
}
"""


def test_casts_of_a_signed_operand_match_walker():
    assert _both(SIGNED_CASTS) == (-5, [
        "-3.0", "-5.0", "-2", "5", "-10.0", "3", "4", "14",
    ])


MASKED_LINK = r"""
class F0 {
  class A {
    int x = 4;
    A\x next;
    int get() { return x; }
  }
}
class F1 extends F0 {
  class A shares F0.A {
    int get() { return x + 3; }
  }
}
class Main {
  int main() {
    int s = 0;
    for (int i = 0; i < 2; i++) {
      F0!.A a = new F0.A();
      a.next = new F0.A();
      s = s + a.get();
      F1!.A v = (view F1!.A)a;
      s = s + v.get();
      Sys.print(Sys.viewName(v.next));
      F1!.A\x w = v.next; w.x = i + 5; s = s + w.get();
    }
    return s;
  }
}
"""


def test_masked_view_dependent_read_matches_walker():
    """``v.next`` reads a field whose view-dependent type carries a mask
    (``A\\x next``), so its read plan is PLAN_ADAPT: the emitted site
    hands the value to the read function of that plan (``read_fn``, an
    adapt bound to the plan's target), which must view it exactly as the
    walker does."""
    from repro.runtime.loader import PLAN_ADAPT

    assert _both(MASKED_LINK) == (39, ["F1.A", "F1.A"])
    interp = compile_program(MASKED_LINK).interp(mode="jns", backend="codegen")
    cg = interp._codegen()
    make, applied = cg.read_fn, []

    def read_fn(name, plan):
        read = make(name, plan)

        def counted(v, o=None):
            applied.append((name, plan[0]))
            return read(v, o)

        return counted

    cg.read_fn = read_fn
    assert interp.run("Main.main") == 39
    assert applied and set(applied) == {("next", PLAN_ADAPT)}


# ---------------------------------------------------------------------------
# view-keyed guards: identity-tested read, store and call sites
# ---------------------------------------------------------------------------

SITES = r"""
class A1 { class B { int b0 = 1; } }
class A2 extends A1 {
  class B shares A1.B {
    int f;
    int setGet(int v) { this.f = v; return this.f; }
    int peek() { return this.f; }
  }
}
class Main {
  A2!.B\f toDerived(A1!.B b) sharing A1!.B = A2!.B\f {
    return (view A2!.B\f)b;
  }
  A2!.B\f remask(A2!.B b) { return (view A2!.B\f)b; }
  int read(A2!.B b) { return b.f; }
  void write(A2!.B b, int v) { b.f = v; }
}
"""


def _host_script(steps):
    """Run ``steps(interp, main, call)`` on each backend and compare the
    outcomes; ``call(ref, name, *args)`` records a result or an error's
    code and message."""
    program = compile_program(SITES)
    seen = {}
    for backend in ("walker", "codegen"):
        interp = program.interp(mode="jns", backend=backend)
        main = interp.new_instance(("Main",), ())
        outcomes = []

        def call(ref, name, *args):
            try:
                outcomes.append(interp.call_method(ref, name, list(args)))
            except JnsError as exc:
                outcomes.append((exc.code, str(exc)))

        steps(interp, main, call)
        seen[backend] = (outcomes, interp.output)
    assert seen["codegen"] == seen["walker"]
    return seen["walker"][0]


def _masked(interp, main):
    base = interp.new_instance(("A1", "B"), ())
    return interp.call_method(main, "toDerived", [base])


def _count_misses(cg, factory):
    """Wrap the compiler's ``factory`` (``read_miss_fn``/``store_miss_fn``)
    so each cold-path call is recorded."""
    make, calls = getattr(cg, factory), []

    def counted_factory(name):
        miss = make(name)

        def counted(site, o, *rest):
            calls.append(name)
            return miss(site, o, *rest)

        return counted

    setattr(cg, factory, counted_factory)
    return calls


def test_warm_read_site_alternating_masked_views():
    """One read site fed the same class under an unmasked and a masked
    view: the unmasked receiver hits after the first fill, and the masked
    one takes the cold path, raising JNS-RUN-002, every time."""
    misses = {}

    def steps(interp, main, call):
        if interp.codegen:
            misses["read"] = _count_misses(interp._codegen(), "read_miss_fn")
        plain = interp.new_instance(("A2", "B"), ())
        call(main, "write", plain, 5)
        for _ in range(4):
            call(main, "read", plain)
            call(main, "read", _masked(interp, main))

    outcomes = _host_script(steps)
    assert outcomes[1::2] == [5] * 4
    assert {o[0] for o in outcomes[2::2]} == {"JNS-RUN-002"}
    assert len(misses["read"]) == 1 + 4  # one fill, then the masked reads


def test_store_site_unmasks_for_the_next_warm_read():
    """A write through a warm store site removes the receiver's mask; the
    view it moves to is the interned unmasked one the read site holds,
    so the next read hits.  Each site misses once per view it meets."""
    views = {}

    def steps(interp, main, call):
        if interp.codegen:
            cg = interp._codegen()
            views["misses"] = (
                _count_misses(cg, "read_miss_fn"),
                _count_misses(cg, "store_miss_fn"),
            )
        plain = interp.new_instance(("A2", "B"), ())
        call(main, "write", plain, 1)
        call(main, "write", plain, 2)
        call(main, "read", plain)
        masked = _masked(interp, main)
        call(main, "read", masked)
        call(main, "write", masked, 7)
        call(main, "read", masked)
        views[interp.backend] = (masked.view, plain.view)

    outcomes = _host_script(steps)
    assert outcomes[2] == 2 and outcomes[3][0] == "JNS-RUN-002"
    assert outcomes[5] == 7
    for backend in ("walker", "codegen"):
        after_write, plain = views[backend]
        assert after_write is plain
    reads, stores = views["misses"]
    assert len(reads) == 2  # the plain fill and the masked read
    assert len(stores) == 2  # the plain fill and the masked write


@pytest.mark.parametrize("backend", ["walker", "codegen"])
def test_view_changes_return_interned_views(backend):
    """A view change to another class (``ClassTable.view_of``) and one
    that only adds a mask (``Interp._view_change``) both land on the
    interned view, as allocation does."""
    from repro.lang.types import intern_view

    interp = compile_program(SITES).interp(mode="jns", backend=backend)
    main = interp.new_instance(("Main",), ())
    plain = interp.new_instance(("A2", "B"), ())
    assert plain.view is intern_view(("A2", "B"))
    masked = intern_view(("A2", "B"), frozenset({"f"}))
    assert _masked(interp, main).view is masked
    assert interp.call_method(main, "remask", [plain]).view is masked


def test_this_write_then_read_under_an_entry_mask():
    """``this.f = v`` then ``this.f`` in a body entered with ``f`` masked:
    the prologue's ``_tm`` snapshot is non-empty, so the read tests the
    live masks, which the write emptied.  A body entered unmasked reads
    with no mask test at all."""

    def steps(interp, main, call):
        call(_masked(interp, main), "setGet", 9)
        call(_masked(interp, main), "peek")
        plain = interp.new_instance(("A2", "B"), ())
        call(plain, "setGet", 4)
        call(plain, "peek")

    outcomes = _host_script(steps)
    assert outcomes[0] == 9 and outcomes[1][0] == "JNS-RUN-002"
    assert outcomes[2:] == [4, 4]
    interp = compile_program(SITES).interp(mode="jns", backend="codegen")
    interp.call_method(interp.new_instance(("A2", "B"), ()), "setGet", [1])
    text = interp._cg.sources["A2.B.setGet"]
    assert "_tm = u_this.view.masks" in text
    assert text.count("if _tm and 'f' in u_this.view.masks") == 2


RETARGET = """
class F0 { class A { int x = 3; A next; } }
class F1 extends F0 { class A shares F0.A { } }
class Main {
  int main() {
    F0!.A a = new F0.A();
    a.next = new F0.A();
    F0!.A n = a.next;
    return a.x + n.x;
  }
}
"""


def test_primitive_read_emits_no_retarget_branch():
    """A read whose checker type is primitive, ``String`` or an array can
    never hold a reference, so its site has no retarget branch; the
    ``A``-typed ``a.next`` keeps one."""
    assert _both(RETARGET) == (6, [])
    interp = compile_program(RETARGET).interp(mode="jns", backend="codegen")
    assert interp.run("Main.main") == 6
    text = interp._cg.sources["Main.main"]
    assert text.count(".view is ") == 4  # the reads a.next, a.x, n.x, store
    assert text.count(".path not in ") == 1  # a.next only


def test_receiver_devirtualized_site_reemits_after_callee_edit():
    """A receiver-devirtualized site caches its callee body; a body edit
    of the callee resets the site (the caller's body is kept) and the
    next call runs the new body."""
    from repro.lang.incremental import IncrementalChecker
    from repro.runtime.interp import Interp

    caller = "\nclass Main { int k(A a) { return a.m() + 1; } }"
    v1 = "class A { int m() { return 10; } }" + caller
    v2 = "class A { int m() { return 20; } }" + caller
    inc = IncrementalChecker(v1)
    assert not inc.check().has_errors
    interp = Interp(inc.table, mode="jns", backend="codegen")
    main = interp.new_instance(("Main",), ())
    a = interp.new_instance(("A",), ())
    assert interp.call_method(main, "k", [a]) == 11
    cg = interp._cg
    k_decl = inc.table.explicit[("Main",)].decl.methods[0]
    kept = cg._fns[(id(k_decl), ("Main",))]
    assert ".view is " in cg.sources["Main.k"]  # the devirtualized site
    assert inc.apply_edit(v2)["strategy"] == "incremental"
    assert interp._cg is cg and cg._fns[(id(k_decl), ("Main",))] is kept
    assert interp.call_method(main, "k", [a]) == 21
    walker = Interp(inc.table, mode="jns", backend="walker")
    wmain = walker.new_instance(("Main",), ())
    assert walker.call_method(wmain, "k", [walker.new_instance(("A",), ())]) == 21


def _reachable_refs(roots):
    """Every reference reachable from ``roots`` through fields, arrays and
    the instances' memoized view references."""
    from repro.runtime.values import Ref

    seen, stack, refs = set(), list(roots), []
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
            continue
        if not isinstance(v, Ref):
            continue
        refs.append(v)
        inst = v.inst
        if id(inst) in seen:
            continue
        seen.add(id(inst))
        stack.extend(inst.view_refs.values())
        stack.extend(getattr(inst, "slots", ()))
        stack.extend((getattr(inst, "extra", None) or {}).values())
        stack.extend(getattr(inst, "fields", {}).values())
    return refs


@pytest.mark.parametrize("backend", ["walker", "codegen"])
def test_every_reachable_view_is_interned_after_evolution(backend):
    """After a ``corona -> pccorona -> beecorona`` run every reference in
    the heap holds the one interned view of its ``(path, masks)``: the
    invariant the identity-keyed sites rely on to hit."""
    from repro.lang.types import intern_view
    from repro.programs.corona import CoronaSystem

    system = CoronaSystem(size=8, objects=16, backend=backend)
    system.run_phase("corona", fetches=40)
    system.evolve("pccorona")
    system.run_phase("pccorona", fetches=40)
    system.evolve("beecorona")
    system.run_phase("beecorona", fetches=40)
    refs = _reachable_refs([system.main, system.net])
    paths = {r.view.path for r in refs}
    assert len(refs) > 100 and any(p[0] == "beecorona" for p in paths)
    stray = [r for r in refs if r.view is not intern_view(r.view.path, r.view.masks)]
    assert stray == []


# ---------------------------------------------------------------------------
# warm emitted code: constants from the body's globals, no type hashed, no
# site rebuilt
# ---------------------------------------------------------------------------


def _warm_driver(name, backend="codegen"):
    """An interpreter of jolden driver ``name`` after one ``Main.run`` at
    its small arguments, its ``Main`` and that run's result."""
    from repro.programs.jolden import BY_NAME

    interp = compile_program(BY_NAME[name].SOURCE).interp(mode="jns", backend=backend)
    main = interp.new_instance(("Main",), ())
    return interp, main, interp.call_method(main, "run", list(SMALL_ARGS[name]))


def _corona_epoch_interp():
    """A codegen interpreter after one CorONA epoch: polls and a publish
    under each family, with the two live evolutions between them."""
    from repro.programs.corona import CoronaSystem

    system = CoronaSystem(size=8, objects=16, backend="codegen")
    for family in ("corona", "pccorona", "beecorona"):
        if family != "corona":
            system.evolve(family)
        for start in range(4):
            [system.fetch(start, key, family) for key in range(0, 16, 3)]
        system.publish(5, 2, "v2")
    return system.interp


@pytest.mark.parametrize("name", sorted(SMALL_ARGS) + ["corona"])
def test_emitted_bodies_read_constants_from_their_globals(name):
    """No emitted body takes a keyword-only parameter or a default: its
    header is ``def _cg_fn(u_this, <params>):`` and every constant it
    names is a global of the dict it runs in."""
    if name == "corona":
        interp = _corona_epoch_interp()
    else:
        interp, main, _ = _warm_driver(name)
        interp.call_method(main, "run", list(SMALL_ARGS[name]))
    fns = list(interp._cg._fns.values())
    assert fns
    for fn in fns:
        code = fn.__code__
        assert code.co_kwonlyargcount == 0
        assert fn.__kwdefaults__ is None and fn.__defaults__ is None
        loads = {
            i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"
        }
        assert loads <= set(fn.__globals__)
    for src in interp._cg.sources.values():
        assert "*" not in src.split("\n", 1)[0]


def _count_calls(monkeypatch, owner, attr, seen):
    """Record each call of ``owner.attr`` (a function) in ``seen``."""
    fn = getattr(owner, attr)

    def counted(*args):
        seen.append(attr)
        return fn(*args)

    monkeypatch.setattr(owner, attr, counted)


def test_warm_bh_run_hashes_no_type_and_builds_no_site(monkeypatch):
    """bh's polymorphic read sites and its casts and ``instanceof`` tests
    look their answers up by the receiver's view once warm: a second
    ``Main.run`` hashes no ``Type`` (``conforms`` tables bound at
    emission) and builds no site (refills copy memoized contents), and
    it answers as the walker does."""
    from repro.lang import types as T
    from repro.runtime.codegen import CodegenCompiler

    walker, _, expected = _warm_driver("bh", backend="walker")
    interp, main, first = _warm_driver("bh")
    assert (first, interp.output) == (expected, walker.output)
    seen = []
    _count_calls(monkeypatch, CodegenCompiler, "_build_site", seen)
    for cls in vars(T).values():
        if isinstance(cls, type) and issubclass(cls, T.Type) and "__hash__" in vars(cls):
            _count_calls(monkeypatch, cls, "__hash__", seen)
    q = interp._q_conforms
    hits = q.hits
    del interp.output[:]
    assert interp.call_method(main, "run", list(SMALL_ARGS["bh"])) == expected
    assert interp.output == walker.output
    assert seen == [] and q.hits > hits


TWO_CLASSES = """
class A { int x; }
class B extends A { int y; }
class Main {
  int read(A a) { return a.x; }
  int main() {
    A a = new A();
    a.x = 1;
    B b = new B();
    b.x = 2;
    int s = 0;
    for (int i = 0; i < 6; i++) { s = s + read(a) * 10 + read(b); }
    return s;
  }
}
"""


@pytest.mark.parametrize("caches", [True, False])
def test_polymorphic_read_site_builds_once_per_field_and_view(monkeypatch, caches):
    """``read``'s one site is fed an ``A`` and a ``B`` in turn, so every
    read misses and refills it.  The refill copies the contents built
    once per ``(field, view)``; with caches off every refill builds
    again, as a call site then dispatches again."""
    from repro import set_caches_enabled
    from repro.runtime.codegen import CodegenCompiler

    built = []
    build = CodegenCompiler._build_site

    def counted(self, name, view):
        built.append((name, view.path))
        return build(self, name, view)

    monkeypatch.setattr(CodegenCompiler, "_build_site", counted)
    set_caches_enabled(caches)
    try:
        assert _both(TWO_CLASSES) == (72, [])
    finally:
        set_caches_enabled(True)
        clear_caches()
    reads = [(("x", ("A",)), 6), (("x", ("B",)), 6)]
    if caches:
        # the two stores of ``main`` build the contents the reads reuse
        assert sorted(built) == [("x", ("A",)), ("x", ("B",))]
    else:
        # two stores, then twelve read misses, each building again
        assert sorted(built) == sorted(
            [("x", ("A",)), ("x", ("B",))] + [k for k, n in reads for _ in range(n)]
        )


CAST_EDIT = """
class A { int tag() { return 1; } }
class B extends A { int tag() { return 2; } }
class Main {
  int n;
  int main() {
    A a = new B();
    B b = (B) a;
    int s = b.tag();
    if (a instanceof B) { s = s + 10; }
    return s;
  }
}
"""


def test_cleared_conforms_tables_redecide_casts():
    """The ``conforms`` tables a warm body bound for its cast and
    ``instanceof`` (one table: both test an object viewed as ``B``
    against ``B``) are emptied in place by an interface edit and by
    ``clear_caches``, so the next run decides again (one query miss),
    with the walker's answers and the walker's hit and miss counts."""
    from repro.lang.incremental import IncrementalChecker
    from repro.runtime.interp import Interp

    edited = CAST_EDIT.replace("  int n;", "  String n;")
    seen = {}
    for backend in ("walker", "codegen"):
        inc = IncrementalChecker(CAST_EDIT, file="t.jns")
        assert not inc.check().has_errors
        live = Interp(inc.table, backend=backend)
        q = live._q_conforms
        runs = [(live.run("Main.main"), q.hits, q.misses) for _ in range(2)]
        for clear in ("edit", "clear_caches"):
            held = list(q.table.values())
            assert held and all(held)
            if clear == "edit":
                stats = inc.apply_edit(edited)
                assert not inc.check().has_errors
                assert stats["strategy"] == "incremental" and live.table is inc.table
            else:
                clear_caches()
            assert len(q) == 0 and not any(held)
            runs += [(live.run("Main.main"), q.hits, q.misses) for _ in range(2)]
            # the first run after the clear misses as a cold one does
            assert runs[-2][2] - runs[-3][2] == runs[0][2] == 1
            assert runs[-1][2] == runs[-2][2]
        seen[backend] = runs
    assert seen["codegen"] == seen["walker"]
    assert {r[0] for r in seen["walker"]} == {12}
