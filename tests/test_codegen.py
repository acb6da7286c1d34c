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

import sys

import pytest

from repro import JnsError, clear_caches, compile_program, obs
from repro.errors import JnsResourceError

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
        assert interp._res_stack is None
        assert interp.call_stack == []
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
        """A body-only edit through the incremental checker must drop the
        codegen compiler wholesale — the re-run sees the new body, never
        a stale emitted closure."""
        from repro.lang.incremental import IncrementalChecker
        from repro.runtime.interp import Interp

        v1 = "class A { int m() { return 1; } }"
        v2 = "class A { int m() { return 2; } }"
        inc = IncrementalChecker(v1)
        assert not inc.check().has_errors
        interp = Interp(inc.table, mode="jns", backend="codegen")
        ref = interp.new_instance(("A",), ())
        assert interp.call_method(ref, "m", []) == 1
        assert interp._cg is not None and interp._cg.bodies_emitted >= 1
        stats = inc.apply_edit(v2)
        assert stats["strategy"] != "scratch"  # a graft, not a rebuild
        assert interp._cg is None  # closures evicted with the compiler
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
        assert interp.spec.sites_devirtualized >= 2

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
