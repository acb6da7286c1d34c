"""Robustness: malformed input must fail with JnsError (never an
internal crash like AttributeError/KeyError/RecursionError), and
runaway programs must degrade into JNS-RES-* resource diagnostics
instead of blowing the Python stack.

The hypothesis tests here are marked ``fuzz`` and scale with the
hypothesis profile: tier-1 runs them with the small default budget,
tier-2 (``HYPOTHESIS_PROFILE=fuzz pytest -m fuzz``) raises it.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import JnsError, JnsResourceError, check_source, compile_program

from conftest import FIG123_SOURCE

BASE = FIG123_SOURCE


@pytest.mark.fuzz
@settings(deadline=None)
@given(
    st.integers(0, len(BASE) - 1),
    st.sampled_from(list("{}()[];.!\\&=<>+-*/\"'x1 ")),
)
def test_single_character_mutations_fail_cleanly(position, replacement):
    """Mutate one character of a valid program: the pipeline either still
    accepts it or raises a JnsError — anything else is an internal bug."""
    mutated = BASE[:position] + replacement + BASE[position + 1 :]
    try:
        compile_program(mutated)
    except JnsError:
        pass
    except RecursionError:
        pytest.fail("recursion blow-up on mutated input")


@pytest.mark.fuzz
@settings(deadline=None)
@given(st.integers(0, len(BASE) - 40), st.integers(1, 40))
def test_deletion_mutations_fail_cleanly(start, length):
    mutated = BASE[:start] + BASE[start + length :]
    try:
        compile_program(mutated)
    except JnsError:
        pass


@pytest.mark.fuzz
@settings(deadline=None)
@given(st.text(alphabet="classharewvintxy{}();=.!&\\ \n", max_size=120))
def test_garbage_input_fails_cleanly(garbage):
    try:
        compile_program(garbage)
    except JnsError:
        pass


@pytest.mark.fuzz
@settings(deadline=None)
@given(
    st.integers(0, len(BASE) - 1),
    st.sampled_from(list("{}()[];.!\\&=<>+-*/\"'x1 ")),
)
def test_runtime_fuzz_under_fuel_budget(position, replacement):
    """Fuzz the *runtime*: compile-and-run mutated programs under a small
    fuel budget.  Only JnsError (including JnsResourceError) may escape;
    the guards must keep the Python recursion limit untouched."""
    limit_before = sys.getrecursionlimit()
    mutated = BASE[:position] + replacement + BASE[position + 1 :]
    try:
        program = compile_program(mutated)
        interp = program.interp(max_steps=3000, max_depth=64)
        ref = interp.new_instance(("Main",), ())
        interp.call_method(ref, "evalSample", [])
        interp.call_method(ref, "showSample", [])
    except JnsError:
        pass
    assert sys.getrecursionlimit() == limit_before


# Each entry is pinned to the set of error codes that one `check`
# invocation reports for it (empty = statically clean; several entries
# are only "crashy" at runtime and are exercised in
# test_divergent_snippets_hit_resource_guards below).
CRASHY_SNIPPETS = [
    # Direct self-extends: the inheritance graph drops self-edges, so
    # this degenerates to `class A { }` rather than a cycle error.
    ("class A extends A { }", set()),
    ("class A { class B extends B { } }", set()),
    ("class A extends B { } class B extends A { }", {"JNS-TYPE-002"}),
    ("class A { A f(A x) { return x.f(x).f(x); } }", set()),
    ("class A { int m() { return m(); } }", set()),  # diverges only if run
    ("class A { void m() { this.m; } }", {"JNS-TYPE-001"}),
    ("class A { int x = x; }", set()),
    ("class A { class B shares A.B { } }", set()),
    ("class A { void m() sharing A = A { } }", set()),
    ('class A { void m() { String s = "a" + + "b"; } }', set()),
    ("class A { int[] m() { return new int[-1]; } }", set()),  # runtime error
    ("class A { void m() { (view A)this; } }", set()),
    ("class A { void m() { y = 1; } }", {"JNS-RESOLVE-001"}),
    ("class A { void m() { Sys.frobnicate(1); } }", {"JNS-RESOLVE-003"}),
    ("class A { int m() { return 1 } }", {"JNS-PARSE-001"}),
]


@pytest.mark.parametrize("snippet,_codes", CRASHY_SNIPPETS)
def test_tricky_snippets_never_crash_internally(snippet, _codes):
    try:
        compile_program(snippet)
    except JnsError:
        pass


@pytest.mark.parametrize("snippet,codes", CRASHY_SNIPPETS)
def test_tricky_snippets_pin_diagnostic_codes(snippet, codes):
    sink = check_source(snippet)
    assert {d.code for d in sink.errors} == codes


def test_divergent_snippets_hit_resource_guards():
    """The runtime-divergent CRASHY_SNIPPETS entries degrade into
    JNS-RES-* / JNS-RUN-* diagnostics under a resource budget."""
    limit_before = sys.getrecursionlimit()

    program = compile_program("class A { int m() { return m(); } }")
    interp = program.interp(max_depth=100)
    ref = interp.new_instance(("A",), ())
    with pytest.raises(JnsResourceError) as exc_info:
        interp.call_method(ref, "m", [])
    assert exc_info.value.code == "JNS-RES-002"
    assert any("A.m" in frame for frame in exc_info.value.jns_stack)

    program = compile_program("class A { int m() { while (true) { } return 0; } }")
    interp = program.interp(max_steps=5000)
    ref = interp.new_instance(("A",), ())
    with pytest.raises(JnsResourceError) as exc_info:
        interp.call_method(ref, "m", [])
    assert exc_info.value.code == "JNS-RES-001"

    program = compile_program("class A { int[] m() { return new int[-1]; } }")
    interp = program.interp(max_steps=5000)
    ref = interp.new_instance(("A",), ())
    with pytest.raises(JnsError) as exc_info:
        interp.call_method(ref, "m", [])
    assert exc_info.value.code.startswith("JNS-RUN")

    assert sys.getrecursionlimit() == limit_before


def test_unbounded_recursion_fails_without_raising_process_limit():
    """Even with no explicit budget, runaway recursion is caught by the
    default depth guard and the process recursion limit is restored."""
    limit_before = sys.getrecursionlimit()
    program = compile_program("class A { int m() { return m(); } }")
    interp = program.interp()
    ref = interp.new_instance(("A",), ())
    with pytest.raises(JnsResourceError) as exc_info:
        interp.call_method(ref, "m", [])
    assert exc_info.value.code.startswith("JNS-RES")
    assert sys.getrecursionlimit() == limit_before


#: Programs whose recursion only the host stack stops at --max-depth
#: 100000: self, mutual, and constructor recursion.
RUNAWAY = {
    "self": """
class A { int m() { return m(); } }
class Main { int main() { return new A().m(); } }
""",
    "mutual": """
class A { int f() { return new B().g(); } }
class B { int g() { return new A().f(); } }
class Main { int main() { return new A().f(); } }
""",
    "constructor": """
class C { C next; C(int n) { next = new C(n + 1); } }
class Main { int main() { C c = new C(0); return 0; } }
""",
}


@pytest.mark.parametrize("backend", ["walker", "codegen"])
@pytest.mark.parametrize("shape", sorted(RUNAWAY))
def test_host_stack_exhaustion_is_a_diagnostic_not_a_crash(
    tmp_path, shape, backend
):
    """With a depth budget the host cannot honor, recursion ends in
    JNS-RES-004 (exit 1), never in a signal: no J&s call path may
    recurse on the C stack faster than the Python recursion limit."""
    import os
    import subprocess

    src = tmp_path / f"{shape}.jns"
    src.write_text(RUNAWAY[shape])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", str(src), "--backend", backend,
         "--max-depth", "100000"],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
    )
    assert proc.returncode == 1, (proc.returncode, proc.stderr[-500:])
    assert "JNS-RES-004" in proc.stderr


class TestResourceErrorRecovery:
    """After a fuel/depth trip the interpreter must be reusable: no
    stale step counters or crash stacks, recursion limit restored, and
    warm caches still serving correct answers (the chaos driver treats
    JNS-RES-001 as a recoverable fault and calls ``reset_budget``)."""

    LOOPY = (
        "class A { int spin(int n) { int i = 0; "
        "while (i < n) { i = i + 1; } return i; } "
        "int cheap() { return 7; } }"
    )

    def test_fuel_trip_then_reset_budget_reuses_interpreter(self):
        program = compile_program(self.LOOPY)
        interp = program.interp(max_steps=2000)
        ref = interp.new_instance(("A",), ())
        assert interp.call_method(ref, "cheap", []) == 7
        with pytest.raises(JnsResourceError) as exc_info:
            interp.call_method(ref, "spin", [10**6])
        assert exc_info.value.code == "JNS-RES-001"
        # the budget is cumulative: without a reset even a cheap call
        # keeps tripping, which is exactly why reset_budget exists
        with pytest.raises(JnsResourceError):
            interp.call_method(ref, "cheap", [])
        interp.reset_budget()
        assert interp._steps == 0
        assert interp.call_method(ref, "cheap", []) == 7
        assert interp.call_method(ref, "spin", [50]) == 50

    def test_depth_trip_recovers_without_reset(self):
        """JNS-RES-002 unwinds ``_depth`` on the guard's finally edge, so
        shallow calls work immediately afterwards."""
        limit_before = sys.getrecursionlimit()
        program = compile_program(
            "class A { int m() { return m(); } int cheap() { return 3; } }"
        )
        interp = program.interp(max_depth=80)
        ref = interp.new_instance(("A",), ())
        for _ in range(2):  # twice: the recovery must itself be repeatable
            with pytest.raises(JnsResourceError) as exc_info:
                interp.call_method(ref, "m", [])
            assert exc_info.value.code == "JNS-RES-002"
            assert interp._depth == 0
            assert sys.getrecursionlimit() == limit_before
            assert interp.call_method(ref, "cheap", []) == 3

    def test_reset_budget_preserves_warm_caches(self):
        """Recovery must not cold-start the heap or the memoized query
        caches: objects allocated before the trip stay intact."""
        from repro.programs.corona import CoronaSystem

        system = CoronaSystem(size=8, objects=16, backend="codegen", max_steps=10**7)
        before = system.run_phase("corona", fetches=30, seed=5)
        interp = system.interp
        interp._steps = interp._max_steps  # inject exhaustion (chaos-style)
        with pytest.raises(JnsResourceError) as exc_info:
            system.run_phase("corona", fetches=30, seed=5)
        assert exc_info.value.code == "JNS-RES-001"
        interp.reset_budget()
        assert system.run_phase("corona", fetches=30, seed=5) == before
        assert system.nodes_preserved()

    def test_reset_budget_refuses_reentrant_use(self):
        program = compile_program(self.LOOPY)
        interp = program.interp(max_steps=2000)
        interp._depth = 3  # simulate J&s frames still on the stack
        try:
            with pytest.raises(RuntimeError):
                interp.reset_budget()
        finally:
            interp._depth = 0


def test_deeply_nested_expressions():
    depth = 200
    src = "class A { int m() { return " + "(" * depth + "1" + ")" * depth + "; } }"
    program = compile_program(src)
    interp = program.interp()
    ref = interp.new_instance(("A",), ())
    assert interp.call_method(ref, "m", []) == 1


def test_many_classes():
    decls = "\n".join(f"class C{i} {{ int v = {i}; }}" for i in range(120))
    src = decls + "\nclass Main { int main() { return new C7().v + new C99().v; } }"
    program = compile_program(src)
    interp = program.interp()
    ref = interp.new_instance(("Main",), ())
    assert interp.call_method(ref, "main", []) == 106


def test_long_inheritance_chain():
    decls = ["class C0 { int m() { return 0; } }"]
    for i in range(1, 40):
        decls.append(f"class C{i} extends C{i-1} {{ }}")
    src = "\n".join(decls) + "\nclass Main { int main() { return new C39().m(); } }"
    program = compile_program(src)
    interp = program.interp()
    ref = interp.new_instance(("Main",), ())
    assert interp.call_method(ref, "main", []) == 0
