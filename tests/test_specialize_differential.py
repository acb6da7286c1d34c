"""Walker-vs-codegen differential for the AOT specialization pass and
the codegen backend that consumes it: for randomized programs, the
tree-walking interpreter and the codegen backend (slotted layouts,
devirtualization, emitted + ``compile()``d Python per specialized method
body) must agree on every observable — run result, printed output, and
runtime error codes — in every mode. Diagnostics come from the static
pipeline, which neither backend touches, and are asserted stable as a
guard against accidental coupling.

Tier-2: ``HYPOTHESIS_PROFILE=fuzz pytest -m fuzz`` raises the example
budget; the default profile keeps this cheap enough for tier-1.
"""

import pytest
from hypothesis import given, strategies as st

from repro import JnsError, check_source, clear_caches, compile_program

from conftest import FIG123_SOURCE, FIG5_SOURCE


@pytest.fixture(autouse=True)
def _caches_restored():
    yield
    clear_caches()


@st.composite
def probe_programs(draw):
    """Two-family programs with randomized sharing structure, masked and
    duplicated fields, sealed and overridden methods — the shapes the
    specializer treats differently (shared slot vs per-copy slot, devirt
    vs inline cache, view-change elision vs adaptation)."""
    x0 = draw(st.integers(0, 40))
    bonus = draw(st.integers(1, 9))
    loops = draw(st.integers(1, 4))
    use_b = draw(st.booleans())        # subclass B in the base family
    share_b = use_b and draw(st.booleans())
    override_get = draw(st.booleans())  # unseals get() when drawn
    new_field = draw(st.booleans())    # derived A introduces y (needs mask)
    do_view = draw(st.booleans())      # Main performs a view change
    write_y = new_field and draw(st.booleans())  # unmask then read back
    call_tag = draw(st.booleans())     # tag() stays sealed: devirt target
    dig = draw(st.integers(0, 6))      # Main.deep's recursion depth
    # an int / or % (signs and a zero divisor drawn; the divisor a local
    # or a folded literal) and an array .length (possibly of null)
    dividend = draw(st.integers(-9, 9))
    divisor = draw(st.integers(-4, 4))
    arith_op = draw(st.sampled_from(["/", "%", "/=", "%="]))
    literal_divisor = draw(st.booleans())
    arr_len = draw(st.integers(-1, 3))  # -1: a null array

    b_base = "class B extends A { int get() { return x + 100; } }" if use_b else ""
    b_derived = "class B shares F0.B { }" if share_b else ""
    derived_get = f"int get() {{ return x + {bonus}; }}" if override_get else ""
    y_decl = "int y;" if new_field else ""
    mask = "\\y" if new_field else ""

    def view_block(y):
        if not do_view:
            return ""
        y_use = f"v.y = {y}; s = s + v.y;" if write_y else ""
        return f"F1!.A{mask} v = (view F1!.A{mask})a; s = s + v.get(); {y_use}"
    tag_block = "s = s + a.tag();" if call_tag else ""
    den = f"({divisor})" if literal_divisor else "ds"
    if arith_op in ("/", "%"):
        arith = f"s = s + (dv {arith_op} {den});"
    else:
        arith = f"dv {arith_op} {den}; s = s + dv;"
    arr = "null" if arr_len < 0 else f"new int[{arr_len}]"

    src = f"""
class F0 {{
  class A {{
    int x = {x0};
    int get() {{ return x; }}
    int tag() {{ return 7; }}
  }}
  {b_base}
}}
class F1 extends F0 {{
  class A shares F0.A {{
    {y_decl}
    {derived_get}
  }}
  {b_derived}
}}
class Main {{
  int deep() {{ return dig({dig}); }}
  int dig(int n) {{
    if (n == 0) {{ int s = 0; while (true) {{ s = s + 1; }} return s; }}
    F0!.A a = new F0.A();
    int s = a.get();
    {tag_block}
    {view_block("n")}
    return dig(n - 1) + s;
  }}
  int main() {{
    int s = 0;
    for (int i = 0; i < {loops}; i++) {{
      F0!.A a = new F0.A();
      s = s + a.get();
      {tag_block}
      {view_block("i")}
    }}
    Sys.print(s);
    int dv = {dividend};
    int ds = {divisor};
    {arith}
    int[] arr = {arr};
    return s + arr.length;
  }}
}}
"""
    return src


#: (max_steps, max_depth) for ``Main.deep``, whose recursion ends in a
#: loop: a depth trip anywhere on the way down, else a fuel trip at the
#: bottom (fuel reaches the bottom on the walker, which charges per
#: node, so also on codegen, which charges per call and loop iteration)
budgets = st.tuples(st.integers(3000, 6000), st.integers(1, 12))


def _observe(src, backend, budget):
    """Diagnostics, compile verdict, and run result + output per mode for
    one backend configuration, and the resource diagnostic (code and full
    J&s stack) of ``Main.deep`` under ``budget``."""
    sink = check_source(src)
    outcomes = {
        "diagnostics": tuple((d.code, d.severity, d.message) for d in sink)
    }
    try:
        program = compile_program(src)
        outcomes["check"] = "ok"
    except JnsError as exc:
        outcomes["check"] = (exc.code, str(exc))
        return outcomes
    for mode in ("jns", "jx_cl", "java"):
        interp = program.interp(mode=mode, backend=backend)
        try:
            result = interp.run("Main.main")
            outcomes[mode] = (result, tuple(interp.output))
        except JnsError as exc:
            outcomes[mode] = ("error", exc.code)
        max_steps, max_depth = budget
        interp = program.interp(
            mode=mode, backend=backend, max_steps=max_steps, max_depth=max_depth
        )
        try:
            outcomes[mode, "deep"] = interp.run("Main.deep")
        except JnsError as exc:
            outcomes[mode, "deep"] = (exc.code, getattr(exc, "jns_stack", None))
    return outcomes


@pytest.mark.fuzz
@given(probe_programs(), budgets)
def test_specialization_does_not_change_observables(src, budget):
    clear_caches()
    assert _observe(src, "walker", budget) == _observe(src, "codegen", budget)


@pytest.mark.fuzz
@given(probe_programs())
def test_unspecialized_escape_hatch_restores_baseline(src):
    """Running codegen first must not poison the program for a later
    walker run (mirrors `repro run --backend walker`)."""
    clear_caches()
    try:
        program = compile_program(src)
    except JnsError:
        return
    def run(backend):
        interp = program.interp(mode="jns", backend=backend)
        try:
            return interp.run("Main.main"), tuple(interp.output)
        except JnsError as exc:
            return ("error", exc.code)
    baseline = run("walker")
    codegen = run("codegen")
    after = run("walker")
    assert codegen == baseline
    assert after == baseline


def test_fixture_corpus_two_way_agreement():
    """Deterministic tier-1 anchor: the paper's figure programs agree
    across both backends without relying on hypothesis."""
    for src, entry in (
        (FIG123_SOURCE, "Main.evalSample"),
        (FIG123_SOURCE, "Main.showSample"),
        (FIG5_SOURCE + "class Main { int main() { return new A1.D().tag() + new A2.E().tag(); } }",
         "Main.main"),
    ):
        program = compile_program(src)
        results = []
        for backend in ("walker", "codegen"):
            interp = program.interp(mode="jns", backend=backend)
            results.append((interp.run(entry), tuple(interp.output)))
        assert results[0] == results[1]
