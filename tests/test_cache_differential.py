"""Differential cache-correctness: every observable of the pipeline —
checker verdict, the full diagnostic list, and interpreter results/output
across execution modes — must be identical with the query caches enabled
and with them globally disabled (ISSUE 2 satellite).

Tier-2: ``HYPOTHESIS_PROFILE=fuzz pytest -m fuzz`` raises the example
budget; the default profile keeps this cheap enough for tier-1.
"""

import pytest
from hypothesis import given, strategies as st

from repro import (
    JnsError,
    check_source,
    clear_caches,
    compile_program,
    set_caches_enabled,
)


@pytest.fixture(autouse=True)
def _caches_restored():
    yield
    set_caches_enabled(True)
    clear_caches()


@st.composite
def probe_programs(draw):
    """Two-family programs with randomized sharing structure, including a
    slice of *invalid* ones (unshared subclass + view change; bad mask)
    so the diagnostic output is differentially covered too.  A drawn
    link field ``A next`` (optionally ``A\\x next``) read through the
    other family covers lazy implicit view changes."""
    x0 = draw(st.integers(0, 40))
    bonus = draw(st.integers(1, 9))
    loops = draw(st.integers(1, 3))
    use_b = draw(st.booleans())        # subclass B in the base family
    share_b = use_b and draw(st.booleans())
    override_get = draw(st.booleans())
    new_field = draw(st.booleans())    # derived A introduces y (needs mask)
    do_view = draw(st.booleans())      # Main performs a view change
    forget_mask = new_field and draw(st.booleans())  # inject a type error
    link = draw(st.booleans())         # A has a view-dependent link `next`
    mask_link = link and draw(st.booleans())  # the link's type masks x

    b_base = "class B extends A { int get() { return x + 100; } }" if use_b else ""
    b_derived = "class B shares F0.B { }" if share_b else ""
    derived_get = f"int get() {{ return x + {bonus}; }}" if override_get else ""
    y_decl = "int y;" if new_field else ""
    mask = "" if (not new_field or forget_mask) else "\\y"

    link_decl = ""
    link_set = ""
    link_read = ""
    if link:
        link_decl = "A\\x next;" if mask_link else "A next;"
        link_set = "a.next = new F0.A();"
        if mask_link:
            # read through the other family: a lazy view change to the
            # masked target, then the write that lifts the mask
            link_read = (
                "Sys.print(Sys.viewName(v.next)); "
                "F1!.A\\x w = v.next; w.x = i + 5; s = s + w.get();"
            )
        else:
            link_set += " s = s + a.next.get();"
            link_read = (
                "Sys.print(Sys.viewName(v.next)); "
                "s = s + v.next.get() + v.next.get();"
            )

    view_block = ""
    if do_view:
        view_block = (
            f"F1!.A{mask} v = (view F1!.A{mask})a; s = s + v.get(); {link_read}"
        )

    src = f"""
class F0 {{
  class A {{
    int x = {x0};
    {link_decl}
    int get() {{ return x; }}
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
  int main() {{
    int s = 0;
    for (int i = 0; i < {loops}; i++) {{
      F0!.A a = new F0.A();
      {link_set}
      s = s + a.get();
      {view_block}
    }}
    return s;
  }}
}}
"""
    return src


def _observe(src):
    """Everything a user can see from one source: diagnostics from the
    accumulate-everything checker, the strict compile verdict, and the
    run result + printed output in the walker and codegen backends of
    each relevant mode."""
    sink = check_source(src)
    diagnostics = tuple(
        (d.code, d.severity, d.message) for d in sink
    )
    outcomes = {"diagnostics": diagnostics}
    try:
        program = compile_program(src)
        outcomes["check"] = "ok"
    except JnsError as exc:
        outcomes["check"] = (exc.code, str(exc))
        return outcomes
    for mode in ("jns", "jx_cl", "java"):
        for backend in ("walker", "codegen"):
            interp = program.interp(mode=mode, backend=backend)
            try:
                result = interp.run("Main.main")
                outcomes[(mode, backend)] = (result, tuple(interp.output))
            except JnsError as exc:
                outcomes[(mode, backend)] = ("error", exc.code)
    return outcomes


@pytest.mark.fuzz
@given(probe_programs())
def test_caches_do_not_change_observables(src):
    clear_caches()
    set_caches_enabled(False)
    cold = _observe(src)
    set_caches_enabled(True)
    clear_caches()
    warm_first = _observe(src)   # populates every cache
    warm_second = _observe(src)  # served largely from caches
    assert cold == warm_first
    assert cold == warm_second


@pytest.mark.fuzz
@given(probe_programs())
def test_invalidate_matches_fresh_table(src):
    """A table that is invalidated mid-life answers like a fresh one."""
    set_caches_enabled(True)
    try:
        program = compile_program(src)
    except JnsError:
        return
    interp = program.interp()
    before = interp.run("Main.main")
    program.table.invalidate()
    fresh = compile_program(src)
    assert fresh.table.ancestors(("Main",)) == program.table.ancestors(("Main",))
    interp2 = program.interp()
    assert interp2.run("Main.main") == before


#: ``a.m()`` is polymorphic for ``a``'s static type, so its emitted call
#: site keeps a monomorphic inline cache; ``b``'s static type ``B`` seals
#: ``m``, so ``b.m()`` is a devirtualized site
POLY_CALL = """
class A { int m() { return 1; } }
class B extends A { int m() { return 2; } }
class Main {
  int main() {
    A a = new B();
    B b = new B();
    int s = 0;
    for (int i = 0; i < 50; i++) { s = s + a.m() + b.m() * 10; }
    return s;
  }
}
"""


@pytest.mark.parametrize("enabled", [True, False])
def test_caches_off_codegen_never_fills_a_call_site(enabled):
    """With caches on, the first call fills the inline-cache site and the
    other 49 hit it, and the devirtualized site is filled once; with
    caches off neither site keeps a receiver, so every call dispatches
    again."""
    set_caches_enabled(enabled)
    interp = compile_program(POLY_CALL).interp(backend="codegen")
    assert interp.run("Main.main") == 1100
    cg = interp._cg
    assert cg.ic_misses == (1 if enabled else 50)
    assert interp.loader.sites_devirtualized == 1
    sites = [site for _, body_sites in cg._emitted.values() for site in body_sites]
    assert len(sites) == 2
    assert all((site[0] is None) is not enabled for site in sites)
