"""Differential property tests over the whole pipeline.

Programs are *generated to be valid by construction*, each paired with a
Python oracle computing the expected result.  Every case exercises:
parser -> resolver -> class table -> type checker (must accept) ->
interpreter (must produce the oracle's value).  A checker that wrongly
rejects, or an interpreter that mis-executes sharing/dispatch/masks,
fails here.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_program


def _examples(pinned):
    """At least ``pinned`` examples, and the loaded profile's budget when
    that is larger: tier-1's ``default`` profile keeps each property's
    pinned count, tier-2's ``fuzz`` profile raises every one to its
    budget."""
    return max(pinned, settings.default.max_examples)


@st.composite
def family_programs(draw):
    """A two-family program with randomized sharing structure, plus the
    expected result of Main.main computed in Python."""
    x0 = draw(st.integers(0, 50))
    bonus = draw(st.integers(1, 9))
    y_val = draw(st.integers(1, 20))
    use_b = draw(st.booleans())          # subclass B in base family
    share_b = use_b and draw(st.booleans())
    override_get = draw(st.booleans())   # derived family overrides get()
    new_field = draw(st.booleans())      # derived A introduces y
    loops = draw(st.integers(1, 4))

    b_base = "class B extends A { int get() { return x + 100; } }" if use_b else ""
    b_derived = "class B shares F0.B { }" if share_b else ""
    derived_get = "int get() { return x + %d; }" % bonus if override_get else ""
    y_decl = "int y;" if new_field else ""
    gety = "int gety() { return y; }" if new_field else ""

    mask = "\\\\y" if new_field else ""
    mask_src = "\\y" if new_field else ""

    use_y = new_field and draw(st.booleans())
    # SH-CLS: a view change on A is only justified when *every* subclass
    # of F0!.A has a shared counterpart — so an unshared B forbids it
    # (exactly the paper's rule; the checker enforces it).
    view_ok = share_b or not use_b
    view_block = []
    expected_extra = 0
    if view_ok:
        view_block.append(f"F1!.A{mask_src} v = (view F1!.A{mask_src})a;")
        if use_y:
            view_block.append(f"v.y = {y_val};")
            view_block.append("s = s + v.gety();")
            expected_extra += y_val
        elif new_field:
            view_block.append(f"v.y = {y_val};")
        view_block.append("s = s + v.get();")
        expected_extra += (x0 + bonus) if override_get else x0

    src = f"""
class F0 {{
  class A {{
    int x = {x0};
    int get() {{ return x; }}
  }}
  {b_base}
}}
class F1 extends F0 {{
  class A shares F0.A {{
    {y_decl}
    {derived_get}
    {gety}
  }}
  {b_derived}
}}
class Main {{
  int main() {{
    int s = 0;
    for (int i = 0; i < {loops}; i++) {{
      F0!.A a = new F0.A();
      s = s + a.get();
      {' '.join(view_block)}
    }}
    return s;
  }}
}}
"""
    expected = loops * (x0 + expected_extra)
    return src, expected


@pytest.mark.fuzz
@settings(max_examples=_examples(80), deadline=None)
@given(family_programs())
def test_generated_family_programs(case):
    src, expected = case
    program = compile_program(src)
    assert program.report.ok, [str(e) for e in program.report.errors]
    interp = program.interp(mode="jns")
    ref = interp.new_instance(("Main",), ())
    assert interp.call_method(ref, "main", []) == expected


@st.composite
def arithmetic_programs(draw):
    """Straight-line arithmetic with a Python oracle, run in all modes."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from("+-*"),
                st.integers(-20, 20),
            ),
            min_size=1,
            max_size=8,
        )
    )
    start = draw(st.integers(-50, 50))
    body = [f"int acc = {start};"]
    acc = start
    for op, operand in ops:
        if operand < 0:
            body.append(f"acc = acc {op} (0 - {-operand});")
        else:
            body.append(f"acc = acc {op} {operand};")
        acc = eval(f"acc {op} operand")
    src = "class Main { int main() { %s return acc; } }" % " ".join(body)
    return src, acc


@pytest.mark.fuzz
@settings(max_examples=_examples(60), deadline=None)
@given(arithmetic_programs(), st.sampled_from(("java", "jx_cl", "jns")))
def test_arithmetic_all_modes(case, mode):
    src, expected = case
    program = compile_program(src)
    interp = program.interp(mode=mode)
    ref = interp.new_instance(("Main",), ())
    assert interp.call_method(ref, "main", []) == expected


@st.composite
def linked_list_programs(draw):
    """Build and sum a linked list of random values through a shared
    family, reading both through the base and the derived view."""
    values = draw(st.lists(st.integers(0, 99), min_size=1, max_size=6))
    pushes = " ".join(f"l = cons({v}, l);" for v in values)
    src = f"""
class F0 {{
  class Cell {{
    int head;
    Cell tail;
    int total() {{
      if (tail == null) {{ return head; }}
      return head + tail.total();
    }}
  }}
}}
class F1 extends F0 adapts F0 {{
  class Cell {{
    int doubled() {{
      if (tail == null) {{ return head * 2; }}
      return head * 2 + tail.doubled();
    }}
  }}
}}
class Main {{
  F0!.Cell cons(int v, F0!.Cell rest) {{
    F0!.Cell c = new F0.Cell();
    c.head = v;
    c.tail = rest;
    return c;
  }}
  int main() {{
    F0!.Cell l = null;
    {pushes}
    F1!.Cell d = (view F1!.Cell)l;
    return l.total() * 1000 + d.doubled();
  }}
}}
"""
    total = sum(values)
    return src, total * 1000 + total * 2


@pytest.mark.fuzz
@settings(max_examples=_examples(40), deadline=None)
@given(linked_list_programs())
def test_linked_lists_through_both_views(case):
    src, expected = case
    program = compile_program(src)
    assert program.report.ok
    interp = program.interp()
    ref = interp.new_instance(("Main",), ())
    assert interp.call_method(ref, "main", []) == expected


# ---------------------------------------------------------------------------
# mask discipline: the static analysis and the runtime guard must agree
# ---------------------------------------------------------------------------

MASK_TEMPLATE = """
class A1 {{ class C {{ }} }}
class A2 extends A1 {{
  class C shares A1.C {{ int f; int g; }}
}}
class Main {{
  int main() sharing A1!.C = A2!.C\\f\\g {{
    A1!.C c = new A1.C();
    A2!.C\\f\\g v = (view A2!.C\\f\\g)c;
    int s = 0;
    {ops}
    return s;
  }}
}}
"""


@st.composite
def mask_op_sequences(draw):
    """A random sequence of writes/reads on the two masked fields, plus
    whether the static analysis must reject it (read before write)."""
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["write", "read"]), st.sampled_from(["f", "g"])),
            min_size=1,
            max_size=6,
        )
    )
    lines = []
    written = set()
    bad = False
    value = 0
    fields = {"f": 0, "g": 0}
    counter = 0
    for op, fname in ops:
        if op == "write":
            counter += 1
            lines.append(f"v.{fname} = {counter};")
            fields[fname] = counter
            written.add(fname)
        else:
            lines.append(f"s = s + v.{fname};")
            if fname not in written:
                bad = True
            if not bad:
                value += fields[fname]
    src = MASK_TEMPLATE.format(ops="\n    ".join(lines))
    return src, bad, value


@pytest.mark.fuzz
@settings(max_examples=_examples(80), deadline=None)
@given(mask_op_sequences())
def test_mask_discipline_static_and_dynamic_agree(case):
    from repro import TypeError_, UninitializedFieldError

    src, bad, expected = case
    if bad:
        # the flow-sensitive analysis must reject the read-before-write...
        with pytest.raises(TypeError_):
            compile_program(src)
        # ...and even unchecked, the runtime guard catches it
        program = compile_program(src, check=False)
        interp = program.interp()
        ref = interp.new_instance(("Main",), ())
        with pytest.raises(UninitializedFieldError):
            interp.call_method(ref, "main", [])
    else:
        program = compile_program(src)
        assert program.report.ok
        interp = program.interp()
        ref = interp.new_instance(("Main",), ())
        assert interp.call_method(ref, "main", []) == expected
