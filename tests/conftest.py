"""Shared fixtures and program sources for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro import compile_program

# Two fuzzing tiers (see ROADMAP "Testing tiers"): the default profile keeps
# tier-1 (`pytest -x -q`) fast; tier-2 raises the example budget via
# ``HYPOTHESIS_PROFILE=fuzz pytest -m fuzz``.  Tests that should scale with
# the tier are marked ``@pytest.mark.fuzz`` and do *not* pin max_examples.
# The default profile is deterministic: derandomized, with no example
# database, so one tree always runs the same tier-1 examples (and two line
# maps of it agree).  Random exploration is the fuzz profile's job.
settings.register_profile(
    "default", max_examples=50, deadline=None, derandomize=True, database=None
)
settings.register_profile("fuzz", max_examples=1500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: The AST / TreeDisplay / ASTDisplay example of Figures 1-3.
FIG123_SOURCE = """
class AST {
  class Exp { int eval() { return 0; } }
  class Value extends Exp {
    int v;
    Value(int v) { this.v = v; }
    int eval() { return v; }
  }
  class Binary extends Exp {
    Exp l; Exp r;
    Binary(Exp l, Exp r) { this.l = l; this.r = r; }
    int eval() { return l.eval() + r.eval(); }
  }
}
class TreeDisplay {
  class Node { String display() { return "node"; } }
  class Composite extends Node { }
  class Leaf extends Node { }
}
class ASTDisplay extends AST & TreeDisplay {
  class Exp extends Node shares AST.Exp { }
  class Value extends Exp & Leaf shares AST.Value {
    String display() { return "v" + v; }
  }
  class Binary extends Exp & Composite shares AST.Binary {
    String display() { return "(" + l.display() + "+" + r.display() + ")"; }
  }
  String show(AST!.Exp e) sharing AST!.Exp = Exp {
    Exp temp = (view Exp)e;
    return temp.display();
  }
}
class Main {
  AST!.Exp sample() {
    return new AST.Binary(new AST.Value(1), new AST.Value(2));
  }
  int evalSample() { return sample().eval(); }
  String showSample() {
    ASTDisplay d = new ASTDisplay();
    return d.show(sample());
  }
}
"""

#: Figure 5: shared classes with unshared fields.
FIG5_SOURCE = """
class A1 {
  class B { int b0; }
  class C {
    D g;
    C() { this.g = new D(); }
  }
  class D { int tag() { return 1; } }
}
class A2 extends A1 {
  class B shares A1.B {
    int f;   // a new field
  }
  class C shares A1.C\\g { }
  class E extends D { int tag() { return 2; } }
}
"""


@pytest.fixture(scope="session")
def fig123():
    return compile_program(FIG123_SOURCE)


@pytest.fixture(scope="session")
def fig5():
    return compile_program(FIG5_SOURCE)


def run_main(source: str, method: str = "main", cls: str = "Main", mode: str = "jns"):
    """Compile + run helper returning (result, interp)."""
    program = compile_program(source)
    interp = program.interp(mode=mode)
    ref = interp.new_instance((cls,), ())
    return interp.call_method(ref, method, []), interp
