"""Edit-chain run differential: a kept-warm codegen interpreter that
lives through a chain of body-only edits must run exactly like a fresh
walker interpreter built from scratch on the same text.

Every edit rewrites one body line in place (same line count, same
member positions), so the incremental checker grafts it and the codegen
compiler evicts only the bodies compiled from the retired declarations
(``CodegenCompiler.evict``).  After each edit both sides run
``Main.main`` and must agree on the result, the printed output, the
``JNS-*`` code and the J&s stack labels.  The program reaches every
kind of site a kept body can hold a retired body through:

* ``this``-call devirtualization (``this.helper(i)``, ``area()`` in
  ``twice``);
* sealed (``k.bump``, ``c.twice``, ``f.display``) and
  receiver-monomorphic (``q.area()`` on a ``Square``) devirtualized sites;
* polymorphic (``p.area()``) and monomorphic (``e.eval()``, ``l.show()``)
  inline-cache sites;
* constructor bodies, which reach callers through allocation plans;
* ``Shape.area`` edited while it runs on ``Tri`` receivers;
* a ``shares`` family whose ``l``/``r`` reads change views lazily;
* ill-typed edits, each followed by its repair.

Tier-2: ``HYPOTHESIS_PROFILE=fuzz pytest -m fuzz`` raises the example
budget of the generated chains.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, strategies as st

from repro import JnsError, check_source, clear_caches, compile_program
from repro.lang.incremental import IncrementalChecker
from repro.runtime.interp import Interp

TEMPLATE = """\
class Shape {
  int side;
  Shape(int s) { side = s + {CTOR}; }
  int area() { return side * side + {AREA}; }
  int twice() { return area() + area(); }
}
class Square extends Shape {
  Square(int s) { side = s; }
  int area() { return side * {SQ}; }
}
class Tri extends Shape {
  Tri(int s) { side = s; }
}
class Counter {
  int n;
  int bump(int k) { n = n + k{BUMP}; return n; }
}
class Fam0 {
  class Exp {
    int eval() { return {EXP0}; }
  }
  class Lit extends Exp {
    int v;
    Lit(int v) { this.v = v; }
    int eval() { return v{LIT0}; }
  }
  class Add extends Exp {
    Exp l;
    Exp r;
    Add(Exp l, Exp r) { this.l = l; this.r = r; }
    int eval() { return l.eval() + r.eval(){ADD0}; }
  }
}
class Fam1 extends Fam0 {
  class Exp shares Fam0.Exp {
    int show() { return {SHOW}; }
  }
  class Lit shares Fam0.Lit {
    int show() { return v * 10{LIT1}; }
  }
  class Add shares Fam0.Add {
    int show() { return l.show() + r.show(){ADD1}; }
  }
  int display(Fam0!.Exp e) sharing Fam0!.Exp = Exp {
    Exp t = (view Exp)e;
    return t.show();
  }
}
class Main {
  int deep(int n) { return {DEEP}; }
  int helper(int i) { return i{HELP}; }
  int main() {
    Shape a = new Shape(2);
    Shape b = new Square(3);
    Shape c = new Tri(4);
    Counter k = new Counter();
    int s = 0;
    int i = 0;
    while (i < 3) {
      Shape p = a;
      if (i == 1) { p = b; }
      if (i == 2) { p = c; }
      s = s + p.area() + k.bump(i) + this.helper(i);
      i = i + 1;
    }
    Square q = new Square(5);
    s = s + q.area() + c.twice();
    Fam0!.Exp e = new Fam0.Add(new Fam0.Lit(2), new Fam0.Lit(3));
    Fam1 f = new Fam1();
    s = s + e.eval() + f.display(e);
    Sys.print(s);
    return s + deep(0);
  }
}
"""

#: Well-typed variants of each editable body line; the first is the
#: initial text.  ``DEEP`` can recurse without end (JNS-RES-002 with a
#: full stack) and ``HELP`` can divide by zero (JNS-RUN-007).
GOOD = {
    "CTOR": ("0", "1", "s"),
    "AREA": ("0", "1", "5"),
    "SQ": ("side", "2", "(side + 1)"),
    "BUMP": ("", " + 1", " * 2"),
    "EXP0": ("0", "1"),
    "LIT0": ("", " + 1", " * 3"),
    "ADD0": ("", " + 7"),
    "SHOW": ("0", "7"),
    "LIT1": ("", " + 1"),
    "ADD1": ("", " + 100"),
    "DEEP": ("n", "n + 1", "deep(n + 1)"),
    "HELP": ("", " * 2", " / (i - i)", " + 40"),
}
#: Ill-typed variants: the chain repairs each with a well-typed one.
ILL = {
    "CTOR": ("true",),
    "SHOW": ('"seven"',),
    "HELP": (' + "x"',),
    "AREA": ("k",),
}
SLOTS = tuple(sorted(GOOD))
MAX_DEPTH = 40


def render(state) -> str:
    src = TEMPLATE
    for slot, value in state.items():
        src = src.replace("{" + slot + "}", value)
    return src


def initial_state():
    return {slot: values[0] for slot, values in GOOD.items()}


def _outcome(interp: Interp):
    """What one ``Main.main`` run shows: result or (code, stack), and the
    lines it printed."""
    before = len(interp.output)
    try:
        result = interp.run("Main.main")
    except JnsError as exc:
        result = (exc.code, tuple(getattr(exc, "jns_stack", None) or ()))
    return result, tuple(interp.output[before:])


@functools.lru_cache(maxsize=None)
def _reference(src: str):
    """The from-scratch side: the checker's error codes, and the outcome
    of a fresh walker run when there are none (texts recur across
    chains, so each is built once)."""
    codes = tuple(d.code for d in check_source(src).errors)
    if codes:
        return codes, None
    program = compile_program(src)
    interp = program.interp(mode="jns", backend="walker", max_depth=MAX_DEPTH)
    return codes, _outcome(interp)


class Chain:
    """One incremental checker and one warm codegen interpreter over it."""

    def __init__(self) -> None:
        self.state = initial_state()
        self.inc = IncrementalChecker(render(self.state))
        assert not self.inc.check().has_errors
        self.interp = Interp(
            self.inc.table, mode="jns", backend="codegen", max_depth=MAX_DEPTH
        )
        self.outcomes = [self.run()]

    def run(self):
        got = _outcome(self.interp)
        assert got == _reference(self.inc.source)[1]
        return got

    def edit(self, slot: str, value: str):
        """Rewrite one body line; run both sides if the text checks."""
        self.state[slot] = value
        src = render(self.state)
        cg = self.interp._cg
        same = src == self.inc.source
        stats = self.inc.apply_edit(src)
        assert stats["strategy"] == ("noop" if same else "incremental")
        # a graft keeps the compiler: only retired bodies are evicted
        assert self.interp._cg is cg
        codes = tuple(d.code for d in self.inc.check().errors)
        assert codes == _reference(src)[0]
        if codes:
            return None
        got = self.run()
        self.outcomes.append(got)
        return got


def chain_steps(rng: random.Random, n: int):
    """``n`` random edits; an ill-typed edit is always followed by the
    repair of the same line."""
    steps = []
    while len(steps) < n:
        slot = rng.choice(SLOTS)
        if slot in ILL and rng.random() < 0.2:
            steps.append((slot, rng.choice(ILL[slot])))
        steps.append((slot, rng.choice(GOOD[slot])))
    return steps


@pytest.fixture(autouse=True)
def _caches_restored():
    yield
    clear_caches()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_edit_chain_matches_fresh_walker(seed):
    chain = Chain()
    for slot, value in chain_steps(random.Random(seed), 16):
        chain.edit(slot, value)
    assert len(chain.outcomes) > 8


def test_chain_reaches_every_outcome_kind():
    """A fixed chain through both error kinds, an ill-typed edit and its
    repair, and the stale-site edits (a monomorphic inline cache, a
    constructor, a superclass body on subclass receivers)."""
    chain = Chain()
    assert chain.edit("LIT1", " + 1")[0] == chain.outcomes[0][0] + 2
    assert chain.edit("HELP", " / (i - i)")[0][0] == "JNS-RUN-007"
    assert chain.edit("HELP", ' + "x"') is None
    assert isinstance(chain.edit("HELP", " + 40")[0], int)
    code, stack = chain.edit("DEEP", "deep(n + 1)")[0]
    assert code == "JNS-RES-002" and stack[0] == "Main.main"
    assert set(stack[1:]) == {"Main.deep"} and len(stack) > MAX_DEPTH
    assert isinstance(chain.edit("DEEP", "n")[0], int)
    for slot, value in (("LIT0", " * 3"), ("ADD0", " + 7"), ("CTOR", "s"),
                        ("AREA", "5"), ("SQ", "2"), ("SHOW", "7")):
        assert isinstance(chain.edit(slot, value)[0], int)


def _keys_of(cg, cls_decl):
    ids = {id(m) for m in cls_decl.members}
    return {k for k in cg._fns if k[0] in ids}


@pytest.mark.parametrize("slot,cls", [
    ("BUMP", ("Counter",)),
    ("CTOR", ("Shape",)),
    ("LIT1", ("Fam1", "Lit")),
    ("HELP", ("Main",)),
])
def test_graft_reemits_exactly_the_retired_bodies(slot, cls):
    chain = Chain()
    cg = chain.interp._cg
    decl = chain.inc.table.explicit[cls].decl
    retired = _keys_of(cg, decl)
    assert retired and len(retired) < len(cg._fns)
    kept = {k: fn for k, fn in cg._fns.items() if k not in retired}
    emitted = cg.bodies_emitted
    chain.edit(slot, GOOD[slot][1])
    assert cg.bodies_emitted - emitted == len(retired)
    assert _keys_of(cg, decl) == retired  # the same bodies, emitted again
    assert all(cg._fns[k] is fn for k, fn in kept.items())


def test_interface_edit_drops_the_compiler():
    chain = Chain()
    src = chain.inc.source.replace("  int n;\n", "  int n = 3;\n")
    stats = chain.inc.apply_edit(src)
    assert stats["strategy"] == "incremental" and stats["dirty"] == ["Counter"]
    assert chain.interp._cg is None
    assert not chain.inc.check().has_errors
    chain.run()


IMPLICIT = """\
class F0 {
  class A {
    int x = %s;
    A() { x = x * %s; }
    int get() { return x + %s; }
  }
}
class F1 extends F0 {
  class B { }
}
class Main {
  int main() {
    F1!.A a = new F1.A();
    return a.get();
  }
}
"""


@pytest.mark.parametrize("backend", ["walker", "codegen"])
def test_edits_reach_a_derived_familys_implicit_copy(backend):
    """``F1.A`` is never declared: it inherits ``F0.A``'s members, so an
    edit of ``F0.A`` (an initializer, a constructor or a method body)
    must reach a warm interpreter running on ``F1.A`` receivers."""
    inc = IncrementalChecker(IMPLICIT % (1, 1, 0))
    interp = Interp(inc.table, mode="jns", backend=backend)
    assert interp.run("Main.main") == 1
    for args in ((2, 1, 0), (2, 3, 0), (2, 3, 10)):
        src = IMPLICIT % args
        assert inc.apply_edit(src)["strategy"] == "incremental"
        assert not inc.check().has_errors
        assert interp.run("Main.main") == args[0] * args[1] + args[2]


def test_registries_stay_flat_over_fifty_grafts():
    chain = Chain()
    cg = chain.interp._cg

    def sizes():
        return (len(cg._fns), len(cg._emitted), len(cg.sources),
                len(cg.by_filename), len(cg._devirt), len(cg._plans),
                sum(len(sites) for _, sites in cg._emitted.values()))

    first = sizes()
    for i in range(50):
        slot = ("HELP", "LIT1", "CTOR", "ADD0")[i % 4]
        values = [v for v in GOOD[slot] if v != " / (i - i)"]
        chain.edit(slot, values[i % len(values)])
        assert sizes() == first
    assert chain.interp._cg is cg


@pytest.mark.fuzz
@given(st.lists(
    st.tuples(st.sampled_from(SLOTS), st.integers(0, 3), st.booleans()),
    min_size=1, max_size=6,
))
def test_generated_edit_chains_match_fresh_walker(draws):
    clear_caches()
    chain = Chain()
    for slot, pick, ill in draws:
        if ill and slot in ILL:
            chain.edit(slot, ILL[slot][pick % len(ILL[slot])])
        chain.edit(slot, GOOD[slot][pick % len(GOOD[slot])])
