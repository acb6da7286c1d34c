"""Unit tests for the ahead-of-time specialization pass (ISSUE 4).

Covers the slot-layout rules over sharing groups (one slot per
``fclass``-distinct field copy; shared fields collapse, duplicated
unshared/masked fields keep per-family slots — Section 6.3),
sealed-family devirtualization over the locally closed world, the
masked/duplicated-field runtime semantics on the codegen backend (which
consumes the specialization products), the ``--backend walker`` escape
hatch, resource-guard parity, and the ``specialize.*`` observability
counters.
"""

import pytest

from repro import UninitializedFieldError, compile_program, obs
from repro.cli import main
from repro.errors import JnsResourceError
from repro.runtime.values import SlottedInstance

from conftest import FIG123_SOURCE, FIG5_SOURCE


def setup(src, cls="Main", mode="jns", **kw):
    program = compile_program(src)
    interp = program.interp(mode=mode, backend="codegen", **kw)
    return interp, interp.new_instance((cls,), ())


@pytest.fixture(autouse=True)
def _obs_restored():
    yield
    obs.disable()
    obs.TRACER.reset()


# ---------------------------------------------------------------------------
# slot layouts
# ---------------------------------------------------------------------------


class TestSlotLayouts:
    def _loader(self, source=FIG5_SOURCE, mode="jns"):
        program = compile_program(source)
        interp = program.interp(mode=mode, backend="codegen")
        return interp, interp.loader

    def test_shared_field_one_slot_new_field_own_slot(self):
        # FIG5 B: b0 is shared (one fclass) while f is new in A2 — the
        # group layout has exactly two slots.
        _, loader = self._loader()
        s1 = loader.specialized(("A1", "B"))
        s2 = loader.specialized(("A2", "B"))
        assert s1.layout.nslots == 2
        assert set(s1.slot_of) == {"b0"}
        assert set(s2.slot_of) == {"b0", "f"}
        # shared field: both views read/write the same slot
        assert s1.slot_of["b0"] == s2.slot_of["b0"]

    def test_layout_object_shared_across_group(self):
        _, loader = self._loader()
        assert (
            loader.specialized(("A1", "B")).layout
            is loader.specialized(("A2", "B")).layout
        )

    def test_duplicated_masked_field_gets_two_slots(self):
        # FIG5 C: A2.C shares A1.C\g — g's fclass differs per family, so
        # the duplicated field keeps one slot per copy.
        _, loader = self._loader()
        s1 = loader.specialized(("A1", "C"))
        s2 = loader.specialized(("A2", "C"))
        assert s1.layout is s2.layout
        assert s1.layout.nslots == 2
        assert s1.slot_of["g"] != s2.slot_of["g"]

    def test_non_sharing_layout_uses_plain_names(self):
        _, loader = self._loader(mode="java")
        s = loader.specialized(("A1", "B"))
        assert s.layout.keys == ("b0",)
        assert s.slot_of == {"b0": 0}

    def test_specialized_instances_are_slotted(self):
        interp, _ = setup(
            FIG5_SOURCE + "class Main { int run() { return 0; } }"
        )
        ref = interp.new_instance(("A1", "B"), ())
        assert type(ref.inst) is SlottedInstance
        assert len(ref.inst.slots) == 2

    def test_counters_after_specialization(self):
        interp, _ = self._loader()
        interp.loader.specialize_all()
        assert interp.loader.slots_built > 0


# ---------------------------------------------------------------------------
# sealed-family devirtualization
# ---------------------------------------------------------------------------


class TestSealedDevirtualization:
    def test_unique_method_is_sealed(self):
        program = compile_program(FIG123_SOURCE)
        target = program.table.sealed_method_target("show")
        assert target is not None
        owner, decl, valid = target
        assert owner == ("ASTDisplay",)
        assert ("ASTDisplay",) in valid

    def test_overridden_method_is_polymorphic(self):
        program = compile_program(FIG123_SOURCE)
        assert program.table.sealed_method_target("eval") is None
        assert program.table.sealed_method_target("display") is None

    def test_overriding_family_unseals(self):
        program = compile_program(FIG5_SOURCE)
        # tag is overridden in A2.E
        assert program.table.sealed_method_target("tag") is None

    def test_unknown_name_is_not_sealed(self):
        program = compile_program(FIG5_SOURCE)
        assert program.table.sealed_method_target("nope") is None

    def test_devirtualized_run_matches_walker(self):
        program = compile_program(FIG123_SOURCE)
        walker = program.interp(mode="jns")
        spec = program.interp(mode="jns", backend="codegen")
        for method in ("evalSample", "showSample"):
            w = walker.call_method(
                walker.new_instance(("Main",), ()), method, []
            )
            s = spec.call_method(spec.new_instance(("Main",), ()), method, [])
            assert w == s
        assert spec.loader.sites_devirtualized > 0

    def test_devirt_through_parameter_receiver(self):
        # `who` is sealed (defined once); the devirtualized site must
        # still dispatch correctly when the receiver arrives via a
        # parameter rather than `this`.
        src = """
        class P { class C { int who() { return 1; } } }
        class Main {
          int callIt(P!.C c) { return c.who(); }
          int main() { return callIt(new P.C()); }
        }
        """
        interp, mainref = setup(src)
        assert interp.call_method(mainref, "main", []) == 1


# ---------------------------------------------------------------------------
# masked / duplicated field semantics (Section 6.3 parity)
# ---------------------------------------------------------------------------


class TestMaskedFieldParity:
    def test_each_view_has_own_copy(self):
        interp, mainref = setup(
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
        assert interp.call_method(mainref, "run", []) == 12

    def test_uninitialized_duplicate_read_fails(self):
        interp, mainref = setup(
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
        interp.call_method(mainref, "toBase", [c2])
        with pytest.raises(UninitializedFieldError):
            interp.get_field(c2.inst.view_refs[("A1", "C")], "g")

    def test_masked_read_blocked_until_write(self):
        interp, mainref = setup(
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
        b2 = interp.call_method(mainref, "toDerived", [b1])
        with pytest.raises(UninitializedFieldError) as exc:
            interp.get_field(b2, "f")
        assert exc.value.code == "JNS-RUN-002"
        interp.set_field(b2, "f", 7)
        assert interp.get_field(b2, "f") == 7

    def test_mask_error_identical_to_walker(self):
        # The typechecker rejects statically-masked reads, so the runtime
        # check is exercised through the embedding API: both backends
        # must raise the same code and message.
        src = FIG5_SOURCE + """
        class Main {
          A2!.B\\f toDerived(A1!.B b) sharing A1!.B = A2!.B\\f {
            return (view A2!.B\\f)b;
          }
        }
        """
        program = compile_program(src)
        errors = {}
        for backend in ("walker", "codegen"):
            interp = program.interp(mode="jns", backend=backend)
            ref = interp.new_instance(("Main",), ())
            b1 = interp.new_instance(("A1", "B"), ())
            b2 = interp.call_method(ref, "toDerived", [b1])
            with pytest.raises(UninitializedFieldError) as exc:
                interp.get_field(b2, "f")
            errors[backend] = (exc.value.code, str(exc.value))
        assert errors["walker"] == errors["codegen"]

    @pytest.mark.parametrize("backend", ["walker", "codegen"])
    def test_view_change_to_masked_target_adds_the_mask(self, backend):
        """``(view A2!.B\\f)b`` from a view that already conforms to
        ``A2!.B`` adds the mask: a masked target's no-op set is empty, so
        the change is never elided."""
        src = FIG5_SOURCE + """
        class Main {
          A2!.B\\f mask(A2!.B b) { return (view A2!.B\\f)b; }
        }
        """
        interp = compile_program(src).interp(mode="jns", backend=backend)
        ref = interp.new_instance(("Main",), ())
        b2 = interp.new_instance(("A2", "B"), ())
        masked = interp.call_method(ref, "mask", [b2])
        assert masked.view.masks == frozenset({"f"})
        with pytest.raises(UninitializedFieldError):
            interp.get_field(masked, "f")


# ---------------------------------------------------------------------------
# escape hatch
# ---------------------------------------------------------------------------


SMALL = """
class Counter {
  int n;
  void bump() { n = n + 1; }
}
class Main {
  int main() {
    Counter c = new Counter();
    for (int i = 0; i < 10; i = i + 1) { c.bump(); }
    Sys.print(c.n);
    return c.n;
  }
}
"""


class TestEscapeHatch:
    def test_specialized_implies_compiled(self):
        # codegen is the one specialized tier, and it compiles
        program = compile_program(SMALL)
        interp = program.interp(mode="jns", backend="codegen")
        assert interp.backend == "codegen"
        assert interp.codegen

    def test_jx_mode_ignores_specialization(self):
        # jx's point is the absence of run-time precomputation
        program = compile_program(SMALL)
        interp = program.interp(mode="jx", backend="codegen")
        assert interp.backend == "walker"
        assert not interp.codegen

    def test_default_interp_is_unspecialized(self):
        program = compile_program(SMALL)
        interp = program.interp(mode="jns")
        assert interp.backend == "walker"
        assert not interp.codegen
        ref = interp.new_instance(("Counter",), ())
        assert type(ref.inst) is not SlottedInstance

    def test_cli_no_specialize_same_output(self, tmp_path, capsys):
        # `--backend walker` is the unspecialized escape hatch
        f = tmp_path / "small.jns"
        f.write_text(SMALL)
        assert main(["run", str(f)]) == 0
        specialized_out = capsys.readouterr().out
        assert main(["run", str(f), "--backend", "walker"]) == 0
        plain_out = capsys.readouterr().out
        assert specialized_out == plain_out
        assert "10" in plain_out


# ---------------------------------------------------------------------------
# resource guards
# ---------------------------------------------------------------------------


RECURSIVE = """
class Main {
  int spin(int n) { return spin(n + 1); }
  int main() { return spin(0); }
}
"""

LOOPY = """
class Main {
  int main() {
    int s = 0;
    while (true) { s = s + 1; }
    return s;
  }
}
"""


class TestResourceGuardParity:
    def _error(self, src, **kw):
        program = compile_program(src)
        interp = program.interp(mode="jns", **kw)
        with pytest.raises(JnsResourceError) as exc:
            interp.run("Main.main")
        return exc.value

    def test_depth_limit_identical(self):
        cg = self._error(RECURSIVE, backend="codegen", max_depth=64)
        walker = self._error(RECURSIVE, backend="walker", max_depth=64)
        assert cg.code == walker.code == "JNS-RES-002"
        # identical call-stack labels, including the devirtualized frames
        assert cg.jns_stack[-3:] == walker.jns_stack[-3:] == ["Main.spin"] * 3

    def test_fuel_limit_identical(self):
        cg = self._error(LOOPY, backend="codegen", max_steps=500)
        walker = self._error(LOOPY, backend="walker", max_steps=500)
        assert cg.code == walker.code == "JNS-RES-001"
        assert cg.jns_stack[-3:] == walker.jns_stack[-3:]


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


class TestSpecializeObservability:
    def test_tracer_counters_and_span(self):
        program = compile_program(FIG123_SOURCE)
        obs.enable()
        interp = program.interp(mode="jns", backend="codegen")
        interp.run("Main.showSample")
        obs.disable()
        counters = obs.TRACER.counters
        assert counters.get("specialize.slots_built", 0) > 0
        assert counters.get("specialize.sites_devirtualized", 0) > 0
        assert any(path[-1] == "specialize" for path, _, _ in obs.TRACER.span_tree())

    def test_stats_exposed_on_specializer(self):
        # the pass's three counters live on the loader
        program = compile_program(FIG123_SOURCE)
        interp = program.interp(mode="jns", backend="codegen")
        interp.run("Main.showSample")
        loader = interp.loader
        stats = {
            name: getattr(loader, name)
            for name in ("slots_built", "sites_devirtualized", "views_elided")
        }
        assert all(isinstance(n, int) for n in stats.values())
        assert stats["slots_built"] > 0
        assert stats["sites_devirtualized"] > 0

    def test_cache_stats_include_layout_table(self):
        program = compile_program(FIG123_SOURCE)
        interp = program.interp(mode="jns", backend="codegen")
        interp.run("Main.showSample")
        text = interp.cache_stats().format()
        assert "loader.layout" in text
