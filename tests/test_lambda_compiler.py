"""Lambda compiler tests (Section 7.3, Figures 6, 7, 20)."""

import pytest

from repro.programs.lambdac import SOURCE, LambdaCompiler, program


@pytest.fixture(scope="module")
def lc():
    return LambdaCompiler()


class TestStructure:
    """The family structure of Figure 20."""

    def test_family_inheritance_edges(self):
        table = program().table
        assert table.inherits(("sum",), ("base",))
        assert table.inherits(("pair",), ("base",))
        assert table.inherits(("sumpair",), ("sum",))
        assert table.inherits(("sumpair",), ("pair",))

    def test_sharing_edges(self):
        table = program().table
        for fam in ("lam", "sum", "pair", "sumpair"):
            for cls in ("Exp", "Var", "Abs", "App"):
                assert table.shared_with((fam, cls), ("base", cls)), (fam, cls)

    def test_transitive_sharing_between_derived_families(self):
        table = program().table
        assert table.shared_with(("sum", "Abs"), ("pair", "Abs"))
        assert table.shared_with(("sumpair", "Var"), ("sum", "Var"))

    def test_new_node_classes_not_shared(self):
        table = program().table
        assert table.sharing_group(("pair", "Pair")) == (("pair", "Pair"),)
        assert ("sum", "Case") not in table.sharing_group(("base", "Exp"))

    def test_sumpair_has_no_translation_code(self):
        """'The code of sumpair just sets up the sharing relationships,
        without a single line of translation code.'"""
        info = program().table.explicit[("sumpair",)]
        assert info.decl.members == []

    def test_sumpair_inherits_all_node_kinds(self):
        table = program().table
        names = set(table.member_names(("sumpair",)))
        assert {"Var", "Abs", "App", "Pair", "Fst", "Snd", "Inl", "Inr", "Case"} <= names


class TestPairTranslation:
    def test_pair_and_fst(self, lc):
        term = lc.fst("pair", lc.pair("pair", lc.var("pair", "a"), lc.var("pair", "b")))
        out = lc.normalize(lc.translate("pair", term))
        assert lc.show(out) == "a"

    def test_snd(self, lc):
        term = lc.snd("pair", lc.pair("pair", lc.var("pair", "a"), lc.var("pair", "b")))
        assert lc.show(lc.normalize(lc.translate("pair", term))) == "b"

    def test_nested_pairs(self, lc):
        inner = lc.pair("pair", lc.var("pair", "a"), lc.var("pair", "b"))
        term = lc.fst("pair", lc.fst("pair", lc.pair("pair", inner, lc.var("pair", "c"))))
        assert lc.show(lc.normalize(lc.translate("pair", term))) == "a"

    def test_translation_eliminates_pair_nodes(self, lc):
        term = lc.pair("pair", lc.var("pair", "a"), lc.var("pair", "b"))
        out = lc.translate("pair", term)
        # result lives entirely in the base family
        assert out.view.path[0] == "base"


class TestSumTranslation:
    def test_case_inl(self, lc):
        term = lc.case(
            "sum",
            lc.inl("sum", lc.var("sum", "v")),
            "x", lc.var("sum", "x"),
            "y", lc.var("sum", "other"),
        )
        assert lc.show(lc.normalize(lc.translate("sum", term))) == "v"

    def test_case_inr(self, lc):
        term = lc.case(
            "sum",
            lc.inr("sum", lc.var("sum", "v")),
            "x", lc.var("sum", "no"),
            "y", lc.var("sum", "y"),
        )
        assert lc.show(lc.normalize(lc.translate("sum", term))) == "v"


class TestComposedCompiler:
    """sums AND pairs at once, through sumpair (zero new code)."""

    def test_mixed_term(self, lc):
        F = "sumpair"
        term = lc.case(
            F,
            lc.inl(F, lc.var(F, "a")),
            "l", lc.fst(F, lc.pair(F, lc.var(F, "b"), lc.var(F, "c"))),
            "r", lc.var(F, "d"),
        )
        out = lc.normalize(lc.translate(F, term))
        assert lc.show(out) == "b"

    def test_pair_of_sums(self, lc):
        F = "sumpair"
        term = lc.snd(
            F,
            lc.pair(
                F,
                lc.var(F, "x"),
                lc.case(
                    F,
                    lc.inr(F, lc.var(F, "w")),
                    "p", lc.var(F, "no"),
                    "q", lc.var(F, "q"),
                ),
            ),
        )
        assert lc.show(lc.normalize(lc.translate(F, term))) == "w"


class TestInPlaceTranslation:
    """Figure 7: unchanged nodes are reused via masked view changes."""

    def test_pure_lambda_term_reused_in_place(self, lc):
        F = "sumpair"
        term = lc.abs(F, "z", lc.app(F, lc.var(F, "z"), lc.var(F, "z")))
        out = lc.translate(F, term)
        assert out.inst is term.inst  # same object, new view
        assert out.view.path == ("base", "Abs")
        assert term.view.path == ("sumpair", "Abs")

    def test_var_leaf_reused(self, lc):
        F = "pair"
        v = lc.var(F, "q")
        out = lc.translate(F, v)
        assert out.inst is v.inst

    def test_node_with_translated_child_still_reused(self, lc):
        # reconstructAbs reuses `old` when the child translated in place
        F = "pair"
        term = lc.abs(F, "x", lc.var(F, "x"))
        out = lc.translate(F, term)
        assert out.inst is term.inst

    def test_node_above_pair_is_rebuilt(self, lc):
        # a Pair child must be translated away, so the Abs is reconstructed
        F = "pair"
        term = lc.abs(F, "x", lc.pair(F, lc.var(F, "x"), lc.var(F, "x")))
        out = lc.translate(F, term)
        assert out.inst is not term.inst

    def test_mask_removed_after_assignment(self, lc):
        # after reconstructAbs the duplicate field e of the base view is
        # initialized, so it is readable through the base family
        F = "pair"
        term = lc.abs(F, "x", lc.var(F, "x"))
        out = lc.translate(F, term)
        body = lc.interp.get_field(out, "e")
        assert body.view.path == ("base", "Var")

    def test_pure_term_translated_fully_in_place(self, lc):
        """A sharing-only term of depth 5 translates with zero new AST
        objects (the in-place translation claim of Section 3.2)."""
        term = _tree(lc, 5, lambda l, r: lc.app("sumpair", l, r))
        before, after = set(), set()
        _collect(lc, term, before)
        _collect(lc, lc.translate("sumpair", term), after)
        assert after <= before

    def test_pair_dense_term_normalizes(self, lc):
        """Depth-4 ``fst(pair(l, r))`` chains translate out of ``sumpair``
        and reduce to the leftmost leaf."""
        F = "sumpair"
        term = _tree(lc, 4, lambda l, r: lc.fst(F, lc.pair(F, l, r)))
        out = lc.normalize(lc.translate(F, term), fuel=2000)
        assert lc.show(out) == "v0"


def _tree(lc, depth, node, i=0):
    """A complete binary tree of ``sumpair`` vars ``v0, v1, ...`` joined
    by ``node(left, right)``."""
    if depth == 0:
        return lc.var("sumpair", f"v{i}")
    return node(_tree(lc, depth - 1, node, 2 * i), _tree(lc, depth - 1, node, 2 * i + 1))


def _collect(lc, ref, seen):
    """Add the identity of every AST instance reachable from ``ref``."""
    if id(ref.inst) in seen:
        return
    seen.add(id(ref.inst))
    for child_field in ("e", "f", "a"):
        try:
            child = lc.interp.get_field(ref, child_field)
        except Exception:
            continue
        if child is not None and hasattr(child, "inst"):
            _collect(lc, child, seen)


class TestNormalizer:
    def test_identity_application(self, lc):
        F = "base"
        ident = lc.abs(F, "x", lc.var(F, "x"))
        term = lc.app(F, ident, lc.var(F, "y"))
        assert lc.show(lc.normalize(term)) == "y"

    def test_shadowing_respected(self, lc):
        F = "base"
        # (\x.\x.x) a  ->  \x.x
        inner = lc.abs(F, "x", lc.var(F, "x"))
        term = lc.app(F, lc.abs(F, "x", inner), lc.var(F, "a"))
        assert lc.show(lc.normalize(term)) == "(\\x.x)"

    def test_fuel_limits_divergence(self, lc):
        F = "base"
        # omega = (\x.x x)(\x.x x) must not hang
        dup = lc.abs(F, "x", lc.app(F, lc.var(F, "x"), lc.var(F, "x")))
        omega = lc.app(F, dup, dup)
        result = lc.normalize(omega, fuel=20)
        assert result is not None
