"""Provenance-recorder tests: recording, cache-hit splicing, refutation
pruning, the disabled-path guarantee, and the tracer integration."""

from pathlib import Path

import pytest

from repro import obs
from repro.api import check_source, compile_program
from repro.lang import provenance
from repro.lang import types as T
from repro.lang.classtable import ClassTable
from repro.lang.provenance import PROVENANCE, Derivation
from repro.lang.resolve import resolve_program
from repro.lang.sharing import SharingChecker
from repro.lang.subtype import Env, _class_subtype, subtype
from repro.lang.typecheck import check_program
from repro.lang.types import ClassType
from repro.programs.corona.source import SOURCE as CORONA_SOURCE
from repro.programs.jolden import ALL as JOLDEN
from repro.sink import DiagnosticSink
from repro.source.parser import parse_program

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

PAIR_SOURCE = """
abstract class base {
  abstract class Exp { }
  class Var extends Exp { String x; Var(String x) { this.x = x; } }
  class Abs extends Exp {
    String x; Exp e;
    Abs(String x, Exp e) { this.x = x; this.e = e; }
  }
}
abstract class pair extends base {
  abstract class Exp shares base.Exp { }
  class Var extends Exp shares base.Var { }
  class Abs extends Exp shares base.Abs\\e { }
  class Pair extends Exp {
    Exp fst; Exp snd;
    Pair(Exp fst, Exp snd) { this.fst = fst; this.snd = snd; }
  }
}
"""

#: Same families, but pair.Abs forgets the ``\\e`` mask — SH-CLS fails on
#: the field type (pair.Pair has no base counterpart).
BAD_SOURCE = PAIR_SOURCE.replace("shares base.Abs\\e", "shares base.Abs")


def C(*parts, exact=()):
    return ClassType(tuple(parts), frozenset(exact))


@pytest.fixture(autouse=True)
def _provenance_restored():
    yield
    provenance.disable()
    PROVENANCE.clear()
    obs.disable()
    obs.TRACER.reset()


@pytest.fixture
def table():
    return compile_program(PAIR_SOURCE).table


def _env(table):
    env = Env(table, ())
    env.vars["this"] = ClassType(())
    return env


class TestDisabledPath:
    def test_no_derivations_recorded_when_off(self, table):
        """The acceptance guard: with recording off (the default), running
        every instrumented judgment records nothing at all."""
        assert not PROVENANCE.enabled
        env = _env(table)
        checker = SharingChecker(table)
        assert subtype(env, C("pair", "Var", exact=(1,)), C("base", "Exp"))
        # Runs the full ~> pipeline (the result — fails without the \e
        # mask — is not the point here; the recording side effects are).
        checker.sharing_judgment(
            env, C("pair", "Abs", exact=(1,)), C("base", "Abs", exact=(1,))
        )
        checker.required_masks(("pair", "Abs"), ("base", "Abs"))
        table.fclass(("pair", "Abs"), "e")
        table.sharing_group(("pair", "Exp"))
        assert PROVENANCE.roots == []
        assert PROVENANCE.recorded == {}
        assert PROVENANCE.spliced == {}

    def test_capture_is_noop_when_off(self, table):
        with PROVENANCE.capture() as cap:
            subtype(_env(table), C("pair", "Var", exact=(1,)), C("base", "Exp"))
        assert cap.derivations == ()
        assert cap.derivation is None
        assert cap.failed() is None

    def test_results_identical_on_and_off(self, table):
        env = _env(table)
        t1, t2 = C("pair", "Var", exact=(1,)), C("base", "Exp")
        off = subtype(env, t1, t2)
        provenance.enable()
        table.queries.clear()
        on = subtype(_env(table), t1, t2)
        assert on == off


def _check_tables(source, record):
    """Check ``source`` from a fresh table, recording or not: the
    diagnostics (without the refutation payloads only recording adds)
    and the contents of every judgment memo table."""
    sink = DiagnosticSink()
    table = ClassTable(parse_program(source, sink=sink))
    resolve_program(table, sink=sink)
    report = check_program(table, explain=record)
    diagnostics = []
    for d in sink.diagnostics + report.errors + report.warnings:
        payload = d.to_dict()
        payload.pop("explain", None)
        notes = payload.pop("notes", [])
        if "refutation:" in notes:
            notes = notes[: notes.index("refutation:")]
        diagnostics.append((payload, notes))
    memo = {}
    for engine in (table.queries, table.sharing_queries()):
        for name, q in engine.queries.items():
            # Per-class check reports bypass their memo tables while
            # recording (``TypeChecker._cacheable``): they carry the
            # refutation payloads, so only the judgments compare.
            if name not in ("check_class", "inherited_ok"):
                memo[engine.name, name] = {k: e[:2] for k, e in q.table.items()}
    return diagnostics, memo


CORPUS = [(m.NAME, m.SOURCE) for m in JOLDEN] + [
    ("corona", CORONA_SOURCE),
    ("lambda_pair", (EXAMPLES / "lambda_pair.jns").read_text()),
    ("lambda_pair_bad", (EXAMPLES / "lambda_pair_bad.jns").read_text()),
    ("pair", PAIR_SOURCE),
]


@pytest.mark.parametrize("source", [s for _, s in CORPUS], ids=[n for n, _ in CORPUS])
def test_recording_is_transparent_across_the_corpus(source):
    """Recording changes neither what a check reports nor what any
    judgment caches."""
    off = _check_tables(source, record=False)
    on = _check_tables(source, record=True)
    assert on[0] == off[0]
    assert on[1] == off[1]
    assert any(on[1].values())


def _pair_judgments():
    """One instance of each recorded judgment over PAIR_SOURCE, as a
    function of the table and a sharing checker."""
    abs_e = ("pair", "Abs")

    def env(table):
        e = Env(table, abs_e)
        e.vars["this"] = ClassType(abs_e)
        return e

    var, exp = C("pair", "Var", exact=(1,)), C("base", "Exp")
    pexp, bexp = C("pair", "Exp", exact=(1,)), C("base", "Exp", exact=(1,))
    return {
        "subtype": lambda t, c: subtype(env(t), var, exp),
        "bound": lambda t, c: env(t).bound(T.DepType(("this",))),
        "class_subtype": lambda t, c: _class_subtype(t, var, exp),
        "mem": lambda t, c: t._mem(T.make_isect((pexp, bexp))),
        "eval": lambda t, c: t.eval_type_static(
            t.find_field(abs_e, "e")[1].type, this=abs_e
        ),
        "sharing_group": lambda t, c: t.sharing_group(abs_e),
        "fclass": lambda t, c: t.fclass(abs_e, "e"),
        "required_masks": lambda t, c: c.required_masks(abs_e, ("base", "Abs")),
        "type_shares": lambda t, c: c.type_shares(pexp, bexp, frozenset()),
        "shares": lambda t, c: c.sharing_judgment(
            env(t), C("pair", "Abs", exact=(1,)), C("base", "Abs", exact=(1,))
        ),
    }


class TestRecording:
    def test_subtype_derivation_cites_rules(self, table):
        table.queries.clear()
        provenance.enable()
        with PROVENANCE.capture() as cap:
            assert subtype(_env(table), C("pair", "Var", exact=(1,)), C("base", "Exp"))
        d = cap.derivation
        assert d is not None
        assert d.judgment == "subtype" and d.result is True
        assert d.rule == "S-FIN"
        rules = set()

        def walk(node):
            if node.rule:
                rules.add(node.rule)
            for p in node.premises:
                walk(p)

        walk(d)
        assert "S-EXACT" in rules  # class_subtype premise
        assert "mem (Fig. 8)" in rules

    def test_masks_derivation_carries_decl_loc(self, table):
        table.queries.clear()
        provenance.enable()
        checker = SharingChecker(table)
        with PROVENANCE.capture() as cap:
            masks = checker.required_masks(("pair", "Abs"), ("base", "Abs"))
        assert masks == frozenset({"e"})
        d = cap.derivation
        assert d.rule == "masks (Fig. 5)"
        assert d.loc is not None and d.loc.startswith("line ")
        # fclass premises cite the paper section
        assert any(p.judgment == "fclass" for p in d.premises)

    @pytest.mark.parametrize(
        "dst,constrained,how,rule",
        [
            (C("base", "Exp"), False, "subtype", "SH-REFL"),
            (C("base", "Var", exact=(1,)), True, "constraint", "SH-ENV"),
            (C("base", "Var", exact=(1,)), False, "global", "SH-CLS"),
        ],
    )
    def test_shares_derivation_cites_the_closing_rule(
        self, table, dst, constrained, how, rule
    ):
        src = C("pair", "Var", exact=(1,))
        env = _env(table)
        if constrained:
            env.constraints = [(src, dst)]
        provenance.enable()
        with PROVENANCE.capture() as cap:
            assert SharingChecker(table).sharing_judgment(env, src, dst) == (True, how)
        d = cap.derivations[-1]
        assert (d.judgment, d.result, d.rule) == ("shares", True, rule)

    @pytest.mark.parametrize(
        "path,fname,note,owner",
        [
            (("F0", "A"), "x", "share", ("F0", "A")),
            (("F1", "A"), "z", "duplicated", ("F1", "A")),
            (("F1", "A"), "y", "new-field", ("F1", "A")),
            (("F1", "A"), "x", "share", ("F0", "A")),
        ],
    )
    def test_fclass_derivation_cites_the_deciding_clause(self, path, fname, note, owner):
        table = compile_program(
            "class F0 { class A { int x; int z; } }\n"
            "class F1 extends F0 { class A shares F0.A\\z { int y; } }\n",
            check=False,
        ).table
        provenance.enable()
        with PROVENANCE.capture() as cap:
            assert table.fclass(path, fname) == owner
        d = cap.derivations[-1]
        assert (d.judgment, d.rule, d.result) == ("fclass", "fclass (Sec. 4.15)", owner)
        assert note in [p.judgment for p in d.premises]

    def test_recorded_counters_by_judgment(self, table):
        table.queries.clear()
        provenance.enable()
        subtype(_env(table), C("pair", "Var", exact=(1,)), C("base", "Exp"))
        assert PROVENANCE.recorded.get("subtype", 0) >= 1
        assert PROVENANCE.recorded.get("mem", 0) >= 1
        stats = PROVENANCE.stats()
        assert stats["recorded"]["subtype"] == PROVENANCE.recorded["subtype"]


class TestSplicing:
    @pytest.mark.parametrize("judgment", sorted(_pair_judgments()))
    def test_cache_hit_splices_stored_derivation(self, table, judgment):
        """Every judgment: a warm recorded run renders the tree of the
        cold one, apart from the ``(cached)`` marks on spliced hits."""
        run = _pair_judgments()[judgment]
        table.queries.clear()
        checker = SharingChecker(table)
        provenance.enable()
        trees = []
        for _ in range(2):
            with PROVENANCE.capture() as cap:
                run(table, checker)
            # the last root: operands may run judgments of their own first
            trees.append(cap.derivations[-1])
        cold, warm = trees
        assert cold.judgment == warm.judgment == judgment and cold.premises
        if judgment not in ("fclass", "shares"):  # memoized: the warm root hits
            assert warm.cached and PROVENANCE.spliced[judgment] >= 1
        text = [d.format().replace("  (cached)", "") for d in trees]
        assert text[1] == text[0]

    def test_entry_computed_before_recording_is_bare_leaf(self, table):
        # Warm the caches with recording off...
        env = _env(table)
        t1, t2 = C("pair", "Var", exact=(1,)), C("base", "Exp")
        subtype(env, t1, t2)
        # ...then record: the hit has no stored derivation to splice.
        provenance.enable()
        with PROVENANCE.capture() as cap:
            subtype(env, t1, t2)
        d = cap.derivation
        assert d.cached is True
        assert d.premises == ()
        assert "memo" in (d.rule or "")


class TestIncrementalPurge:
    """Enabling provenance across an incremental invalidation must never
    splice a derivation recorded against the pre-edit program (ISSUE 7
    satellite): ``IncrementalChecker._apply_plan`` purges every stored
    derivation, so a surviving (still-green) cache entry can only appear
    as a bare memo leaf afterwards."""

    def _judge(self, table):
        env = _env(table)
        return subtype(env, C("pair", "Var", exact=(1,)), C("base", "Exp"))

    def test_edit_never_splices_stale_derivation(self):
        from repro.lang.incremental import IncrementalChecker

        inc = IncrementalChecker(PAIR_SOURCE)
        assert not inc.check().has_errors
        table = inc.table
        # Record with provenance on: stored derivations now hang off the
        # warm subtype entries.
        provenance.enable()
        with PROVENANCE.capture() as pre:
            assert self._judge(table)
        assert pre.derivation is not None
        provenance.disable()
        # A body-only edit inside base.Var — the subtype entry above is
        # untouched by the bumps and stays green.
        edited = PAIR_SOURCE.replace(
            "String x; Var(String x) { this.x = x; }",
            "String x; Var(String x) { this.x = x; this.x = x; }",
        )
        stats = inc.apply_edit(edited)
        assert stats["strategy"] == "incremental"
        assert not PROVENANCE._store  # the purge dropped every stored tree
        assert not inc.check().has_errors
        provenance.enable()
        with PROVENANCE.capture() as post:
            assert self._judge(table)
        d = post.derivation
        assert d is not None
        # The hit may only be the honest bare memo leaf: the pre-edit
        # premise tree must not have survived the purge.
        assert d.cached
        assert d.premises == ()
        assert "memo" in (d.rule or "")

    def test_api_edit_purges_and_recomputes_fresh_tree(self):
        from repro.lang.incremental import IncrementalChecker

        inc = IncrementalChecker(PAIR_SOURCE)
        assert not inc.check().has_errors
        table = inc.table
        provenance.enable()
        with PROVENANCE.capture():
            assert self._judge(table)
        provenance.disable()
        # An interface edit to pair.Var itself: its subtype entries are
        # bumped red, so the post-edit capture recomputes and records a
        # fresh tree citing the current program.
        edited = PAIR_SOURCE.replace(
            "class Var extends Exp shares base.Var { }",
            "class Var extends Exp shares base.Var { int tag() { return 1; } }",
        )
        stats = inc.apply_edit(edited)
        assert stats["strategy"] == "incremental"
        assert "pair.Var" in stats["dirty"]
        assert not inc.check().has_errors
        provenance.enable()
        with PROVENANCE.capture() as post:
            assert self._judge(table)
        d = post.derivation
        assert d is not None
        if d.cached:
            assert d.premises == ()


class TestRefutation:
    def test_refutation_prunes_to_failing_premises(self):
        table = compile_program(BAD_SOURCE, check=False).table
        table.queries.clear()
        provenance.enable()
        checker = SharingChecker(table)
        env = Env(table, ())
        env.vars["this"] = ClassType(())
        with PROVENANCE.capture() as cap:
            holds, _how = checker.sharing_judgment(
                env,
                C("pair", "Exp", exact=(1,)),
                C("base", "Exp", exact=(1,)),
            )
        assert not holds
        failed = cap.failed()
        assert failed is not None
        ref = failed.refutation()
        assert ref is not None and ref.result is False

        def assert_all_fail(node):
            assert node.result is False
            for p in node.premises:
                assert_all_fail(p)

        assert_all_fail(ref)
        # The pruned tree bottoms out at the Pair subclass that has no
        # shared counterpart in base.
        text = ref.format()
        assert "pair.Pair" in text
        assert "type_shares" in text

    def test_refutation_none_for_passing_judgment(self):
        d = Derivation("subtype", "x", "S-REFL", True)
        assert d.refutation() is None

    def test_leaf_refutation_when_no_failing_premise(self):
        ok = Derivation("side", "cond", None, True)
        d = Derivation("subtype", "x", "S-FIN", False, (ok,))
        ref = d.refutation()
        assert ref.premises == ()


class TestTracerIntegration:
    def test_provenance_counters_reach_tracer(self, table):
        table.queries.clear()
        obs.enable()
        provenance.enable()
        env = _env(table)
        t1, t2 = C("pair", "Var", exact=(1,)), C("base", "Exp")
        subtype(env, t1, t2)
        subtype(env, t1, t2)  # warm: splices
        t = obs.TRACER
        assert t.counters.get("provenance.recorded", 0) >= 1
        assert t.counters.get("provenance.recorded.subtype", 0) >= 1
        assert t.counters.get("provenance.spliced", 0) >= 1
        hist = t.histograms.get("provenance.premises.subtype")
        assert hist is not None and hist.count >= 1


class TestDerivationRendering:
    def test_result_text_forms(self):
        assert Derivation("j", "s", None, True).line().endswith("=> holds")
        assert "fails" in Derivation("j", "s", None, False).line()
        d = Derivation("fclass", "f", None, ("base", "Abs"))
        assert "=> base.Abs" in d.line()
        d = Derivation("masks", "m", None, frozenset({"e", "a"}))
        assert "{a, e}" in d.line()

    def test_format_elides_beyond_max_depth(self):
        leaf = Derivation("j", "leaf", None, True)
        mid = Derivation("j", "mid", None, True, (leaf,))
        root = Derivation("j", "root", None, True, (mid,))
        text = root.format(max_depth=1)
        assert "elided" in text and "leaf" not in text

    def test_to_dict_roundtrips_fields(self):
        leaf = Derivation("side", "cond", None, False)
        d = Derivation("shares", "a ~> b", "SH-CLS", False, (leaf,), True, "line 3, col 1")
        payload = d.to_dict()
        assert payload["rule"] == "SH-CLS"
        assert payload["cached"] is True
        assert payload["loc"] == "line 3, col 1"
        assert payload["premises"][0]["result"] is False


class TestCheckExplain:
    def test_refutation_attached_to_failing_diagnostic(self):
        sink = check_source(BAD_SOURCE, explain=True)
        assert sink.has_errors
        with_explain = [d for d in sink.errors if d.explain is not None]
        assert with_explain, "no diagnostic carried a refutation tree"
        diag = with_explain[0]
        assert diag.code.startswith("JNS-TYPE-")
        assert diag.explain["result"] is False
        assert any(n.startswith("refutation:") for n in diag.notes)

    def test_explain_off_by_default(self):
        sink = check_source(BAD_SOURCE)
        assert sink.has_errors
        assert all(d.explain is None for d in sink.diagnostics)
        assert not PROVENANCE.enabled

    def test_check_explain_restores_recorder_state(self):
        assert not PROVENANCE.enabled
        check_source(BAD_SOURCE, explain=True)
        assert not PROVENANCE.enabled
