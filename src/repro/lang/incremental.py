"""Fine-grained incremental re-checking.

:class:`IncrementalChecker` keeps one program alive across edits.  A
:meth:`check <IncrementalChecker.check>` assembles its diagnostics from
per-class cached units (``check_class`` / ``inherited_ok`` on the class
table's query engine, see :mod:`repro.lang.typecheck`); an
:meth:`apply_edit <IncrementalChecker.apply_edit>` reuses everything the
edit did not touch:

* **Chunk-level parse reuse.**  The source is split at column-0
  top-level ``class`` starts.  A chunk whose ``(text, start line)`` pair
  is unchanged keeps its already-resolved declaration objects by
  identity; an edited chunk is re-lexed standalone, its token positions
  shifted to absolute lines, and re-parsed on its own
  (:func:`repro.source.parser.parse_decls`).  Any irregularity — a chunk
  that fails to parse, a split that does not reassemble into the source,
  a previous build that had parse errors — falls back to a full
  from-scratch build, so error programs always see exactly the batch
  pipeline's diagnostics.

* **Signature-based classification.**  Each class carries three
  signatures computed from its *unresolved* declaration (resolution
  mutates the AST in place, so signatures are taken at parse time):

  - ``struct``: name, abstractness, ``extends``/``shares``/``adapts``
    clauses, field *names*, nested-class names — everything another
    class's *name resolution* or the derived sharing relation can
    observe.  Positions are excluded.
  - ``api``: field types/finality/initializers, method and constructor
    signatures with method-level sharing constraints.  Positions
    included.
  - ``body``: method/constructor bodies.  Positions included.

  A ``body``-only change bumps ``('body', P)``; an ``api`` change also
  bumps ``('iface', P)``; only the edited class re-resolves (name
  resolution elsewhere depends just on the class set and hierarchy — see
  ``ClassTable.has_member``).  A ``struct`` change, a class added or
  removed, or a duplicate rebuilds from scratch: the sharing relation
  and other classes' resolved ASTs could change in ways in-place
  revalidation cannot replay, and correctness beats reuse.

Dependency validation itself lives in :mod:`repro.lang.queries`
(red/green over a :class:`~repro.lang.queries.VersionStore`); this
module only decides *which* input keys an edit bumps.
"""

from __future__ import annotations

import dataclasses
import re
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..diagnostics import Diagnostic, DiagnosticSink
from ..errors import JnsError
from ..obs import TRACER
from ..source import ast
from ..source.lexer import tokenize
from ..source.parser import parse_decls, parse_program
from ..source.tokens import Token
from .classtable import ClassTable, EditNotice, path_str
from .provenance import PROVENANCE as _PROV
from .queries import caches_enabled
from .resolve import _resolve_member
from .typecheck import CheckReport, check_program
from .types import Path

__all__ = ["IncrementalChecker", "Sig", "class_sigs", "split_chunks"]

#: Column-0 start of a top-level class declaration.  A false split (the
#: pattern matching inside a block comment) is harmless: the standalone
#: reparse of either neighboring chunk fails and we fall back to a full
#: parse.
_CHUNK_RE = re.compile(r"^(?:abstract[ \t]+)?class\b", re.MULTILINE)

#: Start of a nested class at a specific indent inside a family wrapper
#: (built per-wrapper; J&s programs conventionally nest one level under
#: a family class, e.g. every CorONA class sits inside ``class corona``).
def _nested_re(indent: str) -> "re.Pattern[str]":
    return re.compile(
        r"^" + re.escape(indent) + r"(?:abstract[ \t]+)?class\b", re.MULTILINE
    )


_INDENT_RE = re.compile(r"^([ \t]+)(?:abstract[ \t]+)?class\b", re.MULTILINE)
_CLOSE_RE = re.compile(r"^\}", re.MULTILINE)


@dataclasses.dataclass
class Sig:
    """The three change-granularity signatures of one class declaration."""

    struct: Any
    api: Any
    body: Any


#: Chunk kinds.  ``top`` and ``nested`` chunks parse standalone
#: (``nested`` under a prefix path); ``ctx`` chunks are raw fragments of
#: a family wrapper (its header, own members, closing brace) that must
#: survive an edit byte-for-byte — any change there is structural.
TOP, NESTED, CTX = "top", "nested", "ctx"


class Chunk:
    """A contiguous slice of source text.

    ``decls`` holds the class declarations rooted in this chunk (for
    ``ctx`` header chunks, the wrapper class itself).  ``prefix`` is the
    enclosing class path for ``nested`` chunks; ``member_indices`` maps
    each decl to its position in the wrapper's member list so an edited
    reparse can be spliced back in place.
    """

    __slots__ = ("kind", "text", "start_line", "prefix", "decls",
                 "member_indices")

    def __init__(
        self, kind: str, text: str, start_line: int, prefix: Path = ()
    ) -> None:
        self.kind = kind
        self.text = text
        self.start_line = start_line
        self.prefix = prefix
        self.decls: List[ast.ClassDecl] = []
        self.member_indices: List[int] = []

    @property
    def end_line(self) -> int:
        return self.start_line + self.text.count("\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Chunk({self.kind}, line={self.start_line}, "
            f"classes={len(self.decls)})"
        )


def _node_sig(node: Any) -> Any:
    """Generic structural signature of a *surface* AST subtree, positions
    included.  Only valid before resolution rewrites the tree."""
    if node is None or isinstance(node, (str, int, float, bool)):
        return node
    if isinstance(node, (list, tuple)):
        return tuple(_node_sig(x) for x in node)
    fields = getattr(type(node), "_fields", None)
    if fields is not None:
        return (type(node).__name__,) + tuple(
            _node_sig(getattr(node, name)) for name in fields
        )
    return repr(node)


def _type_repr(t: Any) -> str:
    return "" if t is None else repr(t)


def class_sigs(decl: ast.ClassDecl) -> Sig:
    """Signatures of one class, nested classes excluded (they carry their
    own signatures under their own paths)."""
    struct = (
        decl.name,
        decl.abstract,
        tuple(_type_repr(t) for t in decl.extends),
        _type_repr(decl.shares),
        _type_repr(decl.adapts),
        tuple(f.name for f in decl.fields),
        tuple(c.name for c in decl.nested_classes),
    )
    api: List[Any] = [("class", decl.pos)]
    body: List[Any] = []
    for m in decl.members:
        if isinstance(m, ast.ClassDecl):
            continue
        if isinstance(m, ast.FieldDecl):
            api.append(("field", m.name, m.final, _node_sig(m.type), m.pos,
                        _node_sig(m.init)))
        elif isinstance(m, ast.MethodDecl):
            api.append(
                ("method", m.name, m.abstract, _node_sig(m.ret_type),
                 _node_sig(m.params), _node_sig(m.constraints), m.pos,
                 m.body is None)
            )
            body.append(("method", m.name, _node_sig(m.body)))
        elif isinstance(m, ast.CtorDecl):
            api.append(("ctor", m.name, _node_sig(m.params), m.pos))
            body.append(("ctor", m.name, _node_sig(m.body)))
    return Sig(struct, tuple(api), tuple(body))


def split_chunks(source: str) -> Optional[List[Chunk]]:
    """Split ``source`` into a flat chunk sequence, purely textually.

    Level 1 splits at column-0 class starts.  A level-1 region that
    contains nested-class anchors at a uniform indent and ends in a
    column-0 ``}`` is further split into a ``ctx`` header (wrapper
    declaration plus any leading members), one ``nested`` chunk per
    anchor, and a ``ctx`` trailer from the last column-0 ``}`` on.  The
    split is a guess: the build/edit paths validate it against parsed
    declarations and fall back to coarser chunks (or a scratch build)
    whenever it lies.  Returns ``None`` when there is nothing to split
    on or the pieces do not reassemble byte-for-byte.
    """
    starts = [m.start() for m in _CHUNK_RE.finditer(source)]
    if not starts:
        return None
    if starts[0] != 0:
        starts[0] = 0  # fold any preamble (comments, blanks) into chunk 0
    chunks: List[Chunk] = []
    for i, s in enumerate(starts):
        e = starts[i + 1] if i + 1 < len(starts) else len(source)
        chunks.extend(_split_region(source[s:e], source.count("\n", 0, s) + 1))
    if "".join(c.text for c in chunks) != source:
        return None
    return chunks


def _split_region(text: str, start_line: int) -> List[Chunk]:
    """Split one level-1 region (a single ``Chunk`` worth of text) into
    wrapper ``ctx`` pieces and per-nested-class chunks when the region
    has the family-wrapper shape; otherwise one ``top`` chunk."""
    whole = [Chunk(TOP, text, start_line)]
    first = _INDENT_RE.search(text)
    if first is None:
        return whole
    closes = list(_CLOSE_RE.finditer(text))
    if not closes:
        return whole
    trailer_at = closes[-1].start()
    anchors = [
        m.start()
        for m in _nested_re(first.group(1)).finditer(text)
        if m.start() < trailer_at
    ]
    if not anchors or anchors[0] == 0 or trailer_at <= anchors[-1]:
        return whole
    bounds = anchors + [trailer_at]
    out = [Chunk(CTX, text[: bounds[0]], start_line)]
    for i in range(len(anchors)):
        s, e = bounds[i], bounds[i + 1]
        out.append(
            Chunk(NESTED, text[s:e], start_line + text.count("\n", 0, s))
        )
    out.append(
        Chunk(CTX, text[trailer_at:], start_line + text.count("\n", 0, trailer_at))
    )
    return out


def _collect_paths(
    decl: ast.ClassDecl, prefix: Path, out: Dict[Path, ast.ClassDecl]
) -> bool:
    """Register ``decl`` and its nested classes into ``out``; ``False``
    on a duplicate path (caller falls back to scratch, which reports the
    duplicate exactly like the batch pipeline)."""
    path = prefix + (decl.name,)
    if path in out:
        return False
    out[path] = decl
    for nested in decl.nested_classes:
        if not _collect_paths(nested, path, out):
            return False
    return True


def _wire_group(unit: List[Chunk], top_decls: List[ast.ClassDecl]) -> bool:
    """Wire one wrapper group ``[ctx header, nested..., ctx trailer]`` to
    its parsed family class: the header owns the wrapper declaration,
    each nested chunk the member classes that start inside it (recorded
    with their index in the wrapper's member list).  ``False`` when the
    textual guess does not match the parse — the caller collapses the
    group to a coarse chunk.  Partial mutation is fine: collapsed chunks
    are discarded."""
    header, nested, trailer = unit[0], unit[1:-1], unit[-1]
    if len(top_decls) != 1:
        return False
    wrapper = top_decls[0]
    if not header.start_line <= wrapper.pos[0] < nested[0].start_line:
        return False
    header.decls = [wrapper]
    prefix = (wrapper.name,)
    ni = 0
    for idx, member in enumerate(wrapper.members):
        if not isinstance(member, ast.ClassDecl):
            continue
        line = member.pos[0]
        while ni + 1 < len(nested) and nested[ni + 1].start_line <= line:
            ni += 1
        ch = nested[ni]
        if not ch.start_line <= line <= ch.end_line:
            return False
        if not ch.decls and line != ch.start_line:
            return False  # the anchor line is not a real class start
        ch.decls.append(member)
        ch.member_indices.append(idx)
    if any(not ch.decls for ch in nested):
        return False
    for ch in nested:
        ch.prefix = prefix
    return True


class IncrementalChecker:
    """A long-lived check session over one evolving source text.

    ``check()`` returns a :class:`~repro.diagnostics.DiagnosticSink`
    byte-identical to ``repro.api.check_source`` on the current text;
    ``apply_edit(new_source)`` swaps the text in, reusing parses,
    resolutions, and cached judgments that the edit provably left
    intact.
    """

    def __init__(
        self,
        source: str,
        file: Optional[str] = None,
        strict_sharing: bool = False,
    ) -> None:
        self.file = file
        self.strict_sharing = strict_sharing
        self.source = ""
        self.table: Optional[ClassTable] = None
        self.last_report: Optional[CheckReport] = None
        self.last_stats: Dict[str, Any] = {}
        self._parse_diags: List[Diagnostic] = []
        self._resolve_diags: Dict[Path, List[Diagnostic]] = {}
        self._abort_diag: Optional[Diagnostic] = None
        self._chunks: Optional[List[Chunk]] = None
        self._sigs: Dict[Path, Sig] = {}
        self._build_scratch(source, reason="initial")

    # ------------------------------------------------------------------
    # from-scratch build (also the fallback for irregular edits)
    # ------------------------------------------------------------------

    def _build_scratch(self, source: str, reason: str) -> None:
        t0 = perf_counter()
        self.source = source
        self.table = None
        self._abort_diag = None
        self._parse_diags = []
        self._resolve_diags = {}
        self._chunks = None
        self._sigs = {}
        sink = DiagnosticSink(file=self.file)
        unit = parse_program(source, file=self.file, sink=sink)
        self._parse_diags = list(sink.diagnostics)
        # Signatures must be taken *now*: resolution below rewrites the
        # same AST nodes in place, and edit-time signatures (computed on
        # fresh, unresolved reparses) must compare against like form.
        chunks = None
        if not self._parse_diags:
            chunks = self._assign_chunks(source, unit.classes)
        if chunks is not None:
            cmap: Optional[Dict[Path, ast.ClassDecl]] = {}
            for decl in unit.classes:
                if not _collect_paths(decl, (), cmap):
                    cmap = None  # duplicate; ClassTable below reports it
                    break
            if cmap is None:
                chunks = None
            else:
                for path, decl in cmap.items():
                    self._sigs[path] = class_sigs(decl)
        try:
            table = ClassTable(unit)
        except JnsError as exc:
            # Mirror check_source: a table-construction failure (duplicate
            # class) aborts resolution and checking wholesale.
            self._abort_diag = sink.add_exc(exc)
            self._sigs = {}
            self._finish_stats("scratch", reason, t0, dirty=[])
            return
        self.table = table
        self._resolve_all(table)
        self._chunks = chunks
        self._finish_stats("scratch", reason, t0, dirty=list(table.explicit))

    def _assign_chunks(
        self, source: str, top_decls: List[ast.ClassDecl]
    ) -> Optional[List[Chunk]]:
        """Validate the textual split against the parsed declarations and
        wire declaration objects (and wrapper member indices) onto the
        chunks.  A wrapper group that does not line up with a real family
        class collapses back into one coarse ``top`` chunk."""
        chunks = split_chunks(source)
        if chunks is None:
            return None
        units: List[List[Chunk]] = []
        i = 0
        while i < len(chunks):
            if chunks[i].kind == TOP:
                units.append([chunks[i]])
                i += 1
                continue
            j = i + 1
            while j < len(chunks) and chunks[j].kind == NESTED:
                j += 1
            if j >= len(chunks) or chunks[j].kind != CTX:
                return None  # malformed split
            units.append(chunks[i : j + 1])
            i = j + 1
        per_unit: List[List[ast.ClassDecl]] = [[] for _ in units]
        ui = 0
        for decl in top_decls:
            line = decl.pos[0]
            while ui + 1 < len(units) and units[ui + 1][0].start_line <= line:
                ui += 1
            per_unit[ui].append(decl)
        out: List[Chunk] = []
        for unit, decls in zip(units, per_unit):
            if len(unit) == 1:
                unit[0].decls = decls
                out.append(unit[0])
            elif _wire_group(unit, decls):
                out.extend(unit)
            else:
                coarse = Chunk(
                    TOP,
                    "".join(c.text for c in unit),
                    unit[0].start_line,
                )
                coarse.decls = decls
                out.append(coarse)
        return out

    # ------------------------------------------------------------------
    # resolution (per class, diagnostics kept per class)
    # ------------------------------------------------------------------

    def _resolve_all(self, table: ClassTable) -> None:
        if not TRACER.enabled:
            for path, info in list(table.explicit.items()):
                self._resolve_diags[path] = self._resolve_class(
                    table, path, info.decl
                )
            return
        with TRACER.span("resolve", classes=len(table.explicit)):
            for path, info in list(table.explicit.items()):
                self._resolve_diags[path] = self._resolve_class(
                    table, path, info.decl
                )

    def _resolve_class(
        self, table: ClassTable, path: Path, decl: ast.ClassDecl
    ) -> List[Diagnostic]:
        """One class's slice of ``resolve_program``: per-member recovery,
        ``_resolve_failed`` flags for the checker, diagnostics returned
        in member order (matching the batch resolver's interleaving)."""
        csink = DiagnosticSink(file=self.file)
        for member in decl.members:
            member._resolve_failed = False
            try:
                _resolve_member(member, table, path)
            except JnsError as exc:
                csink.add_exc(exc, where=path_str(path))
                member._resolve_failed = True
        return csink.diagnostics

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------

    def apply_edit(self, new_source: str) -> Dict[str, Any]:
        """Swap in ``new_source``, invalidating only what it changed.

        Returns a stats dict: ``strategy`` (``'incremental'`` /
        ``'scratch'`` / ``'noop'``), ``reason`` for scratch rebuilds,
        ``dirty`` (class paths whose inputs were bumped), and timing.
        """
        t0 = perf_counter()
        if new_source == self.source:
            self.last_stats = {
                "strategy": "noop",
                "reason": None,
                "dirty": [],
                "edit_ms": (perf_counter() - t0) * 1e3,
            }
            return self.last_stats
        if (
            not caches_enabled()
            or self.table is None
            or self._chunks is None
            or self._parse_diags
        ):
            self._build_scratch(new_source, reason="unchunked")
            return self.last_stats
        plan = self._plan_edit(new_source)
        if isinstance(plan, str):
            self._build_scratch(new_source, reason=plan)
            return self.last_stats
        new_chunks, splices, bumps, dirty = plan
        self._apply_plan(new_source, new_chunks, splices, bumps, dirty)
        if TRACER.enabled:
            TRACER.count("incr.dirty", len(dirty))
        self._finish_stats("incremental", None, t0, dirty=dirty)
        return self.last_stats

    def _plan_edit(self, new_source: str):
        """Classify the edit against the current chunk sequence.

        The new split must be *positionally parallel* to the old one
        (same chunk count, kinds, and — for ``ctx`` fragments — same
        bytes at the same lines); anything else is a structural edit and
        returns a scratch-rebuild reason string.  Otherwise returns
        ``(new_chunks, splices, bump_keys, dirty_paths)`` where each
        splice is ``(path, new_decl, mode)`` with mode ``'replace'`` (an
        interface change: the declaration object is swapped out and
        every judgment that read it is bumped), ``'graft'`` (a body-only
        change: the resolved declaration object is *kept* and the new
        bodies are grafted into its members, so surviving cache entries
        that hold the member objects — vtables, ``find_method`` results —
        can never expose a stale body), or ``'refresh'`` (positions and
        content identical: the fresh object is swapped in without any
        bump; retained cache entries reference the old, byte-identical
        members, which is indistinguishable).
        """
        table = self.table
        assert table is not None and self._chunks is not None
        new_chunks = split_chunks(new_source)
        if new_chunks is None or len(new_chunks) != len(self._chunks):
            return "reshape"
        splices: List[Tuple[Path, ast.ClassDecl, str]] = []
        bumps: List[Tuple[Any, ...]] = []
        dirty: List[Path] = []
        for oc, nc in zip(self._chunks, new_chunks):
            if oc.kind != nc.kind:
                return "reshape"
            if oc.kind == CTX:
                if oc.text != nc.text or oc.start_line != nc.start_line:
                    return "wrapper-edit"
                nc.decls = oc.decls
                continue
            nc.prefix = oc.prefix
            nc.member_indices = oc.member_indices
            if oc.text == nc.text and oc.start_line == nc.start_line:
                nc.decls = oc.decls  # identity reuse
                continue
            try:
                toks = tokenize(nc.text)
                delta = nc.start_line - 1
                if delta:
                    toks = [
                        Token(t.kind, t.value, t.line + delta, t.col)
                        for t in toks
                    ]
                nc.decls = parse_decls(toks, file=self.file)
            except JnsError:
                return "parse-error"
            if len(nc.decls) != len(oc.decls) or any(
                n.name != o.name for n, o in zip(nc.decls, oc.decls)
            ):
                return "classset"
            sub: Dict[Path, ast.ClassDecl] = {}
            for decl in nc.decls:
                if not _collect_paths(decl, nc.prefix, sub):
                    return "duplicate-class"
            replaced: set = set()
            for path in sorted(sub, key=len):
                decl = sub[path]
                if path not in table.explicit:
                    return "classset"
                new_sig = class_sigs(decl)
                old_sig = self._sigs.get(path)
                if old_sig is None or new_sig.struct != old_sig.struct:
                    return "structural"
                # A replaced ancestor already carries this fresh object in
                # its member list, so the table entry must follow suit:
                # body-only children escalate to replace (with the iface
                # bump that kills retained references), unchanged children
                # to refresh.
                anc = any(
                    path[:k] in replaced for k in range(1, len(path))
                )
                api_diff = new_sig.api != old_sig.api
                body_diff = new_sig.body != old_sig.body
                if api_diff or (anc and body_diff):
                    replaced.add(path)
                    splices.append((path, decl, "replace"))
                    bumps.append(("iface", path))
                    bumps.append(("body", path))
                    dirty.append(path)
                elif body_diff:
                    splices.append((path, decl, "graft"))
                    bumps.append(("body", path))
                    dirty.append(path)
                elif anc:
                    splices.append((path, decl, "refresh"))
                self._sigs[path] = new_sig
        return new_chunks, splices, bumps, dirty

    def _apply_plan(
        self,
        new_source: str,
        new_chunks: List[Chunk],
        splices: List[Tuple[Path, ast.ClassDecl, str]],
        bumps: List[Tuple[Any, ...]],
        dirty: List[Path],
    ) -> None:
        table = self.table
        assert table is not None
        retired: set = set()
        spliced: set = set()
        # Top-down, so a nested replace finds its (possibly just-swapped)
        # parent already holding the member list it must patch.
        for path, decl, mode in sorted(splices, key=lambda s: len(s[0])):
            old = table.explicit[path].decl
            spliced.add(path)
            if mode == "graft":
                # Body-only change: keep the resolved declaration object
                # and graft the fresh bodies into its members, so every
                # surviving cache entry that retained them (vtables,
                # ``find_method`` results green-revalidated under an
                # unchanged interface) observes the new bodies.  The
                # member ids are retired so compiled bodies re-compile.
                old_ms = [
                    m for m in old.members
                    if not isinstance(m, ast.ClassDecl)
                ]
                new_ms = [
                    m for m in decl.members
                    if not isinstance(m, ast.ClassDecl)
                ]
                for om, nm in zip(old_ms, new_ms):
                    if isinstance(om, (ast.MethodDecl, ast.CtorDecl)):
                        om.body = nm.body
                        retired.add(id(om))
                continue
            # replace / refresh: swap the fresh object into the parent's
            # member list (the compilation unit for a top-level class) so
            # unit-walking consumers stay coherent.  A parent replaced
            # earlier this round already carries the new child, in which
            # case the identity search finds nothing and skips.
            retired.add(id(old))
            retired.update(id(m) for m in old.members)
            if len(path) == 1:
                siblings = table.unit.classes
            else:
                parent = table.explicit.get(path[:-1])
                siblings = (
                    parent.decl.members if parent is not None else []
                )
            for i, d in enumerate(siblings):
                if d is old:
                    siblings[i] = decl
                    break
            table.replace_decl(path, decl)
        if bumps:
            table.versions.bump(bumps)
        # Re-resolve spliced classes in declaration order: replaced and
        # refreshed ASTs are fresh (fully unresolved), grafted ones have
        # resolved signatures but fresh bodies — member resolution is
        # idempotent on the resolved parts.  Everything else keeps its
        # resolved AST and its cached per-class resolve diagnostics.
        for path in table.explicit:
            if path in spliced:
                self._resolve_diags[path] = self._resolve_class(
                    table, path, table.explicit[path].decl
                )
        if splices:
            # Never let a later --explain splice a derivation recorded
            # against the pre-edit program (see Provenance.purge).
            _PROV.purge()
        self.source = new_source
        self._chunks = new_chunks
        if splices:
            affected = set(dirty)
            for p in table.explicit:
                if p not in affected and any(
                    table.inherits(p, d) for d in dirty
                ):
                    affected.add(p)
            table.notify_edit(
                EditNotice(dirty, affected, retired, structural=False)
            )

    # ------------------------------------------------------------------
    # checking
    # ------------------------------------------------------------------

    def check(self) -> DiagnosticSink:
        """All diagnostics for the current text, byte-identical to
        ``check_source(self.source, file=self.file, ...)``."""
        sink = DiagnosticSink(file=self.file)
        sink.extend(self._parse_diags)
        if self.table is None:
            if self._abort_diag is not None:
                sink.add(self._abort_diag)
            return sink
        for path in self.table.explicit:
            sink.extend(self._resolve_diags.get(path, ()))
        pre = self._probe_statuses()
        try:
            report = check_program(
                self.table, strict_sharing=self.strict_sharing
            )
        except JnsError as exc:
            sink.add_exc(exc)
            # Cached state may be part-built; force a clean slate on the
            # next edit rather than revalidating against it.
            self._chunks = None
            return sink
        self._account(pre)
        for diag in report.errors + report.warnings:
            sink.add(diag)
        self.last_report = report
        return sink

    def _probe_statuses(self) -> Dict[str, Any]:
        assert self.table is not None
        q = self.table.queries.query("check_class")
        statuses = [
            q.get_status((path, self.strict_sharing))
            for path in self.table.explicit
        ]
        return {
            "reused": statuses.count("reused"),
            "revalidate": statuses.count("revalidate"),
            "miss": statuses.count("miss"),
            "misses_before": q.misses,
            "query": q,
        }

    def _account(self, pre: Dict[str, Any]) -> None:
        recomputed = pre["query"].misses - pre["misses_before"]
        revalidated = max(0, pre["revalidate"] - max(0, recomputed - pre["miss"]))
        reused = pre["reused"]
        if TRACER.enabled:
            TRACER.count("incr.revalidated", revalidated)
            TRACER.count("incr.reused", reused)
        self.last_stats["check"] = {
            "reused": reused,
            "revalidated": revalidated,
            "recomputed": recomputed,
        }

    # ------------------------------------------------------------------

    def _finish_stats(
        self,
        strategy: str,
        reason: Optional[str],
        t0: float,
        dirty: List[Path],
    ) -> None:
        self.last_stats = {
            "strategy": strategy,
            "reason": reason,
            "dirty": [path_str(p) for p in dirty],
            "edit_ms": (perf_counter() - t0) * 1e3,
        }
