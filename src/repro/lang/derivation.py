"""The derivation recorder's machinery: proof-tree nodes and the
recording protocol.

:mod:`repro.lang.provenance` owns the process-wide recorder
:data:`~repro.lang.provenance.PROVENANCE` and its ``enabled`` flag, the
one thing a judgment site reads while recording is off.  Everything
that runs only while recording is on lives here: :class:`Derivation`,
the frame stack, :class:`Capture`, and the protocol methods of
:class:`Recording` (``judge``, the one recorded step every judgment
site runs, and ``rule``/``note`` for the body it runs), which join
:class:`~repro.lang.provenance.Provenance` when the first recorder is
enabled.  A run that never records never compiles this module.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import TRACER
from .queries import MISS, Query

#: Completed root derivations kept per recording session (old roots fall
#: off the front; splice storage is unaffected).
MAX_ROOTS = 64


def _elem_text(x: Any) -> str:
    """Render one element of a set/tuple result; class paths (tuples of
    names) print dotted."""
    if isinstance(x, tuple) and all(isinstance(s, str) for s in x):
        return ".".join(x) or "<top>"
    return str(x)


def _result_text(result: Any) -> str:
    """Render a judgment result for one proof-tree line."""
    if result is True:
        return "holds"
    if result is False:
        return "fails"
    if isinstance(result, frozenset):
        return "{" + ", ".join(sorted(_elem_text(x) for x in result)) + "}"
    if isinstance(result, tuple):
        if result and all(isinstance(s, str) for s in result):
            return ".".join(result)  # a class path
        return "{" + ", ".join(_elem_text(x) for x in result) + "}"
    return repr(result)


def _result_json(result: Any) -> Any:
    if isinstance(result, frozenset):
        return sorted(_elem_text(x) for x in result)
    if isinstance(result, tuple):
        if result and all(isinstance(s, str) for s in result):
            return ".".join(result)  # a class path
        return [_elem_text(x) for x in result]
    if isinstance(result, (bool, int, float, str)) or result is None:
        return result
    return repr(result)


class Derivation:
    """One node of a proof tree: a judgment instance, the rule that
    decided it, its result, and the sub-judgments it rests on."""

    __slots__ = ("judgment", "subject", "rule", "result", "premises", "cached", "loc")

    def __init__(
        self,
        judgment: str,
        subject: str,
        rule: Optional[str],
        result: Any,
        premises: Tuple["Derivation", ...] = (),
        cached: bool = False,
        loc: Optional[str] = None,
    ) -> None:
        self.judgment = judgment
        self.subject = subject
        self.rule = rule
        self.result = result
        self.premises = premises
        self.cached = cached
        self.loc = loc

    @property
    def failed(self) -> bool:
        return self.result is False

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.premises)

    def line(self) -> str:
        """The one-line rendering of this node (no premises)."""
        text = f"{self.judgment} {self.subject} => {_result_text(self.result)}"
        if self.rule:
            text += f"  [{self.rule}]"
        if self.cached:
            text += "  (cached)"
        if self.loc:
            text += f"  @ {self.loc}"
        return text

    def format(self, indent: str = "", max_depth: int = 24) -> str:
        """Indented proof tree, premises nested two spaces per level."""
        lines: List[str] = []
        self._format_into(lines, indent, max_depth)
        return "\n".join(lines)

    def _format_into(self, lines: List[str], indent: str, depth: int) -> None:
        lines.append(indent + self.line())
        if depth <= 0 and self.premises:
            lines.append(indent + "  ... (" + str(self.size() - 1) + " premises elided)")
            return
        for p in self.premises:
            p._format_into(lines, indent + "  ", depth - 1)

    def refutation(self) -> Optional["Derivation"]:
        """For a failed judgment, the pruned tree explaining the failure:
        this node with only its failing premises, each refuted
        recursively.  A failing node with no failing premises is a leaf
        refutation (the rule's side condition itself failed).  Returns
        None when the judgment did not fail."""
        if self.result is not False:
            return None
        pruned = tuple(
            p.refutation() or p for p in self.premises if p.result is False
        )
        return Derivation(
            self.judgment, self.subject, self.rule, False, pruned, self.cached, self.loc
        )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "judgment": self.judgment,
            "subject": self.subject,
            "result": _result_json(self.result),
        }
        if self.rule:
            payload["rule"] = self.rule
        if self.cached:
            payload["cached"] = True
        if self.loc:
            payload["loc"] = self.loc
        if self.premises:
            payload["premises"] = [p.to_dict() for p in self.premises]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Derivation {self.line()} premises={len(self.premises)}>"


class _Frame:
    """An in-progress judgment on the recorder stack."""

    __slots__ = ("judgment", "subject", "rule", "children", "loc")

    def __init__(self, judgment: str, subject: str, loc: Optional[str]) -> None:
        self.judgment = judgment
        self.subject = subject
        self.rule: Optional[str] = None
        self.children: List[Derivation] = []
        self.loc = loc


class Capture:
    """Context manager that collects the derivations produced directly
    inside its body (a no-op when recording is disabled), so callers —
    the type checker, the CLI — can grab a proof tree without knowing
    whether provenance is on."""

    __slots__ = ("_prov", "_frame", "derivations")

    def __init__(self, prov) -> None:
        self._prov = prov
        self._frame: Optional[_Frame] = None
        self.derivations: Tuple[Derivation, ...] = ()

    def __enter__(self) -> "Capture":
        if self._prov.enabled:
            self._frame = _Frame("<capture>", "", None)
            self._prov._stack.append(self._frame)
        return self

    def __exit__(self, *exc: Any) -> bool:
        if self._frame is not None:
            self._prov._pop(self._frame)
            self.derivations = tuple(self._frame.children)
            self._frame = None
        return False

    @property
    def derivation(self) -> Optional[Derivation]:
        """The first captured derivation (the judgment the body ran)."""
        return self.derivations[0] if self.derivations else None

    def failed(self) -> Optional[Derivation]:
        """The first captured derivation that failed, if any."""
        for d in self.derivations:
            if d.result is False:
                return d
        return None


class Recording:
    """The recording protocol of :class:`~repro.lang.provenance.Provenance`
    (``self`` is the recorder); never instantiated."""

    def judge(
        self,
        judgment: str,
        subject: str,
        query: Optional[Query],
        key: Any,
        compute: Callable[..., Any],
        *args: Any,
        rule: Optional[str] = None,
        loc: Optional[str] = None,
        verdict: Optional[Callable[[Any], Any]] = None,
    ) -> Any:
        """Decide one judgment while recording and return its value.

        The judgment is answered from ``query`` at ``key`` when the memo
        table holds it (splicing the derivation stored when the entry was
        computed, or a bare ``(cached)`` leaf citing the memo when the
        entry predates recording); otherwise ``compute(*args)`` — the
        same step the unrecorded path calls, which owns the cache-write
        policy — runs inside a fresh frame, so its sub-judgments attach
        as premises.  The finished derivation is stored for later hits
        exactly when the memo table holds ``key`` after the compute step,
        so a recorded tree never disagrees with what was cached.
        ``query=None`` records an unmemoized judgment.  ``rule`` names
        the deciding rule (else the one the body set with :meth:`rule`);
        ``verdict`` maps the value to the proof-tree result.  A judgment
        that raises unwinds its frame and records nothing."""
        frame = _Frame(judgment, subject, loc)
        self._stack.append(frame)
        try:
            value = MISS if query is None else query.get(key)
            cached = value is not MISS
            if not cached:
                value = compute(*args)
        finally:
            self._pop(frame)
        result = value if verdict is None else verdict(value)
        store_key = (judgment, id(query), key)
        if cached:
            stored = self._store.get(store_key)
            if stored is None:
                d = Derivation(
                    judgment, subject, "memo (computed before recording)",
                    result, (), True, loc,
                )
            else:
                d = Derivation(
                    stored.judgment, stored.subject, stored.rule,
                    result, stored.premises, True, stored.loc,
                )
            counts, event = self.spliced, "provenance.spliced"
        else:
            d = Derivation(
                judgment, subject, rule or frame.rule,
                result, tuple(frame.children), False, loc,
            )
            if query is not None and key in query:
                self._store[store_key] = d
            counts, event = self.recorded, "provenance.recorded"
        self._attach(d)
        counts[judgment] = counts.get(judgment, 0) + 1
        tracer = TRACER
        if tracer.enabled:
            tracer.count(event)
            tracer.count(event + "." + judgment)
            if not cached:
                tracer.observe("provenance.premises." + judgment, len(d.premises))
        return value

    def _pop(self, frame: _Frame) -> None:
        # Reentrancy-safe unwind, mirroring obs_export.Span.__exit__.
        stack = self._stack
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()

    def _attach(self, d: Derivation) -> None:
        if self._stack:
            self._stack[-1].children.append(d)
        else:
            self.roots.append(d)
            if len(self.roots) > MAX_ROOTS:
                del self.roots[0]

    def rule(self, name: str) -> None:
        """Name the paper rule deciding the innermost open judgment."""
        if self._stack:
            self._stack[-1].rule = name

    def note(
        self,
        judgment: str,
        subject: str,
        result: Any = True,
        rule: Optional[str] = None,
    ) -> None:
        """Attach a leaf premise (a side condition with no sub-proof) to
        the innermost open judgment."""
        d = Derivation(judgment, subject, rule, result)
        self._attach(d)
