"""Run-time values for the J&s interpreter.

An object is represented the way Section 6.3 describes the J&s
implementation: a level of indirection separates the *instance* (the
representative storage collecting all field copies, including duplicated
unshared fields) from the *reference object* pairing it with a view.

``Instance.fields`` is keyed by ``(owner_path, field_name)`` where
``owner_path`` is the ``fclass`` of the field for the writing view — this
realizes the heap of the calculus, whose domain is tuples ⟨l, P, f⟩.
``Instance.view_refs`` memoizes one reference object per view class
(Section 6.3's memoized view changes).

:class:`SlottedInstance` is the specialized representation the codegen
backend allocates: the same heap keys, but laid out as a flat list
indexed by a per-sharing-group :class:`~repro.runtime.loader.Layout`
computed ahead of time by the loader (one slot per ``fclass``-distinct field copy, so
duplicated/masked fields from Section 6.3 keep separate storage).  Both
representations answer ``load``/``store`` on heap keys so the generic
interpreter entry points work on either.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..lang.classtable import JnsError
from ..lang.types import Path, Type, View

#: Sentinel for "this heap key holds no value".  Slots of a
#: :class:`SlottedInstance` are initialized to it (reads of an ABSENT
#: slot take the duplicated-field fallback path, exactly like a missing
#: dict key on :class:`Instance`), and ``load`` returns it for unmapped
#: keys.  Never flows into J&s programs as a value.
ABSENT: Any = object()


class JnsRuntimeError(JnsError):
    """A run-time failure of an executing J&s program."""

    code = "JNS-RUN-000"


class NullDereference(JnsRuntimeError):
    code = "JNS-RUN-001"


class UninitializedFieldError(JnsRuntimeError):
    """A masked/duplicated field was read before being initialized in the
    current view's family.  The static masked-type discipline prevents
    this; the runtime check makes the guarantee observable in tests."""

    code = "JNS-RUN-002"


class NoSuchName(JnsRuntimeError):
    """A field, method or local variable the program names does not
    exist at run time.  The checker rejects such programs; unchecked
    programs and direct ``Interp`` calls can still get here."""

    code = "JNS-RUN-003"


class NoSuchMethod(NoSuchName):
    """A call names a method the receiver's view has not got."""


class ArityError(JnsRuntimeError):
    """A method called, or a class instantiated, with the wrong number
    of arguments (rejected by the checker, like :class:`NoSuchName`)."""

    code = "JNS-RUN-004"


class CastError(JnsRuntimeError):
    """A cast whose value does not conform to the target type, or a view
    change of a value that is not an object."""

    code = "JNS-RUN-005"


class ArrayError(JnsRuntimeError):
    """An array index out of bounds, or a bad array length."""

    code = "JNS-RUN-006"


class DivisionByZero(JnsRuntimeError):
    """Integer division or modulo by zero."""

    code = "JNS-RUN-007"


class JnsFailure(JnsRuntimeError):
    """Raised by the Sys.fail native."""

    code = "JNS-RUN-008"


class Instance:
    """The shared storage of one J&s object (all views point here)."""

    __slots__ = ("fields", "created_as", "view_refs")

    def __init__(self, created_as: Path) -> None:
        self.created_as = created_as
        self.fields: Dict[Tuple[Path, str], Any] = {}
        self.view_refs: Dict[Path, "Ref"] = {}

    def __repr__(self) -> str:
        return f"<instance of {'.'.join(self.created_as)} at {id(self):#x}>"

    def load(self, key: Any) -> Any:
        return self.fields.get(key, ABSENT)

    def store(self, key: Any, value: Any) -> None:
        self.fields[key] = value


class SlottedInstance:
    """Specialized object storage: a flat slot list over a fixed layout.

    ``slots[i]`` holds the value of the heap key ``layout.keys[i]``; keys
    outside the layout spill into the lazily-created ``extra`` dict (a
    safety net: ``Interp.set_field`` checks every key it writes against
    the fields of the view's class).
    The ``__repr__`` matches :class:`Instance` so diagnostics are
    identical across backends (up to the object address)."""

    __slots__ = ("created_as", "view_refs", "layout", "slots", "extra")

    def __init__(self, created_as: Path, layout: Any) -> None:
        self.created_as = created_as
        self.view_refs: Dict[Path, "Ref"] = {}
        self.layout = layout
        self.slots: list = [ABSENT] * layout.nslots
        self.extra: Optional[Dict[Any, Any]] = None

    def __repr__(self) -> str:
        return f"<instance of {'.'.join(self.created_as)} at {id(self):#x}>"

    def load(self, key: Any) -> Any:
        i = self.layout.index.get(key)
        if i is None:
            extra = self.extra
            return extra.get(key, ABSENT) if extra is not None else ABSENT
        return self.slots[i]

    def store(self, key: Any, value: Any) -> None:
        i = self.layout.index.get(key)
        if i is None:
            extra = self.extra
            if extra is None:
                extra = self.extra = {}
            extra[key] = value
        else:
            self.slots[i] = value


class Ref:
    """A reference object: heap location + view (Section 2.3)."""

    __slots__ = ("inst", "view")

    def __init__(self, inst: Instance, view: View) -> None:
        self.inst = inst
        self.view = view

    def __repr__(self) -> str:
        return f"<ref {self.view!r} -> {self.inst!r}>"


def default_value(t: Type) -> Any:
    """The Java-style default for an uninitialized field of type ``t``."""
    from ..lang import types as T

    p = t.pure()
    if p == T.INT:
        return 0
    if p == T.DOUBLE:
        return 0.0
    if p == T.BOOLEAN:
        return False
    return None
