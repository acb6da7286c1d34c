"""Bases for the plain value classes on the run path.

A subclass lists its fields in ``__slots__``, in constructor order, and
writes its own ``__init__``, ``__eq__`` and ``__hash__`` directly over
them.  That is what ``@dataclass`` would generate, without importing
``dataclasses`` (and, through it, ``inspect``, ``dis`` and ``ast``) or
running ``exec`` per class in every fresh process.
"""

from __future__ import annotations

from typing import Any, Tuple


class Record:
    """A value class whose ``repr`` lists its fields."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable :class:`Record`.  ``__init__`` sets the fields through
    ``object.__setattr__``; any later assignment raises
    :class:`AttributeError`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # copy and pickle rebuild through __init__: the default restores
        # slots with setattr, which a frozen object refuses
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
