"""Deterministic fault injection for the CorONA live-evolution harness.

This module supplies what the harness
(:mod:`repro.programs.corona.driver`) needs to run *reproducible*
experiments on one running heap:

* :class:`SimLoop` — a deterministic virtual-time scheduler for
  ``async def`` coroutines.  Tasks await :meth:`SimLoop.sleep` (virtual
  milliseconds) and :class:`SimFuture`/:class:`SimEvent`; the loop runs
  the ready queue FIFO and advances the clock only when every task is
  parked on a timer.  No wall clock, no threads, no real I/O — two runs
  with the same seed execute the same interleaving instruction for
  instruction, which is what makes the runs replay byte-for-byte.
  (A real asyncio event loop orders timer callbacks by wall-clock
  deadlines measured in real time, so it cannot give that guarantee;
  the coroutines themselves are ordinary ``async``/``await`` code.)
* :class:`Rng` — a splitmix64 generator with labeled :meth:`Rng.fork`
  streams.  Every consumer (workload shape, per-request choices, trace
  ids) forks its own stream keyed by a stable label, so the decisions
  taken for request *i* do not depend on how requests happen to
  interleave.
* :func:`parse_fuel_plan` — the faults to inject: fuel exhaustion — a
  forced :class:`~repro.errors.JnsResourceError` ``JNS-RES-001`` inside
  the interpreter — at chosen request indices, parsed from a compact
  spec string.

When the process-wide tracer (:mod:`repro.obs`) is enabled, the driver
mirrors every injection into ``chaos.injected`` / ``chaos.injected.<kind>``
counters; this module itself is observability-free so it can be unit
tested in isolation.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import deque
from typing import (
    Any,
    Callable,
    Coroutine,
    Deque,
    FrozenSet,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "Rng",
    "SimFuture",
    "SimEvent",
    "SimTask",
    "SimLoop",
    "parse_fuel_plan",
]

_MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64: a tiny, fast, deterministic PRNG.

    Streams are *forkable*: :meth:`fork` derives an independent generator
    from the parent's seed and a stable string label (hashed with
    blake2b, never Python's salted ``hash``), so the stream consumed by
    one component is a pure function of ``(seed, label)`` — independent
    of how many values any other component drew."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK64
        self._state = self.seed

    def _next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        if n <= 0:
            raise ValueError(f"randrange bound must be positive, got {n}")
        return self._next() % n

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` (53-bit mantissa)."""
        return (self._next() >> 11) / float(1 << 53)

    def randbytes(self, n: int) -> bytes:
        """``n`` deterministic bytes from the stream (big-endian words).
        :class:`repro.telemetry.TraceContext` draws its 128-bit trace ids
        here so chaos replays regenerate identical trace trees."""
        if n < 0:
            raise ValueError(f"randbytes length must be >= 0, got {n}")
        out = bytearray()
        while len(out) < n:
            out += self._next().to_bytes(8, "big")
        return bytes(out[:n])

    def fork(self, label: str) -> "Rng":
        """An independent stream keyed by this generator's *seed* (not
        its current state) and ``label``."""
        digest = hashlib.blake2b(
            f"{self.seed}:{label}".encode(), digest_size=8
        ).digest()
        return Rng(int.from_bytes(digest, "big"))


# ----------------------------------------------------------------------
# deterministic virtual-time scheduling
# ----------------------------------------------------------------------


class SimFuture:
    """A one-shot awaitable resolved by the loop or another task."""

    __slots__ = ("_done", "_result", "_exc", "_callbacks", "_retrieved")

    def __init__(self) -> None:
        self._done = False
        self._result: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[["SimFuture"], None]] = []
        self._retrieved = False

    def done(self) -> bool:
        return self._done

    def set_result(self, value: Any = None) -> None:
        if self._done:
            raise RuntimeError("SimFuture already resolved")
        self._done = True
        self._result = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise RuntimeError("SimFuture already resolved")
        self._done = True
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_done_callback(self, cb: Callable[["SimFuture"], None]) -> None:
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("SimFuture not resolved")
        self._retrieved = True
        if self._exc is not None:
            raise self._exc
        return self._result

    def __await__(self):
        if not self._done:
            yield self
        self._retrieved = True
        if self._exc is not None:
            raise self._exc
        return self._result


class SimEvent:
    """An async event on the virtual loop (used as the pause gate:
    cleared while an evolution transition holds the heap, set to admit
    traffic).  Waiters wake in FIFO order — deterministically."""

    __slots__ = ("_set", "_waiters")

    def __init__(self, set_: bool = True) -> None:
        self._set = set_
        self._waiters: List[SimFuture] = []

    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        self._set = True
        waiters, self._waiters = self._waiters, []
        for fut in waiters:
            fut.set_result(None)

    def clear(self) -> None:
        self._set = False

    async def wait(self) -> None:
        if self._set:
            return
        fut = SimFuture()
        self._waiters.append(fut)
        await fut


class SimTask(SimFuture):
    """One coroutine driven by the loop; resolved with its result, so it
    is itself awaitable (join)."""

    __slots__ = ("coro", "name")

    def __init__(self, coro: Coroutine, name: str) -> None:
        super().__init__()
        self.coro = coro
        self.name = name


class SimLoop:
    """Deterministic coroutine scheduler on a virtual millisecond clock.

    Ready tasks run FIFO; when the ready queue drains, the clock jumps
    to the earliest timer deadline (ties broken by registration order).
    A task exception is delivered to joiners via the task future; if the
    task is never awaited the exception re-raises out of :meth:`run` —
    failures are loud, never silently dropped."""

    def __init__(self) -> None:
        self.now = 0.0  #: virtual milliseconds since loop start
        self._ready: Deque[SimTask] = deque()
        self._timers: List[Tuple[float, int, SimFuture]] = []
        self._seq = 0
        self._failed: List[SimTask] = []

    def create_task(self, coro: Coroutine, name: str = "task") -> SimTask:
        task = SimTask(coro, name)
        self._ready.append(task)
        return task

    def sleep(self, delay_ms: float) -> SimFuture:
        """An awaitable that resolves ``delay_ms`` virtual ms from now."""
        fut = SimFuture()
        self._seq += 1
        heapq.heappush(self._timers, (self.now + max(0.0, delay_ms), self._seq, fut))
        return fut

    def _step(self, task: SimTask) -> None:
        try:
            awaited = task.coro.send(None)
        except StopIteration as stop:
            task.set_result(stop.value)
            return
        except BaseException as exc:
            task.set_exception(exc)
            self._failed.append(task)
            return
        if not isinstance(awaited, SimFuture):
            raise TypeError(
                f"task {task.name!r} awaited {type(awaited).__name__}, "
                "expected a SimFuture (use SimLoop.sleep / SimEvent)"
            )
        awaited.add_done_callback(lambda _fut: self._ready.append(task))

    def run(self, main: Optional[SimTask] = None) -> Any:
        """Run until ``main`` completes (or, with no ``main``, until no
        task can make progress).  Returns ``main``'s result."""
        while True:
            while self._ready:
                task = self._ready.popleft()
                self._step(task)
                if main is not None and main.done():
                    return main.result()
            if self._timers:
                deadline, _seq, fut = heapq.heappop(self._timers)
                self.now = max(self.now, deadline)
                fut.set_result(None)
                continue
            break
        if main is not None:
            # main still pending with nothing runnable: deadlock
            raise RuntimeError(
                f"virtual-time deadlock: task {main.name!r} never completed"
            )
        for task in self._failed:
            if not task._retrieved:
                task.result()  # re-raise the unretrieved failure
        return None


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------


def parse_fuel_plan(text: str) -> FrozenSet[int]:
    """Parse a fault plan from its compact spec DSL::

        fuel:REQ                 trip JNS-RES-001 while serving request REQ

    e.g. ``fuel:33,fuel:77`` -> ``frozenset({33, 77})``; empty text is
    the empty plan.  Any other kind is an error, so a plan written for a
    fault this harness does not model fails loudly instead of being
    ignored."""
    fuel = set()
    for part in filter(None, (p.strip() for p in text.split(","))):
        kind, _, spec = part.partition(":")
        try:
            if kind != "fuel":
                raise ValueError(f"unknown fault kind {kind!r}")
            fuel.add(int(spec))
        except ValueError as exc:
            raise ValueError(
                f"bad fault spec {part!r}: {exc} (expected fuel:REQ)"
            ) from None
    return frozenset(fuel)
