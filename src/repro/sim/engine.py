"""Discrete-event simulation kernel.

The kernel is a classic event-heap simulator in the style of SimPy, rebuilt
from scratch and tuned for the access patterns of this project (millions of
short-lived key-value operations per run).

Concepts
--------

``Engine``
    Owns the virtual clock and the event heap.  ``Engine.run()`` drives the
    simulation until the heap drains or a deadline is reached.

``Process``
    A generator wrapped as a simulated thread of control.  Inside a process
    generator you may ``yield``:

    * an ``int``/``float`` — sleep for that many nanoseconds;
    * an :class:`Event` — suspend until the event fires (the ``yield``
      expression evaluates to the event's value, or raises its failure);
    * another :class:`Process` — suspend until that process finishes
      (evaluates to its return value; re-raises its unhandled error).

``Event``
    A one-shot occurrence that processes can wait on.  ``succeed(value)``
    and ``fail(exc)`` fire it.  Composite helpers :class:`AllOf` and
    :class:`AnyOf` combine events.

Determinism
-----------
Two events scheduled for the same timestamp fire in scheduling order (a
monotonically increasing sequence number breaks ties), so a run with a fixed
seed replays identically.

Lonely-sleep warp
-----------------
``Engine.run()`` is the only writer of the clock.  When a process sleeps and
*nothing else in the simulated world can run before that sleep expires* —
the now-queue is empty, the wake-up does not cross ``until``, and the next
heap entry lies strictly beyond the wake-up (strictly: a heap tie was pushed
earlier and must fire first) — the heap round-trip is pure overhead: the
kernel sets the clock to the wake-up and resumes the same generator inline.
Dispatch order is provably identical to pushing the entry: the guard fails
in precisely the cases where another occurrence would be popped first, and a
warped sleep only removes a (push, pop) pair no other process could observe.

The same argument covers a *wait*.  When a process yields an untriggered
event whose own occurrence is the heap head (an event entry, not a process's
sleep: the entry's type tag tells them apart), that nothing else watches (no
waiters, no callbacks), while the now-queue is empty, the occurrence does not
cross ``until`` and neither heap child ties it, the kernel pops the entry,
sets the clock, marks the event triggered with the entry's value and resumes
the generator inline: one lonely process waiting on its device read
(:meth:`Engine.timeout`) skips the fire and the now-queue round trip.  The
guard runs only when a process yields an untriggered event.  Traced runs
keep the heap round trip, because the device hangs its queue-depth callback
on the event; their dispatch order is the same by the same argument.

Driving to a condition
----------------------
``run(until, stop)`` returns at the end of the first instant in which any
event in ``stop`` triggers: the now-queue is drained and every heap entry at
that time has been popped, exactly where a ``run(until=peek())`` stepper
returns after that instant.  A caller that checks a condition between
instants (a process finished, a crash was requested) therefore passes the
events that can change it as ``stop`` and makes one call, not one per
instant; the dispatch is the stepper's, except that sleeps and waits no
other occurrence can precede warp (above), which no stepper check could
observe either.  A halted run never warps past, nor sets the clock beyond,
its halting instant.
"""

from __future__ import annotations

import heapq
from collections import deque
from types import GeneratorType as _GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

from repro.errors import SimulationError
from repro.obs.tracer import active_tracer

ProcessGen = Generator[Any, Any, Any]

_PENDING = object()

# Hot-path bindings: module-level names resolve faster than attribute
# lookups on ``heapq`` inside the kernel loops.
_heappush = heapq.heappush
_heappop = heapq.heappop

# Heap entries are ``(when, seq, is_process, target, value, exc)``.  The
# boolean type tag is precomputed at push time so the pop path never runs
# ``isinstance``; it can never participate in tuple comparison because the
# sequence number in slot 1 is unique.
#
# Delay-zero occurrences (process spawns, event-fire wakeups) skip the heap
# entirely: they go to ``Engine._nowq``, a FIFO deque of
# ``(is_process, target, value, exc)`` entries all due at the current clock
# value.  Ordering stays exactly the heap's: a heap entry at ``when == now``
# was pushed with a positive delay from an *earlier* time, i.e. before any
# delay-zero entry enqueued at ``now``, so draining heap ties first replays
# the old seq order while the common spawn/wakeup path costs one deque
# append instead of a heappush + heappop.
_PROC = True
_EVENT = False

_new_timeout = object.__new__

_INF = float("inf")


class _Halt:
    """What a ``run(stop=...)`` event's trigger leaves behind.

    On ``Engine._crashed`` it tells the loop, which tests that list after
    every dispatched item anyway, to end with this instant.  As a now-queue
    entry it is a no-op (an event that has already fired) whose one effect
    is to fail the lonely-sleep guard (``not nowq``), so the rest of the
    step that triggered the stop cannot warp past the halting instant.
    Neither costs the loop a check per item.
    """

    __slots__ = ()
    triggered = True


_HALT = _Halt()
_HALT_ENTRY = (_EVENT, _HALT, None, None)


class Event:
    """A one-shot occurrence that simulated processes can wait on."""

    __slots__ = ("engine", "_value", "_exc", "triggered", "_waiters", "callbacks")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self.triggered = False
        # Processes blocked on this event, resumed in FIFO order.  Allocated
        # lazily (None until the first waiter): most events are waited on by
        # at most one process, and many by none.
        self._waiters: Optional[list["Process"]] = None
        # Plain callables invoked on trigger: callback(event).
        self.callbacks: list[Callable[["Event"], None]] = []

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exc is None

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, waking all waiters."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self._value = value
        # _fire() inlined (succeed is the hot trigger path): wake waiters
        # with a deque append each, then run callbacks if any.
        waiters = self._waiters
        if waiters:
            nowq = self.engine._nowq
            for proc in waiters:
                nowq.append((_PROC, proc, value, None))
            self._waiters = None
        callbacks = self.callbacks
        if callbacks:
            # The first pass of _run_callbacks() inlined; a callback that
            # registered another one leaves the rest to it.
            self.callbacks = []
            for cb in callbacks:
                cb(self)
            if self.callbacks:
                self._run_callbacks()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Fire the event as a failure; waiters see ``exc`` raised."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() requires an exception, got {exc!r}")
        self.triggered = True
        self._exc = exc
        self._fire()
        return self

    def _fire(self) -> None:
        waiters = self._waiters
        if waiters:
            nowq = self.engine._nowq
            value = self._value
            exc = self._exc
            for proc in waiters:
                nowq.append((_PROC, proc, value, exc))
            self._waiters = None
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for cb in callbacks:
                cb(self)
            if self.callbacks:
                self._run_callbacks()

    def _run_callbacks(self) -> None:
        # Snapshot the callback list before iterating: a callback that
        # registers another callback on this event must see it run exactly
        # once (appending to the list being iterated would double-run it;
        # clearing afterwards would silently drop it).  Loop until no new
        # callbacks appear.
        while True:
            callbacks = self.callbacks
            if not callbacks:
                return
            self.callbacks = []
            for cb in callbacks:
                cb(self)


class Timeout(Event):
    """An event that fires automatically after a delay.

    Built only by :meth:`Engine.timeout`.  Prefer ``yield <int>`` inside
    processes (it avoids allocating an event); a ``Timeout`` is what an API
    returns to be waited on (a device request's completion) or composed with
    :class:`AnyOf` (a wait with a deadline).
    """

    __slots__ = ()

    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        raise SimulationError("a Timeout is made by Engine.timeout(delay, value)")


class AllOf(Event):
    """Fires once every child event has succeeded.

    Its value is the list of child values in construction order.  If any
    child fails, ``AllOf`` fails with the first failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self._children = list(events)
        self._remaining = 0
        for ev in self._children:
            if self.triggered:
                # An earlier child already failed the composite: attaching
                # callbacks to the remaining children would leak them and
                # re-enter fail() paths when those children trigger.
                break
            if ev.triggered:
                if ev._exc is not None:
                    self.fail(ev._exc)
                continue
            self._remaining += 1
            ev.callbacks.append(self._on_child)
        if not self.triggered and self._remaining == 0:
            self.succeed([ev._value for ev in self._children])

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self._children])


class AnyOf(Event):
    """Fires as soon as any child event triggers; value is ``(event, value)``."""

    __slots__ = ("_children",)

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        # Event.__init__ inlined: every wait with a deadline builds one.
        self.engine = engine
        self._value = _PENDING
        self._exc = None
        self.triggered = False
        self._waiters = None
        self.callbacks = []
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        for ev in self._children:
            if ev.triggered:
                if ev._exc is not None:
                    self.fail(ev._exc)
                else:
                    self.succeed((ev, ev._value))
                return
        for ev in self._children:
            ev.callbacks.append(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
        else:
            self.succeed((ev, ev._value))


class Process(Event):
    """A simulated thread of control wrapping a generator.

    A ``Process`` is itself an :class:`Event` that triggers when the
    generator returns (value = the generator's return value) or raises
    (failure).  ``yield some_process`` therefore joins it.
    """

    __slots__ = ("gen", "name")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str = "") -> None:
        # Event.__init__ inlined: spawning is hot (one Process per simulated
        # operation in the write path) and the extra call shows in profiles.
        self.engine = engine
        self._value = _PENDING
        self._exc = None
        self.triggered = False
        self._waiters = None
        self.callbacks = []
        if gen.__class__ is not _GeneratorType and not hasattr(gen, "send"):
            raise SimulationError(f"Process requires a generator, got {type(gen).__name__}")
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        engine._nowq.append((_PROC, self, None, None))
        if engine._trace:
            engine.tracer.process_spawn(self.name)

    @property
    def done(self) -> bool:
        return self.triggered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "active"
        return f"<Process {self.name} {state}>"


# The kernel's own event types: the dispatch loop recognises a yielded event
# by one set lookup, calling ``isinstance`` only for other subclasses.
_EVENT_CLASSES = frozenset((Event, Timeout, AllOf, AnyOf, Process))


class Engine:
    """The simulation event loop and virtual clock.

    ``tracer`` is a :class:`repro.obs.Tracer` to record this engine's runs
    into; by default the globally active tracer is used (the shared no-op
    tracer unless :func:`repro.obs.set_active_tracer` installed a real one).
    """

    __slots__ = (
        "now",
        "_heap",
        "_nowq",
        "_seq",
        "_running",
        "_crashed",
        "tracer",
        "_trace",
    )

    def __init__(self) -> None:
        # The virtual clock in nanoseconds: a plain attribute, read without
        # a call.  ``run()`` is its only writer (a tier-1 AST check keeps
        # every other module from assigning it).
        self.now = 0
        self._heap: list[tuple[int, int, bool, Any, Any, Optional[BaseException]]] = []
        # Delay-zero occurrences due at the current clock value (FIFO).
        self._nowq: deque = deque()
        self._seq = 0
        self._running = False
        self._crashed: list[Process] = []
        self.tracer = active_tracer().bind(self)
        # Cached so hot paths skip even the no-op tracer calls when tracing
        # is off (NullTracer.enabled is False; EngineTracer.enabled True).
        self._trace = bool(self.tracer.enabled)

    # -- public API -------------------------------------------------------

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Register a generator as a new simulated process."""
        return Process(self, gen, name)

    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` nanoseconds from now.

        One call per timeout (every device request makes one): the event's
        slots are set and its occurrence is queued right here.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        ev = _new_timeout(Timeout)
        ev.engine = self
        ev._value = _PENDING
        ev._exc = None
        ev.triggered = False
        ev._waiters = None
        ev.callbacks = []
        if delay:
            self._seq = seq = self._seq + 1
            _heappush(self._heap, (self.now + int(delay), seq, _EVENT, ev, value, None))
        else:
            self._nowq.append((_EVENT, ev, value, None))
        return ev

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def run(self, until: Optional[int] = None, stop: Sequence[Event] = ()) -> int:
        """Run until the heap drains, the clock reaches ``until``, or an
        event in ``stop`` triggers.

        Returns the clock value at exit.  A ``stop`` event ends the run at
        the end of the instant in which it triggers (module docstring); one
        that has already triggered returns at once, dispatching nothing.  A
        process in ``stop`` counts as joined while the run lasts: its failure
        halts the run for the caller to inspect.  Unhandled exceptions in
        processes that nothing joined are re-raised here (errors never pass
        silently), also in a halting instant.  An ``until`` in the past is an
        error: the clock never runs backwards.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                f"run(until={until}) lies before the clock ({self.now})"
            )
        halt = None
        if stop:
            for ev in stop:
                if ev.triggered:
                    return self.now
            # A bound method, not a closure: a closure would turn the loop's
            # hot locals into cell variables.
            halt = self._halt
            for ev in stop:
                ev.callbacks.append(halt)
        self._running = True
        heap = self._heap
        nowq = self._nowq
        heappop = _heappop
        heappush = _heappush
        popleft = nowq.popleft
        crashed_box = self._crashed
        trace = self._trace
        limit = _INF if until is None else until
        now = self.now
        try:
            while True:
                if nowq:
                    # Heap entries tied at the current clock value predate
                    # every queued delay-zero entry; drain them first.
                    if heap and heap[0][0] <= now:
                        when, _, is_proc, target, value, exc = heappop(heap)
                        self.now = now = when
                    else:
                        is_proc, target, value, exc = popleft()
                elif heap:
                    when = heap[0][0]
                    if when > limit:
                        self.now = limit
                        break
                    when, _, is_proc, target, value, exc = heappop(heap)
                    self.now = now = when
                else:
                    if until is not None and self.now < limit:
                        self.now = limit
                    break
                if is_proc:
                    # Process stepping inlined: advancing a generator is the
                    # single hottest operation in the simulator, and a method
                    # call per resume plus re-binding the engine state it
                    # needs measurably slows every experiment.  Lonely
                    # sleeps (module docstring) warp the clock and resume
                    # inline; other sleeps push a heap entry directly (no
                    # allocation beyond the entry tuple itself) with a
                    # precomputed type tag so this loop never runs
                    # ``isinstance`` on the pop path.
                    gen = target.gen
                    send = gen.send
                    while True:
                        try:
                            if exc is not None:
                                pending_exc, exc = exc, None
                                yielded = gen.throw(pending_exc)
                            else:
                                yielded = send(value)
                        except StopIteration as ret:
                            target.triggered = True
                            target._value = ret.value
                            if target._waiters is not None or target.callbacks:
                                target._fire()
                            if trace:
                                self.tracer.process_finish(target.name, True)
                            break
                        except BaseException as err:  # noqa: BLE001 - crashed
                            target.triggered = True
                            target._exc = err
                            if not target._waiters and not target.callbacks:
                                # Nobody is joining this process: surface it.
                                crashed_box.append(target)
                            target._fire()
                            if trace:
                                self.tracer.process_finish(target.name, False)
                            break

                        cls = yielded.__class__
                        if cls is int or cls is float:
                            # Sleep (the most common yield); floats truncate
                            # to whole nanoseconds.
                            if yielded > 0:
                                wake = now + (
                                    yielded if cls is int else int(yielded)
                                )
                                if (
                                    not nowq
                                    and (not heap or heap[0][0] > wake)
                                    and wake <= limit
                                ):
                                    # Lonely sleep: warp, resume inline.
                                    self.now = now = wake
                                    value = None
                                    continue
                                self._seq = seq = self._seq + 1
                                heappush(
                                    heap, (wake, seq, True, target, None, None)
                                )
                                break
                            if yielded == 0:
                                value = now
                                continue
                            exc = SimulationError(f"negative sleep: {yielded}")
                            continue
                        if cls in _EVENT_CLASSES or isinstance(yielded, Event):
                            if yielded.triggered:
                                if yielded._exc is not None:
                                    exc = yielded._exc
                                    continue
                                value = yielded._value
                                continue
                            waiters = yielded._waiters
                            if waiters is None:
                                if heap and not nowq:
                                    # Lonely wait (module docstring): the
                                    # head entry fires this event, nothing
                                    # else watches it and nothing else can
                                    # run first: take the entry, resume.
                                    head = heap[0]
                                    wake = head[0]
                                    if (
                                        head[3] is yielded
                                        and not head[2]
                                        and not yielded.callbacks
                                        and wake <= limit
                                        and (len(heap) < 2 or heap[1][0] > wake)
                                        and (len(heap) < 3 or heap[2][0] > wake)
                                    ):
                                        heappop(heap)
                                        self.now = now = wake
                                        yielded.triggered = True
                                        value = yielded._value = head[4]
                                        continue
                                yielded._waiters = [target]
                            else:
                                waiters.append(target)
                            break
                        exc = SimulationError(
                            f"process {target.name!r} yielded unsupported "
                            f"value {yielded!r}"
                        )
                elif not target.triggered:
                    # an event occurrence queued by Engine.timeout
                    if exc is not None:
                        target.fail(exc)
                    else:
                        target.succeed(value)
                if crashed_box:
                    for crashed in crashed_box:
                        if crashed is not _HALT:
                            raise SimulationError(
                                f"process {crashed.name!r} crashed"
                            ) from crashed._exc
                    # Only halt marks: a stop event triggered.  Drain this
                    # instant, then leave through an exit that writes
                    # ``limit`` (no warp can pass it either).
                    crashed_box.clear()
                    limit = now
        finally:
            self._running = False
            if halt is not None:
                # Detach, so this run's halt cannot cut a later run short.
                for ev in stop:
                    if not ev.triggered:
                        ev.callbacks.remove(halt)
                if crashed_box:
                    # A crash cut the halting instant short: drop its marks.
                    crashed_box[:] = [p for p in crashed_box if p is not _HALT]
                    kept = [entry for entry in nowq if entry is not _HALT_ENTRY]
                    nowq.clear()
                    nowq.extend(kept)
            # A traceback through this frame keeps its locals alive: drop the
            # last exception and the last process, or they form a cycle with it.
            pending_exc = exc = target = None
        return self.now

    def peek(self) -> Optional[int]:
        """Timestamp of the next scheduled occurrence, or None if idle."""
        if self._nowq:
            return self.now
        return self._heap[0][0] if self._heap else None

    def clear_pending(self) -> int:
        """Drop every scheduled occurrence (simulated power loss).

        Suspended processes are never resumed — exactly what happens to
        in-flight work when the machine dies.  Returns the number of
        cancelled occurrences.
        """
        if self._running:
            raise SimulationError("clear_pending() during run() is not supported")
        dropped = len(self._heap) + len(self._nowq)
        self._heap.clear()
        self._nowq.clear()
        return dropped

    # -- kernel internals ---------------------------------------------------

    def _halt(self, _ev: Event) -> None:
        """Trigger callback of a ``run(stop=...)`` event (see :class:`_Halt`)."""
        self._crashed.append(_HALT)
        self._nowq.append(_HALT_ENTRY)
