"""Waits with a deadline: ``any_of(events, timeout=d)`` against the composition
it replaced, and what a finished wait leaves behind.

A wait with a deadline used to be ``any_of(events + [engine.timeout(d)])``.
When the work won, the ``Timeout`` stayed in the heap with the wait's
callback on it, keeping the wait, its children and the processes they name
alive until the deadline fired into an already-triggered composite.
``timeout=`` queues the same occurrence at the same place (the next
sequence number, or the now-queue for ``d == 0``) and cancels it as soon as
the wait ends: the entry pops as a no-op, and the wait detaches from every
child that lost.

The spec (the old form kept as the reference) runs drawn
schedules both ways — the work first, the deadline first, both at one
instant, a child already triggered at construction, ``d == 0``, a failing
child, a lonely wait whose heap head is the deadline — and holds equal every
process's resume instants and order, the values, and the ``peek()``
sequence.  The one documented difference: where the old wait evaluated to
``(timeout, None)``, the new one evaluates to :data:`TIMED_OUT`.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.dst.cluster import ClusterDstRun
from repro.dst.serving import ServingDstRun
from repro.errors import SimulationError
from repro.sim.engine import TIMED_OUT, AnyOf, Engine
from tests.lsm.test_no_cyclic_garbage import cyclic_garbage

EVENTS = 3


def old_wait(engine, children, delay):
    """The composition the ``timeout=`` form replaces."""
    deadline = engine.timeout(delay)
    fired, value = yield engine.any_of(children + [deadline])
    return TIMED_OUT if fired is deadline else (fired, value)


def new_wait(engine, children, delay):
    return (yield engine.any_of(children, timeout=delay))


def run_script(engine, wait, events, pid, script, log):
    for op, *args in script:
        if op == "sleep":
            yield args[0]
        elif op in ("succeed", "fail"):
            ev = events[args[0]]
            if ev.triggered:
                continue
            if op == "succeed":
                ev.succeed(args[1])
            else:
                ev.fail(RuntimeError(f"{pid} failed {args[0]}"))
            log.append((engine.now, pid, op, args[0]))
        else:  # a wait on events ``args[0]`` with deadline ``args[1]``
            children = [events[i] for i in args[0]]
            try:
                fired, value = yield from wait(engine, children, args[1])
            except RuntimeError as err:
                log.append((engine.now, pid, "raised", str(err)))
            else:
                which = "deadline" if fired is None else events.index(fired)
                log.append((engine.now, pid, "woke", which, value))


def observe(wait, scripts, stepped):
    """The log, the ``peek()`` sequence (when ``stepped``) and the final clock."""
    engine = Engine()
    events = [engine.event() for _ in range(EVENTS)]
    log, peeks = [], []
    for pid, script in enumerate(scripts):
        engine.process(run_script(engine, wait, events, pid, script, log), name=f"p{pid}")
    if stepped:
        while (at := engine.peek()) is not None:
            peeks.append(at)
            engine.run(until=at)
    else:
        engine.run()
    return log, peeks, engine.now


ops = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 4)),
    st.tuples(st.just("succeed"), st.integers(0, EVENTS - 1), st.integers(0, 9)),
    st.tuples(st.just("fail"), st.integers(0, EVENTS - 1)),
    st.tuples(
        st.just("wait"),
        st.lists(st.integers(0, EVENTS - 1), max_size=EVENTS, unique=True).map(tuple),
        st.integers(0, 5),
    ),
)
schedules = st.lists(st.lists(ops, max_size=6), min_size=1, max_size=4)


@given(scripts=schedules, stepped=st.booleans())
@example(scripts=[[("wait", (0,), 3)]], stepped=False)  # lonely: the deadline is the head
@example(scripts=[[("wait", (0,), 3)]], stepped=True)
@example(scripts=[[("wait", (0,), 2)], [("sleep", 2), ("succeed", 0, 7)]], stepped=False)
@example(scripts=[[("wait", (0,), 4)], [("sleep", 2), ("succeed", 0, 7)]], stepped=True)
@example(scripts=[[("succeed", 1, 5), ("wait", (0, 1), 3)]], stepped=False)  # pre-triggered
@example(scripts=[[("wait", (0, 1), 0)], [("succeed", 1, 5)]], stepped=False)  # d == 0
@example(scripts=[[("wait", (0, 2), 5)], [("sleep", 1), ("fail", 2)]], stepped=True)
@example(scripts=[[("wait", (), 2), ("wait", (0,), 1)], [("wait", (0,), 3)]], stepped=True)
def test_timeout_form_dispatches_as_the_composition(scripts, stepped):
    assert observe(new_wait, scripts, stepped) == observe(old_wait, scripts, stepped)


def test_the_deadline_side_evaluates_to_timed_out(engine):
    seen = []

    def waiter():
        seen.append((yield engine.any_of([engine.event()], timeout=10)))
        seen.append(engine.now)

    engine.process(waiter())
    engine.run()
    assert seen == [TIMED_OUT, 10] and TIMED_OUT == (None, None)


def test_a_bad_timeout_wait_is_refused(engine):
    with pytest.raises(SimulationError, match="negative timeout"):
        engine.any_of([engine.event()], timeout=-1)
    with pytest.raises(SimulationError, match="at least one event or a timeout"):
        engine.any_of([])


def test_a_finished_wait_detaches_from_every_side(engine):
    """Work first: the loser and the deadline entry drop the wait.  Deadline
    first: every child drops it.  A child already triggered: nothing is
    attached, and the deadline entry is cancelled at once."""
    loser, winner, late = engine.event(), engine.event(), engine.event()

    def waits():
        yield engine.any_of([loser, winner], timeout=50)
        yield engine.any_of([loser, late], timeout=5)
        yield engine.any_of([loser, winner], timeout=50)

    def fire():
        yield 1
        winner.succeed()

    engine.process(waits())
    engine.process(fire())
    engine.run(until=2)
    # The first wait detached from ``loser``; only the open second wait is on it.
    assert len(loser.callbacks) == 1 and winner.callbacks == []
    first, second = sorted(engine._heap)  # the deadlines at 6 and at 50
    assert first[3].wait is not None  # the second wait is open
    assert second[3].triggered and second[3].wait is None  # lazily cancelled
    engine.run()
    assert loser.callbacks == [] and late.callbacks == []
    # The third wait's deadline (at 56) was cancelled at construction; both
    # dead entries pop as no-ops that only move the clock.
    assert engine.now == 56 and not engine._heap


def test_a_manual_trigger_detaches_too(engine):
    child = engine.event()
    wait = engine.any_of([child], timeout=10)
    wait.succeed("by hand")
    assert child.callbacks == []
    engine.run()
    assert wait.value == "by hand" and engine.now == 10


def test_a_manual_failure_detaches_too(engine):
    child = engine.event()
    wait = engine.any_of([child], timeout=10)
    wait.fail(RuntimeError("by hand"))
    assert child.callbacks == [] and wait._deadline is None
    engine.run()
    assert isinstance(wait.exception, RuntimeError) and engine.now == 10


def test_deadline_waits_leave_no_cyclic_garbage(engine):
    """1,000 waits the work wins and 1,000 the deadline wins, their losers
    dropped: nothing for the collector.  (Before waits detached, each
    expired wait stayed in a cycle with the child that never fired.)"""

    def burst(wait):
        def waiter(i):
            if i % 2:
                yield from wait(engine, [engine.timeout(3)], 100)
            else:
                yield from wait(engine, [engine.event()], 5)

        for i in range(2000):
            engine.process(waiter(i))
        engine.run()

    assert cyclic_garbage(lambda: burst(new_wait)) == 0


@pytest.mark.parametrize("harness", [ClusterDstRun, ServingDstRun], ids=["cluster", "serving"])
def test_only_open_waits_stay_alive_after_a_seed_run(harness):
    """With the collector off, the ``AnyOf`` objects a seed run leaves alive
    are the waits still open: a finished one is freed when its process
    resumes, not when its deadline fires (the old composition left 24 and
    122 finished waits after seed 0)."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = [obj for obj in gc.get_objects() if type(obj) is AnyOf]
        known = {id(obj) for obj in before}
        assert harness(0).run().verdict == "PASS"
        live = [obj for obj in gc.get_objects() if type(obj) is AnyOf and id(obj) not in known]
        assert [wait for wait in live if wait.triggered] == []
    finally:
        if was_enabled:
            gc.enable()
