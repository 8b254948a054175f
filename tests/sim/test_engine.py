"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_clock_starts_at_zero(engine):
    assert engine.now == 0


def test_timeout_advances_clock(engine):
    log = []

    def proc():
        yield 100
        log.append(engine.now)
        yield 250
        log.append(engine.now)

    engine.process(proc())
    engine.run()
    assert log == [100, 350]


def test_zero_sleep_does_not_advance_clock(engine):
    def proc():
        yield 0
        return engine.now

    p = engine.process(proc())
    engine.run()
    assert p.value == 0


def test_negative_sleep_raises(engine):
    def proc():
        yield -5

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_run_until_stops_early(engine):
    hits = []

    def proc():
        for _ in range(10):
            yield 100
            hits.append(engine.now)

    engine.process(proc())
    engine.run(until=450)
    assert hits == [100, 200, 300, 400]
    assert engine.now == 450


def test_run_until_idle_advances_to_deadline(engine):
    engine.run(until=5_000)
    assert engine.now == 5_000


def test_run_until_in_the_past_is_rejected(engine):
    """run(until=t) with t < now used to rewind the clock to t."""

    def proc():
        yield 10
        yield 20

    engine.process(proc())
    assert engine.run(until=15) == 15
    with pytest.raises(SimulationError):
        engine.run(until=5)
    assert engine.now == 15
    assert engine.run(until=15) == 15  # the present is not the past
    assert engine.run() == 30


# -- lonely-sleep warp --------------------------------------------------------
# A sleep nothing else can observe skips the heap (the clock jumps, the
# generator resumes inline); these pin the cases where it must not.


def test_lonely_sleeps_take_no_heap_entry(engine):
    stamps = []

    def proc():
        ev = engine.event()
        ev.succeed(7)
        assert (yield ev) == 7
        # A warped resume sends None like a heap resume, not the stale 7.
        for delay in (100, 2.9):  # floats truncate to whole nanoseconds
            got = yield delay
            stamps.append((engine.now, got))

    engine.process(proc())
    assert engine.run() == 102
    assert stamps == [(100, None), (102, None)]
    assert engine._seq == 0


def test_sleep_crossing_until_is_not_warped_past_it(engine):
    stamps = []

    def proc():
        for delay in (100, 100, 50.0):
            yield delay
            stamps.append(engine.now)

    engine.process(proc())
    assert engine.run(until=150) == 150
    assert stamps == [100]
    assert engine.peek() == 200
    assert engine.run(until=200) == 200  # wake == until still fires
    assert stamps == [100, 200]
    assert engine.run(until=249) == 249
    assert engine.run() == 250
    assert stamps == [100, 200, 250]


@pytest.mark.parametrize("second_leg", [6, 6.0])
def test_heap_entry_tied_at_wakeup_fires_before_the_sleeper(engine, second_leg):
    order = []

    def early():  # queued behind late's spawn: its sleep goes to the heap
        yield 10
        order.append(("early", engine.now))

    def late():
        yield 4  # lonely up to t=4 ...
        yield second_leg  # ... but t=10 ties with early's older entry
        order.append(("late", engine.now))

    engine.process(early())
    engine.process(late())
    engine.run()
    assert order == [("early", 10), ("late", 10)]


def test_nonempty_now_queue_blocks_the_warp(engine):
    ev = engine.event()
    order = []

    def waiter():
        yield ev
        order.append(("waiter", engine.now))

    def trigger():
        yield 3
        ev.succeed()  # waiter is now due at t=3, ahead of our wake-up
        yield 5
        order.append(("trigger", engine.now))

    engine.process(waiter())
    engine.process(trigger())
    engine.run()
    assert order == [("waiter", 3), ("trigger", 8)]


def test_process_return_value(engine):
    def proc():
        yield 1
        return "done"

    p = engine.process(proc())
    engine.run()
    assert p.done
    assert p.value == "done"


def test_join_process(engine):
    def child():
        yield 500
        return 42

    def parent():
        value = yield engine.process(child())
        return (engine.now, value)

    p = engine.process(parent())
    engine.run()
    assert p.value == (500, 42)


def test_join_already_finished_process(engine):
    def child():
        yield 10
        return "early"

    def parent(c):
        yield 100  # child finishes first
        value = yield c
        return value

    c = engine.process(child())
    p = engine.process(parent(c))
    engine.run()
    assert p.value == "early"


def test_event_succeed_wakes_waiters_in_fifo_order(engine):
    ev = engine.event()
    order = []

    def waiter(name):
        yield ev
        order.append(name)

    def trigger():
        yield 50
        ev.succeed("go")

    engine.process(waiter("a"))
    engine.process(waiter("b"))
    engine.process(trigger())
    engine.run()
    assert order == ["a", "b"]


def test_event_value_passes_to_waiter(engine):
    ev = engine.event()

    def waiter():
        value = yield ev
        return value

    def trigger():
        yield 5
        ev.succeed(123)

    p = engine.process(waiter())
    engine.process(trigger())
    engine.run()
    assert p.value == 123


def test_event_failure_raises_in_waiter(engine):
    ev = engine.event()

    def waiter():
        try:
            yield ev
        except ValueError as err:
            return f"caught {err}"

    def trigger():
        yield 5
        ev.fail(ValueError("boom"))

    p = engine.process(waiter())
    engine.process(trigger())
    engine.run()
    assert p.value == "caught boom"


def test_event_cannot_trigger_twice(engine):
    ev = engine.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_value_before_trigger_raises(engine):
    ev = engine.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_unhandled_crash_surfaces_from_run(engine):
    def proc():
        yield 10
        raise RuntimeError("unhandled")

    engine.process(proc())
    with pytest.raises(SimulationError, match="crashed"):
        engine.run()


def test_crash_propagates_to_joiner_not_run(engine):
    def child():
        yield 10
        raise RuntimeError("child failed")

    def parent():
        try:
            yield engine.process(child())
        except RuntimeError as err:
            return str(err)

    p = engine.process(parent())
    engine.run()
    assert p.value == "child failed"


def test_all_of_collects_values(engine):
    def worker(delay, value):
        yield delay
        return value

    def parent():
        procs = [engine.process(worker(d, v)) for d, v in ((30, "a"), (10, "b"))]
        values = yield engine.all_of(procs)
        return (engine.now, values)

    p = engine.process(parent())
    engine.run()
    assert p.value == (30, ["a", "b"])


def test_all_of_empty_fires_immediately(engine):
    def parent():
        values = yield engine.all_of([])
        return values

    p = engine.process(parent())
    engine.run()
    assert p.value == []


def test_any_of_fires_on_first(engine):
    def worker(delay, value):
        yield delay
        return value

    def parent():
        slow = engine.process(worker(100, "slow"))
        fast = engine.process(worker(10, "fast"))
        ev, value = yield engine.any_of([slow, fast])
        return (engine.now, value, ev is fast)

    p = engine.process(parent())
    engine.run()
    assert p.value == (10, "fast", True)


def test_timeout_event_composable_with_any_of(engine):
    def parent():
        never = engine.event()
        ev, _ = yield engine.any_of([never, engine.timeout(500, "deadline")])
        return engine.now

    p = engine.process(parent())
    engine.run()
    assert p.value == 500


def test_same_time_events_fire_in_schedule_order(engine):
    order = []

    def proc(name):
        yield 100
        order.append(name)

    for name in ("first", "second", "third"):
        engine.process(proc(name), name=name)
    engine.run()
    assert order == ["first", "second", "third"]


def test_peek_returns_next_timestamp(engine):
    def proc():
        yield 77

    engine.process(proc())
    assert engine.peek() == 0  # initial process start is scheduled at t=0
    engine.run(until=0)
    assert engine.peek() == 77


def test_yield_unsupported_value_crashes_process(engine):
    def proc():
        yield "not an event"

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_run_not_reentrant(engine):
    def proc():
        engine.run()
        yield 1

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


@given(delays=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30))
def test_clock_is_monotonic_for_any_delays(delays):
    engine = Engine()
    stamps = []

    def proc():
        for d in delays:
            yield d
            stamps.append(engine.now)

    engine.process(proc())
    engine.run()
    assert stamps == sorted(stamps)
    assert stamps[-1] == sum(delays)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_deterministic_replay(seed):
    """Two engines running identical stochastic programs agree exactly."""
    from repro.sim.rng import RandomStream

    def trace(run_seed):
        engine = Engine()
        rng = RandomStream(run_seed, "replay")
        log = []

        def proc():
            for _ in range(20):
                yield rng.randint(1, 1000)
                log.append(engine.now)

        engine.process(proc())
        engine.run()
        return log

    assert trace(seed) == trace(seed)
