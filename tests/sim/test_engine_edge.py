"""Edge-case tests for the DES kernel's composite events and callbacks."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine, Timeout


def test_all_of_fails_with_first_child_failure(engine):
    def bad():
        yield 10
        raise ValueError("first")

    def good():
        yield 50
        return "ok"

    def parent():
        try:
            yield engine.all_of([engine.process(bad()), engine.process(good())])
        except ValueError as err:
            return (engine.now, str(err))

    p = engine.process(parent())
    engine.run()
    assert p.value == (10, "first")


def test_all_of_with_pretriggered_children(engine):
    ev1 = engine.event().succeed("a")
    ev2 = engine.event().succeed("b")

    def parent():
        values = yield engine.all_of([ev1, ev2])
        return values

    p = engine.process(parent())
    engine.run()
    assert p.value == ["a", "b"]


def test_all_of_with_prefailed_child(engine):
    failed = engine.event()
    failed.fail(RuntimeError("pre"))

    def parent():
        try:
            yield engine.all_of([failed, engine.timeout(100)])
        except RuntimeError as err:
            return str(err)

    p = engine.process(parent())
    engine.run()
    assert p.value == "pre"


def test_any_of_with_pretriggered_child(engine):
    ready = engine.event().succeed("instant")

    def parent():
        ev, value = yield engine.any_of([ready, engine.timeout(1000)])
        return (engine.now, value)

    p = engine.process(parent())
    engine.run()
    assert p.value == (0, "instant")


def test_any_of_empty_rejected(engine):
    with pytest.raises(SimulationError):
        engine.any_of([])


def test_any_of_failure_propagates(engine):
    def bad():
        yield 5
        raise KeyError("boom")

    def parent():
        try:
            yield engine.any_of([engine.process(bad()), engine.timeout(100)])
        except KeyError:
            return "caught"

    p = engine.process(parent())
    engine.run()
    assert p.value == "caught"


def test_timeout_with_value(engine):
    def parent():
        value = yield engine.timeout(42, value="payload")
        return (engine.now, value)

    p = engine.process(parent())
    engine.run()
    assert p.value == (42, "payload")


def test_negative_timeout_rejected(engine):
    with pytest.raises(SimulationError):
        engine.timeout(-1)


def test_timeout_is_made_only_by_the_engine(engine):
    assert isinstance(engine.timeout(5), Timeout)
    with pytest.raises(SimulationError, match="Engine.timeout"):
        Timeout(engine, 42, value="payload")


def test_event_callbacks_fire_once_in_order(engine):
    calls = []
    ev = engine.event()
    ev.callbacks.append(lambda e: calls.append("a"))
    ev.callbacks.append(lambda e: calls.append("b"))
    ev.succeed()
    assert calls == ["a", "b"]
    assert ev.callbacks == []  # consumed


def test_event_ok_and_exception_accessors(engine):
    ev = engine.event()
    assert not ev.ok
    ev.succeed(1)
    assert ev.ok and ev.exception is None

    bad = engine.event()
    bad.fail(ValueError("x"))
    assert bad.triggered and not bad.ok
    assert isinstance(bad.exception, ValueError)


def test_clear_pending_cancels_everything(engine):
    resumed = []

    def sleeper():
        yield 100
        resumed.append(True)

    engine.process(sleeper())
    assert engine.clear_pending() == 1
    engine.run()
    assert resumed == []
    assert engine.peek() is None


def test_clear_pending_during_run_rejected(engine):
    def proc():
        engine.clear_pending()
        yield 1

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_process_requires_generator(engine):
    with pytest.raises(SimulationError):
        engine.process([1, 2, 3])


def test_join_failed_process_after_completion(engine):
    """A pre-registered joiner sees the failure even if it collects late."""
    def bad():
        yield 1
        raise RuntimeError("late join")

    crashed = engine.process(bad())
    # Registering interest marks the crash as handled...
    crashed.callbacks.append(lambda _ev: None)

    def parent():
        yield 100  # ...so collecting the result later still works.
        try:
            yield crashed
        except RuntimeError:
            return "seen"

    p = engine.process(parent())
    engine.run()
    assert p.value == "seen"


def test_unjoined_crash_is_loud(engine):
    """Without any joiner, a crash surfaces from run() (never silent)."""
    def bad():
        yield 1
        raise RuntimeError("nobody listening")

    engine.process(bad())
    with pytest.raises(SimulationError, match="crashed"):
        engine.run()
