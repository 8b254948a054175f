"""Tests for simulated synchronization primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.resources import Lock, Semaphore, Store


def test_lock_fast_path_no_suspension(engine):
    lock = Lock(engine)

    def proc():
        yield lock.acquire()
        t = engine.now
        lock.release()
        return t

    p = engine.process(proc())
    engine.run()
    assert p.value == 0
    assert lock.in_use == 0


def test_lock_mutual_exclusion(engine):
    lock = Lock(engine)
    active = []
    overlaps = []

    def proc(name):
        yield lock.acquire()
        active.append(name)
        if len(active) > 1:
            overlaps.append(tuple(active))
        yield 100
        active.remove(name)
        lock.release()

    for name in "abc":
        engine.process(proc(name))
    engine.run()
    assert overlaps == []
    assert engine.now == 300  # strictly serialized


def test_lock_fifo_fairness(engine):
    lock = Lock(engine)
    order = []

    def holder():
        yield lock.acquire()
        yield 100
        lock.release()

    def waiter(name, arrive):
        yield arrive
        yield lock.acquire()
        order.append(name)
        lock.release()

    engine.process(holder())
    engine.process(waiter("late", 20))
    engine.process(waiter("later", 30))
    engine.process(waiter("latest", 40))
    engine.run()
    assert order == ["late", "later", "latest"]


def test_semaphore_capacity(engine):
    sem = Semaphore(engine, 2)
    concurrency = []
    active = [0]

    def proc():
        yield sem.acquire()
        active[0] += 1
        concurrency.append(active[0])
        yield 100
        active[0] -= 1
        sem.release()

    for _ in range(5):
        engine.process(proc())
    engine.run()
    assert max(concurrency) == 2
    assert engine.now == 300  # ceil(5/2) * 100


def test_semaphore_try_acquire(engine):
    sem = Semaphore(engine, 1)
    assert sem.try_acquire()
    assert not sem.try_acquire()
    sem.release()
    assert sem.try_acquire()


def test_semaphore_over_release_raises(engine):
    sem = Semaphore(engine, 1)
    with pytest.raises(SimulationError):
        sem.release()


def test_semaphore_invalid_capacity(engine):
    with pytest.raises(SimulationError):
        Semaphore(engine, 0)


def test_semaphore_queue_len(engine):
    sem = Semaphore(engine, 1)

    def holder():
        yield sem.acquire()
        yield 100
        sem.release()

    def waiter():
        yield 10
        yield sem.acquire()
        sem.release()

    engine.process(holder())
    engine.process(waiter())
    engine.run(until=50)
    assert sem.queue_len == 1
    engine.run()
    assert sem.queue_len == 0


def test_store_put_then_get(engine):
    store = Store(engine)
    store.put("x")

    def getter():
        item = yield store.get()
        return item

    p = engine.process(getter())
    engine.run()
    assert p.value == "x"


def test_store_get_blocks_until_put(engine):
    store = Store(engine)

    def getter():
        item = yield store.get()
        return (engine.now, item)

    def putter():
        yield 300
        store.put("late")

    p = engine.process(getter())
    engine.process(putter())
    engine.run()
    assert p.value == (300, "late")


def test_store_fifo_items_and_getters(engine):
    store = Store(engine)
    got = []

    def getter(name):
        item = yield store.get()
        got.append((name, item))

    engine.process(getter("g1"))
    engine.process(getter("g2"))

    def putter():
        yield 10
        store.put("first")
        store.put("second")

    engine.process(putter())
    engine.run()
    assert got == [("g1", "first"), ("g2", "second")]


def test_store_try_get(engine):
    store = Store(engine)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put(7)
    ok, item = store.try_get()
    assert ok and item == 7
    assert len(store) == 0
