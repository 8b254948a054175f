"""Concurrency tests: many simulated clients sharing one DB."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.value import ValueRef
from repro.sim.engine import Engine
from repro.sim.units import kb
from repro.storage.profiles import xpoint_ssd
from tests.conftest import group_sizes, make_db, tiny_options


def key(i):
    return b"%010d" % i


def run_all(engine, procs):
    done = [engine.process(p, name=f"client-{i}") for i, p in enumerate(procs)]
    for proc in done:
        proc.callbacks.append(lambda _ev: None)
    engine.run()
    for proc in done:
        if proc.exception is not None:
            raise proc.exception
    return done


def test_disjoint_writers_all_visible(engine):
    db = make_db(engine, profile=xpoint_ssd(), options=tiny_options())
    n_clients, per_client = 8, 100

    def writer(base):
        for i in range(per_client):
            yield from db.put(key(base + i), ValueRef(base + i, 64))

    run_all(engine, [writer(c * 1000) for c in range(n_clients)])

    def checker():
        for c in range(n_clients):
            for i in range(0, per_client, 9):
                got = yield from db.get(key(c * 1000 + i))
                assert got == ValueRef(c * 1000 + i, 64)

    run_all(engine, [checker()])


def test_group_commit_batches_concurrent_writers(engine):
    db = make_db(engine, profile=xpoint_ssd(), options=tiny_options())
    (sizes,) = group_sizes(db)  # one write queue

    def writer(base):
        for i in range(50):
            yield from db.put(key(base + i), b"v" * 64)

    run_all(engine, [writer(c * 1000) for c in range(16)])
    total_writers = sum(sizes)
    total_groups = len(sizes)
    assert total_writers == 16 * 50
    # With 16 concurrent writers, group commit must actually batch.
    assert total_groups < total_writers


def test_readers_concurrent_with_compaction(engine):
    """Readers holding version references survive file turnover."""
    db = make_db(
        engine,
        profile=xpoint_ssd(),
        options=tiny_options(write_buffer_size=kb(4)),
    )

    def writer():
        for i in range(2500):
            yield from db.put(key(i % 500), ValueRef(i, 64))

    def reader():
        misses = 0
        for i in range(800):
            value = yield from db.get(key(i % 500))
            if value is None:
                misses += 1
        return misses

    procs = run_all(engine, [writer(), reader(), reader()])
    # Compactions definitely ran while readers were active.
    assert db.stats.get("compaction.count") >= 1
    for proc in procs[1:]:
        assert proc.value is not None


def test_sequence_numbers_strictly_increasing_across_groups(engine):
    db = make_db(engine, profile=xpoint_ssd(), options=tiny_options())

    def writer(base):
        for i in range(40):
            yield from db.put(key(base + i), b"v")

    run_all(engine, [writer(c * 100) for c in range(6)])
    assert db.versions.last_sequence == 6 * 40


def test_interleaved_read_write_same_key(engine):
    """A reader always sees either the old or the new value, never garbage."""
    db = make_db(engine, profile=xpoint_ssd(), options=tiny_options())
    db.run_sync(db.put(key(1), b"v0"))
    seen = []

    def flipper():
        for gen in range(1, 30):
            yield from db.put(key(1), b"v%d" % gen)

    def watcher():
        for _ in range(60):
            value = yield from db.get(key(1))
            seen.append(value)
            yield 1000

    run_all(engine, [flipper(), watcher()])
    assert all(v is not None and v.startswith(b"v") for v in seen)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_concurrent_run_deterministic(seed):
    """The same seed gives a bit-identical concurrent execution."""
    def trace(run_seed):
        engine = Engine()
        db = make_db(engine, profile=xpoint_ssd(), options=tiny_options())
        from repro.sim.rng import RandomStream

        rng = RandomStream(run_seed, "conc")
        stamps = []

        def client(cid):
            for i in range(30):
                if rng.chance(0.5):
                    yield from db.put(key(cid * 100 + i), b"v")
                else:
                    yield from db.get(key(cid * 100 + i))
                stamps.append(engine.now)

        for cid in range(4):
            engine.process(client(cid))
        engine.run()
        return stamps

    assert trace(seed) == trace(seed)
