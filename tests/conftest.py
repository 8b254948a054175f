"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import settings

from repro.errors import SimulationError
from repro.fs.filesystem import SimFileSystem
from repro.fs.page_cache import PageCache
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.obs import active_tracer, set_active_tracer
from repro.sim.engine import Engine
from repro.sim import stats
from repro.sim.rng import RandomStream
from repro.sim.units import kb, mb
from repro.storage.device import StorageDevice
from repro.storage.profiles import null_device, xpoint_ssd

settings.register_profile("repro", max_examples=50, deadline=None)
settings.load_profile("repro")


def numpy_from(size: int):
    """Context manager: batches of ``size`` elements or more take numpy
    (the gate's :data:`~repro.sim.stats.BULK_MIN`, lowered so that small
    test batches reach the vectorized paths)."""
    return mock.patch.object(stats, "BULK_MIN", size)


def without_numpy():
    """Context manager: every bulk path takes pure Python, as under
    ``REPRO_NO_NUMPY=1``."""
    return mock.patch.object(stats, "_NO_NUMPY", True)


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> RandomStream:
    return RandomStream(42, "tests")


def traced_engine(tracer) -> Engine:
    """An engine that records into ``tracer``: active while it is built."""
    previous = active_tracer()
    set_active_tracer(tracer)
    try:
        return Engine()
    finally:
        set_active_tracer(previous)


def make_fs(engine: Engine, profile=None, cache_bytes: int = mb(16)) -> SimFileSystem:
    """A filesystem on a fresh device (instant 'null' device by default)."""
    device = StorageDevice(engine, profile or null_device(), RandomStream(1))
    return SimFileSystem(engine, device, PageCache(cache_bytes))


@pytest.fixture
def null_fs(engine: Engine) -> SimFileSystem:
    return make_fs(engine)


def tiny_options(**overrides) -> Options:
    """Options small enough that a few thousand puts exercise everything."""
    base = dict(
        write_buffer_size=kb(64),
        max_bytes_for_level_base=kb(256),
        target_file_size_base=kb(64),
        block_cache_bytes=kb(64),
        memtable_rep="hash",
        name="tiny-test",
    )
    base.update(overrides)
    return Options(**base)


def make_db(engine: Engine, profile=None, options: Options | None = None, **fs_kwargs) -> DB:
    """A DB on a fresh machine (null device unless told otherwise)."""
    fs = make_fs(engine, profile=profile, **fs_kwargs)
    return DB(engine, fs, options or tiny_options())


def run_op(engine: Engine, gen, name: str = "test-op"):
    """Drive one generator to completion; return its value or raise its error.

    The run ends at the end of the instant in which the operation finishes
    (``stop`` joins it, so its error re-raises here, not from the engine);
    background work keeps running up to then.
    """
    proc = engine.process(gen, name=name)
    engine.run(stop=[proc])
    assert proc.done, f"{name} deadlocked at t={engine.now}"
    if proc.exception is not None:
        raise proc.exception
    return proc.value


@pytest.fixture
def xpoint_db(engine: Engine) -> DB:
    return make_db(engine, profile=xpoint_ssd(), options=tiny_options())


class TimeWeightedGauge:
    """Time-weighted average of a stepwise value: the Fig. 16 spec.

    The write queue used to keep one of these and update it with the queue
    length at every transition; it now sums each writer's wait instead.
    ``tests/lsm/test_pipelined_write.py`` holds the queue to this rule.
    """

    def __init__(self) -> None:
        self._value = 0.0
        self._last_t: int | None = None
        self._area = 0.0
        self._start: int | None = None
        self.max_value = 0.0

    def update(self, now: int, value: float) -> None:
        """Record that the gauge changed to ``value`` at time ``now``."""
        if self._last_t is None:
            self._start = now
        else:
            if now < self._last_t:
                raise SimulationError("gauge updated with a past timestamp")
            self._area += self._value * (now - self._last_t)
        self._last_t = now
        self._value = value
        if value > self.max_value:
            self.max_value = value

    def mean(self, now: int | None = None) -> float:
        """Time-weighted mean from first update to ``now`` (or last update)."""
        if self._last_t is None or self._start is None:
            return 0.0
        end = self._last_t if now is None else max(now, self._last_t)
        elapsed = end - self._start
        if elapsed <= 0:
            return self._value
        area = self._area + self._value * (end - self._last_t)
        return area / elapsed
