"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.fs.filesystem import SimFileSystem
from repro.fs.page_cache import PageCache
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import kb, mb
from repro.storage.device import StorageDevice
from repro.storage.profiles import null_device, xpoint_ssd

settings.register_profile("repro", max_examples=50, deadline=None)
settings.load_profile("repro")


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def rng() -> RandomStream:
    return RandomStream(42, "tests")


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
