"""Tests for the extent-based simulated filesystem."""

import pytest

from repro.errors import (
    FileExistsInFS,
    FileNotFoundInFS,
    FileSystemError,
    OutOfSpaceError,
)
from repro.fs.filesystem import EXTENT_BYTES, SimFileSystem
from repro.fs.page_cache import PageCache
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import KB, MB, mb
from repro.storage.device import StorageDevice
from repro.storage.profiles import null_device, xpoint_ssd
from tests.conftest import make_fs, run_op


class TestNamespace:
    def test_create_open_exists(self, engine, null_fs):
        f = null_fs.create("a/b.sst")
        assert null_fs.exists("a/b.sst")
        assert null_fs.open("a/b.sst") is f

    def test_create_duplicate_raises(self, null_fs):
        null_fs.create("x")
        with pytest.raises(FileExistsInFS):
            null_fs.create("x")

    def test_open_missing_raises(self, null_fs):
        with pytest.raises(FileNotFoundInFS):
            null_fs.open("missing")

    def test_delete(self, null_fs):
        null_fs.create("x")
        null_fs.delete("x")
        assert not null_fs.exists("x")
        with pytest.raises(FileNotFoundInFS):
            null_fs.delete("x")

    def test_list_prefix_sorted(self, null_fs):
        for name in ("wal/2", "wal/1", "sst/9"):
            null_fs.create(name)
        assert null_fs.list("wal/") == ["wal/1", "wal/2"]
        assert null_fs.list() == ["sst/9", "wal/1", "wal/2"]

    def test_rename(self, null_fs):
        f = null_fs.create("old")
        null_fs.rename("old", "new")
        assert null_fs.open("new") is f
        assert not null_fs.exists("old")

    def test_rename_collision(self, null_fs):
        null_fs.create("a")
        null_fs.create("b")
        with pytest.raises(FileExistsInFS):
            null_fs.rename("a", "b")


class TestAppendReadSync:
    def test_append_grows_size(self, null_fs):
        f = null_fs.create("f")
        f.append(100)
        f.append(50)
        assert f.size == 150

    def test_append_nonpositive_raises(self, null_fs):
        f = null_fs.create("f")
        with pytest.raises(FileSystemError):
            f.append(0)

    def test_read_beyond_eof_raises(self, null_fs):
        f = null_fs.create("f")
        f.append(100)
        with pytest.raises(FileSystemError):
            f.read(50, 100)

    def test_read_after_append_hits_page_cache(self, engine, null_fs):
        f = null_fs.create("f")
        f.append(4 * KB)
        assert f.read(0, 4 * KB) is None  # fully cached: no wait event
        assert null_fs.stats.get("cached_reads") == 1

    def test_cold_read_goes_to_device(self, engine):
        fs = make_fs(engine, profile=xpoint_ssd())
        f = fs.install_synced("cold", MB)
        ev = f.read(0, 4 * KB)
        assert ev is not None

        def proc():
            yield ev

        run_op(engine, proc())
        assert fs.stats.get("device_reads") == 1

    def test_sync_marks_durable(self, engine):
        fs = make_fs(engine, profile=xpoint_ssd())
        f = fs.create("f")
        f.append(64 * KB)
        assert f.synced_size == 0

        def proc():
            yield from f.sync()

        run_op(engine, proc())
        assert f.synced_size == 64 * KB

    def test_writeback_threshold_triggers_device_writes(self, engine):
        fs = make_fs(engine, profile=xpoint_ssd())
        f = fs.create("f", writeback_bytes=64 * KB, dirty_limit_bytes=mb(8))
        f.append(128 * KB)  # crosses the 64 KB writeback threshold
        engine.run()
        assert fs.device.writes > 0
        assert f.synced_size == 128 * KB  # async writeback completed

    def test_backpressure_event_at_dirty_limit(self, engine):
        fs = make_fs(engine, profile=xpoint_ssd())
        f = fs.create("f", writeback_bytes=64 * KB, dirty_limit_bytes=128 * KB)
        events = [f.append(64 * KB) for _ in range(8)]
        assert any(ev is not None for ev in events)
        assert fs.stats.get("writeback_stalls") > 0

    def test_append_on_deleted_file_raises(self, null_fs):
        f = null_fs.create("f")
        null_fs.delete("f")
        with pytest.raises(FileSystemError):
            f.append(10)


class TestExtents:
    def test_extents_allocated_on_demand(self, null_fs):
        f = null_fs.create("f")
        f.append(EXTENT_BYTES + 1)
        assert len(f.extents) == 2

    def test_extents_reused_after_delete(self, null_fs):
        f1 = null_fs.create("f1")
        f1.append(EXTENT_BYTES)
        phys = list(f1.extents)
        null_fs.delete("f1")
        f2 = null_fs.create("f2")
        f2.append(EXTENT_BYTES)
        assert f2.extents == phys

    def test_out_of_space(self, engine):
        device = StorageDevice(engine, null_device(capacity_bytes=2 * EXTENT_BYTES),
                               RandomStream(1))
        fs = SimFileSystem(engine, device, PageCache(mb(1)))
        f = fs.create("big")
        with pytest.raises(OutOfSpaceError):
            f.append(3 * EXTENT_BYTES)

    def test_physical_runs_respect_extent_boundaries(self, null_fs):
        f = null_fs.create("f")
        f.append(2 * EXTENT_BYTES)
        runs = list(null_fs._physical_runs(f, EXTENT_BYTES - 100, 200))
        assert len(runs) == 2
        assert runs[0][1] == 100
        assert runs[1][1] == 100

    def test_quota_enforced_on_append(self, null_fs):
        null_fs.set_quota(2 * EXTENT_BYTES)
        f = null_fs.create("f")
        f.append(2 * EXTENT_BYTES)  # exactly at the quota: fine
        with pytest.raises(OutOfSpaceError) as exc_info:
            f.append(1)
        assert exc_info.value.path == "f"
        assert exc_info.value.free_bytes == 0
        assert null_fs.stats.get("quota_enospc") == 1

    def test_quota_enforced_on_create(self, null_fs):
        null_fs.set_quota(EXTENT_BYTES)
        null_fs.create("a").append(EXTENT_BYTES)
        with pytest.raises(OutOfSpaceError):
            null_fs.create("b")

    def test_failed_append_reserves_nothing(self, null_fs):
        """ENOSPC mid-growth must not leak half-allocated extents."""
        null_fs.set_quota(2 * EXTENT_BYTES)
        f = null_fs.create("f")
        used_before = null_fs.used_bytes()
        with pytest.raises(OutOfSpaceError):
            f.append(3 * EXTENT_BYTES)
        assert null_fs.used_bytes() == used_before
        assert f.size == 0
        f.append(EXTENT_BYTES)  # the survivor still has room

    def test_quota_capacity_accounting(self, null_fs):
        assert null_fs.free_bytes() == null_fs.capacity_bytes()
        null_fs.set_quota(3 * EXTENT_BYTES)
        assert null_fs.capacity_bytes() == 3 * EXTENT_BYTES
        f = null_fs.create("f")
        f.append(EXTENT_BYTES)
        assert null_fs.used_bytes() == EXTENT_BYTES
        assert null_fs.free_bytes() == 2 * EXTENT_BYTES
        null_fs.set_quota(None)  # lifting restores device capacity
        assert null_fs.free_bytes() > 2 * EXTENT_BYTES

    def test_quota_lift_unblocks_growth(self, null_fs):
        null_fs.set_quota(EXTENT_BYTES)
        f = null_fs.create("f")
        f.append(EXTENT_BYTES)
        with pytest.raises(OutOfSpaceError):
            f.append(1)
        null_fs.set_quota(None)
        f.append(EXTENT_BYTES)
        assert f.size == 2 * EXTENT_BYTES

    def test_negative_quota_rejected(self, null_fs):
        with pytest.raises(FileSystemError):
            null_fs.set_quota(-1)

    def test_install_synced(self, null_fs):
        f = null_fs.install_synced("pre", 3 * EXTENT_BYTES)
        assert f.size == f.synced_size == 3 * EXTENT_BYTES
        assert len(f.extents) == 3
        # Installed content is cold: a read misses the page cache.
        assert not null_fs.page_cache.contains(f.file_id, 0, 4 * KB)


class TestCrash:
    def test_crash_truncates_unsynced(self, engine):
        fs = make_fs(engine, profile=xpoint_ssd())
        f = fs.create("f")
        f.append(16 * KB, record="r1")

        def proc():
            yield from f.sync()

        run_op(engine, proc())
        f.append(16 * KB, record="r2")  # never synced
        fs.crash()
        assert f.size == 16 * KB
        assert [rec for _, rec in f.records] == ["r1"]

    def test_crash_drops_page_cache(self, engine):
        fs = make_fs(engine, profile=xpoint_ssd())
        f = fs.create("f")
        f.append(4 * KB)
        fs.crash()
        assert not fs.page_cache.contains(f.file_id, 0, 4 * KB)

    def test_records_below_watermark_survive(self, engine):
        fs = make_fs(engine, profile=xpoint_ssd())
        f = fs.create("f", writeback_bytes=8 * KB)
        for i in range(10):
            f.append(4 * KB, record=f"r{i}")
        engine.run()  # let async writeback finish
        synced_before = f.synced_size
        f.append(4 * KB, record="lost")
        fs.crash()
        kept = [rec for _, rec in f.records]
        assert "lost" not in kept
        assert len(kept) == synced_before // (4 * KB)
