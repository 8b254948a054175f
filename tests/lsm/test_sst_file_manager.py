"""SstFileManager: compaction-space reservation and deferred deletion."""

from repro.fs.filesystem import EXTENT_BYTES
from repro.lsm.sst_file_manager import SstFileManager
from repro.sim.units import kb
from tests.conftest import tiny_options


class _FakeVersions:
    manifest_dirty = False


def make_manager(null_fs, **opts):
    mgr = SstFileManager(null_fs, tiny_options(**opts))
    mgr.bind(_FakeVersions())
    return mgr


class TestReservation:
    def test_no_quota_always_fits(self, null_fs):
        mgr = make_manager(null_fs)
        assert mgr.try_reserve_compaction(10**12)
        assert mgr.reserved_bytes == 10**12
        mgr.release_compaction(10**12)
        assert mgr.reserved_bytes == 0

    def test_reservations_stack_against_free_space(self, null_fs):
        null_fs.set_quota(4 * EXTENT_BYTES)
        mgr = make_manager(null_fs)
        assert mgr.try_reserve_compaction(2 * EXTENT_BYTES)
        assert mgr.try_reserve_compaction(2 * EXTENT_BYTES)
        # Free space is fully spoken for: the third reservation fails.
        assert not mgr.try_reserve_compaction(1)
        mgr.release_compaction(2 * EXTENT_BYTES)
        assert mgr.try_reserve_compaction(EXTENT_BYTES)

    def test_release_clamps_at_zero(self, null_fs):
        mgr = make_manager(null_fs)
        mgr.release_compaction(123)
        assert mgr.reserved_bytes == 0


class TestLowOnSpace:
    def test_no_quota_is_never_low(self, null_fs):
        assert not make_manager(null_fs).low_on_space()

    def test_threshold_counts_reservations(self, null_fs):
        null_fs.set_quota(4 * EXTENT_BYTES)
        # The threshold is two write buffers: 64 KB.
        mgr = make_manager(null_fs, write_buffer_size=kb(32))
        assert not mgr.low_on_space()
        # Reserve all but the threshold: now we are low.
        mgr.try_reserve_compaction(4 * EXTENT_BYTES - kb(64))
        assert mgr.low_on_space()
        mgr.release_compaction(4 * EXTENT_BYTES - kb(64))
        assert not mgr.low_on_space()


class TestDeferredDeletion:
    def test_immediate_delete_when_manifest_clean(self, null_fs):
        mgr = make_manager(null_fs)
        null_fs.create("sst/000001.sst").append(kb(4))
        mgr.delete_file("sst/000001.sst")
        assert not null_fs.exists("sst/000001.sst")
        assert not mgr.pending_deletions

    def test_deferred_while_manifest_dirty(self, null_fs):
        mgr = make_manager(null_fs)
        null_fs.create("sst/000001.sst").append(kb(4))
        mgr._versions.manifest_dirty = True
        mgr.delete_file("sst/000001.sst")
        # The file survives (crash now must recover the old version).
        assert null_fs.exists("sst/000001.sst")
        assert sum(mgr.pending_deletions.values()) == kb(4)

        mgr._versions.manifest_dirty = False
        assert mgr.flush_pending_deletions() == 1
        assert not null_fs.exists("sst/000001.sst")
        assert not mgr.pending_deletions

    def test_missing_file_deletion_is_harmless(self, null_fs):
        mgr = make_manager(null_fs)
        mgr.delete_file("sst/none.sst")
        mgr._versions.manifest_dirty = True
        mgr.delete_file("sst/none2.sst")
        mgr._versions.manifest_dirty = False
        assert mgr.flush_pending_deletions() == 0
