"""SstFileManager: compaction-space reservation and the low-space signal."""

from repro.fs.filesystem import EXTENT_BYTES
from repro.lsm.sst_file_manager import SstFileManager
from repro.sim.units import kb
from tests.conftest import tiny_options


def make_manager(null_fs, **opts):
    return SstFileManager(null_fs, tiny_options(**opts))


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

