"""Small tests covering remaining public API corners."""

import pytest

from repro.sim.engine import Engine
from repro.sim.resources import Semaphore
from repro.sim.rng import RandomStream


def test_rng_distribution_helpers_deterministic():
    a, b = RandomStream(3, "d"), RandomStream(3, "d")
    assert a.uniform(0, 10) == b.uniform(0, 10)
    assert a.expovariate(2.0) == b.expovariate(2.0)
    assert a.lognormal(0.0, 0.5) == b.lognormal(0.0, 0.5)


def test_rng_distribution_helpers_sane_ranges():
    rng = RandomStream(4, "ranges")
    for _ in range(100):
        assert 0 <= rng.uniform(0, 10) <= 10
        assert rng.expovariate(1.0) >= 0
        assert rng.lognormal(0.0, 0.3) > 0


def test_semaphore_usage_accessors(engine):
    sem = Semaphore(engine, 3)
    assert sem.available == 3 and sem.in_use == 0
    assert sem.try_acquire()
    assert sem.available == 2 and sem.in_use == 1
    sem.release()
    assert sem.in_use == 0


def test_memtable_is_empty_and_estimate():
    from repro.lsm.memtable import MemTable

    mt = MemTable(rep="hash")
    assert mt.is_empty()
    assert mt.entry_count == 0
    mt.add(b"k", (1, 1, b"v"))
    mt.add(b"k", (2, 1, b"w"))  # an overwrite adds no entry
    assert not mt.is_empty()
    assert mt.entry_count == len(mt) == 1


def test_compaction_metadata_accessors(engine):
    from repro.lsm.compaction import Compaction
    from repro.lsm.format import KIND_PUT
    from repro.lsm.sst import SSTBuilder
    from repro.lsm.version import FileMetadata
    from tests.conftest import make_fs

    fs = make_fs(engine)

    def meta(number, start):
        b = SSTBuilder(number, 1024, 0)
        for i in range(start, start + 10):
            b.add(b"%06d" % i, (i + 1, KIND_PUT, b"v" * 20))
        sst = b.finish()
        f = fs.install_synced(f"sst/{number}.sst", sst.file_bytes)
        f.payload = sst
        return FileMetadata(number, sst, f, 0)

    upper, lower = meta(1, 0), meta(2, 100)
    c = Compaction(0, 1, [upper], [lower])
    assert c.input_bytes == upper.file_bytes + lower.file_bytes
    smallest, largest = c.key_range()
    assert smallest == b"%06d" % 0
    assert largest == b"%06d" % 109
    assert "Compaction L0->L1" in repr(c)


def test_version_edit_encoded_bytes_scales():
    from repro.lsm.version import VersionEdit

    small = VersionEdit().delete_file(1, 7)
    big = VersionEdit()
    for i in range(10):
        big.delete_file(1, i)
    assert big.encoded_bytes() > small.encoded_bytes() > 0
