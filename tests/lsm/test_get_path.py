"""The point-lookup path, pinned by tickers and virtual time.

Every test builds its version by hand (no flush, no compaction) on a device
with a fixed 10 us read latency and no jitter, then asserts the exact
``get.*`` / ``bloom.useful`` tickers one ``DB.get`` moves and the exact
virtual time it takes, term by term from the cost model:

    memtable probe -> per L0 file: range check [-> bloom] -> search
    -> per deeper level: range check [-> bloom] -> index search
    -> block cache lookup [-> device read + block decode] -> find

Layout used throughout (keys are ``b"%06d" % i``)::

    L0 (newest first)  A: 100..119   B: 150..169
    L1                 0..49
    L2                 50..99        (key 70 is a tombstone)
    L4                 300..349
"""

from dataclasses import replace

import pytest

from repro.errors import IOFaultError
from repro.lsm.format import KIND_DELETE, KIND_PUT
from repro.lsm.io_retry import IO_RETRY_BACKOFF_NS
from repro.lsm.sst import SSTBuilder
from repro.lsm.version import FileMetadata, VersionEdit
from repro.sim.engine import Engine
from repro.sim.units import us
from repro.storage.profiles import null_device
from tests.conftest import make_db, tiny_options
from tests.lsm.test_no_cyclic_garbage import cyclic_garbage

DEVICE_READ_NS = us(10)


def key(i: int) -> bytes:
    return b"%06d" % i


def install(db, level: int, keys, seq: int, tombstones=()) -> FileMetadata:
    number = db.versions.new_file_number()
    builder = SSTBuilder(number, db.options.block_size, db.options.bloom_bits_per_key)
    for i in keys:
        entry = (seq, KIND_DELETE, None) if i in tombstones else (seq, KIND_PUT, b"v%d" % i)
        builder.add(key(i), entry)
    sst = builder.finish()
    f = db.fs.install_synced(f"sst/{number:06d}.sst", sst.file_bytes)
    f.payload = sst
    meta = FileMetadata(number, sst, f, level)
    db.versions.apply(VersionEdit().add_file(level, meta))
    return meta


class World:
    """A DB with the module's hand-built version."""

    def __init__(self, **options):
        self.engine = Engine()
        profile = replace(null_device(), read_base_ns=DEVICE_READ_NS)
        self.db = make_db(self.engine, profile=profile, options=tiny_options(**options))
        self.files = {
            "L1": install(self.db, 1, range(0, 50), seq=1),
            "L2": install(self.db, 2, range(50, 100), seq=2, tombstones={70}),
            "L4": install(self.db, 4, range(300, 350), seq=3),
            "B": install(self.db, 0, range(150, 170), seq=4),
            "A": install(self.db, 0, range(100, 120), seq=5),  # newest L0
        }
        self.costs = self.db.costs

    def get(self, k: bytes):
        """(value, virtual ns, tickers moved) of one lookup."""
        before = self.db.stats.tickers()
        start = self.engine.now
        value = self.db.run_sync(self.db.get(k))
        after = self.db.stats.tickers()
        moved = {n: v - before.get(n, 0) for n, v in after.items() if v != before.get(n, 0)}
        return value, self.engine.now - start, moved

    # -- cost terms --------------------------------------------------------

    def probe(self, name: str, level0: bool) -> int:
        """Search + cache lookup + device read + decode of one file's block."""
        c = self.costs
        n = self.files[name].sst.entry_count
        search = c.sst_search(n) if level0 else c.sst_index_search(n)
        return search + c.block_cache_lookup_ns + DEVICE_READ_NS + c.block_decode_ns

    @property
    def mem(self) -> int:
        return self.costs.memtable_lookup(self.db.memtables.mutable.entry_count)

    @property
    def rc(self) -> int:
        return self.costs.sst_range_check_ns


@pytest.fixture
def world():
    return World()


def test_memtable_hit(world):
    world.db.run_sync(world.db.put(key(10), b"fresh"))
    value, ns, moved = world.get(key(10))
    assert value == b"fresh"
    assert ns == world.costs.memtable_lookup(1)
    assert moved == {"gets": 1, "get.memtable_hit": 1}


def test_memtable_tombstone(world):
    world.db.run_sync(world.db.delete(key(10)))
    value, ns, moved = world.get(key(10))
    assert value is None
    assert ns == world.costs.memtable_lookup(1)
    assert moved == {"gets": 1, "get.memtable_hit": 1, "get.tombstone": 1}


def test_miss_range_checks_every_file_and_level(world):
    value, ns, moved = world.get(key(500))
    assert value is None
    # Two L0 files skipped by range, then six deeper levels with no candidate.
    assert ns == world.mem + 2 * world.rc + 6 * world.rc
    assert moved == {"gets": 1, "get.miss": 1}


def test_l0_hit_in_newest_file_stops_the_walk(world):
    value, ns, moved = world.get(key(105))
    assert value == b"v105"
    assert ns == world.mem + world.rc + world.probe("A", level0=True)
    assert moved == {
        "gets": 1, "get.l0_probes": 1, "get.block_device_reads": 1, "get.l0_hit": 1,
    }


def test_l0_file_skipped_by_range(world):
    value, ns, moved = world.get(key(155))
    assert value == b"v155"
    # A (100..119) is rejected by its range check alone: no probe, no search.
    assert ns == world.mem + 2 * world.rc + world.probe("B", level0=True)
    assert moved == {
        "gets": 1, "get.l0_probes": 1, "get.block_device_reads": 1, "get.l0_hit": 1,
    }


@pytest.mark.parametrize("i, probed", [(99, False), (100, True), (119, True), (120, False)])
def test_l0_range_check_is_inclusive(world, i, probed):
    """A (100..119) is probed for its first and last keys, not one beyond."""
    _value, _ns, moved = world.get(key(i))
    assert ("get.l0_probes" in moved) == probed
    assert ("get.l0_hit" in moved) == probed


def test_l1_hit(world):
    value, ns, moved = world.get(key(10))
    assert value == b"v10"
    assert ns == world.mem + 2 * world.rc + world.rc + world.probe("L1", level0=False)
    assert moved == {"gets": 1, "get.block_device_reads": 1, "get.l1_hit": 1}


def test_l2_hit(world):
    value, ns, moved = world.get(key(60))
    assert value == b"v60"
    # L1's only file ends at 49: one range check, no candidate.
    assert ns == world.mem + 2 * world.rc + 2 * world.rc + world.probe("L2", level0=False)
    assert moved == {"gets": 1, "get.block_device_reads": 1, "get.l2_hit": 1}


def test_l2_tombstone(world):
    value, ns, moved = world.get(key(70))
    assert value is None
    assert ns == world.mem + 2 * world.rc + 2 * world.rc + world.probe("L2", level0=False)
    assert moved == {
        "gets": 1, "get.block_device_reads": 1, "get.l2_hit": 1, "get.tombstone": 1,
    }


def test_deep_hit(world):
    value, ns, moved = world.get(key(310))
    assert value == b"v310"
    # L1, L2 and the empty L3 each cost one range check.
    assert ns == world.mem + 2 * world.rc + 4 * world.rc + world.probe("L4", level0=False)
    assert moved == {"gets": 1, "get.block_device_reads": 1, "get.deep_hit": 1}


def test_block_cache_hit_skips_device_read_and_decode(world):
    first = world.get(key(10))
    value, ns, moved = world.get(key(10))
    assert value == b"v10"
    c = world.costs
    assert first[1] - ns == DEVICE_READ_NS + c.block_decode_ns
    assert moved == {"gets": 1, "get.l1_hit": 1}


def test_page_cache_hit_decodes_without_device_read(world):
    world.get(key(10))
    world.db.block_cache.erase_file(world.files["L1"].number, namespace=0)
    value, ns, moved = world.get(key(10))
    assert value == b"v10"
    assert ns == world.mem + 3 * world.rc + world.probe("L1", level0=False) - DEVICE_READ_NS
    assert moved == {"gets": 1, "get.l1_hit": 1}


def absent_key(sst, lo: int, hi: int) -> bytes:
    """A key inside ``sst``'s range that is not in it and its bloom rejects."""
    for i in range(lo, hi):
        k = key(i) + b"x"
        if not sst.may_contain(k):
            return k
    raise AssertionError("no bloom-rejected key in range")


def test_bloom_useful_at_l0():
    world = World(bloom_bits_per_key=10)
    k = absent_key(world.files["A"].sst, 100, 119)
    value, ns, moved = world.get(k)
    assert value is None
    bloom = world.costs.bloom_probe_ns
    # A: range check + bloom reject; B: range check; L1..L6: range checks.
    assert ns == world.mem + 2 * world.rc + bloom + 6 * world.rc
    assert moved == {"gets": 1, "get.l0_probes": 1, "bloom.useful": 1, "get.miss": 1}


def test_bloom_useful_at_l1():
    world = World(bloom_bits_per_key=10)
    k = absent_key(world.files["L1"].sst, 0, 49)
    value, ns, moved = world.get(k)
    assert value is None
    bloom = world.costs.bloom_probe_ns
    assert ns == world.mem + 2 * world.rc + 6 * world.rc + bloom
    assert moved == {"gets": 1, "bloom.useful": 1, "get.miss": 1}


# -- the fault path -----------------------------------------------------------


class FlakyFile:
    """A file whose next block reads raise the queued faults."""

    def __init__(self, file, faults):
        self._file = file
        self.faults = list(faults)

    def read(self, offset, nbytes, sequential=False):
        if self.faults:
            raise self.faults.pop(0)
        return self._file.read(offset, nbytes, sequential)

    def __getattr__(self, name):
        return getattr(self._file, name)


# (file, key, range checks before it, is it in L0) per faulted level.
FAULT_SITES = {"L0": ("A", 105, 1, True), "L1": ("L1", 10, 3, False)}


def before_read(world, site) -> int:
    """The CPU a lookup at ``site`` charges before its block read."""
    name, _i, checks, level0 = FAULT_SITES[site]
    probe = world.probe(name, level0) - DEVICE_READ_NS - world.costs.block_decode_ns
    return world.mem + checks * world.rc + probe


def transient():
    return IOFaultError("injected read fault", op="read", transient=True)


@pytest.mark.parametrize("site", sorted(FAULT_SITES))
def test_transient_faults_retry_with_doubling_backoff(world, site):
    name, i, _checks, _level0 = FAULT_SITES[site]
    meta = world.files[name]
    meta.file = FlakyFile(meta.file, [transient() for _ in range(3)])
    value, ns, moved = world.get(key(i))
    assert value == b"v%d" % i
    backoff = IO_RETRY_BACKOFF_NS * (1 + 2 + 4)
    assert IO_RETRY_BACKOFF_NS == us(200)
    assert ns == before_read(world, site) + backoff + DEVICE_READ_NS + world.costs.block_decode_ns
    assert moved["get.io_retries"] == 3
    assert "get.io_retries_exhausted" not in moved


@pytest.mark.parametrize("site", sorted(FAULT_SITES))
def test_exhausted_retries_raise(world, site):
    name, i, _checks, _level0 = FAULT_SITES[site]
    meta = world.files[name]
    meta.file = FlakyFile(meta.file, [transient() for _ in range(4)])
    start = world.engine.now
    with pytest.raises(IOFaultError):
        world.db.run_sync(world.db.get(key(i)))
    assert world.engine.now - start == before_read(world, site) + IO_RETRY_BACKOFF_NS * 7
    assert world.db.stats.get("get.io_retries") == 3
    assert world.db.stats.get("get.io_retries_exhausted") == 1
    assert world.db.versions.current.refs == 1  # the lookup's ref was dropped


@pytest.mark.parametrize("site", sorted(FAULT_SITES))
def test_permanent_fault_propagates_uncounted(world, site):
    name, i, _checks, _level0 = FAULT_SITES[site]
    meta = world.files[name]
    fault = IOFaultError("media failure", op="read", transient=False)
    meta.file = FlakyFile(meta.file, [fault])
    start = world.engine.now
    with pytest.raises(IOFaultError) as info:
        world.db.run_sync(world.db.get(key(i)))
    assert info.value is fault
    assert world.engine.now - start == before_read(world, site)
    assert world.db.stats.get("get.io_retries") == 0
    assert world.db.stats.get("get.io_retries_exhausted") == 0


def test_retried_read_leaves_no_cyclic_garbage(world):
    """No frame of the retry keeps a fault it handled: a fault's traceback
    holds the frames it passed, so a kept link would be a cycle per retry."""
    meta = world.files["L1"]
    meta.file = FlakyFile(meta.file, [transient() for _ in range(3)])
    assert cyclic_garbage(lambda: world.get(key(10))) == 0
