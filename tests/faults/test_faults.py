"""Unit tests for the fault-injection layer (repro.faults)."""

import pytest

from repro.errors import CorruptionError, FaultConfigError, IOFaultError
from repro.faults import (
    CORRUPT_APPEND,
    CORRUPT_SST_BLOCK,
    CRASH,
    LATENCY_SPIKE,
    READ_ERROR,
    STALL,
    TORN_APPEND,
    WRITE_ERROR,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
)
from repro.fs.filesystem import SimFileSystem
from repro.fs.page_cache import PageCache
from repro.lsm.sst import SSTBuilder
from repro.lsm.wal import scan_log
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import KB, mb, us
from repro.storage.device import StorageDevice
from repro.storage.profiles import xpoint_ssd
from tests.conftest import run_op


def make_faulty(engine, schedule):
    injector = FaultInjector(engine, schedule)
    device = StorageDevice(engine, xpoint_ssd(), injector=injector)
    fs = SimFileSystem(engine, device, PageCache(mb(4)), injector)
    return injector, device, fs


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSpec("disk_on_fire")

    def test_bad_count_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(READ_ERROR, count=0)

    def test_latency_needs_magnitude(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(LATENCY_SPIKE, extra_ns=0)

    def test_path_filter_invalid_for_device_faults(self):
        with pytest.raises(FaultConfigError):
            FaultSpec(READ_ERROR, path="wal/")

    def test_json_round_trip(self, tmp_path):
        schedule = FaultSchedule(
            [
                FaultSpec(READ_ERROR, at_op=3, count=2, transient=False),
                FaultSpec(STALL, at_time=us(500), extra_ns=us(100)),
                FaultSpec(TORN_APPEND, path="wal/", at_time=123),
                FaultSpec(CRASH, at_time=999),
            ]
        )
        assert FaultSchedule.from_json(schedule.to_json()).specs == schedule.specs
        path = tmp_path / "sched.json"
        schedule.to_file(str(path))
        assert FaultSchedule.from_file(str(path)).specs == schedule.specs

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultConfigError):
            FaultSchedule.from_json("not json")
        with pytest.raises(FaultConfigError):
            FaultSchedule.from_json('{"kind": "read_error"}')  # not a list
        with pytest.raises(FaultConfigError):
            FaultSchedule.from_json('[{"kind": "read_error", "bogus": 1}]')

    def test_random_schedule_is_seed_deterministic(self):
        a = FaultSchedule.random(RandomStream(9, "s"), us(1000))
        b = FaultSchedule.random(RandomStream(9, "s"), us(1000))
        c = FaultSchedule.random(RandomStream(10, "s"), us(1000))
        assert a.to_json() == b.to_json()
        assert a.to_json() != c.to_json() or len(a) != len(c)


class TestDeviceFaults:
    def test_read_error_raises_typed_exception(self):
        engine = Engine()
        _, device, _ = make_faulty(
            engine, FaultSchedule([FaultSpec(READ_ERROR, at_op=2)])
        )
        device.read(0, 4096)  # op 1: clean
        with pytest.raises(IOFaultError) as exc_info:
            device.read(0, 4096)  # op 2: fires
        assert exc_info.value.transient
        assert exc_info.value.op == "read"
        device.read(0, 4096)  # spec retired: clean again

    def test_read_error_does_not_match_writes(self):
        engine = Engine()
        _, device, _ = make_faulty(
            engine, FaultSchedule([FaultSpec(READ_ERROR, at_op=1)])
        )
        device.write(0, 4096)  # writes never match a read_error spec
        with pytest.raises(IOFaultError):
            device.read(0, 4096)

    def test_latency_spike_stretches_completion(self):
        extra = us(300)
        baseline = Engine()
        _, clean_dev, _ = make_faulty(baseline, FaultSchedule())
        ev = clean_dev.read(0, 4096)
        baseline.run()
        clean_ns = baseline.now

        engine = Engine()
        _, device, _ = make_faulty(
            engine, FaultSchedule([FaultSpec(LATENCY_SPIKE, extra_ns=extra)])
        )
        ev = device.read(0, 4096)
        fired = []
        ev.callbacks.append(lambda _ev: fired.append(engine.now))
        engine.run()
        assert fired == [clean_ns + extra]

    def test_write_error_surfaces_at_fsync_and_retries(self):
        """Async writeback faults defer to fsync (EIO-on-fsync semantics)."""
        engine = Engine()
        injector, _, fs = make_faulty(
            engine, FaultSchedule([FaultSpec(WRITE_ERROR, at_op=1)])
        )
        f = fs.create("data", writeback_bytes=1 << 30)  # no async writeback

        def op():
            f.append(8192)
            with pytest.raises(IOFaultError):
                yield from f.sync()  # first writeback write faults
            yield from f.sync()  # spec retired: retry succeeds
            return f.synced_size

        assert run_op(engine, op()) == 8192
        assert fs.stats.get("fsync_errors") == 1
        assert injector.log  # the injected fault is on the record

    def test_crash_at_op_sets_pending_flag(self):
        engine = Engine()
        injector, device, _ = make_faulty(
            engine, FaultSchedule([FaultSpec(CRASH, at_op=3)])
        )
        device.read(0, 512)
        device.write(0, 512)
        assert not injector.crash_pending
        device.read(0, 512)
        assert injector.crash_pending
        assert "crash" in injector.crash_requested.value

    def test_crash_at_time_fires_via_poll(self):
        engine = Engine()
        injector, _, _ = make_faulty(
            engine, FaultSchedule([FaultSpec(CRASH, at_time=us(100))])
        )
        assert injector.due_crash_time() == us(100)
        assert not injector.poll()
        engine.run(until=us(100))
        assert injector.poll()

    def test_disarm_stops_everything(self):
        engine = Engine()
        injector, device, _ = make_faulty(
            engine, FaultSchedule([FaultSpec(READ_ERROR, count=5)])
        )
        injector.disarm()
        device.read(0, 4096)  # would fire without disarm
        assert not injector.active


class TestFilesystemFaults:
    def test_torn_append_moves_watermark_mid_record(self):
        engine = Engine()
        injector, _, fs = make_faulty(
            engine, FaultSchedule([FaultSpec(TORN_APPEND, path="wal/")])
        )
        f = fs.create("wal/000001.log")
        f.append(1000, record="r1")
        assert 0 < f.synced_size < 1000  # torn: mid-record watermark
        assert fs.stats.get("injected_torn_appends") == 1
        fs.crash()
        assert fs.stats.get("torn_records") == 1

    def test_torn_append_on_a_writeback_stall(self):
        """The filesystem hook sees an append last, on the writeback-stall
        return too: the whole record is handed to writeback first, then the
        tear moves the durable watermark into it."""
        engine = Engine()
        injector, device, fs = make_faulty(
            engine, FaultSchedule([FaultSpec(TORN_APPEND, path="wal/")])
        )
        f = fs.create("wal/000001.log", writeback_bytes=4 * KB, dirty_limit_bytes=8 * KB)
        stall = f.append(16 * KB, record="r1")
        assert stall is not None  # write() blocks on writeback
        assert device.bytes_written == 16 * KB
        assert f.synced_size == 8 * KB
        assert injector.log == [f"t=0 torn_append wal/000001.log @0+{16 * KB} torn_to={8 * KB}"]

    def test_path_filter_restricts_torn_appends(self):
        engine = Engine()
        _, _, fs = make_faulty(
            engine, FaultSchedule([FaultSpec(TORN_APPEND, path="wal/")])
        )
        other = fs.create("sst/000001.sst")
        other.append(1000, record="r1")
        assert other.synced_size == 0  # untouched: path does not match

    def test_corrupt_append_fails_wal_scan(self):
        engine = Engine()
        from repro.lsm.wal import WalRecord

        _, _, fs = make_faulty(
            engine, FaultSchedule([FaultSpec(CORRUPT_APPEND, path="wal/", at_op=2)])
        )
        f = fs.create("wal/000001.log")
        f.append(100, record=WalRecord([(b"k1", (1, 1, b"v1"))]))
        f.append(100, record=WalRecord([(b"k2", (2, 1, b"v2"))]))
        f.append(100, record=WalRecord([(b"k3", (3, 1, b"v3"))]))
        assert f.is_corrupt(100, 100)
        good, good_bytes, bad = scan_log(f)
        assert len(good) == 1 and good_bytes == 100 and bad == 2

    def test_corrupt_sst_block_breaks_verification(self):
        engine = Engine()
        _, _, fs = make_faulty(
            engine, FaultSchedule([FaultSpec(CORRUPT_SST_BLOCK, path="sst/", block=0)])
        )
        builder = SSTBuilder(1, block_size=512, bloom_bits_per_key=0)
        for i in range(50):
            builder.add(b"k%04d" % i, (i + 1, 1, b"v%04d" % i + b"x" * 48))
        sst = builder.finish()
        assert sst.block_count > 1
        f = fs.create("sst/000001.sst")
        f.payload = sst
        f.append(sst.file_bytes)
        with pytest.raises(CorruptionError):
            sst.verify_block(0, f)
        sst.verify_block(1, f)  # other blocks untouched


class TestInjectorLog:
    def test_event_log_is_deterministic(self):
        def one_run():
            engine = Engine()
            schedule = FaultSchedule.random(RandomStream(4, "s"), us(2000))
            injector, device, fs = make_faulty(engine, schedule)
            f = fs.create("wal/000001.log")
            for i in range(30):
                try:
                    f.append(256, record=f"r{i}")
                    device.read(0, 4096)
                except IOFaultError:
                    pass
                engine.run(until=engine.now + us(100))
            return injector.log

        assert one_run() == one_run()
