"""Primitive costs: host ns per call of one public function driven in isolation.

Each primitive is a factory that builds fresh state and returns ``run(n)``,
which makes ``n`` calls in a plain ``for`` loop (the loop's own ~30 ns is part
of every figure, equally).  The harness sizes ``n`` for ~``SAMPLE_S`` of host
time, takes ``SAMPLES`` samples on fresh state and reports the median, so a
primitive is measured for ~0.4 s in total.  Nothing here is end-to-end: the
numbers localise a regression to a layer, they do not add up to an op.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict, List

SAMPLES = 5
SAMPLE_S = 0.08
MAX_CALLS = 200_000
_KEYS = 4096

Run = Callable[[int], None]


def _keys() -> List[bytes]:
    from repro.workloads.generators import encode_key

    return [encode_key((i * 2654435761) % 1_000_000) for i in range(_KEYS)]


def _machine(engine=None, page_cache_mb: float = 4):
    """(engine, device, fs): one xpoint node, on ``engine`` if given."""
    from repro.fs.filesystem import SimFileSystem
    from repro.fs.page_cache import PageCache
    from repro.sim.engine import Engine
    from repro.sim.rng import RandomStream
    from repro.sim.units import mb
    from repro.storage.device import StorageDevice
    from repro.storage.profiles import xpoint_ssd

    engine = engine or Engine()
    device = StorageDevice(engine, xpoint_ssd(), RandomStream(1, "prim"))
    return engine, device, SimFileSystem(engine, device, PageCache(mb(page_cache_mb)))


# -- sim ----------------------------------------------------------------------


def sim_event() -> Run:
    """The ``kernel_churn`` mix of ``repro.perf``: sleeps, events, spawns, joins.

    Events are counted analytically (per worker one spawn; per iteration a
    sleep resume, a succeeder spawn, its sleep resume and the event wake-up;
    spawn + sleep + join on every 7th), so ``n`` is an event count.
    """
    from repro.sim.engine import Engine

    procs = 16

    def run(n: int) -> None:
        iters = max(1, int(n / (procs * (4 + 3 / 7))))
        engine = Engine()

        def succeeder(ev, j):
            yield 1
            ev.succeed(j)

        def joined(j):
            yield 1 + (j & 1)
            return j

        def worker(pid):
            for j in range(iters):
                yield (pid + j) % 5 + 1
                ev = engine.event()
                engine.process(succeeder(ev, j), name="s")
                yield ev
                if j % 7 == 0:
                    yield engine.process(joined(j), name="j")

        for pid in range(procs):
            engine.process(worker(pid), name="w")
        engine.run()

    return run


def sim_sleep() -> Run:
    from repro.sim.engine import Engine

    def run(n: int) -> None:
        engine = Engine()

        def sleeper():
            for _ in range(n):
                yield 1

        engine.process(sleeper(), name="sleeper")
        engine.run()

    return run


def sim_lock_handoff() -> Run:
    from repro.sim.engine import Engine
    from repro.sim.resources import Lock

    def run(n: int) -> None:
        engine = Engine()
        lock = Lock(engine)

        def contender(turns):
            for _ in range(turns):
                yield lock.acquire()
                yield 1
                lock.release()

        for _ in range(4):
            engine.process(contender(n // 4 + 1), name="c")
        engine.run()

    return run


def _latencies() -> List[int]:
    return [15_000 + (i * 7919) % 90_000 for i in range(_KEYS)]


def sim_hist_record() -> Run:
    from repro.sim.stats import LatencyHistogram

    record = LatencyHistogram().record
    values = _latencies()

    def run(n: int) -> None:
        for i in range(n):
            record(values[i & (_KEYS - 1)])

    return run


def sim_hist_record_many() -> Run:
    from repro.sim.stats import LatencyHistogram

    record_many = LatencyHistogram().record_many
    values = _latencies()
    batches = [values[i:i + 64] for i in range(0, _KEYS, 64)]

    def run(n: int) -> None:  # n values, in 64-value batches
        for i in range(n // 64 + 1):
            record_many(batches[i & 63])

    return run


def sim_timeseries_record() -> Run:
    from repro.sim.stats import TimeSeries

    record = TimeSeries().record

    def run(n: int) -> None:
        for i in range(n):
            record(i * 20_000)

    return run


def sim_rng_draw() -> Run:
    from repro.sim.rng import RandomStream

    randint = RandomStream(1, "prim").randint

    def run(n: int) -> None:
        for _ in range(n):
            randint(0, 999_999)

    return run


# -- storage / fs -------------------------------------------------------------


def storage_submit() -> Run:
    engine, device, _fs = _machine()

    def run(n: int) -> None:
        for i in range(n):
            device.read((i & 0xFFFF) << 12, 4096)
            engine.run()

    return run


def fs_page_cache_hit() -> Run:
    from repro.fs.page_cache import PageCache
    from repro.sim.units import mb

    cache = PageCache(mb(32))
    cache.fill(1, 0, _KEYS * 4096)
    read_through = cache.read_through

    def run(n: int) -> None:
        for i in range(n):
            read_through(1, (i & (_KEYS - 1)) << 12, 4096)

    return run


def fs_page_cache_miss() -> Run:
    from repro.fs.page_cache import PageCache
    from repro.sim.units import mb

    cache = PageCache(mb(1))  # 256 pages: every fresh page evicts one
    cache.fill(1, 0, mb(1))
    read_through = cache.read_through

    def run(n: int) -> None:
        for i in range(n):
            read_through(2, i << 12, 4096)

    return run


def fs_file_read() -> Run:
    from repro.sim.units import mb

    _engine, _device, fs = _machine(page_cache_mb=32)
    f = fs.install_synced("prim/data", _KEYS * 4096)
    fs.page_cache.fill(f.file_id, 0, mb(16))
    read = f.read

    def run(n: int) -> None:  # page-cache hits: the filesystem path alone
        for i in range(n):
            read((i & (_KEYS - 1)) << 12, 4096)

    return run


def fs_append_sync() -> Run:
    engine, _device, fs = _machine()
    f = fs.create("prim/log")

    def run(n: int) -> None:
        for _ in range(n):
            f.append(4096)
            engine.process(f.sync(), name="sync")
            engine.run()

    return run


# -- lsm ----------------------------------------------------------------------


def _value():
    from repro.lsm.value import ValueRef

    return ValueRef(seed=7, size=1024)


def lsm_memtable_add() -> Run:
    from repro.lsm.memtable import MemTable
    from repro.lsm.options import HASH_REP

    add = MemTable(rep=HASH_REP).add  # the rep every preset uses
    keys, value = _keys(), _value()

    def run(n: int) -> None:
        for i in range(n):
            add(keys[i & (_KEYS - 1)], (i, 1, value))

    return run


def lsm_memtable_get() -> Run:
    from repro.lsm.memtable import MemTable
    from repro.lsm.options import HASH_REP

    table = MemTable(rep=HASH_REP)
    keys, value = _keys(), _value()
    for i, key in enumerate(keys):
        table.add(key, (i, 1, value))
    get = table.get

    def run(n: int) -> None:
        for i in range(n):
            get(keys[i & (_KEYS - 1)])

    return run


def lsm_skiplist_insert() -> Run:
    from repro.lsm.skiplist import SkipList
    from repro.sim.rng import RandomStream
    from repro.workloads.generators import encode_key

    insert = SkipList(RandomStream(1, "prim")).insert

    def run(n: int) -> None:  # distinct keys: the list grows to n entries
        for i in range(n):
            insert(encode_key((i * 2654435761) & 0xFFFFFFFF), i)

    return run


def _sst():
    from repro.lsm.sst import SSTBuilder
    from repro.workloads.generators import encode_key

    builder = SSTBuilder(1, block_size=4096, bloom_bits_per_key=10)
    value = _value()
    keys = [encode_key(i * 3) for i in range(2000)]  # one 2 MB target file
    for i, key in enumerate(keys):
        builder.add(key, (i + 1, 1, value))
    return builder.finish(), keys


def lsm_bloom_probe() -> Run:
    sst, keys = _sst()
    may_contain = sst.may_contain

    def run(n: int) -> None:
        for i in range(n):
            may_contain(keys[i % 2000])

    return run


def lsm_sst_find() -> Run:
    sst, keys = _sst()
    find = sst.find

    def run(n: int) -> None:
        for i in range(n):
            find(keys[i % 2000])

    return run


def lsm_block_cache_lookup() -> Run:
    from repro.lsm.block_cache import BlockCache
    from repro.sim.units import mb

    cache = BlockCache(mb(8))
    blocks = [(i >> 6, i & 63) for i in range(1024)]
    for block in blocks:
        cache.insert(block, 4096)
    lookup = cache.lookup

    def run(n: int) -> None:
        for i in range(n):
            lookup(blocks[i & 1023])

    return run


def lsm_wal_add_group() -> Run:
    from repro.harness.presets import TINY
    from repro.lsm.costs import DEFAULT_COSTS
    from repro.lsm.wal import WalManager

    engine, _device, fs = _machine()
    add_group = WalManager(engine, fs, TINY.options(), DEFAULT_COSTS).add_group
    keys, value = _keys(), _value()

    def run(n: int) -> None:
        for i in range(n):
            _cpu, wait = add_group([(keys[i & (_KEYS - 1)], (i, 1, value))])
            if wait is not None or not i & 63:
                engine.run()  # drain writeback so the heap stays small

    return run


def _tiny_db(device: str, tracer=None):
    from repro.harness.experiments import DEVICES
    from repro.harness.machine import Machine
    from repro.harness.presets import TINY
    from repro.obs import set_active_tracer
    from repro.workloads.prefill import prefill

    set_active_tracer(tracer)  # engines bind the active tracer when created
    try:
        machine = Machine.create(DEVICES[device](), TINY.page_cache_bytes, seed=11)
    finally:
        set_active_tracer(None)
    db = machine.open_db(TINY.options())
    prefill(db, TINY.prefill_spec())
    return db


def lsm_put_sync() -> Run:
    from repro.harness.presets import TINY
    from repro.workloads.generators import ValueSpec

    db = _tiny_db("pcie-flash")
    keys, values = _keys(), ValueSpec(TINY.value_size)

    def run(n: int) -> None:  # db.run_sync drives the generator path
        for i in range(n):
            db.run_sync(db.put(keys[i & (_KEYS - 1)], values.value_for(i, i)))

    return run


def lsm_get_sync() -> Run:
    from repro.workloads.generators import encode_key

    db = _tiny_db("xpoint")
    keys = [encode_key((i * 2654435761) % 60_000) for i in range(_KEYS)]

    def run(n: int) -> None:
        for i in range(n):
            db.run_sync(db.get(keys[i & (_KEYS - 1)]))

    return run


# -- workloads / net / cluster / serving ---------------------------------------


def workloads_key_draw() -> Run:
    from repro.sim.rng import RandomStream
    from repro.workloads.generators import KeySpace

    keyspace, rng = KeySpace(1_000_000), RandomStream(1, "prim")

    def run(n: int) -> None:
        for _ in range(n):
            keyspace.random_key(rng)

    return run


def workloads_zipf_draw() -> Run:
    from repro.sim.rng import RandomStream
    from repro.workloads.ycsb import ZipfianGenerator

    zipf, rng = ZipfianGenerator(1_000_000), RandomStream(1, "prim")

    def run(n: int) -> None:
        for _ in range(n):
            zipf.next(rng)

    return run


def net_send() -> Run:
    from repro.net import Network
    from repro.sim.engine import Engine
    from repro.sim.rng import RandomStream

    engine = Engine()
    net = Network(engine, 2, RandomStream(1, "prim"))
    inbox = net.inboxes[1]

    def run(n: int) -> None:  # send + delivery, drained every 64 messages
        for i in range(n):
            net.send(0, 1, i, 128)
            if not i & 63:
                engine.run()
                while inbox.try_get()[0]:
                    pass

    return run


def cluster_quorum_put() -> Run:
    from repro.cluster import Cluster, ClusterConfig
    from repro.lsm.options import HASH_REP, WAL_SYNC, Options
    from repro.net import Network
    from repro.sim.engine import Engine
    from repro.sim.rng import RandomStream
    from repro.sim.units import kb

    def options() -> Options:
        return Options(
            write_buffer_size=kb(16), max_bytes_for_level_base=kb(64),
            target_file_size_base=kb(32), block_cache_bytes=kb(32),
            memtable_rep=HASH_REP, wal_mode=WAL_SYNC, name="prim",
        )

    rng = RandomStream(1, "prim")
    engine = Engine()
    fss = [_machine(engine)[2] for _ in range(3)]
    net = Network(engine, 3, rng.fork("net"))
    cluster = Cluster(engine, net, fss, options, rng.fork("cluster"), ClusterConfig())
    cluster.start()

    def run(n: int) -> None:
        def writer():
            for i in range(n):
                acked, _seq = yield from cluster.put(b"k%03d" % (i & 7), b"v%06d" % i)
                if not acked:
                    raise AssertionError("quorum put not acknowledged")

        proc = engine.process(writer(), name="writer")
        while not proc.done:
            engine.run(until=engine.peek())

    return run


def serving_route() -> Run:
    from repro.serving.router import HashRing

    shard_for = HashRing(8).shard_for
    keys = _keys()

    def run(n: int) -> None:
        for i in range(n):
            shard_for(keys[i & (_KEYS - 1)])

    return run


def serving_admit() -> Run:
    from repro.serving.admission import TokenBucket

    reserve = TokenBucket(rate_per_sec=50_000, burst=8).reserve

    def run(n: int) -> None:
        for i in range(n):
            reserve(i * 20_000)  # exactly the refill rate: admits, never idles

    return run


PRIMITIVES: Dict[str, Callable[[], Run]] = {
    "sim.event_ns": sim_event,
    "sim.sleep_ns": sim_sleep,
    "sim.lock_handoff_ns": sim_lock_handoff,
    "sim.hist_record_ns": sim_hist_record,
    "sim.hist_record_many_ns": sim_hist_record_many,
    "sim.timeseries_record_ns": sim_timeseries_record,
    "sim.rng_draw_ns": sim_rng_draw,
    "storage.submit_ns": storage_submit,
    "fs.page_cache_hit_ns": fs_page_cache_hit,
    "fs.page_cache_miss_ns": fs_page_cache_miss,
    "fs.file_read_ns": fs_file_read,
    "fs.append_sync_ns": fs_append_sync,
    "lsm.memtable_add_ns": lsm_memtable_add,
    "lsm.memtable_get_ns": lsm_memtable_get,
    "lsm.skiplist_insert_ns": lsm_skiplist_insert,
    "lsm.bloom_probe_ns": lsm_bloom_probe,
    "lsm.sst_find_ns": lsm_sst_find,
    "lsm.block_cache_lookup_ns": lsm_block_cache_lookup,
    "lsm.wal_add_group_ns": lsm_wal_add_group,
    "lsm.put_sync_ns": lsm_put_sync,
    "lsm.get_sync_ns": lsm_get_sync,
    "workloads.key_draw_ns": workloads_key_draw,
    "workloads.zipf_draw_ns": workloads_zipf_draw,
    "net.send_ns": net_send,
    "cluster.quorum_put_ns": cluster_quorum_put,
    "serving.route_ns": serving_route,
    "serving.admit_ns": serving_admit,
}


def _time(run: Run, n: int) -> float:
    t0 = time.perf_counter()
    run(n)
    return time.perf_counter() - t0


def measure(factory: Callable[[], Run]) -> float:
    """Median host ns per call over ``SAMPLES`` fresh-state samples."""
    probe = 500
    n = min(MAX_CALLS, max(probe, int(probe * SAMPLE_S / max(_time(factory(), probe), 1e-6))))
    samples = []
    for _ in range(SAMPLES):
        run = factory()
        gc.collect()
        samples.append(_time(run, n) / n * 1e9)
    return statistics.median(samples)


# -- obs: what turning a real Tracer on costs -----------------------------------


def trace_slowdown(device: str, write_fraction: float, sim_s: float = 0.5) -> float:
    """Host time per op of a tiny db_bench run with a Tracer ÷ without.

    Tracing makes the fast paths bail out, so this is expected well above 1;
    the tiny preset keeps two extra set-ups per ratio affordable.
    """
    from repro.harness.presets import TINY
    from repro.obs import Tracer
    from repro.sim.units import seconds
    from repro.workloads.db_bench import DbBench, DbBenchConfig

    cfg = DbBenchConfig(
        processes=1, duration_ns=seconds(sim_s), write_fraction=write_fraction,
        value_size=TINY.value_size, key_count=TINY.key_count, seed=11,
    )
    per_op = []
    for tracer in (Tracer(), None):
        db = _tiny_db(device, tracer)
        gc.collect()
        t0 = time.perf_counter()
        result = DbBench(cfg).run(db)
        per_op.append((time.perf_counter() - t0) / max(1, result.ops))
    return per_op[0] / per_op[1]


def measure_all() -> Dict[str, float]:
    gc.disable()
    try:
        out = {name: measure(factory) for name, factory in PRIMITIVES.items()}
        out["obs.trace_slowdown_x.fill"] = trace_slowdown("pcie-flash", 1.0)
        out["obs.trace_slowdown_x.read"] = trace_slowdown("xpoint", 0.0)
    finally:
        gc.enable()
    return out
