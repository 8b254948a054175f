"""Declarations of the ledger: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root mirrors the names, units and
directions declared here (``test_ledger.py`` checks the two agree).  What
``BENCHMARK.json`` cannot hold — whether a number is **host** (what the user
waits for) or **sim** (what the modelled RocksDB-on-SSD would do, exact for a
fixed seed), where a per-layer metric comes from, and which end-to-end metric
on which workload it should move — lives here.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

# Nominal --seconds: the length the committed sizes were measured at.  A run's
# simulated length scales linearly with --seconds, so ``--quick`` is simply a
# quarter of this.
RUN_SECONDS = 10
REPS = 3

DB_BENCH = ("fill_solo", "read_solo", "mixed90_4p")
CHAOS = "chaos_sweep"

WORKLOADS: Dict[str, str] = {
    "fill_solo": (
        "100% puts, 1 client, pcie-flash: the lsm write side (WAL, memtable, "
        "flush, compaction) does the host work; kernel and read path nearly idle"
    ),
    "read_solo": (
        "100% uniform gets, 1 client, xpoint, data 12x the page cache: sim+fs+"
        "storage carry the host time; WAL, memtable insert, flush bypassed"
    ),
    "mixed90_4p": (
        "90% writes, 4 clients, xpoint (paper Fig. 5-7): generator op path, "
        "write-queue leader election and throttling instead of the fast path"
    ),
    "chaos_sweep": (
        "seed sweep through the crash, storm, cluster and serving DST harnesses: "
        "the only workload where faults, net, cluster, serving and dst run"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float  # BENCHMARK.json: share of the parent's median, seeds varying
    kind: str  # "host" | "sim"
    what: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, "host",
             "imports + machine build + prefill (chaos: imports + schedule drawing), "
             "in reference-normalised seconds"),
    EndToEnd("host_ops_per_s", "1/s", "higher", 0.20, "host",
             "simulated client ops completed per reference-normalised wall second "
             "of the timed region"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, "host",
             "ru_maxrss of one repetition's process"),
    EndToEnd("sim_kops", "kops/s", "higher", 0.20, "sim",
             "k client ops per simulated second (chaos: completed tenant ops of the serving leg)"),
    EndToEnd("sim_op_p50_us", "us", "lower", 0.05, "sim",
             "median simulated op latency, reads and writes merged "
             "(chaos: interquartile mean of the serving leg's tenant-row medians)"),
    EndToEnd("sim_op_p99_us", "us", "lower", 0.15, "sim",
             "p99 simulated op latency (chaos: interquartile mean of the tenant rows' "
             "p99 outside fault windows)"),
)

# Packages under src/repro/ that the profile fold names; everything else in
# repro, the stdlib, numpy and the benchmark's own frames fold into "other".
LAYERS = (
    "sim", "storage", "fs", "lsm", "workloads", "obs", "faults", "net",
    "cluster", "serving", "dst", "harness", "builtin", "other",
)
MODULES = (
    "lsm.db", "lsm.memtable", "lsm.wal", "lsm.pipelined_write",
    "lsm.write_controller", "lsm.compaction", "lsm.flush", "lsm.sst",
    "lsm.version", "lsm.block_cache", "sim.engine", "sim.stats",
    "sim.resources", "fs.page_cache", "fs.filesystem", "workloads.db_bench",
)

# Interaction groups, written down before measuring: "metric@workload" pairs a
# per-layer metric should move; every pairing not listed is predicted unchanged.
_HOST = "host_ops_per_s"
LSM_WRITE = (f"{_HOST}@fill_solo", f"{_HOST}@mixed90_4p")
KERNEL = (f"{_HOST}@mixed90_4p", f"{_HOST}@read_solo", f"{_HOST}@chaos_sweep")
READ_PATH = (f"{_HOST}@read_solo", f"{_HOST}@mixed90_4p")
STATS = (f"{_HOST}@fill_solo", f"{_HOST}@read_solo", f"{_HOST}@mixed90_4p")
MODEL = ("sim_kops@mixed90_4p", "sim_op_p99_us@mixed90_4p", f"{_HOST}@fill_solo")
CHAOS_ONLY = (f"{_HOST}@chaos_sweep",)
ALL_HOST = STATS + CHAOS_ONLY
WATCHED = ()  # no end-to-end metric: tracing is off there

_LAYER_MOVES = {
    "sim": KERNEL, "storage": READ_PATH, "fs": READ_PATH, "lsm": LSM_WRITE,
    "workloads": STATS, "obs": WATCHED, "faults": CHAOS_ONLY, "net": CHAOS_ONLY,
    "cluster": CHAOS_ONLY, "serving": CHAOS_ONLY, "dst": CHAOS_ONLY,
    "harness": ("setup_s@fill_solo",), "builtin": ALL_HOST, "other": ALL_HOST,
}
_MODULE_MOVES = {
    "lsm.sst": READ_PATH, "lsm.version": READ_PATH, "lsm.block_cache": READ_PATH,
    "sim.engine": KERNEL, "sim.resources": KERNEL, "sim.stats": STATS,
    "fs.page_cache": READ_PATH, "fs.filesystem": READ_PATH,
    "workloads.db_bench": STATS,
}


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str  # "profile" | "counter" | "primitive"
    kind: str  # "host" | "sim" | "count"
    moves: Tuple[str, ...]


def _per_layer() -> List[PerLayer]:
    out: List[PerLayer] = []
    # (a) traced run: cProfile frames folded by repro/<package>/.
    for layer in LAYERS:
        moves = _LAYER_MOVES[layer]
        out.append(PerLayer(f"{layer}.self_share", "frac", "lower", "profile", "host", moves))
        out.append(PerLayer(f"{layer}.calls_per_op", "count", "lower", "profile", "count", moves))
    out.append(PerLayer("py.calls_per_op", "count", "lower", "profile", "count", ALL_HOST))
    out.append(PerLayer("trace.overhead_x", "x", "lower", "profile", "host", WATCHED))
    for module in MODULES:
        moves = _MODULE_MOVES.get(module, LSM_WRITE)
        out.append(PerLayer(f"{module}.self_share", "frac", "lower", "profile", "host", moves))

    # (b) boundary counters, exact, read after an untraced repetition.
    def counter(name, unit, better, moves, kind="sim"):
        out.append(PerLayer(name, unit, better, "counter", kind, moves))

    for name, unit in (
        ("storage.reads_per_op", "count"), ("storage.writes_per_op", "count"),
        ("storage.read_bytes_per_op", "B"), ("storage.write_bytes_per_op", "B"),
        ("storage.utilization", "frac"), ("storage.gc_pauses", "count"),
    ):
        counter(name, unit, "lower", MODEL)
    counter("fs.page_cache_hit_rate", "frac", "higher", MODEL)
    counter("fs.used_bytes", "B", "lower", MODEL)
    counter("lsm.block_cache_hit_rate", "frac", "higher", MODEL)
    counter("lsm.memtable_hit_frac", "frac", "higher", MODEL)
    for name, unit in (
        ("lsm.l0_probes_per_get", "count"), ("lsm.device_reads_per_get", "count"),
        ("lsm.flush_count", "count"), ("lsm.compaction_count", "count"),
        ("lsm.write_amp", "x"), ("lsm.space_amp", "x"),
        ("lsm.stall_stops", "count"), ("lsm.stall_delays", "count"),
        ("lsm.stall_delay_ns_per_write", "ns"), ("lsm.mean_waiting_writers", "count"),
        ("lsm.l0_max", "count"),
    ):
        counter(name, unit, "lower", MODEL)
    # Host times as the clock read them, before the reference normalisation
    # (README "host seconds"), and how much slower than nominal the host ran.
    counter("host.raw_ops_per_s", "1/s", "higher", WATCHED, kind="host")
    counter("host.raw_setup_s", "s", "lower", WATCHED, kind="host")
    counter("host.ref_slowdown", "x", "lower", WATCHED, kind="host")
    # The paper's per-type latencies (Figs. 6/7): end-to-end by nature, kept
    # here because a metric that is 0 on some workload cannot carry a bound.
    for name in ("read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us", "op_p999_us"):
        counter(f"workloads.{name}", "us", "lower", MODEL)
    for leg in ("crash", "storm", "cluster", "serving"):
        counter(f"dst.{leg}.host_s", "s", "lower", CHAOS_ONLY, kind="host")
    for name, unit in (
        ("faults.fired", "count"), ("cluster.failovers", "count"),
        ("serving.shed_frac", "frac"), ("serving.error_frac", "frac"),
        ("serving.max_op_us", "us"), ("lsm.degraded_entries", "count"),
    ):
        counter(name, unit, "lower", ("sim_kops@chaos_sweep", "sim_op_p99_us@chaos_sweep"))

    # (c) primitive costs: host ns per call of one public function in isolation.
    def prim(name, moves, unit="ns"):
        out.append(PerLayer(name, unit, "lower", "primitive", "host", moves))

    for name in ("event", "sleep", "lock_handoff"):
        prim(f"sim.{name}_ns", KERNEL)
    for name in ("hist_record", "hist_record_many", "timeseries_record", "rng_draw"):
        prim(f"sim.{name}_ns", STATS)
    prim("storage.submit_ns", READ_PATH)
    for name in ("page_cache_hit", "page_cache_miss", "file_read"):
        prim(f"fs.{name}_ns", READ_PATH)
    prim("fs.append_sync_ns", LSM_WRITE)
    for name in ("memtable_add", "skiplist_insert", "wal_add_group", "put_sync"):
        prim(f"lsm.{name}_ns", LSM_WRITE)
    for name in ("memtable_get", "bloom_probe", "sst_find", "block_cache_lookup", "get_sync"):
        prim(f"lsm.{name}_ns", READ_PATH)
    prim("workloads.key_draw_ns", STATS)
    prim("workloads.zipf_draw_ns", WATCHED)  # YCSB only: no ledger workload draws it
    prim("net.send_ns", CHAOS_ONLY)
    prim("cluster.quorum_put_ns", CHAOS_ONLY)
    prim("serving.route_ns", CHAOS_ONLY)
    prim("serving.admit_ns", CHAOS_ONLY)
    prim("obs.trace_slowdown_x.fill", WATCHED, unit="x")
    prim("obs.trace_slowdown_x.read", WATCHED, unit="x")
    return out


PER_LAYER: Tuple[PerLayer, ...] = tuple(_per_layer())
