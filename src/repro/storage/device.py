"""Queueing model of a block storage device.

The model uses *virtual channel clocks*: each internal channel (die group)
keeps the timestamp at which it next becomes free.  A request picks the
least-loaded channel (firmware dispatch), waits for the shared host
interface, occupies the channel for its service time and completes.  Large
requests are striped across channels so sequential I/O enjoys the device's
full internal parallelism, exactly the property of flash SSDs that RocksDB's
compaction exploits [Chen et al., HPCA'11].

This formulation gives exact FIFO queueing behaviour — including the
read/write interference and queue buildup the paper measures — at O(1) cost
per request and with no extra simulated processes.

Flash-specific behaviour: random writes accumulate garbage-collection debt;
every ``gc_interval_bytes`` of random writes, the serving channel takes an
erase pause (``gc_pause_ns``), producing the long write-tail stalls
characteristic of NAND devices.  3D XPoint profiles disable GC entirely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.errors import StorageError
from repro.sim.engine import Engine, Event
from repro.sim.rng import RandomStream
from repro.sim.stats import LatencyHistogram, StatsSet
from repro.sim.units import SEC
from repro.storage.profiles import DeviceProfile

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

READ = "read"
WRITE = "write"


class StorageDevice:
    """A simulated block device driven by a :class:`DeviceProfile`.

    ``__slots__`` and the cached ``_trace_enabled`` flag keep the per-request
    bookkeeping cheap: :meth:`read` (random reads, one pass) or ``_submit``
    (sequential reads and writes) runs once per simulated I/O, which at
    sweep scale means millions of host-level calls per experiment.

    ``injector`` is a :class:`~repro.faults.injector.FaultInjector` or
    ``None``.  When set, every :meth:`read` and :meth:`write` consults it
    first: an error spec raises :class:`~repro.errors.IOFaultError` *before*
    the request is queued — the command fails at the interface, so channel
    clocks, counters and histograms never see it (a retry is a fresh
    submission).  A latency or stall spec lets the request run normally and
    stretches its completion by chaining a timeout after it
    (:meth:`_stretch`), leaving the channel clocks untouched: the delay
    models a hiccup on the host path, not extra channel occupancy.  With
    ``None`` the cost is one attribute test per request.
    """

    __slots__ = (
        "engine",
        "profile",
        "rng",
        "injector",
        "_tracer",
        "_track",
        "_trace_enabled",
        "_channel_free",
        "_channel_read_free",
        "_channel_last_bg_service",
        "_iface_read_free",
        "_iface_write_free",
        "_iface_fg_free",
        "_iface_last_bg_transfer",
        "_stripe_cursor",
        "_gc_debt",
        "_busy_ns",
        "stats",
        "read_latency",
        "write_latency",
        "_inflight",
        "_reads",
        "_writes",
        "_bytes_read",
        "_bytes_written",
        "_gc_pauses",
    )

    def __init__(
        self,
        engine: Engine,
        profile: DeviceProfile,
        rng: Optional[RandomStream] = None,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.engine = engine
        self.profile = profile
        self.rng = (rng or RandomStream(0)).fork(f"device/{profile.name}")
        self.injector = injector
        # Tracing: request spans and the in-flight counter are emitted
        # through the engine's tracer (a shared no-op when tracing is off).
        self._tracer = engine.tracer
        self._track = f"device/{profile.name}"
        self._trace_enabled = bool(self._tracer.enabled)
        # Per-channel cursors.  `_channel_free` is when all committed work
        # (reads + writes) drains; `_channel_read_free` is when the channel
        # could start a *read*: firmware gives reads priority over queued
        # background writes, so a read waits at most for the request
        # currently in service plus earlier reads (NCQ read priority).
        self._channel_free = [0] * profile.channels
        self._channel_read_free = [0] * profile.channels
        self._channel_last_bg_service = [0] * profile.channels
        # Interface link cursors: full-duplex devices have independent read
        # and write lanes, half-duplex (SATA) shares a single cursor.
        self._iface_read_free = 0
        self._iface_write_free = 0
        self._iface_fg_free = 0
        self._iface_last_bg_transfer = 0
        self._stripe_cursor = 0
        self._gc_debt = 0
        self._busy_ns = 0  # summed channel service time, for utilization

        self.stats = StatsSet()
        self.read_latency = LatencyHistogram(f"{profile.name}/read")
        self.write_latency = LatencyHistogram(f"{profile.name}/write")
        self._inflight = 0
        self._reads = 0
        self._writes = 0
        self._bytes_read = 0
        self._bytes_written = 0
        self._gc_pauses = 0

    # -- public API ----------------------------------------------------------

    def read(self, offset: int, nbytes: int, sequential: bool = False) -> Event:
        """Submit a read; the returned event fires at completion.

        A sequential read is background I/O, queued like a write
        (:meth:`_submit`).  A random read is foreground I/O and is served
        here in one pass, one stripe at a time: NCQ read priority lets it
        jump queued background I/O (compaction/flush streams) at both the
        channel and the host link.  It waits only for earlier foreground
        reads plus the residual of whatever request is in service —
        approximated as uniform over that request's duration — and pushes
        the queued background work back by its own occupancy (capacity
        conserved).
        """
        extra = 0 if self.injector is None else self.injector.on_device_op(READ)
        if sequential:
            done = self._submit(READ, offset, nbytes, True)
            return self._stretch(done, extra) if extra else done
        prof = self.profile
        if nbytes <= 0 or offset < 0 or offset + nbytes > prof.capacity_bytes:
            self._check_range(offset, nbytes)
        now = self.engine._now
        rng = self.rng
        read_free = self._channel_read_free
        channel_free = self._channel_free
        sigma = prof.jitter_sigma
        start, finish = -1, now  # the first stripe's start, the last finish
        remaining = nbytes
        while remaining > 0:
            chunk = remaining if remaining < prof.stripe_bytes else prof.stripe_bytes
            remaining -= chunk
            # Firmware load balancing: the first least-loaded channel.
            channel = read_free.index(min(read_free))
            channel_ready = read_free[channel]
            backlog = channel_free[channel] - now
            if backlog > 0:
                residual = round(rng.uniform(0.0, self._channel_last_bg_service[channel]))
                channel_ready = max(channel_ready, now + min(backlog, residual))
            if prof.full_duplex:
                iface_free = self._iface_read_free
            else:
                iface_free = max(self._iface_read_free, self._iface_write_free)
            iface_ready = self._iface_fg_free
            iface_backlog = iface_free - now
            if iface_backlog > 0:
                residual = round(rng.uniform(0.0, self._iface_last_bg_transfer))
                iface_ready = max(iface_ready, now + min(iface_backlog, residual))
            stripe_start = max(now, channel_ready, iface_ready)
            transfer_ns = chunk * SEC // prof.interface_read_bw
            self._iface_fg_free = stripe_start + transfer_ns
            # Queued background transfers and channel work are pushed back
            # by this stripe's occupancy.
            if prof.full_duplex:
                self._iface_read_free = max(self._iface_read_free, stripe_start) + transfer_ns
            else:
                pushed = max(self._iface_read_free, self._iface_write_free, stripe_start)
                self._iface_read_free = self._iface_write_free = pushed + transfer_ns
            service = prof.read_base_ns + chunk * SEC // prof.channel_read_bw
            if sigma > 0.0:
                service = round(service * rng.lognormal(-sigma * sigma / 2, sigma))
            stripe_finish = read_free[channel] = stripe_start + service
            channel_free[channel] = max(channel_free[channel], stripe_start) + service
            self._busy_ns += service
            if start < 0 or stripe_start < start:
                start = stripe_start
            if stripe_finish > finish:
                finish = stripe_finish

        latency = finish - now
        self._reads += 1
        self._bytes_read += nbytes
        self.read_latency.record(latency)
        done = self.engine.timeout(latency)
        if self._trace_enabled:
            self._tracer.device_request(self._track, READ, now, start, finish, nbytes, False)
            self._observe_request(done)
        return self._stretch(done, extra) if extra else done

    def write(self, offset: int, nbytes: int, sequential: bool = False) -> Event:
        """Submit a write; the returned event fires when durable."""
        extra = 0 if self.injector is None else self.injector.on_device_op(WRITE)
        done = self._submit(WRITE, offset, nbytes, sequential)
        return self._stretch(done, extra) if extra else done

    def flush(self) -> Event:
        """Barrier: fires once every previously submitted request finished."""
        horizon = max(
            max(self._channel_free), self._iface_read_free, self._iface_write_free
        )
        delay = max(0, horizon - self.engine.now)
        self.stats.inc("flush_count")
        return self.engine.timeout(delay)

    def trim(self, offset: int, nbytes: int) -> None:
        """Discard a range (frees GC debt on flash; free for others)."""
        self._check_range(offset, nbytes)
        self.stats.inc("trim_count")
        self.stats.inc("bytes_trimmed", nbytes)
        if self.profile.gc_interval_bytes:
            self._gc_debt = max(0, self._gc_debt - nbytes // 2)

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of channel-time spent servicing requests."""
        if elapsed_ns <= 0:
            return 0.0
        return self._busy_ns / (elapsed_ns * self.profile.channels)

    # -- counters (kept as plain attributes on the hot path) -------------------

    @property
    def reads(self) -> int:
        return self._reads

    @property
    def writes(self) -> int:
        return self._writes

    @property
    def bytes_read(self) -> int:
        return self._bytes_read

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    @property
    def gc_pauses(self) -> int:
        return self._gc_pauses

    def snapshot(self) -> dict:
        """Counter snapshot for reports."""
        return {
            "reads": self._reads,
            "writes": self._writes,
            "bytes_read": self._bytes_read,
            "bytes_written": self._bytes_written,
            "gc_pauses": self._gc_pauses,
        }

    # -- internals ----------------------------------------------------------

    def _check_range(self, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            raise StorageError(f"request size must be positive: {nbytes}")
        if offset < 0 or offset + nbytes > self.profile.capacity_bytes:
            raise StorageError(
                f"request [{offset}, {offset + nbytes}) outside device "
                f"capacity {self.profile.capacity_bytes}"
            )

    def _submit(self, op: str, offset: int, nbytes: int, sequential: bool) -> Event:
        """Queue background I/O: a sequential read, or any write."""
        self._check_range(offset, nbytes)
        now = self.engine.now
        prof = self.profile

        if nbytes <= prof.stripe_bytes:
            # Single-stripe request: skip the loop's min/max bookkeeping.
            # finish >= start >= now always holds.
            start, finish = self._submit_stripe(op, nbytes, sequential, now)
        else:
            start = finish = now
            first = True
            remaining = nbytes
            while remaining > 0:
                chunk = min(remaining, prof.stripe_bytes)
                stripe_start, stripe_finish = self._submit_stripe(
                    op, chunk, sequential, now
                )
                if first or stripe_start < start:
                    start = stripe_start
                    first = False
                if stripe_finish > finish:
                    finish = stripe_finish
                remaining -= chunk

        latency = finish - now
        if op is READ:
            self._reads += 1
            self._bytes_read += nbytes
            self.read_latency.record(latency)
        else:
            self._writes += 1
            self._bytes_written += nbytes
            self.write_latency.record(latency)

        done = self.engine.timeout(latency)
        if self._trace_enabled:
            self._tracer.device_request(
                self._track, op, now, start, finish, nbytes, sequential
            )
            self._observe_request(done)
        return done

    def _stretch(self, ev: Event, extra_ns: int) -> Event:
        """Chain ``extra_ns`` of injected delay after ``ev`` fires."""
        engine = self.engine
        out = engine.event()

        def _after(_ev: Event) -> None:
            timeout = engine.timeout(extra_ns)
            timeout.callbacks.append(lambda _t: out.succeed())

        ev.callbacks.append(_after)
        return out

    def _observe_request(self, done: Event) -> None:
        """Count a request in flight until ``done`` fires, as the trace's
        ``inflight`` counter."""
        self._inflight += 1
        self._tracer.counter(self._track, "inflight", self._inflight)
        done.callbacks.append(self._on_complete)

    def _on_complete(self, _ev: Event) -> None:
        self._inflight -= 1
        self._tracer.counter(self._track, "inflight", self._inflight)

    def _submit_stripe(
        self, op: str, nbytes: int, sequential: bool, now: int
    ) -> Tuple[int, int]:
        """Queue one background stripe; returns its (service_start, finish).

        Background requests queue FIFO behind all committed work on their
        channel and on the host link (random reads take the foreground path
        in :meth:`read`).
        """
        prof = self.profile

        # Dispatch: sequential stripes rotate round-robin (striping); random
        # writes go to the least-loaded channel (firmware load balancing).
        if sequential:
            channel = self._stripe_cursor
            self._stripe_cursor = (self._stripe_cursor + 1) % prof.channels
        else:
            # min()+index() run at C speed and pick the same channel as
            # min(range(...), key=...): the first least-loaded one.
            cursors = self._channel_free
            channel = cursors.index(min(cursors))

        # Shared host interface: commands serialize on the link (or on the
        # per-direction lane for full-duplex interfaces).
        if op is READ:
            base = prof.seq_read_base_ns
            bw = prof.channel_read_bw
            iface_bw = prof.interface_read_bw
        else:
            base = prof.seq_write_base_ns if sequential else prof.write_base_ns
            bw = prof.channel_write_bw
            iface_bw = prof.interface_write_bw

        if prof.full_duplex:
            iface_free = self._iface_read_free if op is READ else self._iface_write_free
        else:
            iface_free = max(self._iface_read_free, self._iface_write_free)
        transfer_ns = nbytes * SEC // iface_bw
        start = max(now, self._channel_free[channel], iface_free)
        if op is READ:
            self._iface_read_free = start + transfer_ns
        else:
            self._iface_write_free = start + transfer_ns
        if not prof.full_duplex:
            self._iface_read_free = self._iface_write_free = start + transfer_ns
        self._iface_last_bg_transfer = transfer_ns

        service = base + nbytes * SEC // bw
        if prof.jitter_sigma > 0.0:
            sigma = prof.jitter_sigma
            service = round(service * self.rng.lognormal(-sigma * sigma / 2, sigma))

        # Flash garbage collection: random writes accrue debt; paying it
        # stalls the serving channel for an erase cycle.
        if op is WRITE and prof.gc_interval_bytes:
            if not sequential:
                self._gc_debt += nbytes * 4  # random writes fragment blocks
            else:
                self._gc_debt += nbytes
            if self._gc_debt >= prof.gc_interval_bytes:
                self._gc_debt -= prof.gc_interval_bytes
                service += prof.gc_pause_ns
                self._gc_pauses += 1
                if self._trace_enabled:
                    self._tracer.gc_pause(self._track, start, prof.gc_pause_ns)

        finish = start + service
        self._channel_free[channel] = finish
        self._channel_last_bg_service[channel] = service
        self._busy_ns += service
        return start, finish
