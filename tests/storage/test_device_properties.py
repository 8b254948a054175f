"""Property-based tests for the device queueing model: its physical
invariants, the one-pass random read against the stripe submit it
replaced, and the injector hooks folded into the device against the
fault-wrapper subclass they replaced."""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import IOFaultError, StorageError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    LATENCY_SPIKE,
    READ_ERROR,
    WRITE_ERROR,
    FaultSchedule,
    FaultSpec,
)
from repro.obs import Tracer
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import GB, KB, MB, SEC
from repro.storage.device import READ, WRITE, StorageDevice
from repro.storage.profiles import DeviceProfile, pcie_flash_ssd, sata_flash_ssd, xpoint_ssd
from tests.conftest import traced_engine


def flat_profile(channels=2, jitter=0.0):
    return DeviceProfile(
        name="prop",
        kind="xpoint",
        capacity_bytes=GB,
        read_base_ns=10_000,
        write_base_ns=20_000,
        seq_read_base_ns=5_000,
        seq_write_base_ns=5_000,
        channel_read_bw=400 * MB,
        channel_write_bw=400 * MB,
        channels=channels,
        interface_read_bw=1600 * MB,
        interface_write_bw=1600 * MB,
        full_duplex=True,
        jitter_sigma=jitter,
    )


@st.composite
def request_lists(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    reqs = []
    for _ in range(n):
        op = draw(st.sampled_from(["read", "write"]))
        seq = draw(st.booleans())
        nbytes = draw(st.sampled_from([4 * KB, 16 * KB, 64 * KB]))
        reqs.append((op, seq, nbytes))
    return reqs


def completion_times(reqs, channels=2):
    engine = Engine()
    dev = StorageDevice(engine, flat_profile(channels=channels), RandomStream(1))
    finishes = []

    def submit():
        events = []
        for op, seq, nbytes in reqs:
            if op == "read":
                events.append(dev.read(0, nbytes, sequential=seq))
            else:
                events.append(dev.write(0, nbytes, sequential=seq))
        yield engine.all_of(events)

    engine.process(submit())
    engine.run()
    return engine.now, dev


def service(prof, op, seq, nbytes):
    """One request's channel service time on a jitter-free profile."""
    base = {
        ("read", False): prof.read_base_ns,
        ("read", True): prof.seq_read_base_ns,
        ("write", False): prof.write_base_ns,
        ("write", True): prof.seq_write_base_ns,
    }[(op, seq)]
    bw = prof.channel_read_bw if op == "read" else prof.channel_write_bw
    return base + nbytes * SEC // bw


@settings(max_examples=40, deadline=None)
@given(reqs=request_lists())
def test_completion_bounded_by_serial_and_ideal(reqs):
    """Makespan lies between perfect parallel and fully serial service."""
    makespan, dev = completion_times(reqs, channels=2)
    services = [service(dev.profile, *r) for r in reqs]
    total_service = sum(services)
    assert makespan <= total_service + 1  # never slower than fully serial
    # Lower bound: 2 channels at best halve the work.  Read priority lets a
    # foreground read overlap one in-service background request per channel
    # (its completion is not retroactively delayed), so allow that slack.
    slack = 2 * max(services)
    assert makespan >= total_service // 2 - slack - 1


@settings(max_examples=40, deadline=None)
@given(reqs=request_lists())
def test_byte_accounting_exact(reqs):
    _, dev = completion_times(reqs)
    expected_read = sum(n for op, _, n in reqs if op == "read")
    expected_write = sum(n for op, _, n in reqs if op == "write")
    assert dev.bytes_read == expected_read
    assert dev.bytes_written == expected_write
    assert dev.reads == sum(1 for op, _, _ in reqs if op == "read")
    assert dev.writes == sum(1 for op, _, _ in reqs if op == "write")


@settings(max_examples=30, deadline=None)
@given(reqs=request_lists(), channels=st.sampled_from([1, 2, 8]))
def test_more_channels_never_slower(reqs, channels):
    few, _ = completion_times(reqs, channels=1)
    many, _ = completion_times(reqs, channels=channels)
    assert many <= few


@pytest.mark.xfail(
    strict=True,
    reason="read-priority residual is drawn over the last queued request, "
    "not the one in service (ROADMAP item 10)",
)
def test_more_channels_never_slower_behind_a_short_stripe():
    """One channel queues the 4 KB read behind the 64 KB one, so the random
    read's residual is drawn over 4 KB; two channels leave it behind 64 KB
    (178,722 ns on one channel, 302,461 ns on two)."""
    reqs = [("read", True, 64 * KB), ("read", True, 4 * KB), ("read", False, 64 * KB)]
    few, _ = completion_times(reqs, channels=1)
    many, _ = completion_times(reqs, channels=2)
    assert many <= few


@pytest.mark.xfail(
    strict=True,
    reason="read-priority residual is drawn over the last queued request, "
    "not the one in service (ROADMAP item 10)",
)
def test_more_channels_never_slower_behind_two_short_reads():
    """The counterexample ``test_more_channels_never_slower`` finds under
    ``--hypothesis-seed=123``.  On one channel the first random read's
    residual is drawn over the queued 4 KB read (14,765 ns of service) while
    the 16 KB one is in service; two channels leave it behind the 16 KB read
    (44,062 ns).  58,827 ns on one channel, 59,426 ns on two."""
    reqs = [("read", True, 16 * KB), ("read", True, 4 * KB),
            ("read", False, 4 * KB), ("read", False, 4 * KB)]
    few, _ = completion_times(reqs, channels=1)
    many, _ = completion_times(reqs, channels=2)
    assert many <= few


@settings(max_examples=30, deadline=None)
@given(reqs=request_lists())
def test_latency_histograms_complete(reqs):
    _, dev = completion_times(reqs)
    assert dev.read_latency.count == dev.reads
    assert dev.write_latency.count == dev.writes
    if dev.reads:
        assert dev.read_latency.min >= 0


# ---------------------------------------------------------------------------
# The one-pass random read against the two-layer submit it replaced.
# ---------------------------------------------------------------------------


class StripeSubmitDevice(StorageDevice):
    """The specification of :meth:`StorageDevice.read`: every request —
    random reads too — goes through one ``_submit`` that splits it into
    stripes and queues each with ``_submit_stripe``, whose foreground branch
    is the NCQ read-priority rule.  The device's own ``_submit`` now queues
    background requests only, every stripe in one loop; these are the two
    methods as they were before the random read took its own path."""

    __slots__ = ()

    def read(self, offset, nbytes, sequential=False):
        return self._submit(READ, offset, nbytes, sequential)

    def write(self, offset, nbytes, sequential=False):
        return self._submit(WRITE, offset, nbytes, sequential)

    def _submit(self, op, offset, nbytes, sequential):
        self._check_range(offset, nbytes)
        now = self.engine.now
        prof = self.profile
        start = finish = now
        first = True
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, prof.stripe_bytes)
            stripe_start, stripe_finish = self._submit_stripe(op, chunk, sequential, now)
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
            self._observe_request(done)
        return done

    def _submit_stripe(self, op, nbytes, sequential, now):
        prof = self.profile
        if sequential:
            channel = self._stripe_cursor
            self._stripe_cursor = (self._stripe_cursor + 1) % prof.channels
        elif op is READ:
            cursors = self._channel_read_free
            channel = cursors.index(min(cursors))
        else:
            cursors = self._channel_free
            channel = cursors.index(min(cursors))
        if op is READ:
            base = prof.seq_read_base_ns if sequential else prof.read_base_ns
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
        foreground = op is READ and not sequential
        if foreground:
            channel_ready = self._channel_read_free[channel]
            backlog = self._channel_free[channel] - now
            if backlog > 0:
                residual = round(self.rng.uniform(0.0, self._channel_last_bg_service[channel]))
                channel_ready = max(channel_ready, now + min(backlog, residual))
            iface_ready = self._iface_fg_free
            iface_backlog = iface_free - now
            if iface_backlog > 0:
                residual = round(self.rng.uniform(0.0, self._iface_last_bg_transfer))
                iface_ready = max(iface_ready, now + min(iface_backlog, residual))
            start = max(now, channel_ready, iface_ready)
            self._iface_fg_free = start + transfer_ns
            if prof.full_duplex:
                self._iface_read_free = max(self._iface_read_free, start) + transfer_ns
            else:
                pushed = max(self._iface_read_free, self._iface_write_free, start)
                self._iface_read_free = self._iface_write_free = pushed + transfer_ns
        else:
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
        if op is WRITE and prof.gc_interval_bytes:
            self._gc_debt += nbytes * 4 if not sequential else nbytes
            if self._gc_debt >= prof.gc_interval_bytes:
                self._gc_debt -= prof.gc_interval_bytes
                service += prof.gc_pause_ns
                self._gc_pauses += 1
        finish = start + service
        if foreground:
            self._channel_read_free[channel] = finish
            self._channel_free[channel] = max(self._channel_free[channel], start) + service
        else:
            self._channel_free[channel] = finish
            self._channel_last_bg_service[channel] = service
        self._busy_ns += service
        return start, finish


class FaultyStripeSubmitDevice(StripeSubmitDevice):
    """The specification of the device's injector hooks: the ``read``,
    ``write`` and ``_stretch`` of the ``FaultyDevice`` subclass they were
    folded from, over the stripe submit above.  The injector is consulted
    before the request (an error spec raises before anything is queued),
    and a latency spec chains a timeout after the plain completion."""

    __slots__ = ()

    def read(self, offset, nbytes, sequential=False):
        extra = self.injector.on_device_op(READ)  # may raise IOFaultError
        ev = super().read(offset, nbytes, sequential)
        if extra:
            ev = self._stretch(ev, extra)
        return ev

    def write(self, offset, nbytes, sequential=False):
        extra = self.injector.on_device_op(WRITE)  # may raise IOFaultError
        ev = super().write(offset, nbytes, sequential)
        if extra:
            ev = self._stretch(ev, extra)
        return ev

    def _stretch(self, ev, extra_ns):
        engine = self.engine
        out = engine.event()

        def _after(_ev):
            timeout = engine.timeout(extra_ns)
            timeout.callbacks.append(lambda _t: out.succeed())

        ev.callbacks.append(_after)
        return out


_PROFILES = {
    "sata-flash": sata_flash_ssd(),  # half duplex, GC, jitter 0.25
    "pcie-flash": pcie_flash_ssd(),
    "xpoint": xpoint_ssd(),
    "flat-half-duplex": replace(flat_profile(), full_duplex=False),  # jitter 0
    "flat-full-duplex": flat_profile(),
}
_SIZES = [512, 4 * KB, 16 * KB, 64 * KB - 1, 64 * KB, 64 * KB + 4 * KB, 200 * KB]


def _device_state(dev):
    """Everything a request can move, the RNG included."""

    def hist(h):
        count = h.count  # folds the buffered samples into _buckets
        return (count, h.total, h.min, h.max, dict(h._buckets))

    return (
        list(dev._channel_free),
        list(dev._channel_read_free),
        list(dev._channel_last_bg_service),
        dev._iface_read_free,
        dev._iface_write_free,
        dev._iface_fg_free,
        dev._iface_last_bg_transfer,
        dev._stripe_cursor,
        dev._gc_debt,
        dev._busy_ns,
        dev._inflight,
        dev.snapshot(),
        hist(dev.read_latency),
        hist(dev.write_latency),
        dev.rng._rng.getstate(),
        None if dev.injector is None else (dev.injector.log, dev.injector.crash_pending),
    )


@st.composite
def device_plans(draw):
    """A profile, a traced-engine flag, a fault schedule (no injector, an
    injector with no specs, or active specs), and a stream of
    ``(gap_ns, op, sequential, offset, nbytes)`` requests mixing random
    reads below and above ``stripe_bytes``, sequential reads, and random and
    sequential writes (an occasional one past the capacity)."""
    profile = draw(st.sampled_from(sorted(_PROFILES)))
    faults = draw(st.sampled_from([None, [], "active"]))
    if faults == "active":
        faults = [
            FaultSpec(LATENCY_SPIKE, at_op=draw(st.integers(1, 20)),
                      count=draw(st.integers(1, 5)), extra_ns=draw(st.integers(1, 50_000))),
            FaultSpec(draw(st.sampled_from([READ_ERROR, WRITE_ERROR])),
                      at_op=draw(st.integers(1, 30))),
        ]
    reqs = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0, 0, 1_000, 20_000, 200_000]) | st.integers(0, 300_000),
                st.sampled_from([READ, WRITE]),
                st.booleans(),
                st.integers(0, 1 << 20) | st.just(_PROFILES[profile].capacity_bytes - 4 * KB),
                st.sampled_from(_SIZES),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return profile, draw(st.booleans()), faults, reqs


def _devices(engine, profile, faults):
    """(specification, device under test), each with its own injector."""
    prof = _PROFILES[profile]
    if faults is None:
        return (
            StripeSubmitDevice(engine, prof, RandomStream(5)),
            StorageDevice(engine, prof, RandomStream(5)),
        )
    return tuple(
        cls(engine, prof, RandomStream(5), FaultInjector(engine, FaultSchedule(faults)))
        for cls in (FaultyStripeSubmitDevice, StorageDevice)
    )


def _submit(dev, op, sequential, offset, nbytes):
    call = dev.read if op is READ else dev.write
    try:
        return call(offset, nbytes, sequential=sequential)
    except (StorageError, IOFaultError) as err:
        return type(err).__name__


@settings(max_examples=300, deadline=None)
@example(  # a random read behind a sequential write: both residuals drawn
    plan=("sata-flash", True, None, [(0, WRITE, True, 0, 64 * KB), (0, READ, False, 0, 4 * KB),
                                     (500, READ, False, 0, 200 * KB)]),
)
@given(plan=device_plans())
def test_one_pass_read_matches_the_stripe_submit(plan):
    """Both devices take every request at the same instant on one engine:
    after each one their cursors, counters, histograms, RNG and injector
    state are equal, both raise the same error or neither does, and every
    request completes at the same time on both."""
    profile, traced, faults, reqs = plan
    engine = traced_engine(Tracer()) if traced else Engine()
    spec, dev = _devices(engine, profile, faults)
    done_at = {}

    def driver():
        for i, (gap, op, sequential, offset, nbytes) in enumerate(reqs):
            if gap:
                yield gap
            got = []
            for side, device in enumerate((spec, dev)):
                ev = _submit(device, op, sequential, offset, nbytes)
                if isinstance(ev, str):
                    got.append(ev)
                else:
                    got.append("event")
                    ev.callbacks.append(lambda _ev, key=(side, i): done_at.__setitem__(key, engine.now))
            assert got[0] == got[1], (i, got)
            assert _device_state(dev) == _device_state(spec), i

    engine.process(driver())
    engine.run()
    for i in range(len(reqs)):
        assert done_at.get((1, i)) == done_at.get((0, i)), i
    assert _device_state(dev) == _device_state(spec)
