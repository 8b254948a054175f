"""Property-based tests for the device queueing model's physical invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import GB, KB, MB, SEC
from repro.storage.device import StorageDevice
from repro.storage.profiles import DeviceProfile


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


@settings(max_examples=30, deadline=None)
@given(reqs=request_lists())
def test_latency_histograms_complete(reqs):
    _, dev = completion_times(reqs)
    assert dev.read_latency.count == dev.reads
    assert dev.write_latency.count == dev.writes
    if dev.reads:
        assert dev.read_latency.min >= 0
