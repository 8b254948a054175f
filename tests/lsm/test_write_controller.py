"""Tests for Algorithm 1: the write controller."""

import pytest

from repro.errors import DBError
from repro.lsm.options import Options
from repro.lsm.write_controller import (
    DELAYED,
    MIN_DELAYED_WRITE_RATE,
    NORMAL,
    REFILL_INTERVAL_NS,
    STOPPED,
    StallMetrics,
    WriteController,
)
from repro.sim.units import MB, SEC, us
from tests.conftest import tiny_options


def metrics(l0=0, imm=0, max_imm=1, pending=0):
    return StallMetrics(
        l0_files=l0,
        immutable_memtables=imm,
        max_immutable_memtables=max_imm,
        pending_compaction_bytes=pending,
    )


def make_controller(engine, **opts):
    return WriteController(engine, tiny_options(**opts))


class TestStatePolicy:
    def test_normal_by_default(self, engine):
        wc = make_controller(engine)
        assert wc.state == NORMAL
        assert wc.pick_state(metrics()) == NORMAL

    def test_slowdown_at_l0_trigger(self, engine):
        wc = make_controller(engine)
        assert wc.pick_state(metrics(l0=20)) == DELAYED  # default trigger
        assert wc.pick_state(metrics(l0=19)) == NORMAL

    def test_stop_at_l0_stop_trigger(self, engine):
        wc = make_controller(engine)
        assert wc.pick_state(metrics(l0=36)) == STOPPED

    def test_stop_on_full_memtables(self, engine):
        wc = make_controller(engine)
        assert wc.pick_state(metrics(imm=1, max_imm=1)) == STOPPED

    def test_delay_on_pending_compaction_debt(self, engine):
        wc = make_controller(
            engine, soft_pending_compaction_bytes_limit=10 * MB
        )
        assert wc.pick_state(metrics(pending=10 * MB)) == DELAYED

    def test_update_counts_transitions(self, engine):
        wc = make_controller(engine)
        wc.update(metrics(l0=20))
        assert wc.state == DELAYED
        assert wc.stats.get("slowdowns") == 1
        wc.update(metrics(l0=36))
        assert wc.state == STOPPED
        assert wc.stats.get("stops") == 1


class TestStopEvent:
    def test_stop_event_fires_on_clear(self, engine):
        wc = make_controller(engine)
        wc.update(metrics(l0=36))
        woke = []

        def writer():
            yield wc.stop_wait_event()
            woke.append(engine.now)

        engine.process(writer())

        def clearer():
            yield 1000
            wc.update(metrics(l0=0))

        engine.process(clearer())
        engine.run()
        assert woke == [1000]
        assert wc.state == NORMAL

    def test_stop_wait_requires_stopped(self, engine):
        wc = make_controller(engine)
        with pytest.raises(DBError):
            wc.stop_wait_event()


class TestDelays:
    def test_no_delay_when_normal(self, engine):
        wc = make_controller(engine)
        assert wc.get_delay(1024) == 0

    def test_pacing_matches_rate(self, engine):
        """Aggregate delayed intake converges to delayed_write_rate."""
        wc = make_controller(engine, delayed_write_rate=1 * MB)
        wc.update(metrics(l0=20))
        writes = 200

        def writer():
            for _ in range(writes):
                delay = wc.get_delay(1024)
                yield delay if delay > 0 else 1

        engine.process(writer())
        engine.run()
        # 200 KB at 1 MB/s ~ 0.195 s of wall time.
        expected = writes * 1024 * SEC / MB
        assert engine.now == pytest.approx(expected, rel=0.05)

    def test_min_rate_gives_refill_scale_delays(self, engine):
        """At the 1 MB/s floor a 1 KB write waits ~1024 us (Eq. 1's delay)."""
        wc = make_controller(engine, delayed_write_rate=1 * MB)
        wc.update(metrics(l0=20))
        wc.get_delay(1024)  # prime the virtual clock
        delay = wc.get_delay(1024)
        assert delay == pytest.approx(us(1024), rel=0.05)

    def test_idle_credit_capped_at_one_interval(self, engine):
        wc = make_controller(engine, delayed_write_rate=16 * MB)
        wc.update(metrics(l0=20))
        # Long idle: only one refill interval of credit accrues, so a burst
        # of writes is paced after roughly refill_interval worth of bytes.
        burst_delays = [wc.get_delay(64 * 1024) for _ in range(10)]
        assert burst_delays[0] == 0
        assert any(d > 0 for d in burst_delays[1:])

    def test_delay_stats_recorded(self, engine):
        wc = make_controller(engine, delayed_write_rate=1 * MB)
        wc.update(metrics(l0=20))
        for _ in range(5):
            wc.get_delay(4096)
        assert wc.stats.get("delays") > 0
        assert wc.stats.get("delay_ns_total") > 0


class TestRefillClockReset:
    def test_stale_reservation_cleared_on_leaving_delayed(self, engine):
        """Regression: reservations from one DELAYED episode must not
        charge the first writes of the next one (STOPPED skips
        reset_rate(), so get_delay() itself has to clear the clock)."""
        wc = make_controller(engine, delayed_write_rate=1 * MB)
        wc.update(metrics(l0=20))
        for _ in range(8):  # reserve 512 KB at 1 MB/s ~ 0.5 s of credit
            wc.get_delay(64 * 1024)
        assert wc._next_refill_time > engine.now + SEC // 3
        wc.update(metrics(l0=36))  # DELAYED -> STOPPED
        assert wc.get_delay(1024) == 0  # non-delayed probe resets the clock
        wc.update(metrics(l0=20))  # STOPPED -> DELAYED again
        assert wc.get_delay(1024) <= REFILL_INTERVAL_NS


class TestRateAdaptation:
    def test_rate_decays_when_backlog_grows(self, engine):
        wc = make_controller(engine)
        wc.update(metrics(l0=20))
        initial = wc.delayed_write_rate
        wc.on_delayed_write(backlog_bytes=100)
        wc.on_delayed_write(backlog_bytes=200)  # growing: Dec = 0.8
        assert wc.delayed_write_rate == pytest.approx(initial * 0.8)

    def test_rate_recovers_when_backlog_shrinks(self, engine):
        wc = make_controller(engine)
        wc.update(metrics(l0=20))
        wc.on_delayed_write(backlog_bytes=200)
        wc.on_delayed_write(backlog_bytes=100)  # shrinking: Inc = 1.25
        assert wc.delayed_write_rate == pytest.approx(
            float(wc.options.delayed_write_rate) * 1.25
        )

    def test_rate_bounded_below(self, engine):
        wc = make_controller(engine)
        wc.update(metrics(l0=20))
        for i in range(100):
            wc.on_delayed_write(backlog_bytes=i + 1)  # always growing
        assert wc.delayed_write_rate >= MIN_DELAYED_WRITE_RATE

    def test_rate_bounded_above(self, engine):
        wc = make_controller(engine)
        wc.update(metrics(l0=20))
        for i in range(100, 0, -1):
            wc.on_delayed_write(backlog_bytes=i)  # always shrinking
        assert wc.delayed_write_rate <= 4 * wc.options.delayed_write_rate

    def test_reset_rate(self, engine):
        wc = make_controller(engine)
        wc.update(metrics(l0=20))
        wc.on_delayed_write(100)
        wc.on_delayed_write(200)
        wc.reset_rate()
        assert wc.delayed_write_rate == float(wc.options.delayed_write_rate)
