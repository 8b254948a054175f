"""Write throttling — the paper's **Algorithm 1** (WRITE CONTROL PROCESS).

When background work falls behind (too many Level-0 files, full memtables or
compaction debt), RocksDB injects delays into the write path.  The delay
token bucket follows the paper's pseudocode exactly: refill interval
1024 us, rate multiplied by Dec = 0.8 when the backlog is not shrinking and
by Inc = 1.25 when it is, and per-write delays of ``refill_interval`` or
``num_bytes / delayed_write_rate``.

The controller is a pure policy object: the DB feeds it a
:class:`StallMetrics` snapshot whenever the LSM shape changes and asks it
for a delay before each write.  Case study A subclasses it
(:class:`~repro.core.two_stage_throttle.TwoStageWriteController`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import DBError
from repro.lsm.options import Options
from repro.sim.engine import Engine, Event
from repro.sim.stats import StatsSet
from repro.sim.units import MB, SEC, us

NORMAL = "normal"
DELAYED = "delayed"
STOPPED = "stopped"

_STATE_RANK = {NORMAL: 0, DELAYED: 1, STOPPED: 2}

# Algorithm 1's constants (RocksDB 5.17): the refill interval, the rate
# adaptation factors Dec and Inc, and the floor the rate adapts down to.
REFILL_INTERVAL_NS = us(1024)
DELAYED_WRITE_RATE_DEC = 0.8
DELAYED_WRITE_RATE_INC = 1.25
MIN_DELAYED_WRITE_RATE = 1 * MB


@dataclass(frozen=True)
class StallMetrics:
    """LSM shape snapshot used to pick the stall state."""

    l0_files: int
    immutable_memtables: int
    max_immutable_memtables: int
    pending_compaction_bytes: int


class WriteController:
    """Algorithm 1: adaptive delayed-write-rate token bucket."""

    def __init__(self, engine: Engine, options: Options) -> None:
        self.engine = engine
        self.options = options
        self.state = NORMAL
        self.delayed_write_rate = float(options.delayed_write_rate)
        self._max_rate = float(options.delayed_write_rate) * 4
        self._min_rate = float(MIN_DELAYED_WRITE_RATE)
        # Virtual refill clock: the timestamp up to which intake credit is
        # already spoken for.  Aggregate delayed intake = delayed_write_rate.
        self._next_refill_time = 0
        self._prev_backlog: Optional[int] = None
        self._stop_event: Optional[Event] = None
        self.stats = StatsSet()
        # External state floor: degraded conditions outside Algorithm 1's
        # metrics (a soft background error, low disk space) force at least
        # this state regardless of LSM shape.  NORMAL = no floor.
        self.floor = NORMAL

    # -- state policy ----------------------------------------------------------

    def pick_state(self, metrics: StallMetrics) -> str:
        """Map LSM shape to normal/delayed/stopped (override in case studies)."""
        opts = self.options
        if (
            metrics.l0_files >= opts.level0_stop_writes_trigger
            or metrics.immutable_memtables >= metrics.max_immutable_memtables
        ):
            return STOPPED
        if (
            metrics.l0_files >= opts.level0_slowdown_writes_trigger
            or metrics.pending_compaction_bytes
            >= opts.soft_pending_compaction_bytes_limit
        ):
            return DELAYED
        return NORMAL

    def update(self, metrics: StallMetrics) -> None:
        """Re-evaluate the stall state after an LSM shape change."""
        new_state = self.pick_state(metrics)
        if _STATE_RANK[new_state] < _STATE_RANK[self.floor]:
            new_state = self.floor
        if new_state == self.state:
            return
        old_state = self.state
        self.state = new_state
        self.engine.tracer.stall_transition(
            old_state, new_state, self.delayed_write_rate
        )
        if old_state == STOPPED and self._stop_event is not None:
            self._stop_event.succeed()
            self._stop_event = None
        if new_state == STOPPED:
            self.stats.inc("stops")
        elif new_state == DELAYED:
            self.stats.inc("slowdowns")

    def stop_wait_event(self) -> Event:
        """Event that fires when the STOPPED condition clears."""
        if self.state != STOPPED:
            raise DBError("stop_wait_event() while not stopped")
        if self._stop_event is None:
            self._stop_event = self.engine.event()
        return self._stop_event

    def kick_stopped_writers(self) -> None:
        """Wake writers parked on :meth:`stop_wait_event` without a state
        change, so they can re-check conditions that bypass the stall
        machinery (the DB turning read-only under a hard background error).
        """
        if self._stop_event is not None:
            self._stop_event.succeed()
            self._stop_event = None

    # -- Algorithm 1 ----------------------------------------------------------------

    def on_delayed_write(self, backlog_bytes: int) -> None:
        """Lines 7–11: adapt the rate to the compaction backlog trend."""
        if self._prev_backlog is not None:
            if self._prev_backlog <= backlog_bytes:
                # Backlog not shrinking: compaction is behind, slow down.
                self.delayed_write_rate *= DELAYED_WRITE_RATE_DEC
            else:
                self.delayed_write_rate *= DELAYED_WRITE_RATE_INC
            self.delayed_write_rate = min(
                self._max_rate, max(self._min_rate, self.delayed_write_rate)
            )
        self._prev_backlog = backlog_bytes

    def get_delay(self, num_bytes: int) -> int:
        """The DELAYWRITE function: per-write sleep in nanoseconds.

        Implemented as the virtual refill clock the pseudocode abbreviates
        (RocksDB's actual WriteController): each delayed write reserves
        ``num_bytes / delayed_write_rate`` of future intake credit and
        sleeps until its reservation starts; credit accrued while idle is
        capped at one ``refill_interval``.  Aggregate delayed intake
        therefore equals ``delayed_write_rate``, and at the minimum rate a
        1 KB write sleeps ~1024 us — exactly the per-write delay the
        paper's Equation 1 plugs in.
        """
        if self.state != DELAYED:
            self._prev_backlog = None
            # A reservation from a previous DELAYED episode must not outlive
            # it: without this reset, re-entering DELAYED shortly after (e.g.
            # via STOPPED, which skips reset_rate()) would charge the first
            # writes for credit consumed before the episode ended.
            self._next_refill_time = 0
            return 0
        now = self.engine.now
        refill = REFILL_INTERVAL_NS
        rate = self.delayed_write_rate  # bytes / second

        nrt = self._next_refill_time
        if nrt < now - refill:
            nrt = now - refill  # cap idle credit at one refill interval
        delay = nrt - now if nrt > now else 0
        charge = round(num_bytes * SEC / rate)
        self._next_refill_time = max(nrt, now) + charge
        if delay > 0:
            self.stats.inc("delays")
            self.stats.inc("delay_ns_total", delay)
        return delay

    def reset_rate(self) -> None:
        """Restore the user-configured rate (when leaving DELAYED)."""
        self.delayed_write_rate = float(self.options.delayed_write_rate)
        self._prev_backlog = None
        self._next_refill_time = 0
