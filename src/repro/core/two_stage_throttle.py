"""Case study A: two-stage throttling (Section V-A).

The stock throttling mechanism (Algorithm 1) pulls throughput to a near-stop
(~3 kop/s) whenever a write burst pushes Level 0 past the slowdown trigger.
The paper's fix splits throttling into two stages:

* **Stage 1 — slight throttling.**  Between ``slowdown_threshold`` and the
  midpoint ``(slowdown + stop) / 2``, writes are paced at no less than the
  user-configured ``delayed_write_rate`` — the adaptive rate decay that
  causes the collapse is disabled.
* **Stage 2 — aggressive throttling.**  Past the midpoint, the original
  Algorithm 1 (with Dec/Inc rate adaptation) takes over.

Build a :class:`TwoStageWriteController` from ``(engine, options)`` and
pass it to :meth:`repro.harness.machine.Machine.open_db` (or
``DB(controller=...)``).
"""

from __future__ import annotations

from repro.lsm.options import Options
from repro.lsm.write_controller import (
    DELAYED,
    STOPPED,
    StallMetrics,
    WriteController,
)
from repro.sim.engine import Engine

STAGE_NONE = 0
STAGE_SLIGHT = 1
STAGE_AGGRESSIVE = 2


class TwoStageWriteController(WriteController):
    """Algorithm 1 extended with the paper's slight-throttling first stage."""

    def __init__(self, engine: Engine, options: Options) -> None:
        super().__init__(engine, options)
        self.stage = STAGE_NONE
        self.midpoint = (
            options.level0_slowdown_writes_trigger
            + options.level0_stop_writes_trigger
        ) // 2

    def pick_state(self, metrics: StallMetrics) -> str:
        state = super().pick_state(metrics)
        if state == STOPPED:
            self.stage = STAGE_AGGRESSIVE
            return state
        if state == DELAYED:
            if metrics.l0_files >= self.midpoint:
                self.stage = STAGE_AGGRESSIVE
            else:
                self.stage = STAGE_SLIGHT
        else:
            self.stage = STAGE_NONE
        return state

    def on_delayed_write(self, backlog_bytes: int) -> None:
        if self.stage == STAGE_SLIGHT:
            # Stage 1: pace at the user-configured floor; no adaptive decay
            # below the maximum acceptable delayed_write_rate.
            self.delayed_write_rate = float(self.options.delayed_write_rate)
            self._prev_backlog = backlog_bytes
            self.stats.inc("stage1_writes")
            return
        self.stats.inc("stage2_writes")
        super().on_delayed_write(backlog_bytes)
