"""Case study B: dynamic Level-0 management (Section V-B).

Finding #2 showed the tension: fewer/larger Level-0 files shorten READ
latency (fewer files to search), smaller files shorten WRITE latency
(smaller skiplists to insert into).  Holding the aggregate Level-0 volume
constant, the paper adapts the file size to the observed read/write ratio:

* WRITE-intensive (writes > 25 %): many small files (24 in the paper);
* READ-intensive: few large files (6 in the paper).

The manager is a background process that samples the DB's read/write
counters and retunes ``write_buffer_size`` (which directly sets the size of
future memtables and hence L0 files).  Per the paper, the DB is initialized
to throttle when Level 0 reaches 24 files.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DBError
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.sim.engine import Process
from repro.sim.units import ms

#: The paper's file counts: few large L0 files when reads dominate, many
#: small ones when writes exceed ``WRITE_INTENSIVE_THRESHOLD``.
READ_INTENSIVE_FILES = 6
WRITE_INTENSIVE_FILES = 24
WRITE_INTENSIVE_THRESHOLD = 0.25
#: How often the manager samples the DB's read/write counters.
SAMPLE_INTERVAL_NS = ms(250)


def dynamic_l0_options(base: Options) -> Options:
    """The paper's case-study initialization: slowdown at 24 L0 files."""
    return base.copy(
        level0_slowdown_writes_trigger=24,
        level0_stop_writes_trigger=max(36, base.level0_stop_writes_trigger),
        name=f"{base.name}+dynamic-l0",
    )


class DynamicL0Manager:
    """Online R/W-ratio-driven Level-0 file-size adaptation."""

    def __init__(self, db: DB, l0_volume_bytes: int) -> None:
        if l0_volume_bytes <= 0:
            raise DBError(f"L0 volume must be positive: {l0_volume_bytes}")
        self.db = db
        self.l0_volume_bytes = l0_volume_bytes
        self._last_gets = 0
        self._last_puts = 0
        self._proc: Optional[Process] = None
        self.mode = "write-intensive"
        self.mode_switches = 0
        self._apply_mode()

    def start(self) -> Process:
        """Launch the background sampling process."""
        if self._proc is not None:
            raise DBError("DynamicL0Manager already started")
        self._proc = self.db.engine.process(self._run(), name="dynamic-l0")
        return self._proc

    def observed_write_fraction(self) -> Optional[float]:
        """Write fraction since the previous sample (None if no traffic)."""
        gets = self.db.stats.get("gets")
        puts = self.db.stats.get("puts")
        d_gets = gets - self._last_gets
        d_puts = puts - self._last_puts
        self._last_gets = gets
        self._last_puts = puts
        total = d_gets + d_puts
        if total == 0:
            return None
        return d_puts / total

    def _target_files(self, write_fraction: float) -> int:
        if write_fraction > WRITE_INTENSIVE_THRESHOLD:
            return WRITE_INTENSIVE_FILES
        return READ_INTENSIVE_FILES

    def _apply_mode(self) -> None:
        files = (
            WRITE_INTENSIVE_FILES
            if self.mode == "write-intensive"
            else READ_INTENSIVE_FILES
        )
        self.db.options.write_buffer_size = max(1, self.l0_volume_bytes // files)

    def step(self, write_fraction: Optional[float]) -> None:
        """One adaptation decision (factored out for unit testing)."""
        if write_fraction is None:
            return
        new_mode = (
            "write-intensive"
            if self._target_files(write_fraction) == WRITE_INTENSIVE_FILES
            else "read-intensive"
        )
        if new_mode != self.mode:
            self.mode = new_mode
            self.mode_switches += 1
            self._apply_mode()
            self.db.stats.inc("dynamic_l0.mode_switches")

    def _run(self):
        while True:
            yield SAMPLE_INTERVAL_NS
            self.step(self.observed_write_fraction())
