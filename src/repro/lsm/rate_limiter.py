"""Background I/O rate limiter (RocksDB's ``rate_limiter`` analog).

The paper's Findings #2/#3 show compaction and flush I/O inflating
foreground read tails — the deployment-side mitigation RocksDB offers is a
token-bucket limiter on background writes.  The limiter paces flush and
compaction output with the same virtual-refill-clock scheme as the write
controller: each request reserves ``nbytes / rate`` of future credit and
waits until its reservation starts.

Enable with ``Options.rate_limit_bytes_per_sec > 0``.
"""

from __future__ import annotations

from repro.errors import DBError
from repro.sim.engine import Engine
from repro.sim.units import MS, SEC

#: Idle credit a limiter banks: at most one burst window of bytes.
BURST_NS = 100 * MS


class RateLimiter:
    """Token-bucket pacing for background bytes."""

    def __init__(self, engine: Engine, bytes_per_sec: int) -> None:
        if bytes_per_sec <= 0:
            raise DBError(f"rate must be positive: {bytes_per_sec}")
        self.engine = engine
        self.bytes_per_sec = bytes_per_sec
        self._next_refill_time = 0

    def request(self, nbytes: int) -> int:
        """Reserve ``nbytes`` of credit; returns the ns to sleep first."""
        if nbytes <= 0:
            raise DBError(f"request must be positive: {nbytes}")
        now = self.engine.now
        nrt = self._next_refill_time
        if nrt < now - BURST_NS:
            nrt = now - BURST_NS  # cap idle credit at one burst window
        delay = nrt - now if nrt > now else 0
        self._next_refill_time = max(nrt, now) + nbytes * SEC // self.bytes_per_sec
        return delay
