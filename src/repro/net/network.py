"""Simulated point-to-point links between cluster nodes.

The model is intentionally message-level (no TCP): each ``send`` draws a
one-way latency (``LATENCY_NS`` scaled by a uniform factor within
``JITTER``) from the link's named RNG substream, serializes the payload
through ``BANDWIDTH_BYTES_PER_SEC`` (back-to-back sends queue behind each
other's serialization time), and schedules delivery into the destination
inbox via a single engine timeout.  Partitions, delay storms and drop
windows all decide at send time from the virtual clock, which keeps a run a
pure function of (seed, schedule, workload).

Fault windows come from :class:`~repro.faults.schedule.FaultSpec`:

* ``partition`` — messages crossing the ``nodes`` group boundary are
  dropped while the window is open (``at_time`` .. ``until_time`` or until
  an explicit ``heal``);
* ``heal`` — closes every partition window still open at its ``at_time``
  (applied at install time: windows are static data);
* ``net_delay`` — adds ``extra_ns`` to the drawn latency inside a window;
* ``net_drop`` — drops messages with probability ``drop_p`` inside a window.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import SimulationError
from repro.faults.schedule import HEAL, NET_DELAY, NET_DROP, PARTITION, FaultSpec
from repro.sim.engine import Engine, Event
from repro.sim.resources import Store
from repro.sim.rng import RandomStream
from repro.sim.stats import StatsSet
from repro.sim.units import SEC, us

#: Sentinel end for a partition that stays open until healed.
_OPEN = (1 << 62)

#: Every link's one-way latency, jitter fraction and bandwidth.
LATENCY_NS = us(50)
JITTER = 0.1
BANDWIDTH_BYTES_PER_SEC = 1_250_000_000  # ~10 Gbit/s


class Link:
    """One directed link: its RNG substream and bandwidth occupancy."""

    __slots__ = ("rng", "busy_until")

    def __init__(self, rng: RandomStream) -> None:
        self.rng = rng
        self.busy_until = 0


class _Window:
    """One active fault window (partition / delay / drop)."""

    __slots__ = ("kind", "start", "end", "group", "extra_ns", "drop_p")

    def __init__(self, spec: FaultSpec) -> None:
        self.kind = spec.kind
        self.start = spec.at_time
        self.end = spec.until_time if spec.until_time is not None else _OPEN
        self.group = frozenset(spec.nodes) if spec.nodes else frozenset()
        self.extra_ns = spec.extra_ns
        self.drop_p = spec.drop_p


class Network:
    """N node inboxes joined by deterministic point-to-point links."""

    def __init__(self, engine: Engine, n_nodes: int, rng: RandomStream) -> None:
        if n_nodes < 1:
            raise SimulationError(f"network needs >= 1 node, got {n_nodes}")
        self.engine = engine
        self.n_nodes = n_nodes
        self.rng = rng
        self.inboxes: List[Store] = [Store(engine) for _ in range(n_nodes)]
        self.down: List[bool] = [False] * n_nodes
        self.stats = StatsSet()
        self._tickers = self.stats.counters()  # the send path counts inline
        self.log: List[str] = []
        self._links: Dict[Tuple[int, int], Link] = {}
        self._windows: List[_Window] = []
        # The windows not yet closed at the last refresh, in install order,
        # and the earliest end among them.  Until the clock reaches that end
        # every listed window is still open, so the data path tests only
        # its start and never walks a window that has closed.
        self._open: List[_Window] = []
        self._open_until = 0

    # -- topology state ----------------------------------------------------

    def link(self, src: int, dst: int) -> Link:
        """The directed (src, dst) link, created on first use.

        Lazy creation is safe because the RNG substream is derived from the
        link *name*, not from creation order.
        """
        key = (src, dst)
        lk = self._links.get(key)
        if lk is None:
            lk = Link(self.rng.fork(f"link/{src}->{dst}"))
            self._links[key] = lk
        return lk

    def set_down(self, node: int) -> None:
        """Mark a node crashed: no messages flow to or from it."""
        self.down[node] = True
        self._record(f"node {node} down")

    def set_up(self, node: int) -> None:
        self.down[node] = False
        self._record(f"node {node} up")

    # -- fault windows -----------------------------------------------------

    def install_schedule(self, specs: List[FaultSpec]) -> None:
        """Install the net-level specs of a schedule as static windows.

        ``heal`` events are resolved here: each one closes every partition
        window still open at its ``at_time``.  Spec order is the tie-break,
        matching the injector's convention.
        """
        for spec in specs:
            if spec.kind == HEAL:
                for w in self._windows:
                    if w.kind == PARTITION and w.start < spec.at_time < w.end:
                        w.end = spec.at_time
                continue
            if spec.kind in (PARTITION, NET_DELAY, NET_DROP):
                self._windows.append(_Window(spec))
        self._open_until = 0

    def partition(self, nodes) -> None:
        """Manually isolate ``nodes`` from the rest, starting now."""
        spec = FaultSpec(PARTITION, at_time=self.engine.now, nodes=tuple(nodes))
        self._windows.append(_Window(spec))
        self._open_until = 0
        self._record(f"partition {sorted(spec.nodes)}")

    def heal(self) -> None:
        """Close every partition window still open now."""
        now = self.engine.now
        for w in self._windows:
            if w.kind == PARTITION and w.start <= now < w.end:
                w.end = now
        self._open_until = 0
        self._record("heal")

    def end_windows(self) -> None:
        """End every fault window still open now — delay/drop storms too,
        which :meth:`heal` leaves running.  Logs nothing."""
        now = self.engine.now
        for w in self._windows:
            if w.end > now:
                w.end = now
        self._open_until = 0

    def _open_windows(self, now: int) -> List[_Window]:
        """The windows whose end lies beyond ``now`` (the clock), in order."""
        if now >= self._open_until:
            self._open = [w for w in self._windows if w.end > now]
            self._open_until = min((w.end for w in self._open), default=_OPEN)
        return self._open

    def partitioned(self, src: int, dst: int) -> bool:
        """True when a partition window separates src and dst right now."""
        now = self.engine.now
        for w in self._open_windows(now):
            if (
                w.kind == PARTITION
                and w.start <= now < w.end
                and (src in w.group) != (dst in w.group)
            ):
                return True
        return False

    # -- the data path -----------------------------------------------------

    def send(self, src: int, dst: int, msg: Any, nbytes: int = 0) -> None:
        """Ship one message; delivery (if any) is scheduled and returns.

        Fire-and-forget like UDP: callers needing acknowledgement build it
        in the protocol above (the cluster layer's retry/timeout loop).
        """
        now = self.engine.now
        tickers = self._tickers
        tickers["net.sends"] += 1
        if self.down[src] or self.down[dst]:
            tickers["net.dropped_down"] += 1
            return
        drop_p = 0.0
        extra_ns = 0
        windows = self._open if now < self._open_until else self._open_windows(now)
        # One pass: every listed window is open until its start is reached.
        for w in windows:
            if w.start > now:
                continue
            kind = w.kind
            if kind == PARTITION:
                if (src in w.group) != (dst in w.group):
                    tickers["net.dropped_partition"] += 1
                    self._record(f"drop(partition) {src}->{dst}")
                    return
            elif kind == NET_DROP:
                drop_p = min(1.0, drop_p + w.drop_p)
            elif kind == NET_DELAY:
                extra_ns += w.extra_ns
        lk = self._links.get((src, dst)) or self.link(src, dst)
        if drop_p > 0.0 and lk.rng.chance(drop_p):
            tickers["net.dropped_loss"] += 1
            self._record(f"drop(loss) {src}->{dst}")
            return
        serialize = (nbytes * SEC) // BANDWIDTH_BYTES_PER_SEC
        busy = lk.busy_until
        lk.busy_until = depart = (busy if busy > now else now) + serialize
        latency = round(lk.rng.jittered(LATENCY_NS + extra_ns, JITTER))
        self._deliver(dst, msg, (depart - now) + latency)

    def _deliver(self, dst: int, msg: Any, delay: int) -> None:
        ev = self.engine.timeout(delay if delay > 0 else 0, (dst, msg))
        ev.callbacks.append(self._arrive)

    def _arrive(self, ev: Event) -> None:
        dst, msg = ev._value
        if self.down[dst]:
            self._tickers["net.dropped_down"] += 1
            return
        self._tickers["net.delivered"] += 1
        self.inboxes[dst].put(msg)

    # -- bookkeeping -------------------------------------------------------

    def _record(self, line: str) -> None:
        self.log.append(f"t={self.engine.now} {line}")
