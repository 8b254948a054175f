"""The tracing core: collector, per-engine views, and the no-op tracer.

Design
------

``Tracer``
    The collector.  It owns the event buffer and the pid/tid registries and
    knows how to serialize everything as Chrome ``trace_events`` JSON.  One
    tracer can record several simulated machines at once: each bound
    :class:`~repro.sim.engine.Engine` becomes one trace *process* (pid) and
    each simulated actor (a device, a flush worker, the write controller)
    becomes one *thread* (tid) inside it, so Perfetto lays a multi-machine
    harness run out as side-by-side process groups.

``EngineTracer``
    The view instrumented code talks to, obtained via ``Tracer.bind(engine)``
    (``Engine.__init__`` does this automatically).  Timestamps come from
    ``engine.now`` unless an event is emitted retroactively — the storage
    device computes request start/finish analytically at submit time, so it
    reports spans with explicit timestamps via :meth:`EngineTracer.complete`.

``NullTracer``
    The disabled tracer.  ``bind`` returns the same singleton and every
    public ``EngineTracer`` method is one shared no-op, so instrumented call
    sites run unconditionally at the cost of one no-op call.  The two hot
    paths (the engine kernel, the storage device) cache ``tracer.enabled``
    at bind time and make no tracer call at all when it is off.

Events are buffered as plain tuples ``(pid, tid, ph, name, ts, dur, args)``
with nanosecond timestamps; conversion to the JSON schema (microsecond
floats, metadata records) happens once at export time.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

# Chrome trace_events phases used here: "X" complete span, "i" instant,
# "C" counter, "M" metadata (emitted at export time only).
_SPAN = "X"
_INSTANT = "i"
_COUNTER = "C"

Event = Tuple[int, int, str, str, int, int, Optional[Dict[str, Any]]]


class Tracer:
    """Event collector and Chrome-trace exporter.

    ``max_events`` bounds memory for very long runs: once reached, further
    events are counted in :attr:`dropped` instead of stored (the export
    records the drop count so a truncated trace is never mistaken for a
    complete one).
    """

    def __init__(self, max_events: Optional[int] = None) -> None:
        self.enabled = True
        self.max_events = max_events
        self.dropped = 0
        self._events: List[Event] = []
        self._next_pid = 0
        self._pid_labels: Dict[int, str] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self._track_names: Dict[Tuple[int, int], str] = {}

    # -- binding ----------------------------------------------------------

    def bind(self, engine) -> "EngineTracer":
        """Register ``engine`` as trace process ``engine-<pid>``; returns
        its tracer view."""
        self._next_pid += 1
        pid = self._next_pid
        self._pid_labels[pid] = f"engine-{pid}"
        return EngineTracer(self, engine, pid)

    # -- collection (called by EngineTracer) ------------------------------

    def _tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[key] = tid
            self._track_names[(pid, tid)] = track
        return tid

    def _add(
        self,
        pid: int,
        track: str,
        ph: str,
        name: str,
        ts: int,
        dur: int,
        args: Optional[Dict[str, Any]],
    ) -> None:
        if self.max_events is not None and len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append((pid, self._tid(pid, track), ph, name, ts, dur, args))

    # -- introspection -----------------------------------------------------

    @property
    def num_events(self) -> int:
        return len(self._events)

    def iter_events(self) -> Iterator[Tuple[str, str, str, int, int, Optional[dict]]]:
        """Yield ``(track, ph, name, ts_ns, dur_ns, args)`` with resolved
        track names (pid-qualified only when several engines are bound)."""
        multi = self._next_pid > 1
        for pid, tid, ph, name, ts, dur, args in self._events:
            track = self._track_names[(pid, tid)]
            if multi:
                track = f"{self._pid_labels[pid]}/{track}"
            yield track, ph, name, ts, dur, args

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The full trace as a Chrome ``trace_events`` JSON object."""
        events: List[Dict[str, Any]] = []
        for pid, label in self._pid_labels.items():
            events.append(
                {
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": label},
                }
            )
        for (pid, tid), track in self._track_names.items():
            events.append(
                {
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": track},
                }
            )
        for pid, tid, ph, name, ts, dur, args in self._events:
            event: Dict[str, Any] = {
                "ph": ph, "name": name, "pid": pid, "tid": tid, "ts": ts / 1e3,
            }
            if ph == _SPAN:
                event["dur"] = dur / 1e3
            elif ph == _INSTANT:
                event["s"] = "t"  # thread-scoped instant
            if args is not None:
                event["args"] = args
            events.append(event)
        out: Dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
        }
        if self.dropped:
            out["otherData"] = {"dropped_events": self.dropped}
        return out

    def export(self, path: str) -> int:
        """Write the trace as JSON; returns the number of data events."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f)
        return len(self._events)


class EngineTracer:
    """One engine's recording view onto a :class:`Tracer`.

    Timestamps default to ``engine.now``; the explicit-timestamp methods
    (:meth:`complete`) exist for components that compute event times
    analytically (the device's virtual channel clocks).
    """

    enabled = True

    __slots__ = ("tracer", "engine", "pid", "_stacks")

    def __init__(self, tracer: Tracer, engine, pid: int) -> None:
        self.tracer = tracer
        self.engine = engine
        self.pid = pid
        # Open-span stacks, one per track: [(name, start_ns), ...].
        self._stacks: Dict[str, list] = {}

    # -- generic API -------------------------------------------------------

    def span_begin(self, track: str, name: str) -> None:
        """Open a span on ``track`` at ``engine.now`` (close with span_end)."""
        self._stacks.setdefault(track, []).append((name, self.engine.now))

    def span_end(self, track: str, args: Optional[dict] = None) -> None:
        """Close the innermost open span on ``track`` at ``engine.now``."""
        stack = self._stacks.get(track)
        if not stack:
            return  # unmatched end: drop rather than corrupt the trace
        name, start = stack.pop()
        self.complete(track, name, start, self.engine.now - start, args)

    def complete(
        self, track: str, name: str, start_ns: int, dur_ns: int,
        args: Optional[dict] = None,
    ) -> None:
        """Record a finished span with explicit timestamps."""
        self.tracer._add(self.pid, track, _SPAN, name, start_ns, dur_ns, args)

    def instant(self, track: str, name: str, args: Optional[dict] = None) -> None:
        """Record a point event at ``engine.now``."""
        self.tracer._add(self.pid, track, _INSTANT, name, self.engine.now, 0, args)

    def counter(self, track: str, name: str, value: float) -> None:
        """Record a counter sample (rendered as a step graph) at ``engine.now``."""
        self.tracer._add(
            self.pid, track, _COUNTER, name, self.engine.now, 0, {"value": value}
        )

    # -- domain hooks (the one place that knows the track/name formats) ----

    def process_spawn(self, name: str) -> None:
        self.instant("engine", f"spawn:{name}")

    def process_finish(self, name: str, ok: bool) -> None:
        self.instant("engine", f"{'finish' if ok else 'crash'}:{name}")

    def device_request(
        self, track: str, op: str, submit_ns: int, start_ns: int,
        finish_ns: int, nbytes: int, sequential: bool,
    ) -> None:
        """One storage request: a queue-wait phase then a service phase."""
        if start_ns > submit_ns:
            self.complete(track, f"{op}.wait", submit_ns, start_ns - submit_ns)
        self.complete(
            track, op, start_ns, finish_ns - start_ns,
            {"bytes": nbytes, "sequential": sequential},
        )

    def gc_pause(self, track: str, at_ns: int, pause_ns: int) -> None:
        self.tracer._add(
            self.pid, track, _INSTANT, "gc_pause", at_ns, 0, {"pause_ns": pause_ns}
        )

    def stall_transition(self, old: str, new: str, delayed_write_rate: float) -> None:
        self.instant(
            "write_controller", f"{old}->{new}",
            {"delayed_write_rate": delayed_write_rate},
        )

    def write_group(self, start_ns: int, end_ns: int, writers: int) -> None:
        self.complete(
            "db", "write_group", start_ns, end_ns - start_ns, {"writers": writers}
        )

    # -- background-error lifecycle (repro.lsm.error_handler) ---------------

    def bg_error(self, source: str, severity: str) -> None:
        """A background failure was classified (error-raised)."""
        self.instant("error_handler", f"error:{source}", {"severity": severity})

    def degraded_transition(self, old: str, new: str) -> None:
        """Degraded-mode severity change, 'normal' meaning healthy.

        Named ``old->new`` on the ``error_handler`` track, mirroring
        :meth:`stall_transition`, so the summary digests parse episodes
        the same way.
        """
        self.instant("error_handler", f"{old}->{new}")

    def resume_attempt(self, attempt: int, source: str) -> None:
        self.instant(
            "error_handler", "resume_attempt",
            {"attempt": attempt, "source": source},
        )

    def resume_success(self, attempts: int, degraded_ns: int) -> None:
        self.instant(
            "error_handler", "resume_success",
            {"attempts": attempts, "degraded_ns": degraded_ns},
        )

    # -- replication lifecycle (repro.cluster) ------------------------------

    def failover(self, term: int, leader_id: int) -> None:
        """A new leader took over (term bump), including the initial one."""
        self.instant("cluster", "failover", {"term": term, "leader": leader_id})

    def replication_apply(self, node_id: int, seq: int) -> None:
        """A follower applied a shipped WAL group ending at ``seq``."""
        self.instant(
            "cluster", f"apply:node{node_id}", {"node": node_id, "seq": seq}
        )


def _noop(self, *args, **kwargs) -> None:
    return None


class NullTracer:
    """The disabled tracer: every hook is a no-op and ``bind`` returns self.

    A single shared instance (:data:`NULL_TRACER`) is installed on every
    engine when no tracer is active, so instrumented code never branches on
    whether tracing is on.  The loop below the class derives its surface
    from :class:`EngineTracer` — a new hook is one method there.
    """

    enabled = False

    __slots__ = ()

    def bind(self, engine) -> "NullTracer":
        return self


for _name, _hook in vars(EngineTracer).items():
    if callable(_hook) and not _name.startswith("_"):
        setattr(NullTracer, _name, _noop)


NULL_TRACER = NullTracer()

_active: Any = NULL_TRACER


def set_active_tracer(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` for every Engine created from now on (None clears)."""
    global _active
    _active = tracer if tracer is not None else NULL_TRACER


def active_tracer():
    """The tracer new engines bind to (NULL_TRACER when tracing is off)."""
    return _active
