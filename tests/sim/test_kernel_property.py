"""Property tests pinning kernel semantics under hot-path optimization.

The engine's run loop is heavily optimized (now-queue for delay-zero
occurrences, inlined process stepping, zero-allocation sleeps, the
lonely-sleep warp).  These tests
check the *semantics* never drifted: randomized scenarios — integer sleeps
including zero, cross-process event fires, failures, spawns, joins and
same-timestamp ties — are executed both on :class:`repro.sim.engine.Engine`
and on a deliberately naive reference kernel that implements the documented
contract the slow way (every occurrence goes through one heap with a
monotonic sequence number).  The observable logs and final clocks must match
exactly.

Also here: cache-correctness properties for the measurement primitives the
optimization pass touched (:class:`LatencyHistogram`'s sorted-bucket cache,
:class:`TimeSeries.rate_between`'s windowed scan).
"""

import heapq
import random

import pytest

from repro.obs import Tracer
from repro.sim.engine import Engine
from repro.sim.stats import LatencyHistogram, TimeSeries

# ---------------------------------------------------------------------------
# Reference kernel: the documented contract, implemented naively.
# ---------------------------------------------------------------------------


class RefWaitable:
    """Event/process result holder for the reference kernel."""

    def __init__(self):
        self.triggered = False
        self.value = None
        self.exc = None
        self.waiters = []


class RefKernel:
    """Single-heap kernel: every occurrence gets a (when, seq) heap entry.

    Delay-zero scheduling, spawns and event wakeups all take the generic
    path; ties break on the monotonic sequence number.  This is the ordering
    the optimized engine must reproduce.
    """

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0

    def schedule(self, delay, proc, value=None, exc=None):
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, proc, value, exc))

    def spawn(self, gen):
        proc = RefWaitable()
        proc.gen = gen
        self.schedule(0, proc)
        return proc

    def fire(self, waitable, value=None, exc=None):
        waitable.triggered = True
        waitable.value = value
        waitable.exc = exc
        for waiter in waitable.waiters:
            self.schedule(0, waiter, value, exc)
        waitable.waiters = []

    def run(self):
        while self._heap:
            when, _seq, proc, value, exc = heapq.heappop(self._heap)
            self.now = when
            self._step(proc, value, exc)
        return self.now

    def _step(self, proc, value, exc):
        gen = proc.gen
        while True:
            try:
                if exc is not None:
                    pending, exc = exc, None
                    yielded = gen.throw(pending)
                else:
                    yielded = gen.send(value)
            except StopIteration as stop:
                self.fire(proc, stop.value)
                return
            except RuntimeError as err:
                self.fire(proc, None, err)
                return
            if isinstance(yielded, int):
                if yielded == 0:
                    value = self.now  # synchronous continue, like the engine
                    continue
                self.schedule(yielded, proc)
                return
            # a RefWaitable: wait (or continue synchronously if triggered)
            if yielded.triggered:
                if yielded.exc is not None:
                    exc = yielded.exc
                    continue
                value = yielded.value
                continue
            yielded.waiters.append(proc)
            return


# ---------------------------------------------------------------------------
# Scenario scripts: one op language, two interpreters.
# ---------------------------------------------------------------------------
#
# A scenario is (n_events, [script, ...]) where each script is a list of ops:
#   ("sleep", d)         yield d (d may be 0)
#   ("mark", k)          log a marker
#   ("wait", i)          wait on event i, log the value or error
#   ("succeed", i, v)    fire event i successfully (each event fired once)
#   ("fail", i, m)       fire event i with RuntimeError(m)
#   ("spawn", script)    start a child running the sub-script
#   ("spawn_fail", m)    start a child that sleeps then raises; always
#                        followed by ("join",) so the failure is observed
#   ("join",)            join the most recent un-joined child, log result
#   ("ret", v)           return v from the script's process


def _engine_driver(engine, events, pid, script, log):
    children = []
    ret = None
    for cmd in script:
        op = cmd[0]
        if op == "sleep":
            yield cmd[1]
        elif op == "mark":
            log.append((engine.now, pid, "mark", cmd[1]))
        elif op == "wait":
            try:
                got = yield events[cmd[1]]
                log.append((engine.now, pid, "woke", cmd[1], got))
            except RuntimeError as err:
                log.append((engine.now, pid, "woke-err", cmd[1], str(err)))
        elif op == "succeed":
            events[cmd[1]].succeed(cmd[2])
            log.append((engine.now, pid, "fired", cmd[1]))
        elif op == "fail":
            events[cmd[1]].fail(RuntimeError(cmd[2]))
            log.append((engine.now, pid, "failed", cmd[1]))
        elif op == "spawn":
            cid = f"{pid}.{len(children)}"
            gen = _engine_driver(engine, events, cid, cmd[1], log)
            children.append(engine.process(gen, name=cid))
            log.append((engine.now, pid, "spawn", cid))
        elif op == "spawn_fail":
            cid = f"{pid}.{len(children)}"
            gen = _engine_driver(engine, events, cid, [("sleep", 1), ("raise", cmd[1])], log)
            children.append(engine.process(gen, name=cid))
            log.append((engine.now, pid, "spawn", cid))
        elif op == "join":
            if children:
                child = children.pop()
                try:
                    got = yield child
                    log.append((engine.now, pid, "joined", got))
                except RuntimeError as err:
                    log.append((engine.now, pid, "joined-err", str(err)))
        elif op == "raise":
            raise RuntimeError(cmd[1])
        elif op == "ret":
            ret = cmd[1]
    return ret


def _ref_driver(kernel, events, pid, script, log):
    children = []
    ret = None
    for cmd in script:
        op = cmd[0]
        if op == "sleep":
            yield cmd[1]
        elif op == "mark":
            log.append((kernel.now, pid, "mark", cmd[1]))
        elif op == "wait":
            try:
                got = yield events[cmd[1]]
                log.append((kernel.now, pid, "woke", cmd[1], got))
            except RuntimeError as err:
                log.append((kernel.now, pid, "woke-err", cmd[1], str(err)))
        elif op == "succeed":
            kernel.fire(events[cmd[1]], cmd[2])
            log.append((kernel.now, pid, "fired", cmd[1]))
        elif op == "fail":
            kernel.fire(events[cmd[1]], None, RuntimeError(cmd[2]))
            log.append((kernel.now, pid, "failed", cmd[1]))
        elif op == "spawn":
            cid = f"{pid}.{len(children)}"
            gen = _ref_driver(kernel, events, cid, cmd[1], log)
            children.append(kernel.spawn(gen))
            log.append((kernel.now, pid, "spawn", cid))
        elif op == "spawn_fail":
            cid = f"{pid}.{len(children)}"
            gen = _ref_driver(kernel, events, cid, [("sleep", 1), ("raise", cmd[1])], log)
            children.append(kernel.spawn(gen))
            log.append((kernel.now, pid, "spawn", cid))
        elif op == "join":
            if children:
                child = children.pop()
                try:
                    got = yield child
                    log.append((kernel.now, pid, "joined", got))
                except RuntimeError as err:
                    log.append((kernel.now, pid, "joined-err", str(err)))
        elif op == "raise":
            raise RuntimeError(cmd[1])
        elif op == "ret":
            ret = cmd[1]
    return ret


def run_on_engine(scenario, tracer=None, chunks=None):
    """Run to idle: in one ``run()``, or — given a ``random.Random`` as
    ``chunks`` — in random-size ``run(until=...)`` steps (the final clock
    then overshoots the last occurrence by at most one step, 3 ns)."""
    n_events, scripts = scenario
    engine = Engine(tracer=tracer)
    events = [engine.event() for _ in range(n_events)]
    log = []
    for i, script in enumerate(scripts):
        engine.process(_engine_driver(engine, events, f"p{i}", script, log), name=f"p{i}")
    if chunks is None:
        return log, engine.run()
    while engine.peek() is not None:
        engine.run(until=engine.now + chunks.randint(0, 3))
    return log, engine.now


def run_on_reference(scenario):
    n_events, scripts = scenario
    kernel = RefKernel()
    events = [RefWaitable() for _ in range(n_events)]
    log = []
    for i, script in enumerate(scripts):
        kernel.spawn(_ref_driver(kernel, events, f"p{i}", script, log))
    final = kernel.run()
    return log, final


def _random_script(rng, untriggered, depth, length):
    """One random script; ``untriggered`` ensures each event fires at most once."""
    script = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.30:
            script.append(("sleep", rng.randint(0, 3)))  # 0 exercises the sync path
        elif roll < 0.45:
            script.append(("mark", rng.randint(0, 99)))
        elif roll < 0.62:
            script.append(("wait", rng.randrange(len(untriggered) + 2) % 7))
        elif roll < 0.78 and untriggered:
            i = untriggered.pop()
            if rng.random() < 0.8:
                script.append(("succeed", i, rng.randint(0, 50)))
            else:
                script.append(("fail", i, f"boom{i}"))
        elif roll < 0.88 and depth < 2:
            child = _random_script(rng, untriggered, depth + 1, rng.randint(1, 4))
            child.append(("ret", rng.randint(0, 9)))
            script.append(("spawn", child))
            if rng.random() < 0.7:
                script.append(("join",))
        elif roll < 0.94:
            script.append(("spawn_fail", f"crash{rng.randint(0, 9)}"))
            script.append(("join",))  # must observe the failure
        else:
            script.append(("join",))
    return script


def _random_scenario(seed):
    rng = random.Random(seed)
    n_events = 7
    untriggered = list(range(n_events))
    rng.shuffle(untriggered)
    scripts = [
        _random_script(rng, untriggered, 0, rng.randint(3, 9))
        for _ in range(rng.randint(2, 5))
    ]
    return n_events, scripts


# crafted scenarios for the orderings the now-queue optimization relies on
_TIE_SCENARIO = (
    2,
    [
        # p0 and p1 wake at the same timestamps repeatedly: tie order must be
        # spawn/schedule order, every round.
        [("sleep", 2), ("mark", 0), ("sleep", 2), ("mark", 1), ("succeed", 0, 7)],
        [("sleep", 2), ("mark", 10), ("sleep", 2), ("mark", 11), ("wait", 0)],
        [("sleep", 4), ("mark", 20), ("wait", 0), ("mark", 21)],
    ],
)

_ZERO_SLEEP_SCENARIO = (
    1,
    [
        # Zero sleeps continue synchronously: all of p0 runs before p1 starts.
        [("sleep", 0), ("mark", 0), ("sleep", 0), ("mark", 1), ("succeed", 0, 1)],
        [("wait", 0), ("sleep", 0), ("mark", 2)],
    ],
)

_TRIGGERED_WAIT_SCENARIO = (
    2,
    [
        # Waiting on an already-triggered event continues without suspending.
        [("succeed", 0, 5), ("wait", 0), ("mark", 0), ("fail", 1, "late"), ("wait", 1)],
        [("sleep", 1), ("wait", 0), ("wait", 1), ("mark", 1)],
    ],
)


@pytest.mark.parametrize("scenario", [_TIE_SCENARIO, _ZERO_SLEEP_SCENARIO, _TRIGGERED_WAIT_SCENARIO])
def test_crafted_scenarios_match_reference(scenario):
    engine_log, engine_final = run_on_engine(scenario)
    ref_log, ref_final = run_on_reference(scenario)
    assert engine_log == ref_log
    assert engine_final == ref_final
    assert engine_log, "scenario produced no observations"


@pytest.mark.parametrize("seed", range(40))
def test_random_scenarios_match_reference(seed):
    scenario = _random_scenario(seed)
    engine_log, engine_final = run_on_engine(scenario)
    ref_log, ref_final = run_on_reference(scenario)
    assert engine_log == ref_log
    assert engine_final == ref_final


@pytest.mark.parametrize("seed", range(40))
def test_chunked_runs_match_reference(seed):
    """Deadlines are invisible: sleeps (scenario delays are 0-3 ns) keep
    crossing the 0-3 ns ``until`` steps, and the lonely-sleep warp must stop
    at each one without reordering anything."""
    scenario = _random_scenario(seed)
    engine_log, engine_final = run_on_engine(scenario, chunks=random.Random(seed))
    ref_log, ref_final = run_on_reference(scenario)
    assert engine_log == ref_log
    assert ref_final <= engine_final <= ref_final + 3


@pytest.mark.parametrize("seed", range(0, 40, 5))
def test_engine_is_deterministic(seed):
    scenario = _random_scenario(seed)
    first = run_on_engine(scenario)
    second = run_on_engine(scenario)
    assert first == second


@pytest.mark.parametrize("seed", range(0, 40, 5))
def test_tracing_does_not_change_semantics(seed):
    """The _trace fast-flag must only skip tracer calls, never reorder."""
    scenario = _random_scenario(seed)
    untraced = run_on_engine(scenario)
    traced = run_on_engine(scenario, tracer=Tracer())
    assert traced == untraced


# ---------------------------------------------------------------------------
# Measurement-primitive cache properties.
# ---------------------------------------------------------------------------


def _random_samples(rng, n):
    # Mix magnitudes so samples land in sub-bucket, low-octave and
    # high-octave ranges (new-bucket creation interleaves with re-use).
    return [
        rng.choice(
            (
                rng.randint(0, 31),
                rng.randint(32, 4096),
                rng.randint(4096, 50_000_000),
            )
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", range(12))
def test_histogram_percentile_cache_interleaving(seed):
    """record/percentile interleaving must equal a freshly built histogram.

    The sorted-bucket cache is kept across records into existing buckets and
    invalidated on new buckets; querying percentiles mid-stream must never
    change any later answer.
    """
    rng = random.Random(1000 + seed)
    samples = _random_samples(rng, 300)
    percentiles = (0.0, 10.0, 50.0, 90.0, 99.0, 100.0)

    interleaved = LatencyHistogram("interleaved")
    for i, value in enumerate(samples):
        interleaved.record(value)
        if i % 7 == 0:
            interleaved.percentile(rng.uniform(0.0, 100.0))  # poke the cache

    fresh = LatencyHistogram("fresh")
    for value in samples:
        fresh.record(value)

    for p in percentiles:
        assert interleaved.percentile(p) == fresh.percentile(p)
    assert interleaved.count == fresh.count
    assert interleaved.total == fresh.total


def test_histogram_cache_survives_merge_and_reset():
    rng = random.Random(7)
    a = LatencyHistogram("a")
    b = LatencyHistogram("b")
    sa = _random_samples(rng, 200)
    sb = _random_samples(rng, 200)
    for v in sa:
        a.record(v)
    a.percentile(50.0)  # populate the cache before merge
    for v in sb:
        b.record(v)
    a.merge(b)

    fresh = LatencyHistogram("fresh")
    for v in sa + sb:
        fresh.record(v)
    for p in (1.0, 50.0, 90.0, 99.9):
        assert a.percentile(p) == fresh.percentile(p)

    a.reset()
    assert a.count == 0
    assert a.percentile(90.0) == 0.0
    a.record(17)
    assert a.percentile(100.0) == 17.0


@pytest.mark.parametrize("seed", range(8))
def test_rate_between_matches_full_scan(seed):
    """The windowed bucket scan must count exactly what a full scan counts."""
    from repro.sim.units import SEC

    rng = random.Random(300 + seed)
    bucket_ns = rng.choice((1_000, 7_919, SEC))
    ts = TimeSeries(bucket_ns=bucket_ns, name="t")
    horizon = bucket_ns * 50
    for _ in range(400):
        ts.record(rng.randint(0, horizon), n=rng.randint(1, 3))

    for _ in range(30):
        a = rng.randint(0, horizon)
        b = rng.randint(0, horizon)
        start, end = min(a, b), max(a, b)
        got = ts.rate_between(start, end)
        if end <= start:
            assert got == 0.0
            continue
        # Reference: walk every bucket ever recorded.
        total = sum(
            n
            for idx, n in ts._buckets.items()
            if start <= idx * bucket_ns < end
        )
        assert got == pytest.approx(total * SEC / (end - start))
