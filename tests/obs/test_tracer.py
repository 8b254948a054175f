"""Tests for the virtual-time tracing layer (repro.obs)."""

import inspect
import json

from repro.lsm.db import DB
from repro.lsm.write_controller import StallMetrics, WriteController
from repro.obs import (
    NULL_TRACER,
    EngineTracer,
    NullTracer,
    Tracer,
    active_tracer,
    busiest_device_windows,
    set_active_tracer,
    stall_episodes,
    summarize,
)
from repro.sim.engine import Engine
from repro.storage.profiles import xpoint_ssd
from tests.conftest import make_db, run_op, tiny_options, traced_engine


def spans(tracer):
    return [e for e in tracer.iter_events() if e[1] == "X"]


def instants(tracer):
    return [e for e in tracer.iter_events() if e[1] == "i"]


class TestTracerCore:
    def test_span_records_start_duration_and_close_args(self):
        tracer = Tracer()
        engine = traced_engine(tracer)

        def proc():
            engine.tracer.span_begin("work", "step")
            yield 500
            engine.tracer.span_end("work", {"b": 2})

        engine.process(proc())
        engine.run()
        assert spans(tracer) == [("work", "X", "step", 0, 500, {"b": 2})]

    def test_nested_spans_pop_innermost_first(self):
        tracer = Tracer()
        engine = traced_engine(tracer)

        def proc():
            engine.tracer.span_begin("t", "outer")
            yield 100
            engine.tracer.span_begin("t", "inner")
            yield 50
            engine.tracer.span_end("t")
            yield 100
            engine.tracer.span_end("t")

        engine.process(proc())
        engine.run()
        assert spans(tracer) == [
            ("t", "X", "inner", 100, 50, None),
            ("t", "X", "outer", 0, 250, None),
        ]

    def test_unmatched_span_end_is_dropped(self):
        tracer = Tracer()
        engine = traced_engine(tracer)
        engine.tracer.span_end("t", {"ignored": True})
        assert spans(tracer) == []

    def test_instant_and_counter(self):
        tracer = Tracer()
        engine = traced_engine(tracer)
        engine.tracer.instant("t", "tick")
        engine.tracer.counter("t", "depth", 3)
        events = list(tracer.iter_events())
        assert ("t", "i", "tick", 0, 0, None) in events
        assert ("t", "C", "depth", 0, 0, {"value": 3}) in events

    def test_device_request_emits_wait_then_service(self):
        tracer = Tracer()
        view = tracer.bind(Engine())
        view.device_request("device/x", "write", 0, 100, 300, 4096, True)
        assert spans(tracer) == [
            ("device/x", "X", "write.wait", 0, 100, None),
            ("device/x", "X", "write", 100, 200, {"bytes": 4096, "sequential": True}),
        ]

    def test_device_request_without_queueing_has_no_wait(self):
        tracer = Tracer()
        view = tracer.bind(Engine())
        view.device_request("device/x", "read", 50, 50, 90, 512, False)
        assert [s[2] for s in spans(tracer)] == ["read"]

    def test_engine_hooks_record_lifecycle(self):
        tracer = Tracer()
        engine = traced_engine(tracer)

        def proc():
            yield 10

        engine.process(proc(), name="worker")
        engine.run()
        names = [name for _, _, name, _, _, _ in instants(tracer)]
        assert "spawn:worker" in names
        assert "finish:worker" in names

    def test_two_engines_get_distinct_prefixed_tracks(self):
        tracer = Tracer()
        a, b = traced_engine(tracer), traced_engine(tracer)
        a.tracer.instant("t", "from-a")
        b.tracer.instant("t", "from-b")
        tracks = {track for track, _, name, _, _, _ in instants(tracer)}
        assert tracks == {"engine-1/t", "engine-2/t"}

    def test_max_events_counts_drops(self):
        tracer = Tracer(max_events=2)
        view = tracer.bind(Engine())
        for i in range(5):
            view.instant("t", f"e{i}")
        assert tracer.num_events == 2
        assert tracer.dropped == 3
        assert tracer.to_dict()["otherData"] == {"dropped_events": 3}

    def test_export_writes_valid_chrome_trace(self, tmp_path):
        tracer = Tracer()
        engine = traced_engine(tracer)

        def proc():
            engine.tracer.span_begin("track", "job")
            yield 2000
            engine.tracer.span_end("track")

        engine.process(proc(), name="p")
        engine.run()
        path = tmp_path / "trace.json"
        written = tracer.export(str(path))
        assert written == tracer.num_events > 0

        data = json.loads(path.read_text())
        events = data["traceEvents"]
        meta = {e["name"] for e in events if e["ph"] == "M"}
        assert meta == {"process_name", "thread_name"}
        job = next(e for e in events if e["ph"] == "X")
        assert job["name"] == "job"
        assert job["ts"] == 0.0
        assert job["dur"] == 2.0  # 2000 ns -> 2 us
        inst = next(e for e in events if e["ph"] == "i")
        assert inst["s"] == "t"


class TestNullTracer:
    def test_engine_defaults_to_null_tracer(self):
        assert Engine().tracer is NULL_TRACER

    def test_bind_returns_self_and_hooks_are_noops(self):
        null = NullTracer()
        assert null.bind(Engine()) is null
        assert null.enabled is False
        real = Tracer().bind(Engine())
        hooks = {
            name: inspect.signature(hook)
            for name, hook in vars(EngineTracer).items()
            if callable(hook) and not name.startswith("_")
        }
        assert len(hooks) >= 17 and "replication_apply" in hooks
        for name, sig in hooks.items():
            # Every EngineTracer call shape — positional and by keyword —
            # is accepted by the null hook, which does and returns nothing.
            kwargs = {p: 0 for p in list(sig.parameters)[1:]}
            getattr(real, name)(*kwargs.values())
            getattr(real, name)(**kwargs)
            assert getattr(null, name)(*kwargs.values()) is None
            assert getattr(null, name)(**kwargs) is None

    def test_set_active_tracer_scopes_new_engines(self):
        tracer = Tracer()
        set_active_tracer(tracer)
        try:
            assert active_tracer() is tracer
            assert Engine().tracer.tracer is tracer
        finally:
            set_active_tracer(None)
        assert active_tracer() is NULL_TRACER
        assert Engine().tracer is NULL_TRACER


def _metrics(l0=0):
    return StallMetrics(
        l0_files=l0,
        immutable_memtables=0,
        max_immutable_memtables=1,
        pending_compaction_bytes=0,
    )


class TestSummaries:
    def test_write_controller_transitions_become_episodes(self):
        tracer = Tracer()
        engine = traced_engine(tracer)
        wc = WriteController(engine, tiny_options())

        def proc():
            wc.update(_metrics(l0=20))  # normal -> delayed
            yield 1000
            wc.update(_metrics(l0=36))  # delayed -> stopped
            yield 2000
            wc.update(_metrics(l0=0))  # stopped -> normal

        engine.process(proc())
        engine.run()
        names = [name for _, _, name, _, _, _ in instants(tracer)]
        assert "normal->delayed" in names
        assert "delayed->stopped" in names
        assert "stopped->normal" in names
        assert stall_episodes(tracer) == [
            ("write_controller", 0, 3000, ["delayed", "stopped"])
        ]

    def test_open_episode_has_no_end(self):
        tracer = Tracer()
        engine = traced_engine(tracer)
        wc = WriteController(engine, tiny_options())
        wc.update(_metrics(l0=20))
        (track, start, end, states) = stall_episodes(tracer)[0]
        assert end is None
        assert states == ["delayed"]

    def test_busiest_device_windows_ranked_and_waits_excluded(self):
        tracer = Tracer()
        view = tracer.bind(Engine())
        view.complete("device/x", "write", 0, 80)
        view.complete("device/x", "write.wait", 100, 900)  # excluded
        view.complete("device/x", "read", 150, 20)
        view.complete("device/x", "read", 1990, 10)  # a 2000 ns horizon: 100 ns windows
        windows = busiest_device_windows(tracer)
        assert windows == [
            ("device/x", 0, 80, 0.8),
            ("device/x", 100, 20, 0.2),
            ("device/x", 1900, 10, 0.1),
        ]

    def test_summarize_renders_highlights(self):
        tracer = Tracer()
        engine = traced_engine(tracer)
        wc = WriteController(engine, tiny_options())

        def proc():
            wc.update(_metrics(l0=20))
            yield 5_000_000
            wc.update(_metrics(l0=0))

        engine.process(proc())
        engine.tracer.complete("device/x", "write", 0, 1_000_000)
        engine.run()
        text = summarize(tracer)
        assert "trace summary:" in text
        assert "write stalls: 1 episode(s)" in text
        assert "busiest device intervals:" in text

    def test_summarize_empty_trace(self):
        text = summarize(Tracer())
        assert "write stalls: none recorded" in text
        assert "no device spans recorded" in text


class TestTracedDBRun:
    def test_full_db_run_produces_expected_span_families(self):
        """A traced end-to-end run covers device, flush, compaction, and
        write-group spans and write-stall transitions — what a traced
        figure run's Chrome trace must contain."""
        tracer = Tracer()
        engine = traced_engine(tracer)
        db = make_db(engine, profile=xpoint_ssd(), options=tiny_options())
        assert isinstance(db, DB)

        def writer():
            for i in range(4000):
                yield from db.put(b"%08d" % i, b"v" * 64)
            yield from db.flush_all()

        run_op(engine, writer())
        engine.run()

        x_names = {(track, name) for track, _, name, _, _, _ in spans(tracer)}
        tracks = {track for track, name in x_names}
        assert any("device/" in track for track in tracks)
        assert any(name == "write" for _, name in x_names)
        assert any(name == "flush" and track.startswith("flush-")
                   for track, name in x_names)
        assert any(name.startswith("compact L") and track.startswith("compact-")
                   for track, name in x_names)
        assert any(name == "write_group" and track == "db" for track, name in x_names)
        i_names = {name for _, _, name, _, _, _ in instants(tracer)}
        assert any(name.startswith("spawn:") for name in i_names)
        assert "memtable.switch" in i_names
        assert any("->" in name for name in i_names)  # write-controller transitions

    def test_tracing_off_records_nothing(self):
        engine = Engine()
        db = make_db(engine, profile=xpoint_ssd(), options=tiny_options())

        def writer():
            for i in range(100):
                yield from db.put(b"%08d" % i, b"v" * 64)

        run_op(engine, writer())
        assert engine.tracer is NULL_TRACER
