"""Textual trace digests: longest write stalls, busiest device intervals.

These are the questions the paper's timeline figures answer at a glance —
"when did writes stall, for how long, and what was the device doing?" — but
computed from the event trace so they work on any traced run without
re-plotting.  The heavy lifting (span collection) reuses the raw event
tuples; nothing here touches simulation state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.stats import TimeSeries
from repro.sim.units import fmt_time

_NORMAL = "normal"


def stall_episodes(tracer) -> List[Tuple[str, int, Optional[int], List[str]]]:
    """Non-normal write-controller episodes from stall-transition instants.

    Returns ``(track, start_ns, end_ns, states)`` tuples, one per contiguous
    period spent outside NORMAL; ``end_ns`` is None for an episode still open
    when the trace ended.  ``states`` lists the stall states visited
    (e.g. ``["delayed", "stopped", "delayed"]``).
    """
    episodes: List[Tuple[str, int, Optional[int], List[str]]] = []
    open_eps: Dict[str, Tuple[int, List[str]]] = {}
    for track, ph, name, ts, _dur, _args in tracer.iter_events():
        if ph != "i" or not track.endswith("write_controller") or "->" not in name:
            continue
        _old, _, new = name.partition("->")
        if new == _NORMAL:
            if track in open_eps:
                start, states = open_eps.pop(track)
                episodes.append((track, start, ts, states))
        elif track in open_eps:
            open_eps[track][1].append(new)
        else:
            open_eps[track] = (ts, [new])
    for track, (start, states) in open_eps.items():
        episodes.append((track, start, None, states))
    return episodes


def degraded_episodes(tracer) -> List[Tuple[str, int, Optional[int], List[str]]]:
    """Degraded-mode episodes from error-handler severity transitions.

    Same shape as :func:`stall_episodes`, but parsed from the
    ``error_handler`` track's ``old->new`` instants (healthy = "normal"):
    ``(track, start_ns, end_ns, severities)`` per contiguous degraded
    period, ``end_ns`` None when the DB never resumed before trace end.
    """
    episodes: List[Tuple[str, int, Optional[int], List[str]]] = []
    open_eps: Dict[str, Tuple[int, List[str]]] = {}
    for track, ph, name, ts, _dur, _args in tracer.iter_events():
        if ph != "i" or not track.endswith("error_handler") or "->" not in name:
            continue
        _old, _, new = name.partition("->")
        if new == _NORMAL:
            if track in open_eps:
                start, states = open_eps.pop(track)
                episodes.append((track, start, ts, states))
        elif track in open_eps:
            open_eps[track][1].append(new)
        else:
            open_eps[track] = (ts, [new])
    for track, (start, states) in open_eps.items():
        episodes.append((track, start, None, states))
    return episodes


def busiest_device_windows(tracer) -> List[Tuple[str, int, int, float]]:
    """Per-device time windows ranked by service time, busiest first.

    Returns ``(track, window_start_ns, busy_ns, busy_fraction)`` tuples.
    The trace's span horizon is cut into 20 windows; a request's whole
    service span is attributed to the window containing its start — exact
    enough for "where was the device hammered?" and O(1) per span.  The
    busy fraction can exceed 1.0 on multi-channel devices.
    """
    spans: List[Tuple[str, int, int]] = []
    horizon = 0
    for track, ph, name, ts, dur, _args in tracer.iter_events():
        if ph != "X" or "device/" not in track or name.endswith(".wait"):
            continue
        spans.append((track, ts, dur))
        horizon = max(horizon, ts + dur)
    if not spans:
        return []
    window_ns = max(1, horizon // 20)
    # Bulk-sum service time per (track, window) through TimeSeries — one
    # record_many per track instead of a dict update per span.  Output
    # order must not shift: ties in busy_ns keep the old dict-insertion
    # (first-occurrence) order, so that order is tracked separately.
    per_track: Dict[str, Tuple[List[int], List[int]]] = {}
    order: List[Tuple[str, int]] = []
    seen: set = set()
    for track, ts, dur in spans:
        lists = per_track.get(track)
        if lists is None:
            lists = per_track[track] = ([], [])
        lists[0].append(ts)
        lists[1].append(dur)
        key = (track, ts // window_ns)
        if key not in seen:
            seen.add(key)
            order.append(key)
    busy_by_track: Dict[str, Dict[int, int]] = {}
    for track, (times, durs) in per_track.items():
        series = TimeSeries(bucket_ns=window_ns)
        series.record_many(times, durs)
        busy_by_track[track] = series._buckets
    out = [
        (track, idx * window_ns, busy_by_track[track][idx],
         busy_by_track[track][idx] / window_ns)
        for track, idx in order
    ]
    out.sort(key=lambda w: w[2], reverse=True)
    return out


def tenant_slo_digest(rows) -> str:
    """Per-tenant SLO digest for multi-tenant serving runs.

    ``rows`` are plain dicts (one per tenant, the shape produced by
    ``repro.serving``'s ``TenantStats.row()``): tenant, users, ops, kops,
    p50_us, p99_us, slo_p99_us, slo_violation_frac, throttled_frac.  Rows
    are ranked worst-first by SLO violation fraction so the digest leads
    with the tenants in trouble — the serving twin of
    :func:`stall_episodes`' "longest stalls first" ordering.

    Resilient-serving rows may carry extra keys (``shed``, ``errors``,
    ``fault_ops``, ``fault_p99_us``, ``steady_p99_us``); these print only
    when nonzero, so zero-fault digests are byte-identical to the legacy
    format.  A tenant with zero completed ops (e.g. fully shed during a
    brownout) does not vanish and cannot divide by zero: it is excluded
    from the SLO headline (no completed op to judge) and rendered with an
    explicit shed/error line instead.
    """
    if not rows:
        return "tenant-slo digest: no tenants recorded"
    ranked = sorted(
        rows,
        key=lambda r: (-float(r["slo_violation_frac"]), str(r["tenant"])),
    )
    active = [r for r in rows if int(r["ops"]) > 0]
    met = sum(
        1 for r in active if float(r["p99_us"]) <= float(r["slo_p99_us"])
    )
    header = f"tenant-slo digest: {met}/{len(active)} tenants meeting p99 SLO"
    starved = len(rows) - len(active)
    if starved:
        header += f" ({starved} with no completed ops)"
    lines = [header]
    for r in ranked:
        shed = int(r.get("shed", 0) or 0)
        errors = int(r.get("errors", 0) or 0)
        if int(r["ops"]) == 0:
            lines.append(
                f"  {r['tenant']}: no completed ops | "
                f"shed {shed} | errors {errors}"
            )
            continue
        verdict = "ok" if float(r["p99_us"]) <= float(r["slo_p99_us"]) else "MISS"
        line = (
            f"  {r['tenant']}: p99 {r['p99_us']}us vs SLO {r['slo_p99_us']}us "
            f"[{verdict}] | {r['ops']} ops ({r['kops']} kops) | "
            f"{float(r['slo_violation_frac']):.2%} over-SLO | "
            f"{float(r['throttled_frac']):.2%} throttled"
        )
        if shed or errors:
            line += f" | shed {shed} | errors {errors}"
        if int(r.get("fault_ops", 0) or 0) > 0:
            line += (
                f" | fault-window p99 {r['fault_p99_us']}us "
                f"vs steady {r['steady_p99_us']}us"
            )
        lines.append(line)
    return "\n".join(lines)


#: Lines each section of :func:`summarize` lists.
TOP_N = 5


def summarize(tracer) -> str:
    """Multi-line digest of a trace: stall and device-busyness highlights."""
    lines = [f"trace summary: {tracer.num_events} events"]
    if tracer.dropped:
        lines[0] += f" (+{tracer.dropped} dropped at the max_events cap)"

    episodes = stall_episodes(tracer)
    if episodes:
        ranked = sorted(
            episodes,
            key=lambda ep: (ep[2] if ep[2] is not None else ep[1]) - ep[1],
            reverse=True,
        )
        lines.append(f"write stalls: {len(episodes)} episode(s); longest:")
        for track, start, end, states in ranked[:TOP_N]:
            dur = "unfinished" if end is None else fmt_time(end - start)
            path = "->".join(states)
            lines.append(
                f"  {track}: {path} at t={start / 1e9:.3f}s for {dur}"
            )
    else:
        lines.append("write stalls: none recorded")

    # Degraded-mode digest only when a background error actually occurred,
    # keeping fault-free summaries byte-identical to pre-error-handler runs.
    degraded = degraded_episodes(tracer)
    if degraded:
        total = sum(
            (end if end is not None else start) - start
            for _t, start, end, _s in degraded
        )
        lines.append(
            f"degraded mode: {len(degraded)} episode(s), "
            f"{fmt_time(total)} total degraded time:"
        )
        for track, start, end, states in degraded[:TOP_N]:
            dur = "unfinished" if end is None else fmt_time(end - start)
            path = "->".join(states)
            lines.append(
                f"  {track}: {path} at t={start / 1e9:.3f}s for {dur}"
            )

    windows = busiest_device_windows(tracer)
    if windows:
        lines.append("busiest device intervals:")
        for track, start, busy_ns, frac in windows[:TOP_N]:
            lines.append(
                f"  {track}: {fmt_time(busy_ns)} of service time from "
                f"t={start / 1e9:.3f}s ({frac:.0%} of one channel)"
            )
    else:
        lines.append("busiest device intervals: no device spans recorded")
    return "\n".join(lines)
