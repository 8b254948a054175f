"""Seeded mutation operators over :class:`FaultSchedule`.

The fuzzer (:mod:`repro.fuzz`) treats a schedule as its genome: a small
ordered program of fault events.  This module is the genetics — a fixed
set of structure-preserving operators (drop / duplicate / reorder a spec,
shift a trigger, resize a storm window, scale a magnitude, retarget a
path or node, splice in a fresh spec) applied under a
:class:`MutationContext` that pins the run horizon and, optionally, a
trigger window and a node count.

Every operator goes through :func:`clamp_spec`, so a mutated schedule is
always schema-valid (``FaultSpec.__post_init__`` re-runs on every
rebuild) and never triggers past the horizon.  All randomness comes from
the caller's :class:`~repro.sim.rng.RandomStream`, so mutation chains are
replayable from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import FaultConfigError
from repro.faults.schedule import (
    CRASH,
    DEVICE_KINDS,
    FS_KINDS,
    HEAL,
    LATENCY_SPIKE,
    NET_DELAY,
    NET_DROP,
    NET_KINDS,
    PARTITION,
    READ_ERROR,
    STALL,
    WRITE_ERROR,
    FaultSchedule,
    FaultSpec,
)
from repro.lsm.format import SST_DIR, WAL_DIR
from repro.sim.rng import RandomStream
from repro.sim.units import ms, us

#: Kind pools for the three run modes the fuzzer drives.  Crash-DST runs
#: may mutate everything device- and fs-level (including the crash point);
#: storm runs stick to transient error/latency kinds inside the storm
#: window (exhausting the bounded auto-resume budget with out-of-window
#: errors is by-design read-only behaviour, not a finding); cluster runs
#: speak the net vocabulary plus node-targeted crashes.
DST_MUTATION_KINDS: Tuple[str, ...] = tuple(sorted(DEVICE_KINDS | FS_KINDS))
STORM_MUTATION_KINDS: Tuple[str, ...] = (
    LATENCY_SPIKE,
    READ_ERROR,
    STALL,
    WRITE_ERROR,
)
CLUSTER_MUTATION_KINDS: Tuple[str, ...] = tuple(sorted(NET_KINDS | {CRASH}))
#: Serving runs layer tenant traffic over replicated shard groups, so
#: their genome speaks both vocabularies: net chaos + node crashes (the
#: failover axis) and the transient device-level error/latency kinds
#: (io storms behind a replica).  Non-transient device errors are
#: excluded for the same reason as storm mode — a fatal background error
#: takes a replica read-only by design, which the serving harness's
#: settle step does not (and should not) repair.
SERVING_MUTATION_KINDS: Tuple[str, ...] = tuple(
    sorted(NET_KINDS | {CRASH, LATENCY_SPIKE, READ_ERROR, STALL, WRITE_ERROR})
)

#: Longest schedule a duplicate or add operator grows.
MAX_SPECS = 12
#: Operator draws one mutation tries before it gives up.
MUTATE_ATTEMPTS = 12
_MAX_COUNT = 1_000_000


@dataclass(frozen=True)
class MutationContext:
    """Bounds a mutation run: horizon, kind pool, optional window/nodes."""

    horizon_ns: int
    kinds: Tuple[str, ...] = DST_MUTATION_KINDS
    #: 0 = single-node run (node-targeted fields are left alone);
    #: >= 2 = cluster run (node/nodes are folded into range(n_nodes)).
    n_nodes: int = 0
    #: When set, every trigger is clamped into [window[0], window[1]).
    window: Optional[Tuple[int, int]] = None
    #: Storm runs assert bounded auto-resume, which only holds for
    #: *transient* (retryable) errors — a non-transient background error
    #: classifies fatal and, by design, never resumes.  When set, error
    #: specs are folded to transient and the transient-flip operator is
    #: disabled.
    transient_only: bool = False

    def __post_init__(self) -> None:
        if self.horizon_ns <= 0:
            raise FaultConfigError(f"horizon must be positive: {self.horizon_ns}")
        if self.window is not None:
            w0, w1 = self.window
            if not 0 <= w0 < w1 <= self.horizon_ns:
                raise FaultConfigError(f"bad mutation window {self.window}")

    @property
    def trigger_lo(self) -> int:
        return self.window[0] if self.window is not None else 0

    @property
    def trigger_hi(self) -> int:
        """Latest legal ``at_time`` (inclusive)."""
        if self.window is not None:
            return max(self.window[0], self.window[1] - 1)
        return self.horizon_ns

    @property
    def until_hi(self) -> int:
        """Latest legal ``until_time`` (inclusive)."""
        return self.window[1] if self.window is not None else self.horizon_ns


def clamp_spec(spec: FaultSpec, ctx: MutationContext) -> Optional[FaultSpec]:
    """Fold ``spec`` into the context's horizon/window/node bounds.

    Returns a valid spec (possibly the input unchanged), or None when the
    spec cannot be expressed inside the bounds at all.
    """
    changes: dict = {}
    at_time = spec.at_time
    if at_time is not None:
        clamped = min(max(at_time, ctx.trigger_lo), ctx.trigger_hi)
        if clamped != at_time:
            changes["at_time"] = clamped
        at_time = clamped
    elif ctx.window is not None:
        # Windowed contexts require an explicit in-window trigger.
        at_time = ctx.trigger_lo
        changes["at_time"] = at_time
    if spec.until_time is not None:
        until = min(spec.until_time, ctx.until_hi)
        if at_time is not None and until <= at_time:
            until = None
        if until != spec.until_time:
            changes["until_time"] = until
    if ctx.transient_only and not spec.transient:
        changes["transient"] = True
    if ctx.n_nodes >= 2:
        if spec.node is not None and spec.node >= ctx.n_nodes:
            changes["node"] = spec.node % ctx.n_nodes
        if spec.nodes is not None:
            nodes = tuple(sorted({n % ctx.n_nodes for n in spec.nodes}))
            if len(nodes) >= ctx.n_nodes:
                nodes = nodes[: ctx.n_nodes - 1]
            if nodes != spec.nodes:
                changes["nodes"] = nodes
    if not changes:
        return spec
    try:
        return replace(spec, **changes)
    except FaultConfigError:
        return None


def clamp_schedule(schedule: FaultSchedule, ctx: MutationContext) -> FaultSchedule:
    """Clamp every spec; unsalvageable specs are dropped."""
    specs = [clamp_spec(s, ctx) for s in schedule.specs]
    return FaultSchedule([s for s in specs if s is not None])


# -- fresh-spec generation --------------------------------------------------


def draw_spec(rng: RandomStream, ctx: MutationContext) -> Optional[FaultSpec]:
    """Draw one fresh spec of a context-legal kind inside the bounds."""
    kind = rng.choice(ctx.kinds)
    at_time = rng.randint(ctx.trigger_lo, ctx.trigger_hi)
    windowed = rng.chance(0.5)
    until = None
    if windowed and at_time < ctx.until_hi:
        until = rng.randint(at_time + 1, ctx.until_hi)
    if kind in (READ_ERROR, WRITE_ERROR):
        return FaultSpec(
            kind,
            at_time=at_time,
            until_time=until,
            count=rng.randint(1, 4) if until is None else _MAX_COUNT,
            transient=True,
        )
    if kind == LATENCY_SPIKE:
        return FaultSpec(
            kind,
            at_time=at_time,
            count=rng.randint(1, 8),
            extra_ns=rng.randint(us(200), ms(5)),
        )
    if kind == STALL:
        return FaultSpec(kind, at_time=at_time, extra_ns=rng.randint(ms(5), ms(100)))
    if kind == CRASH:
        node = rng.randint(0, ctx.n_nodes - 1) if ctx.n_nodes >= 2 else None
        return FaultSpec(kind, at_time=at_time, node=node)
    if kind in FS_KINDS:
        path = WAL_DIR if rng.chance(0.5) else SST_DIR
        return FaultSpec(kind, at_time=at_time, path=path)
    if kind == PARTITION:
        if ctx.n_nodes < 2:
            return None
        size = rng.randint(1, max(1, ctx.n_nodes // 2))
        members = list(range(ctx.n_nodes))
        rng.shuffle(members)
        return FaultSpec(
            kind,
            at_time=at_time,
            until_time=until,
            nodes=tuple(sorted(members[:size])),
        )
    if kind == HEAL:
        return FaultSpec(kind, at_time=at_time)
    if kind == NET_DELAY:
        return FaultSpec(
            kind,
            at_time=at_time,
            until_time=until,
            extra_ns=rng.randint(us(200), ms(5)),
        )
    if kind == NET_DROP:
        return FaultSpec(
            kind,
            at_time=at_time,
            until_time=until,
            drop_p=round(rng.uniform(0.05, 0.5), 3),
        )
    return None


# -- operators --------------------------------------------------------------

_Specs = List[FaultSpec]
_Operator = Callable[[_Specs, RandomStream, MutationContext], Optional[_Specs]]


def _pick(rng: RandomStream, specs: _Specs) -> int:
    return rng.randint(0, len(specs) - 1)


def _op_drop(specs, rng, ctx):
    if not specs:
        return None
    out = list(specs)
    del out[_pick(rng, out)]
    return out


def _op_duplicate(specs, rng, ctx):
    if not specs or len(specs) >= MAX_SPECS:
        return None
    out = list(specs)
    i = _pick(rng, out)
    out.insert(i + 1, out[i])
    return out


def _op_reorder(specs, rng, ctx):
    if len(specs) < 2:
        return None
    out = list(specs)
    i = _pick(rng, out)
    j = _pick(rng, out)
    if i == j:
        j = (i + 1) % len(out)
    out[i], out[j] = out[j], out[i]
    return out


def _op_shift_time(specs, rng, ctx):
    idx = [i for i, s in enumerate(specs) if s.at_time is not None]
    if not idx:
        return None
    out = list(specs)
    i = idx[_pick(rng, idx)]
    spec = out[i]
    shifted = int(spec.at_time * rng.uniform(0.5, 1.5))
    width = (
        spec.until_time - spec.at_time if spec.until_time is not None else None
    )
    changes: dict = {"at_time": shifted}
    if width is not None:
        changes["until_time"] = shifted + width
    try:
        out[i] = replace(spec, **changes)
    except FaultConfigError:
        return None
    return out


def _op_resize_window(specs, rng, ctx):
    idx = [i for i, s in enumerate(specs) if s.at_time is not None]
    if not idx:
        return None
    out = list(specs)
    i = idx[_pick(rng, idx)]
    spec = out[i]
    if spec.until_time is None:
        if spec.at_time >= ctx.until_hi:
            return None
        until = rng.randint(spec.at_time + 1, ctx.until_hi)
    else:
        width = max(1, int((spec.until_time - spec.at_time) * rng.uniform(0.3, 2.0)))
        until = spec.at_time + width
    try:
        out[i] = replace(spec, until_time=until)
    except FaultConfigError:
        return None
    return out


def _op_scale_magnitude(specs, rng, ctx):
    idx = [
        i
        for i, s in enumerate(specs)
        if s.extra_ns > 0 or s.drop_p > 0.0 or s.count > 1
    ]
    if not idx:
        return None
    out = list(specs)
    i = idx[_pick(rng, idx)]
    spec = out[i]
    changes: dict = {}
    if spec.extra_ns > 0:
        changes["extra_ns"] = max(us(1), int(spec.extra_ns * rng.uniform(0.25, 4.0)))
    elif spec.drop_p > 0.0:
        changes["drop_p"] = round(min(0.95, max(0.01, spec.drop_p * rng.uniform(0.5, 2.0))), 3)
    else:
        changes["count"] = min(_MAX_COUNT, max(1, int(spec.count * rng.uniform(0.5, 3.0))))
    try:
        out[i] = replace(spec, **changes)
    except FaultConfigError:
        return None
    return out


def _op_flip_transient(specs, rng, ctx):
    if ctx.transient_only:
        return None
    idx = [i for i, s in enumerate(specs) if s.kind in (READ_ERROR, WRITE_ERROR)]
    if not idx:
        return None
    out = list(specs)
    i = idx[_pick(rng, idx)]
    out[i] = replace(out[i], transient=not out[i].transient)
    return out


def _op_retarget_path(specs, rng, ctx):
    idx = [i for i, s in enumerate(specs) if s.kind in FS_KINDS]
    if not idx:
        return None
    out = list(specs)
    i = idx[_pick(rng, idx)]
    spec = out[i]
    path = SST_DIR if spec.path == WAL_DIR else WAL_DIR
    out[i] = replace(spec, path=path)
    return out


def _op_retarget_node(specs, rng, ctx):
    if ctx.n_nodes < 2:
        return None
    idx = [i for i, s in enumerate(specs) if s.node is not None or s.nodes]
    if not idx:
        return None
    out = list(specs)
    i = idx[_pick(rng, idx)]
    spec = out[i]
    if spec.node is not None:
        out[i] = replace(spec, node=rng.randint(0, ctx.n_nodes - 1))
    else:
        size = rng.randint(1, max(1, ctx.n_nodes // 2))
        members = list(range(ctx.n_nodes))
        rng.shuffle(members)
        try:
            out[i] = replace(spec, nodes=tuple(sorted(members[:size])))
        except FaultConfigError:
            return None
    return out


def _op_add(specs, rng, ctx):
    if len(specs) >= MAX_SPECS:
        return None
    fresh = draw_spec(rng, ctx)
    if fresh is None:
        return None
    out = list(specs)
    out.insert(rng.randint(0, len(out)), fresh)
    return out


#: Fixed operator order: mutation chains replay bit-identically from a seed.
OPERATORS: Tuple[Tuple[str, _Operator], ...] = (
    ("drop", _op_drop),
    ("duplicate", _op_duplicate),
    ("reorder", _op_reorder),
    ("shift-time", _op_shift_time),
    ("resize-window", _op_resize_window),
    ("scale-magnitude", _op_scale_magnitude),
    ("flip-transient", _op_flip_transient),
    ("retarget-path", _op_retarget_path),
    ("retarget-node", _op_retarget_node),
    ("add", _op_add),
)


def mutate_schedule(
    schedule: FaultSchedule,
    rng: RandomStream,
    ctx: MutationContext,
) -> FaultSchedule:
    """Apply one random applicable operator; result is clamped and valid.

    Operators that don't apply to this schedule (e.g. retarget-node on a
    single-node run) are redrawn up to ``MUTATE_ATTEMPTS`` times; if nothing
    applies the schedule comes back as an (independent) copy.
    """
    for _ in range(MUTATE_ATTEMPTS):
        _name, op = OPERATORS[rng.randint(0, len(OPERATORS) - 1)]
        out = op(list(schedule.specs), rng, ctx)
        if out is None:
            continue
        clamped = [clamp_spec(s, ctx) for s in out]
        return FaultSchedule([s for s in clamped if s is not None])
    return FaultSchedule(list(schedule.specs))


__all__ = [
    "CLUSTER_MUTATION_KINDS",
    "DST_MUTATION_KINDS",
    "MutationContext",
    "OPERATORS",
    "SERVING_MUTATION_KINDS",
    "STORM_MUTATION_KINDS",
    "clamp_schedule",
    "clamp_spec",
    "draw_spec",
    "mutate_schedule",
]
