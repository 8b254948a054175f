"""Run one genome through its harness, under a tracer, into an Outcome.

The executor is the fuzzer's oracle boundary: a genome goes in, the
matching DST harness runs it with a fresh :class:`~repro.obs.Tracer`
bound, and what comes out is (a) the harness's own invariant verdict and
(b) the run's coverage vocabulary (trace items + event-log shapes +
outcome tokens).  A harness that *raises* instead of returning a verdict
is itself a finding — :func:`repro.dst.core.guarded` turns the exception
into a failing result rather than letting it kill the fuzz loop.

The harness is looked up in :data:`repro.dst.MODES`, the one mode
dispatch in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro import dst
from repro.dst.core import guarded, make_config
from repro.fuzz.genome import (
    HORIZON_PER_OP_NS,
    MODE_CLUSTER,
    MODE_DST,
    MODE_SERVING,
    MODE_STORM,
    Genome,
)
from repro.obs import Tracer, set_active_tracer
from repro.obs.vocab import log_vocabulary, normalize_log_line, trace_vocabulary

#: Events one execution's tracer keeps (the rest are counted as dropped).
MAX_TRACE_EVENTS = 200_000


@dataclass(frozen=True)
class Outcome:
    """What one genome execution produced."""

    ok: bool
    verdict: str  # "PASS" | "FAIL(<reason>)" | "EXCEPTION(<type: msg>)"
    reason: str  # "" when ok
    vocab: FrozenSet[str]
    faults_fired: int
    trace_events: int

    @property
    def signature(self) -> str:
        """Normalised failure class (for crasher dedup); "" when ok."""
        if self.ok:
            return ""
        return normalize_log_line(self.reason)


def build_run(genome: Genome):
    """Instantiate the harness run a genome describes (not yet executed).

    Every knob is offered under each config-field name it goes by; a
    config takes the ones it has (``make_config``), so no mode is named.
    """
    run_cls, config_cls = dst.MODES[genome.mode]
    config = make_config(
        config_cls,
        schedule=genome.schedule,
        num_ops=genome.num_ops,
        duration_ns=genome.horizon_ns,  # serving: open-loop over a duration
        num_keys=genome.num_keys,
        n_nodes=genome.n_nodes,
        replicas=genome.n_nodes,
        shards=genome.shards,
        kind=genome.storm_kind,
    )
    return run_cls(genome.workload_seed, config)


#: mode -> the genome fields, beyond seed, size and schedule, a built run fixes.
_GENOME_FIELDS = {
    MODE_DST: lambda run, cfg: dict(num_keys=cfg.num_keys),
    # run.kind, not cfg.kind: a genome's kind is resolved, never "auto".
    MODE_STORM: lambda run, cfg: dict(num_keys=cfg.num_keys, storm_kind=run.kind),
    MODE_CLUSTER: lambda run, cfg: dict(num_keys=cfg.num_keys, n_nodes=cfg.n_nodes),
    MODE_SERVING: lambda run, cfg: dict(
        num_keys=cfg.num_keys, n_nodes=cfg.replicas, shards=cfg.shards
    ),
}


def native_genome(mode: str, seed: int) -> Genome:
    """What the ``mode`` harness runs for ``seed`` at its default config,
    frozen into a genome: the harness draws the schedule (and resolves
    any per-seed choice), the genome records it."""
    run = dst.MODES[mode][0](seed)
    return Genome(
        mode,
        workload_seed=seed,
        num_ops=run.config.horizon_ns // HORIZON_PER_OP_NS[mode],
        schedule=run.schedule,
        **_GENOME_FIELDS[mode](run, run.config),
    )


def execute(genome: Genome) -> Outcome:
    """Run ``genome`` deterministically; never raises for harness failures.
    Its trace keeps at most ``MAX_TRACE_EVENTS`` events."""
    tracer = Tracer(max_events=MAX_TRACE_EVENTS)
    set_active_tracer(tracer)
    try:
        result = guarded(lambda: build_run(genome))
    finally:
        set_active_tracer(None)
    ok, reason = result.ok, result.reason

    vocab = set(trace_vocabulary(tracer))
    vocab |= log_vocabulary(result.events)
    vocab.add(f"outcome|{genome.mode}|{'pass' if ok else 'fail'}")
    if not ok:
        vocab.add(f"outcome|{genome.mode}|{normalize_log_line(reason)}")
    return Outcome(
        ok=ok,
        verdict=result.verdict,
        reason=reason,
        vocab=frozenset(vocab),
        faults_fired=getattr(result, "faults_fired", 0),
        trace_events=tracer.num_events,
    )


__all__ = ["Outcome", "build_run", "execute", "native_genome"]
