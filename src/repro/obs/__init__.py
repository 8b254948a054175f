"""Observability: virtual-time tracing keyed to ``Engine.now``.

``Engine.now`` is a plain attribute whose only writer is ``Engine.run()``
(an AST check in tier-1 keeps it so), so a tracer reads the clock without
a call and can never move it: recording does not perturb a run.

The paper is a *measurement* study: its figures come from per-second
throughput timelines, queue-depth probes and stall-state transitions.  This
package records those same signals as an event trace over simulated time —
spans, instants and counters in the Chrome ``trace_events`` format — so a
run can be opened in Perfetto (https://ui.perfetto.dev) and inspected
interval by interval instead of only through end-of-run aggregates.

Usage::

    from repro.obs import Tracer, set_active_tracer

    tracer = Tracer()
    set_active_tracer(tracer)   # every Engine created now records into it
    ... run experiments ...
    set_active_tracer(None)
    tracer.export("trace.json")  # open in ui.perfetto.dev

When no tracer is active every instrumentation hook resolves to the shared
:data:`NULL_TRACER`, whose methods are empty — instrumented hot paths carry
no conditionals and no measurable cost.
"""

from repro.obs.summary import (
    busiest_device_windows,
    stall_episodes,
    summarize,
    tenant_slo_digest,
)
from repro.obs.tracer import (
    NULL_TRACER,
    EngineTracer,
    NullTracer,
    Tracer,
    active_tracer,
    set_active_tracer,
)
from repro.obs.vocab import (
    log_vocabulary,
    normalize_log_line,
    normalize_trace_name,
    trace_vocabulary,
    vocabulary_fingerprint,
)

__all__ = [
    "EngineTracer",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "active_tracer",
    "busiest_device_windows",
    "log_vocabulary",
    "normalize_log_line",
    "normalize_trace_name",
    "set_active_tracer",
    "stall_episodes",
    "summarize",
    "tenant_slo_digest",
    "trace_vocabulary",
    "vocabulary_fingerprint",
]
