"""Admission control: per-tenant token buckets in front of the shards.

The paper's Section VI bottleneck story is about what happens *behind* the
write queue; a production serving tier additionally needs a front door that
(a) enforces each tenant's provisioned rate so one tenant's burst cannot
starve the rest, and (b) backs off globally when the storage engine itself
is throttling — otherwise admitted requests just pile up in the write queue
the paper showed to be the contention point.

Each tenant gets a :class:`TokenBucket` over virtual time (the same
virtual-refill-clock construction as
:class:`~repro.lsm.write_controller.WriteController.get_delay`, so
aggregate admitted rate equals the configured rate).  The bucket's
*effective* rate is scaled by the worst stall state across the shard
write controllers — the existing Algorithm-1 signals feed straight into
admission:

* every shard ``NORMAL`` → full provisioned rate;
* any shard ``DELAYED``  → rate scaled by that shard's current
  ``delayed_write_rate`` relative to its configured rate (as compaction
  falls further behind, admission tightens with it);
* any shard ``STOPPED``  → rate floored at :data:`STOP_FACTOR` of
  provisioned (a trickle, so clients keep probing and unblock promptly
  when the stall clears instead of thundering in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.errors import ShedError, WorkloadError
from repro.lsm.write_controller import DELAYED, STOPPED, WriteController
from repro.sim.stats import StatsSet
from repro.sim.units import SEC, ms

if TYPE_CHECKING:
    from repro.serving.fleet import TenantSpec

#: Fraction of the provisioned rate still admitted while a shard is STOPPED.
STOP_FACTOR = 0.05
#: Lower bound on the DELAYED scale so admission never rounds to zero.
MIN_PRESSURE = 0.01
#: Provisioned rate over each tenant's diurnal-peak aggregate arrival rate.
ADMISSION_HEADROOM = 1.5


class TokenBucket:
    """Deterministic ops/second token bucket over virtual time."""

    def __init__(self, rate_per_sec: float, burst: int = 1) -> None:
        if rate_per_sec <= 0:
            raise WorkloadError(f"bucket rate must be positive: {rate_per_sec}")
        if burst < 1:
            raise WorkloadError(f"burst must be >= 1: {burst}")
        self.rate_per_sec = rate_per_sec
        self.burst = burst
        # Timestamp up to which admitted tokens are already spoken for.
        # None = never reserved (a full bucket: the first ``burst`` ops
        # admit free whenever they arrive).
        self._next_free: Optional[int] = None

    def reserve(self, now: int, scale: float = 1.0) -> int:
        """Reserve one token at ``now``; returns the delay in ns.

        ``scale`` < 1 tightens the effective rate for this reservation
        (stall pressure).  Idle time banks credit — capped at ``burst``
        tokens — so a quiet tenant can burst briefly before pacing to the
        provisioned rate.
        """
        rate = self.rate_per_sec * max(MIN_PRESSURE, scale)
        token_ns = SEC / rate
        # A full bucket's clock trails ``now`` by burst-1 token intervals:
        # exactly ``burst`` back-to-back ops then admit with zero delay.
        credit_cap = round((self.burst - 1) * token_ns)
        nf = self._next_free
        if nf is None or nf < now - credit_cap:
            nf = now - credit_cap
        delay = nf - now if nf > now else 0
        self._next_free = nf + round(token_ns)
        return delay


@dataclass
class TenantBudget:
    """Provisioned admission budget of one tenant."""

    ops_per_sec: float
    burst: int = 16


class AdmissionController:
    """The serving front door: per-tenant buckets + engine backpressure."""

    def __init__(self, controllers: List[WriteController]) -> None:
        self.controllers = list(controllers)
        self._buckets: Dict[str, TokenBucket] = {}
        self.stats = StatsSet()
        self._tickers = self.stats.counters()  # every op counts inline

    def set_budget(self, tenant: str, budget: TenantBudget) -> None:
        self._buckets[tenant] = TokenBucket(budget.ops_per_sec, budget.burst)

    def provision(self, spec: TenantSpec) -> None:
        """Budget a tenant for its diurnal peak plus
        :data:`ADMISSION_HEADROOM`, bursting four ops per client."""
        peak = 1.0 + spec.diurnal_amplitude
        self.set_budget(
            spec.name,
            TenantBudget(
                ops_per_sec=spec.aggregate_rate * peak * ADMISSION_HEADROOM,
                burst=max(4, spec.clients * 4),
            ),
        )

    def pressure(self) -> float:
        """Rate scale from the worst shard write-controller state in [0,1]."""
        scale = 1.0
        for controller in self.controllers:
            if controller.state == STOPPED:
                scale = min(scale, STOP_FACTOR)
            elif controller.state == DELAYED:
                configured = float(controller.options.delayed_write_rate)
                scale = min(scale, controller.delayed_write_rate / configured)
        return scale

    def admit(self, tenant: str, now: int) -> int:
        """Admission delay (ns) for one op of ``tenant`` arriving at
        ``now``; 0 = admitted immediately.  Unbudgeted tenants pass free.
        """
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return 0
        delay = bucket.reserve(now, self.pressure())
        tickers = self._tickers
        tickers[f"admitted.{tenant}"] += 1
        if delay > 0:
            tickers[f"throttled.{tenant}"] += 1
            tickers[f"throttle_ns.{tenant}"] += delay
        return delay


#: Per-tenant rolling error budget: at most ``ERROR_BUDGET_MAX_ERRORS``
#: typed serving errors inside any ``ERROR_BUDGET_WINDOW_NS`` window before
#: the tenant is backed off wholesale (every op shed until the window drains).
ERROR_BUDGET_WINDOW_NS = ms(50)
ERROR_BUDGET_MAX_ERRORS = 24


class ErrorBudget:
    """Rolling window of one tenant's typed-error timestamps."""

    def __init__(self) -> None:
        self._errors: List[int] = []

    def record(self, now: int) -> None:
        self._errors.append(now)

    def exhausted(self, now: int) -> bool:
        cutoff = now - ERROR_BUDGET_WINDOW_NS
        self._errors = [t for t in self._errors if t > cutoff]
        return len(self._errors) >= ERROR_BUDGET_MAX_ERRORS


class BrownoutAdmission(AdmissionController):
    """Admission with graceful degradation for the resilient stack.

    Beyond the base token buckets and engine backpressure, this front
    door sheds load *before* it reaches a struggling shard group:

    * **brownout (shed writes before reads)** — while a shard group
      cannot reach a write quorum (partitioned, mid-election, majority
      crashed), writes routed at it are shed with
      :class:`~repro.errors.ShedError` ``reason="brownout-write"``;
      reads still pass, because the client layer can hedge them to
      caught-up followers;
    * **per-tenant error budgets** — each typed serving error a tenant
      observes spends budget; a tenant over its rolling budget has
      *every* op shed (``reason="error-budget"``) until the window
      drains, converting a retry-amplified failure into calibrated
      back-off.

    Shard write controllers come from ``controller_source`` (a callable)
    rather than a frozen list, because which node's write controller
    matters changes on failover.
    """

    def __init__(
        self,
        controller_source: Callable[[], Sequence[WriteController]],
        groups: Sequence[object],
    ) -> None:
        super().__init__([])
        self._controller_source = controller_source
        self.groups = list(groups)  # each exposes write_quorum_reachable()
        self._error_budgets: Dict[str, ErrorBudget] = {}

    def pressure(self) -> float:
        self.controllers = list(self._controller_source())
        return super().pressure()

    def record_error(self, tenant: str, now: int) -> None:
        """Charge one typed serving error against ``tenant``'s budget."""
        budget = self._error_budgets.get(tenant)
        if budget is None:
            budget = self._error_budgets[tenant] = ErrorBudget()
        budget.record(now)
        self._tickers[f"errors.{tenant}"] += 1

    def check(self, tenant: str, shard: int, is_write: bool, now: int) -> None:
        """Shed gate, consulted before the bucket; raises ShedError."""
        budget = self._error_budgets.get(tenant)
        if budget is not None and budget.exhausted(now):
            self._tickers[f"shed_budget.{tenant}"] += 1
            raise ShedError(
                f"tenant {tenant} over its error budget",
                reason="error-budget",
                shard=shard,
            )
        if is_write and not self.groups[shard].write_quorum_reachable():
            self._tickers[f"shed_brownout.{tenant}"] += 1
            raise ShedError(
                f"shard {shard} has no write quorum; write shed",
                reason="brownout-write",
                shard=shard,
            )
