"""Analysis #1: the analytic throttling model (Equations 1 and 2).

The paper models the application-level throughput during a throttling
episode.  With ``refill_interval`` the minimum injected delay and ``t`` the
median write latency, a writer completes one operation per
``refill_interval + t`` while the system could complete one per ``t``:

    lambda_a * (refill_interval + t) = lambda_s * t          (Eq. 1)
    lambda_a = t / (refill_interval + t) * lambda_s          (Eq. 2)

With the paper's measured numbers (lambda_s = 190 kop/s on 3D XPoint /
130 kop/s on SATA flash, t = 15 us, refill_interval = 1024 us) this predicts
2.74 and 1.88 kop/s — matching the near-stop floors of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.lsm.write_controller import REFILL_INTERVAL_NS
from repro.sim.units import us


@dataclass(frozen=True)
class ThrottleScenario:
    """Inputs to the Eq. 2 model for one device."""

    name: str
    system_kops: float  # lambda_s: processing capacity during compaction
    median_write_latency_ns: int  # t

    def __post_init__(self) -> None:
        if self.system_kops <= 0:
            raise ReproError(f"system throughput must be positive: {self.system_kops}")
        if self.median_write_latency_ns <= 0:
            raise ReproError("median write latency must be positive")


def application_kops(scenario: ThrottleScenario) -> float:
    """Equation 2: the application-level throughput under throttling, with
    Algorithm 1's refill interval (``REFILL_INTERVAL_NS``, 1024 us)."""
    t = scenario.median_write_latency_ns
    return t / (REFILL_INTERVAL_NS + t) * scenario.system_kops


def paper_scenarios() -> list[ThrottleScenario]:
    """The two calculations from Analysis #1."""
    return [
        ThrottleScenario("xpoint", system_kops=190.0, median_write_latency_ns=us(15)),
        ThrottleScenario(
            "sata-flash", system_kops=130.0, median_write_latency_ns=us(15)
        ),
    ]


def model_table() -> list[dict]:
    """Paper's computed values next to this implementation's (identical)."""
    expected = {"xpoint": 2.74, "sata-flash": 1.88}
    rows = []
    for scenario in paper_scenarios():
        rows.append(
            {
                "device": scenario.name,
                "lambda_s_kops": scenario.system_kops,
                "t_us": scenario.median_write_latency_ns / 1e3,
                "lambda_a_kops": round(application_kops(scenario), 2),
                "paper_kops": expected[scenario.name],
            }
        )
    return rows
