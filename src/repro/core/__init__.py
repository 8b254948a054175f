"""The paper's contribution: bottleneck analyses and the three case studies.

* :mod:`~repro.core.throttle_model` — Analysis #1 (Equations 1–2);
* :mod:`~repro.core.two_stage_throttle` — case study A (removing near-stop);
* :mod:`~repro.core.dynamic_l0` — case study B (dynamic Level-0 management);
* :mod:`~repro.core.nvm_wal` — case study C (NVM logging);
* :mod:`~repro.core.bottlenecks` — analyzers for the measured phenomena.
"""

from repro.core.bottlenecks import (
    NearStopPeriod,
    near_stop_fraction,
    near_stop_periods,
    read_amplification,
    throughput_variation,
)
from repro.core.dynamic_l0 import DynamicL0Manager, dynamic_l0_options
from repro.core.nvm_wal import LoggingConfig, logging_configurations
from repro.core.throttle_model import (
    ThrottleScenario,
    application_kops,
    model_table,
    paper_scenarios,
)
from repro.core.two_stage_throttle import (
    STAGE_AGGRESSIVE,
    STAGE_NONE,
    STAGE_SLIGHT,
    TwoStageWriteController,
)

__all__ = [
    "DynamicL0Manager",
    "LoggingConfig",
    "NearStopPeriod",
    "STAGE_AGGRESSIVE",
    "STAGE_NONE",
    "STAGE_SLIGHT",
    "ThrottleScenario",
    "TwoStageWriteController",
    "application_kops",
    "dynamic_l0_options",
    "logging_configurations",
    "model_table",
    "near_stop_fraction",
    "near_stop_periods",
    "paper_scenarios",
    "read_amplification",
    "throughput_variation",
]
