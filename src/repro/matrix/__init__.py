"""Declarative experiment matrix over devices, workloads and faults.

The registry (:mod:`repro.matrix.registry`) declares device × workload
× scenario tables as experiment-registry entries; the runner executes
each cell in its own simulated universe (bit-identical for any
``--jobs``); the renderer regenerates the markdown tables embedded in
``EXPERIMENTS.md`` between ``<!-- matrix:begin ID -->`` markers.
``python -m repro.matrix`` checks the committed tables against a fresh
run (CI), ``--write`` refreshes them.
"""

from repro.matrix.registry import DEVICES, TABLES, table_by_id
from repro.matrix.render import (
    begin_marker,
    end_marker,
    extract_block,
    inject_block,
    render_block,
)
from repro.matrix.runner import (
    MATRIX_PRESET,
    MATRIX_SEED,
    SCENARIOS,
    SERVING,
    Cell,
    Scenario,
)

__all__ = [
    "Cell",
    "DEVICES",
    "MATRIX_PRESET",
    "MATRIX_SEED",
    "SCENARIOS",
    "SERVING",
    "Scenario",
    "TABLES",
    "begin_marker",
    "end_marker",
    "extract_block",
    "inject_block",
    "render_block",
    "table_by_id",
]
