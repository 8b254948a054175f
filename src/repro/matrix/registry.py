"""The experiment matrix's tables, as experiment-registry entries.

A table is an :class:`~repro.harness.experiments.Entry` like any paper
figure: its points are :class:`~repro.matrix.runner.Cell` values (one
device × workload × scenario grid, always at the matrix preset and seed),
and its reducer pivots their metrics into rows with one column group per
device, which :mod:`repro.matrix.render` turns into the markdown tables
embedded in ``EXPERIMENTS.md`` between ``<!-- matrix:begin ID -->`` /
``<!-- matrix:end ID -->`` markers.  Because every cell builds its own
engine/RNG universe from one fixed seed, regenerating a table is
byte-identical for any ``--jobs`` value — which is what lets CI *check*
the committed tables instead of trusting them.

Tables registered here:

* ``ycsb-devices`` — the paper's three device classes × the six YCSB
  core workloads plus the repo's two extended mixes (``scan-heavy``,
  ``rmw``), fault-free.
* ``fault-grid`` — the same devices under workload A while the device
  path degrades: clean, a latency-spike storm, and a stall window.
* ``serving-failover`` — the replicated serving tier's tenant SLOs on
  each device while a shard group's leader crashes or is partitioned
  away mid-traffic.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro.errors import WorkloadError
from repro.harness.experiments import Entry
from repro.matrix.runner import SCENARIOS, SERVING, Cell
from repro.workloads.ycsb import MATRIX_WORKLOADS

#: The paper's three device classes, in the paper's slow-to-fast order.
DEVICES: Tuple[str, ...] = ("sata-flash", "pcie-flash", "xpoint")

#: One column group entry: its header and how a cell's metrics render.
Metric = Tuple[str, Callable[[Dict[str, float]], str]]


def _fmt(value: float) -> str:
    """Metric formatting: integral counts bare, everything else 1-dp."""
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def _metric(header: str, key: str) -> Metric:
    return header, lambda r: _fmt(r[key])


def _table(
    table_id: str,
    title: str,
    row_header: str,
    rows: Sequence[Tuple[str, str, str]],
    metrics: Sequence[Metric],
) -> Entry:
    """A table entry: one row per ``(label, workload, scenario)``, one
    column per device × metric."""
    columns = (row_header,) + tuple(
        f"{device} {header}" for device in DEVICES for header, _ in metrics
    )

    def points(preset, seed):
        return {
            (label, device): Cell(device, workload, scenario)
            for label, workload, scenario in rows
            for device in DEVICES
        }

    def reduce(res, runs):
        for label, _, _ in rows:
            row = {row_header: label}
            for device in DEVICES:
                for header, render in metrics:
                    row[f"{device} {header}"] = render(runs[(label, device)])
            res.add_row(**row)

    return Entry(table_id, title, columns, points, reduce)


KOPS = _metric("kops", "kops")

TABLES: Dict[str, Entry] = {t.exp_id: t for t in (
    _table(
        "ycsb-devices",
        "YCSB core + extended mixes across the paper's device classes",
        "Workload",
        [(workload, workload, "clean") for workload in MATRIX_WORKLOADS],
        (KOPS, _metric("p99 µs", "p99_us")),
    ),
    _table(
        "fault-grid",
        "Workload A under device-path degradation",
        "Scenario",
        [(SCENARIOS[s].label, "A", s) for s in ("clean", "io-spikes", "stalls")],
        (KOPS, _metric("p99 µs", "p99_us"), _metric("faults", "faults")),
    ),
    _table(
        "serving-failover",
        "Resilient serving tier: tenant SLOs across failover scenarios",
        "Scenario",
        [
            (SCENARIOS[s].label, SERVING, s)
            for s in ("steady", "leader-crash", "leader-partition")
        ],
        (
            KOPS,
            _metric("worst p99 µs", "p99_us"),
            ("SLO", lambda r: f"{int(r['slo_met'])}/{int(r['tenants'])}"),
            _metric("shed", "shed"),
        ),
    ),
)}


def table_by_id(table_id: str) -> Entry:
    try:
        return TABLES[table_id]
    except KeyError:
        raise WorkloadError(
            f"unknown matrix table {table_id!r} (choose from {sorted(TABLES)})"
        ) from None
