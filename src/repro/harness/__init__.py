"""Experiment harness: machines, scale presets, the experiment registry."""

from repro.harness.experiments import (
    DEVICES,
    FIGURES,
    Entry,
    RunArtifacts,
    WorkloadPoint,
    run_experiment,
    run_points,
    run_workload,
)
from repro.harness.machine import Machine
from repro.harness.presets import PAPER, PRESETS, SMALL, TINY, ScalePreset, bench_preset, preset_by_name
from repro.harness.report import ExperimentResult, format_table, render_sparkline

__all__ = [
    "DEVICES",
    "Entry",
    "ExperimentResult",
    "FIGURES",
    "Machine",
    "PAPER",
    "PRESETS",
    "RunArtifacts",
    "SMALL",
    "ScalePreset",
    "TINY",
    "WorkloadPoint",
    "bench_preset",
    "format_table",
    "preset_by_name",
    "render_sparkline",
    "run_experiment",
    "run_points",
    "run_workload",
]
