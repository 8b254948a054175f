"""Every registered experiment at the benchmark preset, against its paper shape.

``pytest benchmarks/test_figures.py --benchmark-only`` regenerates each
entry of the registry (:data:`repro.harness.experiments.FIGURES`) at
``REPRO_PRESET`` (default ``small``) and its own seed, in ``REPRO_JOBS``
worker processes, prints it next to the paper's expectation and fails with
the description of every shape predicate (``Entry.shapes``) that does not
hold.  ``REPRO_BENCH_SECONDS`` bounds the simulated duration per run
(default 2.5 s — enough for several flush + compaction + stall cycles at
the ``small`` scale).  Runs go through the registry's memo, so figures the
paper derives from one experiment (Figures 13–16 all use the parallelism
sweep) share its runs.  Tier-1 checks the entries whose shape holds at
``tiny`` (``tests/integration/test_figure_shapes.py``).
"""

import os

import pytest

os.environ.setdefault("REPRO_BENCH_SECONDS", "2.5")

from repro.harness.experiments import FIGURES, run_experiment  # noqa: E402
from repro.harness.presets import PRESETS, bench_preset  # noqa: E402
from repro.jobs import default_jobs  # noqa: E402


@pytest.mark.parametrize("exp_id", list(FIGURES))
def test_figure(benchmark, exp_id):
    entry, preset = FIGURES[exp_id], bench_preset()
    assert entry.shapes, f"{exp_id} has no shape check"  # it fails; it never skips
    res = benchmark.pedantic(
        run_experiment, args=(entry, preset), kwargs=dict(jobs=default_jobs()),
        rounds=1, iterations=1,
    )
    print()
    print(res.render())
    failed = [text for text, holds in entry.shapes if not holds(res)]
    scales = list(PRESETS)
    below = scales.index(preset.name) < scales.index(entry.holds_at)
    hint = f" (its shape holds at {entry.holds_at})" if below else ""
    assert not failed, f"{exp_id} at {preset.name}{hint}: " + "; ".join(failed)
