"""CLI: regenerate paper figures and ablations from the command line.

Usage::

    python -m repro.harness fig03            # one experiment
    python -m repro.harness all              # every registered experiment
    python -m repro.harness ablation-bloom   # a Section VI ablation
    python -m repro.harness fig18 --preset tiny --seed 7
    python -m repro.harness fig05 --preset tiny --trace trace.json

``--trace PATH`` records every simulated machine the experiment stands up
into one Chrome-trace/Perfetto JSON file (open it at https://ui.perfetto.dev)
and prints a short textual digest — longest write stalls, busiest device
intervals — after the figures.
"""

from __future__ import annotations

import argparse
import time

from repro.errors import run_cli
from repro.harness.experiments import FIGURES, run_experiment
from repro.harness.presets import preset_by_name, trace_path
from repro.jobs import default_jobs
from repro.obs import Tracer, set_active_tracer
from repro.obs.summary import summarize


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate figures from 'From Flash to 3D XPoint' (ISPASS 2020)",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(FIGURES) + ["all"],
        help="experiment id (paper figure or ablation) or 'all'",
    )
    parser.add_argument("--preset", default="small", help="tiny | small | paper")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="simulation seed (default: the entry's own — 11 for figures, "
        "17 for ablations)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=trace_path(),
        help="write a Chrome-trace/Perfetto JSON of the run(s) to PATH "
        "(default: $REPRO_TRACE if set)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        metavar="N",
        help="worker processes for independent sweep points (default: "
        "$REPRO_JOBS or 1); any value produces bit-identical figures",
    )
    args = parser.parse_args(argv)

    if args.trace and args.jobs > 1:
        # Worker processes would record their trace events into their own
        # (forked) tracer copies and the export here would silently miss
        # them — tracing forces the serial path.
        print("[--trace forces --jobs 1: trace events are per-process]")
        args.jobs = 1

    preset = preset_by_name(args.preset)
    names = list(FIGURES) if args.experiment == "all" else [args.experiment]
    tracer = None
    if args.trace:
        try:
            open(args.trace, "w", encoding="utf-8").close()
        except OSError as exc:
            parser.error(f"cannot write trace file: {exc}")
        tracer = Tracer()
        set_active_tracer(tracer)
    try:
        for name in names:
            started = time.time()
            result = run_experiment(FIGURES[name], preset, args.seed, args.jobs)
            print(result.render())
            print(f"[{name} regenerated in {time.time() - started:.1f}s]\n")
    finally:
        if tracer is not None:
            set_active_tracer(None)
    if tracer is not None:
        written = tracer.export(args.trace)
        print(summarize(tracer))
        print(f"[trace: {written} events -> {args.trace}]")
    return 0


if __name__ == "__main__":
    run_cli(main)
