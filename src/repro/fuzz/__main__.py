"""CLI: ``python -m repro.fuzz --seed N --iters K``.

A fuzz session is fully deterministic: the same seed and iteration
budget produce the same batches, the same coverage set/fingerprint and
the same crashers for *any* ``--jobs`` value.  ``--replay FILE`` re-runs
one corpus entry (or bare genome JSON) and checks its expected verdict;
``--save-crashers DIR`` persists every minimized crasher as a replayable
corpus artifact.

Exit codes: 0 clean, 1 crashers found (or replay mismatch).
"""

from __future__ import annotations

import argparse
import json
import os
from typing import List, Optional

from repro.errors import FaultConfigError, run_cli
from repro.fuzz.corpus import DEFAULT_CORPUS_DIR, CorpusEntry
from repro.fuzz.executor import execute
from repro.fuzz.fuzzer import FuzzConfig, run_fuzz
from repro.fuzz.genome import MODES, Genome
from repro.jobs import default_jobs
from repro.obs.vocab import vocabulary_fingerprint


def _replay(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    entry: Optional[CorpusEntry] = None
    try:
        entry = CorpusEntry.from_json(text)
        genome = entry.genome
    except FaultConfigError:
        genome = Genome.from_json(text)
    outcome = execute(genome)
    print(
        f"replay {os.path.basename(path)}: {outcome.verdict} "
        f"mode={genome.mode} seed={genome.workload_seed} "
        f"faults_fired={outcome.faults_fired} "
        f"vocab={len(outcome.vocab)} "
        f"fingerprint={vocabulary_fingerprint(outcome.vocab)}"
    )
    if entry is None:
        return 0 if outcome.ok else 1
    if outcome.ok != entry.expect_ok or (
        not entry.expect_ok and outcome.signature != entry.expect_signature
    ):
        print(
            f"  MISMATCH: expected ok={entry.expect_ok} "
            f"signature={entry.expect_signature!r}, "
            f"got ok={outcome.ok} signature={outcome.signature!r}"
        )
        return 1
    print("  verdict matches the corpus expectation")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Coverage-guided fuzzing of workload + fault + storm + net "
        "schedules over the deterministic DST harnesses.",
    )
    parser.add_argument("--seed", type=int, default=0, help="fuzz session seed")
    parser.add_argument(
        "--iters", type=int, default=64, help="harness executions to spend"
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=8,
        help="mutations drawn per round (fixed: batch composition never "
        "depends on --jobs)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        metavar="N",
        help="worker processes (default: $REPRO_JOBS or 1); results are "
        "identical for any value",
    )
    parser.add_argument(
        "--modes",
        default=",".join(MODES),
        help=f"comma-separated harness modes to fuzz (default: {','.join(MODES)})",
    )
    parser.add_argument(
        "--corpus-dir",
        default=DEFAULT_CORPUS_DIR,
        help=f"seed-corpus directory (default: {DEFAULT_CORPUS_DIR})",
    )
    parser.add_argument(
        "--no-corpus",
        action="store_true",
        help="bootstrap seeds only; ignore --corpus-dir",
    )
    parser.add_argument(
        "--save-crashers",
        metavar="DIR",
        help="write each minimized crasher to DIR as a corpus JSON artifact",
    )
    parser.add_argument(
        "--no-minimize", action="store_true", help="keep crashers as found"
    )
    parser.add_argument(
        "--replay", metavar="FILE", help="re-run one corpus entry / genome JSON"
    )
    parser.add_argument(
        "--dump-coverage",
        metavar="FILE",
        help="write the sorted coverage vocabulary as JSON",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-round progress"
    )
    args = parser.parse_args(argv)

    if args.replay:
        return _replay(args.replay)

    if not args.no_corpus and not os.path.isdir(args.corpus_dir):
        # The default is relative to the repository root: started elsewhere,
        # fuzzing would silently begin without its corpus.
        raise FaultConfigError(
            f"corpus directory not found: {args.corpus_dir} "
            "(use --no-corpus to bootstrap only)"
        )
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    if not modes:
        raise FaultConfigError(f"--modes names no mode (choose from {','.join(MODES)})")
    for mode in modes:
        if mode not in MODES:
            raise FaultConfigError(f"unknown mode {mode!r} (choose from {','.join(MODES)})")
    config = FuzzConfig(
        seed=args.seed,
        iters=args.iters,
        batch=args.batch,
        jobs=args.jobs,
        modes=modes,
        corpus_dir=None if args.no_corpus else args.corpus_dir,
        minimize_crashers=not args.no_minimize,
    )
    progress = None if args.quiet else print
    report = run_fuzz(config, progress=progress)

    for crasher in report.crashers:
        mini = crasher.minimized
        print(
            f"crasher [{crasher.signature}]\n"
            f"  found : {crasher.outcome.verdict}\n"
            f"  mini  : mode={mini.mode} seed={mini.workload_seed} "
            f"ops={mini.num_ops} specs={len(mini.schedule)}"
        )
        if args.save_crashers:
            os.makedirs(args.save_crashers, exist_ok=True)
            path = os.path.join(
                args.save_crashers, f"{crasher.artifact_name}.json"
            )
            crasher.to_entry().to_file(path)
            print(f"  saved : {path}")

    if args.dump_coverage:
        with open(args.dump_coverage, "w", encoding="utf-8") as fh:
            json.dump(list(report.coverage), fh, indent=2)
            fh.write("\n")

    print(
        f"fuzz: seed={report.seed} executed={report.executed} "
        f"coverage={report.coverage_count} "
        f"fingerprint={report.fingerprint} "
        f"crashers={len(report.crashers)}"
    )
    return 1 if report.crashers else 0


if __name__ == "__main__":
    run_cli(main)
