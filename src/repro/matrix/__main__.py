"""CLI: ``python -m repro.matrix`` — regenerate/check the experiment matrix.

Default mode **checks**: every registered table is re-run and compared
byte-for-byte against the block committed in ``EXPERIMENTS.md`` — exit
1 on any drift, which is what the ``matrix-smoke`` CI job runs.
``--write`` splices the freshly rendered blocks into the file instead;
``--print`` just shows them.  Every selected table's cells run in one
sweep, a cell two tables share once; results are bit-identical for any
``--jobs`` value (each cell builds its own universe).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.errors import run_cli
from repro.harness.experiments import run_experiment, run_points
from repro.jobs import default_jobs
from repro.matrix.registry import TABLES, table_by_id
from repro.matrix.render import extract_block, inject_block, render_block
from repro.matrix.runner import MATRIX_PRESET, MATRIX_SEED

DEFAULT_DOC = "EXPERIMENTS.md"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.matrix",
        description="Declarative experiment matrix: regenerate or check the "
        "device x workload x fault tables embedded in EXPERIMENTS.md.",
    )
    parser.add_argument(
        "--file",
        default=DEFAULT_DOC,
        help=f"document holding the matrix blocks (default: {DEFAULT_DOC})",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="TABLE",
        help="restrict to one table id (repeatable; default: all)",
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
        "--write",
        action="store_true",
        help="splice the regenerated blocks into --file (default: check only)",
    )
    parser.add_argument(
        "--print",
        dest="print_only",
        action="store_true",
        help="print the rendered blocks; do not touch or compare --file",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered tables and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for table in TABLES.values():
            cells = table.points(MATRIX_PRESET, MATRIX_SEED)
            print(f"{table.exp_id}: {table.title} ({len(cells)} cells)")
        return 0

    tables = [table_by_id(t) for t in args.only or TABLES]
    cells = [
        cell
        for table in tables
        for cell in table.points(MATRIX_PRESET, MATRIX_SEED).values()
    ]
    began = time.time()
    run_points(cells, args.jobs)
    print(
        f"matrix: {len(set(cells))} distinct of {len(cells)} cells in "
        f"{time.time() - began:.1f}s (jobs={args.jobs})",
        file=sys.stderr,
    )
    blocks = {
        table.exp_id: render_block(run_experiment(table, MATRIX_PRESET, MATRIX_SEED))
        for table in tables
    }

    if args.print_only:
        for block in blocks.values():
            print(block)
        return 0

    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()

    if args.write:
        for table_id, block in blocks.items():
            text = inject_block(text, table_id, block)
        with open(args.file, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"matrix: wrote {len(blocks)} block(s) to {args.file}")
        return 0

    drift = 0
    for table_id, block in blocks.items():
        committed = extract_block(text, table_id)
        if committed == block:
            print(f"matrix: {table_id}: OK (byte-identical)")
        else:
            drift += 1
            print(f"matrix: {table_id}: DRIFT — committed block differs")
            for got, want in zip(committed.splitlines(), block.splitlines()):
                if got != want:
                    print(f"  committed: {got}")
                    print(f"  fresh    : {want}")
                    break
    if drift:
        print(
            f"matrix: {drift} table(s) drifted; regenerate with "
            f"`python -m repro.matrix --write`"
        )
        return 1
    return 0


if __name__ == "__main__":
    run_cli(main)
