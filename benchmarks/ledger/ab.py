#!/usr/bin/env python3
"""Interleaved A/B of this working tree against another checkout.

    python3 benchmarks/ledger/ab.py --other /path/to/parent-checkout [--pairs 10]

Both sides are measured by *this* tree's benchmark (a change that claims a
gain may not edit it); only ``PYTHONPATH`` switches between ``<other>/src``
(the parent, side A) and ``src`` of this tree (the change, side B).  Pairs
alternate which side runs first.  A metric is claimed as a gain only when the
change wins at least nine tenths of the pairs (ties count for neither) and
the medians differ by more than the spread between the parent's own runs
(the distance between their quartiles); the mirror image is a regression;
anything else is "no claim".  Every pair is printed: report them all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from metrics import END_TO_END, RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def run_side(src: Path, workload: str, seed: int) -> Dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} failed with PYTHONPATH={src}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def iqr(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: List[float], change: List[float], better: str) -> str:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    beyond = abs(statistics.median(change) - statistics.median(parent)) > iqr(parent)
    if beyond and wins >= WIN_SHARE * len(parent):
        return "gain"
    if beyond and losses >= WIN_SHARE * len(parent):
        return "regression"
    return "no claim"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--other", required=True, type=Path, help="the parent checkout (side A)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: the parent's quartiles need two runs")
    sides = {"A": args.other.resolve() / "src", "B": HERE.parents[1] / "src"}
    for src in sides.values():
        if not (src / "repro" / "__init__.py").is_file():
            ap.error(f"no repro package under {src}")

    for workload in args.workload or list(WORKLOADS):
        runs: Dict[str, List[Dict[str, float]]] = {"A": [], "B": []}
        for pair in range(args.pairs):
            for side in ("AB", "BA")[pair % 2]:
                runs[side].append(run_side(sides[side], workload, args.seed))
            a, b = runs["A"][-1], runs["B"][-1]
            print(f"{workload} pair {pair + 1} ({('AB', 'BA')[pair % 2]}): " + "  ".join(
                f"{m.name} {a[m.name]:.6g} -> {b[m.name]:.6g}" for m in END_TO_END))
        for m in END_TO_END:
            parent = [r[m.name] for r in runs["A"]]
            change = [r[m.name] for r in runs["B"]]
            pa, pb = statistics.median(parent), statistics.median(change)
            print(f"{workload:12s} {m.name:16s} parent {pa:.6g} (IQR {iqr(parent):.3g})  "
                  f"change {pb:.6g}  {pb / pa:.4f}x of parent  {verdict(parent, change, m.better)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
