"""CLI: ``python -m repro.gates [NAME ...] [--repin]`` — check pinned outputs.

Each row of ``gates.json`` pins one output that moves only when simulated
behaviour moves (docs/API.md, "Pinned outputs").  EXPERIMENTS.md's marker
blocks pin the matrix tables instead (``python -m repro.matrix [--write]``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import List, Optional, Tuple

from repro.errors import ReproError, run_cli

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).with_name("gates.json")

_mask_timing = partial(re.compile(r"regenerated in [0-9.]+s").sub, "regenerated in Xs")


def _figure(text: str) -> str:
    # A traced run prints its trace digest after the figure's last line.
    text = _mask_timing(text)
    cut = re.search(r"regenerated in Xs.*\n?", text)
    return text[: cut.end()] if cut else text


def _ledger_sim(text: str) -> str:
    # The "== ... disturbed repetition(s)" headers and host metrics vary by host.
    return "".join(re.findall(r"^.*\[sim\].*\n|^ *(?:failed_frac|sim_digest) .*\n", text, re.M))


NORMALISERS = {"raw": lambda text: text, "mask-timing": _mask_timing,
               "figure": _figure, "ledger-sim": _ledger_sim}


def load(path: Path) -> List[dict]:
    return json.loads(Path(path).read_text())


def _select(gates: List[dict], names: List[str]) -> List[dict]:
    by_name = {gate["name"]: gate for gate in gates}
    unknown = " ".join(name for name in names if name not in by_name)
    if unknown:
        raise ReproError(f"unknown gate {unknown} (known: {' '.join(by_name)})")
    return [by_name[name] for name in names] or gates


def _run(gate: dict) -> Tuple[str, List[str]]:
    """Run each variant from the repository root: the md5 all gave (else each
    distinct outcome), and the argv and output tail of each that missed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH="src", **gate["env"])
    labels, report = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in gate["argv"]:
            argv = [arg.replace("{tmp}", tmp) for arg in argv]
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True)
            out = NORMALISERS[gate["normalise"]](proc.stdout.decode(errors="replace"))
            label = hashlib.md5(out.encode()).hexdigest()
            if proc.returncode:
                label = f"{label} (exit {proc.returncode})"
                out = proc.stderr.decode(errors="replace")
            labels.append(label)
            if label != gate["md5"]:
                report.append(f"  $ python {' '.join(argv)}  ({label})")
                report += [f"  | {line}" for line in out.splitlines()[-12:]]
    return " | ".join(dict.fromkeys(labels)), report


def check(gates: List[dict]) -> int:
    """Run ``gates`` in turn, one line each; 1 if any missed its md5."""
    status = 0
    for gate in gates:
        start = time.perf_counter()
        got, report = _run(gate)  # report is empty when every variant matched
        ok = got == gate["md5"]
        status |= not ok
        head = f"OK {gate['name']}" if ok else f"MISMATCH {gate['name']} {gate['md5']} → {got}"
        print(f"{head} ({time.perf_counter() - start:.1f} s)", *report, sep="\n", flush=True)
    return status


def repin(path: Path, names: List[str]) -> int:
    """Rewrite the named gates' md5s in the manifest at ``path`` from fresh
    runs; nothing is written unless each gate's variants agree and exit 0."""
    if not names:
        raise ReproError("--repin needs the names of the gates to repin")
    gates = load(path)
    new = {}
    for gate in _select(gates, names):
        new[gate["name"]] = got = _run(gate)[0]
        print(f"{gate['name']}: {gate['md5']} → {got}", flush=True)
    if not all(re.fullmatch("[0-9a-f]{32}", got) for got in new.values()):
        print("nothing repinned: a gate's variants differ or fail")
        return 1
    for gate in gates:
        gate["md5"] = new.get(gate["name"], gate["md5"])
    rows = ",\n".join(json.dumps(gate) for gate in gates)
    Path(path).write_text(f"[\n{rows}\n]\n")  # a gate per line: a repin diff is its rows
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.gates", description=__doc__)
    parser.add_argument("names", nargs="*", metavar="NAME", help="gates to run")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite the named gates' md5s from a fresh run")
    args = parser.parse_args(argv)
    if args.repin:
        return repin(MANIFEST, args.names)
    return check(_select(load(MANIFEST), args.names))


if __name__ == "__main__":
    run_cli(main)
