#!/usr/bin/env python3
"""The layered performance ledger: one command, four workloads, every metric.

    python3 benchmarks/ledger/run.py [--seed N]          # the whole ledger
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py --repeat-check
    python3 benchmarks/ledger/run.py --compare A.json B.json

Every repetition runs in a fresh single-threaded child process, one at a
time.  ``--trace 0`` measures the end-to-end metrics with nothing attached;
``--trace 1`` produces the per-layer metrics (one untraced repetition for the
boundary counters, one quarter-length repetition under cProfile, and the
primitive costs).  The last line of standard output is one JSON object.
``repro`` is taken from ``PYTHONPATH`` when set (that is how ``ab.py`` points
the same benchmark at another checkout), else from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from metrics import END_TO_END, PER_LAYER, REPS, RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

MIN_CPU_FRAC = 0.95  # below this a repetition was preempted: re-run it
MAX_EXTRA_REPS = 2
PROFILE_FRACTION = 0.25  # the traced repetition runs at quarter length
SAME_SEED_SIM_BOUND = 0.01  # sim metrics repeat exactly for a fixed seed

HOST_E2E = tuple(m for m in END_TO_END if m.kind == "host")
SIM_E2E = tuple(m for m in END_TO_END if m.kind == "sim")
# Per-layer metrics that must be byte-equal between two runs of the same code.
EXACT_PER_LAYER = tuple(m.name for m in PER_LAYER if m.kind != "host")


class ChildFailed(RuntimeError):
    pass


# -- child processes ------------------------------------------------------------


def _child_env(hashseed: str) -> Dict[str, str]:
    env = dict(os.environ)
    for knob in ("REPRO_BATCH_OPS", "REPRO_NO_NUMPY", "REPRO_TRACE", "REPRO_PRESET"):
        env.pop(knob, None)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [env.get("PYTHONPATH"), str(SRC)]))
    return env


def _repro_present() -> bool:
    roots = os.environ.get("PYTHONPATH", "").split(os.pathsep) + [str(SRC)]
    return any(root and (Path(root) / "repro" / "__init__.py").is_file() for root in roots)


def child(kind: str, workload: str, seed: int, seconds: float, hashseed: str = "0") -> dict:
    """Run one child to completion and return the dict it printed."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", kind,
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
    ]
    done = subprocess.run(cmd, env=_child_env(hashseed), stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise ChildFailed(f"{kind} child of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_main(kind: str, workload: str, seed: int, seconds: float) -> None:
    if kind == "primitives":
        import primitives

        out = primitives.measure_all()
    else:
        import workloads

        out = workloads.run_rep(workload, seed, seconds, profile=kind == "profile")
    print(json.dumps(out), flush=True)
    os._exit(0)  # skip tearing down a million-object heap: nothing is left to do


# -- one workload, end to end (--trace 0) ------------------------------------------


def _summary(values: List[float], unit: str) -> dict:
    return {
        "median": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values), "unit": unit,
    }


def _sim_state(rep: dict) -> tuple:
    exact = {k: v for k, v in rep["counters"].items() if k in EXACT_PER_LAYER}
    return rep["digest"], rep["sim"], exact, rep["attempted"]


def measure(workload: str, seed: int, seconds: float, reps: int) -> dict:
    """``reps`` undisturbed repetitions; medians of host metrics, exact sim."""
    kept: List[dict] = []
    replaced = 0
    while len(kept) < reps:
        rep = child("rep", workload, seed, seconds)
        rep["host_cpu_frac"] = rep["cpu_s"] / rep["raw_host_s"]
        if rep["host_cpu_frac"] < MIN_CPU_FRAC and replaced < MAX_EXTRA_REPS:
            replaced += 1
            continue
        kept.append(rep)
    first = kept[0]
    attempted = sum(rep["attempted"] for rep in kept)
    failed = sum(rep["failed"] for rep in kept)
    repeatable = all(_sim_state(rep) == _sim_state(first) for rep in kept)
    if not repeatable:  # a simulator that does not repeat has no right answer
        failed = attempted
    host = {
        "setup_s": [rep["setup_s"] for rep in kept],
        "host_ops_per_s": [rep["attempted"] / rep["host_s"] for rep in kept],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in kept],
    }
    end_to_end = {m.name: _summary(host[m.name], m.unit) for m in HOST_E2E}
    for m in SIM_E2E:
        end_to_end[m.name] = _summary([first["sim"][m.name]], m.unit)
    raw_s_per_op = statistics.median(rep["raw_host_s"] / rep["attempted"] for rep in kept)
    counters = dict(first["counters"])
    counters["host.raw_ops_per_s"] = 1 / raw_s_per_op
    counters["host.raw_setup_s"] = statistics.median(rep["raw_setup_s"] for rep in kept)
    counters["host.ref_slowdown"] = statistics.median(rep["ref_slowdown"] for rep in kept)
    return {
        "end_to_end": end_to_end,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "sim_digest": first["digest"], "sim_repeatable": repeatable,
        "counters": counters,
        "host_cpu_frac": [round(rep["host_cpu_frac"], 4) for rep in kept],
        "replaced_reps": replaced, "detail": first["detail"],
        "raw_host_s_per_op": raw_s_per_op,
    }


# -- one workload, per layer (--trace 1) -------------------------------------------


def trace(workload: str, seed: int, seconds: float, untraced: dict,
          primitives: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one workload (0 where the workload has none).

    ``untraced`` is a :func:`measure` result of the same workload: its counters
    are the boundary counters, its host time per op the base of the overhead;
    the profiled repetition's ops are added to its attempted/failed tally.
    """
    profiled = child("profile", workload, seed, seconds * PROFILE_FRACTION)
    untraced["attempted"] += profiled["attempted"]
    untraced["failed"] += profiled["failed"]
    untraced["failed_frac"] = untraced["failed"] / untraced["attempted"]
    values = dict.fromkeys((m.name for m in PER_LAYER), 0.0)
    values.update(untraced.pop("counters"))  # from here on they live in the per-layer dict
    values.update(profiled["profile"])
    values["trace.overhead_x"] = (
        profiled["raw_host_s"] / profiled["attempted"] / untraced["raw_host_s_per_op"]
    )
    values.update(primitives)
    return values


# -- printing ---------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_end_to_end(workload: str, result: dict) -> None:
    print(f"== {workload}: end to end  ({result['detail']}; "
          f"{result['replaced_reps']} disturbed repetition(s) replaced)")
    for m in END_TO_END:
        s = result["end_to_end"][m.name]
        spread = f"min {_fmt(s['min'])} max {_fmt(s['max'])} n={s['n']}" if m.kind == "host" \
            else "identical in every repetition" if result["sim_repeatable"] else "NOT REPEATABLE"
        print(f"  {m.name:18s} {_fmt(s['median']):>12s} {m.unit:7s} [{m.kind}] {spread}")
    print(f"  {'failed_frac':18s} {_fmt(result['failed_frac']):>12s} {'frac':7s} "
          f"({result['failed']} of {result['attempted']} ops)")
    print(f"  {'sim_digest':18s} {result['sim_digest']}")


def print_per_layer(workload: str, per_layer: Dict[str, float]) -> None:
    print(f"== {workload}: per layer")
    for m in PER_LAYER:
        print(f"  {m.name:32s} {_fmt(per_layer[m.name]):>12s} {m.unit:6s} [{m.kind}, {m.source}]")


# -- modes --------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, traced: bool, reps: int) -> int:
    """The contract mode: one workload, one JSON object on the last line."""
    result = measure(workload, seed, seconds, reps=1 if traced else reps)
    if traced:
        per_layer = trace(workload, seed, seconds, result,
                          child("primitives", workload, seed, seconds))
        print_per_layer(workload, per_layer)
        metrics = {m.name: {"value": per_layer[m.name], "unit": m.unit} for m in PER_LAYER}
    else:
        print_end_to_end(workload, result)
        metrics = {m.name: {"value": result["end_to_end"][m.name]["median"], "unit": m.unit}
                   for m in END_TO_END}
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def host_description() -> dict:
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "platform": platform.platform(), "python": platform.python_version(),
        "cpus": os.cpu_count(), "numpy": numpy_version,
    }


def run_ledger(names: List[str], seed: int, seconds: float, reps: int,
               traced: bool, comparable: bool) -> dict:
    """All of ``names`` one after another; returns the result document."""
    started = time.perf_counter()
    doc = {
        "schema": "ledger/1", "comparable": comparable, "seed": seed,
        "seconds": seconds, "reps": reps, "host": host_description(), "workloads": {},
    }
    primitives = child("primitives", names[0], seed, seconds) if traced else None
    for name in names:
        result = measure(name, seed, seconds, reps)
        print_end_to_end(name, result)
        if traced:
            result["per_layer"] = trace(name, seed, seconds, result, primitives)
            print_per_layer(name, result["per_layer"])
        doc["workloads"][name] = result
    doc["runtime_s"] = round(time.perf_counter() - started, 1)
    return doc


def write_doc(doc: dict, tag: str) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"ledger-seed{doc['seed']}{tag}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}  ({doc['runtime_s']} s)")


# -- comparing two result documents -------------------------------------------------

Row = Tuple[str, str, str, str, str, str]


def _table(rows: List[Row], header: Row) -> None:
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _spread(summary: dict) -> float:
    return (summary["max"] - summary["min"]) / summary["median"]


def compare(a: dict, b: dict) -> Tuple[List[Row], bool]:
    """Rows for ``--compare``: is B better, the same or worse than A?"""
    rows: List[Row] = []
    clean = True
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            continue
        for m in END_TO_END:
            sa, sb = wa["end_to_end"][m.name], wb["end_to_end"][m.name]
            bound = m.bound if m.kind == "host" else SAME_SEED_SIM_BOUND
            ratio = sb["median"] / sa["median"]
            gain = ratio - 1 if m.better == "higher" else 1 - ratio
            if max(_spread(sa), _spread(sb)) > bound:
                verdict = "unresolved"  # spread wider than the bound: cannot tell
            elif gain < -bound:
                verdict = "regressed"
            else:
                verdict = "improved" if gain > bound else "unchanged"
            clean &= verdict in ("improved", "unchanged")
            rows.append((name, m.name, _fmt(sa["median"]), _fmt(sb["median"]),
                         f"{ratio:.4f}x of A", verdict))
        same = wa["sim_digest"] == wb["sim_digest"]
        rows.append((name, "sim_digest", wa["sim_digest"][:12], wb["sim_digest"][:12],
                     "-", "equal" if same else "changed"))
        rows.append((name, "failed_frac", _fmt(wa["failed_frac"]), _fmt(wb["failed_frac"]),
                     "-", "equal" if wa["failed_frac"] == wb["failed_frac"] else "changed"))
        clean &= wb["failed_frac"] <= wa["failed_frac"]
    return rows, clean


def repeat_rows(a: dict, b: dict) -> Tuple[List[Row], bool]:
    """Rows for ``--repeat-check``: do two sets of the same code agree?"""
    rows: List[Row] = []
    ok = True
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for m in HOST_E2E:
            va, vb = wa["end_to_end"][m.name]["median"], wb["end_to_end"][m.name]["median"]
            good = abs(vb / va - 1) <= m.bound
            ok &= good
            rows.append((name, m.name, _fmt(va), _fmt(vb), f"{vb / va:.4f}x of set1",
                         f"within {m.bound:.0%}" if good else f"OUTSIDE {m.bound:.0%}"))
        exact = [(m.name, wa["end_to_end"][m.name]["median"], wb["end_to_end"][m.name]["median"])
                 for m in SIM_E2E]
        exact += [("sim_digest", wa["sim_digest"], wb["sim_digest"]),
                  ("failed_frac", wa["failed_frac"], wb["failed_frac"])]
        for key, va, vb in exact:
            ok &= va == vb
            rows.append((name, key, str(va)[:12], str(vb)[:12], "-",
                         "identical" if va == vb else "DIFFERS"))
        if "per_layer" in wa:
            differing = [k for k in EXACT_PER_LAYER if wa["per_layer"][k] != wb["per_layer"][k]]
            ok &= not differing
            rows.append((name, f"{len(EXACT_PER_LAYER)} exact per-layer", "", "", "-",
                         "DIFFERS: " + " ".join(differing) if differing else "identical"))
    return rows, ok


# -- command line ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float,
                    help=f"host seconds one set of repetitions is sized for (default {RUN_SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="contract mode: 0 end-to-end metrics, 1 per-layer metrics")
    ap.add_argument("--reps", type=int, help=f"repetitions per workload (default {REPS})")
    ap.add_argument("--no-trace", action="store_true", help="ledger mode: skip per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="quarter length, 1 repetition; output is stamped non-comparable")
    ap.add_argument("--repeat-check", action="store_true",
                    help="run two sets back to back; non-zero exit unless they agree")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--child", choices=("rep", "profile", "primitives"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        if not (a["comparable"] and b["comparable"]):
            print("refusing to compare: a --quick result is not comparable", file=sys.stderr)
            return 2
        rows, clean = compare(a, b)
        _table(rows, ("workload", "metric", "A", "B", "ratio", "verdict"))
        return 0 if clean else 1

    if not _repro_present():
        print(f"cannot find the repro package (PYTHONPATH or {SRC})", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    reps = args.reps if args.reps is not None else REPS
    if args.quick:
        seconds, reps = seconds / 4, 1
    if args.child:
        child_main(args.child, args.workload, args.seed, seconds)
        return 0
    if args.trace is not None:
        if args.workload is None:
            ap.error("--trace needs --workload")
        return run_one(args.workload, args.seed, seconds, bool(args.trace), reps)

    names = [args.workload] if args.workload else list(WORKLOADS)
    comparable = not args.quick and seconds == RUN_SECONDS and reps == REPS
    sets = [run_ledger(names, args.seed, seconds, reps, not args.no_trace, comparable)
            for _ in range(2 if args.repeat_check else 1)]
    for i, doc in enumerate(sets, 1):
        write_doc(doc, f"-set{i}" if args.repeat_check else "")
    ok = all(w["failed"] == 0 for doc in sets for w in doc["workloads"].values())
    if args.repeat_check:
        rows, agree = repeat_rows(*sets)
        _table(rows, ("workload", "metric", "set1", "set2", "ratio", "verdict"))
        ok &= agree
    print("ledger " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as exc:  # the child's own traceback is already on stderr
        sys.exit(f"ledger: {exc}")
