"""Self-test of the ledger.  Run explicitly (tier-1 collects only ``tests/``):

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

The process-spawning tests run real (very short) repetitions, ~1.5 minutes in all.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import profile_fold  # noqa: E402
import run  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def driver(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the manifest's command as the driver does: from a checkout, no PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [*MANIFEST["command"], *args], cwd=cwd, env=env, stdout=subprocess.PIPE, text=True
    )


# -- the manifest ------------------------------------------------------------------


def test_manifest_mirrors_the_declarations():
    assert MANIFEST["run_seconds"] == metrics.RUN_SECONDS
    assert [w["name"] for w in MANIFEST["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER
    ]


def test_manifest_is_within_the_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in MANIFEST[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    metric_entries = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) for m in metric_entries)
    assert all(m["better"] in ("higher", "lower") for m in metric_entries)
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_every_per_layer_metric_names_what_it_should_move():
    end_to_end = {m.name for m in metrics.END_TO_END}
    for m in metrics.PER_LAYER:
        for target in m.moves:
            metric, _, workload = target.partition("@")
            assert metric in end_to_end and workload in metrics.WORKLOADS, (m.name, target)
        if not m.moves:  # only what the README calls "watched" may move nothing
            assert m.name.startswith(("obs.", "trace.", "host.", "workloads.zipf")), m.name


# -- folding and judging, without processes -------------------------------------------


def test_layer_of_names_every_repro_package_it_should():
    assert profile_fold.layer_of("/x/src/repro/lsm/db.py") == ("lsm", "lsm.db")
    assert profile_fold.layer_of("/repro/checkout/src/repro/sim/engine.py")[0] == "sim"
    assert profile_fold.layer_of("~") == ("builtin", "")
    assert profile_fold.layer_of("/usr/lib/python3.11/random.py")[0] == "other"
    assert profile_fold.layer_of("/x/src/repro/errors.py")[0] == "other"
    assert profile_fold.layer_of(str(HERE / "workloads.py"))[0] == "other"
    packages = {p.name for p in (ROOT / "src" / "repro").iterdir() if p.is_dir()}
    named = set(metrics.LAYERS) - {"builtin", "other"}
    assert named <= packages
    # what the ledger's workloads never execute stays unnamed on purpose
    assert packages - named - {"__pycache__"} <= {"core", "perf", "matrix", "fuzz"}


def _rep(digest: str = "d") -> dict:
    return {
        "setup_s": 1.0, "host_s": 2.0, "raw_setup_s": 1.0, "raw_host_s": 2.0, "cpu_s": 2.0,
        "ref_slowdown": 1.0, "attempted": 100, "failed": 0, "detail": "",
        "sim": {m.name: 1.0 for m in run.SIM_E2E}, "counters": {"lsm.flush_count": 3},
        "digest": digest, "peak_rss_mb": 10.0,
    }


def test_a_perturbed_digest_fails_every_op(monkeypatch):
    reps = iter([_rep(), _rep("perturbed"), _rep()])
    monkeypatch.setattr(run, "child", lambda *a, **k: next(reps))
    result = run.measure("fill_solo", 1, 1.0, reps=3)
    assert result["failed_frac"] == 1.0 and not result["sim_repeatable"]


def test_a_disturbed_repetition_is_replaced_at_most_twice(monkeypatch):
    slow = dict(_rep(), cpu_s=1.0)  # half the wall time on the CPU: preempted
    reps = iter([slow, _rep(), slow, slow, slow])
    monkeypatch.setattr(run, "child", lambda *a, **k: next(reps))
    result = run.measure("fill_solo", 1, 1.0, reps=3)
    assert result["replaced_reps"] == 2
    assert result["host_cpu_frac"] == [1.0, 0.5, 0.5]  # the third extra is kept, and shown


def _doc(ops_per_s: float, spread: float = 0.0, digest: str = "d") -> dict:
    def summary(median, rel=0.0):
        return {"median": median, "min": median * (1 - rel), "max": median * (1 + rel), "n": 3}

    end_to_end = {m.name: summary(1.0) for m in metrics.END_TO_END}
    end_to_end["host_ops_per_s"] = summary(ops_per_s, spread)
    return {"workloads": {"fill_solo": {
        "end_to_end": end_to_end, "sim_digest": digest, "failed_frac": 0.0}}}


def _verdict(rows, metric):
    return next(r[-1] for r in rows if r[1] == metric)


def test_compare_never_calls_a_wide_spread_unchanged():
    rows, clean = run.compare(_doc(100.0), _doc(70.0))
    assert _verdict(rows, "host_ops_per_s") == "regressed" and not clean
    rows, clean = run.compare(_doc(100.0), _doc(130.0, digest="e"))
    assert _verdict(rows, "host_ops_per_s") == "improved" and clean
    assert _verdict(rows, "sim_digest") == "changed"
    rows, clean = run.compare(_doc(100.0, spread=0.2), _doc(101.0))
    assert _verdict(rows, "host_ops_per_s") == "unresolved" and not clean
    rows, clean = run.compare(_doc(100.0), _doc(101.0))
    assert _verdict(rows, "host_ops_per_s") == "unchanged" and clean


# -- real (short) runs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_contract_mode_emits_the_declared_end_to_end_metrics(workload):
    done = driver("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                  "--reps", "1")
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST["end_to_end"]]
    for m in MANIFEST["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, m["name"]


def test_contract_mode_emits_the_declared_per_layer_metrics():
    done = driver("--workload", "chaos_sweep", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in MANIFEST["per_layer"]]
    value = {name: m["value"] for name, m in result["metrics"].items()}
    chaos_layers = ("faults", "net", "cluster", "serving", "dst")
    assert all(value[f"{layer}.self_share"] > 0 for layer in chaos_layers)
    assert all(value[name] > 0 for name in value if name.endswith("_ns"))


def test_counts_repeat_and_tracing_does_not_perturb_the_simulation():
    plain = run.child("rep", "fill_solo", 3, 1.0)
    profiled = run.child("profile", "fill_solo", 3, 1.0)
    other_hash = run.child("profile", "fill_solo", 3, 1.0, hashseed="1")
    # the reference ticker (plain only) and cProfile (profiled only) leave the model alone
    assert plain["digest"] == profiled["digest"] == other_hash["digest"]
    assert plain["sim"] == profiled["sim"]
    exact = [name for name in profiled["profile"] if name.endswith("calls_per_op")]
    assert exact and all(profiled["profile"][n] == other_hash["profile"][n] for n in exact)
    named = 1 - profiled["profile"]["other.calls_per_op"] / profiled["profile"]["py.calls_per_op"]
    assert named >= 0.97  # the rest is stdlib random/heapq, not repro frames
    db_bench_layers = ("faults", "net", "cluster", "serving", "dst")
    assert all(profiled["profile"][f"{layer}.calls_per_op"] == 0 for layer in db_bench_layers)


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = driver("--workload", "fill_solo", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
