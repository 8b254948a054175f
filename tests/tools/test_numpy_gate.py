"""numpy is loaded by the first bulk batch, never by a run that builds none.

``repro.sim.stats.bulk_numpy`` is the one place ``repro`` imports numpy: a
bulk path asks it once per call, with its batch size, and gets numpy only
for a batch of at least ``BULK_MIN`` elements.  No DST seed run builds one,
so a chaos sweep never pays numpy's import (about 0.06 s and 13 MB of RSS).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
GATE = ("sim/stats.py", "bulk_numpy")


def numpy_imports():
    """``(file, enclosing function)`` of every numpy import under ``src/repro``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if "numpy" not in text:
            continue
        tree = ast.parse(text, str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if not any(name == "numpy" or name.startswith("numpy.") for name in names):
                continue
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, ast.FunctionDef):
                scope = parents.get(scope)
            found.append((path.relative_to(SRC).as_posix(), scope.name if scope else None))
    return found


def test_numpy_is_imported_only_by_the_gate():
    assert numpy_imports() == [GATE]


def _without_repro_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC.parent)
    return env


def _numpy_loaded_after(program: str) -> bool:
    done = subprocess.run(
        [sys.executable, "-c", program + "\nprint('numpy' in sys.modules)"],
        env=_without_repro_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "True"


def test_seed_runs_never_load_numpy():
    """One seed of each DST harness, then ``python -m repro.dst --seed 0
    --cluster``, in one process."""
    program = (
        "import runpy, sys\n"
        "from repro.dst.cluster import ClusterDstRun\n"
        "from repro.dst.harness import DstRun\n"
        "from repro.dst.serving import ServingDstRun\n"
        "from repro.dst.storm import StormRun\n"
        "for harness in (DstRun, StormRun, ClusterDstRun, ServingDstRun):\n"
        "    assert harness(0).run().verdict == 'PASS', harness\n"
        "sys.argv = ['repro.dst', '--seed', '0', '--cluster']\n"
        "try:\n"
        "    runpy.run_module('repro.dst', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert not stop.code, stop.code\n"
    )
    assert not _numpy_loaded_after(program)


def test_a_bulk_batch_loads_it():
    """The gate is not merely off: a batch of ``BULK_MIN`` samples loads numpy
    (the db_bench workloads' end-of-run fold, merges and prefill)."""
    program = (
        "import sys\n"
        "from repro.sim.stats import BULK_MIN, LatencyHistogram\n"
        "LatencyHistogram().record_many(range(BULK_MIN - 1))\n"
        "assert 'numpy' not in sys.modules\n"
        "LatencyHistogram().record_many(range(BULK_MIN))\n"
    )
    assert _numpy_loaded_after(program)
