"""The fuzzer's failure path, end to end, on a planted bug: a session
finds the crasher, minimizes it and saves it as a corpus entry, and the
entry replays to the same failure class.  No real harness fails on any
seed the suite runs, so without a plant none of this would run."""

import dataclasses
import json

import pytest

from repro.dst.harness import DstRun
from repro.fuzz import fuzzer
from repro.fuzz.__main__ import main
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.executor import execute
from repro.fuzz.genome import MODE_DST, Genome
from repro.fuzz.minimize import minimize

pytestmark = pytest.mark.fuzz


def _plant(monkeypatch, fails):
    """Make a crash-mode run fail wherever ``fails(run)`` holds."""
    run = DstRun.run

    def planted(self):
        result = run(self)
        return dataclasses.replace(result, ok=False, reason="planted") if fails(self) else result

    monkeypatch.setattr(DstRun, "run", planted)


def test_a_planted_failure_is_found_minimized_saved_and_replayed(
    tmp_path, monkeypatch, capsys
):
    _plant(monkeypatch, lambda run: len(run.schedule.specs) >= 2)
    monkeypatch.setattr(fuzzer, "MAX_MINIMIZE_EXECUTIONS", 6)
    argv = ["--seed", "0", "--iters", "8", "--batch", "4", "--modes", "dst", "--no-corpus"]
    coverage = tmp_path / "coverage.json"
    argv += ["--quiet", "--save-crashers", str(tmp_path), "--dump-coverage", str(coverage)]
    assert main(argv) == 1
    found = capsys.readouterr().out
    (saved,) = tmp_path.glob("crasher-dst-*.json")
    assert f"saved : {saved}" in found and "crashers=1" in found
    assert json.loads(coverage.read_text())
    assert main(["--replay", str(saved)]) == 0
    assert "verdict matches the corpus expectation" in capsys.readouterr().out

    # With the bug gone the entry no longer fails as it expects; a bare
    # genome (no expectation) replays by its own verdict.
    monkeypatch.undo()
    assert main(["--replay", str(saved)]) == 1
    assert "MISMATCH: expected ok=False" in capsys.readouterr().out
    bare = tmp_path / "genome.json"
    bare.write_text(CorpusEntry.from_file(str(saved)).genome.to_json())
    assert main(["--replay", str(bare)]) == 0


def test_minimize_halves_the_ops_while_the_failure_survives(monkeypatch):
    """With no spec to drop, the minimizer halves the op count, and keeps
    the last count that still fails: a plant that fails from 100 ops up
    takes 240 to 120, and 60 passes."""
    _plant(monkeypatch, lambda run: run.config.num_ops >= 100)
    genome = Genome(MODE_DST, workload_seed=3, num_ops=240, num_keys=16)
    with pytest.raises(ValueError, match="wants a failing genome"):
        minimize(genome, execute(dataclasses.replace(genome, num_ops=60)))
    smaller, spent = minimize(genome, execute(genome))
    assert (smaller.num_ops, spent) == (120, 2)
