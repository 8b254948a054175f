"""The regression-corpus tier: every ``tests/corpus/*.json`` replays.

Each committed corpus entry is a full scenario (harness mode, workload
knobs, fault schedule) plus the verdict its replay must produce.  This
module auto-collects the directory into parametrized cases, so adding a
minimized fuzzer find to ``tests/corpus/`` *is* adding a regression
test — no code change required.
"""

from __future__ import annotations

import os

import pytest

from repro.fuzz.corpus import CorpusEntry, corpus_files, load_corpus
from repro.fuzz.executor import execute

pytestmark = pytest.mark.fuzz

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def _cases():
    paths = corpus_files(CORPUS_DIR)
    return pytest.mark.parametrize(
        "path", paths, ids=[os.path.splitext(os.path.basename(p))[0] for p in paths]
    )


class TestCorpusIntegrity:
    def test_corpus_is_not_empty(self):
        assert corpus_files(CORPUS_DIR), "committed corpus went missing"

    def test_entries_parse_and_round_trip(self):
        for entry in load_corpus(CORPUS_DIR):
            again = CorpusEntry.from_json(entry.to_json())
            assert again == entry

    def test_names_match_files_and_are_unique(self):
        entries = load_corpus(CORPUS_DIR)
        names = [e.name for e in entries]
        assert len(set(names)) == len(names)
        for path, entry in zip(corpus_files(CORPUS_DIR), entries):
            assert os.path.basename(path) == f"{entry.name}.json"


class TestCorpusReplay:
    @_cases()
    def test_replay_matches_expectation(self, path):
        entry = CorpusEntry.from_file(path)
        outcome = execute(entry.genome)
        assert outcome.ok == entry.expect_ok, (
            f"{entry.name}: expected ok={entry.expect_ok}, got "
            f"{outcome.verdict} ({outcome.reason})"
        )
        if not entry.expect_ok:
            assert outcome.signature == entry.expect_signature


def test_cli_refuses_a_missing_corpus_dir(tmp_path):
    """A ``--corpus-dir`` that does not exist (the relative default, run
    outside the repository root) is an error, not a fuzzing run without its
    corpus; ``--no-corpus`` is the way to bootstrap only."""
    from repro.errors import FaultConfigError
    from repro.fuzz.__main__ import main

    missing = tmp_path / "missing"
    with pytest.raises(FaultConfigError, match="corpus directory not found: .*--no-corpus"):
        main(["--corpus-dir", str(missing), "--iters", "1", "--quiet"])


def test_cli_refuses_an_unknown_mode(capsys):
    """An unknown ``--modes`` entry is an ``error:`` line and exit 2."""
    from repro.errors import run_cli
    from repro.fuzz.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        run_cli(lambda: main(["--modes", "dst,bogus", "--no-corpus", "--iters", "1", "--quiet"]))
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("error: unknown mode 'bogus' (choose from ")
