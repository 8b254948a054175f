"""The fuzzer's corpus: bootstrap seeds + persisted crashers.

A corpus entry under ``tests/corpus/`` is one replayable JSON artifact:
a :class:`~repro.fuzz.genome.Genome` plus the verdict its replay must
produce.  The regression tier (``tests/fuzz/test_corpus.py``) collects
every ``*.json`` in that directory into parametrized pytest cases, so a
fuzzer find — once minimized, fixed and flipped to ``expect.ok: true``
— can never silently regress.

Bootstrap genomes are the schedules the four DST harnesses draw for
their first few seeds, so the fuzzer starts from scenarios that are
known-meaningful rather than from noise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import FaultConfigError
from repro.fuzz.executor import native_genome
from repro.fuzz.genome import (
    MODE_CLUSTER,
    MODE_DST,
    MODE_SERVING,
    MODE_STORM,
    MODES,
    Genome,
)

CORPUS_SCHEMA = 1
DEFAULT_CORPUS_DIR = os.path.join("tests", "corpus")

#: Harness seeds each mode contributes to the bootstrap corpus.
BOOTSTRAP_SEEDS = {
    MODE_DST: (0, 1, 2, 3),
    MODE_STORM: (0, 1, 2),
    MODE_CLUSTER: (0, 1),
    MODE_SERVING: (0, 1),
}


@dataclass(frozen=True)
class CorpusEntry:
    """One persisted scenario and the verdict its replay must produce."""

    name: str
    origin: str  # "bootstrap" | "fuzzer"
    note: str
    genome: Genome
    expect_ok: bool
    #: Normalised failure class (``Outcome.signature``); "" when expect_ok.
    expect_signature: str = ""

    def to_json(self) -> str:
        data = {
            "fuzz_corpus": CORPUS_SCHEMA,
            "name": self.name,
            "origin": self.origin,
            "note": self.note,
            "expect": {"ok": self.expect_ok, "signature": self.expect_signature},
            "genome": json.loads(self.genome.to_json()),
        }
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CorpusEntry":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultConfigError(f"unparseable corpus entry: {exc}") from exc
        if not isinstance(data, dict) or data.get("fuzz_corpus") != CORPUS_SCHEMA:
            raise FaultConfigError("not a fuzz corpus entry")
        expect = data.get("expect", {})
        return cls(
            name=data["name"],
            origin=data.get("origin", "fuzzer"),
            note=data.get("note", ""),
            genome=Genome.from_dict(data["genome"]),
            expect_ok=bool(expect.get("ok", True)),
            expect_signature=expect.get("signature", ""),
        )

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_file(cls, path: str) -> "CorpusEntry":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def corpus_files(dirpath: str) -> List[str]:
    """Sorted ``*.json`` paths under ``dirpath`` ([] when absent)."""
    if not os.path.isdir(dirpath):
        return []
    return [
        os.path.join(dirpath, name)
        for name in sorted(os.listdir(dirpath))
        if name.endswith(".json")
    ]


def load_corpus(dirpath: str) -> List[CorpusEntry]:
    return [CorpusEntry.from_file(path) for path in corpus_files(dirpath)]


def bootstrap_genomes(modes: Sequence[str] = MODES) -> List[Genome]:
    """Deterministic seed scenarios taken from the harnesses themselves.

    Each genome is what ``python -m repro.dst`` (or ``--storm`` /
    ``--cluster`` / ``--serving``) runs for that seed: the harness draws
    its schedule from named RNG forks, and passing the drawn schedule
    back through the config override is byte-identical to letting the
    harness draw it.
    """
    return [
        native_genome(mode, seed)
        for mode in MODES
        if mode in modes
        for seed in BOOTSTRAP_SEEDS[mode]
    ]


__all__ = [
    "CORPUS_SCHEMA",
    "CorpusEntry",
    "DEFAULT_CORPUS_DIR",
    "bootstrap_genomes",
    "corpus_files",
    "load_corpus",
]
