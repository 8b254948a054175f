"""The coverage-guided fuzz loop.

The loop is batch-synchronous so it parallelises without losing
determinism: every RNG draw (parent selection, mutation) happens in the
parent process *before* a batch executes, the batch composition is a
pure function of the seed, and results are merged in batch order.  The
worker count only decides how many harness runs are in flight at once —
``--jobs 1`` and ``--jobs N`` produce identical coverage sets,
fingerprints and crashers.

Guidance works as in any coverage-guided fuzzer: a genome whose run
emits vocabulary items never seen before joins the mutation pool; every
distinct failure class is recorded once, minimized, and reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import hashlib

from repro.errors import FaultConfigError
from repro.fuzz.corpus import (
    DEFAULT_CORPUS_DIR,
    CorpusEntry,
    bootstrap_genomes,
    load_corpus,
)
from repro.fuzz.executor import Outcome, execute
from repro.fuzz.genome import MODES, Genome
from repro.fuzz.minimize import minimize
from repro.fuzz.mutators import mutate_genome
from repro.jobs import map_points
from repro.obs.vocab import vocabulary_fingerprint
from repro.sim.rng import RandomStream


MAX_MINIMIZE_EXECUTIONS = 48  # executions one crasher's minimization may spend


@dataclass
class FuzzConfig:
    seed: int = 0
    iters: int = 64
    batch: int = 8
    jobs: int = 1
    modes: Tuple[str, ...] = MODES
    #: Directory of extra seed scenarios (None/"" = bootstrap only).
    corpus_dir: Optional[str] = DEFAULT_CORPUS_DIR
    minimize_crashers: bool = True

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise FaultConfigError(f"batch must be >= 1: {self.batch}")
        if self.iters < 0:
            raise FaultConfigError(f"iters must be >= 0: {self.iters}")


@dataclass
class Crasher:
    """One distinct failure class found during a fuzz session."""

    genome: Genome  # as found
    minimized: Genome
    outcome: Outcome
    signature: str

    @property
    def artifact_name(self) -> str:
        """Deterministic corpus filename stem for this failure class."""
        digest = hashlib.md5(self.signature.encode("utf-8")).hexdigest()[:10]
        return f"crasher-{self.genome.mode}-{digest}"

    def to_entry(self) -> CorpusEntry:
        return CorpusEntry(
            name=self.artifact_name,
            origin="fuzzer",
            note=f"found by repro.fuzz; verdict: {self.outcome.verdict}",
            genome=self.minimized,
            expect_ok=False,
            expect_signature=self.signature,
        )


@dataclass
class FuzzReport:
    seed: int
    executed: int
    coverage: Tuple[str, ...]  # sorted vocabulary
    crashers: List[Crasher]
    pool_size: int
    lines: List[str] = field(default_factory=list)

    @property
    def coverage_count(self) -> int:
        return len(self.coverage)

    @property
    def fingerprint(self) -> str:
        return vocabulary_fingerprint(self.coverage)


def _execute_worker(genome: Genome) -> Outcome:
    return execute(genome)


def run_fuzz(
    config: FuzzConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run one deterministic fuzz session."""
    rng = RandomStream(config.seed, "fuzz")
    seeds = bootstrap_genomes(config.modes)
    if config.corpus_dir:
        for entry in load_corpus(config.corpus_dir):
            if entry.genome.mode in config.modes:
                seeds.append(entry.genome)
    if not seeds:
        raise ValueError(f"no seed genomes for modes {config.modes!r}")

    coverage: set = set()
    pool: List[Genome] = []
    crashers: List[Crasher] = []
    seen_signatures: set = set()
    lines: List[str] = []
    executed = 0
    round_no = 0
    pending = list(seeds)

    while executed < config.iters:
        take = min(config.batch, config.iters - executed)
        if pending:
            batch = pending[:take]
            pending = pending[take:]
            origin = "seed"
        else:
            parents = pool if pool else seeds
            batch = [
                mutate_genome(parents[rng.randint(0, len(parents) - 1)], rng)
                for _ in range(take)
            ]
            origin = "mutate"
        outcomes = map_points(_execute_worker, batch, jobs=config.jobs)

        fresh_items = 0
        for genome, outcome in zip(batch, outcomes):
            executed += 1
            fresh = outcome.vocab - coverage
            if fresh:
                coverage |= fresh
                fresh_items += len(fresh)
                pool.append(genome)
            if not outcome.ok and outcome.signature not in seen_signatures:
                seen_signatures.add(outcome.signature)
                if config.minimize_crashers:
                    minimized, _spent = minimize(
                        genome,
                        outcome,
                        max_executions=MAX_MINIMIZE_EXECUTIONS,
                    )
                else:
                    minimized = genome
                crashers.append(
                    Crasher(
                        genome=genome,
                        minimized=minimized,
                        outcome=outcome,
                        signature=outcome.signature,
                    )
                )
        round_no += 1
        line = (
            f"round {round_no:3d} [{origin:6s}] executed={executed:4d} "
            f"coverage={len(coverage):4d} (+{fresh_items}) "
            f"pool={len(pool)} crashers={len(crashers)}"
        )
        lines.append(line)
        if progress is not None:
            progress(line)

    return FuzzReport(
        seed=config.seed,
        executed=executed,
        coverage=tuple(sorted(coverage)),
        crashers=crashers,
        pool_size=len(pool),
        lines=lines,
    )


__all__ = ["Crasher", "FuzzConfig", "FuzzReport", "run_fuzz"]
