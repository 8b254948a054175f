"""CLI: ``python -m repro.dst --seed N`` (and seed sweeps for CI).

Each seed is one independent simulated universe: workload, fault
schedule and crash point all derive from it.  A failing seed prints a
minimal repro command; ``--save`` dumps the fault schedule as JSON and
``--replay`` re-runs a saved schedule under any seed's workload.
``--selfcheck`` runs every seed twice in-process and demands
byte-identical event logs — the determinism contract CI leans on.

One seed worker and one sweep loop serve all four modes, so every flag
above, ``--jobs`` and the handling of a harness that raises (printed as
``EXCEPTION(...)``, counted as a failure, sweep continues) are
mode-independent.  A mode supplies its config class (a flag applies where
that config has the field, and is a usage error where it has none) and, in
:data:`_CLI`, its summary line and sweep epilogue.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from typing import List, Optional

from repro.dst import MODES
from repro.dst.core import RunResult, guarded, make_config
from repro.dst.storm import STORM_AUTO, STORM_KINDS
from repro.errors import FaultConfigError, WorkloadError, run_cli
from repro.faults import FaultSchedule
from repro.jobs import default_jobs, imap_points


def _parse_seeds(args: argparse.Namespace) -> List[int]:
    if args.seeds:
        lo, _, hi = args.seeds.partition(":")
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise WorkloadError(f"bad --seeds range {args.seeds!r} (want A:B)")
        if hi_i <= lo_i:
            raise WorkloadError(f"empty --seeds range {args.seeds!r}")
        return list(range(lo_i, hi_i))
    return [args.seed]


def _repro_line(
    parser: argparse.ArgumentParser, args: argparse.Namespace, mode: str, seed: int
) -> str:
    """The command that re-runs ``seed`` as this sweep ran it: the mode
    plus every sizing flag that was moved off its default."""
    parts = [f"python -m repro.dst --seed {seed}"]
    if mode != "dst":
        parts.append(f"--{mode}")
    for dest in ("storm_kind", "nodes", "shards", "replicas", "ops", "keys", "max_faults"):
        value = getattr(args, dest)
        if value != parser.get_default(dest):
            parts.append(f"--{dest.replace('_', '-')} {value}")
    if args.no_faults:
        parts.append("--no-faults")
    if args.replay:
        parts.append(f"--replay {args.replay}")
    return " ".join(parts)


def _seed_worker(item):
    """One seed's full universe (plus the ``--selfcheck`` rerun).

    Runs inside a worker process under ``--jobs``, so it ships back only
    picklable results; each run gets a fresh config instance, exactly as
    a serial loop would, so event logs are byte-identical for any jobs
    value.
    """
    mode, seed, flags, selfcheck = item
    run_cls, config_cls = MODES[mode]

    def once() -> RunResult:
        return guarded(lambda: run_cls(seed, make_config(config_cls, **flags)))

    return once(), (once() if selfcheck else None)


#: Each sizing flag's least valid value, in every mode (one a mode ignores
#: included: an out-of-range value is a usage error, not a finding).
_FLAG_FLOORS = {"ops": 1, "keys": 1, "max_faults": 0, "nodes": 2, "shards": 1, "replicas": 2}

#: Each sizing flag and the config field it sets; ``--no-faults`` sets
#: ``faults``.
_FLAG_FIELDS = {
    "ops": "num_ops",
    "keys": "num_keys",
    "max_faults": "max_faults",
    "storm_kind": "kind",
    "nodes": "n_nodes",
    "shards": "shards",
    "replicas": "replicas",
    "no_faults": "faults",
}


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse an out-of-range sizing flag before any seed runs."""
    for dest, least in _FLAG_FLOORS.items():
        value = getattr(args, dest)
        if value is not None and value < least:
            flag = "--" + dest.replace("_", "-")
            raise WorkloadError(f"{flag} must be >= {least}, got {value}")


def _config_flags(parser: argparse.ArgumentParser, args: argparse.Namespace, mode: str) -> dict:
    """The flags given, under the config-field names they go by.

    A flag left at its parser default sets nothing, so each mode keeps its
    own default and ``--seed N`` runs what the mode's ``Run(N)`` runs.  A
    flag given to a mode whose config has no field for it (``--nodes`` to a
    storm) would be dropped without a word, so it is a usage error.
    """
    fields = {f.name for f in dataclasses.fields(MODES[mode][1])}
    flags = {}
    for dest, name in _FLAG_FIELDS.items():
        value = getattr(args, dest)
        if value == parser.get_default(dest):
            continue
        if name not in fields:
            where = "the crash mode" if mode == "dst" else f"--{mode}"
            raise WorkloadError(f"--{dest.replace('_', '-')} does not apply to {where}")
        flags[name] = not value if dest == "no_faults" else value
    if args.replay:
        flags["schedule"] = _replay_schedule(args.replay)
    return flags


def _replay_schedule(path: str) -> FaultSchedule:
    """``--replay``'s schedule.  A bare empty list is refused: it would run
    the seed with every fault dropped and still print PASS.  A run that drew
    no faults saves the explicit empty form (``core.NO_FAULTS_JSON``)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    schedule = FaultSchedule.from_json(text)
    if not schedule.specs and json.loads(text) == []:
        raise FaultConfigError(
            f"{path}: the schedule is an empty list, which runs with no faults; "
            "use --no-faults for a fault-free run"
        )
    return schedule


# -- what each mode supplies: its summary line and its sweep epilogue ----------


def _dst_line(r) -> str:
    crash = "clean" if r.crash_ns < 0 else f"t={r.crash_ns}"
    return (
        f"cut={r.cut}/{r.writes_issued} acked={r.writes_acked} "
        f"crash={crash} faults={r.faults_fired}"
    )


def _storm_line(r) -> str:
    quiesce = "never" if r.quiesce_ns < 0 else f"{r.quiesce_ns}ns"
    return (
        f"kind={r.kind} acked={r.writes_acked}/{r.writes_issued} "
        f"rejected={r.writes_rejected} degraded={r.degraded_entries} "
        f"resumes={r.resume_successes} "
        f"read_only={'y' if r.went_read_only else 'n'} quiesce={quiesce}"
    )


def _cluster_line(r) -> str:
    return (
        f"cut={r.cut}/{r.writes_issued} acked={r.writes_acked} "
        f"failovers={r.failovers} crashes={r.crashes} "
        f"converged={'y' if r.converged else 'n'} log={r.log_digest[:8]}"
        + (" gave_up" if r.gave_up else "")
    )


def _serving_line(r) -> str:
    return (
        f"ops={r.ops} shed={r.shed} errors={r.errors} "
        f"acked={r.writes_acked} failovers={r.failovers} "
        f"leader_faults={r.leader_faults} ryw={r.ryw_violations} "
        f"unresolved={r.unresolved} max_op={r.max_elapsed_us}us "
        f"converged={'y' if r.converged else 'n'} log={r.log_digest[:8]}"
    )


def _storm_epilogue(_mode: str, results: List[RunResult], n_seeds: int) -> int:
    """A storm sweep in which no seed degraded is not storming: fail it."""
    degraded = sum(1 for r in results if r.degraded_entries)
    print(f"storm sweep: {degraded}/{n_seeds} seeds entered degraded mode")
    if degraded == 0:
        print("  FAIL: no seed ever degraded — the storm is not storming")
        return 1
    return 0


def _failover_epilogue(mode: str, results: List[RunResult], n_seeds: int) -> int:
    failovers = sum(r.failovers for r in results)
    print(f"{mode} sweep: {failovers} failover(s) across {n_seeds} seeds")
    return 0


#: mode -> (summary line after the verdict, multi-seed epilogue returning
#: extra failures, or None).
_CLI = {
    "dst": (_dst_line, None),
    "storm": (_storm_line, _storm_epilogue),
    "cluster": (_cluster_line, _failover_epilogue),
    "serving": (_serving_line, _failover_epilogue),
}


def _sweep(parser: argparse.ArgumentParser, args: argparse.Namespace, mode: str) -> int:
    """The one sweep loop; returns the process exit code."""
    seeds = _parse_seeds(args)
    line, epilogue = _CLI[mode]
    _check_flags(args)
    flags = _config_flags(parser, args, mode)
    items = [(mode, seed, flags, args.selfcheck) for seed in seeds]
    failures = 0
    verdicts: List[RunResult] = []  # deterministic runs that returned a verdict
    for seed, (result, again) in zip(seeds, imap_points(_seed_worker, items, jobs=args.jobs)):
        if again is not None and any(
            getattr(again, f, None) != getattr(result, f, None)
            for f in ("events", "verdict", "log_digest")
        ):
            print(f"seed={seed} NONDETERMINISTIC: reruns diverge")
            for a, b in zip(result.events, again.events):
                if a != b:
                    print(f"  first : {a}\n  second: {b}")
                    break
            failures += 1
            continue
        if result.raised:
            print(f"seed={seed} {result.verdict}")
        else:
            verdicts.append(result)
            print(
                f"seed={seed} {result.verdict} {line(result)}"
                + (" deterministic" if args.selfcheck else "")
            )
        if args.log:
            for event in result.events:
                print(f"  {event}")
        if args.save and result.schedule_json:
            with open(args.save, "w", encoding="utf-8") as fh:
                fh.write(result.schedule_json + "\n")
            print(f"  schedule saved to {args.save}")
        if not result.ok:
            failures += 1
            if not result.raised:
                print(f"  reason: {result.reason}")
            print(f"  repro: {_repro_line(parser, args, mode, seed)}")
    if len(seeds) > 1 and epilogue is not None:
        failures += epilogue(mode, verdicts, len(seeds))
    return 1 if failures else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dst",
        description="Deterministic crash-consistency testing of the simulated LSM stack.",
    )
    parser.add_argument("--seed", type=int, default=0, help="single seed to run")
    parser.add_argument(
        "--seeds", metavar="A:B", help="run seeds A..B-1 (overrides --seed)"
    )
    parser.add_argument(
        "--ops", type=int, help="workload operations (default: the mode's own; not --serving)"
    )
    parser.add_argument("--keys", type=int, help="key-space size (default: the mode's own)")
    parser.add_argument(
        "--no-faults", action="store_true", help="clean run: no faults, power cut at end"
    )
    parser.add_argument(
        "--max-faults",
        type=int,
        help="max random fault specs per run, for the crash mode (default 5) and "
        "--cluster (default 4); --storm and --serving draw their own chaos",
    )
    parser.add_argument(
        "--replay", metavar="FILE", help="run a saved fault schedule (JSON) instead of a random one"
    )
    parser.add_argument(
        "--save", metavar="FILE", help="write the run's fault schedule as JSON"
    )
    parser.add_argument(
        "--log", action="store_true", help="print the virtual-time event log"
    )
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run each seed twice; fail unless event logs are byte-identical",
    )
    parser.add_argument(
        "--storm",
        action="store_true",
        help="storm-then-clear mode: degraded-mode entry, auto-resume, liveness",
    )
    parser.add_argument(
        "--storm-kind",
        choices=(STORM_AUTO,) + STORM_KINDS,
        help="storm flavour for --storm: io faults, disk-full squeeze, both, "
        "or per-seed auto (the default)",
    )
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="replicated-cluster mode: WAL shipping, quorum acks, partition/failover",
    )
    parser.add_argument(
        "--nodes", type=int, help="cluster size for --cluster (default 3)"
    )
    parser.add_argument(
        "--serving",
        action="store_true",
        help="serving-chaos mode: replicated shards + tenant fleet + "
        "failover/partition/storms injected mid-traffic",
    )
    parser.add_argument(
        "--shards", type=int, help="shard groups for --serving (default 2)"
    )
    parser.add_argument(
        "--replicas",
        type=int,
        help="replicas per shard group for --serving (default 3)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=default_jobs(),
        metavar="N",
        help="worker processes for seed sweeps (default: $REPRO_JOBS or 1); "
        "output is byte-identical for any value",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    chosen = [m for m in ("storm", "cluster", "serving") if getattr(args, m)]
    if len(chosen) > 1:
        raise WorkloadError("--storm, --cluster and --serving are mutually exclusive")
    return _sweep(parser, args, chosen[0] if chosen else "dst")


if __name__ == "__main__":
    run_cli(main)
