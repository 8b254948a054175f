"""Crasher minimization (ddmin-lite over the genome).

A raw crasher usually carries specs that have nothing to do with the
failure.  Minimization greedily (a) drops schedule specs and (b) halves
the op count, keeping each candidate only if it still fails with the
*same normalised failure class* — so the persisted corpus artifact is
the smallest scenario that tells the same story.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

from repro.faults import FaultSchedule
from repro.faults.mutate import clamp_schedule
from repro.fuzz.executor import Outcome, execute
from repro.fuzz.genome import OPS_BOUNDS, Genome


def minimize(
    genome: Genome, outcome: Outcome, max_executions: int = 64
) -> Tuple[Genome, int]:
    """Shrink a failing genome; returns (minimized, executions spent).

    ``outcome`` must be the failing outcome of ``genome``.  The result
    is guaranteed to still fail with the same signature (candidates that
    pass or fail differently are discarded).
    """
    if outcome.ok:
        raise ValueError("minimize() wants a failing genome")
    target = outcome.signature
    current = genome
    spent = 0

    def still_fails(candidate: Genome) -> bool:
        nonlocal spent
        if spent >= max_executions:
            return False
        spent += 1
        out = execute(candidate)
        return (not out.ok) and out.signature == target

    # Pass 1: drop specs one at a time, back to front, to a fixpoint.
    changed = True
    while changed and spent < max_executions:
        changed = False
        for i in reversed(range(len(current.schedule.specs))):
            specs = list(current.schedule.specs)
            del specs[i]
            candidate = current.with_schedule(FaultSchedule(specs))
            if still_fails(candidate):
                current = candidate
                changed = True

    # Pass 2: halve the op count while the failure survives.
    lo = OPS_BOUNDS[current.mode][0]
    while current.num_ops > lo and spent < max_executions:
        ops = max(lo, current.num_ops // 2)
        if ops == current.num_ops:
            break
        candidate = replace(current, num_ops=ops)
        candidate = candidate.with_schedule(
            clamp_schedule(candidate.schedule, candidate.mutation_context())
        )
        if still_fails(candidate):
            current = candidate
        else:
            break

    return current, spent


__all__ = ["minimize"]
