"""Property tests for the schedule mutators.

Whatever chain of operators a seed drives, a mutated schedule must stay
(a) schema-valid — every spec rebuilds through ``FaultSpec.__post_init__``;
(b) inside the context bounds — no trigger past the horizon, windowed
contexts keep triggers in-window, storm contexts stay transient;
(c) JSON round-trippable byte-for-byte; and (d) replayable — the same
seed produces the same mutation chain.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    DEVICE_KINDS,
    FS_KINDS,
    READ_ERROR,
    WRITE_ERROR,
    FaultSchedule,
)
from repro.faults.mutate import (
    CLUSTER_MUTATION_KINDS,
    DST_MUTATION_KINDS,
    MAX_SPECS,
    STORM_MUTATION_KINDS,
    MutationContext,
    clamp_schedule,
    draw_spec,
    mutate_schedule,
)
from repro.fuzz.corpus import bootstrap_genomes
from repro.fuzz.genome import MODE_CLUSTER, MODE_DST, MODE_STORM, Genome
from repro.fuzz.mutators import mutate_genome
from repro.sim.rng import RandomStream
from repro.sim.units import ms, us

pytestmark = pytest.mark.fuzz

HORIZON = ms(30)

CONTEXTS = {
    "dst": MutationContext(horizon_ns=HORIZON, kinds=DST_MUTATION_KINDS),
    "storm": MutationContext(
        horizon_ns=HORIZON,
        kinds=STORM_MUTATION_KINDS,
        window=(HORIZON // 4, HORIZON // 2),
        transient_only=True,
    ),
    "cluster": MutationContext(
        horizon_ns=HORIZON, kinds=CLUSTER_MUTATION_KINDS, n_nodes=3
    ),
}


def _check_bounds(schedule: FaultSchedule, ctx: MutationContext) -> None:
    assert len(schedule) <= MAX_SPECS + 1  # duplicate/add respect the cap
    for spec in schedule.specs:
        if spec.at_time is not None:
            assert ctx.trigger_lo <= spec.at_time <= ctx.trigger_hi
        elif ctx.window is not None:
            pytest.fail(f"windowed context left a time-less spec: {spec}")
        if spec.until_time is not None:
            assert spec.until_time <= ctx.until_hi
        if ctx.transient_only and spec.kind in (READ_ERROR, WRITE_ERROR):
            assert spec.transient
        if ctx.n_nodes >= 2:
            if spec.node is not None:
                assert 0 <= spec.node < ctx.n_nodes
            if spec.nodes is not None:
                assert all(0 <= n < ctx.n_nodes for n in spec.nodes)
                assert len(spec.nodes) < ctx.n_nodes
        assert spec.kind in ctx.kinds or spec.kind in (DEVICE_KINDS | FS_KINDS)


@pytest.mark.parametrize("ctx_name", sorted(CONTEXTS))
@pytest.mark.parametrize("seed", range(8))
class TestMutationChains:
    def test_chains_stay_valid_and_bounded(self, ctx_name, seed):
        ctx = CONTEXTS[ctx_name]
        rng = RandomStream(seed, f"mutchain/{ctx_name}")
        schedule = FaultSchedule()
        for step in range(25):
            schedule = mutate_schedule(schedule, rng.fork(f"step/{step}"), ctx)
            _check_bounds(schedule, ctx)
            # Byte-for-byte JSON round trip at every step.
            again = FaultSchedule.from_json(schedule.to_json())
            assert again.specs == schedule.specs
            assert again.to_json() == schedule.to_json()

    def test_chains_replay_from_the_seed(self, ctx_name, seed):
        ctx = CONTEXTS[ctx_name]

        def chain():
            rng = RandomStream(seed, f"mutreplay/{ctx_name}")
            schedule = FaultSchedule()
            for step in range(10):
                schedule = mutate_schedule(schedule, rng.fork(f"step/{step}"), ctx)
            return schedule.to_json()

        assert chain() == chain()


class TestDrawAndClamp:
    @pytest.mark.parametrize("ctx_name", sorted(CONTEXTS))
    def test_drawn_specs_clamp_to_themselves(self, ctx_name):
        ctx = CONTEXTS[ctx_name]
        rng = RandomStream(11, f"draw/{ctx_name}")
        for i in range(50):
            spec = draw_spec(rng.fork(f"spec/{i}"), ctx)
            if spec is None:
                continue
            schedule = clamp_schedule(FaultSchedule([spec]), ctx)
            _check_bounds(schedule, ctx)

    def test_clamp_folds_out_of_range_triggers(self):
        # Specs drawn against a 100x horizon land far outside the storm
        # context's window; clamping must fold every one of them back in.
        ctx = CONTEXTS["storm"]
        rng = RandomStream(5, "clampfold")
        wild = MutationContext(horizon_ns=HORIZON * 100, kinds=STORM_MUTATION_KINDS)
        schedule = FaultSchedule(
            [s for s in (draw_spec(rng.fork(str(i)), wild) for i in range(10)) if s]
        )
        assert any(s.at_time > ctx.trigger_hi for s in schedule.specs)
        _check_bounds(clamp_schedule(schedule, ctx), ctx)


class TestGenomeMutation:
    @pytest.mark.parametrize("mode", [MODE_DST, MODE_STORM, MODE_CLUSTER])
    def test_mutated_genomes_stay_valid(self, mode):
        genome = next(iter(bootstrap_genomes([mode])))
        rng = RandomStream(17, f"genmut/{mode}")
        for step in range(30):
            genome = mutate_genome(genome, rng.fork(f"step/{step}"))
            # Construction re-validates; a bad mutant would raise here.
            assert Genome.from_json(genome.to_json()) == genome
            _check_bounds(genome.schedule, genome.mutation_context())

    def test_genome_mutation_is_seed_deterministic(self):
        genome = next(iter(bootstrap_genomes([MODE_DST])))
        a = mutate_genome(genome, RandomStream(9, "gen"))
        b = mutate_genome(genome, RandomStream(9, "gen"))
        assert a == b and a.to_json() == b.to_json()
