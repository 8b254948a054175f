"""Tests for the deterministic parallel sweep runner (``repro.jobs``).

The contract under test: any ``jobs`` value returns results in point order,
bit-identical to the serial loop, and worker failures surface in the parent.
The workers here are module-level (the multiprocessing pickling contract).
"""

import pytest

from repro.errors import SimulationError
from repro.jobs import default_jobs, imap_points, map_points


def square(x):
    return x * x


def boom(x):
    if x == 3:
        raise ValueError(f"bad point {x}")
    return x


def simulate_point(point):
    """A tiny real simulation per point: results must not depend on jobs."""
    from repro.sim.engine import Engine
    from repro.sim.rng import RandomStream

    seed, n = point
    engine = Engine()
    rng = RandomStream(seed)
    out = []

    def proc():
        for _ in range(n):
            yield rng.randint(1, 9)
            out.append(engine.now)

    engine.process(proc(), name="p")
    engine.run()
    return out


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_map_points_order_and_values(jobs):
    points = list(range(20))
    assert map_points(square, points, jobs=jobs) == [p * p for p in points]


@pytest.mark.parametrize("jobs", [1, 3])
def test_imap_points_streams_in_order(jobs):
    points = list(range(12))
    seen = list(imap_points(square, points, jobs=jobs))
    assert seen == [p * p for p in points]


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_points_is_the_collected_imap(jobs):
    points = [(seed, 20) for seed in range(4)]
    assert map_points(simulate_point, points, jobs=jobs) == list(
        imap_points(simulate_point, points, jobs=jobs)
    )


def test_parallel_matches_serial_on_simulations():
    points = [(seed, 50 + seed) for seed in range(6)]
    serial = map_points(simulate_point, points, jobs=1)
    parallel = map_points(simulate_point, points, jobs=3)
    assert parallel == serial


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exception_propagates(jobs):
    with pytest.raises(ValueError, match="bad point 3"):
        map_points(boom, list(range(6)), jobs=jobs)


def test_single_point_never_forks():
    # len(points) <= 1 must take the in-process path even with jobs > 1
    # (closures are fine there; a pool would fail to pickle this lambda).
    assert map_points(lambda x: x + 1, [41], jobs=8) == [42]
    assert list(imap_points(lambda x: x + 1, [41], jobs=8)) == [42]


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert default_jobs() == 6
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert default_jobs() == 1


def test_harness_run_points_parallel_matches_serial():
    """End-to-end: a real figure sweep point through the worker boundary."""
    from repro.harness import experiments as ex
    from repro.harness.presets import preset_by_name
    from repro.sim.units import seconds

    preset = preset_by_name("tiny")
    points = [
        ex.WorkloadPoint(
            device=device,
            preset=preset,
            write_fraction=1.0,
            duration_ns=int(seconds(0.05)),
            seed=5,
        )
        for device in ("sata-flash", "xpoint")
    ]
    ex.clear_memo()  # both sweeps must run, not recall each other
    serial = ex.run_points(points, jobs=1)
    ex.clear_memo()
    parallel = ex.run_points(points, jobs=2)
    assert len(serial) == len(parallel) == 2
    for s, p in zip(serial, parallel):
        assert p.result.ops == s.result.ops
        assert p.result.summary() == s.result.summary()
        assert p.max_waiting == s.max_waiting


def test_unknown_controller_name_fails_fast():
    from repro.harness import experiments as ex
    from repro.harness.presets import preset_by_name

    point = ex.WorkloadPoint(
        device="sata-flash",
        preset=preset_by_name("tiny"),
        write_fraction=1.0,
        duration_ns=1000,
        controller="definitely-not-registered",
    )
    with pytest.raises((KeyError, SimulationError)):
        point.run()
