"""Tests for named deterministic random streams."""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rng import RandomStream


def test_same_seed_same_stream():
    a = RandomStream(7, "x")
    b = RandomStream(7, "x")
    assert [a.randint(0, 1000) for _ in range(20)] == [
        b.randint(0, 1000) for _ in range(20)
    ]


def test_different_names_decorrelate():
    a = RandomStream(7, "x")
    b = RandomStream(7, "y")
    assert [a.randint(0, 10**9) for _ in range(10)] != [
        b.randint(0, 10**9) for _ in range(10)
    ]


def test_fork_is_deterministic():
    a = RandomStream(7).fork("child")
    b = RandomStream(7).fork("child")
    assert a.random() == b.random()


def test_fork_name_nesting():
    root = RandomStream(1, "root")
    assert root.fork("a").name == "root/a"
    assert root.fork("a").fork("b").name == "root/a/b"


def test_fork_does_not_perturb_parent():
    a = RandomStream(7, "p")
    b = RandomStream(7, "p")
    a.fork("child")  # forking must not consume parent state
    assert a.random() == b.random()


def test_chance_extremes():
    rng = RandomStream(1)
    assert not rng.chance(0.0)
    assert rng.chance(1.0)
    assert not rng.chance(-0.5)
    assert rng.chance(1.5)


@given(p=st.floats(min_value=0.05, max_value=0.95))
def test_chance_frequency(p):
    rng = RandomStream(123, f"freq-{p}")
    hits = sum(rng.chance(p) for _ in range(2000))
    assert abs(hits / 2000 - p) < 0.08


@given(lo=st.integers(0, 100), span=st.integers(0, 100))
def test_randint_bounds(lo, span):
    rng = RandomStream(5, "bounds")
    for _ in range(50):
        v = rng.randint(lo, lo + span)
        assert lo <= v <= lo + span


def test_jittered_zero_jitter_identity():
    rng = RandomStream(1)
    assert rng.jittered(100.0, 0.0) == 100.0


@given(jitter=st.floats(min_value=0.01, max_value=0.5))
def test_jittered_bounds(jitter):
    rng = RandomStream(9, "jit")
    for _ in range(100):
        v = rng.jittered(1000.0, jitter)
        assert 1000.0 * (1 - jitter) <= v <= 1000.0 * (1 + jitter)


def test_shuffle_and_choice_deterministic():
    a = RandomStream(4, "s")
    b = RandomStream(4, "s")
    items_a = list(range(10))
    items_b = list(range(10))
    a.shuffle(items_a)
    b.shuffle(items_b)
    assert items_a == items_b
    assert a.choice("abcdef") == b.choice("abcdef")
