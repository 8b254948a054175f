"""Tests for the skiplist memtable representation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.lsm.skiplist import MAX_HEIGHT, SkipList
from repro.sim.rng import RandomStream


def make_list(seed=1):
    return SkipList(RandomStream(seed, "sl"))


def test_empty():
    sl = make_list()
    assert len(sl) == 0
    assert sl.get(b"a") is None
    assert b"a" not in sl
    assert list(sl) == []


def test_insert_and_get():
    sl = make_list()
    assert sl.insert(b"k1", 1)
    assert sl.get(b"k1") == 1
    assert b"k1" in sl
    assert len(sl) == 1


def test_replace_keeps_count():
    sl = make_list()
    assert sl.insert(b"k", "old")
    assert not sl.insert(b"k", "new")
    assert sl.get(b"k") == "new"
    assert len(sl) == 1


def test_iteration_sorted():
    sl = make_list()
    for k in (b"m", b"a", b"z", b"c"):
        sl.insert(k, k)
    assert [k for k, _ in sl] == [b"a", b"c", b"m", b"z"]


def test_get_absent_between_keys():
    sl = make_list()
    sl.insert(b"a", 1)
    sl.insert(b"c", 3)
    assert sl.get(b"b") is None


@given(
    keys=st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=300),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_matches_dict_model(keys, seed):
    """Skiplist behaves exactly like a dict + sorted() reference."""
    sl = SkipList(RandomStream(seed, "prop"))
    model = {}
    for i, key in enumerate(keys):
        sl.insert(key, i)
        model[key] = i
    assert len(sl) == len(model)
    assert [k for k, _ in sl] == sorted(model)
    for key, value in model.items():
        assert sl.get(key) == value
    assert sl.get(b"\xff" * 20) is None


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_height_distribution_bounded(seed):
    sl = SkipList(RandomStream(seed, "h"))
    for i in range(200):
        sl.insert(b"%05d" % i, i)
    assert 1 <= sl._height <= MAX_HEIGHT


def test_large_sorted_insert_order_preserved():
    sl = make_list()
    for i in range(2000):
        sl.insert(b"%08d" % i, i)
    assert len(sl) == 2000
    items = list(sl)
    assert items[0][0] == b"%08d" % 0
    assert items[-1][0] == b"%08d" % 1999
    # spot-check ordering invariant
    keys = [k for k, _ in items]
    assert keys == sorted(keys)


def test_reverse_insert_order():
    sl = make_list()
    for i in reversed(range(500)):
        sl.insert(b"%05d" % i, i)
    keys = [k for k, _ in sl]
    assert keys == sorted(keys)
    assert sl.get(b"%05d" % 250) == 250
