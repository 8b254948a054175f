"""Tests for the bloom filter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DBError
from repro.lsm.bloom import BloomFilter


def test_no_false_negatives_basic():
    keys = [b"%04d" % i for i in range(100)]
    bloom = BloomFilter(keys, bits_per_key=10)
    assert all(bloom.may_contain(k) for k in keys)


def test_rejects_nonpositive_bits():
    with pytest.raises(DBError):
        BloomFilter([b"a"], bits_per_key=0)


def test_false_positive_rate_reasonable():
    keys = [b"in-%06d" % i for i in range(2000)]
    bloom = BloomFilter(keys, bits_per_key=10)
    probes = [b"out-%06d" % i for i in range(2000)]
    fp = sum(bloom.may_contain(p) for p in probes)
    # Theoretical ~1% at 10 bits/key; allow generous slack.
    assert fp / len(probes) < 0.05


def test_more_bits_fewer_false_positives():
    keys = [b"in-%06d" % i for i in range(1000)]
    probes = [b"out-%06d" % i for i in range(3000)]

    def fp_rate(bits):
        bloom = BloomFilter(keys, bits_per_key=bits)
        return sum(bloom.may_contain(p) for p in probes) / len(probes)

    assert fp_rate(16) <= fp_rate(4)


def test_empty_filter_rejects_everything_possible():
    bloom = BloomFilter([], bits_per_key=10)
    # With no keys set, any probe may be rejected (no false negatives apply).
    assert bloom.key_count == 0


def test_probe_count_clamped():
    assert BloomFilter([b"a"], bits_per_key=1).k >= 1
    assert BloomFilter([b"a"], bits_per_key=100).k <= 30


def test_approximate_bytes():
    bloom = BloomFilter([b"%d" % i for i in range(1000)], bits_per_key=8)
    assert bloom.approximate_bytes == pytest.approx(1000, rel=0.2)


@given(
    keys=st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=300),
    bits=st.integers(min_value=4, max_value=20),
)
def test_never_false_negative(keys, bits):
    """Property: every inserted key passes may_contain."""
    bloom = BloomFilter(keys, bits_per_key=bits)
    for key in keys:
        assert bloom.may_contain(key)


def test_deterministic():
    keys = [b"k%d" % i for i in range(50)]
    a = BloomFilter(keys, 10)
    b = BloomFilter(keys, 10)
    assert a._bits == b._bits


class _BigIntBloom:
    """The filter as it was first written — every bit in one Python int —
    kept as the reference the byte-array filter must answer exactly like."""

    def __init__(self, keys, bits_per_key):
        from repro.lsm.bloom import _hash_pair

        self._hash_pair = _hash_pair
        self.k = max(1, min(30, int(bits_per_key * 0.69)))
        self.nbits = max(64, len(keys) * bits_per_key)
        self.bits = 0
        for key in keys:
            h1, h2 = _hash_pair(key)
            for i in range(self.k):
                self.bits |= 1 << ((h1 + i * h2) % self.nbits)

    def may_contain(self, key):
        h1, h2 = self._hash_pair(key)
        return all((self.bits >> ((h1 + i * h2) % self.nbits)) & 1 for i in range(self.k))


@given(
    keys=st.lists(st.binary(min_size=0, max_size=12), max_size=200, unique=True),
    probes=st.lists(st.binary(min_size=0, max_size=12), max_size=60),
    bits_per_key=st.integers(min_value=1, max_value=24),
)
def test_byte_array_filter_answers_like_the_big_int_filter(keys, probes, bits_per_key):
    bloom = BloomFilter(keys, bits_per_key)
    reference = _BigIntBloom(keys, bits_per_key)
    assert (bloom.k, bloom.nbits, bloom.approximate_bytes) == (
        reference.k, reference.nbits, reference.nbits // 8
    )
    assert int.from_bytes(bloom._bits, "little") == reference.bits
    for key in keys + probes:
        assert bloom.may_contain(key) == reference.may_contain(key)
