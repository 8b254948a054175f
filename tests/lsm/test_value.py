"""Tests for value representations and the record format helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DBError
from repro.lsm.format import (
    KIND_DELETE,
    KIND_PUT,
    entry_charge,
    entry_file_bytes,
    entry_value_size,
    wal_record_bytes,
)
from repro.lsm.value import ValueRef, materialize, value_size


class TestValueRef:
    def test_materialize_size_and_determinism(self):
        ref = ValueRef(seed=7, size=1000)
        data = ref.materialize()
        assert len(data) == 1000
        assert data == ValueRef(seed=7, size=1000).materialize()

    def test_different_seeds_differ(self):
        assert ValueRef(1, 64).materialize() != ValueRef(2, 64).materialize()

    def test_zero_size(self):
        assert ValueRef(1, 0).materialize() == b""

    def test_equal_refs_hash_equal(self):
        # A frozen (seed, size) value: usable as a set member or a dict key.
        assert {ValueRef(1, 8), ValueRef(1, 8), ValueRef(2, 8)} == {ValueRef(2, 8), ValueRef(1, 8)}

    def test_negative_size_rejected(self):
        with pytest.raises(DBError):
            ValueRef(1, -1)

    @given(size=st.integers(min_value=0, max_value=5000))
    def test_materialized_length_matches(self, size):
        assert len(ValueRef(3, size).materialize()) == size


class TestValueHelpers:
    def test_value_size_bytes(self):
        assert value_size(b"hello") == 5
        assert value_size(bytearray(b"abc")) == 3

    def test_value_size_ref(self):
        assert value_size(ValueRef(0, 1024)) == 1024

    def test_value_size_invalid(self):
        with pytest.raises(DBError):
            value_size(42)

    def test_materialize_bytes_passthrough(self):
        assert materialize(b"x") == b"x"

    def test_materialize_invalid(self):
        with pytest.raises(DBError):
            materialize(3.14)


class TestFormat:
    def test_entry_value_size(self):
        assert entry_value_size((1, KIND_PUT, b"abc")) == 3
        assert entry_value_size((1, KIND_PUT, ValueRef(0, 77))) == 77
        assert entry_value_size((1, KIND_DELETE, None)) == 0

    def test_entry_file_bytes(self):
        assert entry_file_bytes(b"key", (1, KIND_PUT, b"abcd")) == 3 + 4 + 8
        assert entry_file_bytes(b"key", (1, KIND_DELETE, None)) == 3 + 8
        assert entry_file_bytes(b"key", (1, KIND_PUT, ValueRef(0, 100))) == 3 + 100 + 8

    def test_entry_charge_includes_overhead(self):
        entry = (1, KIND_PUT, ValueRef(0, 100))
        assert entry_charge(b"0123", entry, overhead=64) == 4 + 100 + 64

    def test_wal_record_bytes(self):
        entry = (1, KIND_PUT, b"abc")
        assert wal_record_bytes(b"key", entry, record_overhead=12) == 3 + 3 + 12
