"""Write batches: the unit a writer hands to the write queue."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import DBError
from repro.lsm.format import KIND_DELETE, KIND_PUT
from repro.lsm.value import Value, value_size


class WriteBatch:
    """An ordered list of PUT/DELETE operations applied atomically."""

    __slots__ = ("ops", "_value_bytes", "_key_bytes")

    def __init__(self) -> None:
        self.ops: List[Tuple[int, bytes, Optional[Value]]] = []
        self._value_bytes = 0
        self._key_bytes = 0

    def put(self, key: bytes, value: Value) -> "WriteBatch":
        if not isinstance(key, bytes):
            raise DBError(f"keys must be bytes, got {type(key).__name__}")
        self.ops.append((KIND_PUT, key, value))
        self._key_bytes += len(key)
        self._value_bytes += value_size(value)
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        if not isinstance(key, bytes):
            raise DBError(f"keys must be bytes, got {type(key).__name__}")
        self.ops.append((KIND_DELETE, key, None))
        self._key_bytes += len(key)
        return self

    @property
    def data_bytes(self) -> int:
        """Logical payload size (keys + values), used for throttling."""
        return self._key_bytes + self._value_bytes
