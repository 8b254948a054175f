"""Byte-identity pins: the event logs of every harness, serial and parallel.

Each mode's ``python -m repro.dst [MODE] --seeds 0:8 --log`` output, at
``--jobs 1`` and ``--jobs 4``, is a ``dst-log-*`` gate of
``src/repro/gates.json``; it holds the full event logs of seeds 0-7 at the
default config.  A refactor that moves one changed behaviour, not just
structure; a deliberate model change repins it with ``python -m repro.gates
--repin dst-log-<mode>``.
"""

import pytest

from repro.gates import MANIFEST, check, load

pytestmark = pytest.mark.dst

GATES = {gate["name"]: gate for gate in load(MANIFEST)}


@pytest.mark.parametrize(
    "gate", ["dst-log-crash", "dst-log-storm", "dst-log-cluster", "dst-log-serving"],
    ids=["dst", "storm", "cluster", "serving"],
)
def test_default_config_event_logs_are_pinned(gate):
    assert check([GATES[gate]]) == 0
