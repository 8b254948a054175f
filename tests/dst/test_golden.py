"""Byte-identity pins: the event log of seeds 0-3 of every harness.

The values were taken at the commit *before* the four harnesses moved
onto :mod:`repro.dst.core`; a refactor that moves one of them changed
behaviour, not just structure.  A deliberate model change re-pins them.
"""

import hashlib

import pytest

from repro.dst import MODES

pytestmark = pytest.mark.dst

#: mode -> first 8 hex digits of md5("\n".join(events)) for seeds 0, 1, 2, 3
#: at the default config (stable under any PYTHONHASHSEED).
GOLDEN = {
    "dst": ("dc35c4cb", "adebdd42", "170f6b50", "42b7fb30"),
    "storm": ("a76d3b0f", "96f5e81a", "a9736bf4", "6c979479"),
    "cluster": ("12769c7b", "ee84b63f", "a4838e5c", "674b51a0"),
    "serving": ("81692468", "2ba26a6b", "38d48d25", "ecdec95a"),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_default_config_event_logs_are_pinned(mode):
    run_cls, _config_cls = MODES[mode]
    digests = tuple(
        hashlib.md5("\n".join(run_cls(seed).run().events).encode()).hexdigest()[:8]
        for seed in range(4)
    )
    assert digests == GOLDEN[mode]
