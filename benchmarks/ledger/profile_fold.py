"""Fold a cProfile run into the ledger's layers.

A frame belongs to the ``repro`` package its file sits in
(``.../repro/lsm/db.py`` -> layer ``lsm``, module ``lsm.db``); C functions
(``~`` in cProfile's table) are ``builtin``; the standard library, numpy, the
benchmark's own frames and the ``repro`` packages the ledger does not name fold
into ``other``.  Self-time shares are host numbers; call counts are exact.
"""

from __future__ import annotations

from typing import Dict, Tuple

from metrics import LAYERS, MODULES

_PACKAGES = frozenset(LAYERS) - {"builtin", "other"}
_MARK = "/repro/"


def layer_of(filename: str) -> Tuple[str, str]:
    """(layer, "package.module") of one profiled frame's file."""
    if filename == "~":
        return "builtin", ""
    at = filename.rfind(_MARK)
    if at < 0:
        return "other", ""
    package, _, rest = filename[at + len(_MARK):].partition("/")
    if package not in _PACKAGES or not rest:
        return "other", ""
    return package, f"{package}.{rest.rsplit('.', 1)[0].replace('/', '.')}"


def fold(stats: Dict[tuple, tuple], ops: int) -> Dict[str, float]:
    """Per-layer ``self_share`` / ``calls_per_op`` from ``cProfile`` stats."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    module_s = dict.fromkeys(MODULES, 0.0)
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        layer, module = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        if module in module_s:
            module_s[module] += tottime
    total_s = sum(self_s.values()) or 1.0
    ops = max(1, ops)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_s[layer] / total_s
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
    out["py.calls_per_op"] = sum(calls.values()) / ops
    for module in MODULES:
        out[f"{module}.self_share"] = module_s[module] / total_s
    return out
