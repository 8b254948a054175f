"""The virtual clock has one writer.

``Engine.now`` is a plain attribute, so reading the clock costs no call; in
exchange nothing at run time stops code from assigning it.  This check
does, statically: no module under ``src/repro`` other than ``sim/engine.py``
(whose ``run()`` advances the clock) may store or delete an attribute named
``now`` — by assignment, augmented or annotated assignment, unpacking, a
``for``/``with`` target, ``del`` — or ``setattr`` one by that name.

Run it directly to list the findings::

    PYTHONPATH=src python tests/tools/test_clock_writer.py
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
WRITER = SRC / "sim" / "engine.py"


def clock_writes(source: str, filename: str = "<source>") -> List[int]:
    """Line numbers at which ``source`` writes an attribute named ``now``."""
    lines = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute):
            if node.attr == "now" and isinstance(node.ctx, (ast.Store, ast.Del)):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("setattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "now"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def foreign_clock_writes() -> List[str]:
    """``path:line`` of every clock write outside the engine."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path == WRITER:
            continue
        for line in clock_writes(path.read_text(encoding="utf-8"), str(path)):
            found.append(f"{path.relative_to(ROOT)}:{line}")
    return found


def test_only_the_engine_writes_the_clock():
    assert foreign_clock_writes() == []


def test_the_engine_is_seen_writing_the_clock():
    """The check recognises the writes it allows: run() advancing ``now``."""
    assert clock_writes(WRITER.read_text(encoding="utf-8"))


def test_a_planted_write_is_found():
    planted = (
        "def skew(engine, clocks):\n"
        "    engine.now = 5\n"
        "    engine.now += 1\n"
        "    first, clocks[0].now = 1, 2\n"
        "    setattr(engine, 'now', 3)\n"
        "    del engine.now\n"
        "    return engine.now - clocks[0].now\n"
    )
    assert clock_writes(planted) == [2, 3, 4, 5, 6]


if __name__ == "__main__":
    print("\n".join(foreign_clock_writes()) or "clock writes outside the engine: none")
