"""Line coverage of the function bodies under ``src/repro``, stdlib only.

Runs tier-1 in-process (``pytest`` over ``tests/``, with a plugin that
installs the tracer before every test) and then the four 20-seed DST
sweeps in-process (``python -m repro.dst --seeds 0:20`` in the crash,
``--storm``, ``--cluster`` and ``--serving`` modes).  It prints, per file,
the function-body lines that never ran and the functions never entered,
then the totals.

* Only function bodies count.  Module and class bodies run at import, and
  much of that happens before the tracer starts.  A comprehension's or a
  lambda's lines count toward the function around it.
* The tracer is re-installed before each test, because some tests
  (``test_call_budget``, ``test_merge_paths``) install their own.
* Work done in other processes is not traced: ``--jobs`` pool workers and
  any subprocess a test starts.  Code reached only there reads as never
  run.

It takes about 18 minutes on 2 cores.  Run it from anywhere, with no
flags::

    python tests/tools/line_coverage.py
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import types
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
DST_SWEEPS = ([], ["--storm"], ["--cluster"], ["--serving"])
_INLINE = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>", "<lambda>"}

#: (file, first line, qualified name): one function, in a compiled file and
#: in a traced frame alike.
Key = Tuple[str, int, str]


def _key(code: types.CodeType) -> Key:
    return code.co_filename, code.co_firstlineno, code.co_qualname


def function_lines(path: Path) -> Dict[Key, Set[int]]:
    """The body lines of every function defined in ``path``."""
    functions: Dict[Key, Set[int]] = {}

    def lines(code: types.CodeType) -> Set[int]:
        return {line for _start, _end, line in code.co_lines() if line is not None}

    def walk(code: types.CodeType, owner) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if not const.co_flags & inspect.CO_OPTIMIZED:  # a class body
                walk(const, None)
            elif const.co_name in _INLINE and owner is not None:
                functions[owner] |= lines(const)
                walk(const, owner)
            elif const.co_name in _INLINE and const.co_name != "<lambda>":
                continue  # a module- or class-level comprehension: import time
            else:
                body = lines(const) - {const.co_firstlineno}
                functions[_key(const)] = body or {const.co_firstlineno}
                walk(const, _key(const))

    walk(compile(path.read_text(), str(path), "exec"), None)
    return functions


class Tracer:
    """A ``sys.settrace`` function recording line events in ``files``."""

    def __init__(self, files: List[str]) -> None:
        self.ran: Dict[str, Set[int]] = {f: set() for f in files}
        self.entered: Set[types.CodeType] = set()
        self._local = {f: self._recorder(self.ran[f].add) for f in files}

    @staticmethod
    def _recorder(add):
        def local(frame, event, _arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def __call__(self, frame, _event, _arg):
        code = frame.f_code
        local = self._local.get(code.co_filename)
        if local is not None:
            self.entered.add(code)
        return local


class _Plugin:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def pytest_runtest_setup(self, item) -> None:
        sys.settrace(self.tracer)

    def pytest_runtest_call(self, item) -> None:
        sys.settrace(self.tracer)


def _ranges(missed: List[int], body: List[int]) -> str:
    """``missed`` as ranges; body lines between them that are not code
    (blank, comment) do not split a range."""
    index = {line: i for i, line in enumerate(body)}
    runs: List[List[int]] = []
    for line in missed:
        if runs and index[line] == index[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(
        str(run[0]) if len(run) == 1 else f"{run[0]}-{run[-1]}" for run in runs
    )


def report(tracer: Tracer, functions: Dict[Key, Set[int]]) -> Tuple[int, int, int, int]:
    """Print per-file findings; return (lines, missed, functions, never entered)."""
    entered = {_key(code) for code in tracer.entered}
    by_file: Dict[str, List[Key]] = {}
    for key in functions:
        by_file.setdefault(key[0], []).append(key)
    totals = [0, 0, 0, 0]
    for path in sorted(by_file):
        keys = sorted(by_file[path], key=lambda k: k[1])
        body = sorted(set().union(*(functions[k] for k in keys)))
        missed = [line for line in body if line not in tracer.ran[path]]
        never = [k for k in keys if k not in entered]
        totals[0] += len(body)
        totals[1] += len(missed)
        totals[2] += len(keys)
        totals[3] += len(never)
        if not missed and not never:
            continue
        print(f"{Path(path).relative_to(ROOT)}: {len(missed)} of {len(body)} lines never ran")
        if missed:
            print(f"    lines: {_ranges(missed, body)}")
        for _file, line, name in never:
            print(f"    never entered: {name} (line {line})")
    return tuple(totals)


def main() -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    files = sorted(SRC.rglob("*.py"))
    functions: Dict[Key, Set[int]] = {}
    for path in files:
        functions.update(function_lines(path))
    tracer = Tracer([str(path) for path in files])

    import pytest

    sys.settrace(tracer)
    status = pytest.main(
        ["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests")],
        plugins=[_Plugin(tracer)],
    )
    statuses = [f"tier-1 pytest exit {int(status)}"]
    from repro.dst.__main__ import main as dst_main

    for mode in DST_SWEEPS:
        with contextlib.redirect_stdout(io.StringIO()):
            sys.settrace(tracer)
            code = dst_main([*mode, "--seeds", "0:20", "--jobs", "1"])
        statuses.append(f"dst {' '.join(mode) or '(crash)'} exit {code}")
    sys.settrace(None)

    print()
    lines, missed, count, never = report(tracer, functions)
    print()
    print("; ".join(statuses))
    print(
        f"function-body lines: {lines}; never ran: {missed} "
        f"({100 * missed / max(1, lines):.1f} %); "
        f"functions never entered: {never} of {count}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
