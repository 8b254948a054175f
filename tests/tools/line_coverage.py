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
* Child processes are traced too.  A ``python`` a test starts finds a
  ``sitecustomize.py`` first on its ``PYTHONPATH`` (also when the test
  passes its own ``env``), which installs the same tracer.  A forked
  child (a ``--jobs`` pool worker) keeps the tracer it inherits.  Every
  traced process appends each line and function the first time it runs
  it to one shared log, which the run reads at the end: a child killed
  by its pool's terminate has lost nothing.
* It is a gate: it exits 1 when a function that was never entered has no
  row in docs/API.md's "Never run, kept because" table.  A row names
  files under ``src/repro`` and the functions it keeps there, by qualified
  name as this tool prints them (``<lambda>`` for a lambda).

It takes about 11 minutes on 2 cores.  Run it from anywhere, with no
flags::

    python tests/tools/line_coverage.py
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
API = ROOT / "docs" / "API.md"
KEPT_HEADING = "## Never run, kept because"
DST_SWEEPS = ([], ["--storm"], ["--cluster"], ["--serving"])
_INLINE = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>", "<lambda>"}
_SITECUSTOMIZE = """import importlib.util
spec = importlib.util.spec_from_file_location("_line_coverage", {tool!r})
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
tool.trace_child({log!r})
"""

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


def kept_rows(api: Path = API) -> List[Tuple[List[str], List[str], str]]:
    """The "Never run, kept because" table: per row, the files under
    ``src/repro`` and the qualified names it keeps (each name in whichever
    of the files defines it), and the reason given."""
    text = api.read_text()
    section = text.split(KEPT_HEADING, 1)[1].split("\n## ", 1)[0] if KEPT_HEADING in text else ""
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            files, names = (re.findall(r"`([^`]+)`", cell) for cell in cells[:2])
            rows.append((files, names, cells[2]))
    return rows


class Tracer:
    """A ``sys.settrace`` function recording line events in ``files``.

    The first time this process runs a line, or enters a function, it also
    appends it to the ``log`` file that every traced process shares (this
    one, each started child and each fork).  So a child's record is whole
    however the child ends: nothing is left to write at exit.
    """

    def __init__(self, files: List[str], log: str) -> None:
        self.entered: Set[types.CodeType] = set()
        self._fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        self._index = {f: i for i, f in enumerate(files)}
        self._local = {f: self._recorder(i) for i, f in enumerate(files)}

    def _recorder(self, index: int):
        seen: Set[int] = set()
        fd, write = self._fd, os.write

        def local(frame, event, _arg):
            if event == "line" and frame.f_lineno not in seen:
                seen.add(frame.f_lineno)
                write(fd, b"L %d %d\n" % (index, frame.f_lineno))
            return local

        return local

    def __call__(self, frame, _event, _arg):
        code = frame.f_code
        local = self._local.get(code.co_filename)
        if local is not None and code not in self.entered:
            self.entered.add(code)
            index = self._index[code.co_filename]
            os.write(self._fd, f"E {index} {code.co_firstlineno} {code.co_qualname}\n".encode())
        return local


def read_log(log: str, files: List[str]) -> Tuple[Dict[str, Set[int]], Set[Key]]:
    """What every traced process ran: the lines per file, and the functions
    entered.  A line cut short by a killed process is skipped."""
    ran: Dict[str, Set[int]] = {f: set() for f in files}
    entered: Set[Key] = set()
    with open(log) as f:
        for record in f:
            fields = record.split()
            if len(fields) == 3 and fields[0] == "L":
                ran[files[int(fields[1])]].add(int(fields[2]))
            elif len(fields) == 4 and fields[0] == "E":
                entered.add((files[int(fields[1])], int(fields[2]), fields[3]))
    return ran, entered


def _first_on_path(site: str, path) -> str:
    parts = [part for part in (path or "").split(os.pathsep) if part and part != site]
    return os.pathsep.join([site, *parts])


def follow_children(site: str) -> None:
    """Put ``site`` (which holds ``sitecustomize.py``) first on the
    ``PYTHONPATH`` of every ``python`` this process starts, also one started
    with an ``env`` of its own.  A fork needs nothing: it keeps the tracer."""
    os.environ["PYTHONPATH"] = _first_on_path(site, os.environ.get("PYTHONPATH"))
    init = subprocess.Popen.__init__

    def popen(self, *args, **kwargs):
        env = kwargs.get("env")
        if env is not None:
            kwargs["env"] = {**env, "PYTHONPATH": _first_on_path(site, env.get("PYTHONPATH"))}
        init(self, *args, **kwargs)

    subprocess.Popen.__init__ = popen


def _files() -> List[str]:
    return [str(path) for path in sorted(SRC.rglob("*.py"))]


def trace_child(log: str) -> None:
    """A started child's tracer, installed by ``sitecustomize.py``."""
    tracer = Tracer(_files(), log)
    follow_children(os.path.join(os.path.dirname(log), "site"))
    sys.settrace(tracer)


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


def report(
    ran: Dict[str, Set[int]],
    entered: Set[Key],
    functions: Dict[Key, Set[int]],
    kept: Set[Tuple[str, str]],
) -> Tuple[int, int, int, int, List[Key]]:
    """Print per-file findings; return (lines, missed, functions, never
    entered, never entered without a row).  ``kept``: the (file under
    ``src/repro``, qualified name) pairs the table keeps."""
    by_file: Dict[str, List[Key]] = {}
    for key in functions:
        by_file.setdefault(key[0], []).append(key)
    totals = [0, 0, 0, 0]
    unkept: List[Key] = []
    for path in sorted(by_file):
        keys = sorted(by_file[path], key=lambda k: k[1])
        body = sorted(set().union(*(functions[k] for k in keys)))
        missed = [line for line in body if line not in ran[path]]
        never = [k for k in keys if k not in entered]
        totals[0] += len(body)
        totals[1] += len(missed)
        totals[2] += len(keys)
        totals[3] += len(never)
        if not missed and not never:
            continue
        rel = Path(path).relative_to(SRC / "repro").as_posix()
        print(f"{Path(path).relative_to(ROOT)}: {len(missed)} of {len(body)} lines never ran")
        if missed:
            print(f"    lines: {_ranges(missed, body)}")
        for key in never:
            has_row = (rel, key[2]) in kept
            unkept += [] if has_row else [key]
            print(f"    never entered: {key[2]} (line {key[1]}){'' if has_row else ' -- no row'}")
    return (*totals, unkept)


def main() -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    files = _files()
    functions: Dict[Key, Set[int]] = {}
    for path in files:
        functions.update(function_lines(Path(path)))

    import pytest

    with tempfile.TemporaryDirectory() as out:
        site, log = os.path.join(out, "site"), os.path.join(out, "lines.log")
        os.mkdir(site)
        Path(site, "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(tool=str(Path(__file__).resolve()), log=log)
        )
        tracer = Tracer(files, log)
        follow_children(site)
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
        ran, entered = read_log(log, files)

    print()
    kept = {(f, name) for files, names, _why in kept_rows() for f in files for name in names}
    lines, missed, count, never, unkept = report(ran, entered, functions, kept)
    print()
    print("; ".join(statuses))
    print(
        f"function-body lines: {lines}; never ran: {missed} "
        f"({100 * missed / max(1, lines):.1f} %); "
        f"functions never entered: {never} of {count}, {len(unkept)} without a row"
    )
    return 1 if unkept else 0


if __name__ == "__main__":
    sys.exit(main())
