"""Tests for the exception hierarchy, top-level API surface, and CLI."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.errors import (
    CorruptionError,
    DBClosedError,
    DBError,
    FileExistsInFS,
    FileNotFoundInFS,
    FileSystemError,
    OptionsError,
    OutOfSpaceError,
    ReproError,
    SimulationError,
    StorageError,
    WorkloadError,
)


def test_everything_derives_from_repro_error():
    for exc in (
        SimulationError,
        StorageError,
        FileSystemError,
        DBError,
        WorkloadError,
    ):
        assert issubclass(exc, ReproError)


def test_fs_error_subtypes():
    for exc in (FileNotFoundInFS, FileExistsInFS, OutOfSpaceError):
        assert issubclass(exc, FileSystemError)


def test_db_error_subtypes():
    for exc in (DBClosedError, CorruptionError, OptionsError):
        assert issubclass(exc, DBError)


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


def test_every_module_imports():
    """A stale import anywhere under ``src/repro`` fails tier-1, not a smoke job."""
    names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    assert "repro.jobs" in names and "repro.dst.__main__" in names
    for name in names:
        importlib.import_module(name)


def test_readme_quickstart_snippet():
    """The README's quickstart code must actually run."""
    from repro import Machine, Options, xpoint_ssd
    from repro.sim import mb

    machine = Machine.create(xpoint_ssd(), page_cache_bytes=mb(8))
    db = machine.open_db(Options(write_buffer_size=mb(1), memtable_rep="hash"))
    db.run_sync(db.put(b"key", b"value"))
    assert db.run_sync(db.get(b"key")) == b"value"


class TestCli:
    def test_model1(self, capsys):
        from repro.harness.__main__ import main

        assert main(["model1", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "model1" in out and "2.7" in out

    def test_unknown_experiment_rejected(self):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_unknown_preset_rejected(self):
        from repro.errors import WorkloadError
        from repro.harness.__main__ import main

        with pytest.raises(WorkloadError):
            main(["model1", "--preset", "huge"])


CLI_ERRORS = [
    ({}, ["repro.serving", "--cache-mb", "0"]),
    ({}, ["repro.serving", "--users", "0"]),
    ({}, ["repro.serving", "--resilient", "--replicas", "1"]),
    ({}, ["repro.harness", "fig03", "--preset", "nope"]),
    ({}, ["repro.matrix", "--only", "nope"]),
    ({}, ["repro.dst", "--replay", "/nonexistent.json"]),
    ({}, ["repro.fuzz", "--replay", "/nonexistent.json"]),
    ({}, ["repro.dst", "--replay", "TRUNCATED"]),
    ({}, ["repro.fuzz", "--replay", "TRUNCATED"]),
    ({}, ["repro.fuzz", "--batch", "0", "--iters", "4"]),
    ({}, ["repro.fuzz", "--batch", "-1", "--iters", "4"]),
    ({}, ["repro.fuzz", "--iters", "-1"]),
    ({}, ["repro.fuzz", "--corpus-dir", "/nonexistent-corpus", "--iters", "1"]),
    ({}, ["repro.fuzz", "--modes", ",", "--no-corpus", "--iters", "1", "--quiet"]),
] + [
    ({"REPRO_BENCH_SECONDS": value}, ["repro.harness", "fig07", "--preset", "tiny"])
    for value in ("abc", "nan", "inf", "0")
]


@pytest.mark.parametrize(
    "env, argv",
    [
        pytest.param(env, argv, id=" ".join([f"{k}={v}" for k, v in env.items()] + argv))
        for env, argv in CLI_ERRORS
    ],
)
def test_cli_errors_exit_2_with_one_line(env, argv, tmp_path):
    """The :func:`repro.errors.run_cli` contract, through every entry point."""
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"trunc')
    argv = [str(truncated) if a == "TRUNCATED" else a for a in argv]
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", *argv],
        env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_cli_reader_closing_the_pipe_is_not_an_error():
    """``python -m repro.harness ... | head``: no ``error: [Errno 32] Broken
    pipe``, no traceback from the exit flush — quiet, with SIGPIPE's status."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    program = (
        "from repro.errors import run_cli\n"
        "def main():\n"
        "    for i in range(200_000):\n"
        "        print('line', i)\n"
        "run_cli(main)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"line 0\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""
