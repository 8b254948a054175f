"""The gate runner (``python -m repro.gates``) and its manifest.

The manifest's own gates take minutes; these checks drive the runner with
``python -c`` gates that take milliseconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from repro.gates import MANIFEST, NORMALISERS, check, load, repin


def md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def printing(*texts: str) -> dict:
    """A gate whose variants print ``texts``, pinned at the first one."""
    argv = [["-c", f"print({text!r}, end='')"] for text in texts]
    return {"name": "planted", "argv": argv, "env": {}, "normalise": "raw", "md5": md5(texts[0])}


def test_manifest_is_well_formed():
    rows = load(MANIFEST)
    names = [row["name"] for row in rows]
    assert len(names) == len(set(names))
    for row in rows:
        assert set(row) == {"name", "argv", "env", "normalise", "md5"}, row["name"]
        assert re.fullmatch("[0-9a-f]{32}", row["md5"]), row["name"]
        assert row["normalise"] in NORMALISERS, row["name"]
        assert row["argv"] and all(argv for argv in row["argv"]), row["name"]
        assert all(isinstance(arg, str) for argv in row["argv"] for arg in argv), row["name"]
        assert all(isinstance(v, str) for v in row["env"].values()), row["name"]


def test_planted_byte_fails_and_names_the_gate(capsys):
    assert check([printing("figure\n")]) == 0
    assert capsys.readouterr().out.startswith("OK planted ")
    planted = dict(printing("figure\n"), argv=[["-c", "print('figure!')"]])
    assert check([planted]) == 1
    out = capsys.readouterr().out
    pinned, got = md5("figure\n"), md5("figure!\n")
    assert out.startswith(f"MISMATCH planted {pinned} → {got} (")
    assert "  | figure!" in out


def test_variants_that_differ_fail_even_when_one_matches(capsys):
    assert check([printing("serial\n", "parallel\n")]) == 1
    out = capsys.readouterr().out
    serial, parallel = md5("serial\n"), md5("parallel\n")
    assert f"MISMATCH planted {serial} → {serial} | {parallel} (" in out
    assert "  | parallel" in out and "  | serial" not in out


def test_failing_variant_fails_its_gate(capsys):
    failing = dict(printing(""), argv=[["-c", "import sys; sys.exit(3)"]])
    assert check([failing]) == 1
    assert f"{md5('')} (exit 3)" in capsys.readouterr().out


def test_repin_rewrites_only_the_named_row(tmp_path, capsys):
    """A copy of the manifest with a planted row: a repin rewrites that row
    and leaves every other line of the file as committed."""
    manifest = MANIFEST.read_text()
    assert manifest.endswith("\n]\n")
    planted = json.dumps(dict(printing("new\n"), md5="0" * 32))
    path = tmp_path / "gates.json"
    path.write_text(manifest[:-3] + ",\n" + planted + "\n]\n")
    before = path.read_text().splitlines()
    assert repin(path, ["planted"]) == 0
    after = path.read_text().splitlines()
    assert len(after) == len(before)
    assert [i for i, (a, b) in enumerate(zip(before, after)) if a != b] == [len(before) - 2]
    new = md5("new\n")
    assert load(path)[-1]["md5"] == new
    assert capsys.readouterr().out == f"planted: {'0' * 32} → {new}\n"


def test_repin_refuses_variants_that_differ(tmp_path):
    path = tmp_path / "gates.json"
    path.write_text(json.dumps([printing("a", "b")]))
    assert repin(path, ["planted"]) == 1
    assert path.read_text() == json.dumps([printing("a", "b")])


@pytest.mark.parametrize("argv", [["--repin"], ["no-such-gate"]])
def test_cli_refuses_without_running_anything(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.gates", *argv],
        env={**os.environ, "PYTHONPATH": str(MANIFEST.parents[1])},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def test_figure_ignores_timing_and_what_follows_the_figure():
    table = "fig03: throughput\n  xpoint  45.0 kop/s\n"
    untraced = table + "[fig03 regenerated in 10.4s]\n"
    traced = (table + "[fig03 regenerated in 14.9s]\n"
              "  engine-1/device/sata-flash: 38.33 ms of service time\n"
              "[trace: 561653 events -> /tmp/t/trace.json]\n")
    figure = NORMALISERS["figure"]
    assert figure(traced) == figure(untraced) == table + "[fig03 regenerated in Xs]\n"
    assert NORMALISERS["mask-timing"](traced) != NORMALISERS["mask-timing"](untraced)


def test_ledger_sim_keeps_only_what_the_simulation_decides():
    sim = ("  sim_kops                40.0044 kops/s  [sim] identical in every repetition\n"
           "  failed_frac                   0 frac    (0 of 99679 ops)\n"
           "  sim_digest         3f0d797c\n")
    run = ("== fill_solo: end to end  (tiny; 1 disturbed repetition(s) replaced)\n"
           "  setup_s                  0.5312 s       [host] min 0.5312 max 0.5312 n=1\n"
           + sim)
    assert NORMALISERS["ledger-sim"](run) == sim
