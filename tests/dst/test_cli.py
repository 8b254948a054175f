"""The one sweep CLI: worker, EXCEPTION handling, --save/--replay."""

import pytest

from repro.dst import MODES, DstRun
from repro.dst.__main__ import _config_flags, _parser, _seed_worker, main
from repro.dst.core import make_config
from repro.errors import run_cli
from repro.jobs import imap_points
from repro.sim.units import ms

pytestmark = pytest.mark.dst

#: Small per-mode sizes so the four-mode tests stay fast.
SMALL = {
    "dst": {"num_ops": 80},
    "storm": {"num_ops": 160, "num_keys": 24},
    "cluster": {"num_ops": 60},
    "serving": {"duration_ns": ms(40)},
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_flags_at_their_defaults_are_the_modes_own_config(mode):
    """``--seed N`` on the CLI runs what ``Run(N)`` runs in Python: a flag
    left at the parser default leaves the mode's own config default."""
    parser = _parser()
    args = parser.parse_args([] if mode == "dst" else [f"--{mode}"])
    config_cls = MODES[mode][1]
    assert make_config(config_cls, **_config_flags(parser, args, mode)) == config_cls()


class TestSweepWorker:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_serial_and_parallel_sweeps_match(self, mode):
        """--jobs is a pure speedup: per-run named RNG substreams make the
        worker's results byte-identical to the serial loop's, in every mode."""
        items = [(mode, seed, SMALL[mode], False) for seed in range(4)]
        serial = [r for r, _ in imap_points(_seed_worker, items, jobs=1)]
        parallel = [r for r, _ in imap_points(_seed_worker, items, jobs=2)]
        assert [r.seed for r in serial] == [0, 1, 2, 3]
        for a, b in zip(serial, parallel):
            assert a.events == b.events
            assert a.verdict == b.verdict
            assert getattr(a, "log_digest", None) == getattr(b, "log_digest", None)

    def test_selfcheck_rerun_comes_back_identical(self):
        result, again = _seed_worker(("dst", 1, SMALL["dst"], True))
        assert again is not None and again.events == result.events


class _RaisesOnSeedOne(DstRun):
    def run(self):
        if self.seed == 1:
            raise RuntimeError("harness bug")
        return super().run()


class TestRaisingHarness:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_survives_a_raising_seed(self, monkeypatch, capsys, jobs):
        """One seed of three raises: three lines, no traceback, exit 1."""
        monkeypatch.setitem(MODES, "dst", (_RaisesOnSeedOne, MODES["dst"][1]))
        code = main(["--seeds", "0:3", "--ops", "60", "--jobs", str(jobs)])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line.split()[0] for line in out if line.startswith("seed=")] == [
            "seed=0",
            "seed=1",
            "seed=2",
        ]
        assert out[1] == "seed=1 EXCEPTION(RuntimeError: harness bug)"
        assert out[2] == "  repro: python -m repro.dst --seed 1 --ops 60"
        assert out[0].startswith("seed=0 PASS") and out[3].startswith("seed=2 PASS")
        assert "Traceback" not in "\n".join(out)

    def test_jobs_do_not_change_the_output(self, monkeypatch, capsys):
        monkeypatch.setitem(MODES, "dst", (_RaisesOnSeedOne, MODES["dst"][1]))
        outputs = []
        for jobs in ("1", "2"):
            main(["--seeds", "0:3", "--ops", "60", "--log", "--jobs", jobs])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "flags",
    [
        ["--ops", "0"],
        ["--keys", "0"],
        ["--storm", "--keys", "0"],
        ["--cluster", "--keys", "0"],
        ["--serving", "--keys", "0"],
        ["--max-faults", "-1"],
        ["--storm", "--max-faults", "-2"],
        ["--cluster", "--nodes", "1"],
        ["--serving", "--shards", "0"],
        ["--serving", "--replicas", "1"],
    ],
    ids=" ".join,
)
def test_out_of_range_flag_is_a_usage_error(capsys, flags):
    """A bad sizing flag is an ``error:`` line and exit 2 before any seed
    runs, not a per-seed ``EXCEPTION`` (or, for a flag the mode ignores, a
    silent PASS)."""
    with pytest.raises(SystemExit) as exit_info:
        run_cli(lambda: main(["--seed", "1"] + flags))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flags[-2]} must be >= ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seeds", "3"], "bad --seeds range '3' (want A:B)"),
        (["--seeds", "5:5"], "empty --seeds range '5:5'"),
        (["--storm", "--cluster"], "--storm, --cluster and --serving are mutually exclusive"),
    ],
    ids=["bad-range", "empty-range", "two-modes"],
)
def test_a_bad_seed_range_or_two_modes_is_a_usage_error(capsys, argv, message):
    """Like a bad sizing flag: an ``error:`` line and exit 2, not a bare
    message and exit 1 (which means a seed failed)."""
    with pytest.raises(SystemExit) as exit_info:
        run_cli(lambda: main(argv))
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "mode, seed",
    [("cluster", 1092), ("serving", 766), ("serving", 191), ("serving", 278)],
    ids=lambda v: str(v),
)
def test_formerly_failing_seeds_pass(capsys, mode, seed):
    """Seeds from ``benchmarks/ledger/chaos_known_failures.json`` that now
    PASS through the CLI.  In cluster 1092 and serving 766 a follower's
    apply outlived its term and left it holding a group the new leader
    never holds (ROADMAP item 1(b)); it steps down and rejoins.  In serving
    191 and 278 a rejoin's DB open hit a full disk (item 1(a)), 278 after
    a truncation; the node stays staged until an election retries it."""
    assert main(["--seed", str(seed), f"--{mode}"]) == 0
    assert capsys.readouterr().out.startswith(f"seed={seed} PASS ")


#: Every (flag, mode) pair whose config has no field for the flag.
NOT_APPLICABLE = [
    (["--ops", "10"], "serving"),
    (["--max-faults", "0"], "storm"),
    (["--max-faults", "0"], "serving"),
    (["--storm-kind", "io"], "dst"),
    (["--storm-kind", "space"], "cluster"),
    (["--storm-kind", "auto"], "serving"),
    (["--nodes", "5"], "dst"),
    (["--nodes", "5"], "storm"),
    (["--nodes", "3"], "serving"),
    (["--shards", "1"], "dst"),
    (["--shards", "2"], "storm"),
    (["--shards", "3"], "cluster"),
    (["--replicas", "2"], "dst"),
    (["--replicas", "3"], "storm"),
    (["--replicas", "5"], "cluster"),
    (["--no-faults"], "storm"),
]


@pytest.mark.parametrize(
    "flags, mode", NOT_APPLICABLE, ids=[f"{f[0]}-{m}" for f, m in NOT_APPLICABLE]
)
def test_flag_a_mode_has_no_field_for_is_a_usage_error(capsys, flags, mode):
    """A flag the mode's config cannot take would be dropped and the seed
    would run (and PASS) as if it had not been given: it is an ``error:``
    line and exit 2 before any seed runs, even at the value that is another
    mode's default."""
    mode_flag = [] if mode == "dst" else [f"--{mode}"]
    with pytest.raises(SystemExit) as exit_info:
        run_cli(lambda: main(["--seed", "1"] + mode_flag + flags))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    where = "the crash mode" if mode == "dst" else f"--{mode}"
    assert captured.out == ""
    assert captured.err == f"error: {flags[0]} does not apply to {where}\n"


@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_flag_is_refused_or_applied(mode):
    """Each (flag, mode) pair is either in ``NOT_APPLICABLE`` or reaches
    the mode's config, explicit default values included (``--max-faults 5``
    to ``--cluster`` is 5, not the mode's own 4)."""
    parser = _parser()
    mode_flag = [] if mode == "dst" else [f"--{mode}"]
    given = {
        "--ops": ("num_ops", 300), "--keys": ("num_keys", 40), "--max-faults": ("max_faults", 5),
        "--storm-kind": ("kind", "mixed"), "--nodes": ("n_nodes", 4), "--shards": ("shards", 3),
        "--replicas": ("replicas", 4), "--no-faults": ("faults", False),
    }
    refused = {flags[0] for flags, m in NOT_APPLICABLE if m == mode}
    for flag, (field, value) in given.items():
        if flag in refused:
            continue
        argv = mode_flag + ([flag] if flag == "--no-faults" else [flag, str(value)])
        args = parser.parse_args(argv)
        config = make_config(MODES[mode][1], **_config_flags(parser, args, mode))
        assert getattr(config, field) == value, (flag, mode)


class TestSaveReplay:
    @pytest.mark.parametrize("kind", ["io", "space", "mixed"])
    def test_storm_schedule_round_trips(self, tmp_path, capsys, kind):
        """--storm --save writes a file --storm --replay reads: same seed,
        same kind, identical event log."""
        path = str(tmp_path / "storm.json")
        common = ["--storm", "--storm-kind", kind, "--seed", "2", "--ops", "200", "--log"]
        assert main(common + ["--save", path]) == 0
        saved = capsys.readouterr().out
        assert f"  schedule saved to {path}\n" in saved
        assert main(common + ["--replay", path]) == 0
        replayed = capsys.readouterr().out
        assert replayed == saved.replace(f"  schedule saved to {path}\n", "")

    def test_replay_reaches_every_mode(self, tmp_path, capsys):
        """One loop: a schedule saved by a mode replays through that mode."""
        path = str(tmp_path / "s.json")
        for flag in ([], ["--cluster"], ["--serving"]):
            assert main(flag + ["--seed", "1", "--save", path]) == 0
            saved = capsys.readouterr().out.splitlines()[0]
            main(flag + ["--seed", "1", "--replay", path])
            replayed = capsys.readouterr().out.splitlines()[0]
            assert replayed.split()[:2] == saved.split()[:2]  # seed=1 PASS

    def test_a_bare_empty_schedule_is_refused(self, tmp_path, capsys):
        """``--replay`` of ``[]`` would run the seed with every fault dropped
        and print PASS: it is an ``error:`` line and exit 2.  A run that drew
        no faults saves the explicit empty form, which still replays."""
        bare = tmp_path / "bare.json"
        bare.write_text("[]\n")
        with pytest.raises(SystemExit) as exit_info:
            run_cli(lambda: main(["--replay", str(bare)]))
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "empty list" in captured.err and "Traceback" not in captured.err

        saved = str(tmp_path / "none.json")
        common = ["--seed", "3", "--ops", "60", "--no-faults"]
        assert main(common + ["--save", saved]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert main(common + ["--replay", saved]) == 0
        assert capsys.readouterr().out.splitlines()[0] == first
