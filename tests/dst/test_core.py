"""Unit tests for the scenario core the four DST harnesses share."""

import pytest

from repro.dst import core
from repro.dst.core import CORRUPT, DELETE, GET, PUT, Op, Scenario
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream

pytestmark = pytest.mark.dst


class TestGenOps:
    def test_numbered_writes_count_from_one_and_describe_themselves(self):
        ops = core.gen_ops(RandomStream(7, "t"), 200, 10, pad=(3, 5))
        writes = [op for op in ops if op.kind != GET]
        assert [op.index for op in writes] == list(range(1, len(writes) + 1))
        assert all(op.index == 0 and op.value is None for op in ops if op.kind == GET)
        for op in writes:
            if op.kind == PUT:
                head = b"op%06d:%s:" % (op.index, op.key)
                assert op.value.startswith(head)
                pad = op.value[len(head):]
                assert 3 <= len(pad) <= 5 and pad == b"x" * len(pad)
            else:
                assert op.value is None

    def test_unnumbered_ops_leave_index_and_value_to_the_client(self):
        ops = core.gen_ops(RandomStream(7, "t"), 200, 10, pad=(0, 4), numbered=False)
        assert {op.kind for op in ops} == {PUT, DELETE, GET}
        assert all(op.index == 0 for op in ops)
        for op in ops:
            if op.kind == PUT:
                assert len(op.value) <= 4 and op.value == b"x" * len(op.value)
        # The attempt-time stamp is the generation-time value format.
        assert core.stamped(9, b"k0001", b"xx") == b"op000009:k0001:xx"

    def test_numbering_does_not_move_the_draws(self):
        a = core.gen_ops(RandomStream(3, "t"), 150, 8, pad=(0, 64))
        b = core.gen_ops(RandomStream(3, "t"), 150, 8, pad=(0, 64), numbered=False)
        assert [(op.kind, op.key) for op in a] == [(op.kind, op.key) for op in b]
        assert all(0 <= int(op.key[1:]) < 8 for op in a)


class TestFindCut:
    writes = [
        Op(PUT, b"a", b"1", 1),
        Op(PUT, b"b", b"2", 2),
        Op(DELETE, b"a", None, 3),
        Op(PUT, b"a", b"4", 4),
    ]

    def test_smallest_matching_cut_at_or_after_min_cut(self):
        assert core.find_cut(self.writes, {}, 0) == 0
        assert core.find_cut(self.writes, {b"a": b"1", b"b": b"2"}, 0) == 2
        assert core.find_cut(self.writes, {b"b": b"2"}, 0) == 3
        assert core.find_cut(self.writes, {b"a": b"4", b"b": b"2"}, 4) == 4

    def test_min_cut_is_respected(self):
        # Cut 2 matches, but an ack at write 3 forbids rolling back to it.
        assert core.find_cut(self.writes, {b"a": b"1", b"b": b"2"}, 3) == -1

    def test_gap_has_no_cut(self):
        # Write 4 without write 2: no prefix produces this.
        assert core.find_cut(self.writes, {b"a": b"4"}, 0) == -1
        assert core.find_cut(self.writes, {b"a": b"1", b"zz": b"?"}, 0) == -1

    def test_corrupt_key_matches_any_expectation(self):
        # Detected loss of "a" is consistent with a=1, a=4 and a deleted...
        assert core.find_cut(self.writes, {b"a": CORRUPT, b"b": b"2"}, 0) == 2
        assert core.find_cut(self.writes, {b"a": CORRUPT, b"b": b"2"}, 3) == 3
        assert core.find_cut(self.writes, {b"a": CORRUPT, b"b": b"2"}, 4) == 4
        # ...and with a never written.
        assert core.find_cut(self.writes, {b"a": CORRUPT}, 0) == 0
        # The keys that did read back must still match.
        assert core.find_cut(self.writes, {b"a": CORRUPT, b"b": b"9"}, 0) == -1


class _Bare(Scenario):
    stream = "core-test"

    def __init__(self):
        super().__init__(0, None)
        self.engine = Engine()


class TestStep:
    def test_controls_fire_at_their_exact_virtual_time(self):
        """A control due before, at and after the next engine event."""
        run = _Bare()
        trail = []

        def ticker():
            for _ in range(3):
                yield 100
                trail.append(("tick", run.engine.now))

        proc = run.spawn(ticker(), "ticker")
        controls = [(50, "before", 1), (100, "at", 2), (250, "between", 3), (900, "after", 4)]
        run.step([proc], controls, lambda action, node: trail.append((action, run.engine.now, node)))
        assert trail == [
            ("before", 50, 1),
            ("tick", 100),
            ("at", 100, 2),  # after the engine events of the same instant
            ("tick", 200),
            ("between", 250, 3),
            ("tick", 300),
            ("after", 900, 4),  # through dead air, after the proc finished
        ]
        assert run.engine.now == 900

    def test_proc_exception_is_raised(self):
        run = _Bare()

        def boom():
            yield 10
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run.step([run.spawn(boom(), "boom")], [], None)

    def test_drive_returns_the_value_and_logs_in_virtual_time(self):
        run = _Bare()

        def work():
            yield 40
            run.log("done")
            return 7

        assert run.drive(work(), "work") == 7
        assert run.events == ["t=40 done"]
