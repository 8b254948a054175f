"""Tests for the deterministic simulated network (repro.net)."""

import pytest

from repro.faults import HEAL, NET_DELAY, NET_DROP, PARTITION, FaultSpec
from repro.net import Network
from repro.net.network import BANDWIDTH_BYTES_PER_SEC, JITTER, LATENCY_NS
from repro.sim.engine import Engine
from repro.sim.rng import RandomStream
from repro.sim.units import ms, us


def make_net(n=3, seed=7):
    engine = Engine()
    net = Network(engine, n, RandomStream(seed, "net"))
    return engine, net


def latencies(count, extra_ns=0, seed=7, src=0, dst=1):
    """The first ``count`` one-way latencies the (src, dst) link of a
    ``make_net(seed=seed)`` network draws: its own named substream."""
    rng = RandomStream(seed, "net").fork(f"link/{src}->{dst}")
    return [round(rng.jittered(LATENCY_NS + extra_ns, JITTER)) for _ in range(count)]


#: Payload bytes that take one millisecond to serialize.
MS_OF_BYTES = BANDWIDTH_BYTES_PER_SEC // 1000


def drain(engine, net, dst, until=None):
    """Run the engine dry and return the messages that reached ``dst``."""
    engine.run(until=until)
    inbox = net.inboxes[dst]
    out = list(inbox._items)
    inbox._items.clear()
    return out


class TestDelivery:
    def test_message_arrives_after_latency(self):
        engine, net = make_net()
        net.send(0, 1, "hello")
        assert drain(engine, net, 1) == ["hello"]
        assert engine.now == latencies(1)[0]
        assert us(45) <= engine.now <= us(55)  # 50 us within the 10 % jitter

    def test_extra_bytes_serialize_through_bandwidth(self):
        engine, net = make_net()
        net.send(0, 1, "big", nbytes=MS_OF_BYTES)
        drain(engine, net, 1)
        assert engine.now == ms(1) + latencies(1)[0]

    def test_back_to_back_sends_queue_on_the_link(self):
        engine, net = make_net()
        net.send(0, 1, "a", nbytes=MS_OF_BYTES)
        net.send(0, 1, "b", nbytes=MS_OF_BYTES)  # departs after a's serialization
        assert drain(engine, net, 1) == ["a", "b"]
        assert engine.now == ms(2) + latencies(2)[1]

    def test_jitter_can_reorder(self):
        # With jittered latencies two messages on the same link keep their
        # order only by luck; across many sends both orders must occur.
        engine, net = make_net()
        for _ in range(40):
            net.send(0, 1, "first")
            net.send(0, 1, "second")
        got = drain(engine, net, 1)
        assert len(got) == 80
        firsts = [i for i, m in enumerate(got) if m == "first"]
        assert any(i % 2 != 0 for i in firsts), "no reordering in 40 pairs"

    def test_down_destination_drops(self):
        engine, net = make_net()
        net.set_down(1)
        net.send(0, 1, "lost")
        assert drain(engine, net, 1) == []
        net.set_up(1)
        net.send(0, 1, "found")
        assert drain(engine, net, 1) == ["found"]

    def test_crash_while_in_flight_drops_at_arrival(self):
        engine, net = make_net()
        net.send(0, 1, "in-flight")
        net.set_down(1)  # goes down before the message lands
        assert drain(engine, net, 1) == []
        assert net.stats.get("net.dropped_down") == 1


class TestLossAndDup:
    def test_loss_probability_drops_some(self):
        engine, net = make_net()
        net.install_schedule([FaultSpec(NET_DROP, at_time=0, drop_p=0.5)])
        for i in range(100):
            net.send(0, 1, i)
        got = drain(engine, net, 1)
        assert 20 < len(got) < 80
        assert net.stats.get("net.dropped_loss") == 100 - len(got)


class TestPartitions:
    def test_partition_blocks_cross_group_only(self):
        engine, net = make_net(n=4)
        net.partition([0, 1])
        net.send(0, 2, "cross")  # blocked
        net.send(0, 1, "inside")  # same side
        net.send(2, 3, "other-side")  # same side
        assert drain(engine, net, 2) == []
        assert drain(engine, net, 1) == ["inside"]
        assert drain(engine, net, 3) == ["other-side"]

    def test_heal_restores_flow(self):
        engine, net = make_net()
        net.partition([0])
        net.send(0, 1, "blocked")
        net.heal()
        net.send(0, 1, "after")
        assert drain(engine, net, 1) == ["after"]

    def test_scheduled_window_opens_and_closes(self):
        engine, net = make_net()
        net.install_schedule(
            [FaultSpec(PARTITION, at_time=ms(1), until_time=ms(2), nodes=(0,))]
        )
        net.send(0, 1, "before")

        def later():
            yield ms(1)  # inside the window
            net.send(0, 1, "inside")
            yield ms(1)  # past until_time
            net.send(0, 1, "after")

        engine.process(later(), name="later")
        got = drain(engine, net, 1)
        assert got == ["before", "after"]

    def test_heal_spec_closes_open_window(self):
        engine, net = make_net()
        net.install_schedule(
            [
                FaultSpec(PARTITION, at_time=ms(1), nodes=(0,)),
                FaultSpec(HEAL, at_time=ms(3)),
            ]
        )
        seen = []

        def probe():
            for _ in range(3):
                yield ms(1)
                seen.append(net.partitioned(0, 1))

        engine.process(probe(), name="probe")
        engine.run()
        assert seen == [True, True, False]  # open at 1 and 2 ms, healed at 3


class TestFaultWindows:
    def test_net_delay_window_slows_messages(self):
        engine, net = make_net()
        net.install_schedule(
            [FaultSpec(NET_DELAY, at_time=0, until_time=ms(1), extra_ns=ms(1))]
        )
        net.send(0, 1, "slow")
        drain(engine, net, 1)
        assert engine.now == latencies(1, extra_ns=ms(1))[0]  # jitter scales the delay too
        assert engine.now > ms(0.9)

    def test_net_drop_window_drops_probabilistically(self):
        engine, net = make_net()
        net.install_schedule(
            [FaultSpec(NET_DROP, at_time=0, until_time=ms(10), drop_p=0.5)]
        )
        for i in range(100):
            net.send(0, 1, i)
        got = drain(engine, net, 1)
        assert 20 < len(got) < 80


class TestDeterminism:
    def run_once(self, seed):
        engine, net = make_net(seed=seed)
        net.install_schedule([FaultSpec(NET_DROP, at_time=0, drop_p=0.1)])
        for i in range(50):
            net.send(0, 1, ("m", i))
            net.send(2, 1, ("n", i))
        return drain(engine, net, 1), engine.now

    def test_same_seed_same_trajectory(self):
        assert self.run_once(3) == self.run_once(3)

    def test_different_seeds_diverge(self):
        assert self.run_once(3) != self.run_once(4)

    def test_link_streams_independent_of_creation_order(self):
        # Touching links in a different order first must not perturb the
        # draws either link makes: substreams are named, not sequential.
        engine_a, net_a = make_net()
        net_a.link(2, 1)  # create 2->1 first
        net_a.send(0, 1, "x")
        t_a = drain(engine_a, net_a, 1) and engine_a.now

        engine_b, net_b = make_net()
        net_b.send(0, 1, "x")  # 0->1 created first here
        t_b = drain(engine_b, net_b, 1) and engine_b.now
        assert t_a == t_b


class TestValidation:
    def test_bad_config_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            Network(Engine(), 0, RandomStream(1))
