"""A fan-out is one queue entry: ``(receivers, sender, message, direct)``.

``Simulator.send_all`` queues the receivers of one constant-delay fan-out
as a single heap entry on a consecutive block of sequence numbers.  These
tests pin that the entry behaves exactly like one entry per receiver: a
``max_events`` stop inside it resumes to the same log, churn between send
and delivery drops exactly the affected receivers, loss draws keep their
order, and ``pending_events`` counts every undelivered receiver.
"""

import networkx as nx
import pytest

from repro.broadcast.flood import FloodNode
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.message import Message
from repro.network.node import Node
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay


def _log(sim):
    return [
        (obs.time, obs.receiver, obs.sender, obs.message.kind,
         obs.message.payload_id)
        for obs in sim.iter_observations()
    ]


def _flood(engine="event", seed=0):
    sim = Simulator(
        random_regular_overlay(40, degree=4, seed=5),
        latency=ConstantLatency(0.1), seed=seed, engine=engine,
    )
    sim.populate(FloodNode)
    sim.node(0).originate("tx")
    return sim


class _Recorder(Node):
    """Notes what ``pending_events`` reads at each delivery."""

    def __init__(self, node_id, seen):
        super().__init__(node_id)
        self.seen = seen

    def on_message(self, sender, message):
        self.seen.append((self.node_id, self.simulator.pending_events))


def _star(leaves=4, **kwargs):
    return Simulator(nx.star_graph(leaves), seed=0, **kwargs)


class TestOneEntryPerFanOut:
    def test_constant_delay_fan_out_is_one_entry(self):
        sim = _flood()
        assert len(sim._queue._heap) == 1
        _, _, (receivers, sender, _, direct) = sim._queue._heap[0]
        assert receivers == sim.neighbours_of(0)
        assert (sender, direct) == (0, False)
        assert sim.pending_events == len(receivers)

    def test_per_receiver_delays_give_one_entry_each(self):
        sim = Simulator(
            random_regular_overlay(40, degree=4, seed=5), seed=0,
            conditions=NetworkConditions(
                latency=ConstantLatency(0.1), jitter=0.05
            ),
        )
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        assert [len(entry[2][0]) for entry in sim._queue._heap] == [1] * 4


class TestMaxEventsInsideAnEntry:
    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 7, 11, 13])
    def test_stop_inside_a_fan_out_then_resume_matches_one_run(self, cap):
        whole = _flood()
        whole.run_until_idle()

        stepped = _flood()
        stepped.run(max_events=cap)
        # Stopped inside the originator's four-receiver entry or a later
        # fan-out: exactly ``cap`` deliveries made, the rest still queued.
        assert len(stepped.store) == cap
        assert stepped.pending_events > 0
        while stepped.pending_events:
            stepped.run(max_events=cap)
        assert _log(stepped) == _log(whole)
        assert stepped.churn_dropped == whole.churn_dropped == 0

    def test_rest_keeps_its_sequence(self):
        sim = _flood()
        (_, first, (receivers, _, _, _)), = sim._queue._heap
        sim.run(max_events=1)
        rest = [entry for entry in sim._queue._heap if entry[1] == first + 1]
        assert len(rest) == 1 and rest[0][2][0] == receivers[1:]


class TestChurnWhileInFlight:
    @pytest.mark.parametrize("engine", ["event", "batched"])
    def test_fail_and_sever_drop_exactly_those_receivers(self, engine):
        sim = _star(engine=engine, latency=ConstantLatency(0.1))
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        assert sim.pending_events == 4
        sim.fail_node(2)
        sim.sever_link(0, 3)
        sim.run_until_idle()
        assert sorted(obs.receiver for obs in sim.iter_observations()) == [1, 4]
        assert sim.churn_dropped == 2
        assert sim.pending_events == 0

    def test_failure_during_the_entry_drops_the_later_receiver(self):
        sim = _star()
        seen = []
        for node in range(5):
            sim.add_node(_Recorder(node, seen))
        original = sim.node(1).on_message

        def fail_three(sender, message):
            original(sender, message)
            sim.fail_node(3)

        sim.node(1).on_message = fail_three
        sim.send_all(0, (1, 2, 3, 4), Message(kind="m", payload_id="tx"))
        sim.run_until_idle()
        assert [node for node, _ in seen] == [1, 2, 4]
        assert sim.churn_dropped == 1


class TestLossDrawOrder:
    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_send_all_draws_like_one_send_per_receiver(self, jitter):
        def build():
            sim = Simulator(
                nx.star_graph(8), seed=4,
                conditions=NetworkConditions(
                    latency=ConstantLatency(0.1),
                    loss_probability=0.4, jitter=jitter,
                ),
            )
            seen = []
            for node in range(9):
                sim.add_node(_Recorder(node, seen))
            return sim

        message = Message(kind="m", payload_id="tx")
        fan_out, one_by_one = build(), build()
        for _ in range(3):
            fan_out.send_all(0, range(1, 9), message)
            for receiver in range(1, 9):
                one_by_one.send(0, receiver, message)
        assert fan_out.pending_events == one_by_one.pending_events
        fan_out.run_until_idle()
        one_by_one.run_until_idle()
        assert _log(fan_out) == _log(one_by_one)
        assert fan_out.dropped_messages == one_by_one.dropped_messages > 0
        assert fan_out._link_rng.getstate() == one_by_one._link_rng.getstate()


class TestPendingEvents:
    def test_counts_the_undelivered_receivers(self):
        sim = _star()
        seen = []
        for node in range(5):
            sim.add_node(_Recorder(node, seen))
        sim.send_all(0, (1, 2, 3, 4), Message(kind="m", payload_id="tx"))
        assert sim.pending_events == 4
        sim.run_until_idle()
        assert seen == [(1, 3), (2, 2), (3, 1), (4, 0)]

    def test_stop_inside_leaves_the_rest_counted(self):
        sim = _star()
        seen = []
        for node in range(5):
            sim.add_node(_Recorder(node, seen))
        sim.send_all(0, (1, 2, 3, 4), Message(kind="m", payload_id="tx"))
        sim.run(max_events=3)
        assert sim.pending_events == 1
        sim.run_until_idle()
        assert seen == [(1, 3), (2, 2), (3, 1), (4, 0)]

    def test_a_raising_handler_leaves_the_rest_queued(self):
        sim = _star()
        seen = []
        for node in range(5):
            sim.add_node(_Recorder(node, seen))

        def explode(sender, message):
            raise RuntimeError("handler failed")

        sim.node(2).on_message = explode
        sim.send_all(0, (1, 2, 3, 4), Message(kind="m", payload_id="tx"))
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run()
        assert sim.pending_events == 2
        sim.run_until_idle()
        assert seen == [(1, 3), (3, 1), (4, 0)]

    def test_rejected_receiver_leaves_the_earlier_ones_sent(self):
        sim = _star()
        for node in range(5):
            sim.add_node(_Recorder(node, []))
        with pytest.raises(ValueError, match="no overlay edge"):
            sim.send_all(1, (0, 2), Message(kind="m", payload_id="tx"))
        assert sim.pending_events == 1
