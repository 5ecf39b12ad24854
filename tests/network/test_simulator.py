"""Tests for the discrete-event simulator, nodes, messages and metrics."""

import networkx as nx
import pytest

from repro.network.latency import ConstantLatency
from repro.network.message import Message
from repro.network.node import Node
from repro.network.simulator import Simulator


class EchoNode(Node):
    """Records everything it receives; used to probe the simulator."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.now, sender, message))


class FloodOnceNode(Node):
    """Minimal flooding behaviour used for end-to-end simulator tests."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen = set()

    def originate(self, payload_id):
        self.seen.add(payload_id)
        self.mark_delivered(payload_id)
        for peer in self.neighbours:
            self.send(peer, Message(kind="flood", payload_id=payload_id))

    def on_message(self, sender, message):
        if message.payload_id in self.seen:
            return
        self.seen.add(message.payload_id)
        self.mark_delivered(message.payload_id)
        for peer in self.neighbours:
            if peer != sender:
                self.send(peer, message.copy_for_forwarding())


def build_sim(graph=None, node_cls=EchoNode, seed=0):
    sim = Simulator(graph if graph is not None else nx.path_graph(4), seed=seed)
    sim.populate(node_cls)
    return sim


class TestSimulatorBasics:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            Simulator(nx.Graph())

    def test_populate_registers_all_nodes(self):
        sim = build_sim()
        assert set(sim.nodes) == {0, 1, 2, 3}

    def test_duplicate_registration_rejected(self):
        sim = build_sim()
        with pytest.raises(ValueError):
            sim.add_node(EchoNode(0))

    def test_unknown_vertex_rejected(self):
        sim = build_sim()
        with pytest.raises(ValueError):
            sim.add_node(EchoNode(99))

    def test_neighbours_are_sorted_and_cached(self):
        sim = build_sim()
        assert sim.neighbours_of(1) == (0, 2)
        assert sim.node(1).neighbours == (0, 2)
        # The fan-out fast path: one immutable tuple, shared across calls.
        assert sim.neighbours_of(1) is sim.neighbours_of(1)
        assert isinstance(sim.neighbours_of(1), tuple)

    def test_unattached_node_raises(self):
        node = EchoNode(0)
        with pytest.raises(RuntimeError):
            _ = node.simulator
        with pytest.raises(RuntimeError):
            node.send(1, Message(kind="test", payload_id="tx"))
        with pytest.raises(RuntimeError):
            node.send_direct(1, Message(kind="test", payload_id="tx"))


class TestDelivery:
    def test_message_delivered_after_latency(self):
        sim = Simulator(nx.path_graph(2), latency=ConstantLatency(2.5), seed=0)
        sim.populate(EchoNode)
        sim.node(0).send(1, Message(kind="test", payload_id="tx"))
        sim.run_until_idle()
        assert len(sim.node(1).received) == 1
        time, sender, _ = sim.node(1).received[0]
        assert time == 2.5
        assert sender == 0

    def test_non_neighbour_overlay_send_rejected(self):
        sim = build_sim(nx.path_graph(4))
        with pytest.raises(ValueError):
            sim.node(0).send(3, Message(kind="test", payload_id="tx"))

    def test_direct_send_bypasses_overlay(self):
        sim = build_sim(nx.path_graph(4))
        sim.node(0).send_direct(3, Message(kind="dc", payload_id="tx"))
        sim.run_until_idle()
        assert len(sim.node(3).received) == 1

    def test_unknown_receiver_rejected(self):
        sim = build_sim()
        with pytest.raises(ValueError):
            sim.send(0, 42, Message(kind="x", payload_id="tx"))

    def test_observations_record_direct_flag(self):
        sim = build_sim()
        sim.node(0).send(1, Message(kind="a", payload_id="tx"))
        sim.node(0).send_direct(2, Message(kind="b", payload_id="tx"))
        sim.run_until_idle()
        flags = {obs.message.kind: obs.direct for obs in sim.observations}
        assert flags == {"a": False, "b": True}


class TestScheduling:
    def test_scheduled_action_runs_at_time(self):
        sim = build_sim()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run_until_idle()
        assert fired == [5.0]

    def test_negative_delay_rejected(self):
        sim = build_sim()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_limit(self):
        sim = build_sim()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_max_events(self):
        sim = build_sim()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_run_until_advances_clock_when_queue_drains_early(self):
        """Both exit paths of run(until=...) leave the clock at ``until``."""
        sim = build_sim()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0
        # An empty queue still advances the clock, so run(until=...) loops
        # make progress through idle periods instead of spinning.
        assert sim.run(until=9.0) == 9.0
        assert sim.now == 9.0

    def test_run_until_never_moves_clock_backwards(self):
        sim = build_sim()
        sim.schedule(4.0, lambda: None)
        sim.run_until_idle()
        assert sim.now == 4.0
        assert sim.run(until=2.0) == 4.0

    def test_run_max_events_exit_does_not_jump_to_until(self):
        sim = build_sim()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(until=10.0, max_events=2)
        assert fired == [0, 1]
        assert sim.now == 2.0

    def test_pending_events_counts_queue(self):
        sim = build_sim()
        assert sim.pending_events == 0
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_pending_events_excludes_cancelled(self):
        # Regression: cancelled timers used to inflate pending_events until
        # the queue happened to pop past them, so "is the simulation idle?"
        # loops could spin on events that would never fire.
        sim = build_sim()
        keep = sim.schedule(1.0, lambda: None)
        cancel_me = sim.schedule(2.0, lambda: None)
        cancel_me.cancel()
        assert sim.pending_events == 1
        keep.cancel()
        assert sim.pending_events == 0
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_pending_events_counts_in_flight_messages(self):
        sim = build_sim()
        sim.node(0).send(1, Message(kind="test", payload_id="tx"))
        assert sim.pending_events == 1
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_on_start_called_once(self):
        class StartCounting(EchoNode):
            starts = 0

            def on_start(self):
                StartCounting.starts += 1

        sim = Simulator(nx.path_graph(3), seed=0)
        sim.populate(StartCounting)
        sim.run_until_idle()
        sim.run_until_idle()
        assert StartCounting.starts == 3


class TestEndToEndFlood:
    def test_flood_reaches_every_node(self):
        graph = nx.random_regular_graph(4, 30, seed=1)
        sim = Simulator(graph, seed=0)
        sim.populate(FloodOnceNode)
        sim.node(0).originate("tx-1")
        sim.run_until_idle()
        assert sim.metrics.reach("tx-1") == 30
        assert sim.delivered_fraction("tx-1") == 1.0
        assert sim.undelivered_nodes("tx-1") == []

    def test_flood_message_count_bounded_by_twice_edges(self):
        graph = nx.random_regular_graph(4, 30, seed=1)
        sim = Simulator(graph, seed=0)
        sim.populate(FloodOnceNode)
        sim.node(0).originate("tx-1")
        sim.run_until_idle()
        assert sim.metrics.message_count() <= 2 * graph.number_of_edges()
        assert sim.metrics.message_count() >= graph.number_of_nodes() - 1

    def test_metrics_first_observations(self):
        graph = nx.path_graph(5)
        sim = Simulator(graph, seed=0)
        sim.populate(FloodOnceNode)
        sim.node(2).originate("tx")
        sim.run_until_idle()
        first = sim.metrics.first_observations("tx")
        # Node 2 originated, so it never *receives* the payload.
        assert set(first) == {0, 1, 3, 4}
        assert first[1].sender == 2
        assert first[0].sender == 1

    def test_observations_for_observer_subset(self):
        graph = nx.path_graph(5)
        sim = Simulator(graph, seed=0)
        sim.populate(FloodOnceNode)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        visible = sim.observations_for([4])
        assert all(obs.receiver == 4 for obs in visible)
        assert len(visible) == 1


class TestMetricsQueries:
    def test_message_count_filters(self):
        sim = build_sim()
        sim.node(0).send(1, Message(kind="a", payload_id="t1"))
        sim.node(1).send(2, Message(kind="b", payload_id="t1"))
        sim.node(2).send(3, Message(kind="a", payload_id="t2"))
        sim.run_until_idle()
        assert sim.metrics.message_count() == 3
        assert sim.metrics.message_count(kind="a") == 2
        assert sim.metrics.message_count(payload_id="t1") == 2
        assert sim.metrics.message_count(kind="a", payload_id="t2") == 1

    def test_bytes_sent(self):
        sim = build_sim()
        sim.node(0).send(1, Message(kind="a", payload_id="t", size_bytes=100))
        sim.node(1).send(2, Message(kind="a", payload_id="t", size_bytes=50))
        sim.run_until_idle()
        assert sim.metrics.bytes_sent() == 150

    def test_delivery_and_completion_time(self):
        graph = nx.path_graph(4)
        sim = Simulator(graph, latency=ConstantLatency(1.0), seed=0)
        sim.populate(FloodOnceNode)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert sim.metrics.delivery_time(0, "tx") == 0.0
        assert sim.metrics.delivery_time(3, "tx") == 3.0
        assert sim.metrics.completion_time("tx") == 3.0
        assert sim.metrics.delivery_time(3, "unknown") is None
        assert sim.metrics.completion_time("unknown") is None

    def test_delivered_nodes_in_order(self):
        graph = nx.path_graph(4)
        sim = Simulator(graph, latency=ConstantLatency(1.0), seed=0)
        sim.populate(FloodOnceNode)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert sim.metrics.delivered_nodes("tx") == [0, 1, 2, 3]

    def test_summary_keys(self):
        sim = build_sim()
        summary = sim.metrics.summary()
        assert set(summary) == {"messages", "bytes", "payloads", "deliveries"}

    def test_kinds_breakdown(self):
        sim = build_sim()
        sim.node(0).send(1, Message(kind="a", payload_id="t"))
        sim.node(1).send(2, Message(kind="a", payload_id="t"))
        sim.node(2).send(3, Message(kind="b", payload_id="t"))
        sim.run_until_idle()
        assert sim.metrics.kinds() == {"a": 2, "b": 1}


class TestMessage:
    def test_copy_for_forwarding_owns_its_body(self):
        msg = Message(kind="flood", payload_id="tx", body={"hops": 1})
        copy = msg.copy_for_forwarding()
        assert copy is not msg
        assert copy == msg
        assert copy.body is not msg.body
        copy.body["hops"] = 2
        assert msg.body == {"hops": 1}

    def test_bodyless_messages_share_one_read_only_body(self):
        first = Message(kind="flood", payload_id="tx")
        second = Message(kind="flood", payload_id="tx")
        assert first.body is second.body
        assert first.body == {}
        with pytest.raises(TypeError):
            first.body["hops"] = 1
        # ...while a forwarding copy may be annotated freely.
        first.copy_for_forwarding().body["hops"] = 1
        assert second.body == {}

    def test_message_has_no_identity_beyond_its_content(self):
        assert not hasattr(Message(kind="flood", payload_id="tx"), "uid")
        assert Message(kind="a", payload_id="t") == Message(
            kind="a", payload_id="t", body={}
        )
        assert Message(kind="a", payload_id="t") != Message(
            kind="a", payload_id="t", size_bytes=1
        )

    def test_message_survives_pickle_and_deepcopy(self):
        import copy
        import pickle

        for msg in (
            Message(kind="flood", payload_id="tx"),
            Message(kind="ad_spread", payload_id="tx", body={"wave": 3}),
        ):
            assert pickle.loads(pickle.dumps(msg)) == msg
            assert copy.deepcopy(msg) == msg

    def test_unimplemented_on_message(self):
        # A bare Node declares no kinds: every message is undeclared.
        node = Node("x")
        assert Node.HANDLERS == {}
        with pytest.raises(ValueError, match="kind 'a' at node 'x'"):
            node.on_message(None, Message(kind="a", payload_id="t"))


class TestClose:
    """``Simulator.close()``: the run's record stays, the cycles go."""

    @staticmethod
    def _flooded(engine, shards=None):
        from repro.broadcast.flood import FloodNode
        from repro.network.topology import random_regular_overlay

        sim = Simulator(
            random_regular_overlay(40, degree=4, seed=1),
            latency=ConstantLatency(0.1), seed=3, engine=engine,
            shards=shards,
        )
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        return sim

    def test_close_is_idempotent(self):
        sim = build_sim()
        sim.close()
        sim.close()

    @pytest.mark.parametrize(
        "name,call",
        [
            ("send", lambda sim: sim.send(0, 1, Message("a", "t"))),
            ("schedule", lambda sim: sim.schedule(1.0, lambda: None)),
            ("run", lambda sim: sim.run()),
            ("run", lambda sim: sim.run_until_idle()),
        ],
        ids=["send", "schedule", "run", "run_until_idle"],
    )
    def test_closed_simulator_refuses_work_by_name(self, name, call):
        sim = build_sim()
        sim.close()
        with pytest.raises(
            RuntimeError, match=rf"Simulator\.{name}: simulator is closed"
        ):
            call(sim)

    def test_detached_node_raises_runtime_error_not_attribute_error(self):
        sim = build_sim()
        node = sim.node(0)
        sim.close()
        for act in (
            lambda: node.send(1, Message(kind="a", payload_id="t")),
            lambda: node.send_direct(1, Message(kind="a", payload_id="t")),
            lambda: node.schedule(1.0, lambda: None),
            lambda: node.neighbours,
        ):
            with pytest.raises(RuntimeError, match="not attached"):
                act()

    @pytest.mark.parametrize(
        "engine,shards", [("event", None), ("batched", None), ("sharded", 2)]
    )
    def test_everything_a_run_left_behind_stays_readable(self, engine, shards):
        from repro.scenarios.runner import observation_log_digest

        sim = self._flooded(engine, shards)
        before = {
            "effective": sim.engine_effective,
            "reason": sim.fallback_reason,
            "len": len(sim.store),
            "kinds": sim.store.kind_counts(),
            "reach": sim.metrics.reach("tx"),
            "messages": sim.metrics.message_count(payload_id="tx"),
            "completion": sim.metrics.completion_time("tx"),
        }
        assert before["effective"] == engine
        # Closed *before* the first reader: the lazy materialisation of a
        # kernel-written log must not need anything close() cut.
        sim.close()
        assert {
            "effective": sim.engine_effective,
            "reason": sim.fallback_reason,
            "len": len(sim.store),
            "kinds": sim.store.kind_counts(),
            "reach": sim.metrics.reach("tx"),
            "messages": sim.metrics.message_count(payload_id="tx"),
            "completion": sim.metrics.completion_time("tx"),
        } == before
        assert sum(1 for _ in sim.iter_observations()) == before["len"]
        assert observation_log_digest(sim) == observation_log_digest(
            self._flooded("event")
        )
        assert sim.node(0).has_seen("tx")
        assert sim.delivered_fraction("tx") == 1.0

    def test_close_discards_pending_work_and_defuses_handles(self):
        sim = build_sim()
        handle = sim.schedule(5.0, lambda: None)
        sim.node(0).send(1, Message(kind="a", payload_id="t"))
        assert sim.pending_events == 2
        sim.close()
        assert sim.pending_events == 0
        handle.cancel()
        assert sim.pending_events == 0

    @pytest.mark.parametrize("engine", ["event", "batched"])
    def test_closed_simulator_is_freed_by_reference_count(self, engine):
        import gc
        import weakref

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim = self._flooded(engine)
            node = weakref.ref(sim.node(5))
            ref = weakref.ref(sim)
            sim.close()
            del sim
            assert ref() is None and node() is None
        finally:
            if was_enabled:
                gc.enable()
