"""Node churn: failure/rejoin events, offline semantics, cache invalidation."""

import random

import pytest

from repro.broadcast.flood import FloodNode
from repro.network.churn import (
    ChurnEvent,
    ChurnSchedule,
    random_churn_schedule,
)
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.topology import line_overlay, random_regular_overlay
from repro.protocols import create_protocol


def _flood_simulator(graph, seed=0):
    simulator = Simulator(graph, seed=seed)
    simulator.populate(FloodNode)
    return simulator


class TestOfflineSemantics:
    def test_offline_node_receives_nothing(self):
        simulator = _flood_simulator(line_overlay(3))
        simulator.fail_node(1)
        simulator.node(0).originate("tx")
        simulator.run_until_idle()
        # Node 1 is the only route; nothing reaches it or node 2.
        assert simulator.metrics.reach("tx") == 1
        assert simulator.churn_dropped == 0  # fan-out skipped it entirely
        assert simulator.offline_nodes == {1}

    def test_neighbours_of_excludes_offline(self):
        simulator = _flood_simulator(line_overlay(3))
        assert simulator.neighbours_of(0) == (1,)
        simulator.fail_node(1)
        assert simulator.neighbours_of(0) == ()
        simulator.restore_node(1)
        assert simulator.neighbours_of(0) == (1,)

    def test_sends_to_offline_node_are_counted_drops(self):
        simulator = _flood_simulator(line_overlay(2))
        simulator.fail_node(1)
        simulator.send(0, 1, Message("flood", "tx", 1))
        assert simulator.churn_dropped == 1
        simulator.run_until_idle()
        assert simulator.metrics.reach("tx") == 0

    def test_sends_from_offline_node_are_dropped(self):
        simulator = _flood_simulator(line_overlay(2))
        simulator.fail_node(0)
        simulator.send(0, 1, Message("flood", "tx", 1))
        assert simulator.churn_dropped == 1

    def test_direct_sends_to_offline_node_are_dropped(self):
        simulator = _flood_simulator(line_overlay(3))
        simulator.fail_node(2)
        simulator.send(0, 2, Message("flood", "tx", 1), direct=True)
        assert simulator.churn_dropped == 1

    def test_in_flight_message_dropped_when_receiver_fails(self):
        simulator = _flood_simulator(line_overlay(2))
        # Delivery takes 1.0 time unit (default latency); the receiver
        # crashes at 0.5, while the message is in flight.
        simulator.node(0).originate("tx")
        simulator.schedule(0.5, lambda: simulator.fail_node(1))
        simulator.run_until_idle()
        assert simulator.metrics.reach("tx") == 1  # only the source
        assert simulator.churn_dropped == 1
        assert all(obs.receiver != 1 for obs in simulator.iter_observations())

    def test_failing_unknown_node_rejected(self):
        simulator = _flood_simulator(line_overlay(2))
        with pytest.raises(ValueError):
            simulator.fail_node("nope")

    def test_fail_and_restore_are_idempotent(self):
        simulator = _flood_simulator(line_overlay(2))
        simulator.fail_node(1)
        simulator.fail_node(1)
        assert simulator.offline_nodes == {1}
        simulator.restore_node(1)
        simulator.restore_node(1)
        assert simulator.offline_nodes == frozenset()


class TestRejoin:
    def test_rejoined_node_forwards_again(self):
        # 0 - 1 - 2 line: node 1 fails, rejoins, and a second broadcast
        # after the rejoin reaches everyone.
        simulator = _flood_simulator(line_overlay(3))
        simulator.fail_node(1)
        simulator.node(0).originate("tx-1")
        simulator.run_until_idle()
        assert simulator.metrics.reach("tx-1") == 1

        simulator.restore_node(1)
        simulator.node(0).originate("tx-2")
        simulator.run_until_idle()
        assert simulator.metrics.reach("tx-2") == 3

    def test_missed_payloads_stay_missed(self):
        simulator = _flood_simulator(line_overlay(3))
        simulator.fail_node(2)
        simulator.node(0).originate("tx")
        simulator.run_until_idle()
        simulator.restore_node(2)
        simulator.run_until_idle()
        # No replay on rejoin: 2 never hears about the payload again.
        assert simulator.metrics.reach("tx") == 2


class TestChurnSchedule:
    def test_events_validate(self):
        with pytest.raises(ValueError):
            ChurnEvent(-1.0, 0, "leave")
        with pytest.raises(ValueError):
            ChurnEvent(1.0, 0, "explode")

    def test_apply_executes_at_scheduled_times(self):
        graph = line_overlay(3)
        simulator = _flood_simulator(graph)
        schedule = ChurnSchedule((
            ChurnEvent(1.0, 1, "leave"),
            ChurnEvent(3.0, 1, "rejoin"),
        ))
        schedule.apply(simulator)
        simulator.run(until=2.0)
        assert simulator.offline_nodes == {1}
        simulator.run(until=4.0)
        assert simulator.offline_nodes == frozenset()

    def test_event_times_are_absolute_when_applied_mid_run(self):
        # Applying a schedule after the clock advanced must not shift the
        # whole schedule by the application time: past events fire
        # immediately, future events at their stated absolute time.
        simulator = _flood_simulator(line_overlay(3))
        simulator.run(until=2.0)
        schedule = ChurnSchedule((
            ChurnEvent(1.0, 0, "leave"),   # already past: fires at once
            ChurnEvent(3.0, 1, "leave"),   # still ahead: fires at t=3.0
        ))
        schedule.apply(simulator)
        simulator.run(until=2.5)
        assert simulator.offline_nodes == {0}
        simulator.run(until=3.5)
        assert simulator.offline_nodes == {0, 1}

    def test_random_schedule_is_deterministic(self):
        graph = random_regular_overlay(60, degree=6, seed=0)
        a = random_churn_schedule(graph, 0.25, 1.0, rejoin_after=2.0,
                                  rng=random.Random(5))
        b = random_churn_schedule(graph, 0.25, 1.0, rejoin_after=2.0,
                                  rng=random.Random(5))
        assert a == b
        leavers = [e for e in a.events if e.action == "leave"]
        rejoins = [e for e in a.events if e.action == "rejoin"]
        assert len(leavers) == 15
        assert len(rejoins) == 15
        assert all(e.time == 3.0 for e in rejoins)

    def test_protected_nodes_never_churn(self):
        graph = random_regular_overlay(30, degree=4, seed=1)
        schedule = random_churn_schedule(
            graph, 0.5, 1.0, rng=random.Random(2), protected={0, 1}
        )
        churned = {event.node for event in schedule.events}
        assert churned.isdisjoint({0, 1})

    def test_validation(self):
        graph = line_overlay(4)
        with pytest.raises(ValueError):
            random_churn_schedule(graph, 1.5, 1.0)
        with pytest.raises(ValueError):
            random_churn_schedule(graph, 0.2, -1.0)
        with pytest.raises(ValueError):
            random_churn_schedule(graph, 0.2, 1.0, rejoin_after=0.0)


class TestChurnDeterminism:
    def test_same_schedule_same_log(self):
        def run_once():
            overlay = random_regular_overlay(100, degree=8, seed=11)
            simulator = Simulator(overlay, seed=13)
            simulator.populate(FloodNode)
            schedule = random_churn_schedule(
                overlay, 0.2, 0.5, rejoin_after=2.0, rng=random.Random(17)
            )
            schedule.apply(simulator)
            simulator.node(0).originate("tx")
            simulator.run_until_idle()
            return [
                (obs.time, obs.receiver, obs.sender)
                for obs in simulator.iter_observations()
            ], simulator.churn_dropped

        first, second = run_once(), run_once()
        assert first == second

    def test_failed_then_restored_run_matches_plain_run(self):
        # A node that fails and is restored before any traffic flows leaves
        # no trace: the run is log-identical to one that never churned
        # (the cache invalidation fully undoes itself).
        def log(simulator):
            return [
                (obs.time, obs.receiver, obs.sender, obs.message.payload_id)
                for obs in simulator.iter_observations()
            ]

        overlay = random_regular_overlay(80, degree=8, seed=3)
        protocol = create_protocol("flood")
        plain = protocol.build(overlay, NetworkConditions.ideal(), seed=11)
        protocol.broadcast(plain, 0, "tx")

        churned = Simulator(overlay, latency=ConstantLatency(0.1), seed=11)
        churned.populate(FloodNode)
        churned.fail_node(5)
        churned.restore_node(5)
        churned.node(0).originate("tx")
        churned.run_until_idle()
        assert log(plain.simulator) == log(churned)
