"""Flood and gossip state lives in the simulator's columns, not in nodes.

A population whose factory declares its class builds node objects only
when something touches one; every other factory builds its nodes on the
first touch.  Either way the run must not notice: a population built on
demand and the same population built in full before the run (``sim.nodes``
touched first) give the same observation log and the same answers from
every delivery query and from ``has_seen``, on every engine, under churn,
severed links and per-peer wire parameters.
"""

import functools

import pytest

from repro.broadcast.flood import FloodNode
from repro.broadcast.gossip import GossipConfig, GossipNode
from repro.network.churn import ChurnEvent, ChurnSchedule, LinkEvent
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol
from repro.scenarios.runner import observation_log_digest

ENGINES = [("event", None), ("batched", None), ("sharded", 2)]

FACTORIES = {
    "flood": functools.partial(FloodNode, payload_size_bytes=128),
    "flood_per_peer_sizes": lambda node_id: FloodNode(
        node_id, payload_size_bytes=200 + node_id % 7 * 16
    ),
    "gossip": functools.partial(GossipNode, config=GossipConfig(fanout=3)),
    "gossip_per_peer_configs": lambda node_id: GossipNode(
        node_id,
        GossipConfig(fanout=2 + node_id % 3, payload_size_bytes=100 + node_id),
    ),
}

PAYLOADS = ("tx-a", "tx-b", "tx-c")


def _static_churn(sim):
    """Failures and severed links before the run: the split stays exact."""
    for node_id in (11, 23, 64):
        sim.fail_node(node_id)
    for a in (2, 30, 51):
        sim.sever_link(a, sorted(sim.graph.neighbors(a))[0])


def _scheduled_churn(sim):
    """Failures, rejoins and link changes while the payloads spread, some
    of them under deliveries already in flight."""
    leaving = sorted(sim.graph.neighbors(0))[0]
    a, b = 45, sorted(sim.graph.neighbors(45))[1]
    ChurnSchedule((
        ChurnEvent(1.0, leaving, "leave"),
        LinkEvent(1.0, a, b, "sever"),
        ChurnEvent(2.0, 33, "leave"),
        ChurnEvent(4.0, leaving, "rejoin"),
        LinkEvent(5.0, a, b, "restore"),
    )).apply(sim)


CHURN = {"static": _static_churn, "scheduled": _scheduled_churn}


def _run(factory, engine, shards, churn, eager):
    overlay = random_regular_overlay(90, degree=6, seed=8)
    sim = Simulator(
        overlay, latency=ConstantLatency(1.0), seed=5, engine=engine,
        shards=shards,
    )
    sim.populate(factory)
    if eager:
        assert len(sim.nodes) == overlay.number_of_nodes()
    CHURN[churn](sim)
    sim.node(0).originate("tx-a")
    sim.node(45).originate("tx-b")
    sim.run_until_idle()
    sim.node(7).originate("tx-c")
    sim.run_until_idle()
    return sim


def _observables(sim):
    metrics = sim.metrics
    nodes = sorted(sim.graph, key=repr)
    answers = {
        "digest": observation_log_digest(sim),
        "engine": (sim.engine_effective, sim.fallback_reason),
        "churn_dropped": sim.churn_dropped,
        "reach": [metrics.reach(p) for p in PAYLOADS],
        "delivered_nodes": [metrics.delivered_nodes(p) for p in PAYLOADS],
        "delivery_time": [
            [metrics.delivery_time(n, p) for n in nodes] for p in PAYLOADS
        ],
        "completion_time": [metrics.completion_time(p) for p in PAYLOADS],
        "deliveries": dict(metrics.deliveries),
    }
    # Asked last: has_seen builds the node objects it asks.
    answers["has_seen"] = [
        [n for n in nodes if sim.node(n).has_seen(p)] for p in PAYLOADS
    ]
    return answers


@pytest.mark.parametrize("churn", sorted(CHURN))
@pytest.mark.parametrize("engine,shards", ENGINES, ids=[e for e, _ in ENGINES])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_on_demand_equals_fully_built(name, engine, shards, churn):
    factory = FACTORIES[name]
    lazy = _run(factory, engine, shards, churn, eager=False)
    if isinstance(factory, functools.partial) and engine != "event":
        # On a cohort kernel only the originators were ever built (the
        # event loop builds each node it delivers to).
        assert set(lazy.materialised_nodes) == {0, 45, 7}
    eager = _run(factory, engine, shards, churn, eager=True)
    answers = _observables(lazy)
    assert answers == _observables(eager)
    if churn == "scheduled" and name.startswith("flood"):
        assert answers["churn_dropped"] > 0  # in-flight deliveries died


@pytest.mark.parametrize("churn", sorted(CHURN))
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_every_engine_answers_as_the_event_loop(name, churn):
    factory = FACTORIES[name]
    reference = _observables(_run(factory, "event", None, churn, eager=False))
    reference.pop("engine")
    for engine, shards in ENGINES[1:]:
        answers = _observables(_run(factory, engine, shards, churn, eager=False))
        answers.pop("engine")
        assert answers == reference, engine


def test_delivery_queries_keep_time_then_node_order():
    sim = _run(FACTORIES["flood"], "batched", None, "static", eager=False)
    for payload_id in PAYLOADS:
        delivered = sim.metrics.delivered_nodes(payload_id)
        keys = [(sim.metrics.delivery_time(n, payload_id), n) for n in delivered]
        assert keys == sorted(keys)
        assert len(delivered) == sim.metrics.reach(payload_id)
        assert sim.metrics.completion_time(payload_id) == keys[-1][0]
    assert len(sim.metrics.deliveries) == sum(
        sim.metrics.reach(p) for p in PAYLOADS
    )


@pytest.mark.parametrize("engine", ["batched", "sharded"])
def test_a_20k_peer_flood_builds_only_the_originator(engine):
    overlay = random_regular_overlay(20_000, degree=8, seed=1)
    protocol = create_protocol("flood")
    session = protocol.build(
        overlay, NetworkConditions.ideal(), seed=3, engine=engine, shards=2
    )
    outcome = protocol.broadcast(session, 17, "tx")
    simulator = session.simulator
    assert simulator.engine_effective == engine
    assert outcome.reach == 20_000
    assert outcome.messages == (
        2 * overlay.number_of_edges() - overlay.number_of_nodes() + 1
    )
    assert simulator.materialised_nodes == (17,)


def test_nodes_built_after_close_still_answer():
    sim = _run(FACTORIES["flood"], "sharded", 2, "static", eager=False)
    sim.close()
    assert sim.node(89).has_seen("tx-a") == (
        sim.metrics.delivery_time(89, "tx-a") is not None
    )
    with pytest.raises(RuntimeError, match="not attached"):
        sim.node(88).originate("tx-d")
