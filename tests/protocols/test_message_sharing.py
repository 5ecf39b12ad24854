"""One ``Message`` per fan-out: shared between receivers, never written to.

A forwarding node hands the same instance to every neighbour, and every
delivery's ``Observation`` refers to it — so a handler that wrote into a
message would rewrite what the other receivers (and the adversary's log)
see.  Each registered protocol is run with every send snapshotted at send
time; after the run every message must still equal its snapshot.
"""

import copy

import pytest

from repro.network import NetworkConditions
from repro.network.topology import random_regular_overlay
from repro.protocols import available_protocols, create_protocol


def _snapshot(message):
    return (
        message.kind,
        message.payload_id,
        copy.deepcopy(dict(message.body)),
        message.size_bytes,
    )


def _run_with_send_snapshots(name):
    overlay = random_regular_overlay(60, degree=6, seed=3)
    protocol = create_protocol(name)
    session = protocol.build(overlay, NetworkConditions.ideal(), seed=7)
    simulator = session.simulator
    sent = {}
    real_send_all = simulator.send_all

    def send_all(sender, receivers, message, direct=False):
        # Keyed by identity; the dict keeps the message alive, so an id is
        # never reused for another instance.
        sent.setdefault(id(message), (message, _snapshot(message)))
        real_send_all(sender, receivers, message, direct)

    simulator.send_all = send_all
    for index, source in enumerate((0, 17)):
        protocol.broadcast(session, source, f"tx-{index}")
    return simulator, sent


@pytest.mark.parametrize("name", available_protocols())
def test_no_handler_mutates_a_delivered_message(name):
    simulator, sent = _run_with_send_snapshots(name)
    assert sent
    for message, snapshot in sent.values():
        assert _snapshot(message) == snapshot
    delivered = {id(obs.message) for obs in simulator.iter_observations()}
    assert delivered <= set(sent)


@pytest.mark.parametrize("name", available_protocols())
def test_a_fan_out_shares_one_message(name):
    simulator, sent = _run_with_send_snapshots(name)
    deliveries = len(simulator.store)
    assert len(sent) < deliveries
    receivers = {}
    for obs in simulator.iter_observations():
        receivers.setdefault(id(obs.message), set()).add(obs.receiver)
    assert max(map(len, receivers.values())) > 1


def test_token_path_is_copied_out_of_the_message():
    # The virtual-source path travels in ``ad_token`` bodies and grows at
    # every hand-over; the receiver must extend its own copy, not the list
    # inside the message the log still refers to.
    simulator, sent = _run_with_send_snapshots("adaptive_diffusion")
    tokens = [
        (message, snapshot)
        for message, snapshot in sent.values()
        if message.kind == "ad_token"
    ]
    assert len(tokens) > 1
    for message, snapshot in tokens:
        assert message.body["path"] == snapshot[2]["path"]
    paths = [id(message.body["path"]) for message, _ in tokens]
    assert len(set(paths)) == len(paths)
    holders = [
        node._tokens[payload_id]
        for node in simulator.nodes.values()
        for payload_id in node._tokens
    ]
    for token in holders:
        assert id(token.path) not in paths
