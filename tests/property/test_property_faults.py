"""Property-based invariants of the fault & adversary machinery.

Four laws the link/churn/threat layers must hold under *any* drawn
schedule, not just the committed presets:

* an offline or fully eclipsed node receives nothing, ever;
* message conservation — every ``send()`` either delivers (one
  observation) or is a counted ``churn_dropped``;
* a regional outage with a duration is fully transient: adjacency after
  the restore equals adjacency before the fault;
* the adaptive attacker's monitored sets are always valid — inside the
  overlay, outside the protected set, within budget.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.flood import FloodNode
from repro.network.churn import ChurnEvent, ChurnSchedule
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.threat import AdaptiveMonitoringAdversary, RegionalOutageFault

NODES = 24
DEGREE = 4


def _simulator(topology_seed, sim_seed=0):
    graph = random_regular_overlay(
        num_nodes=NODES, degree=DEGREE, seed=topology_seed
    )
    simulator = Simulator(graph, seed=sim_seed)
    simulator.populate(FloodNode)
    return simulator, graph


@settings(max_examples=25, deadline=None)
@given(
    topology_seed=st.integers(min_value=0, max_value=50),
    victim=st.integers(min_value=0, max_value=NODES - 1),
    origin=st.integers(min_value=0, max_value=NODES - 1),
    eclipse=st.booleans(),
)
def test_offline_or_eclipsed_node_never_receives(
    topology_seed, victim, origin, eclipse
):
    if victim == origin:
        origin = (origin + 1) % NODES
    simulator, graph = _simulator(topology_seed)
    if eclipse:
        # Sever every overlay link of the victim (a total eclipse).
        for peer in graph.neighbors(victim):
            simulator.sever_link(victim, peer)
    else:
        simulator.fail_node(victim)
    simulator.node(origin).originate("tx")
    simulator.run_until_idle()
    assert victim not in simulator.metrics.delivered_nodes("tx")
    assert all(
        observation.receiver != victim
        for observation in simulator.store.iter_observations()
    )


@settings(max_examples=25, deadline=None)
@given(
    topology_seed=st.integers(min_value=0, max_value=50),
    events=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=NODES - 1),
            st.sampled_from(["leave", "rejoin"]),
        ),
        max_size=12,
    ),
    origins=st.lists(
        st.integers(min_value=0, max_value=NODES - 1),
        min_size=1, max_size=3, unique=True,
    ),
)
def test_churn_dropped_accounts_for_every_lost_send(
    topology_seed, events, origins
):
    simulator, graph = _simulator(topology_seed)
    ChurnSchedule(tuple(
        ChurnEvent(time, node, action) for time, node, action in events
    )).apply(simulator)

    sends = 0
    real_send_all = simulator.send_all

    def counting_send_all(sender, receivers, message, direct=False):
        nonlocal sends
        receivers = list(receivers)
        sends += len(receivers)
        return real_send_all(sender, receivers, message, direct=direct)

    simulator.send_all = counting_send_all
    for index, origin in enumerate(origins):
        simulator.node(origin).originate(f"tx-{index}")
    simulator.run_until_idle()
    # With zero loss, every transmission either lands (one observation)
    # or is a counted churn drop; nothing vanishes silently.
    receipts = len(simulator.store)
    assert simulator.churn_dropped == sends - receipts


@settings(max_examples=25, deadline=None)
@given(
    topology_seed=st.integers(min_value=0, max_value=50),
    fault_seed=st.integers(min_value=0, max_value=1000),
    radius=st.integers(min_value=1, max_value=3),
)
def test_regional_outage_restore_returns_adjacency_to_prefault_state(
    topology_seed, fault_seed, radius
):
    simulator, graph = _simulator(topology_seed)
    before = {node: simulator.neighbours_of(node) for node in graph}
    fault = RegionalOutageFault(radius=radius, start=0.5, duration=1.0)
    fault.schedule(graph, random.Random(fault_seed)).apply(simulator)
    simulator.run(until=1.0)
    assert simulator.offline_nodes  # the outage really happened
    simulator.run_until_idle()
    assert not simulator.offline_nodes
    after = {node: simulator.neighbours_of(node) for node in graph}
    assert after == before


@settings(max_examples=25, deadline=None)
@given(
    topology_seed=st.integers(min_value=0, max_value=50),
    placement_seed=st.integers(min_value=0, max_value=1000),
    protected=st.sets(
        st.integers(min_value=0, max_value=NODES - 1), max_size=4
    ),
    rounds=st.lists(
        st.dictionaries(
            # Scores may mention ids outside the overlay (a buggy or
            # adversarial estimator); the model must never monitor them.
            st.integers(min_value=-5, max_value=NODES + 5),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            max_size=8,
        ),
        min_size=1, max_size=5,
    ),
)
def test_adaptive_monitored_sets_are_always_valid(
    topology_seed, placement_seed, protected, rounds
):
    graph = random_regular_overlay(
        num_nodes=NODES, degree=DEGREE, seed=topology_seed
    )
    model = AdaptiveMonitoringAdversary(warmup=1)
    placed = model.place(
        graph, 0.2, random.Random(placement_seed), protected=protected
    )
    budget = model._budget
    assert placed <= set(graph.nodes)
    assert not placed & protected
    for index, scores in enumerate(rounds):
        monitored = model.after_broadcast(
            f"tx-{index}", 0, scores, graph, protected
        )
        if monitored is None:
            continue
        assert monitored <= set(graph.nodes)
        assert not monitored & protected
        assert len(monitored) <= budget
