"""Equivalence tests for the indexed observation store.

Every indexed query must return exactly what a naive scan over the full
chronological log returns — on randomized traffic, for every filter
combination, and whichever of the store's two writers the traffic came
through (``record`` per delivery, ``record_batch`` per same-time run, or
both interleaved).  The naive reference implementations in this module
mirror the pre-index code paths (linear scans over ``sends``) that the store
replaced.
"""

import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.first_spy import FirstSpyEstimator
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.message import Message, Observation
from repro.network.node import Node
from repro.network.observation_store import ObservationStore
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol

KINDS = ("flood", "ad_payload", "ad_token", "dc_share")
PAYLOADS = ("tx-0", "tx-1", "tx-2", "tx-3", "tx-4")
NODES = list(range(12))
#: The id table ``record_batch`` resolves receiver/sender indexes against
#: (node ``i`` sits at index ``i``, so an id doubles as its own index).
NODE_IDS = np.empty(len(NODES), dtype=object)
NODE_IDS[:] = NODES


def random_log(seed, length=400):
    """A randomized chronological traffic log.

    Deliveries come in same-time runs of one ``(payload, kind)`` pair (one
    to four long), the shape a cohort kernel hands to ``record_batch``.
    """
    rng = random.Random(seed)
    time = 0.0
    log = []
    while len(log) < length:
        time += rng.uniform(0.0, 0.5)
        kind = rng.choice(KINDS)
        payload_id = rng.choice(PAYLOADS)
        direct = rng.random() < 0.2
        for _ in range(rng.randint(1, 4)):
            sender, receiver = rng.sample(NODES, 2)
            log.append(
                Observation(
                    time=time,
                    receiver=receiver,
                    sender=sender,
                    message=Message(
                        kind=kind,
                        payload_id=payload_id,
                        size_bytes=rng.randrange(16, 512),
                    ),
                    direct=direct,
                )
            )
    return log[:length]


WRITERS = ("record", "record_batch", "interleaved")


def write(store, log, writer="record"):
    """Feed ``log`` to ``store`` through the chosen writer, run by run."""
    runs = itertools.groupby(
        log,
        key=lambda o: (o.time, o.message.payload_id, o.message.kind, o.direct),
    )
    for index, ((time, payload_id, kind, direct), run) in enumerate(runs):
        run = list(run)
        if writer == "record" or (writer == "interleaved" and index % 2):
            for obs in run:
                store.record(obs)
        else:
            store.record_batch(
                time,
                NODE_IDS,
                [obs.receiver for obs in run],
                [obs.sender for obs in run],
                [obs.message for obs in run],
                payload_id,
                kind,
                sum(obs.message.size_bytes for obs in run),
                direct,
            )


def store_from(log, writer="record"):
    store = ObservationStore()
    write(store, log, writer)
    return store


# ----------------------------------------------------------------------
# Naive reference implementations (the old linear-scan semantics)
# ----------------------------------------------------------------------
def naive_count(log, kind=None, payload_id=None):
    return sum(
        1
        for obs in log
        if (kind is None or obs.message.kind == kind)
        and (payload_id is None or obs.message.payload_id == payload_id)
    )


def naive_of_payload(log, payload_id, kinds=None):
    return [
        obs
        for obs in log
        if obs.message.payload_id == payload_id
        and (kinds is None or obs.message.kind in kinds)
    ]


def naive_first_observations(log, payload_id, kinds=None):
    first = {}
    for obs in log:
        if obs.message.payload_id != payload_id:
            continue
        if kinds is not None and obs.message.kind not in kinds:
            continue
        if obs.receiver not in first:
            first[obs.receiver] = obs
    return first


def naive_for_receivers(log, receivers, payload_id=None, kinds=None):
    receiver_set = set(receivers)
    return [
        obs
        for obs in log
        if obs.receiver in receiver_set
        and (payload_id is None or obs.message.payload_id == payload_id)
        and (kinds is None or obs.message.kind in kinds)
    ]


# ----------------------------------------------------------------------
# Equivalence on randomized traffic
# ----------------------------------------------------------------------
@pytest.fixture(
    scope="module",
    params=[
        (1, "record"), (2, "record"), (3, "record"),
        (1, "record_batch"), (1, "interleaved"),
    ],
    ids=["1", "2", "3", "record_batch", "interleaved"],
)
def traffic(request):
    seed, writer = request.param
    log = random_log(seed=seed)
    return log, store_from(log, writer)


KIND_FILTERS = [None, ("flood",), ("flood", "ad_token"), ("missing",), KINDS]


class TestCountEquivalence:
    def test_counts_match_naive_scan(self, traffic):
        log, store = traffic
        for kind in (None,) + KINDS + ("missing",):
            for payload_id in (None,) + PAYLOADS + ("missing",):
                assert store.count(kind=kind, payload_id=payload_id) == (
                    naive_count(log, kind, payload_id)
                ), (kind, payload_id)

    def test_multi_kind_counts(self, traffic):
        log, store = traffic
        for payload_id in (None,) + PAYLOADS:
            for kinds in KIND_FILTERS:
                if kinds is None:
                    continue
                expected = sum(naive_count(log, kind, payload_id) for kind in kinds)
                assert store.count_for(payload_id, kinds) == expected

    def test_duplicate_kinds_not_double_counted(self, traffic):
        log, store = traffic
        assert store.count_for(None, ("flood", "flood")) == naive_count(
            log, "flood"
        )

    def test_totals(self, traffic):
        log, store = traffic
        assert len(store) == len(log)
        assert store.bytes_total() == sum(o.message.size_bytes for o in log)
        assert store.payload_count() == len(
            {o.message.payload_id for o in log}
        )
        assert store.kind_counts() == {
            kind: naive_count(log, kind)
            for kind in {o.message.kind for o in log}
        }


class TestQueryEquivalence:
    def test_log_preserved_in_order(self, traffic):
        log, store = traffic
        assert store.observations == log
        assert list(store) == log

    def test_iter_observations_is_lazy_and_live(self):
        store = ObservationStore()
        log = []
        for index in range(4):
            obs = Observation(
                float(index), receiver=index, sender=index + 1,
                message=Message(kind="flood", payload_id="tx"),
            )
            store.record(obs)
            log.append(obs)
        view = store.iter_observations()
        assert iter(view) is view  # an iterator, not a copy
        consumed = [next(view), next(view)]
        assert consumed == log[:2]
        # Appended entries become visible to an in-flight iterator.
        extra = Observation(
            99.0, receiver=0, sender=1,
            message=Message(kind="flood", payload_id="late"),
        )
        store.record(extra)
        remaining = list(view)
        assert remaining == log[2:] + [extra]

    def test_of_payload(self, traffic):
        log, store = traffic
        for payload_id in PAYLOADS + ("missing",):
            for kinds in KIND_FILTERS:
                assert store.of_payload(payload_id, kinds) == (
                    naive_of_payload(log, payload_id, kinds)
                ), (payload_id, kinds)

    def test_first_observations(self, traffic):
        log, store = traffic
        for payload_id in PAYLOADS + ("missing",):
            for kinds in KIND_FILTERS:
                assert store.first_observations(payload_id, kinds) == (
                    naive_first_observations(log, payload_id, kinds)
                ), (payload_id, kinds)

    def test_for_receivers(self, traffic):
        log, store = traffic
        rng = random.Random(99)
        subsets = [[], [0], NODES, rng.sample(NODES, 4), rng.sample(NODES, 7)]
        for receivers in subsets:
            for payload_id in (None, "tx-1", "missing"):
                for kinds in KIND_FILTERS:
                    assert store.for_receivers(receivers, payload_id, kinds) == (
                        naive_for_receivers(log, receivers, payload_id, kinds)
                    ), (receivers, payload_id, kinds)


# ----------------------------------------------------------------------
# The column query: first relay time per outside sender
# ----------------------------------------------------------------------
def first_relayers_by_loop(store, observers, payload_id, kinds=None):
    """The loop ``AdversaryView.first_relayers`` ran over ``Observation``s."""
    first_seen = {}
    for obs in store.for_receivers(observers, payload_id, kinds):
        sender = obs.sender
        if sender is None or sender in observers:
            continue
        if sender not in first_seen or obs.time < first_seen[sender]:
            first_seen[sender] = obs.time
    return first_seen


#: Mixed ``int``/``str`` ids; a batch addresses them by position.  Few ids
#: and mostly-batched runs, so that several outside senders reaching an
#: observer inside one pending batch — where key order is at stake — is
#: the common case rather than a one-in-a-thousand draw.
RELAY_IDS = np.empty(5, dtype=object)
RELAY_IDS[:] = [0, "a", 1, "b", 2]
_slots = st.integers(min_value=0, max_value=len(RELAY_IDS) - 1)
_relay_runs = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.25, 1.0]),  # time step: equal times too
        st.sampled_from(PAYLOADS[:2]),
        st.sampled_from(KINDS[:2]),
        st.sampled_from([True, True, True, False]),  # through record_batch?
        st.lists(
            st.tuples(_slots, st.one_of(_slots, _slots, _slots, st.none())),
            min_size=1, max_size=8,
        ),
    ),
    max_size=12,
)


class TestFirstRelayTimes:
    @settings(max_examples=200, deadline=None)
    @given(
        runs=_relay_runs,
        # Observers send too, and one ("ghost") is in no batch's id table.
        observers=st.sets(st.sampled_from([0, "a", 1, "ghost"])),
        kinds=st.one_of(
            st.none(), st.lists(st.sampled_from(KINDS[:3]), max_size=3)
        ),
    )
    def test_equals_the_loop_over_objects_key_order_included(
        self, runs, observers, kinds
    ):
        store = ObservationStore()
        time = 0.0
        for step, payload_id, kind, batched, pairs in runs:
            time += step
            message = Message(kind=kind, payload_id=payload_id)
            if batched:
                # A batch has no ``None`` sender: fall back to the slot.
                store.record_batch(
                    time, RELAY_IDS,
                    np.array([to for to, _ in pairs]),
                    np.array([to if by is None else by for to, by in pairs]),
                    [message] * len(pairs), payload_id, kind,
                    message.size_bytes * len(pairs),
                )
            else:
                for to, by in pairs:
                    sender = None if by is None else RELAY_IDS[by]
                    store.record(
                        Observation(time, RELAY_IDS[to], sender, message)
                    )
        pending = len(store._pending)
        got = [
            store.first_relay_times(
                observers, payload_id, None if kinds is None else iter(kinds)
            )
            for payload_id in PAYLOADS[:2]
        ]
        assert len(store._pending) == pending  # nothing was materialised
        for payload_id, table in zip(PAYLOADS[:2], got):
            want = first_relayers_by_loop(
                store, observers, payload_id,
                None if kinds is None else tuple(kinds),
            )
            assert list(table.items()) == list(want.items())

    @pytest.mark.parametrize("writer", WRITERS)
    def test_on_the_random_traffic_of_this_module(self, writer):
        log = random_log(seed=5)
        store = store_from(log, writer)
        for observers in ([], [0], [3, 4, 5, 9], NODES):
            for kinds in KIND_FILTERS:
                got = store.first_relay_times(observers, "tx-1", kinds)
                want = first_relayers_by_loop(
                    store_from(log), set(observers), "tx-1", kinds
                )
                assert list(got.items()) == list(want.items())

    def test_cost_is_the_smaller_index_side_not_the_log(self):
        log = random_log(seed=8, length=2000)
        store = store_from(log)
        store.first_relay_times([0], "tx-0")  # indexes the log, once
        touched = store._log = CountingLog(store._log)
        for payload_id in PAYLOADS:
            for observers in ([0], NODES):
                touched.count = 0
                store.first_relay_times(observers, payload_id)
                assert touched.count == min(
                    len(naive_for_receivers(log, observers)),
                    len(naive_of_payload(log, payload_id)),
                )

    def test_a_shared_session_is_read_per_payload_not_per_log(self):
        # three_phase keeps all broadcasts of an experiment on one store: a
        # per-payload relay table must cost that payload's traffic (or the
        # observers', whichever is smaller), or B broadcasts cost O(B * log).
        graph = random_regular_overlay(60, degree=4, seed=2)
        protocol = create_protocol("three_phase")
        session = protocol.build(
            graph, NetworkConditions(latency=ConstantLatency(0.1)), seed=5
        )
        nodes = sorted(graph.nodes)
        payloads = [f"tx-{index}" for index in range(20)]
        for index, payload_id in enumerate(payloads):
            protocol.broadcast(session, nodes[index], payload_id)
        store = session.simulator.store
        estimator = FirstSpyEstimator(session.simulator, nodes[40:52])
        estimator.guess(payloads[0])  # indexes the per-event log, once
        log = store._log = CountingLog(store._log)
        for payload_id in payloads[1:]:
            log.count = 0
            assert estimator.rank(payload_id)
            estimator.guess(payload_id)  # shares rank's table
            assert 0 < log.count <= store.count(payload_id=payload_id)
        assert not store._pending and len(log) == len(store)


class CountingLog(list):
    """A log that counts the positions readers touch."""

    count = 0

    def __getitem__(self, position):
        self.count += 1
        return super().__getitem__(position)


class TestFirstObservationHooks:
    def test_hook_fires_once_on_first_match(self):
        store = ObservationStore()
        log = random_log(seed=7, length=100)
        seen = []
        store.on_first("tx-1", "flood", seen.append)
        for obs in log:
            store.record(obs)
        expected = naive_of_payload(log, "tx-1", ("flood",))
        assert seen == expected[:1]

    def test_hook_fires_immediately_when_registered_late(self):
        log = random_log(seed=8, length=100)
        store = store_from(log)
        seen = []
        store.on_first("tx-2", "flood", seen.append)
        assert seen == naive_of_payload(log, "tx-2", ("flood",))[:1]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_hook_fires_once_at_its_position_for_every_writer(self, writer):
        # Registered while earlier batches are still unmaterialised; the
        # pair's first delivery arrives later.  Exactly one call, with the
        # observation that sits at that log position.
        log = random_log(seed=11, length=200)
        expected = naive_of_payload(log, "tx-3", ("ad_token",))[0]
        cut = log.index(expected)
        store = store_from(log[:cut], writer)
        seen = []
        store.on_first("tx-3", "ad_token", seen.append)
        assert seen == []
        write(store, log[cut:], writer)
        assert seen == [expected]
        assert store.observations[cut] is seen[0]
        assert not store.has_pending_first_hooks
        # Registered after the fact, with batches pending: fires at once.
        late = []
        store.record_batch(
            log[-1].time + 1.0, NODE_IDS, [0], [1], [log[-1].message],
            log[-1].message.payload_id, log[-1].message.kind, 0,
        )
        store.on_first("tx-3", "ad_token", late.append)
        assert late == [expected]

    def test_hook_never_fires_without_match(self):
        store = store_from(random_log(seed=9, length=50))
        seen = []
        store.on_first("tx-0", "no-such-kind", seen.append)
        assert seen == []

    def test_cancelled_hook_never_fires(self):
        store = ObservationStore()
        seen = []
        cancel = store.on_first("tx", "flood", seen.append)
        cancel()
        store.record(
            Observation(
                time=1.0,
                receiver=1,
                sender=0,
                message=Message(kind="flood", payload_id="tx"),
            )
        )
        assert seen == []
        cancel()  # cancelling twice is a harmless no-op

    def test_cancel_after_fire_is_noop(self):
        log = random_log(seed=10, length=50)
        store = store_from(log)
        payload_id = log[0].message.payload_id
        kind = log[0].message.kind
        seen = []
        cancel = store.on_first(payload_id, kind, seen.append)
        assert seen == [log[0]]
        cancel()

    def test_cancel_preserves_sibling_hooks(self):
        store = ObservationStore()
        first, second = [], []
        cancel_first = store.on_first("tx", "flood", first.append)
        store.on_first("tx", "flood", second.append)
        cancel_first()
        obs = Observation(
            time=1.0,
            receiver=1,
            sender=0,
            message=Message(kind="flood", payload_id="tx"),
        )
        store.record(obs)
        assert first == []
        assert second == [obs]

    def test_multiple_hooks_all_fire(self):
        store = ObservationStore()
        first, second = [], []
        store.on_first("tx", "flood", first.append)
        store.on_first("tx", "flood", second.append)
        obs = Observation(
            time=1.0,
            receiver=1,
            sender=0,
            message=Message(kind="flood", payload_id="tx"),
        )
        store.record(obs)
        store.record(obs)
        assert first == [obs]
        assert second == [obs]


class TestSimulatorIntegration:
    """The simulator's metrics answers must match scans of its own log."""

    @pytest.fixture(scope="class")
    def sim(self):
        class GossipyNode(Node):  # randomized multi-payload traffic
            def on_start(self):
                rng = self.simulator.rng
                for index in range(3):
                    payload = f"tx-{rng.randrange(3)}"
                    kind = rng.choice(["flood", "ad_payload"])
                    for peer in self.neighbours:
                        if rng.random() < 0.5:
                            self.send(
                                peer, Message(kind=kind, payload_id=payload)
                            )
                    self.mark_delivered(payload)

            def on_message(self, sender, message):
                pass

        sim = Simulator(nx.random_regular_graph(4, 20, seed=3), seed=11)
        sim.populate(GossipyNode)
        sim.run_until_idle()
        return sim

    def test_mixed_filter_message_count(self, sim):
        log = sim.observations
        for kind in (None, "flood", "ad_payload"):
            for payload_id in (None, "tx-0", "tx-1", "tx-2", "missing"):
                assert sim.metrics.message_count(kind, payload_id) == (
                    naive_count(log, kind, payload_id)
                )

    def test_first_observations_match(self, sim):
        log = sim.observations
        for payload_id in ("tx-0", "tx-1", "tx-2"):
            assert sim.metrics.first_observations(payload_id) == (
                naive_first_observations(log, payload_id)
            )
            assert sim.metrics.first_observations(payload_id, ("flood",)) == (
                naive_first_observations(log, payload_id, ("flood",))
            )

    def test_observations_for_matches(self, sim):
        log = sim.observations
        observers = [0, 3, 7, 19]
        assert sim.observations_for(observers) == naive_for_receivers(
            log, observers
        )

    def test_delivery_queries_match_naive(self, sim):
        deliveries = sim.metrics.deliveries
        for payload_id in ("tx-0", "tx-1", "tx-2", "missing"):
            entries = sorted(
                (time, node)
                for (node, payload), time in deliveries.items()
                if payload == payload_id
            )
            assert sim.metrics.delivered_nodes(payload_id) == [
                node for _, node in entries
            ]
            assert sim.metrics.reach(payload_id) == len(entries)
            assert sim.metrics.completion_time(payload_id) == (
                max(t for t, _ in entries) if entries else None
            )
