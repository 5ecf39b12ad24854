"""Equivalence tests for the columnar observation store.

Every query must return exactly what a naive scan over the full
chronological log returns — on randomized traffic, for every filter
combination, and whichever of the store's two writers the traffic came
through (``record`` per delivery, ``record_batch`` per same-time run, or
both interleaved).  The naive reference implementations in this module
mirror the pre-index code paths (linear scans over ``sends``) that the store
replaced.
"""

import hashlib
import itertools
import random
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.threat.first_spy import FirstSpyEstimator
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.message import Message, Observation
from repro.network import observation_store
from repro.network.node import Node
from repro.network.observation_store import ObservationStore
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol
from repro.scenarios.runner import observation_log_digest
from repro.telemetry import TelemetryRecorder

KINDS = ("flood", "ad_payload", "ad_token", "dc_share")
PAYLOADS = ("tx-0", "tx-1", "tx-2", "tx-3", "tx-4")
NODES = list(range(12))
#: The node table the stores of this module are built with; both writers'
#: receiver/sender indexes point into it (node ``i`` sits at index ``i``, so
#: an id doubles as its own index).
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


def record(store, obs):
    """Append one ``Observation`` through the per-event writer."""
    return store.record(
        obs.time, obs.receiver, obs.sender, obs.message, obs.direct
    )


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
                record(store, obs)
        else:
            store.record_batch(
                time,
                [obs.receiver for obs in run],
                [obs.sender for obs in run],
                [obs.message for obs in run],
                payload_id,
                kind,
                sum(obs.message.size_bytes for obs in run),
                direct,
            )


def interleaved_log(seed, segments=600):
    """Segments of one to three rows that switch payload every time.

    Six active nodes, so relays repeat; times drawn from three values out
    of order, so there are ties and a relay's earliest delivery often
    comes after its first.
    """
    rng = random.Random(seed)
    log = []
    for index in range(segments):
        message = Message(
            kind=rng.choice(KINDS[:2]), payload_id=PAYLOADS[index % 3], size_bytes=32
        )
        time = rng.choice((0.0, 0.5, 1.0))
        direct = rng.random() < 0.2
        for _ in range(rng.randint(1, 3)):
            sender, receiver = rng.sample(NODES[:6], 2)
            log.append(Observation(time, receiver, sender, message, direct))
    return log


def store_from(log, writer="record"):
    store = ObservationStore(NODE_IDS)
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


def naive_first_relay_times(log, observers, payload_id, kinds=None):
    """The loop ``AdversaryView.first_relayers`` ran over ``Observation``s."""
    first_seen = {}
    for obs in naive_for_receivers(log, observers, payload_id, kinds):
        sender = obs.sender
        if sender in observers:
            continue
        if sender not in first_seen or obs.time < first_seen[sender]:
            first_seen[sender] = obs.time
    return first_seen


def naive_digest(log):
    """``observation_log_digest``'s definition, one object at a time."""
    digest = hashlib.sha256()
    for obs in log:
        digest.update(
            repr(
                (
                    obs.time,
                    obs.receiver,
                    obs.sender,
                    obs.message.kind,
                    obs.message.payload_id,
                    obs.message.size_bytes,
                    obs.direct,
                )
            ).encode()
        )
    return digest.hexdigest()


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


def test_recording_a_node_outside_the_table_is_refused():
    store = ObservationStore(NODE_IDS)
    message = Message(kind="flood", payload_id="tx")
    for receiver, sender in (("ghost", 0), (0, "ghost")):
        with pytest.raises(KeyError, match="ghost"):
            store.record(0.5, receiver, sender, message)
    # Nothing of a refused row was written.
    assert len(store) == 0 and store.count(payload_id="tx") == 0
    assert store.record(0.5, 1, 0, message) == 0


class TestQueryEquivalence:
    def test_log_preserved_in_order(self, traffic):
        log, store = traffic
        assert store.observations == log
        assert list(store) == log

    def test_iter_observations_is_lazy_and_live(self):
        store = ObservationStore(NODE_IDS)
        log = []
        for index in range(4):
            obs = Observation(
                float(index), receiver=index, sender=index + 1,
                message=Message(kind="flood", payload_id="tx"),
            )
            record(store, obs)
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
        record(store, extra)
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

    def test_digest(self, traffic):
        log, store = traffic
        assert observation_log_digest(SimpleNamespace(store=store)) == (
            naive_digest(log)
        )


# ----------------------------------------------------------------------
# The Hypothesis oracle: both writers interleaved, every reader checked
# ----------------------------------------------------------------------
#: The node table (mixed ``int``/``str`` ids): per-event writes name
#: nodes, a batch addresses them by position.
EVENT_NODES = np.empty(8, dtype=object)
EVENT_NODES[:] = [0, "a", 1, "b", 2, 3, "c", "d"]

_writes = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.25, 1.0]),  # time step: equal times too
        st.sampled_from(PAYLOADS[:2]),  # few payloads: ids get reused
        st.sampled_from(KINDS[:2]),
        st.booleans(),  # direct?
        st.booleans(),  # a batch, or per-event writes?
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=1, max_size=8,
        ),
    ),
    max_size=14,
)


def write_random(store, writes):
    """Apply Hypothesis-drawn writes; returns the log as objects."""
    log = []
    time = 0.0
    for step, payload_id, kind, direct, batch, pairs in writes:
        time += step
        message = Message(kind=kind, payload_id=payload_id, size_bytes=32)
        if not batch:
            for to, by in pairs:
                obs = Observation(
                    time, EVENT_NODES[to], EVENT_NODES[by], message, direct
                )
                record(store, obs)
                log.append(obs)
            continue
        to, by = zip(*pairs)
        store.record_batch(
            time, np.array(to), np.array(by), [message] * len(to),
            payload_id, kind, message.size_bytes * len(to), direct,
        )
        log.extend(
            Observation(time, EVENT_NODES[a], EVENT_NODES[b], message, direct)
            for a, b in pairs
        )
    return log


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        writes=_writes,
        observers=st.sets(st.sampled_from(list(EVENT_NODES) + ["ghost"])),
        kinds=st.one_of(st.none(), st.sets(st.sampled_from(KINDS[:3]))),
    )
    def test_every_reader_matches_a_scan_of_the_log(
        self, writes, observers, kinds
    ):
        store = ObservationStore(EVENT_NODES)
        expected = write_random(store, writes)
        log = list(store.iter_observations())
        assert log == expected
        kinds = None if kinds is None else tuple(sorted(kinds))
        assert len(store) == len(log)
        assert store.bytes_total() == sum(o.message.size_bytes for o in log)
        assert store.kind_counts() == {
            kind: naive_count(log, kind)
            for kind in dict.fromkeys(o.message.kind for o in log)
        }
        for payload_id in PAYLOADS[:3]:
            for kind in (None,) + KINDS[:2]:
                assert store.count(kind, payload_id) == (
                    naive_count(log, kind, payload_id)
                )
            assert store.of_payload(payload_id, kinds) == (
                naive_of_payload(log, payload_id, kinds)
            )
            assert store.for_receivers(observers, payload_id, kinds) == (
                naive_for_receivers(log, observers, payload_id, kinds)
            )
            assert store.first_observations(payload_id, kinds) == (
                naive_first_observations(log, payload_id, kinds)
            )
            got = store.first_relay_times(observers, payload_id, kinds)
            want = naive_first_relay_times(log, observers, payload_id, kinds)
            assert list(got.items()) == list(want.items())
            # The flood-start query: the first matching row.
            rows = store.rows(payload_id, ("flood",))
            scan = [
                row for row, obs in enumerate(log)
                if obs.message.payload_id == payload_id
                and obs.message.kind == "flood"
            ]
            assert rows == scan
            assert store.column("time", rows[:1]) == [
                log[row].time for row in scan[:1]
            ]
        assert observation_log_digest(SimpleNamespace(store=store)) == (
            naive_digest(log)
        )


# ----------------------------------------------------------------------
# The column query: first relay time per outside sender
# ----------------------------------------------------------------------
class TestFirstRelayTimes:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_on_the_random_traffic_of_this_module(self, writer):
        log = random_log(seed=5)
        store = store_from(log, writer)
        for observers in ([], [0], [3, 4, 5, 9], NODES):
            for kinds in KIND_FILTERS:
                got = store.first_relay_times(observers, "tx-1", kinds)
                want = naive_first_relay_times(
                    log, set(observers), "tx-1", kinds
                )
                assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("block", [1, 7, 64, None])
    @pytest.mark.parametrize("writer", WRITERS)
    def test_many_short_interleaved_segments(self, writer, block, monkeypatch):
        # Small blocks make the gather cut through segments everywhere.
        if block is not None:
            monkeypatch.setattr(observation_store, "_BLOCK", block)
        log = interleaved_log(seed=7)
        store = store_from(log, writer)
        for observers in ([], [0], [1, 2], NODES[:5], NODES):
            for payload_id in PAYLOADS[:4]:
                for kinds in (None, ("flood",), ("missing",)):
                    got = store.first_relay_times(observers, payload_id, kinds)
                    want = naive_first_relay_times(
                        log, set(observers), payload_id, kinds
                    )
                    assert list(got.items()) == list(want.items())

    def test_a_segment_across_a_block_boundary(self):
        # A few rows of tx-0 come first, so its 70,000-row batch straddles
        # position _BLOCK of the payload's rows; the earlier-timed rows
        # after it must still lower a relay's time without moving its key.
        head = interleaved_log(seed=8, segments=12)
        rng = np.random.default_rng(3)
        to = rng.integers(0, len(NODES), 70_000)
        by = (to + rng.integers(1, len(NODES), to.size)) % len(NODES)
        message = Message(kind="flood", payload_id="tx-0", size_bytes=32)
        batch = [
            Observation(2.0, receiver, sender, message, False)
            for receiver, sender in zip(to.tolist(), by.tolist())
        ]
        log = head + batch + interleaved_log(seed=9, segments=30)
        before = naive_count(head, payload_id="tx-0")
        assert 0 < before < observation_store._BLOCK < before + len(batch)
        store = store_from(log, "record_batch")
        for observers in ([0], [3, 4, 5, 9]):
            got = store.first_relay_times(observers, "tx-0")
            want = naive_first_relay_times(log, set(observers), "tx-0")
            assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("writer", WRITERS)
    def test_builds_no_observation(self, writer):
        store = store_from(random_log(seed=6), writer)
        store.telemetry = TelemetryRecorder()
        for payload_id in PAYLOADS:
            store.first_relay_times([0, 3, 4], payload_id)
        assert "observations_materialised" not in store.telemetry.counters

    def test_a_shared_session_is_read_per_payload_not_per_log(
        self, monkeypatch
    ):
        # three_phase keeps all broadcasts of an experiment on one store: a
        # per-payload relay table must read that payload's rows only, or B
        # broadcasts cost O(B * log).
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
        read = []
        ranges = ObservationStore._ranges

        def counting(self, *args, **kwargs):
            found = ranges(self, *args, **kwargs)
            read.append(sum(b - a for a, b in found))
            return found

        monkeypatch.setattr(ObservationStore, "_ranges", counting)
        for payload_id in payloads:
            read.clear()
            assert estimator.rank(payload_id)
            estimator.guess(payload_id)  # shares rank's table
            assert read and all(
                0 < rows <= store.count(payload_id=payload_id)
                for rows in read
            )


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
