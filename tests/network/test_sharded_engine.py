"""The sharded multi-process engine: partition, parity, fallback, drain.

The engine-equivalence *properties* live in
``tests/property/test_engine_equivalence.py``; this module pins the
sharded engine's unit surface:

* the committed golden observation-log digests, reproduced bit-for-bit
  under ``engine="sharded"`` (through the multi-process path where the
  configuration is eligible, through the exact in-process fallback where
  it is not);
* path selection — which configurations take the worker-process window
  loop and which must fall back (loss, jitter, per-node protocol RNG,
  ``until`` bounds, live timers, ``shards=1``), with identical results
  either way (which path a fallback lands on is pinned in
  ``tests/network/test_batched_engine.py``);
* fixed-seed equivalence scenarios the random properties are unlikely to
  hit: simultaneous multi-payload origination with heterogeneous payload
  sizes, sequential broadcasts over one session, static churn
  (failed nodes and severed links), and ``max_events`` stop + resume;
* :func:`repro.network.sharded.bfs_partition` invariants (the CSR walk
  against a naive deque BFS) and the partition cache lifecycle on the
  overlay graph;
* the parent's per-window rank merge into ``record_batch``: counters and
  log contents equal to the event engine's per-delivery ``record`` ones.
"""

import hashlib
import multiprocessing
import os
from collections import deque

import networkx as nx
import pytest

import repro.network.sharded as sharded_mod
from repro.broadcast.flood import FloodNode
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.simulator import Simulator
from repro.network.sharded import (
    bfs_order,
    bfs_partition,
    default_shard_count,
    shard_assignment,
)
from repro.network.topology import as_overlay, random_regular_overlay
from repro.protocols import create_protocol


def observation_digest(sim: Simulator) -> str:
    digest = hashlib.sha256()
    for obs in sim.iter_observations():
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


@pytest.fixture
def window_calls(monkeypatch):
    """Record whether the multi-process window loop actually ran."""
    calls = []
    original = sharded_mod._run_windows

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sharded_mod, "_run_windows", spy)
    return calls


def _flood_sim(engine, shards=None, size=80, degree=4, seed=3, run_seed=0,
               conditions=None, node_factory=FloodNode):
    overlay = random_regular_overlay(size, degree=degree, seed=seed)
    if conditions is not None:
        sim = Simulator(
            overlay, seed=run_seed, conditions=conditions,
            engine=engine, shards=shards,
        )
    else:
        sim = Simulator(
            overlay, latency=ConstantLatency(1.0), seed=run_seed,
            engine=engine, shards=shards,
        )
    sim.populate(node_factory)
    return sim


class TestGoldenLogsSharded:
    """The committed goldens, reproduced on the sharded engine.

    Same digests as ``tests/network/test_fastpath_determinism.py`` and
    ``tests/network/test_batched_engine.py`` pin — the strongest form of
    the three-engine parity contract.
    """

    def test_flood_log_unchanged(self):
        overlay = random_regular_overlay(200, degree=8, seed=3)
        protocol = create_protocol("flood")
        session = protocol.build(
            overlay, NetworkConditions.ideal(), seed=11, engine="sharded",
            shards=2,
        )
        protocol.broadcast(session, 0, "tx")
        assert observation_digest(session.simulator) == (
            "f4f67c74e1ab6a66909eea87966d0c547ef2bae70d1c9e5d50cc996786577723"
        )

    def test_gossip_log_unchanged_via_fallback(self):
        # Gossip consumes per-node RNG, so the sharded engine must decline
        # the split and still hit the exact same golden in-process.
        overlay = random_regular_overlay(200, degree=8, seed=3)
        protocol = create_protocol("gossip")
        session = protocol.build(
            overlay, NetworkConditions.ideal(), seed=12, engine="sharded",
            shards=2,
        )
        protocol.broadcast(session, 5, "tx")
        assert observation_digest(session.simulator) == (
            "a7e2ffccad25a793a845c35ef15ac6dfe411d28e79a197fec790ce57899b47a7"
        )

    def test_lossy_jittery_log_unchanged_via_fallback(self):
        overlay = random_regular_overlay(120, degree=8, seed=21)
        conditions = NetworkConditions.internet_like(
            loss_probability=0.08, jitter=0.05
        )
        sim = Simulator(
            overlay, seed=77, conditions=conditions,
            engine="sharded", shards=2,
        )
        sim.populate(FloodNode)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert sim.dropped_messages == 69
        assert observation_digest(sim) == (
            "b7cd3c318ed9d4bdd86c0f1e56af79ca49e5dfa8d8e93939b1968f70e175e43e"
        )


class TestPathSelection:
    """Which configurations split across processes, which fall back."""

    def test_clean_flood_takes_window_path(self, window_calls):
        sim = _flood_sim("sharded", shards=2)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert len(window_calls) == 1
        assert sim.metrics.reach("tx") == 80

    def test_loss_falls_back(self, window_calls):
        conditions = NetworkConditions(
            latency=ConstantLatency(1.0), loss_probability=0.1
        )
        sim = _flood_sim("sharded", shards=2, conditions=conditions)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert window_calls == []

    def test_jitter_falls_back(self, window_calls):
        conditions = NetworkConditions(
            latency=ConstantLatency(1.0), jitter=0.05
        )
        sim = _flood_sim("sharded", shards=2, conditions=conditions)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert window_calls == []

    def test_protocol_rng_falls_back(self, window_calls):
        overlay = random_regular_overlay(80, degree=4, seed=3)
        protocol = create_protocol("gossip")
        session = protocol.build(
            overlay, NetworkConditions.ideal(), seed=4, engine="sharded",
            shards=2,
        )
        protocol.broadcast(session, 0, "tx")
        assert window_calls == []

    def test_single_shard_falls_back(self, window_calls):
        sim = _flood_sim("sharded", shards=1)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert window_calls == []
        assert sim.metrics.reach("tx") == 80

    def test_until_bound_falls_back(self, window_calls):
        sim = _flood_sim("sharded", shards=2)
        sim.node(0).originate("tx")
        assert sim.run(until=50.0) == 50.0
        assert window_calls == []
        assert sim.metrics.reach("tx") == 80

    def test_live_timer_falls_back(self, window_calls):
        # Any non-delivery queue entry may observe global state between
        # cohorts, so it must force the in-process path.
        sim = _flood_sim("sharded", shards=2)
        sim.schedule(0.5, lambda: None)
        sim.node(0).originate("tx")
        sim.run_until_idle()
        assert window_calls == []
        assert sim.metrics.reach("tx") == 80

    def test_fallback_results_match_event_engine(self):
        conditions = NetworkConditions(
            latency=ConstantLatency(1.0), loss_probability=0.15
        )
        logs = {}
        for engine in ("event", "sharded"):
            sim = _flood_sim(
                engine, shards=2 if engine == "sharded" else None,
                conditions=conditions, run_seed=9,
            )
            sim.node(0).originate("tx")
            sim.run_until_idle()
            logs[engine] = (
                observation_digest(sim), sim.dropped_messages,
                sim.metrics.reach("tx"),
            )
        assert logs["sharded"] == logs["event"]


class TestDeadWorker:
    def test_worker_exit_mid_window_names_shard_and_exit_code(
        self, monkeypatch
    ):
        # Shard 1 dies on its first window, before replying: the parent's
        # blocking receive must not surface a bare EOFError (or hang) but
        # say which worker is gone and how it exited.
        original = sharded_mod._worker_main

        def dying_worker(conn, shard, static):
            if shard == 1:
                conn.recv()
                os._exit(17)
            original(conn, shard, static)

        monkeypatch.setattr(sharded_mod, "_worker_main", dying_worker)
        sim = _flood_sim("sharded", shards=2)
        sim.node(0).originate("tx")
        with pytest.raises(RuntimeError, match=r"shard 1 \(exit code 17\)"):
            sim.run_until_idle()
        # No worker outlives the failed run.
        assert multiprocessing.active_children() == []


class TestFixedEquivalence:
    """Fixed-seed scenarios the random properties are unlikely to draw."""

    @staticmethod
    def _summary(sim, payloads):
        return {
            "digest": observation_digest(sim),
            "events": len(sim.store),
            "churn_dropped": sim.churn_dropped,
            "bytes": sim.metrics.bytes_sent(),
            "reach": {p: sim.metrics.reach(p) for p in payloads},
            "completion": {
                p: sim.metrics.completion_time(p) for p in payloads
            },
        }

    def test_multi_payload_heterogeneous_sizes(self, window_calls):
        # Two simultaneous originators, per-node payload sizes: exercises
        # cross-payload rank interleaving and shard_state's node sizes.
        def sized_node(node_id):
            return FloodNode(node_id, payload_size_bytes=200 + node_id % 7 * 16)

        results = {}
        for engine, shards in (("event", None), ("sharded", 3)):
            sim = _flood_sim(
                engine, shards=shards, size=90, degree=6, seed=8,
                node_factory=sized_node,
            )
            sim.node(0).originate("tx-a")
            sim.node(45).originate("tx-b")
            sim.run_until_idle()
            results[engine] = self._summary(sim, ["tx-a", "tx-b"])
        assert results["sharded"] == results["event"]
        assert len(window_calls) == 1

    def test_sequential_broadcasts_share_seen_state(self, window_calls):
        results = {}
        for engine, shards in (("event", None), ("sharded", 2)):
            sim = _flood_sim(engine, shards=shards, size=60, degree=4)
            sim.node(0).originate("tx-1")
            sim.run_until_idle()
            sim.node(7).originate("tx-2")
            sim.run_until_idle()
            results[engine] = self._summary(sim, ["tx-1", "tx-2"])
        assert results["sharded"] == results["event"]
        # Both runs of the session split (prior seen state is mirrored
        # into the workers via shard_state's priors).
        assert len(window_calls) == 2

    def test_static_churn_and_severed_links(self, window_calls):
        results = {}
        for engine, shards in (("event", None), ("sharded", 2)):
            sim = _flood_sim(engine, shards=shards, size=70, degree=5)
            for node_id in (3, 11, 29):
                sim.fail_node(node_id)
            sim.sever_link(0, next(iter(sim.graph.neighbors(0))))
            sim.node(0).originate("tx")
            sim.run_until_idle()
            results[engine] = self._summary(sim, ["tx"])
        assert results["sharded"] == results["event"]
        # The three failed nodes stay unreached on both engines.
        assert results["event"]["reach"]["tx"] <= 67
        assert len(window_calls) == 1

    def test_max_events_stop_and_resume(self):
        full = _flood_sim("event", size=80, degree=4)
        full.node(0).originate("tx")
        full.run_until_idle()

        sim = _flood_sim("sharded", shards=2, size=80, degree=4)
        sim.node(0).originate("tx")
        sim.run(max_events=40)
        # The cap is window-granular: the run may overshoot within one
        # window but must stop with later waves still pending, and
        # pending_events must see the requeued backlog.
        assert sim.pending_events > 0
        assert sim.now < full.now
        sim.run_until_idle()
        assert observation_digest(sim) == observation_digest(full)
        assert sim.now == full.now
        assert sim.pending_events == 0


def naive_bfs_order(graph):
    """The oracle: a FIFO walk, roots and neighbours in ``repr`` order."""
    order, seen = [], set()
    for root in sorted(graph.nodes, key=repr):
        queue = deque([root] if root not in seen else [])
        seen.add(root)
        while queue:
            order.append(queue.popleft())
            for peer in sorted(graph.neighbors(order[-1]), key=repr):
                if peer not in seen:
                    seen.add(peer)
                    queue.append(peer)
    return order


def _disconnected_mixed_ids():
    graph = nx.relabel_nodes(
        random_regular_overlay(24, degree=3, seed=7).to_networkx(),
        lambda n: f"peer-{n}" if n % 3 == 0 else n,
    )
    graph.add_edges_from([("x", "y"), ("y", 99), ("z", 98)])
    graph.add_node("alone")
    return graph


class TestPartition:
    def test_blocks_cover_every_node_once(self):
        topology = random_regular_overlay(50, degree=4, seed=2)
        for parts in (1, 2, 3, 7):
            blocks = bfs_partition(topology, parts)
            assert len(blocks) == parts
            indices = [index for block in blocks for index in block.tolist()]
            assert sorted(indices) == list(range(50))
            sizes = [len(block) for block in blocks]
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize(
        "overlay",
        [
            random_regular_overlay(40, degree=4, seed=5),
            random_regular_overlay(300, degree=8, seed=1),
            nx.path_graph(9),
            nx.empty_graph(5),
            _disconnected_mixed_ids(),
        ],
        ids=["regular-40", "regular-300", "path", "edgeless", "disconnected"],
    )
    def test_csr_walk_is_the_deque_walk(self, overlay):
        topology = as_overlay(overlay)
        order = bfs_order(topology)
        assert topology.ids_array[order].tolist() == naive_bfs_order(overlay)
        blocks = bfs_partition(topology, 3)
        assert [i for block in blocks for i in block.tolist()] == order.tolist()

    def test_partition_is_deterministic(self):
        first = bfs_partition(random_regular_overlay(40, degree=4, seed=5), 4)
        again = bfs_partition(random_regular_overlay(40, degree=4, seed=5), 4)
        assert [b.tolist() for b in first] == [b.tolist() for b in again]

    def test_invalid_part_counts_rejected(self):
        topology = random_regular_overlay(10, degree=3, seed=1)
        with pytest.raises(ValueError):
            bfs_partition(topology, 0)
        with pytest.raises(ValueError):
            bfs_partition(topology, 11)

    def test_assignment_follows_the_blocks(self):
        overlay = _disconnected_mixed_ids()
        topology = as_overlay(overlay)
        assignment = shard_assignment(topology, 3)
        for shard, block in enumerate(bfs_partition(topology, 3)):
            assert (assignment[block] == shard).all()

    def test_default_shard_count_bounds(self):
        assert 2 <= default_shard_count(100_000) <= 8

    def test_assignment_kept_on_the_overlay(self):
        overlay = random_regular_overlay(30, degree=4, seed=4)
        first = shard_assignment(overlay, 3)
        assert overlay.partitions[3] is first
        assert shard_assignment(overlay, 3) is first
        # Another shard count is another partition, not stale data.
        assert shard_assignment(overlay, 2) is not first


class TestStoreAdoption:
    """The workers' rank-merged batches match the event engine's store."""

    def test_counters_and_log_match_event_engine(self):
        sims = {}
        for engine, shards in (("event", None), ("sharded", 2)):
            sim = _flood_sim(engine, shards=shards, size=60, degree=4)
            sim.node(0).originate("tx")
            sim.run_until_idle()
            sims[engine] = sim
        event, sharded = sims["event"], sims["sharded"]
        assert len(sharded.store) == len(event.store)
        assert sharded.store.kind_counts() == event.store.kind_counts()
        assert sharded.store.payload_count() == event.store.payload_count()
        assert sharded.store.count(payload_id="tx") == (
            event.store.count(payload_id="tx")
        )
        assert sharded.metrics.delivered_nodes("tx") == (
            event.metrics.delivered_nodes("tx")
        )
        assert observation_digest(sharded) == observation_digest(event)

    def test_first_flood_row_identical_on_the_sharded_path(self):
        # The flood-start query reads the merged log after the run, so it
        # needs no in-process fallback and answers as the event path does.
        first = {}
        for engine, shards in (("event", None), ("sharded", 2)):
            sim = _flood_sim(engine, shards=shards, size=40, degree=4)
            sim.node(0).originate("tx")
            sim.run_until_idle()
            assert sim.engine_effective == engine
            rows = sim.store.rows("tx", (FloodNode.MESSAGE_KIND,))
            (obs,) = sim.store.view(rows[:1])
            first[engine] = (
                rows[0], obs.time, obs.receiver, obs.sender,
                obs.message.payload_id,
            )
        assert first["sharded"] == first["event"]
