"""``collector_paused``: scoped, restoring, and used where the run allocates.

The collector's state is process-wide, so every test here compares
``gc.isenabled()`` / ``gc.get_threshold()`` before and after: no public entry
point may leave either changed, whatever path the run took and however it
ended.
"""

import gc
import multiprocessing

import networkx as nx
import pytest

import repro.network.sharded as sharded_mod
from repro.broadcast.flood import FloodNode
from repro.network.collector import collector_paused
from repro.network.latency import ConstantLatency
from repro.network.message import Message
from repro.network.node import Node
from repro.network.observation_store import ObservationStore
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay


def _collector_state():
    return gc.isenabled(), gc.get_threshold()


@pytest.fixture(params=[True, False], ids=["gc_on", "gc_off"])
def collector(request):
    """Run the test once under each collector state a caller may have set."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestCollectorPaused:
    def test_pauses_inside_and_restores_after(self, collector):
        before = _collector_state()
        with collector_paused():
            assert not gc.isenabled()
            assert gc.get_threshold() == before[1]
        assert _collector_state() == before

    def test_restores_when_the_block_raises(self, collector):
        before = _collector_state()
        with pytest.raises(KeyError):
            with collector_paused():
                raise KeyError("boom")
        assert _collector_state() == before

    def test_nests(self, collector):
        before = _collector_state()
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            # The inner exit must not re-enable under the outer pause.
            assert not gc.isenabled()
        assert _collector_state() == before

    def test_never_enables_a_collector_the_caller_disabled(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with collector_paused():
                pass
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()

    def test_works_as_a_decorator_on_reentrant_calls(self, collector):
        before = _collector_state()

        @collector_paused()
        def depth(n):
            assert not gc.isenabled()
            return n if n == 0 else depth(n - 1)

        assert depth(3) == 0
        assert _collector_state() == before


class _Probe(Node):
    """Reports what the collector is doing while the simulator runs."""

    seen = None

    def on_message(self, sender, message):
        type(self).seen = gc.isenabled()
        if message.kind == "explode":
            raise ValueError("handler failed")


def _flood(engine, shards=None):
    sim = Simulator(
        random_regular_overlay(60, degree=4, seed=2),
        latency=ConstantLatency(0.1), seed=1, engine=engine, shards=shards,
    )
    sim.populate(FloodNode)
    sim.node(0).originate("tx")
    return sim


class TestSimulatorRun:
    def test_handlers_run_under_the_pause(self, collector):
        sim = Simulator(nx.path_graph(3), seed=0)
        sim.populate(_Probe)
        sim.send(0, 1, Message(kind="ping", payload_id="t"))
        before = _collector_state()
        sim.run_until_idle()
        assert _Probe.seen is False
        assert _collector_state() == before

    def test_state_restored_when_run_raises(self, collector):
        sim = Simulator(nx.path_graph(3), seed=0)
        sim.populate(_Probe)
        sim.send(0, 1, Message(kind="explode", payload_id="t"))
        before = _collector_state()
        with pytest.raises(ValueError, match="handler failed"):
            sim.run()
        assert _collector_state() == before

    @pytest.mark.parametrize(
        "engine,shards", [("event", None), ("batched", None), ("sharded", 2)]
    )
    def test_state_unchanged_by_run_and_readers(
        self, collector, engine, shards
    ):
        sim = _flood(engine, shards)
        before = _collector_state()
        sim.run_until_idle()
        assert sim.engine_effective == engine
        assert _collector_state() == before
        # Every reader below views the store's columns as objects.
        assert sum(1 for _ in sim.iter_observations()) == len(sim.store)
        assert _collector_state() == before
        sim.observations_for([1, 2, 3])
        sim.store.of_payload("tx")
        sim.metrics.first_observations("tx")
        assert _collector_state() == before
        assert multiprocessing.active_children() == []

    def test_bounded_runs_restore_every_time(self, collector):
        sim = _flood("batched")
        before = _collector_state()
        while sim.pending_events:
            sim.run(until=sim.now + 0.1)
            assert _collector_state() == before

    def test_shard_workers_inherit_the_pause(self, monkeypatch):
        # The parent forks inside the paused stretch, so no worker ever
        # runs a collection over the pages it shares with the parent.
        original = sharded_mod._worker_main

        def checking_worker(conn, shard, static):
            if gc.isenabled():
                conn.recv()
                conn.send(("error", f"shard {shard}: collector is enabled"))
                return
            original(conn, shard, static)

        monkeypatch.setattr(sharded_mod, "_worker_main", checking_worker)
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            sim = _flood("sharded", shards=2)
            sim.run_until_idle()
            assert sim.engine_effective == "sharded"
            assert sim.metrics.reach("tx") == 60
            assert gc.isenabled()
        finally:
            if not was_enabled:
                gc.disable()

    def test_state_restored_when_a_shard_worker_dies(
        self, collector, monkeypatch
    ):
        def dying_worker(conn, shard, static):
            conn.recv()
            raise SystemExit(3)

        monkeypatch.setattr(sharded_mod, "_worker_main", dying_worker)
        sim = _flood("sharded", shards=2)
        before = _collector_state()
        with pytest.raises(RuntimeError, match="sharded worker died"):
            sim.run_until_idle()
        assert _collector_state() == before


class TestStoreSync:
    @staticmethod
    def _store_with_pending_batch():
        import numpy as np

        ids = np.empty(3, dtype=object)
        ids[:] = ["a", "b", "c"]
        store = ObservationStore()
        store.record_batch(
            1.0, ids, np.array([1, 2]), np.array([0, 0]),
            [Message(kind="flood", payload_id="tx")] * 2, "tx", "flood", 512,
        )
        return store

    def test_materialising_restores_state(self, collector):
        store = self._store_with_pending_batch()
        before = _collector_state()
        assert [obs.receiver for obs in store] == ["b", "c"]
        assert _collector_state() == before

    def test_indexing_recorded_entries_restores_state(self, collector):
        store = ObservationStore()
        store.record(0.5, "b", "a", Message(kind="flood", payload_id="tx"))
        before = _collector_state()
        assert len(store.for_receivers(["b"])) == 1
        assert _collector_state() == before

    def test_a_synced_store_does_not_touch_the_collector(self, monkeypatch):
        store = self._store_with_pending_batch()
        store.observations
        calls = []
        monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
        store.for_receivers(["b"])
        store.of_payload("tx")
        assert calls == []
