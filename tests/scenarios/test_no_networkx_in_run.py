"""A run on a random-regular overlay never builds a networkx graph.

The overlay is a CSR from the generator to the report: the spec's topology
is paired on arrays, and every layer a run passes through reads the
:class:`~repro.network.topology.Overlay`.  The only networkx graph left is
the one rumor centrality walks, built once per overlay by
``Overlay.to_networkx``.  Counted here, not timed.
"""

import importlib

import networkx as nx
import pytest

from repro.network.topology import Overlay
from repro.scenarios import (
    AdversarySpec,
    ConditionsSpec,
    TopologySpec,
    WorkloadSpec,
    run_scenario_once,
    scenario,
)

# The package re-exports a function of the same name.
rumor_module = importlib.import_module("repro.threat.rumor_centrality")

TOPOLOGY = TopologySpec("random_regular", {"num_nodes": 60, "degree": 6, "seed": 4})


def _flood(engine, shards=None):
    return scenario("e4_broadcast_deanonymization").derive(
        topology=TOPOLOGY,
        conditions=ConditionsSpec(kind="ideal", delay=0.1),
        workload=WorkloadSpec(broadcasts=2),
        engine=engine,
        shards=shards,
    )


def _three_phase():
    return scenario("e7_three_phase_end_to_end").derive(
        topology=TOPOLOGY, workload=WorkloadSpec(broadcasts=2)
    )


def _rumor():
    return scenario("e4_broadcast_deanonymization").derive(
        topology=TOPOLOGY,
        adversary=AdversarySpec(fraction=0.2, estimator="rumor_centrality"),
        workload=WorkloadSpec(broadcasts=2),
    )


@pytest.fixture
def networkx_refused(monkeypatch):
    """Building a networkx graph raises, except inside rumor centrality."""
    inside = []

    def guarded(init):
        def refuse(self, *args, **kwargs):
            if not inside:
                raise AssertionError("a networkx graph was built during the run")
            init(self, *args, **kwargs)

        return refuse

    for cls in (nx.Graph, nx.DiGraph):
        monkeypatch.setattr(cls, "__init__", guarded(cls.__init__))
    centrality = rumor_module.rumor_centrality

    def counted_centrality(*args, **kwargs):
        inside.append(True)
        try:
            return centrality(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(rumor_module, "rumor_centrality", counted_centrality)
    builds = []
    to_networkx = Overlay.to_networkx

    def counted_to_networkx(self):
        if self._networkx is None:
            builds.append(id(self))
        return to_networkx(self)

    monkeypatch.setattr(Overlay, "to_networkx", counted_to_networkx)
    return builds


@pytest.mark.parametrize(
    "make_spec,engine",
    [
        (lambda: _flood("batched"), "batched"),
        (lambda: _flood("sharded", 2), "sharded"),
        (_three_phase, "event"),
    ],
    ids=["flood_batched", "flood_sharded", "three_phase"],
)
def test_a_run_builds_no_networkx_graph(networkx_refused, make_spec, engine):
    result = run_scenario_once(make_spec())
    assert result.engine_effective == engine
    assert networkx_refused == []


def test_rumor_centrality_builds_one_networkx_graph_per_overlay(
    networkx_refused,
):
    result = run_scenario_once(_rumor())
    assert result.estimator == "rumor_centrality"
    assert len(networkx_refused) == 1
