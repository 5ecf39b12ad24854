"""Tests for botnets, observer views, first-spy, rumor centrality, collusion."""

import random

import networkx as nx
import pytest

from repro.adversary.botnet import deploy_botnet, inject_supernodes
from repro.adversary.collusion import group_collusion_posterior
from repro.adversary.first_spy import FirstSpyEstimator
from repro.adversary.observer import AdversaryView
from repro.adversary.rumor_centrality import rumor_centrality, rumor_source_estimate
from repro.broadcast.flood import FloodNode
from repro.network.latency import PerEdgeLatency
from repro.network.message import Message
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay, regular_tree_overlay


class TestBotnet:
    def test_fraction_of_nodes_compromised(self):
        graph = random_regular_overlay(100, degree=4, seed=0)
        botnet = deploy_botnet(graph, 0.2, random.Random(1))
        assert len(botnet.observers) == 20
        assert botnet.fraction == 0.2

    def test_protected_nodes_never_compromised(self):
        graph = random_regular_overlay(50, degree=4, seed=0)
        botnet = deploy_botnet(graph, 0.5, random.Random(1), protected={0, 1})
        assert 0 not in botnet.observers
        assert 1 not in botnet.observers

    def test_zero_fraction(self):
        graph = random_regular_overlay(50, degree=4, seed=0)
        botnet = deploy_botnet(graph, 0.0, random.Random(1))
        assert botnet.observers == set()

    def test_invalid_fraction_rejected(self):
        graph = random_regular_overlay(50, degree=4, seed=0)
        with pytest.raises(ValueError):
            deploy_botnet(graph, 1.0, random.Random(1))

    def test_is_compromised(self):
        graph = random_regular_overlay(50, degree=4, seed=0)
        botnet = deploy_botnet(graph, 0.1, random.Random(1))
        for node in botnet.observers:
            assert botnet.is_compromised(node)

    def test_supernode_injection(self):
        graph = random_regular_overlay(50, degree=4, seed=0)
        before = graph.number_of_nodes()
        botnet = inject_supernodes(graph, count=3, connections_per_node=10,
                                   rng=random.Random(2))
        assert graph.number_of_nodes() == before + 3
        assert len(botnet.supernodes) == 3
        for spy in botnet.supernodes:
            assert graph.degree(spy) == 10

    def test_supernode_invalid_parameters(self):
        graph = random_regular_overlay(20, degree=4, seed=0)
        with pytest.raises(ValueError):
            inject_supernodes(graph, 0, 5, random.Random(0))
        with pytest.raises(ValueError):
            inject_supernodes(graph, 1, 100, random.Random(0))


def _flood_simulation(num_nodes=100, source=0, seed=0):
    graph = random_regular_overlay(num_nodes, degree=8, seed=seed)
    rng = random.Random(seed)
    sim = Simulator(graph, latency=PerEdgeLatency(rng, 0.05, 0.3), seed=seed)
    sim.populate(FloodNode)
    sim.node(source).originate("tx")
    sim.run_until_idle()
    return graph, sim


class TestAdversaryView:
    def test_only_observer_deliveries_visible(self):
        graph, sim = _flood_simulation()
        view = AdversaryView(sim, observers=[1, 2, 3])
        assert all(obs.receiver in {1, 2, 3} for obs in view.observations)

    def test_first_observation_is_earliest(self):
        graph, sim = _flood_simulation()
        view = AdversaryView(sim, observers=list(range(10, 30)))
        first = view.first_observation("tx")
        assert first is not None
        assert all(first.time <= obs.time for obs in view.observations_of("tx"))

    def test_first_observation_breaks_time_ties_by_log_position(self):
        # Two spies hear the payload at the same instant.  The message that
        # was *built* later is delivered first, so creation order and log
        # order disagree; the log decides.
        sim = Simulator(nx.complete_graph(4), seed=0)
        sim.populate(FloodNode)
        early = Message(kind="flood", payload_id="tx")
        late = Message(kind="flood", payload_id="tx")
        sim.send(3, 1, late)
        sim.send(2, 1, early)
        sim.send(3, 2, late)
        sim.run_until_idle()
        view = AdversaryView(sim, observers=[1, 2])
        tied = [obs for obs in view.observations_of("tx") if obs.time == 1.0]
        assert [(obs.sender, obs.receiver) for obs in tied[:3]] == [
            (3, 1), (2, 1), (3, 2),
        ]
        first = view.first_observation("tx")
        assert first == tied[0]
        assert view.first_observation("tx", include_direct=False) == tied[0]
        # Same answer on a kernel-written log, where a fan-out's deliveries
        # share one message and only the position tells them apart.
        batched = Simulator(nx.complete_graph(4), seed=0, engine="batched")
        batched.populate(FloodNode)
        batched.node(0).originate("tx")
        batched.run_until_idle()
        assert batched.engine_effective == "batched"
        spies = AdversaryView(batched, observers=[1, 2, 3])
        viewed = spies.observations_of("tx")
        first = spies.first_observation("tx")
        assert first == viewed[0]
        assert (first.sender, first.receiver) == (
            viewed[0].sender, viewed[0].receiver
        )

    def test_first_relayers_exclude_observers(self):
        graph, sim = _flood_simulation()
        observers = set(range(10, 30))
        view = AdversaryView(sim, observers=observers)
        relayers = view.first_relayers("tx")
        assert all(node not in observers for node in relayers)

    def test_unknown_payload_empty(self):
        graph, sim = _flood_simulation()
        view = AdversaryView(sim, observers=[1])
        assert view.observations_of("nope") == []
        assert view.first_observation("nope") is None


class TestFirstSpy:
    def test_identifies_flood_source_with_many_spies(self):
        # With 30% of a flooding network compromised the source's neighbours
        # are very likely spies, so the earliest relayer is the source itself.
        correct = 0
        for seed in range(10):
            graph, sim = _flood_simulation(num_nodes=80, source=0, seed=seed)
            rng = random.Random(seed + 100)
            observers = deploy_botnet(graph, 0.3, rng, protected={0}).observers
            estimator = FirstSpyEstimator(sim, observers)
            if estimator.guess("tx") == 0:
                correct += 1
        assert correct >= 5

    def test_abstains_without_observations(self):
        graph, sim = _flood_simulation()
        estimator = FirstSpyEstimator(sim, observers=[])
        assert estimator.guess("tx") is None
        assert estimator.posterior("tx") == {}

    def test_posterior_sums_to_one_and_ranks_first_highest(self):
        graph, sim = _flood_simulation()
        observers = set(range(20, 60))
        estimator = FirstSpyEstimator(sim, observers)
        posterior = estimator.posterior("tx")
        assert sum(posterior.values()) == pytest.approx(1.0)
        guess = estimator.guess("tx")
        assert posterior[guess] == max(posterior.values())


class TestRumorCentrality:
    def test_center_of_star_has_highest_centrality(self):
        graph = nx.star_graph(6)  # node 0 is the hub
        infected = list(graph.nodes)
        assert rumor_source_estimate(graph, infected) == 0

    def test_non_infected_candidate_scores_minus_infinity(self):
        graph = nx.path_graph(5)
        assert rumor_centrality(graph, [0, 1, 2], 4) == float("-inf")

    def test_estimates_true_source_of_symmetric_infection(self):
        # Infect a balanced ball around the true source of a regular tree:
        # the source is the rumor centre.
        graph = regular_tree_overlay(branching=3, depth=4)
        source = 0
        infected = [
            node
            for node in graph.nodes
            if nx.shortest_path_length(graph, source, node) <= 2
        ]
        assert rumor_source_estimate(graph, infected) == source

    def test_empty_infection(self):
        graph = nx.path_graph(3)
        assert rumor_source_estimate(graph, []) is None

    def test_single_infected_node(self):
        graph = nx.path_graph(3)
        assert rumor_source_estimate(graph, [1]) == 1

    def test_disconnected_snapshot_falls_back_to_component(self):
        graph = nx.path_graph(10)
        score = rumor_centrality(graph, [0, 1, 8, 9], 0)
        assert score != float("-inf")


class TestCollusion:
    def test_honest_members_indistinguishable(self):
        posterior = group_collusion_posterior(
            group=["a", "b", "c", "d", "e"], compromised=["d", "e"], true_sender="a"
        )
        assert set(posterior) == {"a", "b", "c"}
        assert all(p == pytest.approx(1 / 3) for p in posterior.values())

    def test_compromised_sender_is_exposed(self):
        posterior = group_collusion_posterior(
            group=["a", "b", "c"], compromised=["a"], true_sender="a"
        )
        assert posterior == {"a": 1.0}

    def test_no_colluders_full_anonymity(self):
        posterior = group_collusion_posterior(
            group=["a", "b", "c", "d"], compromised=[], true_sender="b"
        )
        assert all(p == pytest.approx(0.25) for p in posterior.values())

    def test_sender_not_in_group_rejected(self):
        with pytest.raises(ValueError):
            group_collusion_posterior(["a", "b"], [], true_sender="z")

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            group_collusion_posterior([], [], true_sender="a")
