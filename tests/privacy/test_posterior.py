"""The posterior protocol: estimator surfaces and their argmax contract."""

import pytest

from repro.threat.botnet import deploy_botnet
from repro.threat.collusion import DcNetCollusionEstimator
from repro.threat.first_spy import FirstSpyEstimator
from repro.threat.rumor_centrality import RumorCentralityEstimator
from repro.network.conditions import NetworkConditions
from repro.network.topology import random_regular_overlay
from repro.privacy.posterior import (
    argmax,
    canonical_order,
    estimator_rank,
    normalize,
)
from repro.protocols import create_protocol


class TestPrimitives:
    def test_canonical_order_sorts_by_score_then_repr(self):
        scores = {"b": 1.0, "a": 1.0, "c": 2.0}
        assert [node for node, _ in canonical_order(scores)] == ["c", "a", "b"]

    def test_argmax_matches_canonical_order_head(self):
        scores = {"b": 1.0, "a": 1.0, "c": 2.0}
        assert argmax(scores) == canonical_order(scores)[0][0]
        assert argmax({}) is None

    def test_normalize(self):
        assert normalize({"a": 2.0, "b": 2.0}) == {"a": 0.5, "b": 0.5}
        assert normalize({}) == {}
        with pytest.raises(ValueError):
            normalize({"a": -1.0})
        with pytest.raises(ValueError):
            normalize({"a": 0.0})

    def test_estimator_rank_prefers_rank_method(self):
        class Ranked:
            def guess(self, payload_id):
                return "wrong"

            def rank(self, payload_id):
                return {"right": 1.0}

        assert estimator_rank(Ranked(), "tx") == {"right": 1.0}

    def test_estimator_rank_falls_back_to_point_mass(self):
        class PointGuess:
            def guess(self, payload_id):
                return "suspect" if payload_id == "tx" else None

        assert estimator_rank(PointGuess(), "tx") == {"suspect": 1.0}
        assert estimator_rank(PointGuess(), "other") == {}


@pytest.fixture(scope="module")
def flood_attack():
    """One flooded broadcast plus a 30% botnet, shared by the surface tests."""
    graph = random_regular_overlay(60, degree=6, seed=1)
    proto = create_protocol("flood")
    session = proto.build(graph, NetworkConditions(), seed=3)
    botnet = deploy_botnet(graph, 0.3, session.rng, protected={0})
    proto.broadcast(session, 0, "tx-1")
    return session, botnet


class TestFirstSpySurface:
    def test_guess_is_argmax_of_rank(self, flood_attack):
        session, botnet = flood_attack
        estimator = FirstSpyEstimator(session.simulator, botnet.observers)
        scores = estimator.rank("tx-1")
        assert scores
        assert estimator.guess("tx-1") == argmax(scores)

    def test_rank_orders_by_first_seen_time(self, flood_attack):
        session, botnet = flood_attack
        estimator = FirstSpyEstimator(session.simulator, botnet.observers)
        times = estimator.view.first_relayers("tx-1")
        scores = estimator.rank("tx-1")
        assert set(scores) == set(times)
        by_time = sorted(times, key=lambda n: (times[n], repr(n)))
        by_score = [node for node, _ in canonical_order(scores)]
        assert by_time == by_score

    def test_unseen_payload_is_blind(self, flood_attack):
        session, botnet = flood_attack
        estimator = FirstSpyEstimator(session.simulator, botnet.observers)
        assert estimator.rank("never-sent") == {}
        assert estimator.guess("never-sent") is None
        assert estimator.posterior("never-sent") == {}

    def test_posterior_is_normalised_rank(self, flood_attack):
        session, botnet = flood_attack
        estimator = FirstSpyEstimator(session.simulator, botnet.observers)
        posterior = estimator.posterior("tx-1")
        assert sum(posterior.values()) == pytest.approx(1.0)
        assert argmax(posterior) == estimator.guess("tx-1")


class TestRumorCentralitySurface:
    def test_guess_is_argmax_of_rank(self, flood_attack):
        session, _ = flood_attack
        estimator = RumorCentralityEstimator(session.simulator)
        scores = estimator.rank("tx-1")
        assert scores
        assert estimator.guess("tx-1") == argmax(scores)

    def test_guess_matches_module_level_estimate(self, flood_attack):
        from repro.threat.rumor_centrality import rumor_source_from_metrics

        session, _ = flood_attack
        estimator = RumorCentralityEstimator(session.simulator)
        assert estimator.guess("tx-1") == rumor_source_from_metrics(
            session.graph, session.simulator.metrics, "tx-1"
        )

    def test_prime_suspect_scores_one(self, flood_attack):
        session, _ = flood_attack
        scores = RumorCentralityEstimator(session.simulator).rank("tx-1")
        assert max(scores.values()) == pytest.approx(1.0)

    def test_empty_snapshot_is_blind(self, flood_attack):
        session, _ = flood_attack
        estimator = RumorCentralityEstimator(session.simulator)
        assert estimator.rank("never-sent") == {}
        assert estimator.guess("never-sent") is None


class TestDcCollusionSurface:
    @pytest.fixture(scope="class")
    def three_phase_session(self):
        graph = random_regular_overlay(24, degree=6, seed=2)
        proto = create_protocol("three_phase")
        session = proto.build(graph, NetworkConditions(), seed=4)
        proto.broadcast(session, 0, "tx-dc")
        return session

    def _group(self, session):
        system = session.state["system"]
        return set(system.directory.members_of(0))

    def test_spy_in_group_sees_honest_members(self, three_phase_session):
        session = three_phase_session
        group = self._group(session)
        spy = sorted(group - {0}, key=repr)[0]
        estimator = DcNetCollusionEstimator(session.simulator, {spy})
        scores = estimator.rank("tx-dc")
        assert scores
        assert set(scores) <= group - {spy}
        # Uniform over the honest members: ℓ-anonymity, made visible.
        assert len(set(scores.values())) == 1
        # More than one honest member left: the colluder must abstain.
        assert estimator.guess("tx-dc") is None

    def test_full_collusion_exposes_the_sender(self, three_phase_session):
        session = three_phase_session
        group = self._group(session)
        colluders = group - {0}
        estimator = DcNetCollusionEstimator(session.simulator, colluders)
        assert estimator.rank("tx-dc") == {0: 1.0}
        assert estimator.guess("tx-dc") == 0

    def test_outside_observer_is_blind(self, three_phase_session):
        session = three_phase_session
        group = self._group(session)
        outsiders = set(session.graph.nodes) - group
        spy = sorted(outsiders, key=repr)[0]
        estimator = DcNetCollusionEstimator(session.simulator, {spy})
        assert estimator.rank("tx-dc") == {}
        assert estimator.guess("tx-dc") is None


class TestHarnessIntegration:
    def test_dc_collusion_estimator_registered(self):
        from repro.analysis.experiment import run_attack_experiment
        from repro.threat import ESTIMATORS

        assert ESTIMATORS["dc_collusion"] is DcNetCollusionEstimator
        graph = random_regular_overlay(30, degree=6, seed=5)
        result = run_attack_experiment(
            graph, "three_phase", 0.3, broadcasts=2, seed=1,
            estimator="dc_collusion",
        )
        assert result.estimator == "dc_collusion"
        assert result.privacy is not None
        # Colluders cannot break ℓ-anonymity: at most full-collusion guesses.
        assert result.detection.precision in (0.0, 1.0)

    def test_detection_identical_with_privacy_on_and_off(self):
        from repro.analysis.experiment import run_attack_experiment

        graph = random_regular_overlay(40, degree=6, seed=6)
        with_privacy = run_attack_experiment(
            graph, "flood", 0.25, broadcasts=4, seed=2
        )
        without = run_attack_experiment(
            graph, "flood", 0.25, broadcasts=4, seed=2, privacy=False
        )
        assert without.privacy is None
        assert with_privacy.privacy is not None
        assert with_privacy.detection == without.detection
        assert (
            with_privacy.messages_per_broadcast
            == without.messages_per_broadcast
        )

