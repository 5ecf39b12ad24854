"""Seed-for-seed equivalence of the registry harness with the legacy loop.

The golden numbers below were captured by running the pre-registry
``attack_experiment`` (the hard-coded if/elif implementation) at the commit
that introduced the protocol registry.  ``run_attack_experiment`` must keep
reproducing them exactly — same detection counts, same mean message counts
— under the environment that loop hard-coded per protocol: the three-phase
protocol on constant 0.1 latency (``FLAT``), the baselines on stable
per-edge 50–300 ms latency (``PER_EDGE``), all lossless with the first-spy
estimator.
"""

import pytest

from repro.analysis.experiment import run_attack_experiment
from repro.broadcast.dandelion import DandelionConfig
from repro.core.config import ProtocolConfig
from repro.network import ConstantLatency, NetworkConditions
from repro.network.topology import random_regular_overlay
from repro.protocols import create_protocol

FLAT = NetworkConditions(latency=ConstantLatency(0.1))
PER_EDGE = NetworkConditions()

# (protocol, adapter options, conditions, kwargs,
#  (total, guesses, correct, messages_per_broadcast, floor))
GOLDEN = [
    ("flood", {}, PER_EDGE,
     dict(adversary_fraction=0.3, broadcasts=6, seed=0),
     (6, 6, 3, 301.0, 1)),
    ("flood", {}, PER_EDGE,
     dict(adversary_fraction=0.15, broadcasts=5, seed=7),
     (5, 5, 4, 301.0, 1)),
    ("dandelion", {}, PER_EDGE,
     dict(adversary_fraction=0.2, broadcasts=5, seed=1),
     (5, 5, 1, 308.0, 1)),
    ("dandelion", dict(config=DandelionConfig(fluff_probability=0.2)),
     PER_EDGE, dict(adversary_fraction=0.3, broadcasts=4, seed=3),
     (4, 4, 1, 307.25, 1)),
    ("three_phase",
     dict(config=ProtocolConfig(group_size=4, diffusion_depth=2)), FLAT,
     dict(adversary_fraction=0.2, broadcasts=4, seed=2),
     (4, 4, 0, 531.25, 4)),
    ("three_phase",
     dict(config=ProtocolConfig(group_size=5, diffusion_depth=2)), FLAT,
     dict(adversary_fraction=0.3, broadcasts=3, seed=5),
     (3, 3, 1, 681.3333333333334, 5)),
]


@pytest.fixture(scope="module")
def overlay():
    return random_regular_overlay(60, degree=6, seed=1)


class TestLegacyShimEquivalence:
    @pytest.mark.parametrize(
        "protocol, options, conditions, kwargs, expected",
        GOLDEN,
        ids=[f"{p}-seed{kw['seed']}" for p, _, _, kw, _ in GOLDEN],
    )
    def test_shim_reproduces_pre_registry_results(
        self, overlay, protocol, options, conditions, kwargs, expected
    ):
        result = run_attack_experiment(
            overlay, create_protocol(protocol, **options),
            conditions=conditions, **kwargs,
        )
        total, guesses, correct, messages, floor = expected
        assert result.protocol == protocol
        assert result.detection.total == total
        assert result.detection.guesses == guesses
        assert result.detection.correct == correct
        assert result.messages_per_broadcast == pytest.approx(messages)
        assert result.anonymity_floor == floor

    def test_shim_matches_explicit_registry_call(self, overlay):
        """A registry name is exactly the adapter instance it resolves to."""
        via_shim = run_attack_experiment(
            overlay, "flood", adversary_fraction=0.3, broadcasts=6, seed=0,
            conditions=PER_EDGE,
        )
        explicit = run_attack_experiment(
            overlay,
            create_protocol("flood"),
            adversary_fraction=0.3,
            broadcasts=6,
            seed=0,
            conditions=NetworkConditions(),
        )
        assert via_shim == explicit

    def test_shim_matches_explicit_three_phase_call(self, overlay):
        """Two adapters built from one config agree, shared or fresh conditions."""
        config = ProtocolConfig(group_size=4, diffusion_depth=2)
        via_shim = run_attack_experiment(
            overlay, create_protocol("three_phase", config=config),
            adversary_fraction=0.2, broadcasts=4, seed=2, conditions=FLAT,
        )
        explicit = run_attack_experiment(
            overlay,
            create_protocol("three_phase", config=config),
            adversary_fraction=0.2,
            broadcasts=4,
            seed=2,
            conditions=NetworkConditions(latency=ConstantLatency(0.1)),
        )
        assert via_shim == explicit

    def test_shim_rejects_unknown_protocol(self, overlay):
        with pytest.raises(ValueError):
            run_attack_experiment(overlay, "carrier-pigeon", 0.1)

    def test_shim_accepts_newly_registered_protocols(self, overlay):
        """Gossip and adaptive diffusion are reachable by name too."""
        result = run_attack_experiment(
            overlay, "gossip", adversary_fraction=0.2, broadcasts=3, seed=4
        )
        assert result.protocol == "gossip"
        assert result.detection.total == 3
        assert 0.0 < result.mean_reach <= 1.0


class TestDeterminism:
    def test_experiment_is_seed_deterministic(self, overlay):
        runs = [
            run_attack_experiment(
                overlay, "dandelion", adversary_fraction=0.25,
                broadcasts=4, seed=9,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_estimators_are_pluggable(self, overlay):
        first_spy = run_attack_experiment(
            overlay, "flood", adversary_fraction=0.3, broadcasts=3, seed=6,
            estimator="first_spy",
        )
        snapshot = run_attack_experiment(
            overlay, "flood", adversary_fraction=0.3, broadcasts=3, seed=6,
            estimator="rumor_centrality",
        )
        assert first_spy.estimator == "first_spy"
        assert snapshot.estimator == "rumor_centrality"
        # Same protocol runs (same seeds), different adversary analytics.
        assert first_spy.messages_per_broadcast == snapshot.messages_per_broadcast
        assert snapshot.detection.total == 3

    def test_unknown_estimator_rejected(self, overlay):
        with pytest.raises(ValueError, match="unknown estimator"):
            run_attack_experiment(
                overlay, "flood", 0.2, broadcasts=2, seed=0,
                estimator="crystal-ball",
            )
