"""Spec serialization: JSON round-trips and identical run digests."""

import json
import random

import pytest

from repro.network.churn import ChurnEvent
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency, PerEdgeLatency
from repro.scenarios import (
    AdversarySpec,
    ChurnSpec,
    ConditionsSpec,
    PrivacySpec,
    ScenarioRunner,
    ScenarioSpec,
    SeedPolicy,
    TopologySpec,
    WorkloadSpec,
    available_scenarios,
    scenario,
)

#: A cheap but fully loaded spec: every field away from its default,
#: including churn with both a random part and explicit pinned events.
FULL_SPEC = ScenarioSpec(
    name="roundtrip_probe",
    description="every field populated",
    topology=TopologySpec(
        "small_world",
        {"num_nodes": 40, "neighbours": 6,
         "shortcut_probability": 0.2, "seed": 3},
    ),
    conditions=ConditionsSpec(
        kind="internet_like", low=0.02, high=0.2,
        loss_probability=0.05, jitter=0.01,
    ),
    protocol="gossip",
    protocol_options={"fanout": 3},
    adversary=AdversarySpec(fraction=0.15, estimator="rumor_centrality"),
    workload=WorkloadSpec(broadcasts=4, sender_pool=3),
    seeds=SeedPolicy(base_seed=77, repetitions=2),
    churn=ChurnSpec(
        leave_fraction=0.1, leave_time=0.2, rejoin_after=1.5,
        events=(ChurnEvent(0.9, 7, "leave"),),
    ),
    privacy=PrivacySpec(top_k=(1, 2, 4), intersection=False),
    tags=("test", "full"),
)


class TestRoundTrip:
    def test_full_spec_round_trips(self):
        assert ScenarioSpec.from_json(FULL_SPEC.to_json()) == FULL_SPEC

    def test_round_trip_is_stable_text(self):
        # Serializing the deserialized spec yields byte-identical JSON.
        once = FULL_SPEC.to_json()
        assert ScenarioSpec.from_json(once).to_json() == once

    @pytest.mark.parametrize("name", available_scenarios())
    def test_every_registered_preset_round_trips(self, name):
        spec = scenario(name)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_round_tripped_spec_runs_to_identical_digest(self):
        runner = ScenarioRunner(processes=1)
        original = runner.run(FULL_SPEC)
        reloaded = runner.run(ScenarioSpec.from_json(FULL_SPEC.to_json()))
        assert original.digest == reloaded.digest
        assert original.runs == reloaded.runs


class TestConditionsSpec:
    def test_ideal_builds_constant_latency(self):
        conditions = ConditionsSpec(kind="ideal", delay=0.5).build()
        assert isinstance(conditions, NetworkConditions)
        assert isinstance(conditions.latency, ConstantLatency)
        assert conditions.latency.delay(0, 1) == 0.5

    def test_internet_like_builds_per_edge_latency(self):
        conditions = ConditionsSpec(
            kind="internet_like", low=0.1, high=0.2
        ).build()
        model = conditions.build_latency(random.Random(0))
        assert isinstance(model, PerEdgeLatency)
        assert 0.1 <= model.delay(0, 1) <= 0.2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ConditionsSpec(kind="quantum")

    def test_internet_like_matches_default_conditions_draws(self):
        # The spec's "internet_like" must be draw-for-draw equal to the
        # historical NetworkConditions() default — that equivalence is what
        # lets the refactored benchmarks keep their golden numbers.
        spec_model = ConditionsSpec().build().build_latency(random.Random(9))
        default_model = NetworkConditions().build_latency(random.Random(9))
        for edge in [(0, 1), (3, 2), (5, 5)]:
            assert spec_model.delay(*edge) == default_model.delay(*edge)


class TestSpecValidation:
    def test_unknown_topology_family_rejected(self):
        with pytest.raises(ValueError):
            TopologySpec("torus", {})

    def test_misspelt_topology_param_rejected_where_it_enters(self):
        # A typo used to pass validation and die as a TypeError inside the
        # generator call at build() time; it must fail at parse time, as a
        # ValueError that lists what the family accepts.
        text = FULL_SPEC.to_json().replace('"neighbours"', '"neighbors"')
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec.from_json(text)
        message = str(excinfo.value)
        assert "'neighbors'" in message and "small_world" in message
        for accepted in ("num_nodes", "neighbours", "shortcut_probability"):
            assert accepted in message

    def test_unknown_protocol_rejected_at_load(self):
        # Used to load fine and fail only when the spec was compiled.
        data = json.loads(FULL_SPEC.to_json())
        data["protocol"] = "nope"
        with pytest.raises(ValueError, match="unknown protocol 'nope'"):
            ScenarioSpec.from_json(json.dumps(data))

    def test_unknown_protocol_option_rejected_at_load(self):
        data = json.loads(FULL_SPEC.to_json())
        data["protocol_options"] = {"fan_out": 3}
        with pytest.raises(TypeError, match="fan_out"):
            ScenarioSpec.from_json(json.dumps(data))

    def test_adversary_fraction_bounds(self):
        with pytest.raises(ValueError):
            AdversarySpec(fraction=1.0)

    def test_workload_bounds(self):
        with pytest.raises(ValueError):
            WorkloadSpec(broadcasts=0)
        with pytest.raises(ValueError):
            WorkloadSpec(broadcasts=2, sender_pool=0)

    def test_seed_policy_bounds(self):
        with pytest.raises(ValueError):
            SeedPolicy(repetitions=0)

    def test_churn_bounds(self):
        with pytest.raises(ValueError):
            ChurnSpec(leave_fraction=1.2)
        with pytest.raises(ValueError):
            ChurnSpec(leave_fraction=0.1, rejoin_after=-1.0)

    def test_privacy_bounds(self):
        with pytest.raises(ValueError):
            PrivacySpec(top_k=())
        with pytest.raises(ValueError):
            PrivacySpec(top_k=(3, 1))

    def test_privacy_top_k_normalised_to_tuple(self):
        # JSON delivers lists; the spec stores (and compares) tuples.
        assert PrivacySpec(top_k=[1, 2]).top_k == (1, 2)
        assert PrivacySpec(top_k=[1, 2]) == PrivacySpec(top_k=(1, 2))

    def test_privacy_build(self):
        assert PrivacySpec(enabled=False).build() is None
        config = PrivacySpec(top_k=(2,), intersection=False).build()
        assert config is not None
        assert config.top_k == (2,)
        assert config.intersection is False

    def test_derive_replaces_fields(self):
        derived = FULL_SPEC.derive(protocol="flood", protocol_options={})
        assert derived.protocol == "flood"
        assert derived.topology == FULL_SPEC.topology
        assert FULL_SPEC.protocol == "gossip"  # original untouched
