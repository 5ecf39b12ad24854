"""Adversary & fault models driven through the full scenario layer.

The registry and model unit tests live under ``tests/threat``; this module
asserts the *integration*: a registered :class:`ScenarioSpec` compiles,
runs through :func:`run_attack_experiment`, and the model's behaviour —
including a full :mod:`repro.dcnet.blame` verdict — is visible from the
scenario surface.
"""

import dataclasses

import pytest

from repro.analysis.experiment import run_attack_experiment
from repro.scenarios import (
    AdversarySpec,
    FaultSpec,
    ScenarioSpec,
    scenario,
)
from repro.scenarios.runner import (
    compile_scenario,
    experiment_metrics,
    run_scenario_once,
)


def _run_with_model(spec: ScenarioSpec, seed: int):
    """Mirror run_scenario_once but keep a handle on the model instance."""
    compiled = compile_scenario(spec)
    model = spec.adversary.build()
    result = run_attack_experiment(
        compiled.graph,
        compiled.protocol,
        spec.adversary.fraction,
        broadcasts=spec.workload.broadcasts,
        seed=seed,
        conditions=compiled.conditions,
        estimator=spec.adversary.estimator,
        sender_pool=spec.workload.sender_pool,
        session_hook=compiled.session_hook,
        privacy=False,
        adversary=model,
    )
    return result, model


class TestByzantineInsideScenario:
    """A Byzantine member disrupts DC-net rounds inside a full spec run."""

    def test_flip_blames_exactly_the_disruptor_and_expels(self):
        spec = scenario("adv_byzantine_blame_expel").derive(
            workload=dataclasses.replace(
                scenario("adv_byzantine_blame_expel").workload, broadcasts=3
            )
        )
        result, model = _run_with_model(spec, seed=spec.seeds.base_seed)
        verdict = model.last_verdict
        assert verdict is not None
        # Exactly one member blamed, and it is the injected disruptor —
        # never the honest sender whose frame was flipped.
        assert len(verdict.blamed) == 1
        assert verdict.blamed[0] == model.last_disruptor
        assert not verdict.dissolve_recommended
        metrics = result.adversary_metrics
        assert metrics["blame_rounds"] > 0
        assert metrics["blame_correct_attributions"] == metrics["blame_rounds"]
        assert metrics["blame_expelled"] > 0
        assert metrics["blame_dissolved"] == 0

    def test_withhold_is_unattributable_and_dissolves(self):
        spec = scenario("adv_byzantine_blame_dissolve").derive(
            workload=dataclasses.replace(
                scenario("adv_byzantine_blame_dissolve").workload,
                broadcasts=3,
            )
        )
        result, model = _run_with_model(spec, seed=spec.seeds.base_seed)
        verdict = model.last_verdict
        assert verdict is not None
        assert verdict.blamed == []
        assert verdict.dissolve_recommended
        metrics = result.adversary_metrics
        assert metrics["blame_dissolved"] == metrics["blame_rounds"] > 0
        assert metrics["blame_blamed_total"] == 0

    def test_blame_metrics_surface_in_scenario_metrics(self):
        result = run_scenario_once(scenario("adv_byzantine_blame_expel"))
        metrics = experiment_metrics(result)
        assert metrics["adversary_blame_rounds"] > 0
        assert metrics["adversary_blame_overhead_messages"] > 0


class TestAdaptiveSeedParity:
    def test_disabled_adaptive_matches_static_seed_for_seed(self):
        base = scenario("adv_adaptive_mixed_senders")
        disabled = base.derive(
            adversary=dataclasses.replace(
                base.adversary, model_params={"enabled": False}
            )
        )
        static = base.derive(
            adversary=dataclasses.replace(
                base.adversary, model="static", model_params={}
            )
        )
        seed = base.seeds.base_seed
        m_disabled = experiment_metrics(run_scenario_once(disabled, seed))
        m_static = experiment_metrics(run_scenario_once(static, seed))
        # The disabled model consumes the identical RNG stream, so every
        # shared metric (detection, reach, privacy) matches exactly; only
        # its own adversary_* counters are extra.
        extra = {k for k in m_disabled if k.startswith("adversary_")}
        assert {k: v for k, v in m_disabled.items() if k not in extra} \
            == m_static
        assert m_disabled["adversary_adaptive_enabled"] == 0.0
        assert m_disabled["adversary_adaptive_repositions"] == 0.0


class TestSpecValidation:
    def test_unknown_estimator_rejected_at_construction(self):
        with pytest.raises(ValueError) as excinfo:
            AdversarySpec(estimator="crystal_ball")
        message = str(excinfo.value)
        assert "crystal_ball" in message
        assert "first_spy" in message

    def test_unknown_adversary_model_rejected_at_construction(self):
        with pytest.raises(ValueError) as excinfo:
            AdversarySpec(model="quantum")
        message = str(excinfo.value)
        assert "quantum" in message
        for name in ("static", "adaptive", "eclipse", "byzantine_dcnet"):
            assert name in message

    def test_bad_model_params_rejected_at_construction(self):
        with pytest.raises(TypeError):
            AdversarySpec(model="adaptive", model_params={"telepathy": True})

    def test_unknown_fault_model_rejected_at_construction(self):
        with pytest.raises(ValueError) as excinfo:
            FaultSpec(model="solar_flare")
        message = str(excinfo.value)
        assert "solar_flare" in message
        assert "regional_outage" in message


class TestSpecSerialization:
    def test_model_and_faults_round_trip(self):
        spec = scenario("fault_regional_outage")
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        spec = scenario("adv_byzantine_blame_expel")
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.adversary.model == "byzantine_dcnet"

    def test_default_spec_dict_omits_new_fields(self):
        # Digest stability: pre-existing specs must serialize exactly as
        # they did before the adversary/fault fields existed.
        data = scenario("e4_broadcast_deanonymization").to_dict()
        assert "faults" not in data
        assert "model" not in data["adversary"]
        assert "model_params" not in data["adversary"]
