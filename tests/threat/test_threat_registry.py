"""Registries of the attacker package: lookup, errors, creation."""

import pytest

from repro.threat import (
    ADVERSARY_MODELS,
    ESTIMATORS,
    FAULT_MODELS,
    AdversaryModel,
    DcNetCollusionEstimator,
    FaultModel,
    FirstSpyEstimator,
    RumorCentralityEstimator,
)


class TestAdversaryRegistry:
    def test_builtins_are_registered(self):
        names = ADVERSARY_MODELS.names()
        for expected in ("static", "adaptive", "eclipse", "byzantine_dcnet"):
            assert expected in names

    def test_unknown_name_raises_valueerror_listing_registered(self):
        with pytest.raises(ValueError) as excinfo:
            ADVERSARY_MODELS.lookup("quantum")
        message = str(excinfo.value)
        assert "quantum" in message
        for name in ADVERSARY_MODELS:
            assert name in message

    def test_create_instantiates_with_params(self):
        model = ADVERSARY_MODELS.create("adaptive", {"warmup": 4})
        assert model.warmup == 4

    def test_create_rejects_unknown_params(self):
        with pytest.raises(TypeError):
            ADVERSARY_MODELS.create("adaptive", {"telepathy": True})

    def test_duplicate_registration_rejected(self):
        class Dup(AdversaryModel):
            name = "static"

        with pytest.raises(ValueError):
            ADVERSARY_MODELS.register(Dup)
        assert ADVERSARY_MODELS["static"] is not Dup

    def test_nameless_registration_rejected(self):
        class NoName(AdversaryModel):
            name = ""

        with pytest.raises(ValueError):
            ADVERSARY_MODELS.register(NoName)


class TestFaultRegistry:
    def test_builtins_are_registered(self):
        assert FAULT_MODELS.names() == ("flaky_links", "regional_outage")

    def test_unknown_name_raises_valueerror_listing_registered(self):
        with pytest.raises(ValueError) as excinfo:
            FAULT_MODELS.lookup("solar_flare")
        message = str(excinfo.value)
        assert "solar_flare" in message
        assert "regional_outage" in message

    def test_create_instantiates_with_params(self):
        fault = FAULT_MODELS.create("regional_outage", {"radius": 2})
        assert fault.radius == 2

    def test_duplicate_registration_rejected(self):
        class Dup(FaultModel):
            name = "flaky_links"

        with pytest.raises(ValueError):
            FAULT_MODELS.register(Dup)


class TestEstimatorRegistry:
    def test_builtins_are_registered_under_their_names(self):
        assert dict(ESTIMATORS) == {
            "dc_collusion": DcNetCollusionEstimator,
            "first_spy": FirstSpyEstimator,
            "rumor_centrality": RumorCentralityEstimator,
        }

    def test_unknown_name_raises_valueerror_listing_registered(self):
        with pytest.raises(ValueError, match="unknown estimator 'oracle'") as excinfo:
            ESTIMATORS.lookup("oracle")
        assert "first_spy" in str(excinfo.value)

    def test_the_harness_reads_the_same_table(self):
        from repro.analysis.experiment import ESTIMATORS as harness_estimators
        from repro.analysis.experiment import resolve_estimator

        assert harness_estimators is ESTIMATORS
        assert resolve_estimator("rumor_centrality") == (
            "rumor_centrality", RumorCentralityEstimator,
        )
