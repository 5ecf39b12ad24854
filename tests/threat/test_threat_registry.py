"""Registries of the adversary & fault library: lookup, errors, creation."""

import pytest

from repro.threat import (
    AdversaryModel,
    FaultModel,
    available_adversary_models,
    available_fault_models,
    create_adversary_model,
    create_fault_model,
    register_adversary_model,
    register_fault_model,
    validate_adversary_model,
    validate_fault_model,
)


class TestAdversaryRegistry:
    def test_builtins_are_registered(self):
        names = available_adversary_models()
        for expected in ("static", "adaptive", "eclipse", "byzantine_dcnet"):
            assert expected in names

    def test_unknown_name_raises_valueerror_listing_registered(self):
        with pytest.raises(ValueError) as excinfo:
            validate_adversary_model("quantum")
        message = str(excinfo.value)
        assert "quantum" in message
        for name in available_adversary_models():
            assert name in message

    def test_create_instantiates_with_params(self):
        model = create_adversary_model("adaptive", {"warmup": 4})
        assert model.warmup == 4

    def test_create_rejects_unknown_params(self):
        with pytest.raises(TypeError):
            create_adversary_model("adaptive", {"telepathy": True})

    def test_duplicate_registration_rejected(self):
        class Dup(AdversaryModel):
            name = "static"

        with pytest.raises(ValueError):
            register_adversary_model(Dup)

    def test_nameless_registration_rejected(self):
        class NoName(AdversaryModel):
            name = ""

        with pytest.raises(ValueError):
            register_adversary_model(NoName)


class TestFaultRegistry:
    def test_builtins_are_registered(self):
        names = available_fault_models()
        assert "regional_outage" in names
        assert "flaky_links" in names

    def test_unknown_name_raises_valueerror_listing_registered(self):
        with pytest.raises(ValueError) as excinfo:
            validate_fault_model("solar_flare")
        message = str(excinfo.value)
        assert "solar_flare" in message
        assert "regional_outage" in message

    def test_create_instantiates_with_params(self):
        fault = create_fault_model("regional_outage", {"radius": 2})
        assert fault.radius == 2

    def test_duplicate_registration_rejected(self):
        class Dup(FaultModel):
            name = "flaky_links"

        with pytest.raises(ValueError):
            register_fault_model(Dup)
