"""Tests for anonymity, entropy and detection metrics."""

import math

import pytest

from repro.privacy.anonymity import anonymity_set_size, is_k_anonymous, k_anonymity_level
from repro.privacy.detection import DetectionStats, evaluate_attack
from repro.privacy.metrics import broadcast_privacy


def privacy_of(posterior):
    """``broadcast_privacy`` of a posterior over its own candidates."""
    return broadcast_privacy(posterior, next(iter(posterior)), len(posterior))


class TestAnonymity:
    def test_uniform_posterior_full_set(self):
        posterior = {node: 0.25 for node in "abcd"}
        assert anonymity_set_size(posterior) == 4
        assert k_anonymity_level(posterior) == 4
        assert is_k_anonymous(posterior, 4)
        assert not is_k_anonymous(posterior, 5)

    def test_certain_posterior(self):
        posterior = {"a": 1.0, "b": 0.0, "c": 0.0}
        assert anonymity_set_size(posterior) == 1
        assert k_anonymity_level(posterior) == 1
        assert not is_k_anonymous(posterior, 2)

    def test_skewed_posterior(self):
        posterior = {"a": 0.5, "b": 0.3, "c": 0.2}
        assert anonymity_set_size(posterior) == 3
        assert k_anonymity_level(posterior) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            anonymity_set_size({})
        with pytest.raises(ValueError):
            k_anonymity_level({})

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            is_k_anonymous({"a": 1.0}, 0)


class TestEntropy:
    def test_uniform_entropy_is_log2_n(self):
        posterior = {node: 1 / 8 for node in range(8)}
        assert privacy_of(posterior).entropy == pytest.approx(3.0)
        assert privacy_of(posterior).entropy / math.log2(8) == pytest.approx(1.0)

    def test_certain_posterior_zero_entropy(self):
        posterior = {"a": 1.0, "b": 0.0}
        assert privacy_of(posterior).entropy == pytest.approx(0.0)

    def test_unnormalised_input_handled(self):
        sample = privacy_of({"a": 2.0, "b": 2.0})
        assert sample.entropy == pytest.approx(1.0)
        assert sample.min_entropy == pytest.approx(1.0)

    def test_single_candidate_normalised_entropy(self):
        sample = privacy_of({"a": 1.0})
        assert sample.entropy == pytest.approx(0.0)
        assert sample.min_entropy == pytest.approx(0.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            privacy_of({"a": -0.5, "b": 1.5})
        with pytest.raises(ValueError):
            privacy_of({"a": 0.0})
        with pytest.raises(ValueError):
            broadcast_privacy({"a": 1.0}, "a", population=0)

    def test_entropy_monotone_in_uncertainty(self):
        concentrated = {"a": 0.9, "b": 0.05, "c": 0.05}
        spread = {"a": 0.4, "b": 0.3, "c": 0.3}
        assert privacy_of(spread).entropy > privacy_of(concentrated).entropy
        assert math.isclose(sum(concentrated.values()), 1.0)


class TestDetection:
    def test_perfect_attack(self):
        stats = evaluate_attack([("a", "a"), ("b", "b")])
        assert stats.precision == 1.0
        assert stats.recall == 1.0
        assert stats.f1 == 1.0

    def test_always_wrong(self):
        stats = evaluate_attack([("a", "x"), ("b", "y")])
        assert stats.precision == 0.0
        assert stats.recall == 0.0
        assert stats.f1 == 0.0

    def test_abstaining_attacker(self):
        stats = evaluate_attack([("a", None), ("b", None)])
        assert stats.guesses == 0
        assert stats.precision == 1.0  # vacuous precision
        assert stats.recall == 0.0

    def test_mixed_outcomes(self):
        stats = evaluate_attack([("a", "a"), ("b", "x"), ("c", None), ("d", "d")])
        assert stats.total == 4
        assert stats.guesses == 3
        assert stats.correct == 2
        assert stats.precision == pytest.approx(2 / 3)
        assert stats.recall == pytest.approx(0.5)
        assert stats.detection_probability == pytest.approx(0.5)

    def test_empty_attack(self):
        stats = evaluate_attack([])
        assert stats.recall == 0.0
        assert isinstance(stats, DetectionStats)
