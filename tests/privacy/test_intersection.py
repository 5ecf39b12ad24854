"""The multi-round intersection attack: combination math and end-to-end power."""

import pytest

from repro.privacy.intersection import IntersectionAttack, combine_posteriors
from repro.privacy.metrics import broadcast_privacy


def entropy(posterior):
    """Shannon entropy (bits) of a posterior, as the metrics engine reports it."""
    return broadcast_privacy(posterior, next(iter(posterior)), len(posterior)).entropy


class TestCombinePosteriors:
    def test_consistent_suspect_wins(self):
        combined = combine_posteriors([
            {"s": 0.5, "x": 0.5},
            {"s": 0.5, "y": 0.5},
            {"s": 0.5, "z": 0.5},
        ])
        assert max(combined, key=combined.get) == "s"
        assert combined["s"] > 0.9

    def test_single_round_is_identity(self):
        combined = combine_posteriors([{"a": 0.75, "b": 0.25}])
        assert combined["a"] == pytest.approx(0.75)
        assert combined["b"] == pytest.approx(0.25)

    def test_empty_rounds_are_skipped(self):
        assert combine_posteriors([]) == {}
        assert combine_posteriors([{}, {}]) == {}
        combined = combine_posteriors([{}, {"a": 1.0}, {}])
        assert combined == {"a": 1.0}

    def test_entropy_drops_with_consistent_rounds(self):
        one_round = {"s": 0.4, "x": 0.3, "y": 0.3}
        rounds = [one_round, {"s": 0.4, "u": 0.3, "v": 0.3}]
        assert entropy(combine_posteriors(rounds)) < entropy(one_round)

    def test_floor_prevents_single_round_veto(self):
        # "s" is missing from one round; the floor keeps it alive, and its
        # two strong rounds still dominate the churny alternatives.
        rounds = [
            {"s": 0.9, "x": 0.1},
            {"y": 0.5, "z": 0.5},
            {"s": 0.9, "w": 0.1},
        ]
        combined = combine_posteriors(rounds)
        assert combined["s"] > 0.0
        assert max(combined, key=combined.get) == "s"

    def test_tiny_probabilities_do_not_underflow(self):
        # Denormal-scale tail probabilities must not crash the log floor.
        rounds = [{"s": 1.0, "x": 5e-324}, {"s": 1.0, "y": 5e-324}]
        combined = combine_posteriors(rounds)
        assert combined["s"] == pytest.approx(1.0)

    def test_bad_floor_rejected(self):
        with pytest.raises(ValueError):
            combine_posteriors([{"a": 1.0}], floor_ratio=0.0)
        with pytest.raises(ValueError):
            IntersectionAttack(floor_ratio=-1.0)


class TestIntersectionAttack:
    def test_accumulates_per_key(self):
        attack = IntersectionAttack()
        attack.observe("w1", {"a": 0.5, "b": 0.5})
        attack.observe("w1", {"a": 0.5, "c": 0.5})
        attack.observe("w2", {})
        assert attack.keys() == ["w1", "w2"]
        assert attack.rounds("w1") == 2
        assert attack.rounds("w2") == 0
        combined = attack.combined("w1")
        assert max(combined, key=combined.get) == "a"
        assert attack.combined("w2") == {}
        assert attack.combined("unknown") == {}

    def test_outcomes_cover_every_key(self):
        attack = IntersectionAttack()
        attack.observe("w1", {"a": 1.0})
        attack.observe("w2", {})
        outcomes = attack.outcomes()
        assert [key for key, _, _ in outcomes] == ["w1", "w2"]
        assert outcomes[0][1] == 1 and outcomes[1][1] == 0

    def test_observe_copies_scores(self):
        attack = IntersectionAttack()
        scores = {"a": 1.0}
        attack.observe("w", scores)
        scores["b"] = 5.0
        assert attack.combined("w") == {"a": 1.0}


class TestEndToEndDegradation:
    """The acceptance claim: linking rounds beats single-round first-spy."""

    @pytest.fixture(scope="class")
    def mixed_senders_result(self):
        from repro.scenarios import run_scenario_once, scenario

        return run_scenario_once(scenario("stress_mixed_senders"))

    def test_intersection_degrades_anonymity_on_mixed_senders(
        self, mixed_senders_result
    ):
        privacy = mixed_senders_result.privacy
        assert privacy is not None and privacy.intersection is not None
        linker = privacy.intersection
        # Five wallet hosts originate ten broadcasts: every sender has
        # linked rounds to multiply.
        assert linker.senders <= 5
        assert linker.rounds_mean > 1.0
        # The combined posterior is strictly sharper than the mean
        # single-round posterior, and names senders at least as often.
        assert linker.entropy < privacy.entropy
        assert linker.entropy_reduction > 0.0
        assert linker.top1_success >= privacy.top_k_success[0]

    def test_intersection_is_far_from_blind(self, mixed_senders_result):
        import math

        privacy = mixed_senders_result.privacy
        population = privacy.population
        blind_entropy = math.log2(population)
        blind_rank = (population + 1) / 2
        # The linked attacker is nowhere near the blind baseline the
        # three-phase protocol aims for: the posterior is concentrated and
        # the true wallet hosts rank near the top.
        assert privacy.intersection.entropy < blind_entropy / 2
        assert privacy.intersection.expected_rank < blind_rank / 5

