"""Property tests for the metric identities of the privacy engine.

The identities pinned here are the definitions the docs promise
(``docs/PRIVACY.md``): a uniform posterior over ``n`` candidates carries
``log2(n)`` bits of entropy, a point mass carries none, top-k success is
monotone in ``k``, and the streaming accumulator is exactly the mean of
its per-broadcast samples.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.privacy.intersection import combine_posteriors
from repro.privacy.metrics import PrivacyAccumulator, broadcast_privacy
from repro.privacy.posterior import argmax, canonical_order, normalize

#: Candidate populations: small enough to stay fast, large enough to bite.
sizes = st.integers(min_value=1, max_value=64)

#: Raw posterior surfaces: up to 16 string-named candidates with positive
#: weights spanning twelve orders of magnitude.
posteriors = st.dictionaries(
    st.text(alphabet="abcdefghij", min_size=1, max_size=3),
    st.floats(min_value=1e-9, max_value=1e3),
    min_size=1,
    max_size=16,
)

#: Near-ties Hypothesis found: the two leaders are 1 ulp apart and become
#: exactly equal after a log-space product (first) or after normalisation
#: (second), so the ``repr`` tie-break may legitimately pick either.
NEAR_TIE_PRODUCT = {"a": 999.9999999999999, "b": 1.0, "c": 836.0, "aa": 1000.0}
NEAR_TIE_NORMALISED = {
    "a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0,
    "f": 1000.0, "aa": 90.0, "ab": 999.9999999999999,
}


def privacy_of(scores):
    """``broadcast_privacy`` of a surface over its own candidates (the
    entropies do not depend on the truth or on a larger population)."""
    return broadcast_privacy(scores, next(iter(scores)), len(scores))


def maximises(candidate, scores) -> bool:
    """Whether ``candidate`` holds the top score up to a relative 1e-12."""
    return scores[candidate] >= max(scores.values()) * (1.0 - 1e-12)


class TestEntropyIdentities:
    @given(n=sizes)
    def test_uniform_posterior_has_log2_n_entropy(self, n):
        sample = privacy_of({i: 1.0 / n for i in range(n)})
        assert sample.entropy == pytest.approx(math.log2(n))
        assert sample.min_entropy == pytest.approx(math.log2(n))

    @given(n=sizes, weight=st.floats(min_value=1e-6, max_value=1e6))
    def test_point_mass_has_zero_entropy(self, n, weight):
        posterior = {0: weight}
        posterior.update({i: 0.0 for i in range(1, n)})
        sample = privacy_of(posterior)
        assert sample.entropy == pytest.approx(0.0)
        assert sample.min_entropy == pytest.approx(0.0)

    @given(scores=posteriors)
    def test_min_entropy_never_exceeds_shannon(self, scores):
        sample = privacy_of(scores)
        assert sample.min_entropy <= sample.entropy + 1e-9

    @given(scores=posteriors)
    @example(scores=NEAR_TIE_NORMALISED)
    def test_normalization_preserves_entropy_and_argmax(self, scores):
        normalised = normalize(scores)
        assert sum(normalised.values()) == pytest.approx(1.0)
        scaled = {node: 1e3 * weight for node, weight in scores.items()}
        for surface in (normalised, scaled):
            assert privacy_of(surface).entropy == pytest.approx(
                privacy_of(scores).entropy
            )
            assert privacy_of(surface).min_entropy == pytest.approx(
                privacy_of(scores).min_entropy
            )
        assert maximises(argmax(normalised), scores)


class TestBroadcastPrivacyProperties:
    @given(scores=posteriors, population=st.integers(16, 256))
    def test_top_k_success_is_monotone_in_k(self, scores, population):
        truth = sorted(scores)[0]
        ladder = (1, 2, 3, 5, 8, 13)
        sample = broadcast_privacy(scores, truth, population, ladder)
        hits = list(sample.top_hits)
        assert hits == sorted(hits)  # False may never follow True

    @given(
        # Few distinct weights (ties, and zeros that drop out) over mixed
        # ``int``/``str`` ids, whose ``repr`` order is not their sort order.
        scores=st.dictionaries(
            st.one_of(
                st.integers(0, 30), st.sampled_from(["1", "10", "2", "b", "a"])
            ),
            st.sampled_from([0.0, 0.5, 1.0, 1.0, 3.0]),
            min_size=1,
        ).filter(lambda scores: any(scores.values())),
        data=st.data(),
    )
    def test_top_k_counts_the_canonical_position(self, scores, data):
        truth = data.draw(st.sampled_from(sorted(scores, key=repr)))
        ladder = tuple(range(1, len(scores) + 2))
        sample = broadcast_privacy(scores, truth, len(scores), ladder)
        ordered = [
            node
            for node, p in canonical_order(normalize(scores))
            if p > 0
        ]
        if truth in ordered:
            position = ordered.index(truth)
            assert sample.top_hits == tuple(position < k for k in ladder)
        else:
            assert not any(sample.top_hits)

    @given(scores=posteriors, population=st.integers(16, 256))
    def test_metric_bounds(self, scores, population):
        truth = sorted(scores)[0]
        sample = broadcast_privacy(scores, truth, population)
        assert 0.0 - 1e-9 <= sample.entropy <= math.log2(population) + 1e-9
        assert sample.min_entropy <= sample.entropy + 1e-9
        assert 1 <= sample.anonymity_set <= population
        assert 1.0 - 1e-9 <= sample.expected_rank <= population + 1e-9

    @given(n=st.integers(min_value=2, max_value=64))
    def test_uniform_posterior_metrics(self, n):
        posterior = {i: 1.0 / n for i in range(n)}
        sample = broadcast_privacy(posterior, 0, population=n)
        assert sample.entropy == pytest.approx(math.log2(n))
        assert sample.normalized_anonymity == pytest.approx(1.0)
        assert sample.expected_rank == pytest.approx((n + 1) / 2)

    @given(lists=st.lists(posteriors, min_size=1, max_size=6),
           population=st.integers(16, 128))
    @settings(max_examples=25)
    def test_accumulator_is_the_mean_of_samples(self, lists, population):
        accumulator = PrivacyAccumulator(population)
        samples = [accumulator.add(scores, "t") for scores in lists]
        report = accumulator.report()
        assert report.entropy == pytest.approx(
            sum(s.entropy for s in samples) / len(samples)
        )
        assert report.expected_rank == pytest.approx(
            sum(s.expected_rank for s in samples) / len(samples)
        )


class TestIntersectionProperties:
    @given(scores=posteriors)
    @example(scores=NEAR_TIE_PRODUCT)
    def test_repeating_one_round_only_sharpens(self, scores):
        once = normalize(scores)
        twice = combine_posteriors([scores, scores])
        assert privacy_of(twice).entropy <= privacy_of(once).entropy + 1e-9
        assert maximises(argmax(twice), once)

    @given(lists=st.lists(posteriors, min_size=1, max_size=5))
    @settings(max_examples=25)
    def test_combination_is_a_distribution_over_the_support(self, lists):
        combined = combine_posteriors(lists)
        support = set().union(*(set(scores) for scores in lists))
        assert set(combined) == support
        assert sum(combined.values()) == pytest.approx(1.0)
