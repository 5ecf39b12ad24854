"""Tests for the latency models."""

import random

import pytest

from repro.network.latency import (
    ConstantLatency,
    PerEdgeLatency,
)


class TestConstantLatency:
    def test_fixed_delay(self):
        model = ConstantLatency(0.5)
        assert model.delay(1, 2) == 0.5
        assert model.delay(3, 4) == 0.5

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ConstantLatency(0.0)

    def test_constant_delay_is_its_delay(self):
        # The batched engine's fast path reads this instead of drawing.
        assert ConstantLatency(0.25).constant_delay() == 0.25


class TestPerEdgeLatency:
    def test_stable_per_edge(self):
        model = PerEdgeLatency(random.Random(0), 0.1, 0.5)
        first = model.delay(1, 2)
        assert model.delay(1, 2) == first
        assert model.delay(2, 1) == first

    def test_edges_differ(self):
        model = PerEdgeLatency(random.Random(0), 0.1, 0.5)
        delays = {model.delay(1, peer) for peer in range(2, 30)}
        assert len(delays) > 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            PerEdgeLatency(random.Random(0), 0.5, 0.1)
        with pytest.raises(ValueError):
            PerEdgeLatency(random.Random(0), 0.0, 0.1)

    def test_within_bounds(self):
        model = PerEdgeLatency(random.Random(0), 0.1, 0.3)
        for peer in range(1, 101):
            assert 0.1 <= model.delay(0, peer) <= 0.3

    def test_equal_bounds_give_that_delay(self):
        model = PerEdgeLatency(random.Random(0), 0.2, 0.2)
        assert {model.delay(0, peer) for peer in range(1, 10)} == {0.2}

    def test_one_draw_per_new_edge_in_first_use_order(self):
        rng, oracle = random.Random(3), random.Random(3)
        model = PerEdgeLatency(rng, 0.1, 0.5)
        sends = [(0, 1), (1, 0), (2, 0), (0, 1), (1, 2), (0, 2)]
        delays = [model.delay(*send) for send in sends]
        first, second, third = (oracle.uniform(0.1, 0.5) for _ in range(3))
        assert delays == [first, first, second, first, third, second]
        assert rng.getstate() == oracle.getstate()

    def test_varying_delays_have_no_constant(self):
        assert PerEdgeLatency(random.Random(0)).constant_delay() is None
