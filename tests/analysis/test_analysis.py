"""Tests for the analysis harness (tables, sweeps, experiments)."""

import pytest

from repro.analysis.experiment import run_attack_experiment
from repro.analysis.reporting import format_table
from repro.analysis.sweep import sweep
from repro.network import ConstantLatency, NetworkConditions
from repro.network.topology import random_regular_overlay


class TestReporting:
    def test_table_contains_headers_and_rows(self):
        table = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        assert "T" in table
        assert "a" in table and "b" in table
        assert "2.500" in table
        assert "x" in table

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])


class TestSweep:
    def test_aggregates_means(self):
        results = sweep([1, 2], lambda value, seed: {"metric": float(value * 10)},
                        repetitions=3)
        assert results[0]["metric"] == 10.0
        assert results[1]["metric"] == 20.0
        assert results[0]["value"] == 1.0
        assert results[0]["repetitions"] == 3.0

    def test_seeds_differ_across_repetitions(self):
        seen = []
        sweep([0], lambda value, seed: (seen.append(seed), {"m": 0.0})[1],
              repetitions=4, base_seed=100)
        assert len(set(seen)) == 4

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            sweep([1], lambda v, s: {"m": 0.0}, repetitions=0)


class TestAttackExperiment:
    @pytest.fixture(scope="class")
    def overlay(self):
        return random_regular_overlay(60, degree=6, seed=1)

    def test_flood_is_vulnerable(self, overlay):
        result = run_attack_experiment(
            overlay, "flood", adversary_fraction=0.3, broadcasts=6, seed=0,
            conditions=NetworkConditions(),
        )
        assert result.protocol == "flood"
        assert result.detection.total == 6
        assert result.detection.recall > 0.3
        assert result.anonymity_floor == 1

    def test_dandelion_runs(self, overlay):
        result = run_attack_experiment(
            overlay, "dandelion", adversary_fraction=0.2, broadcasts=5,
            seed=1, conditions=NetworkConditions(),
        )
        assert result.detection.total == 5
        assert result.messages_per_broadcast > 0

    def test_three_phase_runs_and_has_group_floor(self, overlay):
        from repro.core.config import ProtocolConfig
        from repro.protocols import create_protocol

        result = run_attack_experiment(
            overlay,
            create_protocol(
                "three_phase",
                config=ProtocolConfig(group_size=4, diffusion_depth=2),
            ),
            adversary_fraction=0.2,
            broadcasts=4,
            seed=2,
            conditions=NetworkConditions(latency=ConstantLatency(0.1)),
        )
        assert result.anonymity_floor == 4
        assert result.detection.total == 4

    def test_unknown_protocol_rejected(self, overlay):
        with pytest.raises(ValueError):
            run_attack_experiment(overlay, "carrier-pigeon", 0.1)

    def test_zero_broadcasts_rejected(self, overlay):
        # Used to die with ZeroDivisionError on the messages mean.
        with pytest.raises(ValueError, match="broadcasts"):
            run_attack_experiment(overlay, "flood", 0.2, broadcasts=0)
        with pytest.raises(ValueError, match="broadcasts"):
            run_attack_experiment(overlay, "flood", 0.2, broadcasts=-3)

    def test_experiment_reports_privacy_block(self, overlay):
        result = run_attack_experiment(
            overlay, "flood", adversary_fraction=0.3, broadcasts=3, seed=0,
            conditions=NetworkConditions(),
        )
        assert result.privacy is not None
        assert result.privacy.broadcasts == 3
        assert result.privacy.population == overlay.number_of_nodes()
        assert result.privacy.intersection is not None
