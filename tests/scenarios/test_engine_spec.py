"""The ``engine``/``shards`` knobs on ScenarioSpec and the scenario CLI.

The spec fields must be digest-neutral at their defaults (pre-existing
spec serializations and run digests cannot change), validated like every
other registry name (ValueError listing the alternatives), and — the whole
point — behaviour-neutral: a preset runs to the identical observation
digest on every engine, at any shard count.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import ScenarioRunner, ScenarioSpec, scenario
from repro.scenarios.spec import TopologySpec

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SCRIPT = REPO_ROOT / "scripts" / "scenario.py"


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def _small_spec(engine="event", shards=None):
    return ScenarioSpec(
        name="engine-probe",
        topology=TopologySpec(
            "random_regular", {"num_nodes": 60, "degree": 6, "seed": 5}
        ),
        protocol="flood",
        engine=engine,
        shards=shards,
    )


class TestSpecField:
    def test_default_engine_omitted_from_serialization(self):
        spec = _small_spec()
        assert "engine" not in spec.to_dict()
        assert ScenarioSpec.from_dict(spec.to_dict()).engine == "event"

    def test_batched_engine_round_trips(self):
        spec = _small_spec(engine="batched")
        data = spec.to_dict()
        assert data["engine"] == "batched"
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_engine_lists_registered(self):
        with pytest.raises(ValueError) as excinfo:
            _small_spec(engine="warp")
        message = excinfo.value.args[0]
        assert "unknown engine 'warp'" in message
        assert "batched" in message and "event" in message

    def test_derive_switches_engine(self):
        spec = _small_spec()
        assert spec.derive(engine="batched").engine == "batched"

    def test_preset_digests_are_engine_independent(self):
        runner = ScenarioRunner(processes=1)
        spec = scenario("e4_broadcast_deanonymization")
        event_digest = runner.observation_digest(spec)
        assert event_digest == runner.observation_digest(
            spec.derive(engine="batched")
        )
        assert event_digest == runner.observation_digest(
            spec.derive(engine="sharded", shards=2)
        )

    def test_engine_changes_the_result_digest_not_the_runs(self):
        # The result digest hashes the spec, which keeps a non-default
        # engine; the runs and the observation log do not depend on it.
        runner = ScenarioRunner(processes=1)
        spec = scenario("e4_broadcast_deanonymization")
        batched = spec.derive(engine="batched")
        event_result, batched_result = runner.run(spec), runner.run(batched)
        assert batched_result.runs == event_result.runs
        assert runner.observation_digest(batched) == (
            runner.observation_digest(spec)
        )
        assert batched_result.digest != event_result.digest

    def test_digest_is_shard_count_independent(self):
        runner = ScenarioRunner(processes=1)
        spec = scenario("e4_broadcast_deanonymization").derive(
            engine="sharded"
        )
        assert runner.observation_digest(
            spec.derive(shards=2)
        ) == runner.observation_digest(spec.derive(shards=3))

    def test_heterogeneous_protocol_digests_are_engine_independent(self):
        # The three-phase protocol mixes message kinds, direct traffic and
        # timers — the sharded engine must recognise what it cannot split
        # and still land on the event engine's exact digest.
        runner = ScenarioRunner(processes=1)
        spec = scenario("e7_three_phase_end_to_end")
        event_digest = runner.observation_digest(spec)
        assert event_digest == runner.observation_digest(
            spec.derive(engine="batched")
        )
        assert event_digest == runner.observation_digest(
            spec.derive(engine="sharded", shards=2)
        )


class TestShardsField:
    def test_default_shards_omitted_from_serialization(self):
        spec = _small_spec(engine="sharded")
        assert "shards" not in spec.to_dict()
        assert ScenarioSpec.from_dict(spec.to_dict()).shards is None

    def test_shards_round_trip(self):
        spec = _small_spec(engine="sharded", shards=3)
        data = spec.to_dict()
        assert data["shards"] == 3
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError):
            _small_spec(engine="sharded", shards=0)

    def test_derive_switches_shards(self):
        spec = _small_spec(engine="sharded")
        assert spec.derive(shards=4).shards == 4


class TestCliEngineFlag:
    def test_unknown_engine_exits_two_with_clean_error(self):
        proc = _run_cli(
            "run", "e4_broadcast_deanonymization", "--engine", "warp"
        )
        assert proc.returncode == 2
        assert "error: unknown engine 'warp'" in proc.stderr
        assert "batched" in proc.stderr and "event" in proc.stderr

    def test_batched_engine_runs_preset(self, tmp_path):
        proc = _run_cli(
            "run", "e4_broadcast_deanonymization",
            "--engine", "batched", "--repetitions", "1", "--processes", "1",
            "--telemetry", str(tmp_path / "telemetry.json"),
        )
        assert proc.returncode == 0, proc.stderr
        assert "# digest:" in proc.stdout
        # The engine is a cap: the preset's per-edge latencies leave no
        # cohorts to form, and the CLI says which path ran and why.
        assert "# engine: requested=batched effective=event" in proc.stdout
        assert "# fallback" in proc.stdout
        assert "per-message delays" in proc.stdout

    def test_sharded_engine_runs_preset_with_shards(self):
        proc = _run_cli(
            "run", "e4_broadcast_deanonymization",
            "--engine", "sharded", "--shards", "2",
            "--repetitions", "1", "--processes", "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert "# digest:" in proc.stdout
