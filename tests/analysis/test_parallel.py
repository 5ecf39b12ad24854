"""Determinism tests for the parallel sweep engine.

The contract under test: for identical ``(values, runner, repetitions,
base_seed)`` inputs, ``ParallelSweep``/``run_parallel`` return exactly what
the serial ``sweep()`` returns — same derived seeds, same aggregation, same
ordering — regardless of how many worker processes execute the runs.
"""

import random

import pytest

from repro.analysis.parallel import ParallelSweep, run_parallel
from repro.analysis.sweep import derive_seed, sweep
from repro.broadcast.flood import run_flood
from repro.network.topology import random_regular_overlay


def seeded_runner(value, seed):
    """A seed-sensitive runner: different seeds give different metrics."""
    rng = random.Random(seed)
    return {
        "metric": float(value) * 10.0 + rng.random(),
        "noise": rng.uniform(-1.0, 1.0),
    }


class TestParallelMatchesSerial:
    def test_seed_for_seed_equality(self):
        values = [1, 2, 3]
        serial = sweep(values, seeded_runner, repetitions=4, base_seed=17)
        parallel = run_parallel(values, seeded_runner, repetitions=4, base_seed=17)
        assert parallel == serial

    def test_closure_runner_supported(self):
        scale = 3.5

        def closure_runner(value, seed):
            return {"m": scale * value + random.Random(seed).random()}

        serial = sweep([2, 4], closure_runner, repetitions=2, base_seed=3)
        parallel = run_parallel([2, 4], closure_runner, repetitions=2, base_seed=3)
        assert parallel == serial

    def test_non_numeric_values(self):
        def named_runner(value, seed):
            return {"length": float(len(value)) + seed * 0.001}

        values = ["flood", "dandelion"]
        serial = sweep(values, named_runner, repetitions=2, base_seed=9)
        parallel = run_parallel(values, named_runner, repetitions=2, base_seed=9)
        assert parallel == serial
        assert "value" not in parallel[0]

    def test_single_process_path(self):
        engine = ParallelSweep(repetitions=3, base_seed=5, processes=1)
        assert engine.run([1, 2], seeded_runner) == sweep(
            [1, 2], seeded_runner, repetitions=3, base_seed=5
        )

    def test_forced_pool_path(self):
        # processes is pinned above 1 so the multiprocessing pool runs even
        # on single-core machines, where the default would degrade to the
        # serial path and leave the pool untested.
        engine = ParallelSweep(repetitions=3, base_seed=5, processes=4)
        assert engine.run([1, 2], seeded_runner) == sweep(
            [1, 2], seeded_runner, repetitions=3, base_seed=5
        )

    def test_worker_exception_propagates(self):
        def failing_runner(value, seed):
            raise RuntimeError(f"boom at value={value}")

        with pytest.raises(RuntimeError, match="boom at value=1"):
            ParallelSweep(repetitions=2, processes=4).run([1], failing_runner)

    def test_parallel_runs_are_repeatable(self):
        first = run_parallel([1, 2], seeded_runner, repetitions=3, base_seed=0)
        second = run_parallel([1, 2], seeded_runner, repetitions=3, base_seed=0)
        assert first == second

    def test_simulation_runner(self):
        """End to end with a real (small) simulation inside each worker."""

        def flood_runner(size, seed):
            overlay = random_regular_overlay(int(size), degree=4, seed=seed)
            result = run_flood(overlay, source=0, seed=seed)
            return {
                "messages": float(result.messages),
                "reach": float(result.reach),
            }

        values = [20, 40]
        serial = sweep(values, flood_runner, repetitions=2, base_seed=1)
        parallel = run_parallel(values, flood_runner, repetitions=2, base_seed=1)
        assert parallel == serial
        assert parallel[0]["reach"] == 20.0
        assert parallel[1]["reach"] == 40.0


class TestContract:
    def test_invalid_repetitions_rejected(self):
        with pytest.raises(ValueError):
            run_parallel([1], seeded_runner, repetitions=0)
        with pytest.raises(ValueError):
            ParallelSweep(repetitions=-1).run([1], seeded_runner)

    def test_empty_values(self):
        assert run_parallel([], seeded_runner) == []

    def test_seed_derivation_matches_sweep_schedule(self):
        seen = []

        def recording_runner(value, seed):
            seen.append(seed)
            return {"m": 0.0}

        sweep([0, 1], recording_runner, repetitions=3, base_seed=50)
        expected = [
            derive_seed(value_index, repetition, 3, 50)
            for value_index in range(2)
            for repetition in range(3)
        ]
        assert seen == expected

    def test_worker_count_capped_by_tasks(self):
        engine = ParallelSweep(repetitions=2, processes=64)
        assert engine._worker_count(4) == 4
        assert engine._worker_count(100) == 64
        assert ParallelSweep(processes=None)._worker_count(1) == 1


class TestDegradeReporting:
    def test_effective_processes_serial(self):
        engine = ParallelSweep(repetitions=2, base_seed=1, processes=1)
        assert engine.effective_processes is None
        engine.run([1, 2], seeded_runner)
        assert engine.effective_processes == 1

    def test_effective_processes_pool(self):
        engine = ParallelSweep(repetitions=2, base_seed=1, processes=4)
        try:
            engine.run([1, 2], seeded_runner)
        finally:
            engine.close()
        assert engine.effective_processes == 4

    def test_explicit_serial_is_silent(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.analysis.parallel"):
            ParallelSweep(repetitions=2, processes=1).run([1], seeded_runner)
        assert caplog.records == []

    def test_platform_degrade_warns(self, caplog, monkeypatch):
        import logging

        import repro.analysis.parallel as parallel_mod

        # Simulate a platform without dependable fork: requested
        # parallelism must degrade with a warning, not silently.
        monkeypatch.setattr(parallel_mod.sys, "platform", "darwin")
        engine = ParallelSweep(repetitions=2, base_seed=1, processes=4)
        with caplog.at_level(logging.WARNING, logger="repro.analysis.parallel"):
            results = engine.run([1, 2], seeded_runner)
        assert engine.effective_processes == 1
        assert results == sweep([1, 2], seeded_runner, repetitions=2, base_seed=1)
        assert any(
            "degrading" in record.getMessage() for record in caplog.records
        )


class TestDeadWorker:
    def test_killed_worker_raises_instead_of_hanging(self):
        import os
        import signal
        import time

        from repro.analysis.parallel import SweepWorkerDied

        def killing_runner(value, seed):
            if value == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return {"m": float(value)}

        engine = ParallelSweep(repetitions=1, processes=2)
        start = time.monotonic()
        with pytest.raises(SweepWorkerDied) as raised:
            engine.run([0, 1, 2, 3, 4, 5], killing_runner)
        assert time.monotonic() - start < 5.0
        assert raised.value.task_index == 3
        assert raised.value.exitcode == -signal.SIGKILL
        assert "task 3" in str(raised.value)
        # The broken pool was discarded: the next run forks afresh.
        assert engine._pool is None
        assert engine.run([0, 1], lambda value, seed: {"m": 1.0}) == sweep(
            [0, 1], lambda value, seed: {"m": 1.0}, repetitions=1
        )
        engine.close()
