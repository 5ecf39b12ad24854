"""Parallel parameter sweeps over worker processes.

``analysis.sweep`` runs every (value, repetition) pair serially, which is
fine for the 100–1,000-node overlays of the original benchmarks but becomes
the wall-clock bottleneck for the multi-thousand-node scale runs
(``benchmarks/test_bench_e11_scale.py``).  :class:`ParallelSweep` fans the
same runs out over a :mod:`multiprocessing` pool while keeping the exact
``sweep()`` contract:

* every run gets the seed :func:`repro.analysis.sweep.derive_seed` assigns —
  derivation depends only on (value index, repetition), never on scheduling,
* aggregation uses :func:`repro.analysis.sweep.aggregate_runs`, and
* results are ordered by parameter value, repetition order inside a value.

So ``run_parallel(values, runner, ...) == sweep(values, runner, ...)``
seed-for-seed; the only difference is wall-clock time.

Workers are started with the ``fork`` method and receive the runner through
process inheritance, so runners may be closures or lambdas — nothing about
the runner is pickled.  Task inputs (parameter value, seed) and the returned
metric dictionaries do cross process boundaries and must be picklable, which
every existing runner already satisfies.  The pool is only used on Linux
(the one platform where fork-without-exec is dependable); on other platforms
— or with ``processes=1`` — the engine transparently degrades to the serial
path, producing identical results.

Scheduling is built for throughput: tasks are streamed to the workers with
``imap_unordered`` in chunks (one IPC round-trip per chunk instead of per
run, and no head-of-line blocking on a slow run the way ``pool.map``'s
ordered collection has), and the pool itself is kept alive on the
:class:`ParallelSweep` instance, so consecutive ``run()`` calls — e.g. one
per sweep point of an outer scan — reuse the forked workers instead of
re-paying pool start-up per call.  Results are re-ordered by task index
after collection, so the seed-for-seed equality with ``sweep()`` is
unaffected by the unordered arrival.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.sweep import (
    ParameterValue,
    SweepRunner,
    aggregate_runs,
    derive_seed,
)

_Task = Tuple[int, ParameterValue, int]

logger = logging.getLogger(__name__)

# Module-level slot the fork-started workers inherit; holding the runner here
# (instead of sending it through the task queue) is what allows closures.
_WORKER_RUNNER: Optional[SweepRunner] = None


def _init_worker(runner: SweepRunner) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner


def _execute_task(task: _Task) -> Tuple[int, Dict[str, float]]:
    task_index, value, seed = task
    assert _WORKER_RUNNER is not None
    return task_index, _WORKER_RUNNER(value, seed)


@dataclass
class ParallelSweep:
    """A reusable parallel sweep configuration.

    Example:
        >>> from repro.analysis import ParallelSweep, sweep
        >>> runner = lambda value, seed: {"metric": float(value * 10)}
        >>> engine = ParallelSweep(repetitions=2, base_seed=5)
        >>> engine.run([1, 2], runner) == sweep([1, 2], runner,
        ...                                     repetitions=2, base_seed=5)
        True

    Attributes:
        repetitions: how many seeds per parameter value.
        base_seed: base of the per-run seed derivation (identical to
            ``sweep()``'s).
        processes: worker process count; defaults to the machine's CPU count,
            capped at the number of runs.  ``1`` forces the serial path.

    After a ``run()``, :attr:`effective_processes` reports the worker count
    actually used (``1`` on the serial path) — callers surface it so a
    silently degraded environment is visible in persisted results.  When the
    degrade is *platform-forced* (parallelism was requested but the platform
    cannot fork) a ``logging`` warning is emitted as well; asking for
    ``processes=1``, or having a single task, degrades silently because the
    serial path is then the expected one.

    The worker pool persists across ``run()`` calls with the same runner and
    worker count, so repeated sweeps amortise the fork cost; call
    :meth:`close` (or use the instance as a context manager) to release the
    workers when done.  Reuse implies fork-snapshot semantics: workers see
    the process state as it was when the pool was first forked, so state a
    runner reads from its enclosing scope or module globals must not change
    between ``run()`` calls — mutate it only after a :meth:`close` (the next
    ``run()`` then forks fresh workers).  Runner *inputs* that change per
    call (values, seeds) are unaffected; they travel through the task queue.
    """

    repetitions: int = 3
    base_seed: int = 0
    processes: Optional[int] = None
    #: Worker count the most recent ``run()`` actually used (``1`` = serial
    #: path); ``None`` until the first run.
    effective_processes: Optional[int] = field(
        default=None, init=False, compare=False
    )
    _pool: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False
    )
    _pool_runner: Optional[SweepRunner] = field(
        default=None, init=False, repr=False, compare=False
    )
    _pool_workers: int = field(
        default=0, init=False, repr=False, compare=False
    )

    def run(
        self,
        values: Sequence[ParameterValue],
        runner: SweepRunner,
    ) -> List[Dict[str, float]]:
        """Run ``runner(value, seed)`` for every value and repetition.

        Returns:
            One aggregated dictionary per parameter value, equal to what
            ``sweep(values, runner, self.repetitions, self.base_seed)``
            returns for the same inputs.
        """
        return self._sweep(values, runner, payloads=False)[0]

    def run_with_payloads(
        self,
        values: Sequence[ParameterValue],
        runner: Any,
    ) -> Tuple[List[Dict[str, float]], List[Any]]:
        """Like :meth:`run` for runners returning ``(metrics, payload)``.

        The metric dictionaries are aggregated exactly as :meth:`run`
        does; the payloads — arbitrary picklable side-channel data such
        as telemetry documents, which must stay out of ``aggregate_runs``
        (it sums every value) — are returned separately, one per task in
        task order (value-major, repetition-minor).
        """
        return self._sweep(values, runner, payloads=True)

    def _sweep(
        self, values: Sequence[ParameterValue], runner: Any, payloads: bool
    ) -> Tuple[List[Dict[str, float]], List[Any]]:
        """Build the tasks, execute them, aggregate per parameter value."""
        repetitions = self.repetitions
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        values = list(values)
        if not values:
            return [], []
        tasks: List[_Task] = [
            (
                value_index * repetitions + repetition,
                value,
                derive_seed(
                    value_index, repetition, repetitions, self.base_seed
                ),
            )
            for value_index, value in enumerate(values)
            for repetition in range(repetitions)
        ]
        # _execute is shape-agnostic: it collects whatever the runner
        # returns by task index, so (metrics, payload) pairs ride through
        # the same serial/pool paths unchanged.
        runs = self._execute(tasks, runner)
        side: List[Any] = []
        if payloads:
            side = [payload for _metrics, payload in runs]
            runs = [metrics for metrics, _payload in runs]
        results = [
            aggregate_runs(
                value,
                runs[index * repetitions : (index + 1) * repetitions],
            )
            for index, value in enumerate(values)
        ]
        return results, side

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    def _worker_count(self, task_count: int) -> int:
        requested = self.processes
        if requested is None:
            requested = os.cpu_count() or 1
        return max(1, min(requested, task_count))

    def _execute(
        self, tasks: List[_Task], runner: SweepRunner
    ) -> List[Dict[str, float]]:
        workers = self._worker_count(len(tasks))
        # Fork-without-exec is only reliable on Linux: macOS lists "fork" as
        # available but forked children can crash inside system frameworks
        # (which is why CPython made spawn the macOS default), and spawn
        # would break closure runners.  Everywhere but Linux, degrade to the
        # serial path — same results, just without the fan-out.
        platform_blocked = (
            sys.platform != "linux"
            or "fork" not in multiprocessing.get_all_start_methods()
        )
        if workers == 1 or platform_blocked:
            if platform_blocked and workers > 1:
                # Parallelism was requested but the platform cannot provide
                # it — say so, instead of silently running 1/N as fast.
                logger.warning(
                    "ParallelSweep: fork-based parallelism unavailable on "
                    "this platform (%s); degrading %d requested workers to "
                    "the serial path. Results are identical, only slower.",
                    sys.platform,
                    workers,
                )
            self.effective_processes = 1
            return [runner(value, seed) for _, value, seed in tasks]
        self.effective_processes = workers
        pool = self._ensure_pool(workers, runner)
        # Tasks per IPC round-trip: keeps every worker busy while bounding
        # the scheduling overhead.
        chunk = max(1, len(tasks) // (workers * 4))
        runs: List[Optional[Dict[str, float]]] = [None] * len(tasks)
        try:
            for task_index, metrics in pool.imap_unordered(
                _execute_task, tasks, chunksize=chunk
            ):
                runs[task_index] = metrics
        except BaseException:
            # A failed worker leaves the pool in an undefined state; discard
            # it so the next run() starts from a fresh fork.
            self.close()
            raise
        assert all(run is not None for run in runs)
        return runs  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self, workers: int, runner: SweepRunner) -> Any:
        """Return a live pool for ``runner``, reusing the previous one.

        The runner reaches the workers through fork inheritance at pool
        start-up, so a pool is only reusable for the *same* runner object
        (and worker count); anything else forks a fresh pool.
        """
        if (
            self._pool is not None
            and self._pool_runner is runner
            and self._pool_workers == workers
        ):
            return self._pool
        self.close()
        context = multiprocessing.get_context("fork")
        self._pool = context.Pool(
            processes=workers, initializer=_init_worker, initargs=(runner,)
        )
        self._pool_runner = runner
        self._pool_workers = workers
        return self._pool

    def close(self) -> None:
        """Shut down the cached worker pool (idempotent)."""
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        self._pool_runner = None
        self._pool_workers = 0
        pool.terminate()
        pool.join()

    def __enter__(self) -> "ParallelSweep":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-exit path
        try:
            self.close()
        except Exception:
            pass


def run_parallel(
    values: Sequence[ParameterValue],
    runner: SweepRunner,
    repetitions: int = 3,
    base_seed: int = 0,
    processes: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Drop-in parallel replacement for :func:`repro.analysis.sweep.sweep`.

    Args:
        values: the parameter values to sweep over.
        runner: callable returning a flat metric dictionary for one run.
        repetitions: how many seeds per parameter value.
        base_seed: base of the per-run seed derivation.
        processes: worker processes (defaults to CPU count; ``1`` = serial).

    Returns:
        The same list of aggregated dictionaries ``sweep`` would return.
    """
    engine = ParallelSweep(
        repetitions=repetitions, base_seed=base_seed, processes=processes
    )
    try:
        return engine.run(values, runner)
    finally:
        # One-shot entry point: nothing will reuse the pool, release it.
        engine.close()
