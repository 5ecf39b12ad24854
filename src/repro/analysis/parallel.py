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

Scheduling: each worker holds one task at a time and gets the next one
when it answers, so a slow run never holds up the others, and the workers
are kept alive on the :class:`ParallelSweep` instance, so consecutive
``run()`` calls — e.g. one per sweep point of an outer scan — reuse the
forked workers instead of re-paying start-up per call.  Results are
re-ordered by task index after collection, so the seed-for-seed equality
with ``sweep()`` is unaffected by the unordered arrival.

A worker that dies mid-task (killed, out of memory, a crash in native code)
is noticed at once when its pipe closes, and otherwise within one poll
(:data:`POLL_SECONDS`), after which the parent checks the exit code of every
busy worker: :class:`SweepWorkerDied` names the task and the exit code,
instead of the sweep waiting forever for an answer that cannot come.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import sys
import traceback
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

#: Longest wait for a worker's answer before the parent checks whether the
#: workers are still alive.
POLL_SECONDS = 0.5


class SweepWorkerDied(RuntimeError):
    """A sweep worker process exited while it was running a task.

    Attributes:
        task_index: the task it was running (value-major, repetition-minor).
        exitcode: its exit code (negative: killed by that signal).
    """

    def __init__(self, task: _Task, exitcode: Optional[int]) -> None:
        task_index, value, seed = task
        super().__init__(
            f"sweep worker died with exit code {exitcode} while running "
            f"task {task_index} (value {value!r}, seed {seed})"
        )
        self.task_index = task_index
        self.exitcode = exitcode


def _worker_main(conn, runner: SweepRunner) -> None:
    """Run tasks from ``conn`` until it sends ``None`` or closes.

    Each answer is ``(task index, ok, result or exception)``; the runner
    arrives through fork inheritance, never through the pipe.
    """
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        task_index, value, seed = task
        try:
            answer = (task_index, True, runner(value, seed))
        except Exception as error:  # re-raised in the parent
            answer = (task_index, False, error)
        try:
            conn.send(answer)
        except Exception:
            conn.send((
                task_index, False, RuntimeError(traceback.format_exc())
            ))


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
        try:
            return self._dispatch(pool, tasks)
        except BaseException:
            # A failed or dead worker leaves the pool in an undefined
            # state; discard it so the next run() starts from a fresh fork.
            self.close()
            raise

    @staticmethod
    def _dispatch(pool: List[Any], tasks: List[_Task]) -> List[Any]:
        """Hand each idle worker the next task until every task answered."""
        runs: List[Any] = [None] * len(tasks)
        queue = iter(tasks)
        running: Dict[Any, Tuple[Any, _Task]] = {}  # conn -> (process, task)

        def hand_out(process, conn) -> None:
            task = next(queue, None)
            if task is not None:
                conn.send(task)
                running[conn] = (process, task)

        for process, conn in pool:
            hand_out(process, conn)
        while running:
            ready = multiprocessing.connection.wait(
                list(running), timeout=POLL_SECONDS
            )
            for conn in ready:
                process, task = running.pop(conn)
                try:
                    task_index, ok, result = conn.recv()
                except EOFError:
                    process.join(timeout=5)
                    raise SweepWorkerDied(task, process.exitcode) from None
                if not ok:
                    raise result
                runs[task_index] = result
                hand_out(process, conn)
            if not ready:
                # No answer within the poll: a worker that exited will
                # never answer, so look for one.
                for process, task in running.values():
                    if process.exitcode is not None:
                        raise SweepWorkerDied(task, process.exitcode)
        return runs

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self, workers: int, runner: SweepRunner) -> List[Any]:
        """Return live workers for ``runner``, reusing the previous ones.

        The runner reaches the workers through fork inheritance at start-up,
        so a pool is only reusable for the *same* runner object (and worker
        count); anything else forks a fresh pool.  Workers are daemonic,
        like a ``multiprocessing.Pool``'s.
        """
        if (
            self._pool is not None
            and self._pool_runner is runner
            and self._pool_workers == workers
        ):
            return self._pool
        self.close()
        context = multiprocessing.get_context("fork")
        pool = []
        for _ in range(workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main, args=(child_conn, runner), daemon=True
            )
            process.start()
            child_conn.close()
            pool.append((process, parent_conn))
        self._pool = pool
        self._pool_runner = runner
        self._pool_workers = workers
        return pool

    def close(self) -> None:
        """Shut down the cached workers (idempotent)."""
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        self._pool_runner = None
        self._pool_workers = 0
        for process, conn in pool:
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
            conn.close()
        for process, _ in pool:
            process.join(timeout=1)
            if process.is_alive():
                process.terminate()
                process.join()

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
