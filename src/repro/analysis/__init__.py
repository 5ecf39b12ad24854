"""Experiment harness helpers: repetitions, statistics and table rendering.

The benchmarks regenerate the paper's quantitative claims by sweeping a
parameter (adversary fraction, group size, diffusion depth, ...), repeating
each configuration over several seeds, and printing a small table of the
aggregated results.  This package contains the shared machinery so every
benchmark stays a thin, declarative script.

Sweeps come in two flavours with one contract: :func:`~repro.analysis.sweep.sweep`
runs serially, :class:`~repro.analysis.parallel.ParallelSweep` (or the
:func:`~repro.analysis.parallel.run_parallel` shorthand) fans the same runs —
same derived seeds, same aggregation — out over worker processes.
"""

from repro.analysis.experiment import ExperimentResult, run_attack_experiment
from repro.analysis.parallel import ParallelSweep, SweepWorkerDied, run_parallel
from repro.analysis.reporting import format_table
from repro.analysis.stats import Summary, confidence_interval, summarize
from repro.analysis.sweep import aggregate_runs, derive_seed, sweep

__all__ = [
    "ExperimentResult",
    "run_attack_experiment",
    "format_table",
    "ParallelSweep",
    "SweepWorkerDied",
    "run_parallel",
    "Summary",
    "confidence_interval",
    "summarize",
    "aggregate_runs",
    "derive_seed",
    "sweep",
]
