"""Command line of the end-to-end benchmark.

Three forms share one measurement core (:class:`WorkloadRun`):

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one workload,
  the form ``BENCHMARK.json`` names; the last line of standard output is the
  result object the driver reads;
* ``run.py all [--out FILE]`` — every workload as one closed loop (one
  client: the next run starts when the previous one ended), timed runs
  interleaved round-robin, written as a result file with provenance;
* ``run.py compare BASE.json CHANGE.json`` — see :mod:`e2ebench.compare`.

Every timed run is a fresh subprocess (:mod:`e2ebench.child`).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from e2ebench import compare as compare_module
from e2ebench.catalogue import (
    DRIVER_END_TO_END,
    END_TO_END,
    PER_LAYER,
    summarise,
)
from e2ebench.workloads import (
    HERE,
    WORKLOADS,
    Workload,
    check_parallelism,
    nproc,
    reduced_for_verification,
    sizes,
    write_specs,
)

REPO = HERE.parent.parent
OUT_DIR = HERE / "out"
#: A child that has not answered by then counts as failed operations.
CHILD_TIMEOUT_S = 90
#: Rounds of (set-up repeat, timed run) an invocation makes at least: the
#: second is what the first is checked against for determinism.
MIN_ROUNDS = 2
#: The window ``all`` gives each workload's traced form.
ALL_TRACE_SECONDS = 30.0
#: Simulated end-to-end metrics whose per-repetition key is another name.
REPETITION_KEYS = {"privacy_entropy_bits": "privacy_entropy"}

Launcher = Callable[[str, Dict[str, Any]], Dict[str, Any]]


class ChildFailed(RuntimeError):
    """A subprocess raised, timed out or printed no result."""


def launch(mode: str, arguments: Dict[str, Any]) -> Dict[str, Any]:
    """Run one child mode in a fresh interpreter and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Its own session, so that a timeout also stops the workers it forked.
    child = subprocess.Popen(
        [sys.executable, "-m", "e2ebench.child", mode, json.dumps(arguments)],
        env=env, cwd=str(REPO), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise ChildFailed(f"{mode}: no result within {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        raise ChildFailed(
            f"{mode}: exit code {child.returncode}\n{stderr[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def _same(a: Any, b: Any) -> bool:
    """Bit-for-bit equality that also holds for NaN-valued metrics."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class WorkloadRun:
    """The measurements of one workload within one invocation."""

    def __init__(
        self, workload: Workload, seed: int, scale: str = "full",
        launcher: Launcher = launch,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.launch = launcher
        self.paths = write_specs(workload.name, seed, scale)
        self.specs = [
            json.loads(pathlib.Path(path).read_text()) for path in self.paths
        ]
        self.processes = workload.processes()
        check_parallelism(self.specs, self.processes, nproc())
        self.ops_per_run = sum(
            spec["seeds"]["repetitions"] for spec in self.specs
        )
        self.setup_samples: List[float] = []
        self.runs: List[Dict[str, Any]] = []
        self.ops_attempted = 0
        self.ops_failed = 0
        self.failures: List[str] = []
        self.layer: Dict[str, float] = {}
        self.strings: Dict[str, str] = {}
        self.verification: Dict[str, Any] = {}

    # -- single steps ---------------------------------------------------

    def setup_once(self) -> None:
        """``build_session`` of every spec in a fresh subprocess."""
        try:
            result = self.launch("setup", {"paths": self.paths})
        except ChildFailed as error:
            self._fail(self.ops_per_run, f"setup: {error}")
            return
        self.setup_samples.append(result["setup_s"])

    def timed_once(self) -> None:
        """One timed run: spec JSON in, run digest out, untraced."""
        self.ops_attempted += self.ops_per_run
        try:
            run = self.launch(
                "run", {"paths": self.paths, "processes": self.processes}
            )
        except ChildFailed as error:
            self._fail(self.ops_per_run, f"run: {error}", count=False)
            return
        self._check_operations(run, self.runs[0] if self.runs else run)
        self.runs.append(_with_derived(run))

    def measure(self, seconds: float) -> None:
        """Rounds of one set-up repeat and one timed run, for ``seconds``.

        A further round starts only if the longest round so far would still
        end inside the window; ``MIN_ROUNDS`` are made whatever the window.
        What is left of the window goes to further set-up repeats: where
        set-up takes milliseconds its few samples are the noisiest numbers
        of the invocation, and one more costs an interpreter start.
        """
        started = time.perf_counter()
        longest = longest_setup = 0.0
        while not self.ops_failed:
            round_started = time.perf_counter()
            self.setup_once()
            longest_setup = max(
                longest_setup, time.perf_counter() - round_started
            )
            self.timed_once()
            now = time.perf_counter()
            longest = max(longest, now - round_started)
            if len(self.runs) >= MIN_ROUNDS and now + longest > started + seconds:
                break
        while (not self.ops_failed
               and time.perf_counter() + longest_setup < started + seconds):
            self.setup_once()

    def _check_operations(
        self, run: Dict[str, Any], first: Dict[str, Any]
    ) -> None:
        """Count repetitions that are non-deterministic or lost peers."""
        for spec, reference in zip(run["specs"], first["specs"]):
            for index, metrics in enumerate(spec["runs"]):
                if not _same(metrics, reference["runs"][index]):
                    self._fail(1, f"{spec['name']}#{index}: metrics differ "
                               "from the first repeat", count=False)
                elif self.workload.lossless and metrics["mean_reach"] < 1.0:
                    self._fail(1, f"{spec['name']}#{index}: mean_reach "
                               f"{metrics['mean_reach']} on a lossless "
                               "workload", count=False)

    def _fail(self, operations: int, why: str, count: bool = True) -> None:
        if count:
            self.ops_attempted += operations
        self.ops_failed += operations
        self.failures.append(why)

    def verify_engines(self) -> None:
        """Requested engine == ``event`` engine, at a reduced size."""
        fast = [spec for spec in self.specs
                if spec.get("engine", "event") != "event"]
        if not fast:
            self.verification["engines"] = "not applicable (engine=event)"
            return
        directory = pathlib.Path(self.paths[0]).parent / "verify"
        directory.mkdir(exist_ok=True)
        paths = []
        for spec in fast:
            path = directory / f"{spec['name']}.json"
            path.write_text(json.dumps(reduced_for_verification(spec)))
            paths.append(str(path))
        try:
            result = self.launch("verify", {"paths": paths})
        except ChildFailed as error:
            self._fail(len(paths), f"verify: {error}")
            return
        self.ops_attempted += len(paths)
        if result["mismatches"]:
            self._fail(len(result["mismatches"]), "engine mismatch: "
                       + ", ".join(result["mismatches"]), count=False)
        self.verification["engines"] = (
            f"{result['checked']} spec(s) equal on requested engine and event"
        )

    def traced(self, trace_out: pathlib.Path, seconds: float) -> None:
        """The per-layer numbers: untraced serial runs against traced runs.

        Both are ``P = 1``; a workload that runs ``P > 1`` gets an untraced
        run at its ``P`` as well, for the ``parallel.*`` numbers.  The kinds
        alternate for as many rounds as fit in ``seconds`` (one at least) and
        the fastest run of each kind is kept, so that
        ``trace.overhead_share`` compares the wrappers' cost and not two
        moments of a box whose speed drifts.
        """
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        plain = {"paths": self.paths, "processes": 1}
        at_p_arguments = {"paths": self.paths, "processes": self.processes}
        serials, at_ps, traceds, parts = [], [], [], []
        started = time.perf_counter()
        longest = 0.0
        try:
            while True:
                round_started = time.perf_counter()
                serials.append(self.launch("run", plain))
                if self.processes > 1:
                    at_ps.append(self.launch("run", at_p_arguments))
                parts.append(trace_out.with_suffix(f".{len(parts)}"))
                traceds.append(self.launch(
                    "trace",
                    {"paths": self.paths, "trace_out": str(parts[-1])},
                ))
                now = time.perf_counter()
                longest = max(longest, now - round_started)
                if now + longest > started + seconds:
                    break
        except ChildFailed as error:
            self._fail(self.ops_per_run, f"trace: {error}")
            return

        def fastest(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
            return min(runs, key=lambda run: run["wall_s"])

        serial, traced = fastest(serials), fastest(traceds)
        at_p = fastest(at_ps) if at_ps else serial
        for run, part in zip(traceds, parts):
            if run is traced:
                part.replace(trace_out)
            else:
                part.unlink()
        self.ops_attempted += self.ops_per_run
        neutral = 0
        for spec, reference in zip(traced["specs"], serial["specs"]):
            for index, metrics in enumerate(spec["runs"]):
                if _same(metrics, reference["runs"][index]):
                    neutral += 1
                else:
                    self._fail(1, f"{spec['name']}#{index}: the wrapped run's "
                               "metrics differ from the plain run's",
                               count=False)
        self.verification["wrappers"] = (
            f"{neutral}/{self.ops_per_run} repetition(s) equal wrapped and plain"
        )
        layer = dict(traced["layer"])
        layer["scenarios.import_s"] = serial["import_s"]
        layer["trace.overhead_share"] = (
            traced["wall_s"] / serial["wall_s"] - 1.0
        )
        layer["parallel.effective_processes"] = max(
            spec["effective_processes"] for spec in at_p["specs"]
        )
        layer["parallel.speedup"] = serial["wall_s"] / at_p["wall_s"]
        layer["parallel.cpu_overhead_share"] = (
            at_p["cpu_s"] / serial["cpu_s"] - 1.0
        )
        self.layer = {name: float(layer[name]) for name in PER_LAYER}
        self.strings = traced["strings"]

    # -- summaries ------------------------------------------------------

    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        """Median, quartiles and samples of every end-to-end metric."""
        if not self.runs or not self.setup_samples:
            raise ChildFailed(
                "no successful run:\n" + "\n".join(self.failures)
            )
        table = {}
        for metric in END_TO_END:
            samples = (
                self.setup_samples if metric.name == "setup_s"
                else [run[metric.name] for run in self.runs]
            )
            table[metric.name] = {
                "unit": metric.unit, **summarise(samples)
            }
        return table

    def digests(self) -> Dict[str, str]:
        """The run digest of every spec, from the first timed run."""
        if not self.runs:
            return {}
        return {
            spec["name"]: spec["digest"] for spec in self.runs[0]["specs"]
        }

    def document(self) -> Dict[str, Any]:
        """This workload's block of a result file."""
        return {
            "why": self.workload.why,
            "end_to_end": self.end_to_end(),
            "per_layer": {
                name: {"unit": PER_LAYER[name][0], "value": value}
                for name, value in self.layer.items()
            },
            "strings": self.strings,
            "digests": self.digests(),
            "ops_attempted": self.ops_attempted,
            "ops_failed": self.ops_failed,
            "failures": self.failures,
            "verification": self.verification,
        }


def _with_derived(run: Dict[str, Any]) -> Dict[str, Any]:
    """A child's ``run`` result plus the metrics derived from its runs."""
    repetitions = [rep for spec in run["specs"] for rep in spec["runs"]]
    events = sum(
        rep["messages_per_broadcast"] * rep["broadcasts"]
        for rep in repetitions
    )
    run = dict(run)
    run["events_per_s"] = events / run["wall_s"]
    # Simulated statistics: the unweighted mean over all repetitions.
    for metric in END_TO_END:
        if metric.sim:
            key = REPETITION_KEYS.get(metric.name, metric.name)
            run[metric.name] = sum(
                rep.get(key, 0.0) for rep in repetitions
            ) / len(repetitions)
    return run


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def _print_end_to_end(name: str, table: Dict[str, Dict[str, Any]]) -> None:
    for metric, row in table.items():
        print(
            f"{name:18s} {metric:26s} {row['median']:14.6g} {row['unit']:9s}"
            f" q1 {row['q1']:.6g} q3 {row['q3']:.6g} n={row['n']}"
        )


def _print_per_layer(name: str, run: WorkloadRun) -> None:
    for metric, value in run.layer.items():
        print(f"{name:18s} {metric:32s} {value:14.6g} {PER_LAYER[metric][0]}")
    for key, text in run.strings.items():
        print(f"{name:18s} {key:32s} {text}")


def _print_checks(name: str, run: WorkloadRun) -> None:
    for key, text in run.verification.items():
        print(f"{name:18s} verified {key}: {text}")
    for why in run.failures:
        print(f"{name:18s} FAILED {why}")
    for spec, digest in run.digests().items():
        print(f"{name:18s} digest {spec} {digest}")


# ----------------------------------------------------------------------
# The contract form: one workload, one result line
# ----------------------------------------------------------------------

def run_contract(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "full"
) -> int:
    """``--trace 0``: the end-to-end metrics, each the median of the
    invocation's rounds.  ``--trace 1``: the per-layer metrics of the traced
    run, plus the verification pass (engine and wrapper neutrality)."""
    workload = WORKLOADS[name]
    run = WorkloadRun(workload, seed, scale)
    if trace:
        trace_out = OUT_DIR / f"{workload.name}-seed{seed}.trace.json"
        run.traced(trace_out, seconds)
        run.verify_engines()
        if not run.layer:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        _print_per_layer(workload.name, run)
        print(f"{workload.name:18s} trace written to {trace_out}")
        metrics = {
            key: {"value": value, "unit": PER_LAYER[key][0]}
            for key, value in run.layer.items()
        }
    else:
        run.measure(seconds)
        try:
            table = run.end_to_end()
        except ChildFailed as error:
            print(error, file=sys.stderr)
            return 1
        _print_end_to_end(workload.name, table)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        samples_out = OUT_DIR / f"{workload.name}-seed{seed}.json"
        samples_out.write_text(json.dumps(table, indent=1) + "\n")
        print(f"{workload.name:18s} samples written to {samples_out}")
        metrics = {
            metric.name: {
                "value": table[metric.name]["median"], "unit": metric.unit,
            }
            for metric in DRIVER_END_TO_END
        }
    _print_checks(workload.name, run)
    print(json.dumps({
        "correct": run.ops_failed == 0,
        "attempted": run.ops_attempted,
        "failed": run.ops_failed,
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# The researcher form: every workload, one result file
# ----------------------------------------------------------------------

def _spin_calibration() -> float:
    """Seconds a fixed pure-Python loop takes: the box's speed that day."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(2_000_000):
            total += value * value
        best = min(best, time.perf_counter() - start)
    return best


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def _git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(REPO), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int) -> Dict[str, Any]:
    return {
        "nproc": nproc(),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "git_revision": _git_revision(),
        "seed": seed,
        "sizes": sizes(),
        "calibration_spin_s": _spin_calibration(),
        "loop": "closed, one client, fresh subprocess per set-up repeat and "
                "per timed run, round-robin across workloads",
    }


def run_all(seed: int, repeats: int, out: pathlib.Path) -> int:
    meta = provenance(seed)
    runs = {
        name: WorkloadRun(workload, seed)
        for name, workload in WORKLOADS.items()
    }
    for _ in range(repeats):
        for run in runs.values():
            run.setup_once()
            run.timed_once()
    out.parent.mkdir(parents=True, exist_ok=True)
    trace_out = out.with_suffix(".trace.json")
    events: List[Dict[str, Any]] = []
    self_time = {}
    for index, (name, run) in enumerate(runs.items(), start=1):
        part = OUT_DIR / f"{name}-seed{seed}.trace.json"
        run.traced(part, ALL_TRACE_SECONDS)
        run.verify_engines()
        if part.exists():
            document = json.loads(part.read_text())
            events.append({"name": "process_name", "ph": "M", "pid": index,
                           "args": {"name": name}})
            for event in document["traceEvents"]:
                event["pid"] = index
                events.append(event)
            self_time[name] = document["selfTime"]
    trace_out.write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms",
         "selfTime": self_time}
    ) + "\n")
    meta["loadavg_after"] = list(os.getloadavg())
    try:
        workloads = {name: run.document() for name, run in runs.items()}
    except ChildFailed as error:
        print(error, file=sys.stderr)
        return 1
    document = {"meta": meta, "workloads": workloads, "claim": None}
    out.write_text(json.dumps(document, indent=1) + "\n")
    for name, run in runs.items():
        _print_end_to_end(name, run.end_to_end())
        _print_per_layer(name, run)
        _print_checks(name, run)
    print(json.dumps({
        "result_file": str(out),
        "trace_file": str(trace_out),
        "ops_attempted": sum(run.ops_attempted for run in runs.values()),
        "ops_failed": sum(run.ops_failed for run in runs.values()),
        "claim": None,
    }))
    return 1 if any(run.ops_failed for run in runs.values()) else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("change")
        parsed = parser.parse_args(argv[1:])
        return compare_module.main(parsed.base, parsed.change)
    if not (REPO / "src" / "repro").is_dir():
        print(f"e2e benchmark: no program to measure — {REPO / 'src' / 'repro'}"
              " is missing", file=sys.stderr)
        return 2
    if argv[:1] == ["all"]:
        parser = argparse.ArgumentParser(prog="run.py all")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--repeats", type=int, default=5,
                            help="timed runs per workload (>= 5 to report)")
        parser.add_argument("--out", default=str(OUT_DIR / "results.json"))
        parsed = parser.parse_args(argv[1:])
        return run_all(parsed.seed, parsed.repeats, pathlib.Path(parsed.out))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parsed = parser.parse_args(argv)
    return run_contract(
        parsed.workload, parsed.seed, parsed.seconds, bool(parsed.trace)
    )
