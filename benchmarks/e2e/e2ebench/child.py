"""What runs inside each fresh subprocess: the program under test.

``python -m e2ebench.child <mode> <json-arguments>`` prints one JSON object
as the last line of its standard output.  Modes:

* ``run``    — spec JSON files in, ``ScenarioResult.digest`` out, untraced;
* ``setup``  — ``build_session(spec)`` per spec, nothing run;
* ``verify`` — each spec on its requested engine and on ``event``;
* ``trace``  — the wrapped, serial run plus the layer probes (``layers``).

Nothing is installed around the program in ``run`` and ``setup``: no
recorder, no wrapper, ``gc`` as the program leaves it.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from typing import Any, Dict, List, Tuple

_IMPORT_START = time.perf_counter()
from repro.scenarios.runner import (  # noqa: E402
    ScenarioRunner,
    build_session,
)
from repro.scenarios.spec import ScenarioSpec  # noqa: E402

from e2ebench.tracing import cpu_seconds, peak_rss_mib  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START


def run_specs(paths: List[str], processes: int) -> Dict[str, Any]:
    """The timed operation: every spec file in, its run digest out."""
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    runner = ScenarioRunner(processes=processes)
    specs = []
    for path in paths:
        spec = ScenarioSpec.from_json(pathlib.Path(path).read_text())
        result = runner.run(spec)
        specs.append({
            "name": spec.name,
            "digest": result.digest,
            "runs": result.runs,
            "effective_processes": result.aggregate["effective_processes"],
        })
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": cpu_seconds() - cpu_start,
        "import_s": IMPORT_S,
        "peak_rss_mib": peak_rss_mib(),
        "specs": specs,
    }


def time_setup(paths: List[str]) -> Dict[str, Any]:
    """``build_session`` of every spec (summed), parsing excluded."""
    specs = [
        ScenarioSpec.from_json(pathlib.Path(path).read_text())
        for path in paths
    ]
    total = 0.0
    for spec in specs:
        start = time.perf_counter()
        session = build_session(spec)
        total += time.perf_counter() - start
        del session
    return {"setup_s": total}


def _run_and_log(spec: ScenarioSpec) -> Tuple[List[Dict[str, float]], str]:
    runner = ScenarioRunner(processes=1)
    return runner.run(spec).runs, runner.observation_digest(spec)


def verify_engines(paths: List[str]) -> Dict[str, Any]:
    """Per spec: requested engine and ``event`` must agree bit for bit.

    Compared are the per-repetition metrics (what the run digest hashes next
    to the spec, whose ``engine`` field differs by construction) and the
    observation-log digest of one broadcast.
    """
    mismatches = []
    for path in paths:
        spec = ScenarioSpec.from_json(pathlib.Path(path).read_text())
        fast = _run_and_log(spec)
        reference = _run_and_log(spec.derive(engine="event", shards=None))
        if json.dumps(fast, sort_keys=True) != json.dumps(
            reference, sort_keys=True
        ):
            mismatches.append(spec.name)
    return {"checked": len(paths), "mismatches": mismatches}


def dispatch(mode: str, arguments: Dict[str, Any]) -> Dict[str, Any]:
    """Run one mode in this process (the self-tests call this directly)."""
    if mode == "run":
        return run_specs(arguments["paths"], arguments["processes"])
    if mode == "setup":
        return time_setup(arguments["paths"])
    if mode == "verify":
        return verify_engines(arguments["paths"])
    if mode == "trace":
        from e2ebench.layers import traced_run

        return traced_run(arguments["paths"], arguments["trace_out"])
    raise ValueError(f"unknown child mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(dispatch(sys.argv[1], json.loads(sys.argv[2]))))
    # The measurement is over: skip the interpreter's teardown of a heap of
    # up to 400 MiB, a second per child the driver's time cap cannot spare.
    sys.stdout.flush()
    os._exit(0)
