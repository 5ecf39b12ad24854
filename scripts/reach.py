#!/usr/bin/env python3
"""Which functions of ``src/repro`` no run enters.

Runs what the repository runs — every registered preset, the claim
benchmarks and the end-to-end benchmark's self-tests — with a
``sys.setprofile`` / ``threading.setprofile`` hook that records each
function called under ``src/repro``, keyed ``(file, co_firstlineno,
co_name)``, then compares the entered set with every ``def`` in the
source tree:

    python3 scripts/reach.py                  # all three stages, ~4 min
    python3 scripts/reach.py --stages presets

Each stage is a fresh interpreter whose ``sitecustomize`` installs the
hook, so subprocesses started with the same environment (the benchmark's
fresh children) are traced too.  Forked workers (``ParallelSweep``, the
sharded engine) inherit the hook; they leave through ``os._exit``, which
skips ``atexit``, and ``multiprocessing`` clears its finalizer registry in
the child, so the fork hook wraps ``os._exit`` to write the child's set
first.  pytest-benchmark's timing loop replaces the profile hook, so the
claim benchmarks run with ``--benchmark-disable``.

The functions no stage enters are compared with the table under
"Functions no run enters" in ``docs/ARCHITECTURE.md``, which gives each a
reason.  The script prints the counts, every not-entered function the
table does not name and every table row that is entered or gone, and
exits 1 when either list is not empty.  ``--table`` prints the
not-entered functions as table rows instead, reasons kept where the
table has one.  It is a measuring tool, not a test: it takes minutes and
does not run in CI.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import uuid
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"
ARCHITECTURE = REPO_ROOT / "docs" / "ARCHITECTURE.md"
TABLE_HEADING = "### Functions no run enters"

#: ``(path relative to src/, first line of the code object, name)``.
Key = Tuple[str, int, str]

PRESETS = """
from repro.scenarios import SCENARIOS, ScenarioRunner
for spec in SCENARIOS.values():
    ScenarioRunner(processes=1).run(spec)
"""

#: Stage name -> command, run from the repository root.
STAGES: Dict[str, List[str]] = {
    "presets": [sys.executable, "-c", PRESETS],
    "claims": [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "benchmarks", "--ignore=benchmarks/e2e", "--benchmark-disable",
    ],
    "e2e": [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "benchmarks/e2e",
    ],
}

SITECUSTOMIZE = f"""
import os, sys
if os.environ.get("REACH_OUT"):
    sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
    import reach
    sys.path.pop(0)
    reach.install(os.environ["REACH_OUT"])
"""


def install(out_dir: str) -> None:
    """Record every ``src/repro`` function this process (and any process
    it forks) enters, into one JSON file per process under ``out_dir``."""
    prefix = str(PACKAGE) + os.sep
    entered: Set[Key] = set()
    # By identity: code objects compare equal across files.
    seen: Dict[int, object] = {}

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if id(code) in seen:
            return
        seen[id(code)] = code
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(prefix):
            relative = os.path.relpath(filename, SRC)
            entered.add((relative, code.co_firstlineno, code.co_name))

    def dump() -> None:
        path = os.path.join(out_dir, f"{os.getpid()}-{uuid.uuid4().hex}.json")
        with open(path, "w") as handle:
            json.dump(sorted(entered), handle)

    def after_fork() -> None:
        exit_now = os._exit

        def exiting(status):
            dump()
            exit_now(status)

        os._exit = exiting

    sys.setprofile(hook)
    threading.setprofile(hook)
    atexit.register(dump)
    os.register_at_fork(after_in_child=after_fork)


def run_stages(stages: List[str]) -> Set[Key]:
    """Run each stage traced and return the union of what they entered."""
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hook_dir = Path(scratch) / "hook"
        out_dir = Path(scratch) / "out"
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ)
        env["REACH_OUT"] = str(out_dir)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(SRC)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        for stage in stages:
            print(f"# stage {stage}", file=sys.stderr, flush=True)
            done = subprocess.run(
                STAGES[stage], cwd=str(REPO_ROOT), env=env,
                stdout=subprocess.DEVNULL,
            )
            if done.returncode != 0:
                raise SystemExit(
                    f"stage {stage} failed with exit code {done.returncode}"
                )
        entered: Set[Key] = set()
        for path in out_dir.iterdir():
            entered.update(tuple(key) for key in json.loads(path.read_text()))
    return entered


def definitions() -> Iterator[Tuple[Key, str, int, int]]:
    """Every ``def`` under ``src/repro``: its key, qualified name and the
    first and last line of the definition."""
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(), str(path))

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A decorated function's code starts at its first
                    # decorator.
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    qualname = ".".join(scope + [child.name])
                    yield (
                        (relative, first, child.name), qualname,
                        first, child.end_lineno,
                    )
                    yield from walk(child, scope + [child.name])
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, scope + [child.name])
                else:
                    yield from walk(child, scope)

        yield from walk(tree, [])


def documented() -> Dict[str, str]:
    """``{"path:qualname": reason}`` from the table in ARCHITECTURE.md."""
    text = ARCHITECTURE.read_text()
    if TABLE_HEADING not in text:
        return {}
    section = text.split(TABLE_HEADING, 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.+?) \|$", section, re.MULTILINE)
    return dict(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--stages", default=",".join(STAGES),
        help=f"comma-separated subset of {', '.join(STAGES)}",
    )
    parser.add_argument(
        "--table", action="store_true",
        help="print the not-entered functions as ARCHITECTURE.md rows",
    )
    args = parser.parse_args()
    stages = [stage for stage in args.stages.split(",") if stage]
    unknown = sorted(set(stages) - set(STAGES))
    if unknown:
        parser.error(f"unknown stage(s): {', '.join(unknown)}")

    entered = run_stages(stages)
    defs = list(definitions())
    missed = [d for d in defs if d[0] not in entered]
    lines = {
        (key[0], line)
        for key, _, first, last in missed
        for line in range(first, last + 1)
    }
    print(
        f"{len(missed)} of {len(defs)} functions not entered, "
        f"{len(lines)} lines in their definitions"
    )
    reasons = documented()
    names = {f"{key[0]}:{qualname}" for key, qualname, _, _ in missed}
    if args.table:
        for name in sorted(names):
            print(f"| `{name}` | {reasons.get(name, '')} |")
        return 0
    no_reason = sorted(names - set(reasons))
    stale = sorted(set(reasons) - names)
    for name in no_reason:
        print(f"not entered, no reason given: {name}")
    for name in stale:
        print(f"listed but entered or gone: {name}")
    return 1 if no_reason or stale else 0


if __name__ == "__main__":
    sys.exit(main())
