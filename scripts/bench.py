#!/usr/bin/env python3
"""Run the tracked benchmark suite and record/compare ``BENCH_*.json``.

The perf trajectory of this repository lives in ``benchmarks/results/``:
every engine-relevant change runs this script, which times the E-series hot
paths through ``benchmarks/harness.py``, writes ``BENCH_<label>.json`` and
compares the numbers against a baseline report, failing (exit code 1) when
any scenario's calibrated events/sec regressed beyond the threshold or a
scale tier's peak RSS exceeded its scenario-declared memory budget (the
memory gate needs no baseline and also fails under ``--no-compare``).
Each result also carries a telemetry counter block (events dispatched,
per-shard stats; ``--no-telemetry`` to skip), and ``--smoke`` asserts
that an *enabled* recorder stays within a small overhead budget on the
5,000-peer flood tier (see ``docs/OBSERVABILITY.md``).

Typical uses::

    # full suite, label derived from the git revision, compare to the
    # newest existing report in benchmarks/results/
    python scripts/bench.py

    # quick CI gate against the committed baseline
    python scripts/bench.py --smoke --label ci \
        --baseline benchmarks/results/BENCH_adversary.json

    # measure an older source tree with the *same* harness (before/after)
    python scripts/bench.py --src /path/to/old/src --label before

No third-party dependencies beyond what ``repro`` itself needs.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT_DIR = REPO_ROOT / "benchmarks" / "results"


def _git_label() -> str:
    """Default report label: short revision, ``-dirty`` when modified."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        return f"{rev}-dirty" if dirty else rev
    except (OSError, subprocess.CalledProcessError):
        return "local"


def _report_age(path: Path) -> float:
    """When a report was generated: embedded meta timestamp, mtime fallback.

    File mtimes all collapse to checkout time on a fresh clone, which would
    make "newest report" arbitrary; the ``created_at`` the harness embeds
    at generation time survives the checkout.
    """
    try:
        with open(path) as handle:
            return float(json.load(handle)["meta"]["created_at"])
    except (OSError, ValueError, KeyError, TypeError):
        return path.stat().st_mtime


def _latest_report(output_dir: Path, exclude: Path) -> Optional[Path]:
    """Newest ``BENCH_*.json`` in ``output_dir`` other than ``exclude``."""
    candidates = [
        path
        for path in sorted(
            output_dir.glob("BENCH_*.json"),
            key=_report_age,
            reverse=True,
        )
        if path.resolve() != exclude.resolve()
    ]
    return candidates[0] if candidates else None


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run only the quick smoke subset of scenarios",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        metavar="PATTERN",
        help="scenario names or fnmatch patterns, e.g. 'e11_*' "
        "(overrides --smoke selection)",
    )
    parser.add_argument(
        "--engines",
        nargs="+",
        metavar="ENGINE",
        help="keep only scenarios exercising these delivery engines "
        "(event, batched, sharded); composes with --smoke/--scenarios",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the tracked scenarios (name, smoke membership, "
        "engine, description) and exit",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument(
        "--label",
        default=None,
        help="report label; file becomes BENCH_<label>.json "
        "(default: git short revision)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=DEFAULT_OUTPUT_DIR,
        help="where reports live (default: benchmarks/results/)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline report to compare against "
        "(default: newest other BENCH_*.json in the output dir)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="fail when calibrated events/sec drops more than this "
        "fraction (default: 0.25)",
    )
    parser.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the baseline comparison entirely",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="skip telemetry counter collection (one untimed extra run "
        "per scenario) and the --smoke overhead gate",
    )
    parser.add_argument(
        "--telemetry-overhead-threshold",
        type=float,
        default=0.03,
        help="--smoke gate: fail when an enabled telemetry recorder slows "
        "e11_flood_5000 by more than this fraction (default: 0.03)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure and compare without writing a report file",
    )
    parser.add_argument(
        "--src",
        type=Path,
        default=None,
        help="measure this source tree instead of the repository's src/ "
        "(before/after comparisons with one harness)",
    )
    args = parser.parse_args(argv)

    src = (args.src or (REPO_ROOT / "src")).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(REPO_ROOT))  # for benchmarks.harness
    from benchmarks import harness

    if args.list:
        for name in harness.scenario_names():
            scenario = harness.SCENARIOS[name]
            marker = "smoke" if scenario.smoke else "     "
            print(
                f"{name:28s} [{marker}] [{scenario.engine:7s}] "
                f"{scenario.description}"
            )
        return 0

    if args.scenarios:
        # Patterns select from the tracked suite (an exact name is its own
        # pattern); a pattern matching nothing fails with the available
        # names.
        names = []
        for pattern in args.scenarios:
            matched = fnmatch.filter(harness.scenario_names(), pattern)
            if not matched:
                available = ", ".join(harness.scenario_names())
                parser.error(
                    f"--scenarios pattern {pattern!r} matches no tracked "
                    f"scenario (available: {available})"
                )
            for name in matched:
                if name not in names:
                    names.append(name)
    else:
        names = harness.scenario_names(smoke_only=args.smoke)

    if args.engines:
        known_engines = {
            harness.SCENARIOS[name].engine
            for name in harness.scenario_names()
        }
        unknown = [e for e in args.engines if e not in known_engines]
        if unknown:
            parser.error(
                f"--engines {unknown} match no tracked scenario "
                f"(tracked engines: {', '.join(sorted(known_engines))})"
            )
        names = [
            name
            for name in names
            if harness.SCENARIOS[name].engine in args.engines
        ]
        if not names:
            parser.error(
                "the --engines filter removed every selected scenario"
            )

    label = args.label or _git_label()
    print(f"# bench: scenarios={names} label={label} src={src}")
    report = harness.run_suite(
        names,
        repeats=args.repeats,
        warmup=args.warmup,
        meta={"label": label, "source_tree": str(src)},
        collect_telemetry=not args.no_telemetry,
    )

    for name in names:
        result = report["results"][name]
        print(
            f"{name:24s} {result['median_seconds'] * 1000:10.1f} ms median  "
            f"{result['events_per_second']:12,.0f} events/s  "
            f"rss {result['peak_rss_kib'] / 1024:.0f} MiB"
        )

    output_path = args.output_dir / f"BENCH_{label}.json"
    if not args.no_write:
        os.makedirs(args.output_dir, exist_ok=True)
        with open(output_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote {output_path.relative_to(Path.cwd())}"
              if output_path.is_relative_to(Path.cwd())
              else f"# wrote {output_path}")

    # The memory-budget gate is baseline-free: budgets travel inside the
    # report, so it runs (and can fail the invocation) even under
    # --no-compare or when no baseline report exists yet.
    memory_failed = False
    memory_entries = harness.memory_gate(report)
    if memory_entries:
        print("# memory budgets:")
        for entry in memory_entries:
            marker = "!" if entry["status"] == "over" else " "
            print(
                f"{entry['name']:24s} {marker} "
                f"{entry['peak_rss_mib']:8,.0f} MiB peak rss "
                f"(budget {entry['budget_mib']:,.0f} MiB)"
            )
            if entry["status"] == "over":
                memory_failed = True
    if memory_failed:
        print("# FAIL: peak RSS above the scenario memory budget")

    # The telemetry-overhead gate proves the "zero overhead when a
    # recorder *is* attached" claim on the hot loop the docs make it
    # about.  Baseline-free (interleaved off/on runs of the same build),
    # it rides on --smoke only: the flood tier it measures is too slow
    # to run on every ad-hoc invocation.
    telemetry_failed = False
    if (args.smoke and not args.no_telemetry
            and "e11_flood_5000" in harness.SCENARIOS):
        gate = harness.telemetry_overhead("e11_flood_5000", repeats=3,
                                          warmup=args.warmup)
        threshold = args.telemetry_overhead_threshold
        over = gate["overhead"] > threshold
        print(
            f"# telemetry overhead ({gate['name']}): "
            f"{'!' if over else ' '} {gate['overhead']:+.2%} "
            f"(off {gate['off_seconds'] * 1000:.1f} ms -> "
            f"on {gate['on_seconds'] * 1000:.1f} ms, "
            f"threshold {threshold:.0%})"
        )
        if over:
            telemetry_failed = True
            print("# FAIL: enabled-telemetry overhead above threshold")

    gates_failed = memory_failed or telemetry_failed
    if args.no_compare:
        return 1 if gates_failed else 0
    baseline_path = args.baseline
    if baseline_path is None:
        baseline_path = _latest_report(args.output_dir, exclude=output_path)
        if baseline_path is None:
            print("# no baseline report found; comparison skipped")
            return 1 if gates_failed else 0
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    print(f"# baseline: {baseline_path}")

    failed = False
    for entry in harness.compare_reports(
        baseline, report, max_regression=args.max_regression
    ):
        if entry["status"] == "missing":
            # Direction matters: a scenario absent from the *baseline* is
            # expected whenever a new tier lands (nothing to regress
            # against), while one absent from the *current* report usually
            # means the run was filtered or the scenario was dropped.
            if entry["baseline_eps"] is None:
                print(
                    f"{entry['name']:24s}   new scenario, no baseline "
                    f"({entry['current_eps']:,.0f} raw events/s)"
                )
            else:
                print(
                    f"{entry['name']:24s}   in baseline only; not measured "
                    "in this run"
                )
            continue
        marker = {
            "ok": " ",
            "improvement": "+",
            "regression": "!",
        }[entry["status"]]
        print(
            f"{entry['name']:24s} {marker} {entry['speedup']:.2f}x "
            f"calibrated vs baseline "
            f"({entry['baseline_eps']:,.0f} -> {entry['current_eps']:,.0f} "
            f"raw events/s)"
        )
        # Informational counter block: never a gate.  Either side may
        # predate the telemetry subsystem (or have run --no-telemetry),
        # so a missing block prints as "-" instead of failing.
        base_counters = entry["baseline_counters"]
        cur_counters = entry["current_counters"]
        if base_counters is not None or cur_counters is not None:
            def _events(counters):
                if counters is None:
                    return "-"
                return f"{counters.get('events_dispatched', 0):,}"
            print(
                f"{'':24s}   counters: events_dispatched "
                f"{_events(base_counters)} -> {_events(cur_counters)}"
            )
        if entry["status"] == "regression":
            failed = True
    if failed:
        print(
            f"# FAIL: regression beyond {args.max_regression:.0%} "
            "of calibrated events/sec"
        )
        return 1
    if gates_failed:
        return 1
    print("# OK: no scenario regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
