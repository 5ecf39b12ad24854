"""``run.py compare BASE.json CHANGE.json``: one verdict per pairing.

For every (workload, end-to-end metric) the two result files share, print
both medians with quartiles, the ratio change/base, and one of

* ``improved`` / ``regressed`` — the change's median is better / worse than
  the base's by more than the metric's bound (and, for ``setup_s``, by more
  than its absolute floor);
* ``unchanged`` — within the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over median, the
  wider of the two sides) exceeds the bound and the two sides' samples
  overlap, so the bound cannot be checked.

Simulated statistics repeat exactly at a fixed seed and are compared
exactly: any difference is ``improved`` or ``regressed``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from e2ebench.catalogue import END_TO_END, EndToEnd

VERDICTS = ("improved", "unchanged", "regressed", "unresolved")


def verdict(metric: EndToEnd, base: Dict[str, Any], change: Dict[str, Any]) -> str:
    """The verdict for one metric on one workload (summaries as stored)."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (change["median"] - base["median"])
    if metric.sim:
        if worse_by == 0:
            return "unchanged"
        return "regressed" if worse_by > 0 else "improved"
    scale = abs(base["median"])
    threshold = max(metric.bound * scale, metric.floor)
    spread = max(
        side["q3"] - side["q1"] for side in (base, change)
    )
    if spread > threshold:
        base_runs = [sign * value for value in base["samples"]]
        change_runs = [sign * value for value in change["samples"]]
        if max(change_runs) < min(base_runs):
            return "improved"
        if min(change_runs) > max(base_runs):
            return "regressed"
        return "unresolved"
    if worse_by > threshold:
        return "regressed"
    if -worse_by > threshold:
        return "improved"
    return "unchanged"


def compare(base: Dict[str, Any], change: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric) present in both files."""
    rows = []
    for name, base_workload in base["workloads"].items():
        change_workload = change["workloads"].get(name)
        if change_workload is None:
            continue
        for metric in END_TO_END:
            a = base_workload["end_to_end"].get(metric.name)
            b = change_workload["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            rows.append({
                "workload": name,
                "metric": metric.name,
                "unit": metric.unit,
                "base": a,
                "change": b,
                "ratio": b["median"] / a["median"] if a["median"] else None,
                "verdict": verdict(metric, a, b),
            })
        for key in ("ops_attempted", "ops_failed"):
            if base_workload[key] != change_workload[key]:
                rows.append({
                    "workload": name, "metric": key, "unit": "count",
                    "base": {"median": base_workload[key]},
                    "change": {"median": change_workload[key]},
                    "ratio": None, "verdict": "regressed",
                })
    return rows


def _cell(summary: Dict[str, Any]) -> str:
    if "q1" not in summary:
        return f"{summary['median']:.6g}"
    return (
        f"{summary['median']:.6g} [{summary['q1']:.6g}, {summary['q3']:.6g}]"
        f" n={summary['n']}"
    )


def main(base_path: str, change_path: str) -> int:
    """Print the comparison; exit 1 on any ``regressed`` or ``unresolved``."""
    with open(base_path) as handle:
        base = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    rows = compare(base, change)
    print(f"base   = {base_path}\nchange = {change_path}")
    print("ratio = change median / base median (base = first file)\n")
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.4f}"
        print(
            f"{row['workload']:18s} {row['metric']:24s} {row['unit']:9s}"
            f" base {_cell(row['base']):44s} change {_cell(row['change']):44s}"
            f" ratio {ratio:8s} {row['verdict']}"
        )
    counts = {name: 0 for name in VERDICTS}
    for row in rows:
        counts[row["verdict"]] += 1
    print("\n" + json.dumps({"rows": len(rows), **counts}))
    return 1 if counts["regressed"] or counts["unresolved"] else 0
