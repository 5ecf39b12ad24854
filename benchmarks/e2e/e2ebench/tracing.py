"""In-memory span recorder of the traced run, with self-time arithmetic.

Spans are recorded from the benchmark's own files, around the calls into
each layer — name, start, end, the span that caused it, and the run
(repetition) they belong to.  They stay in memory until the run ends and are
then written as a Chrome trace-event document plus a self-time table.  The
process-usage readers the timed children share live here too.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Peak resident set of this process or its largest reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class SpanRecorder:
    """Records nested spans; ``with recorder.span("layer.call"): ...``."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        #: Identifier shared by the spans of one scenario repetition.
        self.run_id: Optional[str] = None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Per span: its duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes negative.
    """
    children: Dict[int, List[Dict[str, Any]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    result = []
    for index, record in enumerate(spans):
        covered = 0.0
        reach = record["start"]
        for child in sorted(children.get(index, ()), key=lambda c: c["start"]):
            start = max(child["start"], reach)
            end = min(child["end"], record["end"])
            if end > start:
                covered += end - start
                reach = end
        result.append(record["end"] - record["start"] - covered)
    return result


def span_table(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Calls, total and self time per span name."""
    table: Dict[str, Dict[str, float]] = {}
    for record, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += record["end"] - record["start"]
        row["self_s"] += own
    return table


def durations(spans: List[Dict[str, Any]], name: str) -> List[float]:
    """Durations of every span called ``name``, in recording order."""
    return [
        record["end"] - record["start"]
        for record in spans
        if record["name"] == name
    ]


def chrome_trace(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The spans as a Chrome trace-event document (complete events)."""
    origin = min((record["start"] for record in spans), default=0.0)
    events = []
    for index, record in enumerate(spans):
        args = {"id": index, "parent": record["parent"], "run": record["run"]}
        args.update(record["attrs"])
        events.append({
            "name": record["name"],
            "cat": record["name"].split(".")[0],
            "ph": "X",
            "ts": (record["start"] - origin) * 1e6,
            "dur": (record["end"] - record["start"]) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
