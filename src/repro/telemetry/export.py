"""Exporters: scenario-level aggregation and Chrome trace-event output.

Two document shapes travel through this module:

* a *recorder document* — ``TelemetryRecorder.to_dict()``, one per
  repetition;
* a *scenario document* — ``aggregate_telemetry([...])``: the
  per-repetition documents verbatim under ``"repetitions"`` plus summed
  counters/fallbacks, max-merged gauges and per-shard counter totals,
  which is what ``ScenarioResult.telemetry`` and ``--telemetry out.json``
  carry.

``chrome_trace`` accepts either shape and emits the Trace Event Format
JSON that ``chrome://tracing`` (and Perfetto) load directly: one ``"X"``
(complete) event per span, with each repetition on its own ``tid`` row.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence

__all__ = ["aggregate_telemetry", "chrome_trace", "write_json"]


def _merge_sum(target: Dict[str, int], source: Dict[str, int]) -> None:
    for key, value in source.items():
        target[key] = target.get(key, 0) + value


def aggregate_telemetry(docs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-repetition recorder documents into a scenario document."""
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    fallbacks: Dict[str, int] = {}
    shards: Dict[str, Dict[str, int]] = {}
    for doc in docs:
        _merge_sum(counters, doc.get("counters", {}))
        _merge_sum(fallbacks, doc.get("fallbacks", {}))
        for name, value in doc.get("gauges", {}).items():
            if name not in gauges or value > gauges[name]:
                gauges[name] = value
        for shard, shard_counters in doc.get("shards", {}).items():
            _merge_sum(shards.setdefault(str(shard), {}), shard_counters)
    return {
        "repetitions": list(docs),
        "counters": counters,
        "gauges": gauges,
        "fallbacks": fallbacks,
        "shards": shards,
    }


def _span_events(
    spans: Iterable[Dict[str, Any]], pid: int, tid: int
) -> List[Dict[str, Any]]:
    events = []
    pending = list(spans)
    while pending:
        span = pending.pop()
        event = {
            "name": span.get("name", "span"),
            "ph": "X",
            "ts": span.get("start_us", 0),
            "dur": span.get("dur_us") or 0,
            "pid": pid,
            "tid": tid,
            "cat": "repro",
        }
        attrs = span.get("attrs")
        if attrs:
            event["args"] = attrs
        events.append(event)
        pending.extend(span.get("children", []))
    return events


def chrome_trace(telemetry: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a recorder or scenario document to Trace Event Format."""
    docs = telemetry.get("repetitions")
    if docs is None:
        docs = [telemetry]
    events: List[Dict[str, Any]] = []
    for tid, doc in enumerate(docs):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": f"repetition {tid}"},
            }
        )
        events.extend(_span_events(doc.get("spans", []), pid=0, tid=tid))
        counters = doc.get("counters")
        if counters:
            events.append(
                {
                    "name": "counters",
                    "ph": "I",
                    "ts": 0,
                    "pid": 0,
                    "tid": tid,
                    "s": "t",
                    "args": dict(counters),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path: str, document: Dict[str, Any]) -> None:
    """Write a document as stable, human-diffable JSON."""
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
