"""Runtime telemetry: counters, gauges, phase spans, trace export.

Zero-overhead-when-disabled instrumentation for the three delivery
engines.  See ``docs/OBSERVABILITY.md`` for the recorder API, the
counter glossary and the trace-export workflow.

Quick start::

    from repro.network import NetworkConditions
    from repro.protocols import create_protocol
    from repro.telemetry import TelemetryRecorder, recording

    protocol = create_protocol("flood")
    recorder = TelemetryRecorder()
    with recording(recorder):
        session = protocol.build(overlay, NetworkConditions.ideal(), seed=0)
        protocol.broadcast(session, 0, "tx")
    print(recorder.counters["events_dispatched"])
"""

import logging

from repro.telemetry.export import aggregate_telemetry, chrome_trace, write_json
from repro.telemetry.recorder import (
    NULL_RECORDER,
    Recorder,
    TelemetryRecorder,
    current_recorder,
    recording,
)
from repro.telemetry.schema import SchemaError, validate

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "Recorder",
    "TelemetryRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "recording",
    "aggregate_telemetry",
    "chrome_trace",
    "write_json",
    "SchemaError",
    "validate",
]
