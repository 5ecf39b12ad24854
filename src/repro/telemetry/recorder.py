"""Recorder protocol and the concrete in-memory telemetry recorder.

The subsystem is built around one rule: when telemetry is off (the
default) the engines must not change behaviour *or* pay for the
instrumentation.  That is achieved structurally rather than by runtime
checks in hot loops:

* ``Recorder`` is a no-op base class with ``enabled = False``; callers
  that hold a recorder reference normalise it to ``None`` when it is not
  enabled, so the per-event paths never see a recorder at all.
* Counters the engines maintain anyway (churn drops, loss drops) are
  read as before/after deltas at ``Simulator.run()`` boundaries.
* The only genuinely per-event observation — queue depth tracking — is
  opt-in (``TelemetryRecorder(queue_depth=True)``) because it shadows
  ``EventQueue.push`` with a counting wrapper.

A recorder is installed either explicitly (the ``telemetry=`` keyword on
``Simulator``/``run_attack_experiment``) or ambiently via the
``recording()`` context manager, which every ``Simulator`` consults at
construction time.  The ambient route is what lets the scenario runner
and the benchmark harness instrument protocol sessions without touching
any protocol build signature.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

logger = logging.getLogger(__name__)

__all__ = [
    "Recorder",
    "TelemetryRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "recording",
]


class _NullSpan:
    """Reusable, stateless context manager for no-op spans."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Recorder:
    """No-op recorder: the default when telemetry is disabled.

    Every method is safe to call and does nothing; ``enabled`` is the
    single flag engines consult (once, at construction) to decide
    whether to keep a reference at all.
    """

    enabled = False
    #: Opt-in per-event queue depth tracking (see TelemetryRecorder).
    queue_depth = False

    def incr(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the counter ``name``."""

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""

    def gauge_max(self, name: str, value: float) -> None:
        """Raise the gauge ``name`` to ``value`` if it is a new peak."""

    def fallback(self, reason: str) -> None:
        """Count one engine-fallback occurrence under ``reason``."""

    def record_shard(self, shard: int, counters: Dict[str, int]) -> None:
        """Merge a worker's counter dict under its shard index."""

    def span(self, name: str, **attrs: Any) -> Any:
        """Context manager timing a phase; no-op here."""
        return _NULL_SPAN

    def sample_rss(self) -> None:
        """Record the process's peak RSS into the gauges."""


#: Shared no-op instance; handy for ``telemetry or NULL_RECORDER``.
NULL_RECORDER = Recorder()


class TelemetryRecorder(Recorder):
    """Concrete recorder: counters, gauges, histograms, spans, shards.

    All state is plain Python dicts/lists of JSON-serialisable values so
    a recorder document survives ``pickle`` (multiprocessing sweeps) and
    ``json.dump`` unchanged.  Timings use ``time.perf_counter`` relative
    to the recorder's creation, expressed in integer microseconds.

    ``queue_depth=True`` additionally asks simulators to track the event
    queue's live-entry peak; that shadows the queue's push methods with
    counting wrappers and therefore costs a little per event, which is
    why it is not the default.
    """

    enabled = True

    #: Hard cap on recorded spans; protocols that poll ``run()`` in a
    #: loop would otherwise grow the tree without bound.  Overflow is
    #: counted in the ``spans_dropped`` counter.
    MAX_SPANS = 10_000

    def __init__(self, queue_depth: bool = False) -> None:
        self.queue_depth = queue_depth
        self._origin = time.perf_counter()
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, Any]] = {}
        self.fallbacks: Dict[str, int] = {}
        self.shards: Dict[int, Dict[str, int]] = {}
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._span_count = 0

    # -- clocks ---------------------------------------------------------

    def _now_us(self) -> int:
        return int((time.perf_counter() - self._origin) * 1_000_000)

    # -- scalar instruments --------------------------------------------

    def incr(self, name: str, value: int = 1) -> None:
        if value:
            self.counters[name] = self.counters.get(name, 0) + int(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = {
                "count": 0,
                "sum": 0,
                "min": value,
                "max": value,
                "buckets": {},
            }
        hist["count"] += 1
        hist["sum"] += value
        if value < hist["min"]:
            hist["min"] = value
        if value > hist["max"]:
            hist["max"] = value
        # Power-of-two bucket upper bounds keyed as strings for JSON:
        # value v lands in the smallest 2**k >= v (0 gets its own bucket).
        if value <= 0:
            key = "0"
        else:
            key = str(1 << max(0, int(value - 1).bit_length()))
        buckets = hist["buckets"]
        buckets[key] = buckets.get(key, 0) + 1

    def gauge_max(self, name: str, value: float) -> None:
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def record_shard(self, shard: int, counters: Dict[str, int]) -> None:
        slot = self.shards.setdefault(int(shard), {})
        for key, value in counters.items():
            slot[key] = slot.get(key, 0) + int(value)

    def sample_rss(self) -> None:
        try:
            import resource
        except ImportError:  # pragma: no cover - non-POSIX platforms
            return
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux; macOS reports bytes but the gauge is
        # informational, so we keep the raw platform unit and name it so.
        self.gauge_max("peak_rss_kib", float(usage.ru_maxrss))

    # -- spans ----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Dict[str, Any]]]:
        """Time a phase; nests into a tree following ``with`` nesting."""
        node = self._open_span(name, attrs)
        try:
            yield node
        finally:
            self._close_span(node)

    def _open_span(
        self, name: str, attrs: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        if self._span_count >= self.MAX_SPANS:
            self.incr("spans_dropped")
            return None
        self._span_count += 1
        node: Dict[str, Any] = {
            "name": name,
            "start_us": self._now_us(),
            "dur_us": None,
            "children": [],
        }
        if attrs:
            node["attrs"] = dict(attrs)
        parent = self._stack[-1] if self._stack else None
        (parent["children"] if parent is not None else self.spans).append(node)
        self._stack.append(node)
        return node

    def _close_span(self, node: Optional[Dict[str, Any]]) -> None:
        if node is None:
            return
        node["dur_us"] = max(0, self._now_us() - node["start_us"])
        # Pop down to the node so a mispaired close cannot corrupt the
        # stack for subsequent spans.
        while self._stack:
            if self._stack.pop() is node:
                break

    # -- export ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Snapshot as a JSON document (see tests/telemetry/*.schema.json)."""
        now = self._now_us()

        def _copy(span: Dict[str, Any]) -> Dict[str, Any]:
            out = dict(span)
            if out["dur_us"] is None:  # still open: report elapsed so far
                out["dur_us"] = max(0, now - out["start_us"])
            out["children"] = [_copy(child) for child in span["children"]]
            return out

        return {
            "version": 1,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {**hist, "buckets": dict(hist["buckets"])}
                for name, hist in self.histograms.items()
            },
            "fallbacks": dict(self.fallbacks),
            "shards": {
                str(shard): dict(counters)
                for shard, counters in self.shards.items()
            },
            "spans": [_copy(span) for span in self.spans],
        }


# -- ambient recorder ----------------------------------------------------

_CURRENT: Optional[Recorder] = None


def current_recorder() -> Optional[Recorder]:
    """The ambiently installed recorder, or ``None``.

    ``Simulator`` consults this at construction when no explicit
    ``telemetry=`` argument is given, so an enclosing ``recording()``
    block instruments every simulator built inside it — including the
    ones protocol adapters build internally.
    """
    return _CURRENT


@contextmanager
def recording(recorder: Optional[Recorder]) -> Iterator[Optional[Recorder]]:
    """Install ``recorder`` as the ambient recorder for the block.

    ``recording(None)`` (and recorders with ``enabled`` false) is a
    transparent no-op, so call sites can wrap unconditionally.
    """
    global _CURRENT
    if recorder is None or not recorder.enabled:
        yield None
        return
    previous = _CURRENT
    _CURRENT = recorder
    try:
        yield recorder
    finally:
        _CURRENT = previous
