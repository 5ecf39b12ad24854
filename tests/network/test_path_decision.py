"""The one path decision, row by row against ``docs/ARCHITECTURE.md``.

``Simulator._choose_path`` is the only place that maps what a run can
observe to ``(path, reason)``.  Each case below builds the situation one
row of the eligibility table in ``docs/ARCHITECTURE.md`` describes and
checks the function's answer; the table itself is parsed from the docs so
a reason string cannot change in one place only.  Which configurations
*run* identically on every path is pinned elsewhere
(``test_batched_engine.py``, ``test_sharded_engine.py``, the property
tests); this module is about the decision alone.
"""

import inspect
import multiprocessing
import re
from pathlib import Path

from types import SimpleNamespace

import pytest

from repro.broadcast.flood import FloodNode
from repro.broadcast.gossip import GossipNode
from repro.network import simulator as simulator_mod
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.message import Message
from repro.network.simulator import NO_COHORTS, NO_KERNEL, Simulator
from repro.network.topology import random_regular_overlay

ARCHITECTURE = Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"


class _FloodSubclass(FloodNode):
    """Subclasses may override what the kernel hard-codes: no kernel."""


def _sim(engine, node=FloodNode, shards=2, **conditions):
    overlay = random_regular_overlay(40, degree=4, seed=3)
    sim = Simulator(
        overlay,
        seed=0,
        conditions=NetworkConditions(
            latency=ConstantLatency(1.0), **conditions
        ),
        engine=engine,
        shards=shards if engine == "sharded" else None,
    )
    sim.populate(node)
    sim.node(0).originate("tx")
    return sim


def _timer(sim, monkeypatch):
    sim.schedule(0.5, lambda: None)


def _direct_send(sim, monkeypatch):
    sim.send(0, 5, Message(kind="flood", payload_id="tx"), direct=True)


def _no_fork(sim, monkeypatch):
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )


def _daemonic(sim, monkeypatch):
    # What a ``multiprocessing.Pool`` worker (``ParallelSweep``) sees.
    monkeypatch.setattr(
        multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True)
    )


def _not_linux(sim, monkeypatch):
    monkeypatch.setattr(simulator_mod.sys, "platform", "darwin")


# (id, simulator kwargs, extra setup, until, expected (path, reason))
CASES = [
    ("event-cap", dict(engine="event"), None, None, ("event", None)),
    ("jitter", dict(engine="sharded", jitter=0.05), None, None,
     ("event", NO_COHORTS)),
    ("no-kernel", dict(engine="sharded", node=_FloodSubclass), None, None,
     ("event", NO_KERNEL)),
    ("batched-cap", dict(engine="batched", loss_probability=0.1), None, None,
     ("batched", None)),
    ("not-linux", dict(engine="sharded"), _not_linux, None,
     ("batched", "no fork start method on this platform")),
    ("no-fork", dict(engine="sharded"), _no_fork, None,
     ("batched", "no fork start method on this platform")),
    ("daemonic", dict(engine="sharded"), _daemonic, None,
     ("batched", "daemonic process cannot fork shard workers")),
    ("until", dict(engine="sharded"), None, 50.0,
     ("batched", "bounded run (until set)")),
    ("loss", dict(engine="sharded", loss_probability=0.1), None, None,
     ("batched", "link loss enabled")),
    ("one-shard", dict(engine="sharded", shards=1), None, None,
     ("batched", "<2 shards")),
    ("timer", dict(engine="sharded"), _timer, None,
     ("batched", "timer in queue")),
    ("direct-send", dict(engine="sharded"), _direct_send, None,
     ("batched",
      "foreign queue entry (direct send, foreign kind, unregistered "
      "endpoint or buffered block)")),
    ("protocol-rng", dict(engine="sharded", node=GossipNode), None, None,
     ("batched",
      "kernel cannot run in shard workers (protocol rng or a fan-out "
      "other than exclude-sender)")),
    ("sharded", dict(engine="sharded"), None, None, ("sharded", None)),
]


def documented_rows():
    """``(path, reason)`` of every row of the eligibility table in the docs."""
    rows = []
    in_table = False
    for line in ARCHITECTURE.read_text().splitlines():
        if line.startswith("| the run observes | path |"):
            in_table = True
            continue
        if not in_table or line.startswith("|---"):
            continue
        if not line.startswith("|"):
            break
        _, path, reason = (cell.strip() for cell in line.strip("|").rsplit("|", 2))
        match = re.fullmatch(r"`(.+)`", reason)
        rows.append((path.strip("`"), match.group(1) if match else None))
    return rows


@pytest.mark.parametrize(
    "kwargs, setup, until, expected",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_choose_path_row(monkeypatch, kwargs, setup, until, expected):
    sim = _sim(**kwargs)
    if setup is not None:
        setup(sim, monkeypatch)
    path, reason, split = sim._choose_path(until)
    assert (path, reason) == expected
    assert (split is not None) == (path == "sharded")
    # Deciding consumes nothing: the run then lands where it said it would.
    pending = sim.pending_events
    assert sim._choose_path(until)[:2] == expected
    assert sim.pending_events == pending
    sim.run(until=until)
    assert (sim.engine_effective, sim.fallback_reason) == expected


def test_block_left_by_a_bounded_run_keeps_the_next_run_in_process():
    # run(until=...) under a sharded cap goes batched and may leave a cohort
    # block queued; that block is a "foreign entry" to the split.
    sim = _sim("sharded")
    sim.run(until=1.5)
    assert sim.pending_events > 0
    path, reason, _ = sim._choose_path(None)
    assert path == "batched" and "buffered block" in reason
    sim.run_until_idle()
    assert sim.metrics.reach("tx") == 40


def test_documented_table_matches_the_decision():
    documented = documented_rows()
    assert documented, "eligibility table not found in docs/ARCHITECTURE.md"
    # Every documented row is exercised above and vice versa ...
    assert set(documented) == {case[4] for case in CASES}
    # ... and the function has exactly one return per documented row.
    source = inspect.getsource(Simulator._choose_path)
    assert len(re.findall(r"^\s+return ", source, re.M)) == len(documented)
