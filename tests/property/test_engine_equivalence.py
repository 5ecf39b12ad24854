"""Engine-equivalence properties: every engine == the event loop, always.

The batched engine (:mod:`repro.network.batched`) re-implements delivery as
vectorised cohorts, and the sharded engine (:mod:`repro.network.sharded`)
spreads those cohorts over worker processes; both promise *bit-identical
observables*: for any seeded scenario, all engines must produce the same
observation log (time, endpoints, kind, payload, size, direct-flag — the
golden-digest definition), the same churn-drop and loss counters, and the
same delivery metrics.

The golden tests in ``tests/network/test_fastpath_determinism.py`` pin a
handful of fixed scenarios; these properties drive the same contract across
randomly drawn overlays, loss/jitter settings, node-churn schedules and
link sever/restore schedules — the regions where an engine divergence
would hide (a mid-flight topology change that one engine applies a cohort
late, a loss draw consumed out of order, a fan-out that ignores a severed
link, a cross-shard delivery ranked out of order).

The draws deliberately cover every execution path (the link delay is
always constant, so the jitter draw alone decides whether cohorts can
form): flood without loss or jitter takes the sharded engine's
multi-process window path; gossip (per-node RNG) and lossy, jitter-free
settings engage the cohort kernel in-process, loss filter included; any
jittery setting runs the event loop on every requested engine.
"""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.flood import FloodNode
from repro.broadcast.gossip import GossipConfig, GossipNode
from repro.network.churn import random_churn_schedule
from repro.network.conditions import NetworkConditions
from repro.network.latency import ConstantLatency
from repro.network.simulator import Simulator
from repro.network.topology import random_regular_overlay
from repro.threat.faults import FlakyLinksFault


def observation_digest(sim: Simulator) -> str:
    """The golden-digest definition (same as the fast-path golden tests)."""
    digest = hashlib.sha256()
    for obs in sim.iter_observations():
        digest.update(
            repr(
                (
                    obs.time,
                    obs.receiver,
                    obs.sender,
                    obs.message.kind,
                    obs.message.payload_id,
                    obs.message.size_bytes,
                    obs.direct,
                )
            ).encode()
        )
    return digest.hexdigest()


def run_one(
    engine: str,
    protocol: str,
    overlay_seed: int,
    run_seed: int,
    size: int,
    degree: int,
    loss: float,
    jitter: float,
    churn_seed,
    link_seed,
    shards=None,
) -> dict:
    """One fully seeded broadcast on the chosen engine, all knobs applied."""
    overlay = random_regular_overlay(size, degree=degree, seed=overlay_seed)
    conditions = NetworkConditions(
        latency=ConstantLatency(0.25),
        loss_probability=loss,
        jitter=jitter,
    )
    sim = Simulator(
        overlay, seed=run_seed, conditions=conditions, engine=engine,
        shards=shards,
    )
    if protocol == "flood":
        sim.populate(FloodNode)
    else:
        config = GossipConfig(fanout=3)
        sim.populate(lambda node_id: GossipNode(node_id, config))
    # Source node 0 never churns, so the broadcast always starts.
    if churn_seed is not None:
        random_churn_schedule(
            overlay,
            leave_fraction=0.2,
            leave_time=0.4,
            rejoin_after=0.5,
            rng=random.Random(churn_seed),
            protected=(0,),
        ).apply(sim)
    if link_seed is not None:
        # A quarter of the links down at 0.3, back at 0.9.
        FlakyLinksFault(
            links=round(0.25 * overlay.number_of_edges()),
            bursts=1,
            start=0.3,
            period=0.6,
            down_time=0.6,
        ).schedule(overlay, random.Random(link_seed)).apply(sim)
    sim.node(0).originate("tx")
    sim.run_until_idle()
    return {
        "digest": observation_digest(sim),
        "events": len(sim.store),
        "churn_dropped": sim.churn_dropped,
        "lost": sim.dropped_messages,
        "reach": sim.metrics.reach("tx"),
        "completion": sim.metrics.completion_time("tx"),
        "delivered": sim.metrics.delivered_nodes("tx"),
        "bytes": sim.metrics.bytes_sent(),
    }


engine_params = {
    "overlay_seed": st.integers(min_value=0, max_value=2**16),
    "run_seed": st.integers(min_value=0, max_value=2**16),
    # Even sizes only: a d-regular graph needs n*d even for odd degrees.
    "size": st.integers(min_value=5, max_value=30).map(lambda n: 2 * n),
    "degree": st.integers(min_value=3, max_value=6),
}


@settings(max_examples=25, deadline=None)
@given(
    protocol=st.sampled_from(["flood", "gossip"]),
    loss=st.sampled_from([0.0, 0.1, 0.3]),
    jitter=st.sampled_from([0.0, 0.05]),
    **engine_params,
)
def test_engines_identical_on_static_overlays(
    protocol, loss, jitter, overlay_seed, run_seed, size, degree
):
    """No churn: every observable matches, including lossy/jittery runs."""
    event = run_one(
        "event", protocol, overlay_seed, run_seed, size, degree,
        loss, jitter, None, None,
    )
    batched = run_one(
        "batched", protocol, overlay_seed, run_seed, size, degree,
        loss, jitter, None, None,
    )
    assert batched == event
    sharded = run_one(
        "sharded", protocol, overlay_seed, run_seed, size, degree,
        loss, jitter, None, None, shards=2,
    )
    assert sharded == event


@settings(max_examples=25, deadline=None)
@given(
    protocol=st.sampled_from(["flood", "gossip"]),
    churn_seed=st.integers(min_value=0, max_value=2**16),
    **engine_params,
)
def test_engines_identical_under_node_churn(
    protocol, churn_seed, overlay_seed, run_seed, size, degree
):
    """Random leave/rejoin schedules: identical logs and churn_dropped."""
    event = run_one(
        "event", protocol, overlay_seed, run_seed, size, degree,
        0.0, 0.0, churn_seed, None,
    )
    batched = run_one(
        "batched", protocol, overlay_seed, run_seed, size, degree,
        0.0, 0.0, churn_seed, None,
    )
    assert batched == event
    sharded = run_one(
        "sharded", protocol, overlay_seed, run_seed, size, degree,
        0.0, 0.0, churn_seed, None, shards=2,
    )
    assert sharded == event


@settings(max_examples=25, deadline=None)
@given(
    protocol=st.sampled_from(["flood", "gossip"]),
    link_seed=st.integers(min_value=0, max_value=2**16),
    **engine_params,
)
def test_engines_identical_under_severed_links(
    protocol, link_seed, overlay_seed, run_seed, size, degree
):
    """Random sever/restore schedules: identical logs and drop counters."""
    event = run_one(
        "event", protocol, overlay_seed, run_seed, size, degree,
        0.0, 0.0, None, link_seed,
    )
    batched = run_one(
        "batched", protocol, overlay_seed, run_seed, size, degree,
        0.0, 0.0, None, link_seed,
    )
    assert batched == event
    sharded = run_one(
        "sharded", protocol, overlay_seed, run_seed, size, degree,
        0.0, 0.0, None, link_seed, shards=2,
    )
    assert sharded == event


@settings(max_examples=15, deadline=None)
@given(
    protocol=st.sampled_from(["flood", "gossip"]),
    loss=st.sampled_from([0.0, 0.15]),
    churn_seed=st.integers(min_value=0, max_value=2**16),
    link_seed=st.integers(min_value=0, max_value=2**16),
    **engine_params,
)
def test_engines_identical_under_combined_stress(
    protocol, loss, churn_seed, link_seed,
    overlay_seed, run_seed, size, degree,
):
    """Loss + node churn + link churn at once — the full adversarial mix."""
    event = run_one(
        "event", protocol, overlay_seed, run_seed, size, degree,
        loss, 0.0, churn_seed, link_seed,
    )
    batched = run_one(
        "batched", protocol, overlay_seed, run_seed, size, degree,
        loss, 0.0, churn_seed, link_seed,
    )
    assert batched == event
    sharded = run_one(
        "sharded", protocol, overlay_seed, run_seed, size, degree,
        loss, 0.0, churn_seed, link_seed, shards=2,
    )
    assert sharded == event
