"""Every protocol configuration rejects impossible values when it is built.

A bad value must fail as a ``ValueError`` where the configuration is made —
directly, or from a scenario spec's ``protocol_options`` — not later inside
a run: ``round_interval=0`` used to make ``AdaptiveDiffusionProtocol``'s
broadcast loop spin forever without advancing simulated time.  The configs
are frozen, so a value cannot be made bad after the check either.
"""

import dataclasses

import pytest

from repro.broadcast.dandelion import DandelionConfig
from repro.broadcast.gossip import GossipConfig
from repro.diffusion.adaptive import AdaptiveDiffusionConfig
from repro.protocols.adapters import FloodProtocol
from repro.scenarios import ScenarioSpec, TopologySpec

TOPOLOGY = TopologySpec("random_regular", {"num_nodes": 30, "degree": 4, "seed": 1})


def spec(protocol, **options):
    """A scenario spec whose protocol options carry ``options``."""
    return lambda: ScenarioSpec(
        name="bad", topology=TOPOLOGY, protocol=protocol, protocol_options=options
    )


BAD_CONFIGS = {
    "ad-round-interval-zero": lambda: AdaptiveDiffusionConfig(round_interval=0),
    "ad-round-interval-negative": lambda: AdaptiveDiffusionConfig(round_interval=-1.0),
    "ad-max-rounds-zero": lambda: AdaptiveDiffusionConfig(max_rounds=0),
    "ad-assumed-degree-one": lambda: AdaptiveDiffusionConfig(assumed_degree=1),
    "ad-payload-size-zero": lambda: AdaptiveDiffusionConfig(payload_size_bytes=0),
    "ad-control-size-negative": lambda: AdaptiveDiffusionConfig(control_size_bytes=-1),
    "gossip-fanout-zero": lambda: GossipConfig(fanout=0),
    "gossip-payload-size-negative": lambda: GossipConfig(payload_size_bytes=-1),
    "dandelion-payload-size-negative": lambda: DandelionConfig(payload_size_bytes=-1),
    "flood-payload-size-negative": lambda: FloodProtocol(payload_size_bytes=-1),
    "spec-ad-round-interval-zero": spec("adaptive_diffusion", round_interval=0),
    "spec-ad-max-rounds-zero": spec("adaptive_diffusion", max_rounds=0),
    "spec-gossip-fanout-zero": spec("gossip", fanout=0),
    "spec-dandelion-payload-size-negative": spec("dandelion", payload_size_bytes=-1),
    "spec-flood-payload-size-negative": spec("flood", payload_size_bytes=-1),
}


@pytest.mark.parametrize("build", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_is_refused_when_built(build):
    with pytest.raises(ValueError):
        build()


def test_the_smallest_legal_values_are_accepted():
    AdaptiveDiffusionConfig(
        max_rounds=1, round_interval=1e-9, assumed_degree=2,
        payload_size_bytes=1, control_size_bytes=1,
    )
    GossipConfig(fanout=1, payload_size_bytes=1)
    DandelionConfig(payload_size_bytes=1)
    FloodProtocol(payload_size_bytes=1)
    spec("adaptive_diffusion", round_interval=0.5, max_rounds=1)()


@pytest.mark.parametrize(
    "config, field",
    [
        (AdaptiveDiffusionConfig(), "round_interval"),
        (GossipConfig(), "fanout"),
        (DandelionConfig(), "payload_size_bytes"),
    ],
    ids=["adaptive_diffusion", "gossip", "dandelion"],
)
def test_a_checked_config_cannot_be_changed(config, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, 0)
