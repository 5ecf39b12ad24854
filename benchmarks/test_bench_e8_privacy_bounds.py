"""E8 — §V-B: the protocol's privacy guarantees.

Two claims are measured:

* after Phase 1, a coalition of curious group members faces a uniform
  posterior over the honest members (sender ℓ-anonymity), and
* against an outside botnet observer, the probability of identifying the
  true origin of a three-phase broadcast stays far below that of flooding
  and close to the 1/n goal of perfect obfuscation.
"""

from repro.threat.collusion import group_collusion_posterior
from repro.analysis.reporting import format_table
from repro.core.config import ProtocolConfig
from repro.core.orchestrator import ThreePhaseBroadcast
from repro.privacy.anonymity import anonymity_set_size, is_k_anonymous
from repro.privacy.entropy import normalized_entropy
from repro.scenarios import ConditionsSpec, SeedPolicy, run_scenario_once, scenario

ADVERSARY_FRACTION = 0.2

#: The registered three-phase preset (k=6, d=3, seed 31, constant latency);
#: the flood comparison derives protocol, conditions and seed from it.
BASE = scenario("e8_privacy_bounds")


def _measure(overlay_200):
    # Part 1: collusion inside the group.
    protocol = ThreePhaseBroadcast(
        overlay_200, ProtocolConfig(group_size=6, diffusion_depth=3), seed=8
    )
    result = protocol.broadcast(source=0, payload=b"collusion probe")
    colluders = [m for m in result.group if m != 0][:2]
    posterior = group_collusion_posterior(result.group, colluders, true_sender=0)
    honest = len(result.group) - len(colluders)

    # Part 2: outside observer detection probability, protocol vs flood.
    flood = run_scenario_once(
        BASE.derive(
            protocol="flood", protocol_options={},
            conditions=ConditionsSpec(), seeds=SeedPolicy(base_seed=30),
        )
    )
    three_phase = run_scenario_once(BASE)
    return posterior, honest, flood, three_phase


def test_e8_privacy_bounds(benchmark, overlay_200):
    posterior, honest, flood, three_phase = benchmark.pedantic(
        _measure, args=(overlay_200,), iterations=1, rounds=1
    )
    n = overlay_200.number_of_nodes()
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["honest group members (ℓ)", honest],
                ["collusion anonymity-set size", anonymity_set_size(posterior)],
                ["collusion posterior entropy (normalised)", normalized_entropy(posterior)],
                ["flood detection probability", flood.detection.detection_probability],
                ["three-phase detection probability", three_phase.detection.detection_probability],
                ["perfect obfuscation target (1/n)", 1.0 / n],
            ],
            title="E8: privacy lower bound and obfuscation",
        )
    )
    # Phase-1 guarantee: the colluders cannot do better than 1/ℓ.
    assert anonymity_set_size(posterior) == honest
    assert is_k_anonymous(posterior, honest)
    assert normalized_entropy(posterior) > 0.99
    # Outside observers: the protocol is much harder to attack than flooding.
    assert (
        three_phase.detection.detection_probability
        <= flood.detection.detection_probability / 2 + 0.15
    )
