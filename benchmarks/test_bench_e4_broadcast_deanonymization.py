"""E4 — Fig. 2 / §III-A: deanonymising a plain broadcast with a botnet.

The paper motivates the whole line of work with the observation that an
attacker adding nodes until it controls around 20 % of the network can link
a high fraction of transactions to their originator by recording arrival
times.  The benchmark sweeps the compromised fraction and measures first-spy
recall against flood-and-prune.

Under a constant link delay the first spy to hear a flood hears it from the
source exactly when a spy neighbours the source, so first-spy detection has
a closed form: with ``s`` spies drawn from the ``n - 1`` nodes other than
the source, and ``d`` the source's degree, it is
``1 - C(n - 1 - d, s) / C(n - 1, s)``.  The second test holds the simulated
detection at ``IDEAL`` conditions to it.
"""

import math

from repro.analysis.reporting import format_table
from repro.scenarios import (
    AdversarySpec,
    ConditionsSpec,
    SeedPolicy,
    WorkloadSpec,
    run_scenario_once,
    scenario,
)

FRACTIONS = [0.05, 0.1, 0.2, 0.3]

#: The registered scenario this benchmark sweeps; the spec pins overlay,
#: conditions, protocol, workload and base seed — each sweep point derives
#: only the adversary fraction and the historical per-index seed.
BASE = scenario("e4_broadcast_deanonymization")


def _measure():
    rows = []
    for index, fraction in enumerate(FRACTIONS):
        result = run_scenario_once(
            BASE.derive(
                adversary=AdversarySpec(fraction=fraction),
                seeds=SeedPolicy(base_seed=BASE.seeds.base_seed + index),
            )
        )
        rows.append((fraction, result.detection.detection_probability,
                     result.detection.precision))
    return rows


def test_e4_broadcast_deanonymization(benchmark):
    rows = benchmark.pedantic(_measure, iterations=1, rounds=1)
    print()
    print(
        format_table(
            ["adversary fraction", "detection probability", "precision"],
            [[f"{fraction:.2f}", recall, precision] for fraction, recall, precision in rows],
            title="E4: first-spy attack against flood-and-prune",
        )
    )
    recalls = {fraction: recall for fraction, recall, _ in rows}
    # A 20% botnet deanonymises a substantial fraction of broadcasts.
    assert recalls[0.2] >= 0.4
    # More spies means more successful deanonymisation (monotone trend,
    # allowing small-sample noise between adjacent fractions).
    assert recalls[0.3] >= recalls[0.05]
    assert recalls[0.2] >= recalls[0.05]


#: Repetitions per fraction of the closed-form check, and broadcasts per
#: repetition (each broadcast gets a fresh botnet, but the overlay is
#: shared, so only repetitions are counted as independent).
REPETITIONS = 8
BROADCASTS = 8


def closed_form_detection(nodes: int, degree: int, spies: int) -> float:
    """P(at least one of ``spies``, drawn from the ``nodes - 1`` non-source
    nodes, neighbours the source)."""
    return 1 - math.comb(nodes - 1 - degree, spies) / math.comb(nodes - 1, spies)


def test_e4_ideal_detection_matches_closed_form():
    spec = BASE.derive(
        conditions=ConditionsSpec(kind="ideal", delay=0.1),
        workload=WorkloadSpec(broadcasts=BROADCASTS),
    )
    overlay = spec.topology.build()
    nodes = overlay.number_of_nodes()
    degrees = {degree for _, degree in overlay.degree()}
    assert len(degrees) == 1, "the closed form needs a regular overlay"
    degree = degrees.pop()
    rows = []
    for fraction in FRACTIONS:
        point = spec.derive(adversary=AdversarySpec(fraction=fraction))
        detections = [
            run_scenario_once(
                point, seed=spec.seeds.base_seed + repetition
            ).detection.detection_probability
            for repetition in range(REPETITIONS)
        ]
        expected = closed_form_detection(
            nodes, degree, int(round(fraction * nodes))
        )
        simulated = sum(detections) / REPETITIONS
        stderr = math.sqrt(expected * (1 - expected) / REPETITIONS)
        rows.append((fraction, expected, simulated, stderr))
    print()
    print(
        format_table(
            ["adversary fraction", "closed form", "simulated", "binomial s.e."],
            [[f"{f:.2f}", e, m, se] for f, e, m, se in rows],
            title=(
                f"E4 at IDEAL: first-spy detection vs closed form "
                f"({REPETITIONS} repetitions x {BROADCASTS} broadcasts)"
            ),
        )
    )
    for fraction, expected, simulated, stderr in rows:
        assert abs(simulated - expected) <= 3 * stderr, (
            fraction, expected, simulated, stderr,
        )
