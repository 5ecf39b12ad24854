#!/usr/bin/env python3
"""Parameter trade-off: choosing k and d for a deployment.

The paper's pitch is flexibility: application designers pick the DC-net group
size ``k`` (cryptographic privacy floor, O(k²) message cost) and the
diffusion depth ``d`` (statistical privacy reach, added latency) to match
their use case.  This example sweeps both knobs on a 100-peer overlay and
prints the resulting cost matrix, mirroring the analysis an integrator would
run before deployment.

Each (k, d) cell is a derived scenario spec — the declarative grid the
scenario layer exists for: one base spec, ``derive()`` per grid point,
``build_session()`` into a runnable protocol session.

Run with:  python examples/parameter_tradeoff.py
"""

from repro.analysis.reporting import format_table
from repro.core import Phase
from repro.scenarios import (
    ConditionsSpec,
    ScenarioSpec,
    SeedPolicy,
    TopologySpec,
    build_session,
)

BASE = ScenarioSpec(
    name="parameter_tradeoff",
    description="Three-phase (k, d) cost matrix on 100 peers",
    topology=TopologySpec(
        "random_regular", {"num_nodes": 100, "degree": 8, "seed": 5}
    ),
    conditions=ConditionsSpec(kind="ideal", delay=0.1),
    protocol="three_phase",
)


def main() -> None:
    group_sizes = [3, 5, 8]
    depths = [2, 4]

    rows = []
    for k in group_sizes:
        for d in depths:
            spec = BASE.derive(
                protocol_options={"group_size": k, "diffusion_depth": d},
                seeds=SeedPolicy(base_seed=1000 + 10 * k + d),
            )
            session = build_session(spec)
            result = session.protocol.broadcast(
                session, 0, f"tradeoff probe k={k} d={d}".encode()
            )
            rows.append(
                [
                    k,
                    d,
                    result.messages_by_phase[Phase.DC_NET],
                    result.messages_by_phase[Phase.ADAPTIVE_DIFFUSION],
                    result.messages_by_phase[Phase.FLOOD],
                    result.messages,
                    result.completion_time,
                ]
            )

    print(
        format_table(
            ["k", "d", "dc msgs", "diffusion msgs", "flood msgs", "total", "completion"],
            rows,
            title="Cost of one broadcast on a 100-peer overlay (all runs reach 100%)",
        )
    )
    print()
    print(
        "Reading the table: k only affects the Phase-1 cost (quadratically), "
        "d shifts traffic from the cheap flood phase into the statistical "
        "diffusion phase and stretches the completion time — exactly the "
        "privacy/efficiency dial the paper proposes."
    )


if __name__ == "__main__":
    main()
