#!/usr/bin/env python3
"""Quickstart: broadcast one transaction with the three-phase protocol.

The experiment is declared, not wired: the registered ``quickstart``
scenario spec (see ``scripts/scenario.py describe quickstart``) carries the
overlay (300 Bitcoin-like peers), the network conditions, the protocol and
its parameters (DC-net group of k=5, adaptive diffusion of depth d=4) and
the seed.  This example compiles the spec into a live session, runs a single
transaction and prints what happened in each phase.

Run with:  python examples/quickstart.py
"""

from repro.core import Phase
from repro.scenarios import build_session, scenario


def main() -> None:
    spec = scenario("quickstart")
    session = build_session(spec)
    # Broadcasting through the session's protocol directly (instead of
    # through the attack harness) yields the full per-phase result.
    result = session.protocol.broadcast(
        session, source=17, payload_id=b"alice pays bob 3 coins"
    )

    print("Three-phase privacy-preserving broadcast")
    print("=" * 48)
    print(f"scenario spec         : {spec.name} ({spec.description})")
    print(f"network size          : {session.graph.number_of_nodes()} peers")
    print(f"originator (secret)   : node {result.source}")
    print(f"DC-net group          : {result.group}")
    print(f"initial virtual source: node {result.virtual_source} (hash-selected)")
    print(f"delivered fraction    : {result.delivered_fraction:.1%}")
    print(f"completion time       : {result.completion_time:.2f} simulated time units")
    print()
    print("messages per phase")
    for phase in (Phase.DC_NET, Phase.ADAPTIVE_DIFFUSION, Phase.FLOOD):
        start = result.timeline.start_of(phase)
        print(
            f"  {phase.value:<20} {result.messages_by_phase[phase]:>6} messages"
            f"   (starts at t={start:.2f})"
        )
    print(f"  {'total':<20} {result.messages:>6} messages")


if __name__ == "__main__":
    main()
