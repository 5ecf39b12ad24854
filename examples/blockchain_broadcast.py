#!/usr/bin/env python3
"""Blockchain scenario: private transaction broadcast feeding a miner.

Reproduces the setting of Section II of the paper end to end: wallets create
transactions, the three-phase protocol broadcasts them through the
peer-to-peer network without revealing which peer originated them, every peer
adds received transactions to its mempool, and a miner includes them in
proof-of-work blocks and earns the fees.

The network side — overlay, conditions, protocol, seed — is one declarative
scenario spec compiled into a session; the blockchain side drives that
session with real transaction payloads.

Run with:  python examples/blockchain_broadcast.py
"""

import random

from repro.blockchain import Blockchain, Mempool, Miner, Transaction, Wallet
from repro.scenarios import (
    ConditionsSpec,
    ScenarioSpec,
    SeedPolicy,
    TopologySpec,
    build_session,
)

SPEC = ScenarioSpec(
    name="blockchain_broadcast",
    description="Three-phase broadcasts feeding a proof-of-work miner",
    topology=TopologySpec(
        "random_regular", {"num_nodes": 200, "degree": 8, "seed": 7}
    ),
    conditions=ConditionsSpec(kind="ideal", delay=0.1),
    protocol="three_phase",
    protocol_options={"group_size": 5, "diffusion_depth": 3},
    seeds=SeedPolicy(base_seed=8),
)


def main() -> None:
    rng = random.Random(7)
    session = build_session(SPEC)
    protocol = session.protocol

    # Wallets live at specific peers; the peer id is what the adversary would
    # like to link to the wallet address.
    alice, bob, carol = (Wallet(rng, label=name) for name in ("alice", "bob", "carol"))
    wallet_location = {alice.address: 12, bob.address: 57, carol.address: 140}

    transactions = [
        alice.create_transaction(bob, amount=30, fee=3),
        bob.create_transaction(carol, amount=12, fee=1),
        carol.create_transaction(alice, amount=5, fee=2),
        alice.create_transaction(carol, amount=9, fee=5),
    ]

    # Broadcast every transaction from the peer hosting the paying wallet.
    mempool = Mempool()
    print("Broadcasting transactions through the three-phase protocol")
    print("=" * 60)
    for tx in transactions:
        source_peer = wallet_location[tx.sender]
        # The serialized transaction is the payload id: the DC-net sends
        # it and the virtual-source hash rule reads it.
        result = protocol.broadcast(session, source_peer, tx.serialize())
        mempool.add(tx)
        print(
            f"tx {tx.tx_id[:12]}…  fee={tx.fee}  "
            f"origin peer hidden among group {result.group} "
            f"(reached {result.delivered_fraction:.0%} of peers, "
            f"{result.messages} messages)"
        )

    # A miner (any peer that received the transactions) builds a block.
    chain = Blockchain(difficulty_bits=6)
    miner = Miner("miner-peer-99", chain, mempool, block_size=3, rng=rng)
    block = miner.mine_block()
    assert block is not None

    print()
    print("Mined block")
    print("=" * 60)
    print(f"height          : {block.height}")
    print(f"block hash      : {block.block_hash[:16]}…")
    print(f"transactions    : {len(block.transactions)} (highest fees first)")
    print(f"fees earned     : {miner.earned_fees}")
    print(f"chain valid     : {chain.validate()}")
    print(f"mempool leftover: {len(mempool)} transaction(s)")

    # Round-trip check: a payload delivered by the broadcast decodes back
    # into the exact transaction the wallet created.
    recovered = Transaction.deserialize(transactions[0].serialize())
    print(f"payload decodes : {recovered == transactions[0]}")


if __name__ == "__main__":
    main()
