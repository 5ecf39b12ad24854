"""Lightweight cryptographic substrate used by the privacy protocols.

The paper relies on a handful of cryptographic primitives: hashing node
identities and messages (for the Phase-1 to Phase-2 transition), pairwise
secret pads for the DC-network, CRC integrity bits to detect DC-net
collisions, and hash commitments for the blame protocol.  This package
implements all of them from scratch on top of :mod:`hashlib` and a
deterministic pad generator so that every experiment is reproducible.

Nothing in this package performs real network cryptography; the pads
only need to be *unpredictable to non-members*, which a seeded generator
provides while keeping experiments deterministic.
"""

from repro.crypto.crc import CRC32, append_crc, crc32, split_crc, verify_crc
from repro.crypto.commitments import Commitment, commit, verify_commitment
from repro.crypto.hashing import (
    closest_identity,
    hash_bytes,
    hash_distance,
    hash_identity,
    hash_message,
    hash_to_int,
)
from repro.crypto.pads import random_pad, split_into_shares, xor_bytes, zero_bytes

__all__ = [
    "CRC32",
    "append_crc",
    "crc32",
    "split_crc",
    "verify_crc",
    "Commitment",
    "commit",
    "verify_commitment",
    "closest_identity",
    "hash_bytes",
    "hash_distance",
    "hash_identity",
    "hash_message",
    "hash_to_int",
    "random_pad",
    "split_into_shares",
    "xor_bytes",
    "zero_bytes",
]
