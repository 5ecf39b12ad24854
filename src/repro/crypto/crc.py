"""CRC-32 framing used to detect DC-net collisions.

The paper notes (Section III-B and V-A) that DC-net payloads *"should carry
CRC bits or a similar protection"* so that simultaneous senders — whose XORed
payloads produce garbage — are detected and can retry with a backoff.  The
checksum is the standard CRC-32 (IEEE 802.3, reflected polynomial
``0xEDB88320``) as the standard library's :func:`zlib.crc32` computes it;
this module adds the incremental interface and the 4-byte framing.
"""

from __future__ import annotations

import zlib
from typing import Tuple

#: Number of bytes a CRC-32 checksum occupies when framed onto a payload.
CRC_BYTES = 4


class CRC32:
    """Incremental CRC-32 computation.

    Example:
        >>> crc = CRC32()
        >>> crc.update(b"hello ")
        >>> crc.update(b"world")
        >>> crc.digest() == crc32(b"hello world")
        True
    """

    def __init__(self) -> None:
        self._value = 0

    def update(self, data: bytes) -> None:
        """Feed ``data`` into the running checksum."""
        self._value = zlib.crc32(data, self._value)

    def digest(self) -> int:
        """Return the checksum of all data fed so far."""
        return self._value


def crc32(data: bytes) -> int:
    """Compute the CRC-32 checksum of ``data`` in one call."""
    crc = CRC32()
    crc.update(data)
    return crc.digest()


def append_crc(payload: bytes) -> bytes:
    """Frame ``payload`` with its 4-byte big-endian CRC-32 appended."""
    return payload + crc32(payload).to_bytes(CRC_BYTES, "big")


def split_crc(framed: bytes) -> Tuple[bytes, int]:
    """Split a framed message into ``(payload, checksum)``.

    Raises:
        ValueError: if ``framed`` is shorter than the checksum itself.
    """
    if len(framed) < CRC_BYTES:
        raise ValueError("framed message is shorter than a CRC-32 checksum")
    payload, checksum = framed[:-CRC_BYTES], framed[-CRC_BYTES:]
    return payload, int.from_bytes(checksum, "big")


def verify_crc(framed: bytes) -> bool:
    """Return ``True`` iff the framed message carries a valid checksum."""
    try:
        payload, checksum = split_crc(framed)
    except ValueError:
        return False
    return crc32(payload) == checksum
