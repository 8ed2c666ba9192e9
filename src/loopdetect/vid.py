"""Per-retransmission virtual node ids.

A node's wire-visible id is derived from a stable 32-byte true id (for
example the SHA-256 digest of the node's public key) and a per-packet
digest that covers a fresh retransmission nonce. A retransmission then
re-randomizes every id on the path, so a pathological duplicate cannot
recur, and the tortoise identity on the wire is scrambled.

The packet digest must exclude the loop header (tortoise and hop count):
those fields change hop by hop, and every node has to derive the same
digest. The nonce travels in the header region (see the codec layout)
precisely so that downstream nodes can recompute their own virtual id.
"""

import hashlib

from .reference import _check_int

TRUE_ID_LEN = 32
DIGEST_LEN = 32
MAX_NONCE = 2**32 - 1


def packet_digest(payload: bytes, nonce: int) -> bytes:
    """SHA-256 over the 4-byte big-endian nonce followed by the payload.

    ``payload`` is the packet content with the loop header excised. The
    nonce must be fresh per retransmission of the same packet; that is
    the caller's obligation.
    """
    if type(nonce) is not int or not 0 <= nonce <= MAX_NONCE:
        _check_int("nonce", nonce, 0, MAX_NONCE)  # per hop: called only to raise
    return hashlib.sha256(nonce.to_bytes(4, "big") + payload).digest()


def virtual_id(trueid: bytes, digest: bytes) -> int:
    """Node id for one packet: first 8 bytes, big-endian, of
    SHA-256(trueid || digest)."""
    if len(trueid) != TRUE_ID_LEN:
        raise ValueError(f"trueid must be {TRUE_ID_LEN} bytes, got {len(trueid)}")
    if len(digest) != DIGEST_LEN:
        raise ValueError(f"digest must be {DIGEST_LEN} bytes, got {len(digest)}")
    return int.from_bytes(hashlib.sha256(trueid + digest).digest()[:8], "big")
