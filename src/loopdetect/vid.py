"""Per-retransmission virtual node ids.

A node's wire-visible id is derived from a stable 32-byte true id (for
example the SHA-256 digest of the node's public key) and a per-packet
digest that covers a fresh retransmission nonce. A retransmission then
re-randomizes every id on the path, so a pathological duplicate cannot
recur, and the tortoise identity on the wire is scrambled.
"""

from hashlib import sha256 as _sha256
from struct import Struct

from .reference import _check_int

TRUE_ID_LEN = 32
DIGEST_LEN = 32
MAX_NONCE = 2**32 - 1
_pack_nonce = Struct(">I").pack
_read_id = Struct(">Q").unpack_from


def packet_digest(payload: bytes, nonce: int) -> bytes:
    """SHA-256 over the 4-byte big-endian nonce followed by the payload.

    ``payload`` is the packet content with the loop header excised. The
    nonce must be fresh per retransmission of the same packet; that is
    the caller's obligation.
    """
    if type(payload) is not bytes or type(nonce) is not int or not 0 <= nonce <= MAX_NONCE:
        _check_bytes("payload", payload)
        _check_int("nonce", nonce, 0, MAX_NONCE)
    return _sha256(_pack_nonce(nonce) + payload).digest()


def virtual_id(trueid: bytes, digest: bytes) -> int:
    """Node id for one packet: first 8 bytes, big-endian, of
    SHA-256(trueid || digest)."""
    if type(trueid) is not bytes or len(trueid) != TRUE_ID_LEN:
        _check_bytes("trueid", trueid, TRUE_ID_LEN)
    if type(digest) is not bytes or len(digest) != DIGEST_LEN:
        _check_bytes("digest", digest, DIGEST_LEN)
    return _read_id(_sha256(trueid + digest).digest())[0]


def _check_bytes(name: str, value, length: int | None = None) -> None:
    """ValueError naming the type or length of ``value`` unless it is bytes of ``length``."""
    if type(value) is not bytes:
        raise ValueError(f"{name} must be bytes, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ValueError(f"{name} must be {length} bytes, got {len(value)}")
