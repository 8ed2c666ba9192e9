"""Wire form of the loop header: 14 bytes, fixed layout, network byte order.

    bytes [0, 8)    tortoise   unsigned 64-bit big-endian
    bytes [8, 10)   hops       unsigned 16-bit big-endian
    bytes [10, 14)  nonce      unsigned 32-bit big-endian

No padding, no optional fields, no version byte. Only tortoise and hops
are loop-prevention state; the nonce rides along so every hop can derive
the packet digest for virtual node ids, and it is an input to that
digest, never excluded from it.
"""

import struct

from .core import MAX_HOPS, MAX_NODE_ID, LoopHeader
from .reference import _check_int
from .vid import MAX_NONCE

HEADER_LEN = 14
_LAYOUT = struct.Struct(">QHI")
_pack = _LAYOUT.pack
_unpack_from = _LAYOUT.unpack_from
_new = tuple.__new__


class Truncated(ValueError):
    """Fewer than 14 bytes available to decode."""


def encode(header: LoopHeader, nonce: int) -> bytes:
    """Pack a header and nonce into the 14-byte wire form."""
    tortoise, hops = header
    try:
        return _pack(tortoise, hops, nonce)  # struct decides what it packs
    except struct.error:
        pass  # name the refused field below, with no struct error chained
    _check_int("tortoise", tortoise, 0, MAX_NODE_ID)
    _check_int("hops", hops, 0, MAX_HOPS)
    _check_int("nonce", nonce, 0, MAX_NONCE)
    return _pack(tortoise, hops, nonce)  # not reached: struct refuses no valid field


def decode(wire: bytes) -> tuple[LoopHeader, int]:
    """Inverse of encode on the first 14 bytes; trailing bytes are payload
    and are not consumed."""
    if len(wire) < HEADER_LEN:
        raise Truncated(f"need {HEADER_LEN} bytes, got {len(wire)}")
    tortoise, hops, nonce = _unpack_from(wire)
    return _new(LoopHeader, (tortoise, hops)), nonce
