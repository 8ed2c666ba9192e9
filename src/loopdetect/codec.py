"""Wire form of the loop header: 14 bytes, fixed layout, network byte order.

    bytes [0, 8)    tortoise   unsigned 64-bit big-endian
    bytes [8, 10)   hops       unsigned 16-bit big-endian
    bytes [10, 14)  nonce      unsigned 32-bit big-endian

No padding, no optional fields, no version byte. ``forward`` is one hop
on these bytes.
"""

import struct

from .core import MAX_HOPS, MAX_NODE_ID, LoopHeader, _transition
from .reference import _check_int
from .vid import MAX_NONCE, packet_digest, virtual_id

HEADER_LEN = 14
_LAYOUT = struct.Struct(">QHI")
_pack = _LAYOUT.pack
_unpack_from = _LAYOUT.unpack_from
_new = tuple.__new__


class Truncated(ValueError):
    """Fewer than 14 bytes available to decode."""


def encode(header: LoopHeader, nonce: int) -> bytes:
    """Pack a header and nonce into the 14-byte wire form."""
    try:
        tortoise, hops = header
    except (TypeError, ValueError):  # a try costs nothing on the valid path
        raise ValueError(f"header must be a (tortoise, hops) pair, got {header!r}") from None
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
    and are not consumed. ``wire`` is any bytes-like object; anything else
    raises ValueError naming its type."""
    try:
        tortoise, hops, nonce = _unpack_from(wire)  # struct decides what it reads
    except TypeError:
        raise ValueError(f"wire must be bytes-like, got {type(wire).__name__}") from None
    except struct.error:
        raise Truncated(f"need {HEADER_LEN} bytes, got {len(wire)}") from None
    except BufferError:  # a strided view: bytes() reads it in order
        return decode(bytes(wire))
    return _new(LoopHeader, (tortoise, hops)), nonce


def forward(wire: bytes, trueid: bytes) -> bytes | None:
    """One hop at the node whose true id is ``trueid``: the wire it forwards,
    or None on a detected loop. The nonce and the body behind the header pass
    on unchanged. Raises as decode, virtual_id and the kernel do."""
    (tortoise, hops), nonce = decode(wire)
    body = bytes(wire)[HEADER_LEN:]  # by byte, whatever the buffer's item size
    fields = _transition(tortoise, hops, virtual_id(trueid, packet_digest(body, nonce)))
    return None if fields is None else encode(fields, nonce) + body
