import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopdetect import HEADER_LEN, LoopHeader, Truncated, decode, encode

PINNED_WIRE = bytes.fromhex("0102030405060708090a0b0c0d0e")


def test_all_zero_header():
    assert encode(LoopHeader(0, 0), 0) == b"\x00" * 14


def test_pinned_byte_layout():
    wire = encode(LoopHeader(0x0102030405060708, 0x090A), 0x0B0C0D0E)
    assert wire == PINNED_WIRE


def test_decode_pinned_layout():
    header, nonce = decode(PINNED_WIRE)
    assert header == LoopHeader(0x0102030405060708, 0x090A)
    assert nonce == 0x0B0C0D0E


def test_decode_all_zero():
    assert decode(b"\x00" * 14) == (LoopHeader(0, 0), 0)


def test_decode_returns_a_loop_header():
    header, _ = decode(PINNED_WIRE)
    assert type(header) is LoopHeader
    assert header.tortoise == 0x0102030405060708 and header.hops == 0x090A


@pytest.mark.parametrize("length", [0, 1, 13])
def test_decode_truncated(length):
    with pytest.raises(Truncated):
        decode(b"\x00" * length)


def test_decode_ignores_trailing_payload():
    header, nonce = decode(PINNED_WIRE + b"payload bytes")
    assert header == LoopHeader(0x0102030405060708, 0x090A)
    assert nonce == 0x0B0C0D0E


def test_encode_length_is_constant():
    rng = random.Random(2)
    for _ in range(200):
        wire = encode(
            LoopHeader(rng.getrandbits(64), rng.getrandbits(16)),
            rng.getrandbits(32),
        )
        assert len(wire) == HEADER_LEN


def test_roundtrip_exhaustive_hops_sampled_ids():
    # the full 65536 x 1000 cross product runs in the acceptance suite
    rng = random.Random(3)
    pairs = [(rng.getrandbits(64), rng.getrandbits(32)) for _ in range(4)]
    for hops in range(65536):
        for tortoise, nonce in pairs:
            header = LoopHeader(tortoise, hops)
            assert decode(encode(header, nonce)) == (header, nonce)


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**16 - 1),
    st.integers(0, 2**32 - 1),
)
def test_roundtrip_property(tortoise, hops, nonce):
    header = LoopHeader(tortoise, hops)
    assert decode(encode(header, nonce)) == (header, nonce)


@pytest.mark.parametrize(
    "tortoise,hops,nonce",
    [
        (-1, 0, 0),
        (2**64, 0, 0),
        (0, -1, 0),
        (0, 2**16, 0),
        (0, 0, -1),
        (0, 0, 2**32),
    ],
)
def test_encode_rejects_out_of_range(tortoise, hops, nonce):
    fields = (("tortoise", tortoise, 2**64), ("hops", hops, 2**16), ("nonce", nonce, 2**32))
    field = next(name for name, value, bound in fields if not 0 <= value < bound)
    with pytest.raises(ValueError, match=f"^{field} out of range"):
        encode(LoopHeader(tortoise, hops), nonce)


@pytest.mark.parametrize(
    "field, tortoise, hops, nonce",
    [("tortoise", 1.5, 0, 0), ("hops", 0, 1.5, 0), ("nonce", 0, 0, 1.5)],
)
def test_encode_rejects_non_integer_field(field, tortoise, hops, nonce):
    # a ValueError that names the field, never struct's own error
    with pytest.raises(ValueError, match=rf"^{field} is not an integer: 1\.5$"):
        encode(LoopHeader(tortoise, hops), nonce)
