import random
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from loopdetect import (
    HEADER_LEN,
    MAX_HOPS,
    MAX_NODE_ID,
    MAX_NONCE,
    FunctionalGraph,
    HopOverflow,
    LoopHeader,
    Truncated,
    build_chain,
    build_rho,
    decode,
    encode,
    forward,
    initialize_packet,
    packet_digest,
    receive_packet,
    simulate,
    virtual_id,
)
from loopdetect.reference import _check_int
from loopdetect.vid import TRUE_ID_LEN
from oracles import rejection

FIELD_TOPS = {"tortoise": MAX_NODE_ID, "hops": MAX_HOPS, "nonce": MAX_NONCE}

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


def test_decode_reads_any_bytes_like_wire():
    expected = decode(PINNED_WIRE)
    assert decode(bytearray(PINNED_WIRE)) == expected
    assert decode(memoryview(PINNED_WIRE + b"payload")) == expected
    with pytest.raises(Truncated, match="need 14 bytes, got 13"):
        decode(memoryview(PINNED_WIRE)[:13])
    # a strided view is bytes-like too: it reads as bytes(view) does
    wire = encode(LoopHeader(7, 3), 9) + b"payload"
    spread = bytearray(2 * len(wire))
    spread[::2] = wire
    strided = memoryview(spread)[::2]
    assert bytes(strided) == wire
    assert decode(strided) == decode(wire)
    trueid = bytes(range(TRUE_ID_LEN))
    assert forward(strided, trueid) == forward(wire, trueid) is not None
    with pytest.raises(Truncated, match="need 14 bytes, got 13"):
        decode(memoryview(bytes(26))[::2])


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
    # the one integer rule's rejection of the bad field; tests/test_arguments.py
    # pins its wording
    values = {"tortoise": tortoise, "hops": hops, "nonce": nonce}
    field = next(name for name, top in FIELD_TOPS.items() if not 0 <= values[name] <= top)
    expected = rejection(_check_int, field, values[field], 0, FIELD_TOPS[field])
    assert rejection(encode, LoopHeader(tortoise, hops), nonce) == expected


@pytest.mark.parametrize(
    "field, tortoise, hops, nonce",
    [("tortoise", 1.5, 0, 0), ("hops", 0, 1.5, 0), ("nonce", 0, 0, 1.5)],
)
def test_encode_rejects_non_integer_field(field, tortoise, hops, nonce):
    # a ValueError that names the field, never struct's own error, chained or not
    expected = rejection(_check_int, field, 1.5, 0, FIELD_TOPS[field])
    with pytest.raises(ValueError) as caught:
        encode(LoopHeader(tortoise, hops), nonce)
    assert str(caught.value) == expected
    assert caught.value.__context__ is None and caught.value.__cause__ is None


def walk_the_wire(succ, trueids, payload, nonce):
    """(outcome, hop) of one packet that crosses every hop as wire bytes,
    each hop one ``forward``. Asserts that the nonce and the payload reach
    every hop unchanged."""
    origin = virtual_id(trueids[0], packet_digest(payload, nonce))
    wire = encode(initialize_packet(origin), nonce) + payload
    nonce_and_payload = nonce.to_bytes(4, "big") + payload  # the header ends with the nonce
    pos = 0
    for hop in range(1, MAX_HOPS + 2):
        assert wire[HEADER_LEN - 4 :] == nonce_and_payload, hop
        nxt = succ[pos]
        if nxt is None:
            return "terminated", hop
        try:
            wire = forward(wire, trueids[nxt])
        except HopOverflow:
            return "hop_overflow", None
        if wire is None:
            return "detected", hop
        pos = nxt
    raise AssertionError("the hop counter did not bound the walk")


@pytest.mark.parametrize(
    "graph",
    [build_rho(0, 1), build_rho(2, 4), build_rho(16, 16), build_rho(300, 700),
     build_chain(1), build_chain(5), build_chain(1000), build_chain(70_000)],
    ids=["rho-0-1", "rho-2-4", "rho-16-16", "rho-300-700",
         "chain-1", "chain-5", "chain-1000", "chain-70000"],
)
def test_a_packet_walked_through_wire_bytes_matches_simulate(graph):
    rng = random.Random(len(graph))
    blob = rng.randbytes(TRUE_ID_LEN * len(graph))
    trueids = [blob[i : i + TRUE_ID_LEN] for i in range(0, len(blob), TRUE_ID_LEN)]
    payload, nonce = rng.randbytes(16), rng.getrandbits(32)
    digest = packet_digest(payload, nonce)
    vids = tuple(virtual_id(trueid, digest) for trueid in trueids)
    trace = simulate(FunctionalGraph(vids, graph.succ), 0)
    expected = (trace.outcome.value, trace.at_hop)
    assert walk_the_wire(graph.succ, trueids, payload, nonce) == expected


FORWARD_TRUEID = bytes(range(TRUE_ID_LEN))
FORWARD_BODY, FORWARD_NONCE = b"sixteen byte pay", 0xC0FFEE
FORWARD_VID = virtual_id(FORWARD_TRUEID, packet_digest(FORWARD_BODY, FORWARD_NONCE))


def test_forward_is_the_composed_hop_at_every_counter_value():
    # a tortoise equal to the receiver's virtual id and one not, at every
    # hops; each bytes-like form of the wire forwards to the same bytes
    for hops in range(MAX_HOPS + 1):
        for tortoise in (FORWARD_VID, FORWARD_VID ^ 1):
            header = LoopHeader(tortoise, hops)
            wire = encode(header, FORWARD_NONCE) + FORWARD_BODY
            if hops == MAX_HOPS:
                for form in (bytes, bytearray, memoryview):
                    with pytest.raises(HopOverflow, match=f"^hop counter saturated at {hops}$"):
                        forward(form(wire), FORWARD_TRUEID)
                continue
            detected, updated = receive_packet(header, FORWARD_VID)
            expected = None if detected else encode(updated, FORWARD_NONCE) + FORWARD_BODY
            assert detected is (tortoise == FORWARD_VID), hops
            for form in (bytes, bytearray, memoryview):
                forwarded = forward(form(wire), FORWARD_TRUEID)
                assert forwarded == expected, (hops, form)
                assert forwarded is None or type(forwarded) is bytes


def test_forward_reads_the_body_by_byte_from_any_buffer():
    # an array of 16-bit items is 15 items long but 30 bytes; decode reads
    # its first 14 bytes, and the body is the 16 bytes behind them
    wire = encode(LoopHeader(FORWARD_VID ^ 1, 3), FORWARD_NONCE) + FORWARD_BODY
    items = array("H")
    items.frombytes(wire)
    assert forward(items, FORWARD_TRUEID) == forward(wire, FORWARD_TRUEID)


@pytest.mark.parametrize("wire", [b"", bytes(13), "00" * 14])
def test_forward_rejects_a_wire_as_decode_does(wire):
    with pytest.raises(ValueError) as expected:
        decode(wire)
    with pytest.raises(ValueError) as caught:
        forward(wire, FORWARD_TRUEID)
    assert type(caught.value) is type(expected.value)
    assert str(caught.value) == str(expected.value)
