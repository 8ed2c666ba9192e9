import random

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
    """(outcome, hop) of one packet that crosses every hop as wire bytes:
    each receiver decodes the header, derives its virtual id from the
    packet digest, runs the receive step and re-encodes. Asserts that the
    payload and nonce reach every hop unchanged."""
    origin = virtual_id(trueids[0], packet_digest(payload, nonce))
    wire = encode(initialize_packet(origin), nonce) + payload
    pos = 0
    for hop in range(1, MAX_HOPS + 2):
        nxt = succ[pos]
        if nxt is None:
            return "terminated", hop
        header, seen_nonce = decode(wire)
        body = wire[HEADER_LEN:]
        assert (body, seen_nonce) == (payload, nonce)
        receiver = virtual_id(trueids[nxt], packet_digest(body, seen_nonce))
        try:
            detected, updated = receive_packet(header, receiver)
        except HopOverflow:
            return "hop_overflow", None
        if detected:
            return "detected", hop
        wire = encode(updated, seen_nonce) + body
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
