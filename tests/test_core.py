import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopdetect import (
    MAX_HOPS,
    MAX_NODE_ID,
    HopOverflow,
    LoopHeader,
    ReceiveOutcome,
    initialize_packet,
    receive_packet,
)
from loopdetect.core import _DETECTED, _transition
from loopdetect.reference import _check_int
from oracles import naive_is_power_of_two, rejection

node_ids = st.integers(min_value=0, max_value=MAX_NODE_ID)


@pytest.mark.parametrize("origin", [0x0A, 0, 0xFFFFFFFFFFFFFFFF])
def test_initialize_packet(origin):
    header = initialize_packet(origin)
    assert header == LoopHeader(tortoise=origin, hops=0)
    assert type(header) is LoopHeader


@pytest.mark.parametrize("origin", [-1, MAX_NODE_ID + 1])
def test_initialize_packet_rejects_out_of_range(origin):
    # the one integer rule's rejection; tests/test_arguments.py pins its wording
    expected = rejection(_check_int, "node id", origin, 0, MAX_NODE_ID)
    assert rejection(initialize_packet, origin) == expected


def test_receive_detects_at_origin_self_loop():
    outcome = receive_packet(LoopHeader(tortoise=5, hops=0), receiver=5)
    assert outcome.loop_detected
    assert outcome.updated_header is None


def test_receive_snapshots_at_power_of_two():
    outcome = receive_packet(LoopHeader(tortoise=1, hops=1), receiver=2)
    assert not outcome.loop_detected
    assert outcome.updated_header == LoopHeader(tortoise=2, hops=2)


def test_receive_keeps_tortoise_off_schedule():
    outcome = receive_packet(LoopHeader(tortoise=1, hops=2), receiver=2)
    assert not outcome.loop_detected
    assert outcome.updated_header == LoopHeader(tortoise=1, hops=3)


@pytest.mark.parametrize("receiver", [-1, MAX_NODE_ID + 1])
def test_receive_rejects_out_of_range_receiver(receiver):
    expected = rejection(_check_int, "node id", receiver, 0, MAX_NODE_ID)
    assert rejection(receive_packet, LoopHeader(tortoise=1, hops=0), receiver) == expected


@pytest.mark.parametrize("header,receiver", [(LoopHeader(5, 0), 5), (LoopHeader(1, 1), 2)])
def test_receive_returns_named_types(header, receiver):
    outcome = receive_packet(header, receiver)
    assert type(outcome) is ReceiveOutcome
    updated = outcome.updated_header
    assert updated is None or type(updated) is LoopHeader


def test_receive_overflow_at_saturated_counter():
    with pytest.raises(HopOverflow):
        receive_packet(LoopHeader(tortoise=1, hops=MAX_HOPS), receiver=2)


def test_receive_comparison_wins_over_snapshot():
    # a match landing exactly on a snapshot hop must detect, not overwrite
    outcome = receive_packet(LoopHeader(tortoise=9, hops=3), receiver=9)
    assert outcome.loop_detected


def test_receive_is_pure():
    header = LoopHeader(tortoise=3, hops=7)
    assert receive_packet(header, 4) == receive_packet(header, 4)
    assert header == LoopHeader(3, 7)


def test_receive_snapshots_exactly_at_powers_of_two_exhaustively():
    # receiver 2 never matches tortoise 1, so every step forwards; the
    # snapshot (tortoise becomes the receiver) must land exactly on the
    # powers of two of the incremented hop count
    for hops in range(MAX_HOPS):
        _, header = receive_packet(LoopHeader(1, hops), 2)
        assert (header.tortoise == 2) is naive_is_power_of_two(hops + 1), hops


def test_receive_packet_is_the_kernel_checked_and_wrapped_exhaustively():
    # every counter value, with a receiver equal to the tortoise and one not
    for hops in range(MAX_HOPS + 1):
        for receiver in (7, 8):
            header = LoopHeader(7, hops)
            if hops == MAX_HOPS:
                with pytest.raises(HopOverflow, match=f"^hop counter saturated at {hops}$"):
                    _transition(7, hops, receiver)
                with pytest.raises(HopOverflow, match=f"^hop counter saturated at {hops}$"):
                    receive_packet(header, receiver)
                continue
            fields = _transition(7, hops, receiver)
            outcome = receive_packet(header, receiver)
            assert (fields is None) is (receiver == 7), hops
            if fields is None:
                assert outcome is _DETECTED
            else:
                assert outcome == (False, fields), hops
                assert type(outcome) is ReceiveOutcome
                assert type(outcome.updated_header) is LoopHeader


def walk(ids):
    """Apply receive_packet along ids[1:] from a header initialized at
    ids[0]; return the per-hop headers."""
    header = initialize_packet(ids[0])
    seen = []
    for receiver in ids[1:]:
        outcome = receive_packet(header, receiver)
        assert not outcome.loop_detected
        header = outcome.updated_header
        seen.append(header)
    return seen


@settings(max_examples=200)
@given(st.lists(node_ids, unique=True, min_size=2, max_size=300))
def test_distinct_ids_never_detect(ids):
    headers = walk(ids)
    assert [h.hops for h in headers] == list(range(1, len(ids)))


@settings(max_examples=200)
@given(st.lists(node_ids, unique=True, min_size=2, max_size=300))
def test_tortoise_tracks_last_power_of_two_snapshot(ids):
    # after h hops the tortoise is the node seen at the largest power of
    # two <= h, or the origin before the first hop
    headers = walk(ids)
    for header in headers:
        h = header.hops
        p = 1
        while p * 2 <= h:
            p *= 2
        assert header.tortoise == ids[p]


@settings(max_examples=100)
@given(st.lists(node_ids, unique=True, min_size=2, max_size=300))
def test_tortoise_changes_exactly_at_powers_of_two(ids):
    previous = initialize_packet(ids[0])
    for header in walk(ids):
        changed = header.tortoise != previous.tortoise
        if naive_is_power_of_two(header.hops):
            # receiver may coincide with the old snapshot only via
            # duplicate ids, which unique=True rules out
            assert changed
        else:
            assert not changed
        previous = header


@given(node_ids, node_ids, st.integers(min_value=0, max_value=MAX_HOPS - 1))
def test_receive_step_invariants(tortoise, receiver, hops):
    outcome = receive_packet(LoopHeader(tortoise, hops), receiver)
    assert outcome.loop_detected == (tortoise == receiver)
    if outcome.loop_detected:
        assert outcome.updated_header is None
    else:
        updated = outcome.updated_header
        assert updated.hops == hops + 1
        assert updated.tortoise in (tortoise, receiver)
