"""Per-packet forwarding-loop detection state.

A packet carries exactly two fields: the id of one previously visited node
(the tortoise) and a hop count. Every node that forwards the packet
increments the hop count, reports a loop if its own id matches the
tortoise, and otherwise overwrites the tortoise with its own id whenever
the new hop count is a power of two. The packet is the only state; nodes
cache nothing.

The transition itself lives in one private kernel on plain fields, which
trusts its receiver id; ``receive_packet`` is its checked wrapper, and the
simulator, whose graph validated every id at construction, calls the
kernel directly.
"""

from typing import NamedTuple

from .reference import _check_int

NODE_ID_BITS = 64
MAX_NODE_ID = 2**NODE_ID_BITS - 1
MAX_HOPS = 2**16 - 1


class HopOverflow(OverflowError):
    """Hop counter would exceed its 16-bit width; the packet must be dropped.

    This is a TTL-style expiry, not a detected loop. Wrapping is never an
    option because it would corrupt the power-of-two snapshot schedule.
    """


class LoopHeader(NamedTuple):
    """In-band loop-detection state: tortoise node id plus hop count."""

    tortoise: int
    hops: int


class ReceiveOutcome(NamedTuple):
    """Result of one receive step.

    ``updated_header`` is None exactly when ``loop_detected`` is true; a
    detected packet is handed to forwarding policy, not forwarded again.
    """

    loop_detected: bool
    updated_header: LoopHeader | None


_DETECTED = ReceiveOutcome(True, None)
_new = tuple.__new__


def initialize_packet(origin: int) -> LoopHeader:
    """Fresh header at the originating node: tortoise = origin, hops = 0."""
    _check_int("node id", origin, 0, MAX_NODE_ID)
    return _new(LoopHeader, (origin, 0))


def _transition(tortoise: int, hops: int, receiver: int) -> tuple[int, int] | None:
    """The one transition, on fields already known to be valid: the new
    (tortoise, hops), or None on a detected loop. Raises HopOverflow when
    the counter is saturated."""
    if hops >= MAX_HOPS:
        raise HopOverflow(f"hop counter saturated at {hops}")
    if tortoise == receiver:
        return None
    hops += 1
    if not hops & (hops - 1):  # power of two; exact, as hops >= 1 after the increment
        tortoise = receiver
    return tortoise, hops


def receive_packet(header: LoopHeader, receiver: int) -> ReceiveOutcome:
    """Process one forwarding step at the node ``receiver``.

    Compares the tortoise against the receiving node's id; if they
    differ, increments the hop count and only then takes the power-of-two
    snapshot. The comparison must precede the snapshot: a revisit that
    lands exactly on a snapshot hop is still caught, and a node whose next
    hop is itself is caught at hop 1 against the origin's own
    initialization snapshot.

    Raises HopOverflow when the hop counter is already saturated; whether
    a detected loop means drop, log, or signal upstream is forwarding
    policy and out of scope here.
    """
    if type(receiver) is not int or not 0 <= receiver <= MAX_NODE_ID:
        _check_int("node id", receiver, 0, MAX_NODE_ID)  # per hop: called only to raise
    tortoise, hops = header
    fields = _transition(tortoise, hops, receiver)
    if fields is None:
        return _DETECTED
    # tuple.__new__ skips the Python-level NamedTuple constructors; this
    # runs once per forwarded hop
    return _new(ReceiveOutcome, (False, _new(LoopHeader, fields)))
