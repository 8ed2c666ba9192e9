"""Every integer argument is exactly an int in its range, checked once, at
the function that takes it, by the one rule ``reference._check_int``: sizes,
budgets and widths, node ids (graph ids and successor indices, the origin,
the receiver), the nonce, and the wire fields ``encode`` packs. Anything
else, a float or a bool included, raises ValueError with that rule's
message, never a TypeError from deeper down and never a result. This table
is the one place that pins those messages."""

import math

import pytest

from loopdetect import (
    CollisionQuery,
    CycleStructure,
    FunctionalGraph,
    LoopHeader,
    build_chain,
    build_rho,
    collision_probability_approx,
    collision_probability_exact,
    encode,
    initialize_packet,
    latency_table,
    packet_digest,
    predict_detection_hop,
    random_functional_graph,
    receive_packet,
    simulate,
)
from oracles import rejection

ID_RANGE = "[0, 18446744073709551615]"


# id -> (function, args, the exact ValueError message)
CASES = {
    "build_rho-mu-float": (build_rho, (1.0, 2), "tail length must be an int, got 1.0"),
    "build_rho-lam-bool": (build_rho, (0, True), "cycle length must be an int, got True"),
    "build_chain-float": (build_chain, (2.0,), "chain length must be an int, got 2.0"),
    "build_chain-bool": (build_chain, (True,), "chain length must be an int, got True"),
    "random_graph-n-float": (random_functional_graph, (2.5, 0.5), "n must be an int, got 2.5"),
    "random_graph-n-bool": (random_functional_graph, (True, 0.5), "n must be an int, got True"),
    "random_graph-n-zero": (random_functional_graph, (0, 0.5), "n must be >= 1, got 0"),
    "random_graph-prob-1.5": (
        random_functional_graph, (3, 1.5), "terminal_prob must be within [0, 1], got 1.5"
    ),
    "random_graph-prob-nan": (
        random_functional_graph, (3, math.nan), "terminal_prob must be within [0, 1], got nan"
    ),
    "simulate-max_hops-float": (
        simulate, (build_chain(3), 0, 2.5), "max_hops must be an int, got 2.5"
    ),
    "exact-path_length-float": (
        collision_probability_exact,
        (CollisionQuery(2.5, 32),),
        "path_length must be an int, got 2.5",
    ),
    "approx-id_bits-float": (
        collision_probability_approx,
        (CollisionQuery(5, 32.0),),
        "id_bits must be an int, got 32.0",
    ),
    "exact-id_bits-bool": (
        collision_probability_exact, (CollisionQuery(5, True),), "id_bits must be an int, got True"
    ),
    "latency_table-ttl-float": (
        latency_table, ([CycleStructure(2, 4)], 2.5), "ttl must be an int, got 2.5"
    ),
    "predict-lam-float": (
        predict_detection_hop, (CycleStructure(1, 2.0),), "cycle length must be an int, got 2.0"
    ),
    "predict-mu-bool": (
        predict_detection_hop, (CycleStructure(False, 2),), "tail length must be an int, got False"
    ),
    "initialize_packet-float": (initialize_packet, (2.5,), "node id must be an int, got 2.5"),
    "initialize_packet-bool": (initialize_packet, (True,), "node id must be an int, got True"),
    "initialize_packet-negative": (
        initialize_packet, (-1,), f"node id must be within {ID_RANGE}, got -1"
    ),
    "initialize_packet-2**64": (
        initialize_packet, (2**64,), f"node id must be within {ID_RANGE}, got {2**64}"
    ),
    # a bool or a float receiver used to be accepted into the header
    "receive_packet-bool": (
        receive_packet, (initialize_packet(5), True), "node id must be an int, got True"
    ),
    "receive_packet-float": (
        receive_packet, (initialize_packet(5), 1.0), "node id must be an int, got 1.0"
    ),
    "receive_packet-negative": (
        receive_packet, (initialize_packet(5), -1), f"node id must be within {ID_RANGE}, got -1"
    ),
    "receive_packet-2**64": (
        receive_packet,
        (initialize_packet(5), 2**64),
        f"node id must be within {ID_RANGE}, got {2**64}",
    ),
    # True used to hash as nonce 1, and 1.0 to leak AttributeError
    "packet_digest-bool": (packet_digest, (b"", True), "nonce must be an int, got True"),
    "packet_digest-float": (packet_digest, (b"", 1.0), "nonce must be an int, got 1.0"),
    "packet_digest-negative": (
        packet_digest, (b"", -1), "nonce must be within [0, 4294967295], got -1"
    ),
    "packet_digest-2**32": (
        packet_digest, (b"", 2**32), f"nonce must be within [0, 4294967295], got {2**32}"
    ),
    # caught at construction, not later in trace_csv's %x or the wire codec
    "graph-id-bool": (
        FunctionalGraph, ((True, 2), (None, None)), "node id must be an int, got True"
    ),
    "graph-id-float": (
        FunctionalGraph, ((0.5, 1.5, 2.5), (1, 2, None)), "node id must be an int, got 0.5"
    ),
    "graph-id-str": (
        FunctionalGraph, ((1, 2, "3"), (1, 2, None)), "node id must be an int, got '3'"
    ),
    "graph-id-2**64": (
        FunctionalGraph, ((1, 2**64), (1, None)), f"node id must be within {ID_RANGE}, got {2**64}"
    ),
    "build_rho-ids-float": (build_rho, (1, 2, [1, 2.0, 3]), "node id must be an int, got 2.0"),
    # 1.0 used to pass the range test and fail mid-walk; True ran as index 1
    "graph-successor-float": (
        FunctionalGraph, ((5, 6), (1.0, None)), "successor index must be an int, got 1.0"
    ),
    "graph-successor-bool": (
        FunctionalGraph, ((5, 6), (True, None)), "successor index must be an int, got True"
    ),
    "graph-successor-range": (
        FunctionalGraph, ((5, 6), (2, None)), "successor index must be within [0, 1], got 2"
    ),
    # struct packs what it can (a bool as 0/1); the first field it refuses is named
    "encode-tortoise-negative": (
        encode, (LoopHeader(-1, 0), 0), f"tortoise must be within {ID_RANGE}, got -1"
    ),
    "encode-tortoise-2**64": (
        encode, (LoopHeader(2**64, 0), 0), f"tortoise must be within {ID_RANGE}, got {2**64}"
    ),
    "encode-hops-negative": (
        encode, (LoopHeader(0, -1), 0), "hops must be within [0, 65535], got -1"
    ),
    "encode-hops-2**16": (
        encode, (LoopHeader(0, 2**16), 0), "hops must be within [0, 65535], got 65536"
    ),
    "encode-nonce-negative": (
        encode, (LoopHeader(0, 0), -1), "nonce must be within [0, 4294967295], got -1"
    ),
    "encode-nonce-2**32": (
        encode, (LoopHeader(0, 0), 2**32), f"nonce must be within [0, 4294967295], got {2**32}"
    ),
    "encode-tortoise-float": (encode, (LoopHeader(1.5, 0), 0), "tortoise must be an int, got 1.5"),
    "encode-hops-float": (encode, (LoopHeader(0, 1.5), 0), "hops must be an int, got 1.5"),
    "encode-nonce-float": (encode, (LoopHeader(0, 0), 1.5), "nonce must be an int, got 1.5"),
    "encode-all-bad-tortoise-first": (
        encode, (LoopHeader(-1, 1.5), 2**32), f"tortoise must be within {ID_RANGE}, got -1"
    ),
    "encode-hops-before-nonce": (
        encode, (LoopHeader(0, 2**16), 1.5), "hops must be within [0, 65535], got 65536"
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_count_arguments_must_be_exact_ints(case):
    """Each integer argument's rejection: exactly ValueError, exactly this message."""
    function, args, message = CASES[case]
    assert rejection(function, *args) == message
