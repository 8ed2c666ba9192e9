"""Every integer argument is exactly an int in its range, checked once, at
the function that takes it, by the one rule ``reference._check_int``: sizes,
budgets and widths, ``latency_table``'s ttl, node ids (graph ids and
successor indices, the origin, the receiver), node positions (``simulate``'s
start, ``inject_duplicate``'s two positions), the nonce, and the wire fields
``encode`` packs and ``receive_packet`` is handed. Anything else, a float or
a bool included, raises ValueError with that rule's message, never a
TypeError from deeper down and never a result. The byte strings ``vid``
hashes are exactly bytes of their length, by ``vid._check_bytes``; what
``decode`` and ``forward`` read is bytes-like, and a count of explicit ids or a
``terminal_prob`` that does not fit is a plain ValueError too. A container
argument (explicit ids, a graph's ids and successors, ``collision_table``'s
grids, ``latency_table``'s cases) is iterable, by ``reference._items``; a
cycle structure, a header and a collision query are pairs. This table is the
one place that pins those messages."""

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
    collision_table,
    decode,
    encode,
    forward,
    initialize_packet,
    inject_duplicate,
    latency_table,
    packet_digest,
    predict_detection_hop,
    random_functional_graph,
    receive_packet,
    simulate,
    virtual_id,
)
from oracles import rejection

ID_RANGE = "[0, 18446744073709551615]"
CHAIN = build_chain(3, ids=[1, 2, 3])


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
    # exactly int or float, tested inside the range check, so one message
    "random_graph-prob-str": (
        random_functional_graph, (3, "0.5"), "terminal_prob must be within [0, 1], got '0.5'"
    ),
    "random_graph-prob-bool": (
        random_functional_graph, (3, True), "terminal_prob must be within [0, 1], got True"
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
    # a baseline the header's 16-bit counter cannot carry; 10**400 used to overflow a float
    "latency_table-ttl-2**16": (
        latency_table, ([CycleStructure(2, 4)], 2**16), "ttl must be within [1, 65535], got 65536"
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
    # the header handed in is checked too, tortoise first, as encode names them;
    # a float hops used to leak TypeError, and -3 to be forwarded as -2
    "receive_packet-tortoise-float": (
        receive_packet, (LoopHeader(0.5, 1), 5), "tortoise must be an int, got 0.5"
    ),
    "receive_packet-tortoise-2**64": (
        receive_packet, (LoopHeader(2**64, 1), 5), f"tortoise must be within {ID_RANGE}, got {2**64}"
    ),
    "receive_packet-hops-float": (
        receive_packet, (LoopHeader(0, 1.0), 5), "hops must be an int, got 1.0"
    ),
    "receive_packet-hops-negative": (
        receive_packet, (LoopHeader(0, -3), 5), "hops must be within [0, 65535], got -3"
    ),
    # no 16-bit header holds it; hops == 65535 is a HopOverflow instead
    "receive_packet-hops-2**16": (
        receive_packet, (LoopHeader(0, 2**16), 5), "hops must be within [0, 65535], got 65536"
    ),
    "receive_packet-tortoise-before-hops": (
        receive_packet, (LoopHeader(True, -1), 2**64), "tortoise must be an int, got True"
    ),
    "receive_packet-hops-before-receiver": (
        receive_packet, (LoopHeader(0, -1), 2**64), "hops must be within [0, 65535], got -1"
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
    # exactly bytes, named by type, not a TypeError from + or hashlib
    "packet_digest-payload-str": (packet_digest, ("ab", 0), "payload must be bytes, got str"),
    "packet_digest-payload-before-nonce": (
        packet_digest, (None, 1.0), "payload must be bytes, got NoneType"
    ),
    "virtual_id-trueid-str": (
        virtual_id, ("x" * 32, bytes(32)), "trueid must be bytes, got str"
    ),
    "virtual_id-trueid-list": (
        virtual_id, ([0] * 32, bytes(32)), "trueid must be bytes, got list"
    ),
    "virtual_id-digest-str": (
        virtual_id, (bytes(32), "y" * 32), "digest must be bytes, got str"
    ),
    "virtual_id-trueid-short": (
        virtual_id, (bytes(31), "y" * 32), "trueid must be 32 bytes, got 31"
    ),
    "virtual_id-digest-long": (
        virtual_id, (bytes(32), bytes(33)), "digest must be 32 bytes, got 33"
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
    "build_rho-ids-count": (build_rho, (2, 3, [1, 2, 3]), "need 5 ids, got 3"),
    # each id is checked before the distinctness set hashes it
    "build_rho-ids-unhashable": (
        build_rho, (1, 2, [1, 2, [3]]), "node id must be an int, got [3]"
    ),
    # node positions follow the successor-index rule; they used to raise an IndexError
    "simulate-start-bool": (simulate, (CHAIN, True), "start must be an int, got True"),
    "simulate-start-float": (simulate, (CHAIN, 1.0), "start must be an int, got 1.0"),
    "simulate-start-negative": (simulate, (CHAIN, -1), "start must be within [0, 2], got -1"),
    "simulate-start-n": (simulate, (CHAIN, 3), "start must be within [0, 2], got 3"),
    "inject_duplicate-position_a-range": (
        inject_duplicate, (CHAIN, 3, 0), "position_a must be within [0, 2], got 3"
    ),
    "inject_duplicate-position_b-bool": (
        inject_duplicate, (CHAIN, 0, True), "position_b must be an int, got True"
    ),
    "inject_duplicate-equal": (inject_duplicate, (CHAIN, 1, 1), "duplicate positions must differ"),
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
    # any bytes-like wire decodes; anything else is named by type
    "decode-str": (decode, ("00" * 14,), "wire must be bytes-like, got str"),
    "decode-int": (decode, (5,), "wire must be bytes-like, got int"),
    # forward decodes first, then derives the receiver's virtual id
    "forward-wire-str": (forward, ("00" * 15, bytes(32)), "wire must be bytes-like, got str"),
    "forward-trueid-short": (
        forward, (bytes(30), bytes(31)), "trueid must be 32 bytes, got 31"
    ),
    # a container that is no container, or a case that is no (mu, lam) pair,
    # used to leak TypeError or an unpacking ValueError
    "predict-not-a-pair": (
        predict_detection_hop, (5,), "structure must be a (mu, lam) pair, got 5"
    ),
    "collision_table-bit_widths-int": (
        collision_table, (32, [16]), "bit_widths must be a sequence, got 32"
    ),
    "collision_table-path_lengths-int": (
        collision_table, ([32], 16), "path_lengths must be a sequence, got 16"
    ),
    # unorderable with the other lengths; its own row names it
    "collision_table-path_lengths-none": (
        collision_table, ([32], [16, None]), "path_length must be an int, got None"
    ),
    "build_rho-ids-int": (build_rho, (1, 2, 5), "ids must be a sequence, got 5"),
    "latency_table-case-triple": (
        latency_table, ([(0, 3, 1)], 255), "structure must be a (mu, lam) pair, got (0, 3, 1)"
    ),
    "latency_table-cases-int": (latency_table, (5, 255), "cases must be a sequence, got 5"),
    # each used to leak TypeError from the constructor's len() or tuple()
    "graph-ids-int": (FunctionalGraph, (5, [None]), "ids must be a sequence, got 5"),
    "graph-succ-int": (FunctionalGraph, ([5], 3), "succ must be a sequence, got 3"),
    # a header or a query that is no pair used to leak an unpacking error
    "encode-header-int": (encode, (5, 1), "header must be a (tortoise, hops) pair, got 5"),
    "encode-header-triple": (
        encode, ((1, 2, 3), 0), "header must be a (tortoise, hops) pair, got (1, 2, 3)"
    ),
    "receive_packet-header-int": (
        receive_packet, (5, 1), "header must be a (tortoise, hops) pair, got 5"
    ),
    "exact-query-int": (
        collision_probability_exact, (5,), "query must be a (path_length, id_bits) pair, got 5"
    ),
    "approx-query-triple": (
        collision_probability_approx,
        ((1, 2, 3),),
        "query must be a (path_length, id_bits) pair, got (1, 2, 3)",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_count_arguments_must_be_exact_ints(case):
    """Each argument's rejection: exactly ValueError, exactly this message."""
    function, args, message = CASES[case]
    assert rejection(function, *args) == message
