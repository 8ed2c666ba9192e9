"""Every size, budget and width argument, and the origin id given to
initialize_packet, is exactly an int, checked once at the function that
takes it: a float or a bool raises ValueError naming the value, never a
TypeError from deeper down and never a result."""

import math
import re

import pytest

from loopdetect import (
    CollisionQuery,
    CycleStructure,
    build_chain,
    build_rho,
    collision_probability_approx,
    collision_probability_exact,
    initialize_packet,
    latency_table,
    predict_detection_hop,
    random_functional_graph,
    simulate,
)


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
    "initialize_packet-float": (initialize_packet, (2.5,), "node id not an int: 2.5"),
    "initialize_packet-bool": (initialize_packet, (True,), "node id not an int: True"),
}


@pytest.mark.parametrize("case", CASES)
def test_count_arguments_must_be_exact_ints(case):
    function, args, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        function(*args)
    assert type(caught.value) is ValueError
