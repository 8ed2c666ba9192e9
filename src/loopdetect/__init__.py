"""In-band forwarding-loop detection for packet networks.

Packets carry a 10-byte loop header (a tortoise node id and a hop count,
plus a 4-byte retransmission nonce on the wire); any forwarding loop is
detected in the network itself, quickly and without per-hop caches.
"""

from .analysis import (
    DEFAULT_ID_BITS,
    DEFAULT_PATH_LENGTHS,
    CollisionQuery,
    CollisionRow,
    LatencyRow,
    collision_csv,
    collision_probability_approx,
    collision_probability_exact,
    collision_table,
    latency_csv,
    latency_table,
)
from .codec import HEADER_LEN, Truncated, decode, encode, forward
from .core import (
    MAX_HOPS,
    MAX_NODE_ID,
    HopOverflow,
    LoopHeader,
    ReceiveOutcome,
    initialize_packet,
    receive_packet,
)
from .reference import (
    CycleStructure,
    StepBudgetExceeded,
    brent_detect,
    floyd_detect,
    predict_detection_hop,
    visited_set_oracle,
)
from .simulator import (
    FunctionalGraph,
    Outcome,
    SimTrace,
    TraceStep,
    build_chain,
    build_rho,
    inject_duplicate,
    random_functional_graph,
    simulate,
    trace_csv,
)
from .vid import MAX_NONCE, packet_digest, virtual_id

__version__ = "0.1.0"

__all__ = [
    "CollisionQuery",
    "CollisionRow",
    "CycleStructure",
    "DEFAULT_ID_BITS",
    "DEFAULT_PATH_LENGTHS",
    "FunctionalGraph",
    "HEADER_LEN",
    "HopOverflow",
    "LatencyRow",
    "LoopHeader",
    "MAX_HOPS",
    "MAX_NODE_ID",
    "MAX_NONCE",
    "Outcome",
    "ReceiveOutcome",
    "SimTrace",
    "StepBudgetExceeded",
    "TraceStep",
    "Truncated",
    "brent_detect",
    "build_chain",
    "build_rho",
    "collision_csv",
    "collision_probability_approx",
    "collision_probability_exact",
    "collision_table",
    "decode",
    "encode",
    "floyd_detect",
    "forward",
    "initialize_packet",
    "inject_duplicate",
    "latency_csv",
    "latency_table",
    "packet_digest",
    "predict_detection_hop",
    "random_functional_graph",
    "receive_packet",
    "simulate",
    "trace_csv",
    "virtual_id",
    "visited_set_oracle",
]
