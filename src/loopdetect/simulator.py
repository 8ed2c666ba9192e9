"""Deterministic single-packet forwarding simulation.

Topologies are functional graphs: every node has exactly one successor
(a per-destination next hop) or a terminal, so a packet's path is a walk
that either exits the network or enters a cycle. The simulator drives
core's transition kernel, the state machine behind receive_packet, hop
by hop on plain (tortoise, hops) fields, and records a full trace as two
columns: per hop, the receiver and the tortoise the header leaves with.
Rows are built from those columns only when read, and the CSV renders
them block by block, column by column. Runs are synchronous and
single-packet; queuing, loss, and reordering do not affect what is being
checked here.

Each run owns its graph and trace, so independent runs may execute in
parallel without synchronization.
"""

import functools
import random
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import count, groupby, islice, repeat
from operator import ne
from typing import NamedTuple, Optional, Sequence

from .core import MAX_HOPS, MAX_NODE_ID, HopOverflow, _transition, initialize_packet
from .core import receive_packet  # not called here; bench/tracing.py wraps this name
from .reference import _check_int

REACH = MAX_HOPS + 2  # nodes a walk touches: origin, MAX_HOPS receivers, the overflow node


class BadArity(ValueError):
    """Explicit id list does not match the requested topology size."""


class BadIndex(IndexError):
    """Node position that is not an int in [0, n), or positions that must differ do not."""


@dataclass(frozen=True)
class FunctionalGraph:
    """Forwarding topology: node ids by index, one successor (or None) each.

    Ids repeat only if a duplicate was injected on purpose; the builders
    below always draw them distinct.
    """

    ids: tuple[int, ...]
    succ: tuple[Optional[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "succ", tuple(self.succ))
        n = len(self.ids)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if len(self.succ) != n:
            raise ValueError("ids and succ must have equal length")
        # exactly int, as %x and the codec need; _check_int is called only to raise
        for value in self.ids:
            if type(value) is not int or not 0 <= value <= MAX_NODE_ID:
                _check_int("node id", value, 0, MAX_NODE_ID)
        for nxt in self.succ:
            if nxt is not None and (type(nxt) is not int or not 0 <= nxt < n):
                _check_int("successor index", nxt, 0, n - 1)

    def __len__(self) -> int:
        return len(self.ids)

    def _check_position(self, name: str, value) -> None:
        """Raise BadIndex naming ``value`` unless it is an int in [0, n);
        exactly int, so True and 1.0 are rejected, not used as 1."""
        if type(value) is not int:
            raise BadIndex(f"{name} {value!r} is not an int")
        if not 0 <= value < len(self.ids):
            raise BadIndex(f"{name} {value} outside graph of {len(self.ids)} nodes")


class Outcome(Enum):
    DETECTED = "detected"
    TERMINATED = "terminated"
    BUDGET_EXHAUSTED = "budget_exhausted"
    HOP_OVERFLOW = "hop_overflow"


class TraceStep(NamedTuple):
    hop: int
    node: int
    tortoise_after: int
    snapshot_taken: bool


_new = tuple.__new__


@dataclass(frozen=True)
class SimTrace:
    """Record of one run plus its outcome, kept as two columns.

    ``nodes[i]`` is the receiver at hop i + 1. ``tortoises[0]`` is the
    origin and ``tortoises[i]`` the tortoise after hop i, so there is one
    more tortoise than there are nodes; a detecting hop repeats the
    tortoise before it. ``at_hop`` is the detection hop for DETECTED, and
    for TERMINATED the index of the hop that would have left the graph; it
    is None for the budget and overflow outcomes.
    """

    nodes: tuple[int, ...]
    tortoises: tuple[int, ...]
    outcome: Outcome
    at_hop: Optional[int]

    @functools.cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        """One TraceStep per hop, built on first read; a snapshot is
        exactly a tortoise change."""
        tortoises = self.tortoises
        after = islice(tortoises, 1, None)
        snapshots = map(ne, islice(tortoises, 1, None), tortoises)
        rows = zip(count(1), self.nodes, after, snapshots)
        return tuple(map(_new, repeat(TraceStep), rows))


def build_rho(
    mu: int,
    lam: int,
    ids: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
) -> FunctionalGraph:
    """Tail of ``mu`` nodes feeding a cycle of ``lam`` nodes.

    Node 0 is the walk's start; the cycle is mu -> mu+1 -> ... -> mu+lam-1
    -> mu. Ids may be given explicitly (length must be mu + lam) or are
    drawn distinct from the 64-bit space using ``seed``.
    """
    _check_int("tail length", mu, 0)
    _check_int("cycle length", lam, 1)
    n = mu + lam
    node_ids = _resolve_ids(n, ids, seed)
    succ = tuple(range(1, n)) + (mu,)
    return FunctionalGraph(node_ids, succ)


def build_chain(
    length: int,
    ids: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
) -> FunctionalGraph:
    """Loop-free path of ``length`` nodes ending in a terminal."""
    _check_int("chain length", length, 1)
    node_ids = _resolve_ids(length, ids, seed)
    succ = tuple(range(1, length)) + (None,)
    return FunctionalGraph(node_ids, succ)


def build_within_reach(
    mu: Optional[int], lam: Optional[int], chain: Optional[int] = None, seed: Optional[int] = None
) -> FunctionalGraph:
    """``build_chain(chain)`` if ``chain`` is given, else ``build_rho(mu, lam)``,
    cut to its first REACH nodes: a walk from node 0 overflows the hop counter
    before it touches a node past them, and seeded ids keep their prefix, so
    ``simulate`` gives the same trace. Plain mins keep the builders' checks."""
    if chain is not None:
        return build_chain(min(chain, REACH), seed=seed)
    mu = min(mu, REACH - 1)
    return build_rho(mu, min(lam, REACH - mu), seed=seed)


def random_functional_graph(
    n: int, terminal_prob: float, seed: Optional[int] = None
) -> FunctionalGraph:
    """Uniform random successor per node, replaced by a terminal with
    probability ``terminal_prob``. Deterministic for a fixed seed."""
    _check_int("n", n, 1)
    if not 0.0 <= terminal_prob <= 1.0:
        raise ValueError(f"terminal_prob must be within [0, 1], got {terminal_prob!r}")
    rng = random.Random(seed)
    succ: list[Optional[int]] = []
    for _ in range(n):
        if rng.random() < terminal_prob:
            succ.append(None)
        else:
            succ.append(rng.randrange(n))
    return FunctionalGraph(_draw_distinct_ids(rng, n), tuple(succ))


def inject_duplicate(
    graph: FunctionalGraph, position_a: int, position_b: int
) -> FunctionalGraph:
    """Copy of ``graph`` with node position_b's id replaced by position_a's.

    Positional so false-positive geometry is precisely controllable: the
    duplicate fires only if position_a's id is still the tortoise when the
    packet reaches position_b. A position that is not an int in [0, n)
    raises BadIndex.
    """
    for position in (position_a, position_b):
        graph._check_position("position", position)
    if position_a == position_b:
        raise BadIndex("duplicate positions must differ")
    ids = list(graph.ids)
    ids[position_b] = ids[position_a]
    return FunctionalGraph(tuple(ids), graph.succ)


def simulate(
    graph: FunctionalGraph, start: int, max_hops: Optional[int] = None
) -> SimTrace:
    """Forward one packet from ``start`` until it loops, exits, or expires.

    Initializes the header at the start node, then repeatedly moves to the
    successor and applies core's transition kernel, the one state machine
    behind receive_packet. All terminal conditions are encoded in the
    outcome, never raised. By default the hop counter alone bounds the
    walk, which ends by hop MAX_HOPS + 1; only an explicit ``max_hops``
    can end it in BUDGET_EXHAUSTED. BadIndex if ``start`` is
    not an int in [0, n); ValueError if ``max_hops`` is not an int >= 1.
    """
    graph._check_position("start", start)
    max_hops = MAX_HOPS + 1 if max_hops is None else max_hops
    _check_int("max_hops", max_hops, 1)
    ids = graph.ids
    succ = graph.succ
    # the module global, read per run, so a wrapped kernel is seen; the
    # graph checked every id, so no hop repeats receive_packet's range check
    step = _transition
    tortoise, hops = initialize_packet(ids[start])
    nodes: list[int] = []
    tortoises = [tortoise]
    add_node = nodes.append
    add_tortoise = tortoises.append
    pos = start
    try:
        for hop in range(1, max_hops + 1):
            nxt = succ[pos]
            if nxt is None:
                return _trace(nodes, tortoises, Outcome.TERMINATED, hop)
            node_id = ids[nxt]
            fields = step(tortoise, hops, node_id)
            add_node(node_id)
            if fields is None:
                # the tortoise stands, so the row shows no snapshot
                add_tortoise(tortoise)
                return _trace(nodes, tortoises, Outcome.DETECTED, hop)
            tortoise, hops = fields
            add_tortoise(tortoise)
            pos = nxt
    except HopOverflow:
        return _trace(nodes, tortoises, Outcome.HOP_OVERFLOW, None)
    return _trace(nodes, tortoises, Outcome.BUDGET_EXHAUSTED, None)


def _trace(nodes, tortoises, outcome, at_hop) -> SimTrace:
    return SimTrace(tuple(nodes), tuple(tortoises), outcome, at_hop)


TRACE_CSV_HEADER = "hop,node_id_hex,tortoise_hex,snapshot,outcome"


_CSV_BLOCK = 4096  # rows per rendered block: bounds the transient cell strings


def trace_csv(trace: SimTrace) -> str:
    """Render a trace as CSV, one row per step; the final row carries the
    outcome. Node ids print as 16-digit lowercase hex."""
    nodes = trace.nodes
    tortoises = trace.tortoises
    blocks = [_csv_block(nodes, tortoises, first) for first in range(0, len(nodes), _CSV_BLOCK)]
    # no hops: the outcome sits on a row of empty cells
    lines = [TRACE_CSV_HEADER, *(blocks or [",,,,"]), ""]
    lines[-2] += _outcome_label(trace)
    return "\n".join(lines)


def _csv_block(nodes, tortoises, first: int) -> str:
    """Rows first + 1 .. first + _CSV_BLOCK (or the last hop) as one text,
    rendered by column: every node hexed by one struct.pack, and each run
    of one tortoise formats its "%016x,<snapshot>," cells once."""
    last = min(first + _CSV_BLOCK, len(nodes))
    node_hex = struct.pack(f">{last - first}Q", *nodes[first:last]).hex(",", 8).split(",")
    suffixes: list[str] = []
    before = tortoises[first]
    for tortoise, run in groupby(tortoises[first + 1 : last + 1]):
        # a tortoise change is a snapshot; the rest of its run repeats it
        cell = "%016x," % tortoise
        suffixes.append(cell + ("1," if tortoise != before else "0,"))
        suffixes += repeat(cell + "0,", len(list(run)) - 1)
        before = tortoise
    hops = map(str, range(first + 1, last + 1))
    return "\n".join(map(",".join, zip(hops, node_hex, suffixes)))


def _outcome_label(trace: SimTrace) -> str:
    if trace.at_hop is None:
        return trace.outcome.value
    return f"{trace.outcome.value}({trace.at_hop})"


def _resolve_ids(
    n: int, ids: Optional[Sequence[int]], seed: Optional[int]
) -> tuple[int, ...]:
    if ids is not None:
        explicit = tuple(ids)
        if len(explicit) != n:
            raise BadArity(f"need {n} ids, got {len(explicit)}")
        if len(set(explicit)) != n:
            raise ValueError("explicit ids must be distinct; use inject_duplicate")
        return explicit
    return _draw_distinct_ids(random.Random(seed), n)


_ID_BLOCK = 1024  # ids per randbytes call: bounds the transient bytes and tuple


def _draw_distinct_ids(rng: random.Random, count: int) -> tuple[int, ...]:
    """``count`` distinct 64-bit ids in the order of successive
    ``getrandbits(64)`` calls, a repeated value skipped.

    ``randbytes(8 * k)`` is ``getrandbits(64 * k)`` in little-endian order,
    filled from its lowest 32-bit word up, so it yields exactly the values
    of k successive ``getrandbits(64)`` calls. The dict keeps the first
    draw of each value, and each refill asks only for the ids still
    missing, so the generator uses up the same words as the one-at-a-time
    loop and ends in the same state. The blocks never reorder that stream,
    so a longer draw from one seed starts with every id of a shorter one.
    """
    drawn: dict[int, None] = {}
    while len(drawn) < count:
        k = min(count - len(drawn), _ID_BLOCK)
        drawn.update(dict.fromkeys(struct.unpack(f"<{k}Q", rng.randbytes(8 * k))))
    return tuple(drawn)
