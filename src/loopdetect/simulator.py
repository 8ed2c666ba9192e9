"""Deterministic single-packet forwarding simulation.

Topologies are functional graphs: every node has exactly one successor
(a per-destination next hop) or a terminal, so a packet's path is a walk
that either exits the network or enters a cycle. The simulator drives
core's one transition kernel on plain (tortoise, hops) fields, and the
trace is one column, the receiver per hop, plus the origin; the tortoise
each hop leaves with is derived from them. Runs are synchronous and
single-packet; queuing, loss, and reordering do not affect what is being
checked here. Each run owns its graph and trace, so independent runs may
execute in parallel; they share only immutable tables of CSV cells and of
position ints. How a walk runs, why the builders skip the graph's check and
mark their paths, and how the tortoise is derived: README, Design 1, 2, 3
and 7.
"""

import functools
import random
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, islice, repeat
from operator import ne
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import MAX_HOPS, MAX_NODE_ID, HopOverflow, _advance, _segment_end, _transition
from .core import receive_packet  # not called here; bench/tracing.py wraps this name
from .reference import _check_int, _items

REACH = MAX_HOPS + 2  # nodes a walk touches: origin, MAX_HOPS receivers, the overflow node
_BY_HOP = 16  # hops a walk takes one kernel call each, before it goes by segment
_set = object.__setattr__  # stores a frozen field and makes no instance dict (README, Design 2)


@dataclass(frozen=True, init=False)
class FunctionalGraph:
    """Forwarding topology: node ids by index, one successor (or None) each.

    Ids repeat only if a duplicate was injected on purpose; the builders
    below always make them distinct. This constructor checks every id and
    successor; the builders' graphs skip it, and are marked as paths (see
    ``_graph``).
    """

    ids: tuple[int, ...]
    succ: tuple[Optional[int], ...]
    _is_path = False  # not a field: set only by _graph, so simulate slices ids (README, Design 7)

    def __init__(self, ids: Sequence[int], succ: Sequence[Optional[int]]):
        ids, succ = _items("ids", ids), _items("succ", succ)
        n = len(ids)
        if n < 1:
            raise ValueError("graph needs at least one node")
        if len(succ) != n:
            raise ValueError("ids and succ must have equal length")
        # exactly int, as %x and the codec need
        for value in ids:
            if type(value) is not int or not 0 <= value <= MAX_NODE_ID:
                _check_int("node id", value, 0, MAX_NODE_ID)
        for nxt in succ:
            if nxt is not None and (type(nxt) is not int or not 0 <= nxt < n):
                _check_int("successor index", nxt, 0, n - 1)
        _set(self, "ids", ids)
        _set(self, "succ", succ)

    def __len__(self) -> int:
        return len(self.ids)


class Outcome(Enum):
    DETECTED = "detected"
    TERMINATED = "terminated"
    HOP_OVERFLOW = "hop_overflow"


# bound once: simulate reads a global, not an Enum class attribute, per run
_DETECTED, _TERMINATED, _HOP_OVERFLOW = Outcome.DETECTED, Outcome.TERMINATED, Outcome.HOP_OVERFLOW


class TraceStep(NamedTuple):
    hop: int
    node: int
    tortoise_after: int
    snapshot_taken: bool


_new = tuple.__new__


@dataclass(frozen=True, init=False)
class SimTrace:
    """Record of one run plus its outcome, kept as one column.

    ``nodes[i]`` is the receiver at hop i + 1, and ``origin`` the id of the
    node the walk started from, the header's first tortoise. ``at_hop`` is
    the header's ``hops + 1`` at the hop that ended the walk: the detection
    hop for DETECTED, and for TERMINATED the hop that would have left the
    graph. It is None for HOP_OVERFLOW. The tortoises are not stored; they
    follow from the nodes (README, Design 3).
    """

    nodes: tuple[int, ...]
    origin: int
    outcome: Outcome
    at_hop: Optional[int]

    def __init__(self, nodes, origin: int, outcome: Outcome, at_hop: Optional[int]):
        fields = self.__dict__  # as fast as skipping the constructor (README, Design 2)
        fields["nodes"], fields["origin"] = nodes, origin
        fields["outcome"], fields["at_hop"] = outcome, at_hop

    @functools.cached_property
    def tortoises(self) -> tuple[int, ...]:
        """The origin, then the tortoise after each hop, one more than there
        are nodes, derived on first read; a detecting hop repeats the
        tortoise before it."""
        nodes = self.nodes
        runs = (repeat(tortoise, hi - lo) for tortoise, _, lo, hi in _runs(nodes, 0, len(nodes)))
        return (self.origin, *chain.from_iterable(runs))

    @functools.cached_property
    def steps(self) -> tuple[TraceStep, ...]:
        """One TraceStep per hop, built on first read; a snapshot is
        exactly a tortoise change."""
        tortoises = self.tortoises
        after = islice(tortoises, 1, None)
        snapshots = map(ne, islice(tortoises, 1, None), tortoises)
        rows = zip(count(1), self.nodes, after, snapshots)
        return tuple(map(_new, repeat(TraceStep), rows))


def _graph(ids: tuple[int, ...], succ: tuple[Optional[int], ...]) -> FunctionalGraph:
    """FunctionalGraph(ids, succ) without the constructor's O(n) check, marked
    as a path: the one bypass, for the tuples of the two path builders, valid
    by construction or checked already (README, Design 2 and 7)."""
    graph = object.__new__(FunctionalGraph)
    _set(graph, "ids", ids)
    _set(graph, "succ", succ)
    _set(graph, "_is_path", True)
    return graph


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
    return _path(mu + lam, mu, ids, seed)


def build_chain(
    length: int,
    ids: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
) -> FunctionalGraph:
    """Loop-free path of ``length`` nodes ending in a terminal."""
    _check_int("chain length", length, 1)
    return _path(length, None, ids, seed)


def build_within_reach(
    mu: Optional[int], lam: Optional[int], chain: Optional[int] = None, seed: Optional[int] = None
) -> FunctionalGraph:
    """``build_chain(chain)`` if ``chain`` is given, else ``build_rho(mu, lam)``,
    cut to its first REACH nodes: a walk from node 0 overflows the hop counter
    before it touches a node past them, and seeded ids keep their prefix, so
    ``simulate`` gives the same trace. Plain mins keep the builders' checks."""
    if chain is not None:
        return build_chain(min(chain, REACH), seed=seed)
    return build_rho(*_cut_to_reach(mu, lam), seed=seed)


def _cut_to_reach(mu: int, lam: int) -> tuple[int, int]:
    """(mu, lam) of a rho cut to its first REACH nodes."""
    mu = min(mu, REACH - 1)
    return mu, min(lam, REACH - mu)


def _rho_by_position(mu: int, lam: int) -> FunctionalGraph:
    """The rho of ``build_within_reach(mu, lam)`` with each node's position
    as its id, for a caller that has already checked ``mu`` and ``lam``.

    The kernel tests ids only for equality, so ``simulate`` gives this
    graph the outcome and ``at_hop`` of any distinct ids on the same
    shape. Positions are distinct by construction, so nothing is drawn
    or checked; the ids are the shared position ints (README, Design 6),
    and the successors the same int objects."""
    mu, lam = _cut_to_reach(mu, lam)
    ids = _range(mu + lam)
    return _graph(ids, ids[1:] + (mu,))


def random_functional_graph(
    n: int, terminal_prob: float, seed: Optional[int] = None
) -> FunctionalGraph:
    """Uniform random successor per node, replaced by a terminal with
    probability ``terminal_prob``. Deterministic for a fixed seed."""
    _check_int("n", n, 1)
    # exactly int or float, so True and '0.5' get the range message too
    if type(terminal_prob) not in (int, float) or not 0.0 <= terminal_prob <= 1.0:
        raise ValueError(f"terminal_prob must be within [0, 1], got {terminal_prob!r}")
    rng = random.Random(seed)
    succ: list[Optional[int]] = []
    for _ in range(n):
        if rng.random() < terminal_prob:
            succ.append(None)
        else:
            succ.append(rng.randrange(n))
    return FunctionalGraph(_draw_distinct_ids(rng, n), succ)


def inject_duplicate(
    graph: FunctionalGraph, position_a: int, position_b: int
) -> FunctionalGraph:
    """Copy of ``graph`` with node position_b's id replaced by position_a's.

    Positional so false-positive geometry is precisely controllable: the
    duplicate fires only if position_a's id is still the tortoise when the
    packet reaches position_b. Each position must be an int in [0, n),
    by ``_check_int``; positions that are equal raise ValueError too.
    """
    _check_int("position_a", position_a, 0, len(graph) - 1)
    _check_int("position_b", position_b, 0, len(graph) - 1)
    if position_a == position_b:
        raise ValueError("duplicate positions must differ")
    ids = list(graph.ids)
    ids[position_b] = ids[position_a]
    return FunctionalGraph(ids, graph.succ)


def simulate(graph: FunctionalGraph, start: int) -> SimTrace:
    """Forward one packet from ``start`` until it loops, exits, or its own
    hop counter overflows, which bounds every walk to MAX_HOPS + 1 hops.

    Every end is an outcome, never raised; the walk goes by hop, then by
    segment, each segment's receivers taken at once (README, Design 1 and 7).
    ``start`` must be an int in [0, n).
    """
    ids = graph.ids
    # exactly int, as for a successor index
    if type(start) is not int or not 0 <= start < len(ids):
        _check_int("start", start, 0, len(ids) - 1)
    succ = graph.succ
    # module globals, read per run, so a wrapped kernel is seen
    step, advance = _transition, _advance
    origin = tortoise = ids[start]
    hops = 0
    nodes: list[int] = []
    add_node = nodes.append
    pos = start
    try:
        while hops < _BY_HOP:
            pos = succ[pos]
            if pos is None:
                break
            node_id = ids[pos]
            fields = step(tortoise, hops, node_id)
            add_node(node_id)
            if fields is None:
                return SimTrace(tuple(nodes), origin, _DETECTED, hops + 1)
            tortoise, hops = fields
        if pos is not None:
            last, receivers = succ[-1], None if graph._is_path else _chase(ids, succ, pos)
            while True:
                # one receiver at a saturated counter: a terminal there ends the walk first
                want = _segment_end(hops) - hops
                if receivers is None:
                    segment, pos = _take(ids, last, pos, want)
                else:
                    segment = list(islice(receivers, want))
                if segment:
                    fields = advance(tortoise, hops, segment)
                    if fields is None:
                        found = segment.index(tortoise) + 1
                        nodes += segment[:found]
                        return SimTrace(tuple(nodes), origin, _DETECTED, hops + found)
                    nodes += segment
                    tortoise, hops = fields
                if len(segment) < want:  # a terminal ended the receivers
                    break
        return SimTrace(tuple(nodes), origin, _TERMINATED, hops + 1)
    except HopOverflow:
        return SimTrace(tuple(nodes), origin, _HOP_OVERFLOW, None)


def _take(ids: tuple[int, ...], last: Optional[int], pos: int, want: int) -> tuple[tuple, int]:
    """The next ``want`` ids after position ``pos`` on a path (node i -> i + 1,
    the last node -> ``last``) as one tuple of slices of ``ids``, and the
    position they end at; fewer only at a terminal (README, Design 7)."""
    segment = ids[pos + 1 : pos + 1 + want]
    if len(segment) == want or last is None:
        return segment, pos + want
    laps, rest = divmod(want - len(segment), len(ids) - last)
    segment += ids[last:] * laps if laps else ()  # the cycle is copied only for whole laps
    return segment + ids[last : last + rest], last + rest - 1


def _chase(ids, succ, pos: int) -> Iterator[int]:
    while (pos := succ[pos]) is not None:
        yield ids[pos]


TRACE_CSV_HEADER = "hop,node_id_hex,tortoise_hex,snapshot,outcome"


_CSV_BLOCK = 4096  # rows per rendered block: bounds the transient cell strings


def trace_csv(trace: SimTrace) -> str:
    """Render a trace as CSV, one row per step; the final row carries the
    outcome. Node ids print as 16-digit lowercase hex."""
    nodes = trace.nodes
    detected = trace.at_hop if trace.outcome is _DETECTED else None
    blocks = [_csv_block(nodes, detected, first) for first in range(0, len(nodes), _CSV_BLOCK)]
    at_hop = "" if trace.at_hop is None else f"({trace.at_hop})"
    # no hops: the outcome sits on a row of empty cells
    return "".join([TRACE_CSV_HEADER, *(blocks or ["\n,,,,"]), trace.outcome.value, at_hop, "\n"])


@functools.lru_cache(maxsize=MAX_HOPS // _CSV_BLOCK + 1)
def _hop_labels(first: int) -> list[str]:
    """The cells of rows first + 1 .. first + _CSV_BLOCK, shared by every
    trace: each row's "\\n<hop>," cell, then two empty ones for its node and
    suffix. Callers copy it and never change it (README, Design 3)."""
    hops = range(first + 1, first + _CSV_BLOCK + 1)
    return [cell for hop in hops for cell in ("\n%d," % hop, "", "")]


def _csv_block(nodes, detected: Optional[int], first: int) -> str:
    """Rows first + 1 .. first + _CSV_BLOCK (or the last hop), each after a
    newline, as one text built column by column, with no text made per row.
    ``detected`` is the detecting hop, or None."""
    last = min(first + _CSV_BLOCK, len(nodes))
    node_hex = struct.Struct(f">{last - first}Q").pack(*nodes[first:last]).hex(",", 8).split(",")
    suffixes: list[str] = []
    for tortoise, snapshot, lo, hi in _runs(nodes, first, last):
        cell = ",%016x," % tortoise
        if snapshot:  # a power-of-two hop snapshots, unless it detected
            suffixes.append(cell + ("0," if lo == detected else "1,"))
            lo += 1
        suffixes += repeat(cell + "0,", hi - lo)
    cells = _hop_labels(first)[: 3 * len(node_hex)]
    cells[1::3] = node_hex
    cells[2::3] = suffixes
    return "".join(cells)


def _runs(nodes, first: int, last: int) -> Iterator[tuple[int, bool, int, int]]:
    """(tortoise, snapshot, lo, hi) for each run of hops lo .. hi - 1 within
    first + 1 .. last that leave with one tortoise, ``snapshot`` telling
    whether hop lo is the run's power of two (README, Design 3)."""
    lo = first + 1
    while lo <= last:
        p = 1 << (lo.bit_length() - 1)  # the run's power of two: hops p .. 2p - 1 keep its receiver
        hi = min(2 * p, last + 1)
        yield nodes[p - 1], lo == p, lo, hi
        lo = hi


def _path(
    n: int, last: Optional[int], ids: Optional[Sequence[int]], seed: Optional[int]
) -> FunctionalGraph:
    """Nodes 0 -> 1 -> ... -> n-1 -> ``last`` (a node, or None for a
    terminal), with the explicit ``ids`` or distinct ids drawn from ``seed``.
    Explicit ids pass the public constructor's check first, before the set
    below hashes them, so ``[1, 2, [3]]`` is named, not a TypeError."""
    succ = _range(n)[1:] + (last,)
    if ids is None:
        return _graph(_draw_distinct_ids(random.Random(seed), n), succ)
    node_ids = _items("ids", ids)
    if len(node_ids) != n:
        raise ValueError(f"need {n} ids, got {len(node_ids)}")
    FunctionalGraph(node_ids, succ)
    if len(set(node_ids)) != n:
        raise ValueError("explicit ids must be distinct; use inject_duplicate")
    return _graph(node_ids, succ)


_positions: tuple[int, ...] = ()  # ints 0..k, grown by the builders; never more than REACH + 1


def _range(n: int) -> tuple[int, ...]:
    """tuple(range(n)), its first REACH + 1 ints shared by every graph the
    two path builders make (README, Design 6). A grown table is stored in one
    assignment, so a thread always reads a whole 0..k table."""
    global _positions
    table, cap = _positions, min(n, REACH + 1)
    if len(table) < cap:
        table = _positions = table + tuple(range(len(table), cap))
    return table[:n] if n <= len(table) else table + tuple(range(len(table), n))


def _draw_distinct_ids(rng: random.Random, count: int) -> tuple[int, ...]:
    """``count`` distinct 64-bit ids: the values, and the end state of ``rng``,
    of successive ``getrandbits(64)`` calls with a repeat skipped, drawn in
    one call (README, Design 4)."""
    ids: tuple[int, ...] = ()
    while len(set(ids)) < count:
        ids = tuple(dict.fromkeys(ids))  # each value's first draw, in order
        k = count - len(ids)
        ids += struct.unpack(f"<{k}Q", rng.randbytes(8 * k))
    return ids
