"""Deterministic single-packet forwarding simulation.

Topologies are functional graphs: every node has exactly one successor
(a per-destination next hop) or a terminal, so a packet's path is a walk
that either exits the network or enters a cycle. The simulator drives
core's one transition kernel on plain (tortoise, hops) fields, and the
trace is two columns: per hop, the receiver and the tortoise the header
leaves with. Runs are synchronous and single-packet; queuing, loss, and
reordering do not affect what is being checked here. Each run owns its
graph and trace, so independent runs may execute in parallel; they share
only immutable tables of CSV hop cells and of position ints. How a walk
runs, and why two builders skip the graph's check: README, Design 1, 2 and 7.
"""

import functools
import random
import struct
from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, cycle, groupby, islice, repeat
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
    successor; the graphs the timed builders make skip it (see ``_graph``).
    """

    ids: tuple[int, ...]
    succ: tuple[Optional[int], ...]

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
    """Record of one run plus its outcome, kept as two columns.

    ``nodes[i]`` is the receiver at hop i + 1. ``tortoises[0]`` is the
    origin and ``tortoises[i]`` the tortoise after hop i, so there is one
    more tortoise than there are nodes; a detecting hop repeats the
    tortoise before it. ``at_hop`` is the header's ``hops + 1`` at the hop
    that ended the walk: the detection hop for DETECTED, and for TERMINATED
    the hop that would have left the graph. It is None for HOP_OVERFLOW.
    """

    nodes: tuple[int, ...]
    tortoises: tuple[int, ...]
    outcome: Outcome
    at_hop: Optional[int]

    def __init__(self, nodes, tortoises, outcome: Outcome, at_hop: Optional[int]):
        fields = self.__dict__  # as fast as skipping the constructor (README, Design 2)
        fields["nodes"], fields["tortoises"] = nodes, tortoises
        fields["outcome"], fields["at_hop"] = outcome, at_hop

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
    """FunctionalGraph(ids, succ) without the constructor's O(n) check: the one
    bypass, for the tuples of the two builders a benchmark times, valid by
    construction (README, Design 2)."""
    graph = object.__new__(FunctionalGraph)
    _set(graph, "ids", ids)
    _set(graph, "succ", succ)
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
    segment, from one stream of receivers (README, Design 1 and 7).
    ``start`` must be an int in [0, n).
    """
    ids = graph.ids
    # exactly int, as for a successor index
    if type(start) is not int or not 0 <= start < len(ids):
        _check_int("start", start, 0, len(ids) - 1)
    succ = graph.succ
    # module globals, read per run, so a wrapped kernel is seen
    step, advance = _transition, _advance
    tortoise, hops = ids[start], 0
    nodes: list[int] = []
    tortoises = [tortoise]
    add_node = nodes.append
    add_tortoise = tortoises.append
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
                # the tortoise stands, so the row shows no snapshot
                add_tortoise(tortoise)
                return SimTrace(tuple(nodes), tuple(tortoises), _DETECTED, hops + 1)
            tortoise, hops = fields
            add_tortoise(tortoise)
        if pos is not None:
            receivers = _receivers(ids, succ, pos)
            while True:
                # one receiver at a saturated counter: a terminal there ends the walk first
                want = _segment_end(hops) - hops
                segment = list(islice(receivers, want))
                if segment:
                    fields = advance(tortoise, hops, segment)
                    if fields is None:
                        found = segment.index(tortoise) + 1
                        nodes += segment[:found]
                        tortoises += repeat(tortoise, found)
                        return SimTrace(tuple(nodes), tuple(tortoises), _DETECTED, hops + found)
                    nodes += segment
                    tortoises += repeat(tortoise, len(segment) - 1)
                    tortoise, hops = fields
                    add_tortoise(tortoise)
                if len(segment) < want:  # the stream reached a terminal
                    break
        return SimTrace(tuple(nodes), tuple(tortoises), _TERMINATED, hops + 1)
    except HopOverflow:
        return SimTrace(tuple(nodes), tuple(tortoises), _HOP_OVERFLOW, None)


def _receivers(ids, succ, pos: int) -> Iterator[int]:
    """The ids a walk meets after position ``pos``, in order, ending at a
    terminal: slices of ``ids`` where the walk's nodes form a path, node
    i -> i + 1, else a successor chase (README, Design 7)."""
    n, last = len(ids), succ[-1]
    # the walk meets positions from pos on, and from last on once it loops:
    # the shape test reads only those, so it costs what the walk does
    lo = pos if last is None or pos < last else last
    # an O(1) gate, then one comparison in C with the shared positions, no int made
    if succ[pos] == pos + 1 and n <= REACH + 1 and succ[lo:-1] == _table(n)[lo + 1 : n]:
        stream = _iter_from(ids, pos + 1)
        return stream if last is None else chain(stream, cycle(_iter_from(ids, last)))
    return _chase(ids, succ, pos)


def _iter_from(ids: tuple[int, ...], index: int) -> Iterator[int]:
    """iter(ids[index:]) with no copy: the pickle protocol's __setstate__
    sets a tuple iterator's index in O(1), where islice would step past
    the first ``index`` items one by one."""
    items = iter(ids)
    items.__setstate__(index)
    return items


def _chase(ids, succ, pos: int) -> Iterator[int]:
    while (pos := succ[pos]) is not None:
        yield ids[pos]


TRACE_CSV_HEADER = "hop,node_id_hex,tortoise_hex,snapshot,outcome"


_CSV_BLOCK = 4096  # rows per rendered block: bounds the transient cell strings


def trace_csv(trace: SimTrace) -> str:
    """Render a trace as CSV, one row per step; the final row carries the
    outcome. Node ids print as 16-digit lowercase hex."""
    nodes = trace.nodes
    tortoises = trace.tortoises
    blocks = [_csv_block(nodes, tortoises, first) for first in range(0, len(nodes), _CSV_BLOCK)]
    # no hops: the outcome sits on a row of empty cells
    return "".join([TRACE_CSV_HEADER, *(blocks or ["\n,,,,"]), _outcome_label(trace), "\n"])


@functools.lru_cache(maxsize=MAX_HOPS // _CSV_BLOCK + 1)
def _hop_labels(first: int) -> tuple[str, ...]:
    """The "\\n<hop>," cells of rows first + 1 .. first + _CSV_BLOCK, shared
    by every trace (README, Design 3)."""
    return tuple(map("\n{},".format, range(first + 1, first + _CSV_BLOCK + 1)))


def _csv_block(nodes, tortoises, first: int) -> str:
    """Rows first + 1 .. first + _CSV_BLOCK (or the last hop), each after a
    newline, as one text built column by column, with no text made per row."""
    last = min(first + _CSV_BLOCK, len(nodes))
    node_hex = struct.pack(f">{last - first}Q", *nodes[first:last]).hex(",", 8).split(",")
    suffixes: list[str] = []
    before = tortoises[first]
    for tortoise, run in groupby(tortoises[first + 1 : last + 1]):
        # a tortoise change is a snapshot; the rest of its run repeats it
        cell = ",%016x," % tortoise
        suffixes.append(cell + ("1," if tortoise != before else "0,"))
        suffixes += repeat(cell + "0,", len(list(run)) - 1)
        before = tortoise
    cells = [""] * (3 * len(node_hex))
    cells[0::3] = _hop_labels(first)[: len(node_hex)]
    cells[1::3] = node_hex
    cells[2::3] = suffixes
    return "".join(cells)


def _outcome_label(trace: SimTrace) -> str:
    if trace.at_hop is None:
        return trace.outcome.value
    return f"{trace.outcome.value}({trace.at_hop})"


def _path(
    n: int, last: Optional[int], ids: Optional[Sequence[int]], seed: Optional[int]
) -> FunctionalGraph:
    """Nodes 0 -> 1 -> ... -> n-1 -> ``last`` (a node, or None for a
    terminal), with the explicit ``ids`` or distinct ids drawn from ``seed``.
    Explicit ids take the public constructor, whose check runs before the
    set below hashes them, so ``[1, 2, [3]]`` is named, not a TypeError."""
    if ids is None:
        return _graph(_draw_distinct_ids(random.Random(seed), n), _range(n)[1:] + (last,))
    node_ids = _items("ids", ids)
    if len(node_ids) != n:
        raise ValueError(f"need {n} ids, got {len(node_ids)}")
    graph = FunctionalGraph(node_ids, _range(n)[1:] + (last,))
    if len(set(node_ids)) != n:
        raise ValueError("explicit ids must be distinct; use inject_duplicate")
    return graph


_positions: tuple[int, ...] = ()  # ints 0..k, grown on demand; never more than REACH + 1


def _range(n: int) -> tuple[int, ...]:
    """tuple(range(n)), its first REACH + 1 ints shared by every graph that
    ``_path`` builds (README, Design 6)."""
    table = _table(n)
    return table[:n] if n <= len(table) else table + tuple(range(len(table), n))


def _table(n: int) -> tuple[int, ...]:
    """The shared positions, grown first to hold 0..n-1 as far as REACH + 1
    allows. A grown table is stored in one assignment, so a thread always
    reads a whole 0..k table."""
    global _positions
    table, cap = _positions, min(n, REACH + 1)
    if len(table) < cap:
        table = _positions = table + tuple(range(len(table), cap))
    return table


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
