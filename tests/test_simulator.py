import copy
import dataclasses
import hashlib
import inspect
import math
import pickle
import random
import subprocess
import sys
import threading
import tracemalloc
from itertools import islice
from pathlib import Path
from types import GeneratorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopdetect import (
    MAX_HOPS,
    MAX_NODE_ID,
    CycleStructure,
    FunctionalGraph,
    Outcome,
    SimTrace,
    TraceStep,
    build_chain,
    build_rho,
    inject_duplicate,
    predict_detection_hop,
    random_functional_graph,
    receive_packet,
    simulate,
    trace_csv,
    visited_set_oracle,
)
from loopdetect import simulator
from loopdetect.reference import _check_int
from loopdetect.simulator import (
    REACH,
    _draw_distinct_ids,
    _hop_labels,
    _rho_by_position,
    build_within_reach,
)
from oracles import (
    distinct_ids_one_at_a_time,
    naive_is_power_of_two,
    rejection,
    trace_csv_row_by_row,
    trace_rows_hop_by_hop,
)

# SHA-256 of trace_csv(simulate(build_chain(70_000, seed=5), 0)), the
# longest trace (65 535 rows, hop_overflow), as the row-by-row %-format
# rendered it
LONGEST_TRACE_CSV_SHA256 = "3e31313bd6c44b733dd1fd449686232ba5227114e98d6d5fda0545dac87936de"

# SHA-256 of repr(random_functional_graph(200, 0.1, seed=42).ids) as the
# one-getrandbits(64)-per-id draw produced it: seeded ids are public results
RANDOM_GRAPH_IDS_SHA256 = "f2d58f15d84169e00d2eca0fb22847c8fca921e0929e5494cfd5ad71d4ab1aea"


def test_build_rho_self_loop():
    graph = build_rho(0, 1, ids=[0xA])
    assert graph.succ == (0,)
    assert graph.ids == (0xA,)


def test_build_rho_tail_and_cycle():
    graph = build_rho(2, 3, ids=[1, 2, 3, 4, 5])
    assert graph.succ == (1, 2, 3, 4, 2)


def test_build_rho_seed_determinism():
    assert build_rho(1, 2, seed=7) == build_rho(1, 2, seed=7)
    assert build_rho(1, 2, seed=7) != build_rho(1, 2, seed=8)


def test_build_rho_arity_mismatch():
    with pytest.raises(ValueError, match="need 5 ids, got 3"):
        build_rho(2, 3, ids=[1, 2, 3])


def test_builders_reject_duplicate_explicit_ids():
    # deliberate duplicates go through inject_duplicate
    with pytest.raises(ValueError, match="distinct"):
        build_rho(1, 2, ids=[4, 5, 4])
    with pytest.raises(ValueError, match="distinct"):
        build_chain(3, ids=[7, 7, 8])


def test_build_rho_rejects_bad_shape():
    with pytest.raises(ValueError):
        build_rho(0, 0)
    with pytest.raises(ValueError):
        build_rho(-1, 1)


def test_build_chain_shape():
    graph = build_chain(3, ids=[7, 8, 9])
    assert graph.succ == (1, 2, None)


def test_functional_graph_validation():
    with pytest.raises(ValueError):
        FunctionalGraph((), ())
    with pytest.raises(ValueError):
        FunctionalGraph((1, 2), (0,))
    with pytest.raises(ValueError):
        FunctionalGraph((1, 2), (0, 5))
    with pytest.raises(ValueError):
        FunctionalGraph((1, 2**64), (0, 1))


@pytest.mark.parametrize(
    "ids, rejected",
    [([0.5, 1.5, 2.5], "0.5"), ([1, 2.0, 3], "2.0"), ([1, 2, "3"], "'3'")],
)
def test_graph_rejects_ids_that_are_not_ints(ids, rejected):
    # the one integer rule's rejection of the first bad id, from build_rho
    # and the graph alike; tests/test_arguments.py pins its wording
    bad = next(value for value in ids if type(value) is not int)
    assert repr(bad) == rejected
    expected = rejection(_check_int, "node id", bad, 0, MAX_NODE_ID)
    assert rejection(build_rho, 1, 2, ids) == expected
    assert rejection(FunctionalGraph, tuple(ids), (1, 2, None)) == expected


@pytest.mark.parametrize("succ, rejected", [((1.0, None), "1.0"), ((True, None), "True")])
def test_graph_rejects_successors_that_are_not_ints(succ, rejected):
    assert repr(succ[0]) == rejected
    expected = rejection(_check_int, "successor index", succ[0], 0, 1)
    assert rejection(FunctionalGraph, (5, 6), succ) == expected


def test_random_graph_single_node_no_terminal():
    graph = random_functional_graph(1, 0.0, seed=3)
    assert graph.succ == (0,)


def test_random_graph_all_terminal():
    graph = random_functional_graph(5, 1.0, seed=3)
    assert graph.succ == (None,) * 5


@pytest.mark.parametrize(
    "n, terminal_prob", [(0, 0.5), (-1, 0.5), (5, -0.1), (5, 1.5), (5, math.nan)]
)
def test_random_graph_rejects_bad_arguments(n, terminal_prob):
    with pytest.raises(ValueError):
        random_functional_graph(n, terminal_prob, seed=1)


def test_random_graph_determinism_and_distinct_ids():
    a = random_functional_graph(100, 0.0, seed=42)
    b = random_functional_graph(100, 0.0, seed=42)
    assert a == b
    assert len(set(a.ids)) == 100


def test_random_graph_ids_pinned():
    ids = random_functional_graph(200, 0.1, seed=42).ids
    assert hashlib.sha256(repr(ids).encode()).hexdigest() == RANDOM_GRAPH_IDS_SHA256


@pytest.mark.parametrize("count", [1, 2, 1023, 1024, 1025, 131070])
def test_draw_distinct_ids_matches_one_at_a_time_reference(count):
    rng, reference_rng = random.Random(count), random.Random(count)
    assert list(_draw_distinct_ids(rng, count)) == distinct_ids_one_at_a_time(
        reference_rng, count
    )
    # same words used up, so whatever draws from rng next is unchanged too
    assert rng.getstate() == reference_rng.getstate()


class _RepeatingWords:
    """A fixed stream of 64-bit words, with many repeats, served one word per
    getrandbits(64) call or as little-endian words through randbytes."""

    def __init__(self, words):
        self.words = words
        self.used = 0

    def getrandbits(self, k):
        assert k == 64
        self.used += 1
        return self.words[self.used - 1]

    def randbytes(self, n):
        assert n % 8 == 0
        block = self.words[self.used : self.used + n // 8]
        self.used += len(block)
        return b"".join(word.to_bytes(8, "little") for word in block)


@pytest.mark.parametrize("count", [2, 3, 1025, 2500])
def test_draw_distinct_ids_skips_repeats_like_the_reference(count):
    pick = random.Random(5)
    pool = [(k * 0x9E3779B97F4A7C15) % 2**64 for k in range(3000)]
    words = [pool[0]] * 3 + [pool[pick.randrange(3000)] for _ in range(40000)]
    drawn, reference = _RepeatingWords(words), _RepeatingWords(words)
    assert list(_draw_distinct_ids(drawn, count)) == distinct_ids_one_at_a_time(
        reference, count
    )
    assert drawn.used == reference.used > count  # repeats were skipped


def test_draw_distinct_ids_refills_a_repeat_inside_the_first_draw():
    # all words distinct but one: the repeat sits deep inside the first
    # whole draw, so exactly one word is drawn again
    words = [(k * 0x9E3779B97F4A7C15) % 2**64 for k in range(5000)]
    words[1500] = words[1100]
    drawn, reference = _RepeatingWords(words), _RepeatingWords(words)
    assert list(_draw_distinct_ids(drawn, 2048)) == distinct_ids_one_at_a_time(
        reference, 2048
    )
    assert drawn.used == reference.used == 2049


@pytest.mark.parametrize(
    "graph,outcome",
    [
        (build_chain(3, seed=1), Outcome.TERMINATED),
        (build_rho(2, 3, seed=1), Outcome.DETECTED),
        (build_rho(0, 32768, seed=1), Outcome.HOP_OVERFLOW),
    ],
    ids=["chain", "rho", "overflow"],
)
def test_simulate_returns_an_ordinary_sim_trace(graph, outcome):
    trace = simulate(graph, 0)
    built = SimTrace(trace.nodes, trace.tortoises, trace.outcome, trace.at_hop)
    assert type(trace) is SimTrace and trace.outcome is outcome
    assert trace == built and hash(trace) == hash(built) and repr(trace) == repr(built)
    assert dataclasses.asdict(trace) == dataclasses.asdict(built)
    assert "steps" not in vars(trace)
    steps = trace.steps
    assert trace.steps is steps == built.steps
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.outcome = Outcome.DETECTED


# one value of each frozen dataclass: its fields by keyword, in declaration
# order, its repr as the dataclass-generated constructor made it, and a
# change of one field that gives another valid value
CONSTRUCTED = {
    "graph": (
        FunctionalGraph,
        {"ids": (10, 11, 12), "succ": (1, 2, None)},
        "FunctionalGraph(ids=(10, 11, 12), succ=(1, 2, None))",
        {"succ": (1, 2, 0)},
    ),
    "trace": (
        SimTrace,
        {"nodes": (11, 12), "tortoises": (10, 11, 12), "outcome": Outcome.TERMINATED, "at_hop": 3},
        "SimTrace(nodes=(11, 12), tortoises=(10, 11, 12), "
        "outcome=<Outcome.TERMINATED: 'terminated'>, at_hop=3)",
        {"outcome": Outcome.DETECTED, "at_hop": 2},
    ),
}


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_constructor_takes_each_field_by_keyword_or_position(name):
    cls, fields, _, _ = CONSTRUCTED[name]
    assert list(inspect.signature(cls).parameters) == list(fields)
    assert [field.name for field in dataclasses.fields(cls)] == list(fields)
    assert cls.__match_args__ == tuple(fields)
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert vars(by_keyword) == vars(by_position) == fields
    assert dataclasses.astuple(by_keyword) == tuple(fields.values())


def test_graph_constructor_keeps_its_fields_as_tuples():
    graph = FunctionalGraph(ids=[10, 11, 12], succ=iter([1, 2, None]))
    assert type(graph.ids) is type(graph.succ) is tuple
    assert graph == FunctionalGraph((10, 11, 12), (1, 2, None))


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_constructed_value_compares_hashes_and_prints_by_its_fields(name):
    cls, fields, text, change = CONSTRUCTED[name]
    value = cls(**fields)
    assert value == cls(**fields) and hash(value) == hash(tuple(fields.values()))
    assert repr(value) == text
    assert value != tuple(fields.values())
    assert value != cls(**{**fields, **change})


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_constructed_value_is_frozen(name):
    cls, fields, _, _ = CONSTRUCTED[name]
    value = cls(**fields)
    for field in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
    assert vars(value) == fields


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_constructed_value_survives_pickle_and_deepcopy(name):
    cls, fields, text, _ = CONSTRUCTED[name]
    value = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is cls and twin is not value
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text


def test_trace_pickles_with_its_cached_steps():
    trace = simulate(build_rho(2, 3, seed=1), 0)
    steps = trace.steps
    twin = pickle.loads(pickle.dumps(trace))
    assert vars(twin)["steps"] == steps and twin == trace


@pytest.mark.parametrize("name", CONSTRUCTED)
def test_replace_changes_only_the_fields_it_is_given(name):
    cls, fields, _, change = CONSTRUCTED[name]
    value = cls(**fields)
    replaced = dataclasses.replace(value, **change)
    assert type(replaced) is cls and vars(replaced) == {**fields, **change}
    assert vars(value) == fields


def test_replace_checks_the_graph_again():
    graph = FunctionalGraph((10, 11, 12), (1, 2, None))
    assert type(dataclasses.replace(graph, succ=[1, 2, 0]).succ) is tuple
    with pytest.raises(ValueError, match=r"successor index must be within \[0, 2\], got 3"):
        dataclasses.replace(graph, succ=(1, 2, 3))


def test_simulate_origin_self_loop_detected_at_one():
    trace = simulate(build_rho(0, 1, ids=[0xA]), 0)
    assert trace.outcome is Outcome.DETECTED
    assert trace.at_hop == 1


def test_simulate_three_cycle_detected_at_seven():
    trace = simulate(build_rho(0, 3, ids=[1, 2, 3]), 0)
    assert trace.outcome is Outcome.DETECTED
    assert trace.at_hop == 7


def test_simulate_chain_terminates():
    trace = simulate(build_chain(3, ids=[1, 2, 3]), 0)
    assert trace.outcome is Outcome.TERMINATED
    assert trace.at_hop == 3
    assert len(trace.steps) == 2


def test_simulate_hop_overflow_outcome():
    # outlast the 16-bit hop counter on a loop-free walk
    graph = build_chain(70_000, ids=range(70_000))
    trace = simulate(graph, 0)
    assert trace.outcome is Outcome.HOP_OVERFLOW
    assert trace.at_hop is None
    assert trace.steps[-1].hop == 65535


def test_simulate_validates_start():
    graph = build_chain(3, ids=[1, 2, 3])
    with pytest.raises(ValueError, match=r"start must be within \[0, 2\], got 3"):
        simulate(graph, 3)
    # exactly int: True must not start at position 1, nor 1.0 leak a TypeError
    for start in (1.0, True):
        with pytest.raises(ValueError, match=f"start must be an int, got {start!r}"):
            simulate(graph, start)


def test_trace_structure_invariants():
    trace = simulate(build_rho(5, 6, ids=range(11)), 0)
    hops = [step.hop for step in trace.steps]
    assert hops == list(range(1, len(trace.steps) + 1))
    for step in trace.steps[:-1]:
        assert step.snapshot_taken is naive_is_power_of_two(step.hop)
    assert trace.outcome is Outcome.DETECTED
    assert len(trace.steps) == trace.at_hop
    assert trace.steps[-1].snapshot_taken is False
    assert all(type(step) is TraceStep for step in trace.steps)

    chain = simulate(build_chain(40, ids=range(40)), 0)
    assert chain.outcome is Outcome.TERMINATED
    # position 2's id is no longer the tortoise when its duplicate at 100 is reached
    duplicate = simulate(inject_duplicate(build_chain(128, ids=range(1000, 1128)), 2, 100), 0)
    assert duplicate.outcome is Outcome.TERMINATED
    for other in (chain, duplicate):
        for step in other.steps[:-1]:
            assert step.snapshot_taken is naive_is_power_of_two(step.hop)


@pytest.mark.parametrize(
    "graph, start",
    [
        (build_rho(5, 6, ids=range(11)), 0),
        (build_rho(300, 700, seed=3), 0),
        (build_chain(40, ids=range(40)), 0),
        (build_chain(1, ids=[5]), 0),
        (build_rho(0, 1, ids=[0xA]), 0),
        (inject_duplicate(build_chain(10, ids=range(100, 110)), 2, 3), 0),
        (inject_duplicate(build_chain(128, ids=range(1000, 1128)), 2, 100), 0),
        (build_rho(16, 16, seed=1), 3),
        (build_chain(70_000, ids=range(70_000)), 0),
        (build_chain(2, ids=[5, 6]), 0),
        (build_chain(4096, seed=1), 0),
        (build_chain(4097, seed=1), 0),
        (build_chain(4098, seed=1), 0),
        (build_rho(4000, 4500, seed=2), 0),
        (inject_duplicate(build_chain(40, ids=range(40)), 16, 17), 0),
        (inject_duplicate(build_chain(40, ids=range(40)), 16, 32), 0),
        (inject_duplicate(build_chain(40, ids=range(40)), 17, 25), 0),
        (build_chain(33, ids=range(33)), 0),
        (build_chain(65_536, ids=range(65_536)), 0),
    ],
    ids=["rho", "rho-seeded", "chain", "one-node", "self-loop", "duplicate-fires",
         "duplicate-harmless", "start-in-tail", "hop-overflow", "one-row",
         "rows-4095", "rows-4096", "rows-4097", "detected-12692", "match-first-in-segment",
         "match-last-in-segment", "duplicate-harmless-in-segment", "terminal-after-snapshot",
         "terminal-at-saturated-counter"],
)
def test_steps_match_a_per_hop_recorder(graph, start):
    # the CSV blocks hold 4096 rows, so rows-4095..4097 straddle a block end;
    # walks go by segment past hop 16, so the last five cases sit on segment edges
    trace = simulate(graph, start)
    rows, outcome, at_hop = trace_rows_hop_by_hop(graph.ids, graph.succ, start, receive_packet)
    assert (trace.outcome.value, trace.at_hop) == (outcome, at_hop)
    label = outcome if at_hop is None else f"{outcome}({at_hop})"
    assert trace_csv(trace) == trace_csv_row_by_row(rows, label)
    assert trace.steps == tuple(rows)
    assert all(type(step) is TraceStep for step in trace.steps)
    assert all(type(step.snapshot_taken) is bool for step in trace.steps)
    assert trace.steps is trace.steps  # built once, on first read
    assert len(trace.tortoises) == len(trace.nodes) + 1 == len(rows) + 1
    assert trace.tortoises[0] == graph.ids[start]


def test_simulate_memory_stays_in_columns():
    # a 65 535-hop overflow run; one TraceStep per hop peaked at ~8.4 MB
    graph = build_rho(1256, 58698)
    tracemalloc.start()
    try:
        trace = simulate(graph, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.outcome is Outcome.HOP_OVERFLOW
    assert len(trace.nodes) == 65535
    assert peak < 3_000_000


def test_simulate_determinism():
    a = simulate(build_rho(3, 5, seed=99), 0)
    b = simulate(build_rho(3, 5, seed=99), 0)
    assert a == b


def test_completeness_on_rho_shapes():
    for mu, lam in [(0, 1), (1, 1), (7, 3), (16, 16), (20, 5), (3, 20)]:
        trace = simulate(build_rho(mu, lam, ids=range(mu + lam)), 0)
        assert trace.outcome is Outcome.DETECTED, (mu, lam)
        assert trace.at_hop <= 2 * max(mu, lam, 1) + lam, (mu, lam)


def test_detection_hop_at_every_power_of_two_edge():
    # mu and lambda each one below, at or one above a power of two up to
    # 2^16, where the segments between snapshots start and end: inside the
    # counter's horizon a walk detects at the predicted hop, past it the
    # counter overflows first
    edges = sorted({value for k in range(17) for value in (2**k - 1, 2**k, 2**k + 1)})
    pairs = [(mu, lam) for mu in edges for lam in edges if lam >= 1]
    assert len(pairs) == 2256
    for mu, lam in pairs:
        trace = simulate(_rho_by_position(mu, lam), 0)
        hop = predict_detection_hop(CycleStructure(mu, lam))
        expected = (Outcome.DETECTED, hop) if hop <= MAX_HOPS else (Outcome.HOP_OVERFLOW, None)
        assert (trace.outcome, trace.at_hop) == expected, (mu, lam)


def test_soundness_on_chains_quick():
    # the 10^4-trial sweep lives in the acceptance suite
    import random

    rng = random.Random(17)
    for _ in range(300):
        length = rng.randint(1, 4096)
        trace = simulate(build_chain(length, seed=rng.getrandbits(64)), 0)
        assert trace.outcome is Outcome.TERMINATED
        assert trace.at_hop == length


def test_simulate_agrees_with_visited_oracle_on_random_graphs():
    import random

    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 30)
        graph = random_functional_graph(n, rng.choice([0.0, 0.2, 0.5]),
                                        seed=rng.getrandbits(64))
        start = rng.randrange(n)
        expected = visited_set_oracle(start, graph.succ.__getitem__, 3 * n + 4)
        trace = simulate(graph, start)
        assert (trace.outcome is Outcome.DETECTED) == (expected is not None)


def test_inject_duplicate_copies_id():
    graph = build_chain(6, ids=[10, 11, 12, 13, 14, 15])
    dup = inject_duplicate(graph, 1, 5)
    assert dup.ids == (10, 11, 12, 13, 14, 11)
    assert graph.ids[5] == 15  # original untouched


def test_inject_duplicate_bad_positions():
    graph = build_chain(6, ids=range(6))
    with pytest.raises(ValueError, match="position_b must be within"):
        inject_duplicate(graph, 0, 6)
    with pytest.raises(ValueError, match="position_a must be within"):
        inject_duplicate(graph, -1, 2)
    with pytest.raises(ValueError, match="duplicate positions must differ"):
        inject_duplicate(graph, 2, 2)
    with pytest.raises(ValueError, match="position_b must be an int, got 1.0"):
        inject_duplicate(graph, 0, 1.0)
    with pytest.raises(ValueError, match="position_a must be an int, got True"):
        inject_duplicate(graph, True, 0)


def _built_graphs():
    """Graphs the builders make without the public check, by seed and size."""
    for seed in (0, 1, 7):
        yield build_rho(0, 1, seed=seed)
        yield build_rho(1, 1, seed=seed)
        yield build_rho(3, 5, seed=seed)
        yield build_chain(1, seed=seed)
        yield build_chain(2, seed=seed)
        for size in (1, 2, REACH - 1, REACH, REACH + 1):
            yield build_within_reach(None, None, size, seed=seed)
            yield build_within_reach(size - 1, 1, seed=seed)
            yield build_within_reach(0, size, seed=seed)
        for n in (1, 2, 50, 1000):
            for terminal_prob in (0, 0.5, 1):
                yield random_functional_graph(n, terminal_prob, seed=seed)
        yield inject_duplicate(build_rho(3, 5, seed=seed), 1, 6)
        yield inject_duplicate(random_functional_graph(50, 0.5, seed=seed), 49, 0)
        yield inject_duplicate(build_chain(10, ids=range(100, 110)), 2, 3)
    for size in (1, 2, REACH - 1, REACH, REACH + 1):
        yield _rho_by_position(size - 1, 1)
        yield _rho_by_position(0, size)


def test_graphs_built_unchecked_pass_the_public_check():
    # the builders skip FunctionalGraph's check for the graphs they make;
    # it must accept each one and give an equal graph with an equal hash
    for graph in _built_graphs():
        assert type(graph) is FunctionalGraph
        assert type(graph.ids) is type(graph.succ) is tuple
        checked = FunctionalGraph(graph.ids, graph.succ)
        assert checked == graph
        assert hash(checked) == hash(graph)


def test_duplicate_inside_snapshot_window_is_false_positive():
    # hop 2 snapshots position 2's id; position 3 carries the same id and
    # is reached before the hop-4 snapshot, so detection fires at hop 3
    graph = inject_duplicate(build_chain(10, ids=range(100, 110)), 2, 3)
    trace = simulate(graph, 0)
    assert trace.outcome is Outcome.DETECTED
    assert trace.at_hop == 3


def test_duplicate_outside_snapshot_window_is_harmless():
    # snapshots at hops 4, 8, 16, 32, 64 overwrite position 2's id long
    # before position 100 is reached
    graph = inject_duplicate(build_chain(128, ids=range(1000, 1128)), 2, 100)
    trace = simulate(graph, 0)
    assert trace.outcome is Outcome.TERMINATED


def test_trace_csv_golden():
    trace = simulate(build_rho(0, 3, ids=[0xA, 0xB, 0xC]), 0)
    expected = (
        "hop,node_id_hex,tortoise_hex,snapshot,outcome\n"
        "1,000000000000000b,000000000000000b,1,\n"
        "2,000000000000000c,000000000000000c,1,\n"
        "3,000000000000000a,000000000000000c,0,\n"
        "4,000000000000000b,000000000000000b,1,\n"
        "5,000000000000000c,000000000000000b,0,\n"
        "6,000000000000000a,000000000000000b,0,\n"
        "7,000000000000000b,000000000000000b,0,detected(7)\n"
    )
    assert trace_csv(trace) == expected


def test_trace_csv_empty_walk_carries_outcome():
    trace = simulate(build_chain(1, ids=[5]), 0)
    assert trace.outcome is Outcome.TERMINATED
    assert trace_csv(trace) == (
        "hop,node_id_hex,tortoise_hex,snapshot,outcome\n,,,,terminated(1)\n"
    )


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("length", [65538, 70000, 200000])
def test_seeded_ids_keep_their_prefix(length, seed):
    # the property that lets build_within_reach cut a graph to REACH nodes
    assert build_chain(length, seed=seed).ids[:REACH] == build_chain(REACH, seed=seed).ids


def _csv_sha256(graph):
    return hashlib.sha256(trace_csv(simulate(graph, 0)).encode()).hexdigest()


def _row_by_row_csv_sha256(graph):
    # the oracles' walk and rendering, one receive_packet call and one row per hop
    rows, outcome, at_hop = trace_rows_hop_by_hop(graph.ids, graph.succ, 0, receive_packet)
    text = trace_csv_row_by_row(rows, outcome if at_hop is None else f"{outcome}({at_hop})")
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "mu, lam",
    [(0, 65535), (0, 65536), (0, 65537), (0, 65538),
     (65535, 1), (65535, 2), (65535, 3), (65536, 1), (65536, 2)],
)
def test_rho_cut_to_reach_keeps_the_trace(mu, lam):
    cut, full = build_within_reach(mu, lam, seed=5), build_rho(mu, lam, seed=5)
    assert len(cut) == min(mu + lam, REACH)
    assert _csv_sha256(cut) == _csv_sha256(full) == _row_by_row_csv_sha256(full)


@pytest.mark.parametrize(
    "length, outcome",
    [(65535, "terminated(65535)"), (65536, "terminated(65536)"),
     (65537, "hop_overflow"), (65538, "hop_overflow")],
)
def test_chain_cut_to_reach_keeps_the_trace(length, outcome):
    # a 65 536-node chain still ends terminated: its last node is not cut
    cut = build_within_reach(None, None, length, seed=5)
    assert len(cut) == min(length, REACH)
    text = trace_csv(simulate(cut, 0))
    assert text.endswith(f",{outcome}\n")
    full = build_chain(length, seed=5)
    sha = hashlib.sha256(text.encode()).hexdigest()
    assert sha == _csv_sha256(full) == _row_by_row_csv_sha256(full)


@st.composite
def walks(draw):
    """A random graph of at most 64 nodes, or a rho or chain of at most 300,
    whose walks past hop 16 stream slices of the ids; maybe with a duplicate
    id, and a start."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 64))
        graph = random_functional_graph(n, draw(st.floats(0, 1)), draw(st.integers(0, 2**32)))
    else:
        n = draw(st.integers(1, 300))
        mu, seed = draw(st.none() | st.integers(0, n - 1)), draw(st.integers(0, 2**32))
        graph = build_chain(n, seed=seed) if mu is None else build_rho(mu, n - mu, seed=seed)
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        graph = inject_duplicate(graph, a, b)
    return graph, draw(st.integers(0, n - 1))


@settings(max_examples=600, deadline=None)
@given(walks())
def test_default_budget_matches_the_old_guessed_budget(walk):
    # a walk on n nodes ends within the 4(n + 1) hops callers used to budget,
    # so the hop counter alone cuts no trace of a small graph short
    graph, start = walk
    trace = simulate(graph, start)
    assert trace.at_hop is not None and trace.at_hop <= 4 * (len(graph) + 1)


def test_default_budget_ends_a_long_chain_by_hop_overflow():
    trace = simulate(build_chain(70_000, ids=range(70_000)), 0)
    assert trace.outcome is Outcome.HOP_OVERFLOW
    assert len(trace.nodes) == MAX_HOPS


@settings(max_examples=600, deadline=None)
@given(walks())
def test_simulate_and_its_csv_follow_the_public_state_machine(walk):
    graph, start = walk
    trace = simulate(graph, start)
    rows, outcome, at_hop = trace_rows_hop_by_hop(graph.ids, graph.succ, start, receive_packet)
    assert trace.nodes == tuple(row[1] for row in rows)
    assert trace.tortoises == (graph.ids[start], *(row[2] for row in rows))
    assert (trace.outcome.value, trace.at_hop) == (outcome, at_hop)
    label = outcome if at_hop is None else f"{outcome}({at_hop})"
    assert trace_csv(trace) == trace_csv_row_by_row(rows, label)


@pytest.fixture(scope="module")
def longest_trace():
    trace = simulate(build_chain(70_000, seed=5), 0)
    assert trace.outcome is Outcome.HOP_OVERFLOW
    assert len(trace.nodes) == MAX_HOPS
    return trace


def test_longest_trace_csv_is_pinned(longest_trace):
    text = trace_csv(longest_trace)
    assert hashlib.sha256(text.encode()).hexdigest() == LONGEST_TRACE_CSV_SHA256


def test_trace_csv_memory_is_bounded_on_the_longest_trace(longest_trace):
    # a render without blocks peaked at 14.7 MB, a %-format per row at 9.3 MB;
    # with the shared hop labels it peaks at 5.6 MB warm, and at 9.8 MB cold,
    # when all 16 blocks of labels (about 4 MB) are made inside the window
    tracemalloc.start()
    try:
        trace_csv(longest_trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


def test_trace_csv_memory_is_bounded_from_a_cold_cache(longest_trace):
    tracemalloc.start()
    try:
        _hop_labels.cache_clear()
        trace_csv(longest_trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


@pytest.fixture(scope="module")
def csv_cases(longest_trace):
    """(trace, its CSV as the row-by-row oracle renders it) for 1, 4095,
    4096, 4097, 8192 and 8193 rows, either side of a block end, and for the
    longest trace (65 535 rows)."""
    graphs = [build_chain(rows + 1, seed=rows) for rows in (1, 4095, 4096, 4097, 8192, 8193)]
    graphs.append(build_chain(70_000, seed=5))
    cases = []
    for graph in graphs:
        rows, outcome, at_hop = trace_rows_hop_by_hop(graph.ids, graph.succ, 0, receive_packet)
        label = outcome if at_hop is None else f"{outcome}({at_hop})"
        cases.append((simulate(graph, 0), trace_csv_row_by_row(rows, label)))
    assert cases[-1][0] == longest_trace
    return cases


def test_trace_csv_is_the_same_in_every_cache_state(csv_cases):
    # the hop labels are shared by every trace, so no state of the cache may
    # carry rows of one trace into another
    for trace, expected in csv_cases:
        _hop_labels.cache_clear()
        assert trace_csv(trace) == expected  # cold
    for trace, expected in csv_cases:
        assert trace_csv(trace) == expected  # warm
    assert _hop_labels.cache_info().currsize == 16 == MAX_HOPS // 4096 + 1
    _hop_labels.cache_clear()
    for long, short in zip(reversed(csv_cases), csv_cases):
        assert trace_csv(long[0]) == long[1]
        assert trace_csv(short[0]) == short[1]


def test_trace_csv_renders_in_parallel_from_a_cold_cache(csv_cases):
    # independent runs need no synchronization, the shared labels included
    picked = [csv_cases[i] for i in (6, 5, 3, 0)]  # 65 535, 8193, 4097 and 1 rows
    barrier = threading.Barrier(len(picked), timeout=60)
    results = [None] * len(picked)

    def render(slot, trace, expected):
        barrier.wait()
        results[slot] = all(trace_csv(trace) == expected for _ in range(3))

    _hop_labels.cache_clear()
    threads = [threading.Thread(target=render, args=(i, *case)) for i, case in enumerate(picked)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [True] * len(picked)


# -- the shared table of position ints -------------------------------------


@pytest.mark.parametrize("n", [1, 2, 257, 258, REACH, REACH + 1, REACH + 2])
def test_built_successors_are_the_positions_past_each_node(n):
    mu = n // 2
    built = {
        None: [build_chain(n, seed=n), build_chain(n, ids=range(n))],
        mu: [build_rho(mu, n - mu, seed=n), build_rho(mu, n - mu, ids=range(n))],
    }
    for last, graphs in built.items():
        for graph in graphs:
            assert type(graph.succ) is tuple
            assert graph.succ == tuple(range(1, n)) + (last,)


def test_built_graphs_share_their_position_ints():
    # a position is shared when two graphs hold the same int object for it
    a = build_chain(400, seed=1)
    b = build_rho(5, 395, ids=range(1000, 1400))
    assert a.succ[299] == 300 and a.succ[299] is b.succ[299]
    assert build_chain(REACH + 5, seed=2).succ[REACH - 1] is simulator._positions[REACH]


def test_built_successors_hold_no_int_of_their_own():
    # one pointer per node; a fresh int past 256 would add 32 B
    build_chain(2048, seed=0)  # the table holds positions 0..2047 from here on
    tracemalloc.start()
    try:
        held = [build_chain(2048, seed=seed).succ for seed in range(20)]
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(held) * 2048 * 8 < current < len(held) * 2048 * 12


def test_position_table_starts_empty_and_stops_at_reach():
    # a fresh interpreter: this one has built graphs already
    src = str(Path(simulator.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from loopdetect import simulator; print(simulator._positions)"
    started = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert started.stdout == "()\n"
    build_chain(REACH + 10, seed=3)
    assert simulator._positions == tuple(range(REACH + 1))


def test_position_table_grows_safely_under_threads(monkeypatch):
    # each thread keeps building while others grow the table; every graph
    # must still see its own positions, and the table stays 0..k
    monkeypatch.setattr(simulator, "_positions", ())
    barrier = threading.Barrier(4, timeout=60)
    wrong = []

    def build(seed):
        rng = random.Random(seed)
        barrier.wait()
        for _ in range(200):
            n = rng.randrange(1, 3000)
            if build_chain(n, seed=n).succ != tuple(range(1, n)) + (None,):
                wrong.append(n)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    table = simulator._positions
    assert 0 < len(table) < 3000 and table == tuple(range(len(table)))


# -- the receivers a walk streams ------------------------------------------


def _reversed(graph):
    """The same graph with node i at position n - 1 - i: each walk meets the
    same ids hop by hop, but node j points to j - 1, so no walk streams."""
    n = len(graph)
    succ = tuple(None if nxt is None else n - 1 - nxt for nxt in reversed(graph.succ))
    return FunctionalGraph(graph.ids[::-1], succ)


def _streams(graph, pos):
    return not isinstance(simulator._receivers(graph.ids, graph.succ, pos), GeneratorType)


def test_path_shaped_walks_stream_slices_of_ids_and_others_chase():
    rho, chain = build_rho(20, 30, seed=1), build_chain(40, ids=range(40))
    assert _streams(rho, 16) and _streams(chain, 16)
    assert _streams(inject_duplicate(rho, 3, 40), 16)  # the shape, not the ids, decides
    assert not _streams(_reversed(rho), 16) and not _streams(_reversed(chain), 16)
    assert not _streams(rho, len(rho) - 1)  # the gate: the last node points back
    assert not _streams(random_functional_graph(50, 0.0, seed=3), 16)
    # past REACH + 1 nodes the test would make fresh ints, so such a path chases
    assert _streams(build_chain(REACH + 1, seed=1), 16)
    assert not _streams(build_chain(REACH + 2, seed=1), 16)


def test_only_the_nodes_a_walk_meets_decide_its_stream():
    ids, path = tuple(range(100, 140)), tuple(range(1, 40)) + (20,)
    # nodes 0..9 point anywhere, but the walk from 25 never meets them
    scrambled = FunctionalGraph(ids, (5, 0, 9, 9, None, 3, 2, 1, 0, 4) + path[10:])
    assert _streams(scrambled, 25)
    # the cycle re-enters at 20, below the start, and node 22 breaks the path there
    broken = FunctionalGraph(ids, path[:22] + (21,) + path[23:])
    assert not _streams(broken, 25)
    for graph in (scrambled, broken):
        streamed = list(islice(simulator._receivers(graph.ids, graph.succ, 25), 200))
        assert streamed == list(islice(simulator._chase(graph.ids, graph.succ, 25), 200))


class _Succ(tuple):
    """Successors that record how many items each slice of them holds."""

    sliced: list[int] = []

    def __getitem__(self, key):
        item = tuple.__getitem__(self, key)
        if isinstance(key, slice):
            self.sliced.append(len(item))
        return item


@pytest.mark.parametrize("mu, lam, start", [(60000, 20, 60000), (60000, 20, 59990), (65000, None, 64980)])
def test_a_short_walk_near_the_end_of_a_large_path_tests_only_its_nodes(mu, lam, start):
    graph = build_chain(mu, seed=2) if lam is None else build_rho(mu, lam, seed=2)
    n = len(graph)
    _Succ.sliced = []
    receivers = simulator._receivers(graph.ids, _Succ(graph.succ), start)
    assert not isinstance(receivers, GeneratorType)
    assert 0 < max(_Succ.sliced) <= n - min(start, mu) - 1
    assert list(islice(receivers, 100)) == list(islice(simulator._chase(graph.ids, graph.succ, start), 100))
    rows, outcome, at_hop = trace_rows_hop_by_hop(graph.ids, graph.succ, start, receive_packet)
    trace = simulate(graph, start)
    assert trace.nodes == tuple(row[1] for row in rows)
    assert (trace.outcome.value, trace.at_hop) == (outcome, at_hop)


@pytest.mark.parametrize("mu, lam", [(0, 1), (0, 5), (3, 7), (16, 1), (17, 16), (31, 2)])
def test_stream_meets_the_ids_a_successor_chase_meets(mu, lam):
    graph, want = build_rho(mu, lam, seed=mu + lam), 3 * (mu + lam) + 2
    for pos in range(mu + lam):
        streamed = list(islice(simulator._receivers(graph.ids, graph.succ, pos), want))
        assert streamed == list(islice(simulator._chase(graph.ids, graph.succ, pos), want))
    chain = build_chain(mu + lam, seed=mu)
    for pos in range(mu + lam):
        assert list(simulator._receivers(chain.ids, chain.succ, pos)) == list(chain.ids[pos + 1 :])


@pytest.mark.parametrize("mu", [0, 1, 16, 17, 4095, 4096, 32767, 32768, 32769, 65535])
def test_stream_and_chase_walk_alike_at_the_snapshot_edges(mu):
    # lam = 32767 from mu = 0 detects at hop 65 535; 32 768 overflows
    for lam in (1, 2, 16, 17, 4096, 32767, 32768):
        graph = _rho_by_position(mu, lam)
        n = len(graph)
        for start in {0, n // 2, max(n - 2, 0)}:  # n - 2: the last node whose walk streams
            streamed = simulate(graph, start)
            assert simulate(_reversed(graph), n - 1 - start) == streamed


@pytest.mark.parametrize("length", [65535, 65536, 65537, 65538, 70_000])
def test_stream_and_chase_walk_alike_on_chains_across_the_counter(length):
    graph = build_chain(length, seed=length)
    for start in (0, 1, 2):
        streamed = simulate(graph, start)
        assert simulate(_reversed(graph), length - 1 - start) == streamed
        assert len(streamed.nodes) == min(length - 1 - start, MAX_HOPS)


def test_streamed_walks_grow_the_position_table_no_further_than_reach():
    simulate(build_chain(70_000, seed=5), 0)
    simulate(random_functional_graph(100_000, 0.0, seed=1), 0)
    assert len(simulator._positions) <= REACH + 1
