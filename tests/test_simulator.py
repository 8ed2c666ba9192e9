import hashlib
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopdetect import (
    MAX_HOPS,
    MAX_NODE_ID,
    BadArity,
    BadIndex,
    CycleStructure,
    FunctionalGraph,
    Outcome,
    TraceStep,
    build_chain,
    build_rho,
    inject_duplicate,
    random_functional_graph,
    receive_packet,
    simulate,
    trace_csv,
    visited_set_oracle,
)
from loopdetect.reference import _check_int
from loopdetect.simulator import REACH, _draw_distinct_ids, build_within_reach
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
    with pytest.raises(BadArity):
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


def test_simulate_origin_self_loop_detected_at_one():
    trace = simulate(build_rho(0, 1, ids=[0xA]), 0, 10)
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


def test_simulate_budget_exhaustion():
    trace = simulate(build_rho(0, 3, ids=[1, 2, 3]), 0, max_hops=2)
    assert trace.outcome is Outcome.BUDGET_EXHAUSTED
    assert trace.at_hop is None
    assert len(trace.steps) == 2


def test_simulate_hop_overflow_outcome():
    # outlast the 16-bit hop counter on a loop-free walk
    graph = build_chain(70_000, ids=range(70_000))
    trace = simulate(graph, 0, max_hops=70_000)
    assert trace.outcome is Outcome.HOP_OVERFLOW
    assert trace.at_hop is None
    assert trace.steps[-1].hop == 65535


def test_simulate_validates_start():
    graph = build_chain(3, ids=[1, 2, 3])
    with pytest.raises(BadIndex):
        simulate(graph, 3)
    with pytest.raises(ValueError):
        simulate(graph, 0, max_hops=0)
    # exactly int: True must not start at position 1, nor 1.0 leak a TypeError
    for start in (1.0, True):
        with pytest.raises(BadIndex, match=f"start {start!r} "):
            simulate(graph, start)
    for max_hops in (2.5, True):
        with pytest.raises(ValueError, match=f"got {max_hops!r}$"):
            simulate(graph, 0, max_hops)


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
    "graph, start, max_hops",
    [
        (build_rho(5, 6, ids=range(11)), 0, 200),
        (build_rho(300, 700, seed=3), 0, 4004),
        (build_chain(40, ids=range(40)), 0, 164),
        (build_chain(1, ids=[5]), 0, 8),
        (build_rho(0, 1, ids=[0xA]), 0, 8),
        (inject_duplicate(build_chain(10, ids=range(100, 110)), 2, 3), 0, 44),
        (inject_duplicate(build_chain(128, ids=range(1000, 1128)), 2, 100), 0, 516),
        (build_rho(0, 3, ids=[1, 2, 3]), 0, 2),
        (build_rho(16, 16, seed=1), 3, 17),
        (build_chain(70_000, ids=range(70_000)), 0, 70_000),
        (build_chain(2, ids=[5, 6]), 0, 8),
        (build_chain(4096, seed=1), 0, 4096),
        (build_chain(4097, seed=1), 0, 4097),
        (build_chain(4098, seed=1), 0, 4098),
        (build_rho(4000, 4500, seed=2), 0, 40_000),
    ],
    ids=["rho", "rho-seeded", "chain", "one-node", "self-loop", "duplicate-fires",
         "duplicate-harmless", "budget-2", "budget-17", "hop-overflow", "one-row",
         "rows-4095", "rows-4096", "rows-4097", "detected-12692"],
)
def test_steps_match_a_per_hop_recorder(graph, start, max_hops):
    # the CSV blocks hold 4096 rows, so rows-4095..4097 straddle a block end
    trace = simulate(graph, start, max_hops)
    rows, outcome, at_hop = trace_rows_hop_by_hop(
        graph.ids, graph.succ, start, max_hops, receive_packet
    )
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
        budget = 2 * max(mu, lam, 1) + lam
        trace = simulate(build_rho(mu, lam, ids=range(mu + lam)), 0, budget)
        assert trace.outcome is Outcome.DETECTED, (mu, lam)


def test_soundness_on_chains_quick():
    # the 10^4-trial sweep lives in the acceptance suite
    import random

    rng = random.Random(17)
    for _ in range(300):
        length = rng.randint(1, 4096)
        trace = simulate(build_chain(length, seed=rng.getrandbits(64)), 0,
                         max_hops=length + 1)
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
    with pytest.raises(BadIndex):
        inject_duplicate(graph, 0, 6)
    with pytest.raises(BadIndex):
        inject_duplicate(graph, -1, 2)
    with pytest.raises(BadIndex):
        inject_duplicate(graph, 2, 2)
    with pytest.raises(BadIndex, match="position 1.0 "):
        inject_duplicate(graph, 0, 1.0)
    with pytest.raises(BadIndex, match="position True "):
        inject_duplicate(graph, True, 0)


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


@pytest.mark.parametrize(
    "mu, lam",
    [(0, 65535), (0, 65536), (0, 65537), (0, 65538),
     (65535, 1), (65535, 2), (65535, 3), (65536, 1), (65536, 2)],
)
def test_rho_cut_to_reach_keeps_the_trace(mu, lam):
    cut = build_within_reach(mu, lam, seed=5)
    assert len(cut) == min(mu + lam, REACH)
    assert _csv_sha256(cut) == _csv_sha256(build_rho(mu, lam, seed=5))


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
    assert hashlib.sha256(text.encode()).hexdigest() == _csv_sha256(build_chain(length, seed=5))


@st.composite
def walks(draw):
    """A random graph of at most 64 nodes, maybe with a duplicate id, and a start."""
    n = draw(st.integers(1, 64))
    graph = random_functional_graph(n, draw(st.floats(0, 1)), draw(st.integers(0, 2**32)))
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        graph = inject_duplicate(graph, a, b)
    return graph, draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(walks())
def test_default_budget_matches_the_old_guessed_budget(walk):
    graph, start = walk
    trace = simulate(graph, start)
    assert trace.outcome is not Outcome.BUDGET_EXHAUSTED
    assert trace_csv(trace) == trace_csv(simulate(graph, start, 4 * (len(graph) + 1)))


def test_default_budget_ends_a_long_chain_by_hop_overflow():
    trace = simulate(build_chain(70_000, ids=range(70_000)), 0)
    assert trace.outcome is Outcome.HOP_OVERFLOW
    assert len(trace.nodes) == MAX_HOPS


@settings(max_examples=300, deadline=None)
@given(walks(), st.data())
def test_simulate_and_its_csv_follow_the_public_state_machine(walk, data):
    graph, start = walk
    budget = data.draw(st.none() | st.integers(1, 4 * (len(graph) + 1)), label="budget")
    trace = simulate(graph, start, budget)
    rows, outcome, at_hop = trace_rows_hop_by_hop(
        graph.ids, graph.succ, start, MAX_HOPS + 1 if budget is None else budget, receive_packet
    )
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
    # a render without blocks peaked at 14.7 MB, a %-format per row at 9.3 MB
    tracemalloc.start()
    try:
        trace_csv(longest_trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000
