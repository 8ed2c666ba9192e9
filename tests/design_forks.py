"""Time each fast path that README's Design section names against the
one-path alternative it replaces, in one process.

    PYTHONPATH=src:tests python tests/design_forks.py

Each alternative is made by swapping a module global for the run, so the
library itself has no switch. Figures are medians of seven timeit repeats.
"""

import itertools
import random
import statistics
import timeit
import tracemalloc

from loopdetect import simulator
from loopdetect.simulator import (
    FunctionalGraph, Outcome, SimTrace, _draw_distinct_ids, _graph, _rho_by_position,
    build_chain, build_within_reach, random_functional_graph, simulate, trace_csv,
)
from oracles import distinct_ids_one_at_a_time


def median_s(call, number):
    return statistics.median(timeit.repeat(call, number=number, repeat=7)) / number


def swapped_medians(call, number, name, values):
    """Seconds per ``call`` with the global ``simulator.<name>`` set to each
    of ``values``, the values taking turns so that host drift hits them alike."""
    saved, samples = getattr(simulator, name), {value: [] for value in values}
    for _ in range(7):
        for value in values:
            setattr(simulator, name, value)
            samples[value].append(timeit.timeit(call, number=number) / number)
    setattr(simulator, name, saved)
    return {value: statistics.median(times) for value, times in samples.items()}


def by_hop_prefix():
    ids = tuple(random.Random(1).getrandbits(64) for _ in range(5))
    graphs = [FunctionalGraph(ids, succ) for succ in itertools.product(range(5), repeat=5)]
    cases = [(graph, start) for graph in graphs[::7] for start in range(5)]

    def sweep():
        for graph, start in cases:
            simulate(graph, start)

    chain = build_chain(3000, seed=1)
    settings = (simulator._BY_HOP, 0, 10**9)
    walks = swapped_medians(sweep, 3, "_BY_HOP", settings)
    hops = swapped_medians(lambda: simulate(chain, 0), 20, "_BY_HOP", settings)
    for by_hop in settings:
        print(f"1. first {by_hop} hops by hop: {walks[by_hop] / len(cases) * 1e6:.2f} us per 5-node walk, "
              f"{hops[by_hop] / 3000 * 1e9:.0f} ns per hop on a 3000-node chain")


def held_bytes(make):
    """Bytes that what ``make()`` returns holds, counted while it is alive."""
    tracemalloc.start()
    made = make()  # kept alive while counted
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return held


def unchecked_builders():
    ids, succ = tuple(range(10, 15)), (1, 2, 3, 4, None)
    print(f"2. _graph {median_s(lambda: _graph(ids, succ), 200000) * 1e6:.2f} us, "
          f"FunctionalGraph(...) {median_s(lambda: FunctionalGraph(ids, succ), 100000) * 1e6:.2f} us")

    def graph_with_dict():
        graph = _graph(ids, succ)
        vars(graph)  # makes the instance dict, as writing the fields through __dict__ did
        return graph

    reads = [median_s(lambda: (graph.ids, graph.succ), 500000)
             for graph in (_graph(ids, succ), graph_with_dict())]
    sizes = [held_bytes(lambda: [build() for _ in range(10000)]) / 10000
             for build in (lambda: _graph(ids, succ), graph_with_dict)]
    print(f"2. a graph takes {sizes[0]:.0f} B and reads both fields in {reads[0] * 1e9:.0f} ns; "
          f"once the instance has a dict, {sizes[1]:.0f} B and {reads[1] * 1e9:.0f} ns")
    nodes, tortoises = ids[1:], ids[:1] * 5
    trace = median_s(lambda: SimTrace(nodes, tortoises, Outcome.TERMINATED, 5), 200000)
    print(f"2. SimTrace(...) {trace * 1e6:.2f} us, with no bypass")


def shared_hop_labels():
    trace = simulate(build_chain(70_000, seed=5), 0)
    rows = len(trace.nodes)
    trace_csv(trace)  # the shared table now holds every block
    shared = median_s(lambda: trace_csv(trace), 5)
    cached, simulator._hop_labels = simulator._hop_labels, simulator._hop_labels.__wrapped__
    per_render = median_s(lambda: trace_csv(trace), 5)
    simulator._hop_labels = cached
    print(f"3. trace_csv on {rows} rows: {shared / rows * 1e9:.0f} ns per row with shared "
          f"labels, {per_render / rows * 1e9:.0f} with labels made per render")


def one_call_draw():
    rng = random.Random(3)
    for count in (5, 100, 65537):
        number = max(5, 200000 // count)
        one = median_s(lambda: _draw_distinct_ids(rng, count), number)
        each = median_s(lambda: distinct_ids_one_at_a_time(rng, count), number)
        print(f"4. {count} ids: {one * 1e6:.1f} us in one call, {each * 1e6:.1f} us one per id")


def position_ids():
    mu, lam = 32768, 32769  # cut to 65 537 nodes
    graph = _rho_by_position(mu, lam)
    by_position = median_s(lambda: _rho_by_position(mu, lam), 20)
    seeded = median_s(lambda: build_within_reach(mu, lam, seed=0), 10)
    check = median_s(lambda: FunctionalGraph(graph.ids, graph.succ), 10)
    print(f"5. {len(graph)}-node rho: {by_position * 1e3:.2f} ms by position, "
          f"{seeded * 1e3:.2f} ms seeded, {check * 1e3:.2f} ms for the constructor's check")


def shared_positions():
    lengths = [1 + i * 2047 // 999 for i in range(1000)]
    nodes = sum(lengths)
    table, simulator._positions = simulator._positions, ()
    table_bytes = held_bytes(lambda: simulator._range(simulator.REACH + 1))  # the largest table

    def successors():
        return [build_chain(n, seed=n).succ for n in lengths]

    def own_range(n):
        return tuple(range(n))

    shared = held_bytes(successors) / nodes
    shared_range, simulator._range = simulator._range, own_range
    own = held_bytes(successors) / nodes
    simulator._range, simulator._positions = shared_range, table
    print(f"6. successors of {len(lengths)} chains of 1-2048 nodes: {shared:.1f} B per node with "
          f"shared positions, {own:.1f} B with ints of their own; the full table {table_bytes / 1e6:.2f} MB")
    shared_range(simulator.REACH + 1)  # the table at its cap, as after a walk past hop 16 on it
    for mu, lam in ((0, 25000), (32768, 32769)):
        times = swapped_medians(lambda: _rho_by_position(mu, lam), 20, "_range", (shared_range, own_range))
        print(f"6. _rho_by_position({mu}, {lam}): {times[shared_range] * 1e3:.2f} ms with shared "
              f"positions, {times[own_range] * 1e3:.2f} ms with ints of its own")


def receiver_stream():
    graph = random_functional_graph(3000, 0.0, seed=4)
    start = max(range(3000), key=lambda node: len(simulate(graph, node).nodes))
    walks = {
        "latency's (0, 32767) walk": (_rho_by_position(0, 32767), 0),
        "a 1000-node chain": (build_chain(1000, seed=1), 0),
        "the walk from node 60000 of a (60000, 20) rho": (_rho_by_position(60000, 20), 60000),
        "the longest walk on a random 3000-node graph": (graph, start),
    }
    stream, chase = simulator._receivers, simulator._chase  # one signature, so either serves
    for label, (graph, start) in walks.items():
        hops = len(simulate(graph, start).nodes)
        times = swapped_medians(lambda: simulate(graph, start), max(1, 100000 // hops), "_receivers",
                                (stream, chase))
        print(f"7. {label}, {hops} hops: {times[stream] / hops * 1e9:.0f} ns per hop as streamed, "
              f"{times[chase] / hops * 1e9:.0f} ns chased")


if __name__ == "__main__":
    by_hop_prefix()
    unchecked_builders()
    shared_hop_labels()
    one_call_draw()
    position_ids()
    shared_positions()
    receiver_stream()
