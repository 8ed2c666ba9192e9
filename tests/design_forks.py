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
    build_chain, build_within_reach, simulate, trace_csv,
)
from oracles import distinct_ids_one_at_a_time


def median_s(call, number):
    return statistics.median(timeit.repeat(call, number=number, repeat=7)) / number


def by_hop_medians(call, number, settings):
    """Seconds per ``call`` with ``simulator._BY_HOP`` at each setting,
    the settings taking turns so that host drift hits them alike."""
    saved, samples = simulator._BY_HOP, {by_hop: [] for by_hop in settings}
    for _ in range(7):
        for by_hop in settings:
            simulator._BY_HOP = by_hop
            samples[by_hop].append(timeit.timeit(call, number=number) / number)
    simulator._BY_HOP = saved
    return {by_hop: statistics.median(times) for by_hop, times in samples.items()}


def by_hop_prefix():
    ids = tuple(random.Random(1).getrandbits(64) for _ in range(5))
    graphs = [FunctionalGraph(ids, succ) for succ in itertools.product(range(5), repeat=5)]
    cases = [(graph, start) for graph in graphs[::7] for start in range(5)]

    def sweep():
        for graph, start in cases:
            simulate(graph, start)

    chain = build_chain(3000, seed=1)
    settings = (simulator._BY_HOP, 0, 10**9)
    walks = by_hop_medians(sweep, 3, settings)
    hops = by_hop_medians(lambda: simulate(chain, 0), 20, settings)
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

    shared = held_bytes(successors) / nodes
    shared_range, simulator._range = simulator._range, lambda n: tuple(range(n))
    own = held_bytes(successors) / nodes
    simulator._range, simulator._positions = shared_range, table
    print(f"6. successors of {len(lengths)} chains of 1-2048 nodes: {shared:.1f} B per node with "
          f"shared positions, {own:.1f} B with ints of their own; the full table {table_bytes / 1e6:.2f} MB")


if __name__ == "__main__":
    by_hop_prefix()
    unchecked_builders()
    shared_hop_labels()
    one_call_draw()
    position_ids()
    shared_positions()
