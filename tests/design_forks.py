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


def unchecked_builders():
    ids, succ = tuple(range(10, 15)), (1, 2, 3, 4, None)
    print(f"2. _graph {median_s(lambda: _graph(ids, succ), 200000) * 1e6:.2f} us, "
          f"FunctionalGraph(...) {median_s(lambda: FunctionalGraph(ids, succ), 100000) * 1e6:.2f} us")
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


if __name__ == "__main__":
    by_hop_prefix()
    unchecked_builders()
    shared_hop_labels()
    one_call_draw()
    position_ids()
