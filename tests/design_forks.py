"""Time each fast path that README's Design section names against the
one-path alternative it replaces, in one process.

    PYTHONPATH=src:tests python tests/design_forks.py

Each alternative is made by swapping a module global for the run, so the
library itself has no switch. Figures are medians of seven timeit repeats.
"""

import itertools
import os
import random
import statistics
import tempfile
import timeit
import tracemalloc

from loopdetect import analysis, cli, simulator
from loopdetect.simulator import (
    FunctionalGraph, Outcome, SimTrace, _draw_distinct_ids, _graph, _rho_by_position,
    build_chain, build_within_reach, simulate, trace_csv,
)
from oracles import distinct_ids_one_at_a_time


def median_s(call, number):
    return statistics.median(timeit.repeat(call, number=number, repeat=7)) / number


def swapped_medians(call, number, name, values, module=simulator):
    """Seconds per ``call`` with the global ``module.<name>`` set to each of
    ``values``, the values taking turns so that host drift hits them alike."""
    saved, samples = getattr(module, name), {value: [] for value in values}
    for _ in range(7):
        for value in values:
            setattr(module, name, value)
            samples[value].append(timeit.timeit(call, number=number) / number)
    setattr(module, name, saved)
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
    nodes, origin = ids[1:], ids[0]
    trace = median_s(lambda: SimTrace(nodes, origin, Outcome.TERMINATED, 5), 200000)
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
    shared_range(simulator.REACH + 1)  # the table at its cap, as once a graph of REACH + 1 nodes is built
    for mu, lam in ((0, 25000), (32768, 32769)):
        times = swapped_medians(lambda: _rho_by_position(mu, lam), 20, "_range", (shared_range, own_range))
        print(f"6. _rho_by_position({mu}, {lam}): {times[shared_range] * 1e3:.2f} ms with shared "
              f"positions, {times[own_range] * 1e3:.2f} ms with ints of its own")


def receiver_stream():
    walks = {
        "latency's (0, 32767) walk": (_rho_by_position(0, 32767), 0),
        "a 1000-node chain": (build_chain(1000, seed=1), 0),
        "the walk from node 60000 of a (60000, 20) rho": (_rho_by_position(60000, 20), 60000),
    }
    stream = simulator._stream
    for label, (graph, start) in walks.items():
        succ = graph.succ

        def chase(ids, last, pos):  # _stream's signature, so either serves
            return simulator._chase(ids, succ, pos)

        hops = len(simulate(graph, start).nodes)
        times = swapped_medians(lambda: simulate(graph, start), max(1, 100000 // hops), "_stream",
                                (stream, chase))
        print(f"7. {label}, {hops} hops: {times[stream] / hops * 1e9:.0f} ns per hop as streamed, "
              f"{times[chase] / hops * 1e9:.0f} ns chased")


def fresh(call, out):
    """``call``, then the removal of the file it wrote at ``out``, so that
    each call creates its file, as each cli_tables op does; rewriting a
    file that holds data adds the cost of truncating it."""
    def write_and_remove():
        call()
        os.unlink(out)
    return write_and_remove


def plain_argv():
    parse, plain = cli._build_parser().parse_args, cli._plain

    def argparse_only(argv):
        return None

    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out.txt")
        for label, argv in {
            "header encode": ["header", "encode", "--tortoise", "0x0123456789abcdef",
                              "--hops", "513", "--nonce", "0x2a", "--out", out],
            "header decode": ["header", "decode", "ab" * 30, "--out", out],
            "simulate": ["simulate", "--mu", "40", "--lambda", "60", "--seed", "7", "--out", out],
            "collisions": ["collisions", "--bits", "32", "--lengths", "8192", "--out", out],
        }.items():
            parses = {"plain": median_s(lambda: plain(argv), 20000),
                      "argparse": median_s(lambda: parse(argv), 2000)}
            calls = swapped_medians(fresh(lambda: cli.main(argv), out), 500, "_plain",
                                    (plain, argparse_only), cli)
            print(f"8. {label}: one parse {parses['plain'] * 1e6:.1f} us plain, "
                  f"{parses['argparse'] * 1e6:.1f} us by argparse; the whole main call to a "
                  f"fresh file {calls[plain] * 1e6:.0f} against {calls[argparse_only] * 1e6:.0f} us")


def direct_write():
    def open_write(out, text):  # _emit's --out branch before Design 9
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)

    emit = cli._emit
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out.txt")
        for label, text in {
            "a header line": "0" * 28 + "\n",
            "a 100-hop trace": trace_csv(simulate(build_chain(100, seed=1), 0)),
            "the default collision table": analysis.collision_csv(analysis.collision_table(
                analysis.DEFAULT_ID_BITS, analysis.DEFAULT_PATH_LENGTHS)),
        }.items():
            times = swapped_medians(fresh(lambda: cli._emit(out, text), out), 2000, "_emit",
                                    (emit, open_write), cli)
            print(f"9. {label} ({len(text)} B) to a fresh file: {times[emit] * 1e6:.1f} us by "
                  f"three syscalls, {times[open_write] * 1e6:.1f} us by open(); unlink included")
        argv = ["header", "encode", "--hops", "513", "--out", out]
        calls = swapped_medians(fresh(lambda: cli.main(argv), out), 2000, "_emit", (emit, open_write),
                                cli)
        print(f"9. the whole in-process header encode call: {calls[emit] * 1e6:.1f} against "
              f"{calls[open_write] * 1e6:.1f} us")


if __name__ == "__main__":
    by_hop_prefix()
    unchecked_builders()
    shared_hop_labels()
    one_call_draw()
    position_ids()
    shared_positions()
    receiver_stream()
    plain_argv()
    direct_write()
