#!/usr/bin/env python3
"""Benchmark for loopdetect: three workloads, checked answers, one command.

Run from the repository root:

    python3 bench/run.py --workload wire_forward --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --self-test

Workloads (see workloads.py for what one op is in each):

- ``wire_forward``: the router fast path, one packet walked hop by hop
  through wire bytes (codec, vid, core).
- ``sim_sweep``: exhaustive small graphs checked against the oracles,
  plus long simulations with traces (simulator, reference, core).
- ``cli_tables``: in-process ``cli.main`` calls for every subcommand
  (cli, analysis, and the layers below them).

A run builds its ops from ``--seed`` (set-up), then runs the whole op
list in passes until ``--seconds`` have gone by and at least
``MIN_PASSES`` passes are in. An untraced run sets up again after every
pass, so that the set-up time samples the whole run, and every pass runs
on freshly built ops that must give the same counts. One client drives
the library in a closed loop: the next op starts only when the previous
one has returned its answer. Every answer is checked against the expectation fixed in set-up.
The library is imported from ``src/`` next to this directory; the run
stops with an error if it is not there.

The host runs the benchmark at a speed that drifts: on a shared host
the same Python code can take up to twice as long for seconds or minutes
at a time, in CPU time as much as in wall time. So the run measures the
host's speed beside the ops. After each op, or after each stretch of ops
taking ``REF_EVERY_NS`` when the ops are shorter than that, it times a
fixed pure-Python reference loop that calls no part of loopdetect, and
once more at the start of each pass. A sample's factor is
``REF_NOMINAL_NS`` over the loop's time, and each op's time is scaled by
the mean factor of the samples just before and just after it. That gives
the time the op would have taken on a host where the loop takes
``REF_NOMINAL_NS`` (about its median on the 2-vCPU x86-64 host with
Python 3.11 where the benchmark was defined). A change to loopdetect
cannot move the loop, so the scaled times compare commits, and the
run-to-run drift of the host mostly cancels. Each op's timing is then
the median of its scaled times over the passes. The unscaled figures,
the loop's median and range, and each op's fastest pass are printed
beside the metrics. The op list is long enough (1100 ops or more) that
at least ten ops lie beyond the p99. A ``time_share`` line gives each op
kind's share of the busy time.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median time of one set-up, over the set-ups of the run,
  scaled by the median of the run's reference samples.
- ``ops_per_s``, ``hops_per_s``: ops, and hops forwarded or simulated,
  per second of busy time. Busy time is the sum of the ops' timings;
  checking the answers and the reference loop are not part of it. On
  ``cli_tables`` the hops are the rows of the traces that ``simulate``
  prints.
- ``op_p50_ms``, ``op_p99_ms``: the median and p99 of the ops' timings.
- ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` reports per-layer metrics. Traced passes alternate with
untraced passes of the same ops, and ``trace_overhead_ratio`` is traced
over untraced busy time. The per-layer figures come from the set-up and
the fastest ``FASTEST_TRACED`` traced passes. Layers the workload leaves
idle are measured on a short traced slice of the workloads that load
them, so every run reports every layer. The first ``SPANS_KEPT`` spans of
the first traced pass go to ``bench/out/spans-<workload>-seed<seed>.csv``.

Deterministic counts (hops per pass, verdicts by outcome, failed ops and
``core.receive_packet`` calls per traced pass) must repeat exactly in
every pass; the run is marked incorrect if they do not. They are printed
on the ``counts`` line, so runs with the same seed can be compared.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` is the number
of ops in the list, each of which every pass runs, and ``failed`` the
number of them whose answer missed its expectation. Since every pass must
give the same answers, these counts hold for each pass and do not depend
on how many passes fit in ``--seconds``. ``error_ratio`` (printed above
the result) is failed over attempted. ``correct`` is false when an op
answered wrongly (a wrong exit code included) or a deterministic count
changed between passes. The one known defect, ``latency`` exiting 3 with no
output past the hop counter's horizon where exit 2 is documented, counts
in ``failed`` but does not make the run incorrect.
"""

import argparse
import collections
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_PASSES = 5  # untraced passes before a run may stop, however long they take
MIN_BEYOND_P99 = 10
FASTEST_TRACED = 3  # traced passes whose spans give the per-layer metrics
SPANS_KEPT = 100_000  # spans of the first traced pass written out
REF_EVERY_NS = 500_000  # op time between two samples of the reference loop
REF_NOMINAL_NS = 35_000  # reference loop time to which op times are scaled


def import_library():
    """Put the repository's ``src/`` first on the path and import the
    benchmark modules, which import loopdetect. Exits 1 without it."""
    src = ROOT / "src"
    if not (src / "loopdetect" / "__init__.py").is_file():
        sys.exit(f"bench: no loopdetect package under {src}")
    sys.path.insert(0, str(src))
    import loopdetect

    if Path(loopdetect.__file__).resolve().parent != src / "loopdetect":
        sys.exit(f"bench: imported loopdetect from {loopdetect.__file__}, not {src}")
    global tracing, workloads
    import tracing
    import workloads


def reference_loop():
    """Fixed interpreter work that stands for the host's speed: integer
    arithmetic, a dict store and a tuple per iteration, ~35 us."""
    table = {}
    total = 0
    for i in range(200):
        table[i & 15] = (i, total)
        total += i * 3 % 7
    return total


class Pass(NamedTuple):
    busy_ns: int  # sum of the ops' times
    hops: int
    tally: collections.Counter  # verdicts by outcome
    failures: list  # (op index, status, answer)
    refs: list  # times of the reference loop in ns

    def counts(self):
        return self.hops, sorted(self.tally.items()), [f[:2] for f in self.failures]


def reference_speed(refs):
    """Times the reference loop once, appends the time to ``refs`` and
    returns the factor that scales times now to the reference speed."""
    start = perf_counter_ns()
    reference_loop()
    refs.append(perf_counter_ns() - start)
    return REF_NOMINAL_NS / refs[-1]


def run_pass(workload, ops, tracer=None):
    """Every op once. Returns the ops' times in ns and the same times
    scaled to the reference speed, both in op order, and the pass. An
    op's factor is the mean of those of the reference samples just before
    and just after it."""
    run, check = workload.run, workload.check
    times, scaled = [], []
    since_ref = 0  # op time since the last reference sample
    hops = 0
    tally = collections.Counter()
    failures = []
    refs = []
    speed = reference_speed(refs)
    last = len(ops) - 1
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = perf_counter_ns()
        answer = run(op)
        elapsed = perf_counter_ns() - start
        times.append(elapsed)
        since_ref += elapsed
        if since_ref >= REF_EVERY_NS or index == last:
            before, speed = speed, reference_speed(refs)
            factor = (before + speed) / 2
            scaled += [t * factor for t in times[len(scaled):]]
            since_ref = 0
        status, key, op_hops = check(op, answer)
        hops += op_hops
        tally[key] += 1
        if status != workloads.OK:
            failures.append((index, status, answer))
    return times, scaled, Pass(sum(times), hops, tally, failures, refs)


def run_workload(name, seed, seconds, trace, size="full", min_passes=MIN_PASSES):
    """One benchmark run. Returns (result, report lines)."""
    workload = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as workdir:

        def set_up():
            ops = workload.build(random.Random(seed), workload.sizes[size], workdir)
            gc.freeze()  # the ops are long-lived; keep them out of the collector's sweeps
            return ops

        setup_s = []

        def timed_set_up():
            start = perf_counter()
            ops = set_up()
            setup_s.append(perf_counter() - start)
            return ops

        if trace:
            setup_tracer = tracing.Tracer(keep=0)
            setup_tracer.op = "setup"
            with setup_tracer.patched():
                ops = set_up()
            units = workload.units(ops) if workload.units else {}
        else:
            ops = timed_set_up()
        passes, traced = [], []  # traced: (pass, its tracer)
        raw, scaled = [], []  # per pass, each op's time as measured and scaled
        best_traced = None  # each op's fastest traced time so far
        deadline = perf_counter() + seconds
        while not passes or perf_counter() < deadline or (not trace and len(passes) < min_passes):
            times, times_scaled, done = run_pass(workload, ops)
            raw.append(array("q", times))  # compact, so that peak memory barely
            scaled.append(array("d", times_scaled))  # depends on the number of passes
            passes.append(done)
            if trace:
                tracer = tracing.Tracer(keep=0 if traced else SPANS_KEPT)
                with tracer.patched():
                    times, _, done = run_pass(workload, ops, tracer)
                tracing.add_units(tracer.stats, units)
                best_traced = faster(best_traced, times)
                traced.append((done, tracer))
            else:
                ops = None  # let the old ops go before building the same ones again
                ops = timed_set_up()
        companions = companion_stats(name, seed) if trace else {}
    first = passes[0]
    every = passes + [p for p, _ in traced]
    calls = {receive_calls(tracer.stats) for _, tracer in traced}
    repeated = all(p.counts() == first.counts() for p in every) and len(calls) <= 1
    wrong = sum(1 for p in every for f in p.failures if f[1] == workloads.WRONG)
    attempted, failed = len(ops), len(first.failures)
    timing = per_op(statistics.median, scaled)

    lines = [
        "context " + json.dumps({
            "workload": name,
            "seed": seed,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "ops_per_pass": len(ops),
            "passes": len(passes),
            "traced_passes": len(traced),
            "src_lines": src_lines(),
        }),
        "time_share " + json.dumps(time_share(ops, timing)),
        "counts " + json.dumps({
            "hops_per_pass": first.hops,
            "verdicts_per_pass": dict(sorted(first.tally.items())),
            "failed_per_pass": len(first.failures),
            "core.receive_packet.calls_per_traced_pass": min(calls) if calls else None,
            "repeated_in_every_pass": repeated,
        }),
    ]
    if trace:
        best = per_op(min, raw)
        metrics = per_layer_metrics(setup_tracer, companions, best, best_traced, traced, lines)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.csv"
        spans_tracer = traced[0][1]
        spans_tracer.write(spans_path)
        lines.append(f"spans of the first traced pass: {len(spans_tracer.spans)} of "
                     f"{spans_tracer.next_id} written to {spans_path}")
    else:
        refs = sorted(ref for p in passes for ref in p.refs)
        setup_scaled = statistics.median(setup_s) * REF_NOMINAL_NS / statistics.median(refs)
        metrics = end_to_end_metrics(setup_scaled, timing, first.hops, len(passes), lines)
        for label, times in (("unscaled, median pass", per_op(statistics.median, raw)),
                             ("unscaled, fastest pass", per_op(min, raw))):
            lines.append(f"{label}: " + " ".join(
                f"{metric} {value:.6g}" for metric, value in timing_figures(times, first.hops)))
        lines.append(f"unscaled setup_s: median {statistics.median(setup_s):.6g} "
                     f"of {len(setup_s)} set-ups")
        lines.append(f"reference loop: {len(refs)} samples, median {statistics.median(refs)} ns, "
                     f"range {refs[0]}-{refs[-1]} ns, nominal {REF_NOMINAL_NS} ns")
    lines.append(f"metric error_ratio {failed / attempted:.6g} ratio")
    for index, status, answer in first.failures:
        lines.append(f"failed op {index} ({status}): {describe(ops[index], answer)}")
    result = {
        "correct": wrong == 0 and repeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def time_share(ops, timing):
    """Each op kind's share of the summed op timings."""
    busy = collections.Counter()
    for op, ns in zip(ops, timing):
        busy[op.kind] += ns
    total = sum(busy.values())
    return {kind: round(ns / total, 4) for kind, ns in sorted(busy.items())}


def receive_calls(stats):
    stat = stats.get("core.receive_packet")
    return stat.calls if stat else 0


def faster(best, times):
    return times if best is None else list(map(min, best, times))


def per_op(aggregate, runs):
    """``aggregate`` (min or median) of each op's times over the passes."""
    return [aggregate([times[i] for times in runs]) for i in range(len(runs[0]))]


def p99(times):
    return statistics.quantiles(times, n=100)[98] if len(times) > 1 else times[0]


def timing_figures(times, hops):
    """ops_per_s, hops_per_s, op_p50_ms and op_p99_ms of per-op timings in ns."""
    busy_s = sum(times) / 1e9
    return [("ops_per_s", len(times) / busy_s), ("hops_per_s", hops / busy_s),
            ("op_p50_ms", statistics.median(times) / 1e6), ("op_p99_ms", p99(times) / 1e6)]


def end_to_end_metrics(setup_s, timing, hops, passes, lines):
    tail = p99(timing)
    beyond = sum(1 for t in timing if t > tail)
    lines.append(f"op_samples {len(timing)} ops, each the median of its {passes} passes; "
                 f"{beyond} beyond p99")
    if beyond < MIN_BEYOND_P99:
        lines.append(f"warning: fewer than {MIN_BEYOND_P99} samples beyond p99")
    units = {"ops_per_s": "1/s", "hops_per_s": "1/s", "op_p50_ms": "ms", "op_p99_ms": "ms"}
    values = {
        "setup_s": (setup_s, "s"),
        **{metric: (value, units[metric]) for metric, value in timing_figures(timing, hops)},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return report(values, lines)


def per_layer_metrics(setup_tracer, companions, best, best_traced, traced, lines):
    """Span aggregates of the set-up and of the fastest traced passes."""
    quickest = sorted(traced, key=lambda pair: pair[0].busy_ns)[:FASTEST_TRACED]
    stats = tracing.merge([setup_tracer.stats] + [tracer.stats for _, tracer in quickest])
    values = {}
    for metric, (unit, compute) in tracing.PER_LAYER.items():
        value, source = compute(stats), "workload"
        for other, other_stats in companions.items():
            if value is None:
                value, source = compute(other_stats), f"slice of {other}"
        values[metric] = (value, unit)
        if source != "workload":
            lines.append(f"source {metric}: {source}")
    values["core.receive_packet.calls"] = (receive_calls(traced[0][1].stats), "count")
    values["trace_overhead_ratio"] = (sum(best_traced) / sum(best), "ratio")
    return report(values, lines)


def companion_stats(name, seed):
    """Span aggregates from a short traced slice of each other workload."""
    found = {}
    for other, workload in workloads.WORKLOADS.items():
        if other == name:
            continue
        with tempfile.TemporaryDirectory(prefix=f"{other}-", dir=OUT_DIR) as workdir:
            tracer = tracing.Tracer(keep=0)
            with tracer.patched():
                ops = workload.build(random.Random(seed), workload.sizes["slice"], workdir)
            run_pass(workload, ops)
            with tracer.patched():
                run_pass(workload, ops, tracer)
            if workload.units:
                tracing.add_units(tracer.stats, workload.units(ops))
        found[other] = tracer.stats
    return found


def report(values, lines):
    metrics = {}
    for metric, (value, unit) in values.items():
        lines.append(f"metric {metric} {value} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def describe(op, answer):
    if hasattr(op, "argv"):
        code, stderr = answer
        return f"argv {op.argv} exit {code}, expected {op.code}: {stderr.strip()}"
    return f"expected {op.expected}"


def src_lines():
    return sum(len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py"))


def self_test():
    """Every workload at a tiny size in both modes, then two broken
    expectations that the checker must count as wrong answers, and wrong
    collision probabilities that it must reject."""
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, _ = run_workload(name, 1, 0, trace, size="tiny", min_passes=1)
            expected_keys = set(tracing.PER_LAYER) | {"core.receive_packet.calls",
                                                      "trace_overhead_ratio"}
            if not trace:
                expected_keys = {"setup_s", "ops_per_s", "hops_per_s", "op_p50_ms",
                                 "op_p99_ms", "peak_rss_mb"}
            if set(result["metrics"]) != expected_keys:
                problems.append(f"{name} trace={trace}: metrics {sorted(result['metrics'])}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {result}")
            if name != "cli_tables" and result["failed"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed ops")

    def failed_indices(name, mutate):
        workload = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            ops = workload.build(random.Random(1), workload.sizes["tiny"], workdir)
            clean = [f[:2] for f in run_pass(workload, ops)[2].failures]
            index = mutate(ops)
            broken = [f[:2] for f in run_pass(workload, ops)[2].failures]
        return index, clean, broken

    def wrong_verdict(ops):
        outcome, hop = ops[0].expected
        ops[0] = ops[0]._replace(expected=(outcome, hop + 1))
        return 0

    def wrong_exit_code(ops):
        index = next(i for i, op in enumerate(ops) if op.argv[0] == "header")
        ops[index] = ops[index]._replace(code=2)
        return index

    def error_exit_where_answer_due(ops):
        """Past the horizon ``latency`` exits 3 (or 2); expecting exit 0
        there must read as a wrong answer, not as the known refusal."""
        index = next(i for i, op in enumerate(ops) if op.argv[0] == "header")
        argv = ["latency", "--mu", "0", "--lambda", "40000", "--out", ops[index].out]
        ops[index] = workloads.CliOp("latency", argv, ops[index].out, 0, "", 0)
        return index

    for name, mutate in (("wire_forward", wrong_verdict), ("cli_tables", wrong_exit_code),
                         ("cli_tables", error_exit_where_answer_due)):
        index, clean, broken = failed_indices(name, mutate)
        if any(i == index for i, _ in clean) or sorted(broken) != sorted(
            clean + [(index, workloads.WRONG)]
        ):
            problems.append(f"{name}: broken expectation at op {index} not counted: {broken}")
    problems += collision_check_problems()
    for problem in problems:
        print("self-test:", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def collision_check_problems():
    """The default collision grid plus a near-saturated length, as the
    program prints them, must pass the check, and each row with its
    ``p_exact`` replaced by a value far from the right one must fail it."""
    from loopdetect import analysis

    lengths = workloads.DEFAULT_LENGTHS + (2**18,)
    grid = [(bits, length) for bits in workloads.DEFAULT_BITS for length in lengths]
    table = analysis.collision_table(workloads.DEFAULT_BITS, lengths)
    lines = analysis.collision_csv(table).splitlines()
    if not workloads._collision_output_ok("\n".join(lines), grid):
        return ["collision check rejects the program's default grid"]
    problems = []
    for row in range(1, len(lines)):
        bits, length, p_exact, p_approx = lines[row].split(",")
        wrong = 0.5 if abs(float(p_exact) - 0.5) > 0.1 else 0.9
        doctored = lines[:row] + [f"{bits},{length},{wrong},{p_approx}"] + lines[row + 1:]
        if workloads._collision_output_ok("\n".join(doctored), grid):
            problems.append(f"collision check accepts p_exact={wrong} at {bits} bits, n={length}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("wire_forward", "sim_sweep", "cli_tables"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    import_library()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
