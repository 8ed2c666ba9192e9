"""Spans around the library's public functions, for the traced run.

``Tracer.patched()`` swaps module attributes of ``loopdetect`` for timing
wrappers and puts the originals back on exit; no source file changes.
It wraps the functions the benchmark calls, and the attributes through
which one layer calls another: ``simulator.receive_packet``,
``analysis.predict_detection_hop``, and the ``analysis``, ``simulator``
and ``codec`` functions that ``cli`` reaches through its module imports.

Each span has a name, a start, an end, a parent span and an op id. The
first ``keep`` spans are kept in memory and can be written out at the
end; every span, kept or not, feeds per-name aggregates: calls, total
time, self time (duration minus the time its child spans cover), time
per child name, and a unit count (hops, rows, nodes, steps or terms)
from which the per-layer rates are taken. The reference detectors' steps
are not counted at their calls; the workload supplies them per pass.
"""

import contextlib
import csv
from time import perf_counter_ns

from loopdetect import analysis, cli, codec, core, reference, simulator, vid


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "units", "child_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.units = 0
        self.child_ns = {}


class Tracer:
    def __init__(self, keep=100_000):
        self.keep = keep
        self.spans = []  # (span id, name, start ns, end ns, parent id, op id)
        self.stats = {}
        self.op = None
        self.next_id = 0
        self._stack = []  # open spans: [span id, name, ns covered by children]

    def wrap(self, name, fn, units=None, label=None):
        """``fn`` timed as a span. ``label(args)`` names the span per call;
        ``units(fn, args, result)`` counts the work the call did."""

        def traced(*args, **kwargs):
            span_name = label(args) if label else name
            frame = [self.next_id, span_name, 0]
            self.next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self._close(frame, parent, start, end)
            if units is not None:
                self.stats[span_name].units += units(fn, args, result)
            return result

        return traced

    def _close(self, frame, parent, start, end):
        span_id, name, covered = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.total_ns += duration
        stat.self_ns += duration - covered
        if parent is not None:
            parent[2] += duration
            outer = self.stats.get(parent[1]) or self.stats.setdefault(parent[1], Stat())
            outer.child_ns[name] = outer.child_ns.get(name, 0) + duration
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.op))

    @contextlib.contextmanager
    def patched(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, *_ in TARGETS]
        try:
            for module, attr, name, units, label in TARGETS:
                setattr(module, attr, self.wrap(name, getattr(module, attr), units, label))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_ns", "end_ns", "parent", "op"))
            out.writerows(self.spans)


def add_units(stats, units):
    """Add work units counted outside the calls, by span name."""
    for name, count in units.items():
        if name in stats:
            stats[name].units += count


def merge(stats_list):
    """Sum of several tracers' per-name aggregates."""
    merged = {}
    for stats in stats_list:
        for name, stat in stats.items():
            into = merged.setdefault(name, Stat())
            into.calls += stat.calls
            into.total_ns += stat.total_ns
            into.self_ns += stat.self_ns
            into.units += stat.units
            for child, ns in stat.child_ns.items():
                into.child_ns[child] = into.child_ns.get(child, 0) + ns
    return merged


def _length(fn, args, result):
    return len(result)


def _hops(fn, args, result):
    return len(result.steps)


def _csv_rows(fn, args, result):
    return max(1, len(args[0].steps))


def _terms(fn, args, result):
    n, bits = args[0]
    return n - 1 if n <= 2**bits else 0


def _cli_label(args):
    return f"cli.{args[0][0]}"


# (module, attribute, span name, units, label)
TARGETS = [
    (core, "initialize_packet", "core.initialize_packet", None, None),
    (core, "receive_packet", "core.receive_packet", None, None),
    (simulator, "receive_packet", "core.receive_packet", None, None),
    (codec, "encode", "codec.encode", None, None),
    (codec, "decode", "codec.decode", None, None),
    (vid, "packet_digest", "vid.packet_digest", None, None),
    (vid, "virtual_id", "vid.virtual_id", None, None),
    (simulator, "build_rho", "simulator.build", _length, None),
    (simulator, "build_chain", "simulator.build", _length, None),
    (simulator, "simulate", "simulator.simulate", _hops, None),
    (simulator, "trace_csv", "simulator.trace_csv", _csv_rows, None),
    (reference, "brent_detect", "reference.brent_detect", None, None),
    (reference, "floyd_detect", "reference.floyd_detect", None, None),
    (reference, "visited_set_oracle", "reference.visited_set_oracle", None, None),
    (reference, "predict_detection_hop", "reference.predict_detection_hop", None, None),
    (analysis, "predict_detection_hop", "reference.predict_detection_hop", None, None),
    (analysis, "collision_probability_exact", "analysis.collision_probability_exact", _terms, None),
    (analysis, "collision_table", "analysis.collision_table", _length, None),
    (analysis, "collision_csv", "analysis.collision_csv", None, None),
    (analysis, "latency_table", "analysis.latency_table", _length, None),
    (analysis, "latency_csv", "analysis.latency_csv", None, None),
    (cli, "main", "cli", None, _cli_label),
]

CLI_SUBCOMMANDS = ("simulate", "collisions", "latency", "header")


def _per(name, scale, by_units):
    def metric(stats):
        stat = stats.get(name)
        count = stat and (stat.units if by_units else stat.calls)
        return stat.total_ns * scale / count if count else None

    return metric


def _core_share(stats):
    stat = stats.get("simulator.simulate")
    if not stat or not stat.total_ns:
        return None
    return stat.child_ns.get("core.receive_packet", 0) / stat.total_ns


def _cli_self_ms(stats):
    spans = [stats[f"cli.{sub}"] for sub in CLI_SUBCOMMANDS if f"cli.{sub}" in stats]
    calls = sum(stat.calls for stat in spans)
    return sum(stat.self_ns for stat in spans) / 1e6 / calls if calls else None


NS, MS = 1.0, 1e-6

# per-layer metric name -> (unit, value from the span aggregates, or None
# when the workload leaves that layer idle)
PER_LAYER = {
    "core.receive_packet.ns_per_call": ("ns", _per("core.receive_packet", NS, False)),
    "codec.decode.ns_per_call": ("ns", _per("codec.decode", NS, False)),
    "codec.encode.ns_per_call": ("ns", _per("codec.encode", NS, False)),
    "vid.packet_digest.ns_per_call": ("ns", _per("vid.packet_digest", NS, False)),
    "vid.virtual_id.ns_per_call": ("ns", _per("vid.virtual_id", NS, False)),
    "simulator.simulate.ns_per_hop": ("ns", _per("simulator.simulate", NS, True)),
    "simulator.simulate.core_share": ("ratio", _core_share),
    "simulator.trace_csv.ns_per_row": ("ns", _per("simulator.trace_csv", NS, True)),
    "simulator.build.ns_per_node": ("ns", _per("simulator.build", NS, True)),
    "reference.brent_detect.ns_per_step": ("ns", _per("reference.brent_detect", NS, True)),
    "reference.floyd_detect.ns_per_step": ("ns", _per("reference.floyd_detect", NS, True)),
    "reference.visited_set_oracle.ns_per_step": (
        "ns", _per("reference.visited_set_oracle", NS, True)),
    "reference.predict_detection_hop.ns_per_call": (
        "ns", _per("reference.predict_detection_hop", NS, False)),
    "analysis.collision_probability_exact.ns_per_term": (
        "ns", _per("analysis.collision_probability_exact", NS, True)),
    "analysis.collision_table.ms_per_row": ("ms", _per("analysis.collision_table", MS, True)),
    "analysis.latency_table.ns_per_row": ("ns", _per("analysis.latency_table", NS, True)),
    **{
        f"cli.{sub}.ms_per_call": ("ms", _per(f"cli.{sub}", MS, False))
        for sub in CLI_SUBCOMMANDS
    },
    "cli.self_ms": ("ms", _cli_self_ms),
}
