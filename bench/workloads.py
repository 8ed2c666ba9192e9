"""The benchmark's three workloads.

Each workload has three parts:

- ``build(rng, size, workdir)`` is the set-up. It generates every input
  from ``rng``, builds the graphs and fixes each op's expected answer.
  It returns the list of ops.
- ``run(op)`` drives the library for one op and returns its raw answer.
  Only this part is timed.
- ``check(op, answer)`` compares the answer with the expectation and
  returns ``(status, tally_key, hops)``.

``status`` is ``OK``, ``WRONG`` or ``REFUSED``. ``WRONG`` means the
program gave a wrong answer or a wrong exit code. ``REFUSED`` is kept for
one known defect only: ``latency`` past the hop counter's horizon exits 3
(invariant breach) with no output, where the documented answer is exit 2.
Both count as failed ops.

Every op has a ``kind``, for the time share the run reports per kind.

The library only ever sees the generated inputs. Sizes are drawn from
equal-width strata, so the corpus for one seed looks like the corpus for
any other and the metrics barely depend on the seed.
"""

import collections
import contextlib
import io
import itertools
import math
import os
import struct
from typing import NamedTuple

from loopdetect import cli, codec, core, reference, simulator, vid

OK = "ok"
WRONG = "wrong"
REFUSED = "refused"

MAX_SHAPE = 1024  # largest mu, lambda and chain length in the walk mixes
PAYLOAD_LEN = 16  # the smallest packet: 14-byte header plus 16 bytes
TRUE_ID_LEN = 32
MAX_HOPS = 2**16 - 1  # the wire's 16-bit hop counter
GOLDEN = (5**0.5 - 1) / 2


def stratified(rng, count):
    """``count`` draws from [0, 1), one from each of ``count`` equal
    strata, in seeded order."""
    draws = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(draws)
    return draws


def stratified_pairs(rng, count):
    """``count`` points in [0, 1)^2, one in each row and each column of a
    count x count grid. The cells form a lattice that is the same for every
    seed; the seed only places each point inside its cell and orders them."""
    step = next(s for s in itertools.count(round(count * GOLDEN)) if math.gcd(s, count) == 1)
    points = [
        ((i + rng.random()) / count, ((i * step) % count + rng.random()) / count)
        for i in range(count)
    ]
    rng.shuffle(points)
    return points


def log_uniform(u, lo, hi):
    """Integer in [lo, hi], log-uniform as u runs over [0, 1); lo >= 1."""
    return min(hi, int(lo * ((hi + 1) / lo) ** u))


def walk_shapes(rng, count):
    """Half rho shapes, with mu and lambda log-uniform up to 1024, and half
    chains of 1 to 1024 nodes, in seeded order."""
    n_rho = count // 2
    shapes = [
        ("rho", log_uniform(a, 1, MAX_SHAPE + 1) - 1, log_uniform(b, 1, MAX_SHAPE))
        for a, b in stratified_pairs(rng, n_rho)
    ]
    shapes += [("chain", 1 + int(u * MAX_SHAPE)) for u in stratified(rng, count - n_rho)]
    rng.shuffle(shapes)
    return shapes


def build_walk(rng, shape):
    """Graph for one shape, plus its expected verdict: the predicted
    detection hop for a rho shape, the chain length for a chain."""
    if shape[0] == "rho":
        _, mu, lam = shape
        graph = simulator.build_rho(mu, lam, seed=rng.getrandbits(64))
        hop = reference.predict_detection_hop(reference.CycleStructure(mu, lam))
        return graph, ("detected", hop)
    graph = simulator.build_chain(shape[1], seed=rng.getrandbits(64))
    return graph, ("terminated", shape[1])


# -- wire_forward: one packet walked hop by hop through wire bytes ---------


class WireOp(NamedTuple):
    kind: str  # "rho" or "chain"
    succ: tuple
    trueids: list
    payload: bytes
    nonce: int
    expected: tuple  # (outcome, hop)


def build_wire(rng, size, workdir):
    ops = []
    for shape in walk_shapes(rng, size):
        graph, expected = build_walk(rng, shape)
        blob = rng.randbytes(TRUE_ID_LEN * len(graph))
        trueids = [blob[i : i + TRUE_ID_LEN] for i in range(0, len(blob), TRUE_ID_LEN)]
        ops.append(
            WireOp(shape[0], graph.succ, trueids, rng.randbytes(PAYLOAD_LEN), rng.getrandbits(32), expected)
        )
    return ops


def run_wire(op):
    """Every hop decodes the header, derives the receiver's virtual id from
    the packet digest, runs the receive step and re-encodes. Returns
    (outcome, hop, hops forwarded); a detection's hop is read off the wire."""
    decode, encode = codec.decode, codec.encode
    packet_digest, virtual_id = vid.packet_digest, vid.virtual_id
    receive_packet = core.receive_packet
    succ, trueids, payload, nonce = op.succ, op.trueids, op.payload, op.nonce
    origin = virtual_id(trueids[0], packet_digest(payload, nonce))
    wire = encode(core.initialize_packet(origin), nonce) + payload
    pos = 0
    hop = 0
    while True:
        hop += 1
        nxt = succ[pos]
        if nxt is None:
            return "terminated", hop, hop - 1
        header, nonce = decode(wire)
        body = wire[codec.HEADER_LEN :]
        detected, updated = receive_packet(header, virtual_id(trueids[nxt], packet_digest(body, nonce)))
        if detected:
            return "detected", header.hops + 1, hop
        wire = encode(updated, nonce) + body
        pos = nxt


def check_wire(op, answer):
    outcome, hop, hops = answer
    return (OK if (outcome, hop) == op.expected else WRONG), outcome, hops


# -- sim_sweep: exhaustive small graphs against the oracles, plus long traced walks


class SweepCaseOp(NamedTuple):
    kind: str  # "exhaustive"
    graph: simulator.FunctionalGraph
    next_fn: object
    start: int
    budget: int
    expected: tuple  # ((mu, lam), brent, floyd, outcome, hop, predicted hop)


class SweepWalkOp(NamedTuple):
    kind: str  # "rho" or "chain"
    graph: simulator.FunctionalGraph
    expected: tuple  # (outcome, hop)


def walk_structure(succ, start):
    """(mu, lam) of the walk from ``start`` in a successor map without
    terminals, found by remembering every position."""
    seen = {}
    pos, step = start, 0
    while pos not in seen:
        seen[pos] = step
        pos = succ[pos]
        step += 1
    return seen[pos], step - seen[pos]


def build_sweep(rng, size, workdir):
    """``size`` is (nodes, walks): every successor map on ``nodes`` nodes
    from every start, plus ``walks`` random rho shapes and chains."""
    nodes, walks = size
    ids = set()
    while len(ids) < nodes:
        ids.add(rng.getrandbits(64))
    ids = tuple(ids)
    budget = 3 * nodes + 4  # above 2*(mu + lam) + lam for every shape
    ops = []
    for succ in itertools.product(range(nodes), repeat=nodes):
        graph = simulator.FunctionalGraph(ids, succ)
        for start in range(nodes):
            structure = reference.CycleStructure(*walk_structure(succ, start))
            hop = reference.predict_detection_hop(structure)
            expected = (structure, True, True, "detected", hop, hop)
            ops.append(SweepCaseOp("exhaustive", graph, succ.__getitem__, start, budget, expected))
    for shape in walk_shapes(rng, walks):
        ops.append(SweepWalkOp(shape[0], *build_walk(rng, shape)))
    rng.shuffle(ops)
    return ops


def run_sweep(op):
    if isinstance(op, SweepCaseOp):
        structure = reference.visited_set_oracle(op.start, op.next_fn, op.budget)
        brent = reference.brent_detect(op.start, op.next_fn, op.budget)
        floyd = reference.floyd_detect(op.start, op.next_fn, op.budget)
        trace = simulator.simulate(op.graph, op.start)
        predicted = reference.predict_detection_hop(structure) if structure else None
        return structure, brent, floyd, trace, predicted
    trace = simulator.simulate(op.graph, 0)
    return trace, simulator.trace_csv(trace)


def sweep_steps(ops):
    """Successor evaluations that one pass makes in each reference routine,
    by span name, for the traced run's per-step rates. On a walk without
    terminals the count depends only on (mu, lambda), so each shape is
    counted once, on a canonical rho walk, and never inside a timed op."""
    per_shape = {}
    totals = collections.Counter()
    for op in ops:
        if isinstance(op, SweepCaseOp):
            structure = op.expected[0]
            if structure not in per_shape:
                per_shape[structure] = _reference_steps(structure, op.budget)
            totals.update(per_shape[structure])
    return totals


def _reference_steps(structure, budget):
    mu, lam = structure
    succ = list(range(1, mu + lam)) + [mu]
    return {
        f"reference.{detector.__name__}": _count_steps(detector, succ, budget)
        for detector in (reference.brent_detect, reference.floyd_detect,
                         reference.visited_set_oracle)
    }


def _count_steps(detector, succ, budget):
    visits = []

    def counting(elem):
        visits.append(elem)
        return succ[elem]

    detector(0, counting, budget)
    return len(visits)


TRACE_CSV_HEADER = "hop,node_id_hex,tortoise_hex,snapshot,outcome"


def check_sweep(op, answer):
    if isinstance(op, SweepCaseOp):
        structure, brent, floyd, trace, predicted = answer
        got = (structure, brent, floyd, trace.outcome.value, trace.at_hop, predicted)
        return (OK if got == op.expected else WRONG), trace.outcome.value, len(trace.steps)
    trace, csv = answer
    outcome, hop = op.expected
    lines = csv.splitlines()
    ok = (
        (trace.outcome.value, trace.at_hop) == op.expected
        and len(trace.steps) == (hop if outcome == "detected" else hop - 1)
        and len(lines) == max(1, len(trace.steps)) + 1
        and lines[0] == TRACE_CSV_HEADER
        and lines[-1].endswith(f",{outcome}({hop})")
    )
    return (OK if ok else WRONG), trace.outcome.value, len(trace.steps)


# -- cli_tables: in-process CLI calls writing their tables to a file --------

# Mean timing of one op of each kind, in ms (the median of its scaled times
# over the passes, as run.py reports it), measured when the benchmark was
# defined on a 2-vCPU x86-64 host with Python 3.11. They set the op mix
# only; the run prints the time share of each kind that it actually measured.
CLI_OP_MS = {
    "header encode": 1.41,
    "header decode": 1.37,
    "simulate rho": 3.36,
    "simulate chain": 3.59,
    "latency": 37.5,
    "collisions": 10.4,
    "collisions default": 67.8,
}
DEFAULT_TTL = 255
EXIT_RUNTIME = 2  # the CLI's documented code for budget exhausted or hop overflow
EXIT_INVARIANT = 3  # its code for an internal invariant breach
DEFAULT_BITS = (24, 32, 48, 64)
DEFAULT_LENGTHS = tuple(2**k for k in range(4, 17))
MAX_COLLISION_LENGTH = 2**20
HEADER = struct.Struct(">QHI")


class CliOp(NamedTuple):
    kind: str  # a key of CLI_OP_MS
    argv: list
    out: str
    code: int  # expected exit code
    expected: object  # what the output must be; its form depends on the subcommand
    hops: int  # rows of the hop-by-hop trace the command prints


def cli_mix(size):
    """Op count of each kind, about ``size`` in all.

    Each subcommand (header, simulate, latency, collisions) gets the same
    expected share of a pass's busy time, and each variant of a subcommand
    the same share of that. No record of how often users run each
    subcommand exists, and with equal shares a speed-up of any one
    subcommand moves ``ops_per_s`` as much as the same speed-up of any
    other. The cheap header calls are then most of the ops, so ``op_p50_ms``
    measures the CLI's own overhead and ``op_p99_ms`` the latency and
    collision tables."""
    variants = collections.Counter(kind.split()[0] for kind in CLI_OP_MS)
    weights = {kind: 1 / (variants[kind.split()[0]] * ms) for kind, ms in CLI_OP_MS.items()}
    total = sum(weights.values())
    return {kind: max(1, round(size * weight / total)) for kind, weight in weights.items()}


def build_cli(rng, size, workdir):
    """``size`` is the number of ops; see ``cli_mix``."""
    out = os.path.join(workdir, "out.txt")
    ops = []
    for kind, count in cli_mix(size).items():
        ops += [CliOp(kind, *fields) for fields in _CLI_BUILDERS[kind](rng, count, out)]
    rng.shuffle(ops)
    return ops


def _cli_header_encode(rng, count, out):
    ops = []
    for _ in range(count):
        fields = (rng.getrandbits(64), rng.getrandbits(16), rng.getrandbits(32))
        argv = ["header", "encode", "--tortoise", hex(fields[0]), "--hops", str(fields[1]),
                "--nonce", hex(fields[2]), "--out", out]
        ops.append((argv, out, 0, HEADER.pack(*fields).hex() + "\n", 0))
    return ops


def _cli_header_decode(rng, count, out):
    ops = []
    for _ in range(count):
        fields = (rng.getrandbits(64), rng.getrandbits(16), rng.getrandbits(32))
        wire = HEADER.pack(*fields) + rng.randbytes(rng.randrange(PAYLOAD_LEN + 1))
        text = "tortoise=0x{:016x}\nhops=0x{:04x}\nnonce=0x{:08x}\n".format(*fields)
        ops.append((["header", "decode", wire.hex(), "--out", out], out, 0, text, 0))
    return ops


def _cli_simulate_rho(rng, count, out):
    ops = []
    for a, b in stratified_pairs(rng, count):
        mu, lam = log_uniform(a, 1, MAX_SHAPE + 1) - 1, log_uniform(b, 1, MAX_SHAPE)
        hop = reference.predict_detection_hop(reference.CycleStructure(mu, lam))
        seed = rng.getrandbits(32)
        argv = ["simulate", "--mu", str(mu), "--lambda", str(lam), "--seed", str(seed), "--out", out]
        ops.append((argv, out, 0, (seed, f"detected({hop})", hop), hop))
    return ops


def _cli_simulate_chain(rng, count, out):
    ops = []
    for u in stratified(rng, count):
        length = 1 + int(u * MAX_SHAPE)
        seed = rng.getrandbits(32)
        argv = ["simulate", "--chain", str(length), "--seed", str(seed), "--out", out]
        ops.append((argv, out, 0, (seed, f"terminated({length})", max(1, length - 1)), length - 1))
    return ops


def _cli_latency(rng, count, out):
    """mu and lambda log-uniform over the whole 16-bit range. Past the hop
    counter's horizon the documented answer is exit 2. A point is drawn
    again inside its lattice cell until it lies on the same side of the
    horizon as the cell's centre, so that the number of cases past the
    horizon is the same for every seed."""

    def shape(a, b):
        mu, lam = log_uniform(a, 1, MAX_HOPS + 1) - 1, log_uniform(b, 1, MAX_HOPS)
        return mu, lam, reference.predict_detection_hop(reference.CycleStructure(mu, lam))

    ops = []
    for a, b in stratified_pairs(rng, count):
        i, j = int(a * count), int(b * count)
        past = shape((i + 0.5) / count, (j + 0.5) / count)[2] > MAX_HOPS
        mu, lam, hop = shape(a, b)
        while (hop > MAX_HOPS) != past:
            mu, lam, hop = shape((i + rng.random()) / count, (j + rng.random()) / count)
        argv = ["latency", "--mu", str(mu), "--lambda", str(lam), "--out", out]
        if hop <= MAX_HOPS:
            row = f"{mu},{lam},{hop},{DEFAULT_TTL},{DEFAULT_TTL / hop:.12g}"
            ops.append((argv, out, 0, f"mu,lambda,brent_hop,ttl_hop,ratio\n{row}\n", 0))
        else:
            ops.append((argv, out, EXIT_RUNTIME, None, 0))
    return ops


def _cli_collisions(rng, count, out):
    ops = []
    for u in stratified(rng, count):
        bits = rng.choice(DEFAULT_BITS)
        length = log_uniform(u, 1, MAX_COLLISION_LENGTH)
        argv = ["collisions", "--bits", str(bits), "--lengths", str(length), "--out", out]
        ops.append((argv, out, 0, [(bits, length)], 0))
    return ops


def _cli_collisions_default(rng, count, out):
    grid = [(bits, length) for bits in DEFAULT_BITS for length in DEFAULT_LENGTHS]
    return [(["collisions", "--out", out], out, 0, grid, 0) for _ in range(count)]


_CLI_BUILDERS = {
    "header encode": _cli_header_encode,
    "header decode": _cli_header_decode,
    "simulate rho": _cli_simulate_rho,
    "simulate chain": _cli_simulate_chain,
    "latency": _cli_latency,
    "collisions": _cli_collisions,
    "collisions default": _cli_collisions_default,
}


def run_cli(op):
    """Exit code of one in-process ``cli.main`` call; stderr is captured
    so that a refusal's message can be reported."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse usage errors exit through here
            code = exc.code if isinstance(exc.code, int) else 1
    return code, err.getvalue()


def check_cli(op, answer):
    code, _ = answer
    try:
        with open(op.out, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(op.out)
    except FileNotFoundError:
        text = None
    key = f"{op.argv[0]}:exit{code}"
    if code != op.code:
        known = code == EXIT_INVARIANT and op.code == EXIT_RUNTIME and text is None
        return (REFUSED if known else WRONG), key, op.hops
    if code != 0:
        return (OK if text is None else WRONG), key, op.hops
    if op.argv[0] == "simulate":
        ok = text is not None and _simulate_output_ok(text, *op.expected)
    elif op.argv[0] == "collisions":
        ok = text is not None and _collision_output_ok(text, op.expected)
    else:
        ok = text == op.expected
    return (OK if ok else WRONG), key, op.hops


def _simulate_output_ok(text, seed, label, rows):
    lines = text.splitlines()
    return (
        len(lines) == rows + 2
        and lines[0] == f"# seed={seed}"
        and lines[1] == TRACE_CSV_HEADER
        and lines[-1].endswith("," + label)
    )


def _collision_output_ok(text, grid):
    """Rows in grid order, ``p_approx`` equal to 1 - exp(-n(n-1)/2^(b+1)), and
    ``p_exact`` within the approximation's error bound of it. With s = 2^-b,
    1 - p_exact = prod_k (1 - ks) and 1 - p_approx = prod_k exp(-ks) over
    k < n. Since 1 - x <= exp(-x), p_exact >= p_approx. Since
    log(1 - x) >= -x - x^2 for x <= 1/2, when (n-1)s <= 1/2 the
    log-probabilities differ by at most sum_k (ks)^2 <= s^2 n^3 / 3, so
    p_exact - p_approx <= (1 - p_approx) min(1, s^2 n^3 / 3). The
    tolerances allow for the 12 significant digits printed."""
    lines = text.splitlines()
    if lines[0] != "id_bits,path_length,p_exact,p_approx" or len(lines) != len(grid) + 1:
        return False
    for line, (bits, length) in zip(lines[1:], grid):
        fields = line.split(",")
        if len(fields) != 4 or (int(fields[0]), int(fields[1])) != (bits, length):
            return False
        p_exact, p_approx = float(fields[2]), float(fields[3])
        s = math.ldexp(1.0, -bits)
        approx = -math.expm1(-length * (length - 1) * s / 2)
        if not math.isclose(p_approx, approx, rel_tol=1e-10, abs_tol=1e-300):
            return False
        bound = min(1.0, s * s * length**3 / 3) if (length - 1) * s <= 0.5 else 1.0
        low, high = p_approx * (1 - 1e-11), p_approx + (1 - p_approx) * bound + 1e-11
        if not (low <= p_exact <= high and p_exact <= 1.0):
            return False
    return True


class Workload(NamedTuple):
    build: object
    run: object
    check: object
    sizes: dict  # "full" for measured runs, "slice" and "tiny" for short ones
    # ops -> {span name: work units per pass}, for spans whose work cannot
    # be read off the call's arguments or result
    units: object = None


WORKLOADS = {
    "wire_forward": Workload(
        build_wire, run_wire, check_wire,
        {"full": 1100, "slice": 40, "tiny": 6},
    ),
    # The full sweep's 500 walks are 3% of its ops: three times the 1% beyond
    # p99, so that op_p99_ms falls well inside the walks (near their 67th
    # percentile), not on the border between the two parts. op_p50_ms then
    # measures the 15625 five-node cases, and the walks take about three
    # quarters of the busy time.
    "sim_sweep": Workload(
        build_sweep, run_sweep, check_sweep,
        {"full": (5, 500), "slice": (4, 40), "tiny": (3, 4)}, sweep_steps,
    ),
    "cli_tables": Workload(
        build_cli, run_cli, check_cli,
        {"full": 1400, "slice": 100, "tiny": 14},
    ),
}
