"""Independent oracles the tests check the package against.

Nothing in here imports the package under test. The SHA-256 here is a
from-scratch implementation with its round constants derived by integer
root extraction (no transcribed tables) and is itself checked against the
two published NIST vectors before anything trusts it. The collision
probability is computed in exact big-integer arithmetic, and, for path
lengths too long for that, as a plain term-by-term log1p sum. Seeded node
ids are drawn one ``getrandbits(64)`` call at a time. Trace rows are
recorded one per hop as the packet moves, and rendered as CSV one
``%``-formatted line per row. A rejection is read as the exact ValueError
a call raises.
"""

import itertools
import math
import struct
from fractions import Fraction

_MASK32 = 0xFFFFFFFF


def _primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def _icbrt(n):
    x = int(round(n ** (1.0 / 3.0)))
    while x**3 > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


# fractional parts of sqrt/cbrt of the first primes, in 32 fixed-point bits
_H0 = [math.isqrt(p << 64) & _MASK32 for p in _primes(8)]
_K = [_icbrt(p << 96) & _MASK32 for p in _primes(64)]


def _rotr(x, n):
    return ((x >> n) | (x << (32 - n))) & _MASK32


def sha256_ref(data: bytes) -> bytes:
    state = list(_H0)
    length_bits = len(data) * 8
    padded = data + b"\x80" + b"\x00" * ((55 - len(data)) % 64)
    padded += length_bits.to_bytes(8, "big")
    for offset in range(0, len(padded), 64):
        w = list(struct.unpack(">16I", padded[offset : offset + 64]))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK32)
        a, b, c, d, e, f, g, h = state
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + s1 + ch + _K[i] + w[i]) & _MASK32
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & _MASK32
            h, g, f, e, d, c, b, a = (
                g,
                f,
                e,
                (d + temp1) & _MASK32,
                c,
                b,
                a,
                (temp1 + temp2) & _MASK32,
            )
        state = [(s + v) & _MASK32 for s, v in zip(state, (a, b, c, d, e, f, g, h))]
    return b"".join(s.to_bytes(4, "big") for s in state)


# published NIST test vectors; sha256_ref is worthless unless these hold
SHA256_EMPTY_HEX = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC_HEX = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def exact_collision_fraction(path_length: int, id_bits: int) -> Fraction:
    """P(duplicate among path_length uniform ids from a 2**id_bits space),
    as an exact rational via the falling factorial."""
    space = 1 << id_bits
    if path_length > space:
        return Fraction(1)
    no_dup_numerator = 1
    for k in range(path_length):
        no_dup_numerator *= space - k
    return 1 - Fraction(no_dup_numerator, space**path_length)


def log_sum_collision_probability(path_length: int, id_bits: int) -> float:
    """The same probability as 1 - exp(sum_{k<path_length} log1p(-k/2**id_bits)),
    summed term by term with fsum: O(path_length), accurate to a few ulps."""
    if path_length > 1 << id_bits:
        return 1.0
    scale = math.ldexp(1.0, -id_bits)
    return -math.expm1(math.fsum(math.log1p(-k * scale) for k in range(1, path_length)))


def distinct_ids_one_at_a_time(rng, count: int) -> list:
    """``count`` distinct 64-bit ids, one ``rng.getrandbits(64)`` call per
    draw, a repeated value skipped: the order the builders' seeded ids
    must follow, and the words of ``rng`` they must use up."""
    drawn = []
    seen = set()
    while len(drawn) < count:
        value = rng.getrandbits(64)
        if value not in seen:
            seen.add(value)
            drawn.append(value)
    return drawn


def trace_rows_hop_by_hop(ids, succ, start, receive):
    """Forward one packet as ``simulate`` does, appending one
    (hop, node, tortoise_after, snapshot_taken) row per hop as it goes.

    ``receive`` is the state machine under test (``receive_packet``),
    passed in so that nothing here imports the package; the walk ends at a
    terminal, at a detection, or when ``receive`` raises an OverflowError
    because the hop counter saturated. Returns the rows, the outcome's
    value and its hop.
    """
    tortoise = ids[start]
    header = (tortoise, 0)
    rows = []
    pos = start
    for hop in itertools.count(1):
        nxt = succ[pos]
        if nxt is None:
            return rows, "terminated", hop
        node = ids[nxt]
        try:
            detected, header = receive(header, node)
        except OverflowError:
            return rows, "hop_overflow", None
        if detected:
            rows.append((hop, node, tortoise, False))
            return rows, "detected", hop
        rows.append((hop, node, header[0], header[0] != tortoise))
        tortoise = header[0]
        pos = nxt


def trace_csv_row_by_row(rows, label):
    """The trace CSV of ``rows`` (as ``trace_rows_hop_by_hop`` records
    them), one ``"%d,%016x,%016x,%d,"`` line per row; ``label`` ends the
    last line, which is a line of empty cells when there are no rows."""
    lines = ["hop,node_id_hex,tortoise_hex,snapshot,outcome"]
    for row in rows:
        lines.append("%d,%016x,%016x,%d," % row)
    if not rows:
        lines.append(",,,,")
    lines[-1] += label
    return "\n".join(lines) + "\n"


def naive_is_power_of_two(value: int) -> bool:
    """Doubling loop: the slow, obviously-correct version of the bit trick."""
    p = 1
    while p < value:
        p *= 2
    return p == value and value > 0


def rejection(function, *args) -> str:
    """The message of the ValueError ``function(*args)`` raises; fails if it
    raises nothing, or a subclass of ValueError."""
    try:
        function(*args)
    except ValueError as exc:
        assert type(exc) is ValueError, repr(exc)
        return str(exc)
    raise AssertionError(f"{function.__name__}{args!r} raised nothing")
