"""Node-id collision probabilities and detection-latency comparisons.

A duplicate node id on a path is the only source of false-positive loop
detection. This module computes the birthday chance that any two of n
uniform b-bit ids coincide, exactly and via the standard exponential
approximation, emits the grid as CSV for replotting, and tabulates
detection latency against a plain hop-limit baseline. That chance only
bounds false detection, which needs the receiver's id to equal the
tortoise: on a loop-free path of h hops it is exactly 1 - (1 - 2**-b)**h.
"""

import math
from typing import Iterable, NamedTuple, Sequence

from .reference import CycleStructure, _check_int, predict_detection_hop


class CollisionQuery(NamedTuple):
    """Path of ``path_length`` routers drawing ``id_bits``-bit ids."""

    path_length: int
    id_bits: int


class CollisionRow(NamedTuple):
    id_bits: int
    path_length: int
    p_exact: float
    p_approx: float


class LatencyRow(NamedTuple):
    mu: int
    lam: int
    brent_hop: int
    ttl_hop: int
    ratio: float


DEFAULT_ID_BITS = (24, 32, 48, 64)
DEFAULT_PATH_LENGTHS = tuple(2**k for k in range(4, 17))

COLLISION_CSV_HEADER = "id_bits,path_length,p_exact,p_approx"
LATENCY_CSV_HEADER = "mu,lambda,brent_hop,ttl_hop,ratio"


# past n(n-1) > 80 * 2**b, 1 - p < exp(-40) and p rounds to 1.0
_SATURATION_PAIRS = 80
# up to this width the per-term sum is short and Euler-Maclaurin's step s
# is too coarse for three corrections
_TERMWISE_MAX_BITS = 8
# (2i - 1, -B_2i / (2i (2i - 1))) for the Bernoulli numbers B_2, B_4, B_6
_EULER_MACLAURIN = ((1, -1 / 12), (3, 1 / 360), (5, -1 / 1260))


def collision_probability_exact(query: CollisionQuery) -> float:
    """P(two or more of n uniform b-bit ids coincide), exact to a few ulps.

    With s = 2**-b, 1 - p is prod_{k=1}^{n-1} (1 - k s). The cost of one
    call does not depend on n:

    - n = 1 gives 0 and n > 2**b gives exactly 1 (pigeonhole).
    - n(n-1) > 80 * 2**b gives 1.0: then 1 - p < exp(-n(n-1) s / 2)
      < exp(-40), less than half an ulp of 1.
    - b <= 8 sums log1p(-k s) term by term; the cut above leaves n < 144.
    - Otherwise x = (n-1) s is below 0.4 and the log of the product comes
      in closed form from Euler-Maclaurin (see ``_log_no_dup``).
    """
    n, b = _checked(query)
    if n == 1:
        return 0.0
    if n > 2**b or n * (n - 1) > _SATURATION_PAIRS << b:
        return 1.0
    scale = math.ldexp(1.0, -b)
    if b <= _TERMWISE_MAX_BITS:
        log_no_dup = math.fsum(math.log1p(-k * scale) for k in range(1, n))
    else:
        log_no_dup = _log_no_dup(n - 1, scale)
    p = -math.expm1(log_no_dup)
    assert 0.0 <= p <= 1.0
    return p


def _log_no_dup(m: int, s: float) -> float:
    """sum_{k=1}^{m} log1p(-k s) for s <= 2**-9 and x = m s < 1/2.

    Euler-Maclaurin on f(t) = log1p(-t s) over [0, m]. The integral is
    -(1/s) sum_{j>=2} x**j / (j (j-1)), a series whose terms at least
    halve, so it needs no cancelling (1-x) log(1-x) + x. Add the endpoint
    f(m)/2 and the corrections -B_2i / (2i (2i-1)) s**(2i-1)
    ((1-x)**-(2i-1) - 1) for i <= 3; the remainder is then below 2**-70
    of the sum.
    """
    x = m * s
    log_rest = math.log1p(-x)
    terms = [log_rest / 2]
    power = x  # x**(j-1)
    for j in range(2, 64):
        term = power / (j * (j - 1))
        terms.append(-m * term)
        # the tail is at most the last term, here 2**-56 of the first
        if term <= x * 2.0**-57:
            break
        power *= x
    terms.extend(c * s**k * math.expm1(-k * log_rest) for k, c in _EULER_MACLAURIN)
    return math.fsum(terms)


def collision_probability_approx(query: CollisionQuery) -> float:
    """Exponential approximation 1 - exp(-n(n-1) / 2**(b+1)).

    Cross-check for the exact computation; the error term is
    O(n**3 / 2**(2b)).
    """
    n, b = _checked(query)
    p = -math.expm1(-math.ldexp(float(n * (n - 1)), -(b + 1)))
    assert 0.0 <= p <= 1.0
    return p


def collision_table(
    bit_widths: Sequence[int], path_lengths: Sequence[int]
) -> list[CollisionRow]:
    """Exact and approximate collision probability over a grid.

    Rows come out b-major in the order given, path lengths ascending.
    """
    if not bit_widths or not path_lengths:
        raise ValueError("grids must be non-empty")
    lengths = sorted(path_lengths)
    rows = []
    for bits in bit_widths:
        for length in lengths:
            query = CollisionQuery(length, bits)
            rows.append(
                CollisionRow(
                    bits,
                    length,
                    collision_probability_exact(query),
                    collision_probability_approx(query),
                )
            )
    return rows


def collision_csv(rows: Iterable[CollisionRow]) -> str:
    return _csv(COLLISION_CSV_HEADER, "%d,%d,%.12g,%.12g", rows)


def latency_table(
    cases: Sequence[CycleStructure], ttl: int
) -> list[LatencyRow]:
    """Detection hop of the in-band scheme vs a hop-limit baseline.

    ``brent_hop`` comes from the closed-form predictor for an unbounded
    counter, so it can exceed MAX_HOPS (105536 for mu = 0, lam = 40000),
    where the packet expires by hop overflow first (``loopdetect latency``
    exits 2); callers that emit tables externally should cross-check it
    against a live simulation. A pure hop-limit scheme halts a looping
    packet exactly at ``ttl``, whatever the loop's shape.
    """
    _check_int("ttl", ttl, 1)
    rows = []
    for case in cases:
        brent_hop = predict_detection_hop(case)
        rows.append(LatencyRow(case.mu, case.lam, brent_hop, ttl, ttl / brent_hop))
    return rows


def latency_csv(rows: Iterable[LatencyRow]) -> str:
    return _csv(LATENCY_CSV_HEADER, "%d,%d,%d,%d,%.12g", rows)


def _csv(header: str, row_format: str, rows: Iterable[tuple]) -> str:
    # 12 significant digits so regression diffs stay meaningful
    return "\n".join([header, *map(row_format.__mod__, rows), ""])


def _checked(query: CollisionQuery) -> CollisionQuery:
    n, b = query
    _check_int("path_length", n, 1)
    _check_int("id_bits", b, 1, 128)
    return query
