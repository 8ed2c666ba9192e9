"""Node-id collision probabilities and detection-latency comparisons.

A duplicate node id on a path is the only source of false-positive loop
detection, and its likelihood is a birthday problem: n routers drawing
b-bit ids uniformly at random. This module computes that probability
exactly and via the standard exponential approximation, emits the grid
as CSV for replotting, and tabulates detection latency against a plain
hop-limit baseline.
"""

import math
from typing import Iterable, NamedTuple, Sequence

from .reference import CycleStructure, predict_detection_hop


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


def collision_probability_exact(query: CollisionQuery) -> float:
    """P(two or more of n uniform b-bit ids coincide), exact.

    Computes 1 - prod_{k=1}^{n-1} (1 - k / 2**b) as a log1p sum; the
    direct product underflows for large n at large b. Returns exactly 1
    when n exceeds the id space (pigeonhole).
    """
    n, b = _checked(query)
    if n > 2**b:
        return 1.0
    scale = math.ldexp(1.0, -b)
    log_no_dup = math.fsum(math.log1p(-k * scale) for k in range(1, n))
    p = -math.expm1(log_no_dup)
    assert 0.0 <= p <= 1.0
    return p


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
    # 12 significant digits so regression diffs stay meaningful
    lines = [COLLISION_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.id_bits},{row.path_length},{row.p_exact:.12g},{row.p_approx:.12g}"
        )
    return "\n".join(lines) + "\n"


def latency_table(
    cases: Sequence[CycleStructure], ttl: int
) -> list[LatencyRow]:
    """Detection hop of the in-band scheme vs a hop-limit baseline.

    ``brent_hop`` comes from the closed-form predictor; callers that emit
    tables externally should cross-check it against a live simulation. A
    pure hop-limit scheme halts a looping packet exactly at ``ttl``,
    whatever the loop's shape.
    """
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    rows = []
    for case in cases:
        brent_hop = predict_detection_hop(case)
        rows.append(LatencyRow(case.mu, case.lam, brent_hop, ttl, ttl / brent_hop))
    return rows


def latency_csv(rows: Iterable[LatencyRow]) -> str:
    lines = [LATENCY_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.mu},{row.lam},{row.brent_hop},{row.ttl_hop},{row.ratio:.12g}"
        )
    return "\n".join(lines) + "\n"


def _checked(query: CollisionQuery) -> CollisionQuery:
    n, b = query
    if n < 1:
        raise ValueError("path_length must be >= 1")
    if not 1 <= b <= 128:
        raise ValueError("id_bits must be within [1, 128]")
    return query
