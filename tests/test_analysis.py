import itertools
import math
import time
from fractions import Fraction

import pytest

from loopdetect import (
    DEFAULT_ID_BITS,
    DEFAULT_PATH_LENGTHS,
    CollisionQuery,
    CycleStructure,
    FunctionalGraph,
    Outcome,
    collision_csv,
    collision_probability_approx,
    collision_probability_exact,
    collision_table,
    latency_csv,
    latency_table,
    simulate,
)
from oracles import exact_collision_fraction, log_sum_collision_probability

# frozen from the big-integer oracle in oracles.py
P_EXACT_8192_32 = 0.0077811204140481012


def test_exact_single_id_cannot_collide():
    for bits in (1, 8, 9, 32, 128):
        p = collision_probability_exact(CollisionQuery(1, bits))
        assert p == 0.0
        assert math.copysign(1.0, p) == 1.0  # prints as 0, not -0


def test_exact_two_coin_flips():
    assert collision_probability_exact(CollisionQuery(2, 1)) == pytest.approx(0.5, abs=1e-15)


def test_exact_pigeonhole_is_certain():
    assert collision_probability_exact(CollisionQuery(3, 1)) == 1.0
    assert collision_probability_exact(CollisionQuery(5, 2)) == 1.0


def test_exact_pinned_one_percent_point():
    p = collision_probability_exact(CollisionQuery(8192, 32))
    assert 0.005 <= p <= 0.015
    assert p == pytest.approx(P_EXACT_8192_32, rel=1e-13, abs=0)


@pytest.mark.parametrize("bits", [8, 16, 32])
@pytest.mark.parametrize("length", [2, 3, 17, 100, 256])
def test_exact_matches_big_integer_oracle(bits, length):
    want = float(exact_collision_fraction(length, bits))
    got = collision_probability_exact(CollisionQuery(length, bits))
    assert got == pytest.approx(want, abs=1e-15)
    assert got == pytest.approx(want, rel=1e-13, abs=0)


def _saturation_cut(bits):
    # smallest n with n(n-1) > 80 * 2**bits, where p is rounded to 1.0
    n = math.isqrt(80 << bits)
    while n * (n - 1) <= 80 << bits:
        n += 1
    return n


def _branch_grid(bits):
    half, cut = 1 << (bits - 1), _saturation_cut(bits)
    return sorted({1, 2, 3, 255, 256, 257, half - 1, half, half + 1, cut - 1, cut, cut + 1})


@pytest.mark.parametrize("bits", [*range(1, 10), 16, 24, 32, 48, 64, 128])
def test_exact_relative_error_across_branches(bits):
    # pigeonhole, saturation cut, term-by-term widths and the closed form,
    # each on both sides of its boundary
    for length in _branch_grid(bits):
        if 1 <= length <= 4096:
            want = float(exact_collision_fraction(length, bits))
            got = collision_probability_exact(CollisionQuery(length, bits))
            assert got == pytest.approx(want, rel=1e-13, abs=0), length


@pytest.mark.parametrize("bits", [24, 32, 48, 64, 128])
def test_exact_relative_error_long_paths(bits):
    lengths = {4097, 2**16 + 1, 2**20}
    lengths.update(n for n in _branch_grid(bits) if 4096 < n <= 2**20)
    for length in sorted(lengths):
        want = log_sum_collision_probability(length, bits)
        got = collision_probability_exact(CollisionQuery(length, bits))
        assert got == pytest.approx(want, rel=1e-13, abs=0), length


@pytest.mark.parametrize("query", [CollisionQuery(10**10, 64), CollisionQuery(2**127, 128)])
def test_exact_runtime_does_not_grow_with_length(query):
    # a term-by-term sum would run for half an hour at 10**10 ids and
    # would never finish at 2**127
    start = time.perf_counter()
    p = collision_probability_exact(query)
    assert time.perf_counter() - start < 1.0
    assert 0.0 < p <= 1.0


def test_approx_single_id_is_zero():
    assert collision_probability_approx(CollisionQuery(1, 32)) == 0.0


def test_approx_agrees_at_pinned_point():
    p = collision_probability_approx(CollisionQuery(8192, 32))
    assert p == pytest.approx(P_EXACT_8192_32, abs=1e-6)


def test_approx_single_pair_tiny_space():
    p = collision_probability_approx(CollisionQuery(2, 64))
    assert p == pytest.approx(2.0**-64, rel=1e-9)


def test_exact_approx_agree_within_1e6_for_32_bits():
    for n in [n for n in DEFAULT_PATH_LENGTHS if n <= 2**13]:
        exact = collision_probability_exact(CollisionQuery(n, 32))
        approx = collision_probability_approx(CollisionQuery(n, 32))
        assert abs(exact - approx) <= 1e-6, n


def test_monotonic_in_length_and_bits():
    for bits in DEFAULT_ID_BITS:
        values = [
            collision_probability_exact(CollisionQuery(n, bits))
            for n in DEFAULT_PATH_LENGTHS
        ]
        assert values == sorted(values), bits
    for n in DEFAULT_PATH_LENGTHS:
        values = [
            collision_probability_exact(CollisionQuery(n, bits))
            for bits in sorted(DEFAULT_ID_BITS)
        ]
        assert values == sorted(values, reverse=True), n


def test_probabilities_stay_in_unit_interval():
    for bits in (1, 2, 24, 64, 128):
        for n in (1, 2, 3, 100, 65536):
            for fn in (collision_probability_exact, collision_probability_approx):
                p = fn(CollisionQuery(n, bits))
                assert 0.0 <= p <= 1.0


def test_query_validation():
    with pytest.raises(ValueError):
        collision_probability_exact(CollisionQuery(0, 32))
    with pytest.raises(ValueError):
        collision_probability_exact(CollisionQuery(5, 0))
    with pytest.raises(ValueError):
        collision_probability_exact(CollisionQuery(5, 129))


def test_collision_table_shape_and_order():
    rows = collision_table(DEFAULT_ID_BITS, DEFAULT_PATH_LENGTHS)
    assert len(rows) == 4 * 13
    assert [r.id_bits for r in rows[:13]] == [24] * 13
    assert [r.path_length for r in rows[:13]] == sorted(DEFAULT_PATH_LENGTHS)


def test_collision_table_pinned_cells():
    (row,) = collision_table([32], [8192])
    assert 0.005 <= row.p_exact <= 0.015
    (row,) = collision_table([1], [3])
    assert row.p_exact == 1.0
    (row,) = collision_table([64], [512])
    assert row.p_exact <= 1e-13


def test_collision_table_rejects_empty_grid():
    with pytest.raises(ValueError):
        collision_table([], [16])
    with pytest.raises(ValueError):
        collision_table([32], [])


def test_collision_csv_format():
    text = collision_csv(collision_table([32], [8192]))
    lines = text.splitlines()
    assert lines[0] == "id_bits,path_length,p_exact,p_approx"
    assert lines[1] == "32,8192,0.00778112041405,0.00778111548654"


def test_latency_table_rows():
    rows = latency_table(
        [CycleStructure(2, 4), CycleStructure(0, 1), CycleStructure(0, 255)], 255
    )
    assert (rows[0].brent_hop, rows[0].ttl_hop) == (8, 255)
    assert rows[0].ratio == pytest.approx(255 / 8)
    assert (rows[1].brent_hop, rows[1].ttl_hop) == (1, 255)
    # the hop-limit baseline wins when the cycle approaches the ttl
    assert (rows[2].brent_hop, rows[2].ttl_hop) == (511, 255)
    assert rows[2].ratio < 1


def test_latency_table_rejects_ttl_below_one():
    with pytest.raises(ValueError):
        latency_table([CycleStructure(0, 1)], 0)


def test_latency_csv_format():
    text = latency_csv(latency_table([CycleStructure(2, 4)], 255))
    assert text == "mu,lambda,brent_hop,ttl_hop,ratio\n2,4,8,255,31.875\n"


def test_exact_underflow_regime():
    # direct product of 65535 terms near 1 would underflow long before
    # this; the log-space path must not
    p = collision_probability_exact(CollisionQuery(65536, 128))
    assert 0.0 < p < 1e-28


def test_exact_pigeonhole_boundary():
    # below saturation the value stays visibly under 1; past the id-space
    # size it is exactly 1 (n = 2**b itself rounds to 1.0 in float, which
    # the unit-interval contract allows)
    assert collision_probability_exact(CollisionQuery(20, 8)) < 0.6
    assert collision_probability_exact(CollisionQuery(2**8 + 1, 8)) == 1.0


def test_exact_huge_length_saturates():
    assert collision_probability_exact(CollisionQuery(2**16, 24)) == pytest.approx(
        1.0, abs=1e-12
    )
    assert math.isfinite(collision_probability_exact(CollisionQuery(2**16, 24)))


@pytest.mark.parametrize("bits, longest", [(1, 6), (2, 6), (3, 5)])
def test_false_fire_rate_on_a_loop_free_path_is_exact(bits, longest):
    # detection fires only when the receiver's id equals the tortoise, so over
    # every b-bit id assignment of a chain of h hops the share that fires is
    # exactly 1 - (1 - 2**-b)**h, bounded by the birthday chance of a duplicate
    for n in range(1, longest + 1):
        succ = tuple(range(1, n)) + (None,)
        fired = sum(
            simulate(FunctionalGraph(ids, succ), 0).outcome is Outcome.DETECTED
            for ids in itertools.product(range(2**bits), repeat=n)
        )
        share, hops = Fraction(fired, 2 ** (bits * n)), n - 1
        assert share == 1 - (1 - Fraction(1, 2**bits)) ** hops
        assert share <= exact_collision_fraction(n, bits)
