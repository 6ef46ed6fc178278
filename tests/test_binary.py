"""Closed-form backend: exact cylinders, ball formula and entropy series."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fsgentropy.binary import (
    EXACT_FLAVOURS,
    BinaryPoint,
    ExactCylinderMeasure,
    add_one,
    ball_key,
    distance,
    drop_head,
    exact_correlation_integral,
    exact_series,
    prefix_length_for,
    random_point,
    random_points,
    s_count,
)
from fsgentropy.errors import (
    CarryOverflow,
    DepthExhausted,
    InvalidEpsilon,
    KZero,
    WordTooShort,
)
from fsgentropy.seeding import substream
from fsgentropy.systems import binary_shift_odometer, bowen_distance
from fsgentropy.words import word
from oracles import Cylinder, all_points, exact_bowen_ball

LOG2 = math.log(2.0)


def bp(*bits):
    return BinaryPoint.from_bits(bits)


def test_point_construction_and_bits():
    x = bp(1, 0, 1, 1)
    assert x.depth == 4
    assert x.bits == (1, 0, 1, 1)
    assert BinaryPoint(x.value, 4) == x
    with pytest.raises(ValueError):
        BinaryPoint(16, 4)
    with pytest.raises(ValueError):
        BinaryPoint(0, 0)
    with pytest.raises(ValueError):
        BinaryPoint.from_bits((0, 2))


def test_odometer_no_carry():
    assert add_one(bp(0, 1, 1, 0)).bits == (1, 1, 1, 0)


def test_odometer_carry_chain():
    assert add_one(bp(1, 1, 0, 1)).bits == (0, 0, 1, 1)


def test_odometer_overflow():
    with pytest.raises(CarryOverflow):
        add_one(bp(1, 1, 1))


def test_shift_drops_head():
    assert drop_head(bp(1, 0, 1)).bits == (0, 1)
    with pytest.raises(DepthExhausted):
        drop_head(bp(1))


def test_distance_convention():
    # d = 2**-(length of the common prefix)
    assert distance(bp(1, 0, 1), bp(0, 0, 1)) == 1.0
    assert distance(bp(1, 0, 1), bp(1, 1, 1)) == 0.5
    assert distance(bp(1, 0, 1, 0), bp(1, 0, 1, 1)) == 0.125
    assert distance(bp(1, 0, 1), bp(1, 0, 1)) == 0.0


def test_distance_depth_failures():
    with pytest.raises(DepthExhausted):
        distance(bp(1, 0), bp(1, 0, 1))  # agree on all common coordinates
    assert distance(bp(1, 0), bp(0, 0, 1)) == 1.0  # difference is visible


def test_prefix_length_for():
    assert prefix_length_for(1.0) == 0
    assert prefix_length_for(2.0) == 0
    assert prefix_length_for(0.5) == 1
    for t in range(1, 20):
        assert prefix_length_for(2.0**-t) == t
    # non-dyadic radius 3/32 resolves cylinders of length 4
    assert prefix_length_for(3 * 2.0**-5) == 4
    with pytest.raises(InvalidEpsilon):
        prefix_length_for(0.0)


def _exact_prefix_length(eps: float) -> int:
    """The smallest L >= 0 with 2**-L <= eps, in exact rationals, by
    bisection: 2**-L <= eps holds from that L on, and at L = 1075 for
    every positive double."""
    lo, hi = 0, 1075
    while lo < hi:
        mid = (lo + hi) // 2
        if Fraction(1, 2**mid) <= Fraction(eps):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_prefix_length_for_matches_its_exact_definition():
    dyadics = [2.0**-t for t in range(0, 1075)]  # down to the smallest subnormal
    radii = [
        eps
        for d in dyadics
        for eps in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf))
        if eps > 0.0
    ]
    radii += [3 * 2.0**-5, 0.1, 1e-300, 5e-324, 1.0, 1.5, 2.0, 1e300]
    for eps in radii:
        assert prefix_length_for(eps) == _exact_prefix_length(eps), eps
    assert prefix_length_for(math.inf) == 0
    for bad in (0.0, -0.5, -math.inf, math.nan):
        with pytest.raises(InvalidEpsilon):
            prefix_length_for(bad)


def test_ball_key_matches_distance():
    rng = np.random.default_rng(2)
    for _ in range(60):
        x, y = random_point(12, rng), random_point(12, rng)
        for eps in (1.0, 0.5, 0.25, 3 * 2.0**-5, 0.125):
            assert (ball_key(x, eps) == ball_key(y, eps)) == (distance(x, y) <= eps)


def test_s_count():
    assert s_count(word((), 2), 1) == 0
    assert s_count(word((1, 1, 1), 2), 4) == 3
    assert s_count(word((2, 1, 2, 1), 2), 5) == 2
    with pytest.raises(WordTooShort):
        s_count(word((1,), 2), 3)
    with pytest.raises(KZero):
        s_count(word((1,), 2), 0)


def test_exact_bowen_ball_base_case():
    x = bp(1, 0, 1, 1, 0)
    c = exact_bowen_ball(word((), 2), 1, x, 3)
    assert c.word == (1, 0, 1)


def test_exact_bowen_ball_odometer_only():
    x = bp(1, 0, 1, 1, 0, 1)
    for k in (1, 2, 3, 4):
        c = exact_bowen_ball(word((2, 2, 2), 2), k, x, 2)
        assert c.word == (1, 0)


def test_exact_bowen_ball_shift_only_vs_brute_force():
    sys_ = binary_shift_odometer(depth=16)
    t, k = 2, 3
    omega = word((1,) * (k - 1), 2)
    depth = t + k + 2
    pts = all_points(depth, pad=8)
    x = pts[37]
    cyl = exact_bowen_ball(omega, k, x, t)
    assert cyl.length == t + k - 1
    eps = 2.0**-t
    member = {p.value for p in pts if bowen_distance(sys_, omega, k, x, p) <= eps}
    assert member == {p.value for p in cyl.points(depth)}


def test_exact_bowen_ball_depth_guard():
    with pytest.raises(DepthExhausted):
        exact_bowen_ball(word((1, 1), 2), 3, bp(1, 0, 1), 2)


def test_cylinder_measure_and_membership():
    c = Cylinder((1, 0))
    assert c.measure == Fraction(1, 4)
    assert Cylinder(()).measure == 1
    assert c.contains(bp(1, 0, 1))
    assert not c.contains(bp(1, 1, 0))
    with pytest.raises(DepthExhausted):
        c.contains(bp(1))
    assert len(c.points(4)) == 4
    assert all(p.bits[:2] == (1, 0) for p in c.points(4))


def test_exact_corr_integral_series_values():
    s = exact_series("corr", 3, 8, q=2.0)
    assert s.value_at(1) == pytest.approx(3 * LOG2, abs=0)
    for k, v in s.rows:
        assert v == (3 + (k - 1) / 2.0) * LOG2 / k


def test_exact_series_q_invariance_bitwise():
    a = exact_series("corr", 2, 32, q=0.0)
    b = exact_series("corr", 2, 32, q=1.0)
    c = exact_series("corr", 2, 32, q=2.0)
    d = exact_series("corr", 2, 32, q=5.0)
    assert a.rows == b.rows == c.rows == d.rows


def test_exact_top_entropy_series_values():
    s = exact_series("top", 2, 64)
    assert s.value_at(1) == 2 * LOG2
    assert s.value_at(64) == pytest.approx((2 + 31.5) * LOG2 / 64, rel=1e-12)
    assert s.value_at(64) == pytest.approx(0.3628192, abs=5e-7)


def test_exact_series_deviation_structure():
    # value - limit is exactly (t - 1/2) * log2 / k for the radius series
    for t in (1, 2, 4):
        s = exact_series("top", t, 32)
        for k, v in s.rows:
            assert v - LOG2 / 2 == pytest.approx((t - 0.5) * LOG2 / k, rel=1e-12)
    m = exact_series("measure", 1, 32)
    for k, v in m.rows:
        assert v - LOG2 / 2 == pytest.approx(0.5 * LOG2 / k, rel=1e-12)


@pytest.mark.parametrize("flavour", EXACT_FLAVOURS)
def test_exact_series_rows_are_the_one_closed_form(flavour):
    for t, power in itertools.product(range(1, 5), range(1, 4)):
        s = exact_series(flavour, t, 40, q=3.0, power=power)
        assert s.rows == [
            (k, -exact_correlation_integral(t, k, power) / k) for k in range(1, 41)
        ]
        # bit for bit the cylinder-length formula (t + power*(k-1)/2) log 2 / k
        assert s.values == [(t + power * (k - 1) / 2.0) * LOG2 / k for k in range(1, 41)]
        assert s.epsilon == (0.0 if flavour == "measure" else 2.0 ** (-t))
        assert s.q == (3.0 if flavour == "corr" else None)
        assert s.exact is True


@pytest.mark.parametrize(
    "args",
    [("entropy", 2, 8), ("Top", 2, 8), ("top", 0, 8), ("corr", 2, 0), ("measure", 1, 8, 2.0, 0)],
)
def test_exact_series_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        exact_series(*args)


def test_exact_measure_entropy_first_rows():
    s = exact_series("measure", 1, 4)
    assert s.value_at(1) == LOG2
    assert s.value_at(3) == pytest.approx(2 * LOG2 / 3)


def _join_partition_entropy(omega_syms: tuple[int, ...], k: int) -> float:
    """Independent oracle for the partition-entropy integrand: build the
    join of the first k pullbacks of the first-coordinate partition by
    brute force over depth-6 prefixes (zero-padded so the odometer
    carries resolve), then take the Shannon entropy of the cell
    frequencies."""
    sys_ = binary_shift_odometer(depth=8)
    omega = word(omega_syms, 2)
    cells = Counter()
    for bits in itertools.product((0, 1), repeat=6):
        x = BinaryPoint.from_bits(bits + (0, 0))
        label = []
        cur = x
        for i in range(k):
            if i > 0:
                cur = sys_.maps[omega_syms[i - 1] - 1](cur)
            label.append(cur.value & 1)
        cells[tuple(label)] += 1
    total = sum(cells.values())
    return -sum((c / total) * math.log(c / total) for c in cells.values())


def test_exact_measure_entropy_k3_against_join_oracle():
    # average the brute-force join entropy over all four length-2 words
    k = 3
    oracle = np.mean(
        [_join_partition_entropy(w, k) for w in itertools.product((1, 2), repeat=2)]
    )
    series_value = exact_series("measure", 1, 3).value_at(3)
    assert series_value == pytest.approx(oracle / k, rel=1e-12)


def test_all_exact_series_share_one_limit():
    t = 3
    corr = exact_series("corr", t, 48, q=2.0)
    top = exact_series("top", t, 48)
    meas = exact_series("measure", 1, 48)
    for s in (corr, top, meas):
        tail = s.value_at(48)
        assert abs(tail - LOG2 / 2) <= LOG2 / 2  # sanity: same order
    # the three series agree row-by-row up to the known 1/k deviations
    for k in (8, 16, 48):
        assert corr.value_at(k) == top.value_at(k)


def test_power_series_closed_form():
    # a p-fold power system spans p*(k-1) base letters by horizon k
    for t in (1, 2):
        for k in (1, 2, 5):
            c2 = exact_correlation_integral(t, k, power=2)
            assert c2 == -(t + (k - 1)) * LOG2


def test_exact_cylinder_measure():
    em = ExactCylinderMeasure.draw(32, 8, substream(1))
    sys_ = binary_shift_odometer(depth=32)
    omega = word((1, 2, 1), 2)
    ms = em.ball_measures(sys_, omega, 3, 0.25)
    assert ms.shape == (8,)
    # length = 2 resolved + 1 shift among the first two letters
    assert all(m == 2.0**-3 for m in ms)
    assert em.ball_measures(sys_, omega, 3, 0.125)[0] == 2.0**-4


def test_random_point_depth_and_determinism():
    a = random_point(100, substream(3))
    b = random_point(100, substream(3))
    assert a == b and a.depth == 100


def _bytes_point(depth, rng):
    """A point drawn through Generator.bytes, one point at a time."""
    v = int.from_bytes(rng.bytes((depth + 7) // 8), "little") & ((1 << depth) - 1)
    return BinaryPoint(v, depth)


@pytest.mark.parametrize("depth", [1, 7, 8, 31, 32, 33, 49, 64, 65, 100, 4000, 4019])
def test_random_points_equal_one_draw_at_a_time(depth):
    for n in (1, 2, 3, 4096):
        a, b, c = (substream(50, depth, n) for _ in range(3))
        batch = random_points(depth, n, a)
        assert batch == [random_point(depth, b) for _ in range(n)]
        assert batch == [_bytes_point(depth, c) for _ in range(n)]
        assert a.bit_generator.state == b.bit_generator.state == c.bit_generator.state
