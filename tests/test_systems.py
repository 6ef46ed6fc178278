"""Word-indexed orbits, the Bowen metric and power systems."""

import numpy as np
import pytest

from fsgentropy import binary
from fsgentropy.errors import (
    AlphabetOverflow,
    KZero,
    SystemUnknown,
    WordTooShort,
)
from fsgentropy.seeding import substream
from fsgentropy.systems import (
    apply_word,
    binary_shift_odometer,
    bowen_distance,
    build_power_system,
    circle_double_rotate,
    make_system,
    torus_affine,
)
from fsgentropy.words import (
    sample_word,
    uniform_spec,
    word,
)
from oracles import power_word_map

BIN = binary_shift_odometer(depth=24)
CIRCLE = circle_double_rotate()


def bp(bits, pad=0):
    return binary.BinaryPoint.from_bits(tuple(bits) + (0,) * pad)


def test_apply_word_identity():
    x = bp((1, 0, 1, 1))
    assert apply_word(BIN, word((1, 2), 2), 0, x) == x


def test_apply_word_odometer_carry():
    # adding one to (1,1,0,...) carries into the third coordinate
    x = bp((1, 1, 0, 1, 0, 1))
    y = apply_word(BIN, word((2,), 2), 1, x)
    assert y.bits == (0, 0, 1, 1, 0, 1)


def test_apply_word_circle_doubling_twice():
    y = apply_word(CIRCLE, word((1, 1), 2), 2, 0.3)
    assert y == pytest.approx(0.2, abs=1e-12)


def test_apply_word_too_short():
    with pytest.raises(WordTooShort):
        apply_word(BIN, word((1,), 2), 2, bp((1, 0, 1)))


def test_bowen_distance_k1_is_metric():
    x, y = bp((1, 0, 1, 1)), bp((1, 1, 0, 0))
    assert bowen_distance(BIN, word((), 2), 1, x, y) == BIN.metric(x, y)


def test_bowen_distance_zero_on_equal_points():
    x = bp((1, 0, 1, 1))
    for k in (1, 2, 3):
        assert bowen_distance(BIN, word((1, 2), 2), k, x, x) == 0.0


def test_bowen_distance_errors():
    x, y = bp((1, 0, 1)), bp((0, 0, 1))
    with pytest.raises(KZero):
        bowen_distance(BIN, word((1,), 2), 0, x, y)
    with pytest.raises(WordTooShort):
        bowen_distance(BIN, word((1,), 2), 3, x, y)


def test_bowen_distance_properties_random_triples():
    # symmetry, triangle inequality, monotonicity in k, and dependence
    # on the first k-1 symbols only
    rng = np.random.default_rng(11)
    for trial in range(50):
        k = int(rng.integers(1, 5))
        w1 = sample_word(uniform_spec(2), k + 3, substream(trial, 0))
        w2 = word(w1.symbols[: k - 1] + tuple(rng.integers(1, 3, size=4)), 2)
        x, y, z = (binary.random_point(24, rng) for _ in range(3))
        dxy = bowen_distance(BIN, w1, k, x, y)
        assert dxy == bowen_distance(BIN, w1, k, y, x)
        dxz = bowen_distance(BIN, w1, k, x, z)
        dzy = bowen_distance(BIN, w1, k, z, y)
        assert dxy <= dxz + dzy + 1e-15
        assert bowen_distance(BIN, w1, k + 1, x, y) >= dxy
        assert bowen_distance(BIN, w2, k, x, y) == dxy


def test_apply_word_composition_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = sample_word(uniform_spec(2), 8, substream(int(rng.integers(2**31))))
        a, b = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        x = binary.random_point(30, rng)
        lhs = apply_word(BIN, w, a + b, x)
        rhs = apply_word(BIN, word(w.symbols[a:], w.m), b, apply_word(BIN, w, a, x))
        assert lhs == rhs


def test_build_power_system_t1_is_same_system():
    assert build_power_system(BIN, 1) is BIN


def test_build_power_system_generator_order():
    # digits (1, 2) means shift first, then odometer
    power = build_power_system(BIN, 2)
    assert power.m == 4
    j = 3  # j - 1 = (1 - 1) + (2 - 1) * 2 = 2
    x = bp((1, 1, 0, 1, 0, 1))
    assert power.maps[j - 1](x) == binary.add_one(binary.drop_head(x))


def test_build_power_system_consistency_binary():
    # power orbit equals the base orbit at multiples of t, exactly
    rng = np.random.default_rng(8)
    for t in (1, 2, 3):
        power = build_power_system(BIN, t)
        spec = uniform_spec(2**t)
        for trial in range(34):
            n = int(rng.integers(0, 5))
            varpi = sample_word(spec, n, substream(t, trial))
            omega = power_word_map(varpi, 2, t)
            x = binary.random_point(40, rng)
            assert apply_word(power, varpi, n, x) == apply_word(BIN, omega, n * t, x)


def test_build_power_system_consistency_circle():
    rng = np.random.default_rng(9)
    power = build_power_system(CIRCLE, 2)
    spec = uniform_spec(4)
    for trial in range(40):
        n = int(rng.integers(0, 5))
        varpi = sample_word(spec, n, substream(5, trial))
        omega = power_word_map(varpi, 2, 2)
        x = float(rng.random())
        a = apply_word(power, varpi, n, x)
        b = apply_word(CIRCLE, omega, 2 * n, x)
        assert abs(a - b) <= 1e-12


def test_build_power_system_overflow():
    with pytest.raises(AlphabetOverflow):
        build_power_system(BIN, 64)


def test_metric_sanity_builtin_systems():
    rng = np.random.default_rng(10)
    for sys_ in (BIN, CIRCLE, torus_affine()):
        pts = [sys_.mu_sampler(rng, 1)[0] for _ in range(30)]
        for p in pts:
            assert sys_.metric(p, p) == 0.0
        for a, b in zip(pts, pts[1:]):
            d = sys_.metric(a, b)
            assert 0.0 <= d <= sys_.diameter
            assert d == sys_.metric(b, a)
        for a, b, c in zip(pts, pts[1:], pts[2:]):
            assert sys_.metric(a, b) <= sys_.metric(a, c) + sys_.metric(c, b) + 1e-15


def test_bowen_distance_triangle_on_circle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        w = sample_word(uniform_spec(2), k + 2, substream(int(rng.integers(2**31))))
        x, y, z = (float(rng.random()) for _ in range(3))
        dxy = bowen_distance(CIRCLE, w, k, x, y)
        assert dxy == bowen_distance(CIRCLE, w, k, y, x)
        assert dxy <= (
            bowen_distance(CIRCLE, w, k, x, z)
            + bowen_distance(CIRCLE, w, k, z, y)
            + 1e-12
        )


def test_mu_sampler_draws_n_points_as_n_single_draws():
    for sys_ in (BIN, CIRCLE, torus_affine()):
        a, b = np.random.default_rng(12), np.random.default_rng(12)
        pts = sys_.mu_sampler(a, 5)
        assert type(pts) is list and len(pts) == 5
        assert pts == [sys_.mu_sampler(b, 1)[0] for _ in range(5)]
        assert a.bit_generator.state == b.bit_generator.state
    c = np.random.default_rng(12)
    assert CIRCLE.mu_sampler(np.random.default_rng(12), 5) == [float(c.random()) for _ in range(5)]


def test_make_system_registry():
    assert make_system("circle-double-rotate").name == "circle-double-rotate"
    assert make_system("binary-shift-odometer", depth=10).mu_sampler(
        substream(0), 1
    )[0].depth == 10
    assert make_system("torus-affine", constants=(0.1, 0.2, 0.3)).m == 3
    with pytest.raises(SystemUnknown):
        make_system("no-such-system")
