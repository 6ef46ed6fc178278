"""Symbol words, Bernoulli sampling and the power-alphabet digit expansion."""

import numpy as np
import pytest

from fsgentropy.errors import AlphabetMismatch
from fsgentropy.seeding import substream
from fsgentropy.words import (
    BernoulliSpec,
    SymbolWord,
    power_weights,
    sample_word,
    uniform_spec,
    word,
)
from oracles import power_word_map


def test_word_validates_alphabet():
    with pytest.raises(ValueError):
        word((0, 1), 2)
    with pytest.raises(ValueError):
        word((3,), 2)
    with pytest.raises(ValueError):
        SymbolWord((), 0)
    assert len(word((), 5)) == 0


def test_word_error_names_the_first_offending_symbol():
    with pytest.raises(ValueError, match=r"symbol 5 outside alphabet 1\.\.3"):
        word((1, 5, 0, 2), 3)
    with pytest.raises(ValueError, match=r"symbol 0 outside alphabet 1\.\.3"):
        word((2, 0, 7), 3)


def test_sample_word_symbols_are_python_ints_in_range():
    w = sample_word(BernoulliSpec((0.2, 0.3, 0.5)), 500, np.random.default_rng(4))
    assert len(w) == 500 and w.m == 3
    assert all(type(s) is int and 1 <= s <= 3 for s in w.symbols)


def test_bernoulli_spec_validation():
    with pytest.raises(ValueError):
        BernoulliSpec((0.5, 0.5000001))
    with pytest.raises(ValueError):
        BernoulliSpec((1.0, 0.0))
    with pytest.raises(ValueError):
        BernoulliSpec(())
    assert uniform_spec(4).m == 4


def test_sample_word_single_letter_alphabet():
    w = sample_word(BernoulliSpec((1.0,)), 5, substream(0))
    assert w.symbols == (1, 1, 1, 1, 1)


def test_sample_word_zero_length():
    w = sample_word(uniform_spec(2), 0, substream(0))
    assert w.symbols == ()
    assert w.m == 2


def test_sample_word_frequency():
    # fair coin, 10000 draws: observed frequency of symbol 1 within
    # 0.5 +/- 0.02 (a 3-sigma binomial band is ~0.015)
    w = sample_word(uniform_spec(2), 10000, substream(123))
    freq = sum(1 for s in w if s == 1) / len(w)
    assert abs(freq - 0.5) <= 0.02


def test_sample_word_deterministic():
    a = sample_word(uniform_spec(3), 50, substream(9, 1, 4))
    b = sample_word(uniform_spec(3), 50, substream(9, 1, 4))
    c = sample_word(uniform_spec(3), 50, substream(9, 1, 5))
    assert a == b
    assert a != c


def test_power_word_map_identity_at_t1():
    w = word((2, 1, 2), 2)
    assert power_word_map(w, 2, 1) == w


def test_power_word_map_examples():
    # little-endian digits: j - 1 = (i1 - 1) + (i2 - 1) * m
    assert power_word_map(word((1,), 4), 2, 2).symbols == (1, 1)
    assert power_word_map(word((4, 1), 4), 2, 2).symbols == (2, 2, 1, 1)


def test_power_word_map_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        power_word_map(word((1, 2), 3), 2, 2)


def test_power_weights_identity_and_uniform():
    spec = uniform_spec(2)
    assert power_weights(spec, 1) == spec
    assert power_weights(spec, 2).weights == (0.25, 0.25, 0.25, 0.25)


def test_power_weights_skewed():
    # independent oracle: enumerate digit pairs (i1, i2) explicitly
    p = BernoulliSpec((0.3, 0.7))
    expected = []
    for j in range(4):
        i1, i2 = j % 2, j // 2
        expected.append(p.weights[i1] * p.weights[i2])
    got = power_weights(p, 2).weights
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx((0.09, 0.21, 0.21, 0.49), abs=1e-15)


def test_power_weights_sum_to_one():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        raw = rng.random(m) + 0.05
        spec = BernoulliSpec(tuple(raw / raw.sum()))
        for t in range(1, 5):
            if spec.m**t > 700:
                continue
            total = sum(power_weights(spec, t).weights)
            assert abs(total - 1.0) <= 1e-12
