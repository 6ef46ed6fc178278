"""Symbol-space primitives: finite words, Bernoulli sampling, and the
digit expansion of alphabet {1..m**t} into {1..m}.

Symbols are 1-based throughout.  A word stores a finite prefix of an
infinite symbol sequence; the empty word denotes the identity
composition.  A symbol j in {1..m**t} of a power system stands for the
t digits (i_1..i_t) over {1..m}, little-endian base m:

    j - 1 = sum_{s=1..t} (i_s - 1) * m**(s-1)

The power system applies the digit maps in that order, first digit
first; the word and power-system tests pin the digit order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch


@dataclass(frozen=True)
class SymbolWord:
    """Finite prefix of a one-sided symbol sequence over {1..m}."""

    symbols: tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.m}")
        syms = self.symbols
        if syms and not (1 <= min(syms) and max(syms) <= self.m):
            bad = next(s for s in syms if not 1 <= s <= self.m)
            raise ValueError(f"symbol {bad} outside alphabet 1..{self.m}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def __iter__(self):
        return iter(self.symbols)


def word(symbols, m: int) -> SymbolWord:
    """Convenience constructor accepting any iterable of symbols."""
    return SymbolWord(tuple(int(s) for s in symbols), m)


@dataclass(frozen=True)
class BernoulliSpec:
    """Probability weights (p_1..p_m) of the Bernoulli measure on symbols."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("need at least one weight")
        if not all(0.0 < w < math.inf for w in self.weights):
            raise ValueError("all weights must be finite and > 0")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1 within 1e-12")

    @property
    def m(self) -> int:
        return len(self.weights)


def uniform_spec(m: int) -> BernoulliSpec:
    return BernoulliSpec(tuple(1.0 / m for _ in range(m)))


def sample_symbols(spec: BernoulliSpec, length: int, rng: np.random.Generator) -> np.ndarray:
    """Draw length i.i.d. symbols, P(symbol = i) = p_i, as an int8 array
    (int32 past 127 symbols); one symbol, or length 0, draws nothing.

    Deterministic given the generator state; callers wanting
    schedule-independent results should pass a per-task substream.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if spec.m == 1 or length == 0:
        return np.ones(length, dtype=np.int8)
    draws = rng.choice(spec.m, size=length, p=spec.weights)
    return (draws + 1).astype(np.int8 if spec.m < 128 else np.int32)


def sample_word(spec: BernoulliSpec, length: int, rng: np.random.Generator) -> SymbolWord:
    """The word of sample_symbols(spec, length, rng)."""
    return SymbolWord(tuple(sample_symbols(spec, length, rng).tolist()), spec.m)


def symbol_digits(j: int, m: int, t: int) -> tuple[int, ...]:
    """Digits (i_1..i_t) over {1..m} of a symbol j in {1..m**t}."""
    if not 1 <= j <= m ** t:
        raise AlphabetMismatch(f"symbol {j} outside 1..{m ** t}")
    v = j - 1
    digits = []
    for _ in range(t):
        digits.append(v % m + 1)
        v //= m
    return tuple(digits)


def power_weights(spec: BernoulliSpec, t: int) -> BernoulliSpec:
    """Induced weights on {1..m**t}: weight of j is the product of its digits'."""
    if t < 1:
        raise ValueError("t must be >= 1")
    m = spec.m
    out = []
    for j in range(1, m ** t + 1):
        p = 1.0
        for d in symbol_digits(j, m, t):
            p *= spec.weights[d - 1]
        out.append(p)
    return BernoulliSpec(tuple(out))
