"""Symbol-space primitives: finite words, Bernoulli sampling, shift,
and the digit re-encoding between alphabets {1..m} and {1..m**t}.

Symbols are 1-based throughout.  A word stores a finite prefix of an
infinite symbol sequence; the empty word denotes the identity
composition.  The re-encoding between a symbol j in {1..m**t} and its
t digits (i_1..i_t) over {1..m} is fixed as little-endian base m:

    j - 1 = sum_{s=1..t} (i_s - 1) * m**(s-1)

The digit order is frozen by round-trip tests; serialisation is
comma-separated 1-based integers, e.g. "1,2,1".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphabetMismatch, StepsExceedLength


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
        if any(w <= 0.0 for w in self.weights):
            raise ValueError("all weights must be > 0")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1 within 1e-12")

    @property
    def m(self) -> int:
        return len(self.weights)


def uniform_spec(m: int) -> BernoulliSpec:
    return BernoulliSpec(tuple(1.0 / m for _ in range(m)))


def sample_word(spec: BernoulliSpec, length: int, rng: np.random.Generator) -> SymbolWord:
    """Draw a word of i.i.d. symbols, P(symbol = i) = p_i.

    Deterministic given the generator state; callers wanting
    schedule-independent results should pass a per-task substream.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return SymbolWord((), spec.m)
    if spec.m == 1:
        return SymbolWord((1,) * length, 1)
    draws = rng.choice(spec.m, size=length, p=spec.weights)
    return SymbolWord(tuple((draws + 1).tolist()), spec.m)


def shift(w: SymbolWord, steps: int) -> SymbolWord:
    """Drop the first `steps` symbols (the shift operator iterated)."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps > len(w):
        raise StepsExceedLength(f"cannot shift {len(w)}-symbol word by {steps}")
    return SymbolWord(w.symbols[steps:], w.m)


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


def digits_symbol(digits, m: int) -> int:
    """Inverse of symbol_digits: pack digits over {1..m} into one symbol."""
    v = 0
    for s, d in enumerate(digits):
        if not 1 <= d <= m:
            raise AlphabetMismatch(f"digit {d} outside alphabet 1..{m}")
        v += (d - 1) * m ** s
    return v + 1


def power_word_map(w: SymbolWord, m: int, t: int) -> SymbolWord:
    """Expand a word over {1..m**t} into its digit word over {1..m}.

    Output length is t * len(w); bijective with power_word_unmap.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if w.m != m ** t:
        raise AlphabetMismatch(f"word alphabet {w.m} is not {m}**{t}")
    out = []
    for j in w:
        out.extend(symbol_digits(j, m, t))
    return SymbolWord(tuple(out), m)


def power_word_unmap(w: SymbolWord, t: int) -> SymbolWord:
    """Group a word over {1..m} into blocks of t digits, one symbol each."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(w) % t != 0:
        raise AlphabetMismatch(f"length {len(w)} is not a multiple of t={t}")
    m = w.m
    packed = tuple(
        digits_symbol(w.symbols[i : i + t], m) for i in range(0, len(w), t)
    )
    return SymbolWord(packed, m ** t)


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


def to_text(w: SymbolWord) -> str:
    return ",".join(str(s) for s in w)


def from_text(text: str, m: int) -> SymbolWord:
    text = text.strip()
    if not text:
        return SymbolWord((), m)
    return word((int(p) for p in text.split(",")), m)
