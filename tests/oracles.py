"""Reference implementations the tests check the package against, and
reads of the estimators at one horizon.

The Bowen-ball oracle of the binary backend (Cylinder, exact_bowen_ball,
all_points) and the power-word digit expansion (power_word_map) build
their answers independently of the estimators.  net and ball_measure
read one (k, word) cell straight from the counting kernel;
doubling_ratio and corr_integral read a one-horizon series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from fsgentropy import estimators
from fsgentropy.binary import BinaryPoint, s_count
from fsgentropy.errors import AlphabetMismatch, DepthExhausted, InvalidEpsilon
from fsgentropy.words import SymbolWord, symbol_digits


def all_points(depth: int, pad: int = 0) -> list[BinaryPoint]:
    """Every prefix of the given depth, optionally zero-padded deeper.

    Padding appends guard zeros so that orbits can be computed without
    carry overflow; the padded point lies in the cylinder of its first
    `depth` coordinates, so any membership decided at cylinder scale is
    unchanged.
    """
    return [BinaryPoint(v, depth + pad) for v in range(1 << depth)]


@dataclass(frozen=True)
class Cylinder:
    """Set of sequences sharing a fixed prefix, anchored at coordinate 1."""

    word: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.word):
            raise ValueError("cylinder word must be 0/1")

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def measure(self) -> Fraction:
        """Exact fair-coin measure 2**(-length); length 0 is the whole space."""
        return Fraction(1, 2 ** self.length)

    def contains(self, x: BinaryPoint) -> bool:
        if x.depth < self.length:
            raise DepthExhausted(
                f"cylinder length {self.length} exceeds point depth {x.depth}"
            )
        mask = (1 << self.length) - 1
        return (x.value & mask) == self._value()

    def _value(self) -> int:
        v = 0
        for i, b in enumerate(self.word):
            v |= b << i
        return v

    def points(self, depth: int) -> list[BinaryPoint]:
        """All depth-`depth` prefixes lying in this cylinder."""
        if depth < self.length:
            raise DepthExhausted("enumeration depth shorter than the cylinder")
        base = self._value()
        step = 1 << self.length
        return [
            BinaryPoint(base + hi * step, depth)
            for hi in range(1 << (depth - self.length))
        ]


def exact_bowen_ball(omega: SymbolWord, k: int, x: BinaryPoint, t: int) -> Cylinder:
    """Bowen ball of radius 2**(-t) as an explicit cylinder on x's prefix."""
    if t < 1:
        raise InvalidEpsilon(f"dyadic exponent t must be >= 1, got {t}")
    length = t + s_count(omega, k)
    if x.depth < length:
        raise DepthExhausted(f"need {length} coordinates, have {x.depth}")
    return Cylinder(x.bits[:length])


def power_word_map(w: SymbolWord, m: int, t: int) -> SymbolWord:
    """Expand a word over {1..m**t} into its digit word over {1..m}.

    Output length is t * len(w).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if w.m != m ** t:
        raise AlphabetMismatch(f"word alphabet {w.m} is not {m}**{t}")
    out = []
    for j in w:
        out.extend(symbol_digits(j, m, t))
    return SymbolWord(tuple(out), m)


def net(sample, sys, omega, k, eps) -> list:
    """The first-come greedy net of the sample for one cell: a point is
    kept unless it is Bowen-within eps of an already kept one."""
    pset = estimators._as_point_set(sys, sample)
    (kept,) = estimators._count_cells(sys, pset, eps, [(k, omega)], "net")
    return [pset.points[i] for i in kept]


def ball_measure(measure, sys, omega, k, center, eps) -> float:
    """The Bowen eps-ball measure of one cell at one sample point, from
    the kernel's one-centre count."""
    at = estimators._center_index(measure, center)
    return float(estimators._cell_measures(measure, sys, eps, [(k, omega)], center=at)[0])


def corr_integral(measure, sys, eps, k, q, m_omega, seed, weights=None) -> float:
    """The q-order correlation integral c of one horizon, read off the
    row -c/k of a one-horizon corr_entropy_series."""
    (series,) = estimators.corr_entropy_series(
        measure, sys, [eps], [k], q, m_omega, seed, weights
    )
    return -k * series.rows[0][1]


def doubling_ratio(measure, sys, omega, k, eps) -> float:
    """The doubling diagnostic of one horizon and radius: the row of a
    one-horizon doubling_series."""
    (series,) = estimators.doubling_series(measure, sys, omega, [eps], [k])
    return series.rows[0][1]
