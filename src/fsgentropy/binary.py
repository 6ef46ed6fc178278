"""Closed-form backend: shift and odometer on truncated binary sequences.

Points are finite 0/1 prefixes of one-sided sequences, stored as an
integer whose bit i-1 is coordinate i, plus an explicit depth.  Any
operation that would need a coordinate beyond the depth raises instead
of silently extending; in particular the odometer raises CarryOverflow
on an all-ones prefix (the wrap-around point is a measure-zero case
that sampling never produces, and silent wrapping would corrupt the
brute-force oracles built on these points).

Metric convention
-----------------
d(x, y) = 2**(-L) where L is the number of leading coordinates on which
x and y agree (d = 1 when they differ at the first coordinate, 0 when
the prefixes are identical).  With the non-strict ball rule d <= eps
this makes the ball of radius 2**(-t) exactly the cylinder on the first
t coordinates, which is the convention all closed-form series here are
built on.  Under the fair-coin measure the cylinder on L coordinates
has measure exactly 2**(-L).

For a word omega over {1: shift, 2: odometer} and horizon k, the Bowen
ball of radius 2**(-t) is the cylinder on the first t + s coordinates,
where s counts the shift symbols among the first k-1 letters: each
shift stage sharpens the effective radius by one halving, each odometer
stage (an isometry) leaves it unchanged.  Averaging the cylinder length
over fair words turns every entropy series below into the closed form
(t + (k-1)/2) * log 2 / k, with limit (log 2) / 2.

Windows
-------
Counting Bowen balls over many points runs on uint64 windows instead of
BinaryPoint objects: a window holds the low 64 bits of a point, next to
its depth.  A stage key at radius 2**(-L) reads only the low L bits, the
shift is `>> 1` (after s shifts the top s bits of the window are no
longer the point's), and the odometer is `+ 1`, whose carry only moves
upward.  Orbit windows are built straight from the starting point:
after a shifts and carry c the orbit point is (x >> a) + c, so every
orbit window holds 64 true bits however deep the orbit runs.
Window functions return None, and the caller takes the exact
BinaryPoint path from that stage on, whenever a window cannot decide a
point the way the exact path would: the key needs more than the bits
left in the window (L + s > 64), a depth is too short for the shifts
and the key, or a carry could reach the depth or the top of the window.
That path raises DepthExhausted and CarryOverflow exactly as before,
and it gives the same keys in the rare cases where a deep point only
looked risky.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    CarryOverflow,
    DepthExhausted,
    InvalidEpsilon,
    KZero,
    WordTooShort,
)
from .series import EntropySeries
from .words import SymbolWord

LOG2 = math.log(2.0)


class BinaryPoint:
    """Truncated binary sequence; treat instances as immutable values.

    A plain slotted class rather than a dataclass: these are allocated
    in very hot loops (orbits are one allocation per step).
    """

    __slots__ = ("value", "depth")

    def __init__(self, value: int, depth: int):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if value < 0 or value.bit_length() > depth:
            raise ValueError(f"value {value} does not fit in depth {depth}")
        self.value = value
        self.depth = depth

    @classmethod
    def from_bits(cls, bits) -> "BinaryPoint":
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        v = 0
        for i, b in enumerate(bits):
            v |= b << i
        return cls(v, len(bits))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> i) & 1 for i in range(self.depth))

    def __eq__(self, other):
        return (
            isinstance(other, BinaryPoint)
            and self.value == other.value
            and self.depth == other.depth
        )

    def __hash__(self):
        return hash((self.value, self.depth))

    def __repr__(self):
        shown = self.bits[:16]
        tail = ",.." if self.depth > 16 else ""
        return f"BinaryPoint(({','.join(map(str, shown))}{tail}), depth={self.depth})"


# drop_head and add_one build their result without BinaryPoint.__init__:
# their own checks already give depth >= 1 and 0 <= value < 2**depth.
_new_point = object.__new__


def drop_head(x: BinaryPoint) -> BinaryPoint:
    """Shift: forget the first coordinate.  Depth decreases by one."""
    if x.depth < 2:
        raise DepthExhausted("cannot shift a depth-1 point")
    p = _new_point(BinaryPoint)
    p.value = x.value >> 1
    p.depth = x.depth - 1
    return p


def add_one(x: BinaryPoint) -> BinaryPoint:
    """Odometer: add one with carry at the first coordinate.

    Flips the leading ones to zero and the first zero to one; raises
    CarryOverflow when the prefix is all ones, since the carry would
    leave the truncation.
    """
    w = x.value + 1
    if w.bit_length() > x.depth:
        raise CarryOverflow(f"all-ones prefix of depth {x.depth}")
    p = _new_point(BinaryPoint)
    p.value = w
    p.depth = x.depth
    return p


def distance(x: BinaryPoint, y: BinaryPoint) -> float:
    """2**(-number of leading coordinates on which x and y agree).

    Raises DepthExhausted when the prefixes agree on their whole common
    range but have different depths: the true distance would depend on
    coordinates outside the truncation.
    """
    w = x.value ^ y.value
    if w == 0:
        if x.depth != y.depth:
            raise DepthExhausted("points agree on the shorter prefix")
        return 0.0
    common = (w & -w).bit_length() - 1
    if common >= x.depth or common >= y.depth:
        raise DepthExhausted("first difference lies beyond the shorter prefix")
    return 2.0 ** (-common)


@lru_cache(maxsize=1024)
def prefix_length_for(eps: float) -> int:
    """Smallest L >= 0 with 2**(-L) <= eps.

    Two points are within eps exactly when they agree on their first L
    coordinates, so eps-balls are cylinders of this length.
    """
    if not eps > 0.0:
        raise InvalidEpsilon(f"epsilon must be > 0, got {eps!r}")
    if eps >= 1.0:
        return 0
    level = max(0, math.ceil(-math.log2(eps)))
    while 2.0 ** (-level) > eps:
        level += 1
    while level > 0 and 2.0 ** (-(level - 1)) <= eps:
        level -= 1
    return level


@lru_cache(maxsize=1024)
def _prefix_mask(eps: float) -> int:
    return (1 << prefix_length_for(eps)) - 1


def ball_key(x: BinaryPoint, eps: float):
    """Hashable key with d(x, y) <= eps iff keys are equal."""
    mask = _prefix_mask(eps)
    if mask.bit_length() > x.depth:
        raise DepthExhausted(
            f"need {mask.bit_length()} coordinates, have {x.depth}"
        )
    return x.value & mask


def random_point(depth: int, rng: np.random.Generator) -> BinaryPoint:
    """Draw a point with i.i.d. fair coordinates (the reference measure)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    nbytes = (depth + 7) // 8
    v = int.from_bytes(rng.bytes(nbytes), "little") & ((1 << depth) - 1)
    return BinaryPoint(v, depth)


def all_points(depth: int, pad: int = 0) -> list[BinaryPoint]:
    """Every prefix of the given depth, optionally zero-padded deeper.

    Padding appends guard zeros so that orbits can be computed without
    carry overflow; the padded point lies in the cylinder of its first
    `depth` coordinates, so any membership decided at cylinder scale is
    unchanged.
    """
    return [BinaryPoint(v, depth + pad) for v in range(1 << depth)]


# ---------------------------------------------------------------------------
# uint64 windows (see the module docstring)

WINDOW_BITS = 64
_WINDOW_MASK = (1 << WINDOW_BITS) - 1
_ONE = np.uint64(1)


@lru_cache(maxsize=1)
def _low_masks() -> np.ndarray:
    """_low_masks()[b] has the low b bits set, for b = 0..64."""
    return np.array([(1 << b) - 1 for b in range(WINDOW_BITS + 1)], dtype=np.uint64)


def to_windows(points) -> tuple[np.ndarray, np.ndarray]:
    """Low 64 bits (uint64) and depth (int64) of every point."""
    win = np.array([p.value & _WINDOW_MASK for p in points], dtype=np.uint64)
    depth = np.array([p.depth for p in points], dtype=np.int64)
    return win, depth


def _carry_may_leave(win, width) -> bool:
    """Whether +1 could carry out of the low `width` bits of some window."""
    edge = _low_masks()[width]
    return bool(np.any(win & edge == edge))


def orbit_windows(x: BinaryPoint, words, n: int):
    """Windows of the first n orbit points of x along each symbol word
    (1 shift, 2 odometer; at least n - 1 symbols), one (win, depth)
    pair of length-n arrays per word.

    After a shifts the orbit point is (x >> a) + c, where the carry c
    follows the word: a shift maps c to (bit a of x + c) >> 1, an
    odometer to c + 1, so c only needs working out at the shifts and
    grows by one per odometer in between.  Returns None when some orbit
    would run out of depth or some odometer step could carry out of its
    window.
    """
    words = [tuple(syms[: n - 1]) for syms in words]
    most = max((syms.count(1) for syms in words), default=0)
    if most > x.depth - 1:
        return None
    nbytes = (x.depth + 7) // 8 + WINDOW_BITS // 8
    bits = np.unpackbits(
        np.frombuffer(x.value.to_bytes(nbytes, "little"), dtype=np.uint8),
        bitorder="little",
    )
    spans = np.lib.stride_tricks.sliding_window_view(bits, WINDOW_BITS)[: most + 1]
    x_win = np.packbits(spans, axis=1, bitorder="little").view("<u8")[:, 0]
    bit = bits.tolist()
    out = []
    for syms in words:
        odometer = np.array(syms, dtype=np.int8) == 2
        shifts = np.concatenate(([0], np.cumsum(~odometer)))
        odometers = np.arange(n) - shifts
        # odometer count at each shift; the carry only needs updating there
        at_shift = np.concatenate(([0], odometers[1:][~odometer]))
        c = 0
        after_shift = [0]
        for b, run in zip(bit, np.diff(at_shift).tolist()):
            c = (b + c + run) >> 1
            after_shift.append(c)
        carry = np.array(after_shift)[shifts] + odometers - at_shift[shifts]
        win = x_win[shifts] + carry.astype(np.uint64)
        depth = x.depth - shifts
        width = np.minimum(depth[:-1][odometer], WINDOW_BITS)
        if _carry_may_leave(win[:-1][odometer], width):
            return None
        out.append((win, depth))
    return out


def window_stage(wins, eps: float, state=None, sym: int = 1):
    """One Bowen stage of a window form at a time: the stage-0 state,
    ball keys (uint64, one per window) and their bit width when state is
    None, else those of the stage after state along sym (1 shift, 2
    odometer).  Two points are within eps at a stage exactly when their
    keys agree.  Returns None when some window cannot decide this stage
    (see the module docstring); a stage after one that returned None is
    never asked for.
    """
    win, depth = wins
    if state is None:
        state = (win, 0, int(depth.min()) if len(depth) else WINDOW_BITS + 1)
    else:
        win, shifts, lowest = state
        if sym == 1:
            state = (win >> _ONE, shifts + 1, lowest)
        # the bits a carry may run through: the window, less the shifted-in top
        elif _carry_may_leave(win, np.minimum(depth, WINDOW_BITS) - shifts):
            return None
        else:
            state = (win + _ONE, shifts, lowest)
    level = prefix_length_for(eps)
    _, shifts, lowest = state
    if level + shifts > WINDOW_BITS or lowest < max(level + shifts, shifts + 1):
        return None
    return state, state[0] & _low_masks()[level], level


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

    @property
    def log_measure(self) -> float:
        return -self.length * LOG2

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


def s_count(omega: SymbolWord, k: int) -> int:
    """Number of shift symbols (value 1) among the first k-1 letters."""
    if k < 1:
        raise KZero(f"k must be >= 1, got {k}")
    if len(omega) < k - 1:
        raise WordTooShort(f"need {k - 1} symbols, have {len(omega)}")
    return sum(1 for s in omega.symbols[: k - 1] if s == 1)


def exact_bowen_ball(omega: SymbolWord, k: int, x: BinaryPoint, t: int) -> Cylinder:
    """Bowen ball of radius 2**(-t) as an explicit cylinder on x's prefix."""
    if t < 1:
        raise InvalidEpsilon(f"dyadic exponent t must be >= 1, got {t}")
    length = t + s_count(omega, k)
    if x.depth < length:
        raise DepthExhausted(f"need {length} coordinates, have {x.depth}")
    return Cylinder(x.bits[:length])


def exact_correlation_integral(t: int, k: int, power: int = 1) -> float:
    """Closed-form correlation integral c at radius 2**(-t), any order q.

    The Bowen-ball measure 2**(-(t + s)) does not depend on the center,
    so the q-dependence cancels and the word average reduces to the
    binomial mean of s over power*(k-1) fair letters:

        c = -(t + power*(k-1)/2) * log 2

    `power` is the composition depth of the acting generators (1 for the
    base pair, p for the p-fold power system whose stage j touches base
    letters up to p*(k-1)).
    """
    if t < 1 or k < 1 or power < 1:
        raise ValueError("t, k and power must all be >= 1")
    return -(t + power * (k - 1) / 2.0) * LOG2


def exact_corr_integral_series(
    t: int, k_max: int, q: float = 2.0, power: int = 1
) -> EntropySeries:
    """Rows (k, -c/k) of the exact correlation-integral series.

    Identical for every q (see exact_correlation_integral); q is kept in
    the metadata so emitted results stay self-describing.
    """
    rows = [
        (k, -exact_correlation_integral(t, k, power) / k)
        for k in range(1, k_max + 1)
    ]
    return EntropySeries(
        epsilon=2.0 ** (-t),
        rows=rows,
        kind="exact-corr-integral",
        q=q,
        meta={"t": t, "power": power, "exact": True},
    )


def exact_top_entropy_series(t: int, k_max: int, power: int = 1) -> EntropySeries:
    """Rows of the exact topological-entropy series at radius 2**(-t).

    A maximal separated set holds one point per Bowen cylinder, so
    log #E = (t + s) * log 2 and the word average is the same binomial
    closed form as the correlation series; the common limit is
    (log 2) / 2.
    """
    if t < 1 or k_max < 1:
        raise ValueError("t and k_max must be >= 1")
    rows = [
        (k, (t + power * (k - 1) / 2.0) * LOG2 / k) for k in range(1, k_max + 1)
    ]
    return EntropySeries(
        epsilon=2.0 ** (-t),
        rows=rows,
        kind="exact-top-entropy",
        meta={"t": t, "power": power, "exact": True},
    )


def exact_measure_entropy_series(k_max: int) -> EntropySeries:
    """Rows of the exact partition-entropy series for the two-cell
    partition by the first coordinate.

    The join of the first k pullbacks of that partition along a word
    consists of cylinders of length 1 + s, so the integrand is
    (1 + s) * log 2 and the word average gives (1 + (k-1)/2) * log 2,
    again with limit (log 2) / 2.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rows = [(k, (1 + (k - 1) / 2.0) * LOG2 / k) for k in range(1, k_max + 1)]
    return EntropySeries(
        epsilon=0.0,
        rows=rows,
        kind="exact-measure-entropy",
        meta={"partition": "first-coordinate", "exact": True},
    )


@dataclass(frozen=True)
class ExactCylinderMeasure:
    """Closed-form stand-in for an empirical measure on this backend.

    Ball measures are evaluated exactly as 2**(-(L(eps) + s)), where
    L(eps) is the cylinder length resolved by eps; they do not depend on
    the center.  Sample points are still carried so the object is a
    drop-in replacement wherever an empirical measure is expected.
    """

    points: tuple[BinaryPoint, ...]

    @classmethod
    def draw(cls, depth: int, n_points: int, rng: np.random.Generator):
        return cls(tuple(random_point(depth, rng) for _ in range(n_points)))

    def _measure(self, omega: SymbolWord, k: int, eps: float) -> float:
        level = prefix_length_for(eps)
        return 2.0 ** (-(level + s_count(omega, k)))

    def ball_measure(self, sys, omega, k, center, eps) -> float:
        return self._measure(omega, k, eps)

    def ball_measures(self, sys, omega, k, eps) -> np.ndarray:
        return np.full(len(self.points), self._measure(omega, k, eps))
