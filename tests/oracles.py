"""Reference implementations the tests check the package against, and
reads of the estimators at one horizon.

The Bowen-ball oracle of the binary backend (Cylinder, exact_bowen_ball,
all_points) and the power-word digit expansion (power_word_map) build
their answers independently of the estimators; orbit_windows_loop is
binary.orbit_windows stepping each word's carry in a Python loop, and
odometer_undecided binary.window_stage's odometer check point by point.
net and ball_measure read one (k, word) cell straight from the counting
kernel; doubling_ratio and corr_integral read a one-horizon series.
generic_system strips a system down to the generic pairwise loop.
ExactCylinderMeasure is the reference for binary.ball_measure: a sample
of points whose ball measures are all the cylinder measure, which
cylinder_cell_measures hands to the estimators as they took it before
they read binary.ball_measure.
orbit_pair_counts counts correlation_sum's driving-word orbits with one
walk per orbit, along sample_word's words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import partial

import numpy as np

from fsgentropy import binary, estimators
from fsgentropy.binary import BinaryPoint, prefix_length_for, random_points, s_count
from fsgentropy.errors import AlphabetMismatch, DepthExhausted, InvalidEpsilon
from fsgentropy.seeding import UPSILON, substream
from fsgentropy.words import SymbolWord, sample_word, symbol_digits, uniform_spec


def generic_system(sys_):
    """The generic pairwise oracle: sys_ with every optional fast-path
    capability (ball_key, window_ops, array_ops, ...) stripped."""
    return replace(sys_, **{f.name: None for f in fields(sys_) if f.default is None})


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


@dataclass(frozen=True)
class ExactCylinderMeasure:
    """Closed-form stand-in for an empirical measure on this backend.

    Ball measures are evaluated exactly as 2**(-(L(eps) + s)), where
    L(eps) is the cylinder length resolved by eps, and as 1.0, the whole
    space, when L(eps) = 0; they do not depend on the center.  Sample
    points are still carried so the object is a drop-in replacement
    wherever an empirical measure is expected.
    """

    points: tuple[BinaryPoint, ...]

    @classmethod
    def draw(cls, depth: int, n_points: int, rng: np.random.Generator):
        return cls(tuple(random_points(depth, n_points, rng)))

    def ball_measures(self, sys, omega, k, eps) -> np.ndarray:
        level, shifts = prefix_length_for(eps), s_count(omega, k)
        return np.full(len(self.points), 2.0 ** (-(level + shifts)) if level else 1.0)


def cylinder_cell_measures(measure, sys, eps, cells, reduce=lambda m: m, center=None) -> list:
    """estimators._cell_measures for an ExactCylinderMeasure: reduce(its
    ball measures at every sample point, or at the point of index center
    alone) of every (k, word) cell."""
    at = slice(None) if center is None else center
    return [reduce(np.asarray(measure.ball_measures(sys, w, k, eps), float)[at]) for k, w in cells]


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


def orbit_windows_loop(x: BinaryPoint, words, n: int):
    """binary.orbit_windows as a loop over each word's carry: windows of
    the first n orbit points of x along each symbol word (1 shift, 2
    odometer; at least n - 1 symbols), one (win, depth) pair of length-n
    arrays per word.

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
    nbytes = (x.depth + 7) // 8 + binary.WINDOW_BITS // 8
    bits = np.unpackbits(
        np.frombuffer(x.value.to_bytes(nbytes, "little"), dtype=np.uint8),
        bitorder="little",
    )
    spans = np.lib.stride_tricks.sliding_window_view(bits, binary.WINDOW_BITS)[: most + 1]
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
        width = np.minimum(depth[:-1][odometer], binary.WINDOW_BITS)
        if binary._carry_may_leave(win[:-1][odometer], width):
            return None
        out.append((win, depth))
    return out


def odometer_undecided(wins, eps, state) -> bool:
    """Whether binary.window_stage returns None at an odometer after
    state, decided point by point: some window's + 1 could carry out of
    its own low min(depth, 64) - shifts bits, or the windows cannot hold
    the key at the stage."""
    win, shifts = state[:2]
    depth = wins[1]
    edge = binary._low_masks()[np.minimum(depth, binary.WINDOW_BITS) - shifts]
    level = binary.prefix_length_for(eps)
    return (
        bool(np.any(win & edge == edge))
        or level + shifts > binary.WINDOW_BITS
        or int(depth.min()) < max(level + shifts, shifts + 1)
    )


def orbit_pair_counts(sys, x, n, m_upsilon, seed, eps, cells, blocks):
    """The Bowen-close pairs of correlation_sum's driving-word orbits, as
    [cell, orbit, block, block], with one walk per orbit: the orbits of
    x along the words sample_word draws from substream(seed, UPSILON, j),
    built all at once as windows (each orbit a point set of its own
    slice) or else as points, raising where the maps raise, and counted
    one _count_cells call each, in orbit order, so the first failing
    orbit raises."""
    words = [
        sample_word(uniform_spec(sys.m), n - 1, substream(seed, UPSILON, j)).symbols
        for j in range(m_upsilon)
    ]
    maps = sys.maps

    def points(syms):
        return list(itertools.accumulate(syms, lambda p, s: maps[s - 1](p), initial=x))

    wins = None if sys.window_ops is None else sys.window_ops.orbit_windows(x, words, n)
    if wins is None:
        orbits = [estimators._PointSet(None, points(syms)) for syms in words]
    else:
        orbits = [
            estimators._PointSet(tuple(w[j * n:(j + 1) * n] for w in wins),
                                 make=partial(points, syms))
            for j, syms in enumerate(words)
        ]
    return np.concatenate([
        np.stack(estimators._count_cells(sys, orbit, eps, cells, "pairs", blocks=blocks))
        for orbit in orbits
    ], axis=1)
