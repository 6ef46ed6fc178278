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
the prefixes are identical, known only up to the depth: see distance).
With the non-strict ball rule d <= eps this makes the ball of radius
eps the cylinder on the first L = prefix_length_for(eps) coordinates
(the whole space when eps >= 1, L = 0), which is the convention all
closed-form series here are built on.  Under the fair-coin measure the
cylinder on L coordinates has measure exactly 2**(-L).

For a word omega over {1: shift, 2: odometer} and horizon k, the Bowen
eps-ball with L >= 1 is the cylinder on the first L + s coordinates,
where s counts the shift symbols among the first k-1 letters: each
shift stage sharpens the effective radius by one halving, each odometer
stage (an isometry) leaves it unchanged; with L = 0 it is the whole
space.  ball_measure(eps, omega, k) is this one closed form at every
centre.  Averaged over fair words, it gives every entropy series as
(L + (k-1)/2) * log 2 / k (0 when L = 0), with limit (log 2) / 2;
exact_series gives the topological, correlation (any q) and
partition-entropy series alike.

Windows
-------
Counting Bowen balls over many points runs on uint64 windows instead of
BinaryPoint objects: a window holds the low 64 bits of a point, next to
its depth.  A stage key at radius 2**(-L) reads only the low L bits, the
shift is `>> 1` (after s shifts the top s bits of the window are no
longer the point's), and the odometer is `+ 1`, whose carry only moves
upward, so a bound on the windows' low bits, carried from stage to
stage, spares an odometer most carry scans.  Orbit windows are built
straight from the starting point: after a shifts and carry c the orbit
point is (x >> a) + c, so every orbit window holds 64 true bits however
deep the orbit runs.
Window functions return None, and the caller takes the exact
BinaryPoint path from that stage on, whenever a window cannot decide a
point the way the exact path would: the key needs more than the bits
left in the window (L + s > 64), a depth is too short for the shifts
and the key, or a carry could reach the depth or the top of the window.
That path raises DepthExhausted and CarryOverflow exactly as before,
and it gives the same keys in the rare cases where a deep point only
looked risky.

cylinder_labels reads a whole prefix at once.  Let D_j sum 2**(shifts
before it) over the odometers among its first j letters, s_j shifts:
stage j of v is (v + D_j) >> s_j (+1 commutes with the floor), its key
bits s_j .. s_j + L - 1 of v + D_j, and a shift's key adds bit s_j + L
to what agrees before it; so for L >= 1 all keys agree exactly when
v = v' mod 2**(L + s) (at L = 0 they are empty).  The exact path raises
nowhere if every depth is >= max(L + s, s + 1) and v + D < 2**depth
(stage j's +1 overflows exactly at v + D_(j+1) >= 2**depth): true if D
<= 2**min(depth, 64) - 1 - win for every window (exact to depth 64).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (
    AlphabetMismatch,
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


class _AtMost(float):
    """0.0 for two equal prefixes of one depth, whose distance is only
    known to be at most 2**-depth: compared with a smaller radius it
    raises DepthExhausted, as ball_key does; two compare by bound, so a
    max over Bowen stages keeps the loosest."""

    def __gt__(self, eps):
        if isinstance(eps, _AtMost):
            return self.depth < eps.depth
        if eps < 2.0 ** -self.depth:
            raise DepthExhausted(f"points agree on all {self.depth} coordinates")
        return False

    def __le__(self, eps):
        return not self > eps


def distance(x: BinaryPoint, y: BinaryPoint) -> float:
    """2**(-number of leading coordinates on which x and y agree).

    Raises DepthExhausted when the prefixes agree on their whole common
    range but have different depths: the true distance would depend on
    coordinates outside the truncation.  Two equal prefixes of one depth
    give a 0.0 that raises where a comparison needs more (_AtMost).
    """
    w = x.value ^ y.value
    if w == 0:
        if x.depth != y.depth:
            raise DepthExhausted("points agree on the shorter prefix")
        d = _AtMost()
        d.depth = x.depth
        return d
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
    # exact: frexp gives 2**(e-1) <= eps < 2**e, subnormals included
    return 0 if eps >= 1.0 else 1 - math.frexp(eps)[1]


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
    return random_points(depth, 1, rng)[0]


def random_points(depth: int, n: int, rng: np.random.Generator) -> list[BinaryPoint]:
    """n random_point draws from one generator call: each point takes the
    ceil(depth / 32) little-endian uint32 words that rng.bytes would."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    step = 4 * ((depth + 31) // 32)
    raw = rng.integers(0, 2**32, size=n * step // 4, dtype=np.uint32).astype("<u4").tobytes()
    mask = (1 << depth) - 1
    return [BinaryPoint(int.from_bytes(raw[i:i + step], "little") & mask, depth)
            for i in range(0, len(raw), step)]


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
    """Whether +1 could carry out of some window's low `width` bits (one or each)."""
    edge = _low_masks()[width]
    return bool(np.any(win & edge == edge))


def orbit_windows(x: BinaryPoint, words, n: int):
    """Windows of the first n orbit points of x along each symbol word
    (1 shift, 2 odometer; at least n - 1 symbols), one (win, depth) pair
    of arrays of len(words) * n, orbit o at [o * n, (o + 1) * n).

    An odometer after a shifts adds 2**a at the scale of x, and a shift
    floors, so with run[a] odometers between shifts a and a + 1 and
    D = sum(run[a] * 2**a), the orbit point after a shifts, before that
    level's odometers, is ((x + D) >> a) - sum(run[b] * 2**(b - a), b >= a).
    Both terms are the windows at a of a bit row, bit a of x + D and
    run[a], so the low 64 bits of the difference are the windows of
    their difference, which six shifted adds give for every a at once
    (mod 2**64); the level's odometers so far add to that.  Returns None
    when some orbit would run out of depth or some odometer step could
    carry out of its window.
    """
    words = [np.asarray(syms[: n - 1], dtype=np.int8) for syms in words]
    if max((np.count_nonzero(syms == 1) for syms in words), default=0) > x.depth - 1:
        return None
    win = np.empty(len(words) * n, dtype=np.uint64)
    depth = np.empty(len(words) * n, dtype=np.int64)
    for o, syms in enumerate(words):
        odometer = syms == 2
        shifts = np.concatenate(([0], np.cumsum(~odometer)))
        run = np.bincount(shifts[:-1][odometer], minlength=shifts[-1] + 1)
        d = sum(  # D from the bit planes of run
            int.from_bytes(np.packbits(run >> p & 1, bitorder="little").tobytes(), "little") << p
            for p in range(int(run.max()).bit_length())
        )
        y = x.value + d
        nbytes = (max(y.bit_length(), len(run)) + 7) // 8 + WINDOW_BITS // 8
        w = np.unpackbits(np.frombuffer(y.to_bytes(nbytes, "little"), np.uint8), bitorder="little")
        w = w.astype(np.uint64)
        w[: len(run)] -= run.astype(np.uint64)
        for b in (1, 2, 4, 8, 16, 32):
            w = w[:-b] + (w[b:] << np.uint64(b))
        # odometers since the point's level began
        since = np.arange(n) - shifts - (np.cumsum(run) - run)[shifts]
        at = slice(o * n, (o + 1) * n)
        np.add(w[shifts], since.astype(np.uint64), out=win[at])
        np.subtract(x.depth, shifts, out=depth[at])
        if x.depth - shifts[-1] >= WINDOW_BITS:  # every carry runs through 64 bits
            if np.any((win[at][:-1] == _low_masks()[WINDOW_BITS]) & odometer):
                return None
        elif _carry_may_leave(win[at][:-1][odometer],
                              np.minimum(depth[at][:-1][odometer], WINDOW_BITS)):
            return None
    return win, depth


def _low_max(win, width: int) -> int:
    """The largest low `width` bits of any window: one full-array carry scan."""
    return int((win & _low_masks()[width]).max())


def window_stage(wins, eps: float, state=None, sym: int = 1):
    """One Bowen stage of a window form at a time: the stage-0 state when
    state is None, else that of the stage after state along sym (1 shift,
    2 odometer), whose keys window_key reads; None when some window
    cannot decide the stage (see the module docstring), and a stage after
    a None is never asked for.  With one width for all windows, the state
    bounds their low reach - shifts bits (None: unknown): a shift halves
    the bound exactly, an odometer adds one, and it scans the windows for
    a carry only while the bound allows one.
    """
    win, depth = wins
    if state is None:
        reach = np.minimum(depth, WINDOW_BITS)  # the bits a carry may run through
        if len(reach) and reach.min() == reach.max():
            reach = int(reach[0])  # one width, one mask
        state = (win, 0, int(depth.min()) if len(depth) else WINDOW_BITS + 1, reach, None)
    else:
        win, shifts, lowest, reach, bound = state
        if sym == 1:
            state = (win >> _ONE, shifts + 1, lowest, reach, bound and bound >> 1)
        elif isinstance(reach, int):  # less the shifted-in top
            edge = (1 << (reach - shifts)) - 1
            if bound is None or bound >= edge:
                bound = _low_max(win, reach - shifts)
            if bound == edge:
                return None
            state = (win + _ONE, shifts, lowest, reach, bound + 1)
        elif _carry_may_leave(win, reach - shifts):
            return None
        else:
            state = (win + _ONE, shifts, lowest, reach, None)
    level = prefix_length_for(eps)
    _, shifts, lowest, _, _ = state
    if level + shifts > WINDOW_BITS or lowest < max(level + shifts, shifts + 1):
        return None
    return state


def window_key(state, eps: float):
    """The uint64 ball keys of a window_stage state at eps and their bit
    width: two points are within eps at the stage exactly when keys agree."""
    return state[0] & _low_masks()[prefix_length_for(eps)], prefix_length_for(eps)


def cylinder_labels(wins, eps: float, syms, head: dict):
    """Every window's key of its Bowen eps-ball along syms (1 shift, 2
    odometer), its low L + s bits (none at L = 0), and their width; None
    unless the exact path raises nowhere.  head memoises depth and room."""
    win, depth = wins
    if not head:
        head["lowest"] = lowest = int(depth.min(initial=np.iinfo(np.int64).max))
        top = _low_masks()[np.minimum(depth, WINDOW_BITS) if lowest < WINDOW_BITS else -1]
        head["room"] = int((top ^ win).min(initial=_WINDOW_MASK))
    shifts, carry = syms.count(1), sum(1 << syms[:i].count(1) for i, s in enumerate(syms) if s == 2)
    width = prefix_length_for(eps) and prefix_length_for(eps) + shifts
    if width > WINDOW_BITS or head["lowest"] < max(width, shifts + 1) or carry > head["room"]:
        return None
    return win & _low_masks()[width], width


def s_count(omega: SymbolWord, k: int) -> int:
    """Number of shift symbols (value 1) among the first k-1 letters,
    each of which must name one of the two maps."""
    if k < 1:
        raise KZero(f"k must be >= 1, got {k}")
    if len(omega) < k - 1:
        raise WordTooShort(f"need {k - 1} symbols, have {len(omega)}")
    syms = omega.symbols[: k - 1]
    if max(syms, default=1) > 2:
        raise AlphabetMismatch("word symbols exceed the 2 maps of binary-shift-odometer")
    return syms.count(1)


def ball_measure(eps: float, omega: SymbolWord, k: int) -> float:
    """The fair-coin measure of the Bowen eps-ball along omega at horizon
    k, at every centre, the backend's one closed form of a ball measure:
    the cylinder on L + s_count(omega, k) coordinates, with L =
    prefix_length_for(eps), or the whole space when L = 0."""
    level, shifts = prefix_length_for(eps), s_count(omega, k)
    return 2.0 ** -(level + shifts) if level else 1.0


EXACT_FLAVOURS = ("top", "corr", "measure")


def exact_series(
    flavour: str, t: int, k_max: int, q: float = 2.0, power: int = 1, shift_weight: float = 0.5
) -> EntropySeries:
    """Rows (k, (t + s) * log 2 / k), k = 1..k_max, for every flavour:
    at a radius eps with prefix_length_for(eps) = t, ball_measure is
    2**-(t + s) at every centre, so q cancels and s is the binomial mean
    shift_weight * power * (k-1) of the shifts among power * (k-1)
    letters; t = 0 (every ball the whole space) gives 0.0 rows.  `power`
    is the composition depth of the acting generators (1 for the base
    pair, p for the p-fold power system whose stage j touches base
    letters up to p*(k-1)).

    "corr" is the correlation-integral series at those radii (epsilon
    2**(-t)), identical for every q, which is kept in its q field so
    emitted results stay self-describing.  "top" is the
    topological-entropy series there: a maximal separated set holds one
    point per Bowen cylinder, so log #E = (t + s) * log 2.  "measure" is
    the partition-entropy series of the partition into cylinders of
    length t (epsilon 0.0): the join of its first k pullbacks along a
    word consists of cylinders of length t + s.  For t >= 1 all share
    the limit shift_weight * power * log 2, (log 2) / 2 for the fair
    base pair.
    """
    if flavour not in EXACT_FLAVOURS:
        raise ValueError(f"flavour must be one of {EXACT_FLAVOURS}, got {flavour!r}")
    if t < 0 or min(k_max, power) < 1:
        raise ValueError("t must be >= 0, k_max and power >= 1")
    rows = [(k, (t + shift_weight * power * (k - 1)) * LOG2 / k if t else 0.0)
            for k in range(1, k_max + 1)]
    return EntropySeries(
        epsilon=0.0 if flavour == "measure" else 2.0 ** (-t),
        rows=rows,
        q=q if flavour == "corr" else None,
        exact=True,
    )
