"""Free-semigroup dynamics over an opaque point space.

A GeneratorSystem bundles m continuous self-maps together with the
metric, a declared diameter bound and a sampler for the reference
measure, so every estimator stays system-agnostic.  Words index
compositions: along omega = (i_1, i_2, ...) the n-step map applies
f_{i_1} first and f_{i_n} last, with n = 0 the identity.

Systems may advertise four optional fast-path capabilities:

* ball_key(point, eps): a hashable key with d(x, y) <= eps exactly when
  the keys are equal.  Valid for ultrametric systems whose eps-balls
  partition the space (the binary backend and its power systems); the
  estimators fold the stage keys along a word into one integer Bowen
  label per point, so pair and ball counting run in linear time.
* window_ops: the same stage keys for a whole point set at once on
  uint64 windows (the binary backend and its power systems), one stage
  at a time, keys only where the estimators pack them.  A stage returns
  None when it cannot decide every point, and the estimators then use
  ball_key from that stage on, which raises where the point maps raise.
  Binary cylinders read whole prefixes at once (not on power systems).
* array_ops: vectorised point array conversion, generator application
  and a center-by-sample threshold test (read only by the benchmark's
  tracer), for scalar systems (the circle family).
* pair_ops: Bowen pairs on the arc metric of R/Z (the circle family
  and its power systems).  bands reads, from one sorted copy of a point
  array, each row's partners within a sure radius and out to an outer
  one, wrap-around included, so only the thin band between the two
  needs the exact test, close, which keeps a pair exactly when the
  metric would.  Each generator declares its integer slope: it maps
  x to slope x + c mod 1.  Below eps < 1/(1 + largest slope), the Bowen
  ball of a point along a word is then the arc of radius eps / (the
  product of the word's slopes), so the estimators count it from the
  sorted array and test only the band's pairs along the word; at
  larger radii they filter the pairs within eps stage by stage.
  pair_ops needs array_ops for the stage arrays.

Estimators fall back to the generic pairwise path when none is present;
all paths agree exactly and the tests check that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

from . import binary
from .errors import AlphabetOverflow, KZero, SystemUnknown, WordTooShort
from .words import SymbolWord, symbol_digits

Point = Any

# Irrational rotation angle used by the default circle system: the
# golden-ratio conjugate (sqrt(5) - 1) / 2.
GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0

# Largest supported power-system alphabet.
MAX_ALPHABET = 1 << 20


@dataclass(frozen=True)
class ArrayOps:
    """Vectorised operations over a whole sample of points at once;
    `within` has no caller but the benchmark's tracer, which wraps it."""

    to_array: Callable[[Sequence[Point]], np.ndarray]
    apply: Callable[[int, np.ndarray], np.ndarray]  # 1-based generator index
    within: Callable[[np.ndarray, np.ndarray, float], np.ndarray]  # bool (n, m)


@dataclass(frozen=True)
class WindowOps:
    """Bowen stage keys over a whole point set on uint64 windows."""

    to_windows: Callable[[Sequence[Point]], Any]
    # (x, driving words, n) -> one window form of all the orbits, orbit o
    # at o * n, or None
    orbit_windows: Callable[[Point, Sequence[Sequence[int]], int], Optional[tuple]]
    # (window form, eps, previous stage's state or None, symbol) -> next state or None
    stage: Callable[[Any, float, Any, int], Any]
    key: Callable[[Any, float], tuple]  # (state, eps) -> uint64 ball keys, bit width
    # (window form, eps, symbols, memo dict) -> the bit width w of every
    # point's key of its Bowen ball along the symbols, the low w bits of
    # its window, or None: walk the stages
    cylinder: Optional[Callable[[Any, float, Sequence[int], dict], Optional[int]]] = None


@dataclass(frozen=True)
class PairOps:
    """Bowen pairs over a point array of the arc metric of R/Z."""

    # (sorted array, sure radius, outer radius) -> four (start, stop) row
    # ranges per sorted row a, of partners b > a: two whose pairs lie
    # within the sure radius, then two out to the outer radius
    bands: Callable[[np.ndarray, float, float], tuple]
    close: Callable[..., np.ndarray]  # (a, b, eps, out=None): bool; distances into out
    slopes: tuple[int, ...]  # generator j maps x to slopes[j - 1] x + c mod 1
    # bound on what one generator's rounding adds to the computed distance
    # of two points of [0, 1], per unit of the slope product from it on
    rounding: float


@dataclass(frozen=True)
class GeneratorSystem:
    name: str
    maps: tuple[Callable[[Point], Point], ...]
    metric: Callable[[Point, Point], float]
    diameter: float
    mu_sampler: Callable[[np.random.Generator, int], list]  # (rng, n) -> n points
    ball_key: Optional[Callable[[Point, float], Hashable]] = None
    array_ops: Optional[ArrayOps] = None
    window_ops: Optional[WindowOps] = None
    pair_ops: Optional[PairOps] = None
    # generators that keep every distance (hashable: memo keys), each
    # commuting with every generator up to an isometry on every Bowen ball
    # (binary: shift(x + 1) = shift(x) + x_1); the label walk packs no
    # key for them; read only with ball_key
    isometries: frozenset = frozenset()

    @property
    def m(self) -> int:
        return len(self.maps)


def apply_word(sys: GeneratorSystem, w: SymbolWord, n: int, x: Point) -> Point:
    """n-step composition along w applied to x; n = 0 returns x."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > len(w):
        raise WordTooShort(f"need {n} symbols, have {len(w)}")
    maps = sys.maps
    for i in range(n):
        x = maps[w.symbols[i] - 1](x)
    return x


def bowen_distance(
    sys: GeneratorSystem, omega: SymbolWord, k: int, x: Point, y: Point
) -> float:
    """Max over the first k stages of the distance between the orbits of
    x and y along omega; k = 1 reduces to the plain metric.  The stages
    stop once the distance reaches the declared diameter, which no later
    stage can exceed, so maps past that stage are never applied and
    cannot raise."""
    if k < 1:
        raise KZero(f"k must be >= 1, got {k}")
    if len(omega.symbols) < k - 1:
        raise WordTooShort(f"need {k - 1} symbols, have {len(omega)}")
    maps = sys.maps
    metric = sys.metric
    top = sys.diameter
    best = metric(x, y)
    for s in omega.symbols[: k - 1]:
        if best >= top:
            break
        f = maps[s - 1]
        x = f(x)
        y = f(y)
        d = metric(x, y)
        if d > best:
            best = d
    return best


def build_power_system(sys: GeneratorSystem, t: int) -> GeneratorSystem:
    """System generated by all t-fold compositions of the base maps.

    Generator j applies the digit maps of j in order: first digit first.
    Points, metric, diameter, sampler and ball_key carry over unchanged
    (same space, same measure); array_ops and window_ops apply j digit
    by digit (a window stage is None if a digit's is, and orbit windows
    keep every t-th point of the base orbit along the digits).  j's
    slope in pair_ops is the product of its digits' slopes, and its
    rounding t times the base's, as each digit's rounding is scaled by
    at most the slopes from it on.
    It declares no isometries, which only ball_key systems read: there
    shift(shift(x + 2)) = shift(shift(x)) + x_2 does not commute on a
    ball of radius 1/2.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if sys.m ** t > MAX_ALPHABET:
        raise AlphabetOverflow(f"{sys.m}**{t} generators exceed {MAX_ALPHABET}")
    if t == 1:
        return sys

    def composed(digits):
        fns = tuple(sys.maps[d - 1] for d in digits)

        def g(x, _fns=fns):
            for f in _fns:
                x = f(x)
            return x

        return g

    digits = [symbol_digits(j, sys.m, t) for j in range(1, sys.m ** t + 1)]
    power_maps = tuple(map(composed, digits))
    base_arr, base_win = sys.array_ops, sys.window_ops

    def apply_arr(j, arr):
        for d in symbol_digits(j, sys.m, t):
            arr = base_arr.apply(d, arr)
        return arr

    def stage(wins, eps, state=None, j=1):
        if state is None:
            return base_win.stage(wins, eps)
        for d in digits[j - 1]:
            state = state and base_win.stage(wins, eps, state, d)
        return state

    def orbits(x, words, n):
        table = np.array(digits)
        base = [table[np.asarray(w[:n - 1], dtype=np.intp) - 1].ravel() for w in words]
        got = base_win.orbit_windows(x, base, t * (n - 1) + 1)
        return got and tuple(a.reshape(-1, t * (n - 1) + 1)[:, ::t].ravel() for a in got)

    array_ops = base_arr and ArrayOps(base_arr.to_array, apply_arr, base_arr.within)
    pair_ops = sys.pair_ops and replace(
        sys.pair_ops, rounding=t * sys.pair_ops.rounding,
        slopes=tuple(math.prod(sys.pair_ops.slopes[d - 1] for d in ds) for ds in digits),
    )
    window_ops = base_win and WindowOps(base_win.to_windows, orbits, stage, base_win.key)
    return replace(
        sys, name=f"{sys.name}-power{t}", maps=power_maps, array_ops=array_ops,
        window_ops=window_ops, pair_ops=pair_ops, isometries=frozenset(),
    )


# ---------------------------------------------------------------------------
# Built-in systems


def binary_shift_odometer(depth: int = 64) -> GeneratorSystem:
    """Shift and odometer on truncated binary sequences with the fair
    product measure.  `depth` is the truncation of sampled points; the
    CLI's rule (README "Truncation depths") reads resolution + horizon
    (+ orbit length when driving orbits) coordinates and adds
    cli.DEPTH_HEADROOM = 40 more, as a thin margin leaves the odometer's
    carries little room.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return GeneratorSystem(
        name="binary-shift-odometer",
        maps=(binary.drop_head, binary.add_one),
        metric=binary.distance,
        diameter=1.0,
        mu_sampler=lambda rng, n: binary.random_points(depth, n, rng),
        ball_key=binary.ball_key,
        window_ops=WindowOps(
            binary.to_windows, binary.orbit_windows, binary.window_stage, binary.window_key,
            binary.cylinder_width,
        ),
        isometries=frozenset({2}),  # the odometer: + 1 keeps every common prefix
    )


def _circle_metric(x: float, y: float) -> float:
    d = abs(x - y)
    return min(d, 1.0 - d)


def _circle_within(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    return _circle_close(a[:, None], b[None, :], eps)


def _circle_close(a: np.ndarray, b: np.ndarray, eps: float, out=None) -> np.ndarray:
    d = np.subtract(a, b, out=out)
    np.abs(d, out=d)
    return np.minimum(d, 1.0 - d, out=d) <= eps


def _circle_bands(v: np.ndarray, sure: float, outer: float) -> tuple:
    """The partners b > a of every row a of the sorted array v, as four
    (start, stop) row ranges per row: two sure ones, of partners whose
    arc distance lies within sure by the sweep keys, then two out to
    outer, by the keys too.  In each pair, the first range is near,
    rows up to v + r, and the second wraps around, rows from v + 1 - r;
    where the outer ones meet, all rows between the sure ones are out
    to outer.  The keys v + r round, so callers keep the radii clear of
    what they decide by a margin above that rounding."""
    n = len(v)
    row = np.arange(n)
    sure_near = np.maximum(np.searchsorted(v, v + sure, side="right"), row + 1)
    sure_wrap = np.searchsorted(v, v + (1.0 - sure))
    if outer < 0.5:
        near = np.searchsorted(v, v + outer, side="right")
        wrap = np.maximum(np.searchsorted(v, v + (1.0 - outer)), near)
    else:  # the bands meet: one outer band between the sure ones
        near = wrap = np.maximum(sure_wrap, sure_near)
    sure_near, sure_wrap = np.minimum(sure_near, near), np.maximum(sure_wrap, wrap)
    return (row + 1, sure_near), (sure_wrap, np.full(n, n)), (sure_near, near), (wrap, sure_wrap)


def _circle_array(pts) -> np.ndarray:
    return np.asarray(pts, dtype=float)


def _circle_system(name, maps, apply_arr, slopes, offsets):
    """maps x -> slopes[j] x + offsets[j] mod 1 on the unit circle, with
    Lebesgue measure, the arc metric and the circle family's array and
    pair paths; apply_arr(j, arr) applies map j to a point array.
    fl(fl(slope x) + c) % 1.0 moves a point of [0, 1] by 2 slope + |c| +
    1 half-ulps of 1 at most (the % rounds only 1.0 plus a negative
    remainder): the pair rounding is twice that."""
    rounding = max((2 * s + abs(c) + 1) * 2.0**-52 for s, c in zip(slopes, offsets))
    return GeneratorSystem(
        name=name,
        maps=maps,
        metric=_circle_metric,
        diameter=0.5,
        mu_sampler=lambda rng, n: rng.random(n).tolist(),
        array_ops=ArrayOps(_circle_array, apply_arr, _circle_within),
        pair_ops=PairOps(_circle_bands, _circle_close, slopes, rounding),
    )


def circle_double_rotate(alpha: float = GOLDEN_ROTATION) -> GeneratorSystem:
    """Doubling map and rotation by alpha on the unit circle with
    Lebesgue measure and the arc metric."""
    maps = (lambda x: (2.0 * x) % 1.0, lambda x, _a=alpha: (x + _a) % 1.0)

    def apply_arr(j, arr, _a=alpha):
        return (2.0 * arr) % 1.0 if j == 1 else (arr + _a) % 1.0

    return _circle_system("circle-double-rotate", maps, apply_arr, (2, 1), (0.0, alpha))


def torus_affine(constants: tuple[float, ...] = (0.0, GOLDEN_ROTATION)) -> GeneratorSystem:
    """Affine family x -> 2x + c_i on the circle group, one generator
    per constant; Haar (Lebesgue) measure and the arc metric.  The
    common automorphism makes the Haar measure homogeneous, so all the
    entropy notions estimated here coincide on it."""
    if len(constants) < 1:
        raise ValueError("need at least one constant")
    maps = tuple(
        (lambda x, _c=c: (2.0 * x + _c) % 1.0) for c in constants
    )

    def apply_arr(j, arr, _cs=tuple(constants)):
        return (2.0 * arr + _cs[j - 1]) % 1.0

    return _circle_system("torus-affine", maps, apply_arr, (2,) * len(constants), constants)


BUILTIN_SYSTEMS = {
    "binary-shift-odometer": binary_shift_odometer,
    "circle-double-rotate": circle_double_rotate,
    "torus-affine": torus_affine,
}


def make_system(name: str, **params) -> GeneratorSystem:
    """Construct a built-in system by its registry name."""
    try:
        builder = BUILTIN_SYSTEMS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SYSTEMS))
        raise SystemUnknown(f"unknown system {name!r} (known: {known})") from None
    return builder(**params)
