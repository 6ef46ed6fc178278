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
* window_ops: the same stage keys computed for a whole point set at
  once on uint64 windows (the binary backend), one stage at a time.  A
  stage returns None when it cannot decide every point, and the
  estimators then use ball_key from that stage on, which raises exactly
  where the point maps raise.
* array_ops: vectorised point array conversion, generator application
  and a center-by-sample threshold test (read only by the benchmark's
  tracer), for scalar systems (the circle family).
* pair_ops: sparse Bowen pair lists on the arc metric of R/Z (the circle
  family and its power systems).  stage0 finds every pair of a point
  array within eps by sorting it once and reading each centre's band of
  eps plus a small margin, wrap-around band included, from the sorted
  order: only the margin's thin edge goes through the exact test, and
  close keeps a pair exactly when the metric would; the estimators
  filter the stage-0 pairs stage by stage down the prefix trie of a
  series' words with close, so no N x N matrix is ever built, and keep
  stage0's sure pairs untested through the maps named in isometries (the
  rotation).  pair_ops needs array_ops for the stage arrays.

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
    # (x, driving words, n) -> one window form per orbit, or None
    orbit_windows: Callable[[Point, Sequence[Sequence[int]], int], Optional[list]]
    # (window form, eps, state of the previous stage or None, symbol)
    # -> (state, uint64 ball keys, their bit width) of the next stage, or None
    stage: Callable[[Any, float, Any, int], Optional[tuple]]


@dataclass(frozen=True)
class PairOps:
    """Sparse pair lists over a point array of a scalar metric space."""

    # (array, eps) -> int32 arrays (i, j), i < j, of every pair within
    # eps, and how many at their head lie within eps - margin (sure pairs)
    stage0: Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray, int]]
    close: Callable[..., np.ndarray]  # (a, b, eps, out=None): bool; distances into out
    # generators mapping [0, 1] into itself isometrically, up to 2**-52 a point
    isometries: frozenset = frozenset()  # hashable: systems are memo keys


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
    Points, metric, diameter, sampler, ball_key, array_ops and pair_ops
    carry over unchanged (same space, same measure), except that j is an
    isometry of pair_ops exactly when all its digits are; window_ops does
    not, so power systems of the binary backend count through ball_key.
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
    array_ops = None
    if sys.array_ops is not None:
        base_ops = sys.array_ops

        def apply_arr(j, arr, _m=sys.m, _t=t, _base=base_ops):
            for d in symbol_digits(j, _m, _t):
                arr = _base.apply(d, arr)
            return arr

        array_ops = ArrayOps(base_ops.to_array, apply_arr, base_ops.within)
    pair_ops = sys.pair_ops and replace(sys.pair_ops, isometries=frozenset(
        j for j, d in enumerate(digits, 1) if sys.pair_ops.isometries.issuperset(d)))
    return replace(
        sys, name=f"{sys.name}-power{t}", maps=power_maps, array_ops=array_ops,
        window_ops=None, pair_ops=pair_ops,
    )


# ---------------------------------------------------------------------------
# Built-in systems


def binary_shift_odometer(depth: int = 64) -> GeneratorSystem:
    """Shift and odometer on truncated binary sequences with the fair
    product measure.  `depth` is the truncation of sampled points; pick
    at least resolution + horizon + 8 for ball estimators, and at least
    orbit length + resolution + horizon + 8 when driving long orbits.
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
        window_ops=WindowOps(binary.to_windows, binary.orbit_windows, binary.window_stage),
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


# Pairs of stage0 candidates handled at once, in stage0 and in the
# estimators' stage filter; bounds every pair-list temporary.
PAIR_CHUNK = 1 << 14

# Slack of the stage0 sweep band per unit of the largest |point|: far
# above the rounding of the metric's float expression, so the candidates
# hold every pair that _circle_close accepts.
PAIR_MARGIN = 1e-9


def _circle_stage0(arr: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Every pair i < j of arr with _circle_close(arr[i], arr[j], eps),
    and how many of them come first with _circle_close(..., eps - margin).

    min(d, 1 - d) <= eps holds exactly when d <= eps or d >= 1 - eps, so
    after one sort the candidates of sorted row a are a near band (a, near)
    and a wrap-around band [wrap, n), both widened by the margin (where
    they meet, every pair is a candidate).  Only their margin parts, within
    two margins of eps or of 1 - eps, go through the exact test; the sure
    parts, kept whole and written first, end a margin short of eps -
    margin, past the sweep keys' rounding.  Each kind of band is read in
    PAIR_CHUNK slices of all rows' bands laid end to end, a candidate's
    row repeated from the band lengths, into two int32 arrays made once.
    """
    n = len(arr)
    order = np.argsort(arr, kind="stable").astype(np.int32)
    v = arr[order]
    margin = PAIR_MARGIN * max(1.0, float(np.abs(v).max(initial=0.0)))
    row = np.arange(n)
    sure_near = np.maximum(np.searchsorted(v, v + (eps - 2 * margin), side="right"), row + 1)
    sure_wrap = np.searchsorted(v, v + (1.0 - eps + 2 * margin))
    if eps + margin < 0.5:
        near = np.searchsorted(v, v + (eps + margin), side="right")
        wrap = np.maximum(np.searchsorted(v, v + (1.0 - eps - margin)), near)
    else:  # the bands meet: one margin band between the sure ones
        near = wrap = np.maximum(sure_wrap, sure_near)
    sure_near, sure_wrap = np.minimum(sure_near, near), np.maximum(sure_wrap, wrap)
    # the bands [first, stop) of every sorted row: two sure, then two margin
    bands = ((row + 1, sure_near), (sure_wrap, n), (sure_near, near), (wrap, sure_wrap))
    sizes = [int((stop - first).sum()) for first, stop in bands]
    out_i, out_j = np.empty((2, sum(sizes)), dtype=np.int32)
    kept = 0
    for band, (first, stop) in enumerate(bands):
        length = stop - first
        ends = np.cumsum(length)
        shift = first - ends + length  # candidate position + shift = its partner
        for lo in range(0, sizes[band], PAIR_CHUNK):
            hi = min(lo + PAIR_CHUNK, sizes[band])
            bot, top = np.searchsorted(ends, (lo, hi - 1), side="right")
            rows = slice(bot, top + 1)
            cut = np.minimum(ends[rows], hi) - np.maximum(ends[rows] - length[rows], lo)
            a = np.repeat(row[rows], cut)
            b = np.arange(lo, hi) + np.repeat(shift[rows], cut)
            if band > 1:  # a margin band: the exact test decides
                hit = _circle_close(v[a], v[b], eps)
                a, b = a[hit], b[hit]
            a, b = order[a], order[b]
            m = len(a)
            np.minimum(a, b, out=out_i[kept:kept + m])
            np.maximum(a, b, out=out_j[kept:kept + m])
            kept += m
    return out_i[:kept], out_j[:kept], sizes[0] + sizes[1]


def _circle_system(name: str, maps, apply_arr, isometries=frozenset()) -> GeneratorSystem:
    """maps on the unit circle, with Lebesgue measure, the arc metric and
    the circle family's array and pair paths; apply_arr(j, arr) applies
    map j to a point array, and the maps of isometries are isometries."""
    return GeneratorSystem(
        name=name,
        maps=maps,
        metric=_circle_metric,
        diameter=0.5,
        mu_sampler=lambda rng, n: rng.random(n).tolist(),
        array_ops=ArrayOps(lambda pts: np.asarray(pts, dtype=float), apply_arr, _circle_within),
        pair_ops=PairOps(_circle_stage0, _circle_close, isometries),
    )


def circle_double_rotate(alpha: float = GOLDEN_ROTATION) -> GeneratorSystem:
    """Doubling map and rotation by alpha on the unit circle with
    Lebesgue measure and the arc metric.  For |alpha| <= 1 the rotation
    is an isometry up to rounding each point of [0, 1] by 2**-52 at most."""
    maps = (lambda x: (2.0 * x) % 1.0, lambda x, _a=alpha: (x + _a) % 1.0)

    def apply_arr(j, arr, _a=alpha):
        return (2.0 * arr) % 1.0 if j == 1 else (arr + _a) % 1.0

    isometries = frozenset({2}) if abs(alpha) <= 1.0 else frozenset()
    return _circle_system("circle-double-rotate", maps, apply_arr, isometries)


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

    return _circle_system("torus-affine", maps, apply_arr)


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
