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
* array_ops: vectorised point array conversion, generator application
  and a center-by-sample threshold test (read only by the benchmark's
  tracer), for scalar systems (the circle family).
* pair_ops: sparse Bowen pair lists on the arc metric of R/Z (the circle
  family and its power systems).  stage0 streams every pair of a point
  array within eps, in chunks, by sorting it once and reading each
  centre's band of eps plus a small margin, wrap-around band included,
  from the sorted order: only the margin's thin edge goes through the
  exact test, and close keeps a pair exactly when the metric would; the
  estimators filter each stage-0 chunk stage by stage down the prefix
  trie of a series' words with close, so no N x N matrix and no whole
  pair list is ever built, and keep stage0's sure chunks untested
  through the isometries (the rotation).
  pair_ops needs array_ops for the stage arrays.

Estimators fall back to the generic pairwise path when none is present;
all paths agree exactly and the tests check that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Iterator, Optional, Sequence

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


@dataclass(frozen=True)
class PairOps:
    """Sparse pair lists over a point array of a scalar metric space."""

    # (array, eps) -> every pair i < j within eps, as chunks (i, j, sure)
    # of at most PAIR_CHUNK int32 pairs, sure when all lie within eps -
    # margin; the sure chunks come first
    stage0: Callable[[np.ndarray, float], Iterator[tuple[np.ndarray, np.ndarray, bool]]]
    close: Callable[..., np.ndarray]  # (a, b, eps, out=None): bool; distances into out


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
    # generators that keep every distance, up to 2**-52 a point of [0, 1]
    # for pair_ops (hashable: memo keys); with ball_key exactly, and each
    # commutes with every generator up to an isometry on every Bowen ball
    # (binary: shift(x + 1) = shift(x) + x_1), which label sharing needs
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
    Points, metric, diameter, sampler, ball_key and pair_ops carry over
    unchanged (same space, same measure); array_ops and window_ops apply
    j digit by digit (a window stage is None if a digit's is, and orbit
    windows keep every t-th point of the base orbit along the digits).
    j is an isometry exactly when all its digits are, but with ball_key
    none is: shift(shift(x + 2)) = shift(shift(x)) + x_2 does not
    commute on a ball of radius 1/2.
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
    window_ops = base_win and WindowOps(base_win.to_windows, orbits, stage, base_win.key)
    iso = frozenset() if sys.ball_key else sys.isometries
    isometries = frozenset(j for j, d in enumerate(digits, 1) if iso.issuperset(d))
    return replace(
        sys, name=f"{sys.name}-power{t}", maps=power_maps, array_ops=array_ops,
        window_ops=window_ops, isometries=isometries,
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
            binary.to_windows, binary.orbit_windows, binary.window_stage, binary.window_key
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


# Pairs of stage0 candidates handled at once, in stage0 and in the
# estimators' stage filter; bounds every pair-list temporary and every
# chunk that stage0 yields.
PAIR_CHUNK = 1 << 14

# Slack of the stage0 sweep band per unit of the largest |point|: far
# above the rounding of the metric's float expression, so the candidates
# hold every pair that _circle_close accepts.
PAIR_MARGIN = 1e-9


def _circle_stage0(arr: np.ndarray, eps: float) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """Every pair i < j of arr with _circle_close(arr[i], arr[j], eps),
    as a stream of chunks (i, j, sure) of at most PAIR_CHUNK pairs in
    fresh int32 arrays, the sure chunks first: those whose pairs all
    pass _circle_close(..., eps - margin).

    min(d, 1 - d) <= eps holds exactly when d <= eps or d >= 1 - eps, so
    after one sort the candidates of sorted row a are a near band (a, near)
    and a wrap-around band [wrap, n), both widened by the margin (where
    they meet, every pair is a candidate).  Only their margin parts, within
    two margins of eps or of 1 - eps, go through the exact test; the sure
    parts, kept whole and read first, end a margin short of eps - margin,
    past the sweep keys' rounding.  The bands of all rows are laid end to
    end, sure parts first, and read in PAIR_CHUNK slices (sure parts,
    then margin parts), a candidate's row repeated from the band lengths,
    in int32, whose temporaries the heap reuses without faulting in
    pages: a slice's kept pairs are a chunk (none if the test keeps none).
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
    # the bands [first, stop) of every sorted row, two sure then two
    # margin: band k of row a is range r = k n + a, [edges[r], edges[r + 1])
    bands = ((row + 1, sure_near), (sure_wrap, n), (sure_near, near), (wrap, sure_wrap))
    first = np.concatenate([start for start, _ in bands], dtype=np.int32)
    edges = np.cumsum(np.concatenate([[0], *(stop - start for start, stop in bands)]))
    size, sure = int(edges[-1]), int(edges[2 * n])
    for lo in [*range(0, sure, PAIR_CHUNK), *range(sure, size, PAIR_CHUNK)]:
        hi = min(lo + PAIR_CHUNK, sure if lo < sure else size)
        bot, top = np.searchsorted(edges, (lo, hi - 1), side="right") - 1
        begin, end = edges[bot:top + 1], edges[bot + 1:top + 2]
        cut = np.minimum(end, hi) - np.maximum(begin, lo)
        a = np.repeat(np.arange(bot, top + 1, dtype=np.int32) % n, cut)
        shift = (first[bot:top + 1] - (begin - lo)).astype(np.int32)  # partner - (position - lo)
        b = np.arange(hi - lo, dtype=np.int32) + np.repeat(shift, cut)
        if lo >= sure:  # the margin bands: the exact test decides
            hit = _circle_close(v[a], v[b], eps)
            a, b = a[hit], b[hit]
        if len(a):
            a, b = order[a], order[b]
            yield np.minimum(a, b), np.maximum(a, b), lo < sure


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
        pair_ops=PairOps(_circle_stage0, _circle_close),
        isometries=isometries,
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
