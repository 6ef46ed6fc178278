"""Free-semigroup dynamics over an opaque point space.

A GeneratorSystem bundles m continuous self-maps together with the
metric, a declared diameter bound and a sampler for the reference
measure, so every estimator stays system-agnostic.  Words index
compositions: along omega = (i_1, i_2, ...) the n-step map applies
f_{i_1} first and f_{i_n} last, with n = 0 the identity.

Systems may advertise three optional fast-path capabilities:

* ball_key(point, eps): a hashable key with d(x, y) <= eps exactly when
  the keys are equal.  Valid for ultrametric systems whose eps-balls
  partition the space (the binary backend and its power systems); the
  estimators fold the stage keys along a word into one integer Bowen
  label per point, so pair and ball counting run in linear time.
* window_ops: the same stage keys computed for a whole point set at
  once on uint64 windows (the binary backend).  A window call returns
  None when it cannot decide every point, and the estimators then use
  ball_key, which raises exactly where the point maps raise.
* array_ops: vectorised point array conversion, generator application
  and pairwise threshold tests, for scalar systems (the circle family).

Estimators fall back to the generic pairwise path when none is present;
all paths agree exactly and the tests check that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence

import numpy as np

from . import binary
from .errors import (
    AlphabetOverflow,
    EmptyWord,
    KZero,
    SystemUnknown,
    WordTooShort,
)
from .words import SymbolWord, shift, symbol_digits

Point = Any

# Irrational rotation angle used by the default circle system: the
# golden-ratio conjugate (sqrt(5) - 1) / 2.
GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0

# Largest supported power-system alphabet.
MAX_ALPHABET = 1 << 20


@dataclass(frozen=True)
class ArrayOps:
    """Vectorised operations over a whole sample of points at once."""

    to_array: Callable[[Sequence[Point]], np.ndarray]
    apply: Callable[[int, np.ndarray], np.ndarray]  # 1-based generator index
    within: Callable[[np.ndarray, np.ndarray, float], np.ndarray]  # bool (n, m)


@dataclass(frozen=True)
class WindowOps:
    """Bowen stage keys over a whole point set on uint64 windows."""

    to_windows: Callable[[Sequence[Point]], Any]
    # (x, driving words, n) -> one window form per orbit, or None
    orbit_windows: Callable[[Point, Sequence[Sequence[int]], int], Optional[list]]
    # (window form, first k-1 symbols, eps) -> uint64 key rows, or None
    keys: Callable[[Any, Sequence[int], float], Optional[list]]


@dataclass(frozen=True)
class GeneratorSystem:
    name: str
    maps: tuple[Callable[[Point], Point], ...]
    metric: Callable[[Point, Point], float]
    diameter: float
    mu_sampler: Callable[[np.random.Generator], Point]
    ball_key: Optional[Callable[[Point, float], Hashable]] = None
    array_ops: Optional[ArrayOps] = None
    window_ops: Optional[WindowOps] = None

    @property
    def m(self) -> int:
        return len(self.maps)

    def map_for(self, symbol: int) -> Callable[[Point], Point]:
        return self.maps[symbol - 1]


@dataclass(frozen=True)
class OrbitTable:
    """Memoised orbit prefix: points[i] is the i-step image of the base."""

    base: Point
    word: SymbolWord
    points: tuple[Point, ...]


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


def orbit_table(sys: GeneratorSystem, w: SymbolWord, n: int, x: Point) -> OrbitTable:
    """First n orbit points (n - 1 map applications)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > len(w) + 1:
        raise WordTooShort(f"need {n - 1} symbols, have {len(w)}")
    pts = [x]
    maps = sys.maps
    for i in range(n - 1):
        x = maps[w.symbols[i] - 1](x)
        pts.append(x)
    return OrbitTable(pts[0], w, tuple(pts))


def bowen_distance(
    sys: GeneratorSystem, omega: SymbolWord, k: int, x: Point, y: Point
) -> float:
    """Max over the first k stages of the distance between the orbits of
    x and y along omega; k = 1 reduces to the plain metric."""
    if k < 1:
        raise KZero(f"k must be >= 1, got {k}")
    if len(omega) < k - 1:
        raise WordTooShort(f"need {k - 1} symbols, have {len(omega)}")
    maps = sys.maps
    metric = sys.metric
    symbols = omega.symbols
    best = metric(x, y)
    for i in range(k - 1):
        f = maps[symbols[i] - 1]
        x = f(x)
        y = f(y)
        d = metric(x, y)
        if d > best:
            best = d
    return best


def bowen_within(
    sys: GeneratorSystem, omega: SymbolWord, k: int, x: Point, y: Point, eps: float
) -> bool:
    """Whether the Bowen distance is <= eps, bailing out at the first
    stage that exceeds it (the pair-counting workhorse)."""
    if k < 1:
        raise KZero(f"k must be >= 1, got {k}")
    if len(omega) < k - 1:
        raise WordTooShort(f"need {k - 1} symbols, have {len(omega)}")
    maps = sys.maps
    metric = sys.metric
    symbols = omega.symbols
    if metric(x, y) > eps:
        return False
    for i in range(k - 1):
        f = maps[symbols[i] - 1]
        x = f(x)
        y = f(y)
        if metric(x, y) > eps:
            return False
    return True


def skew_step(
    sys: GeneratorSystem, omega: SymbolWord, x: Point
) -> tuple[SymbolWord, Point]:
    """One step of the skew product: shift the word, apply its first map."""
    if len(omega) == 0:
        raise EmptyWord("skew step needs at least one symbol")
    return shift(omega, 1), sys.maps[omega.symbols[0] - 1](x)


def ergodic_average(
    sys: GeneratorSystem,
    phi: Callable[[Point], float],
    omega: SymbolWord,
    x: Point,
    n: int,
) -> float:
    """Arithmetic mean of phi over the first n orbit points along omega."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(omega) < n - 1:
        raise WordTooShort(f"need {n - 1} symbols, have {len(omega)}")
    maps = sys.maps
    total = phi(x)
    for i in range(n - 1):
        x = maps[omega.symbols[i] - 1](x)
        total += phi(x)
    return total / n


def build_power_system(sys: GeneratorSystem, t: int) -> GeneratorSystem:
    """System generated by all t-fold compositions of the base maps.

    Generator j applies the digit maps of j in order: first digit first.
    Points, metric, diameter, sampler, ball_key and array_ops carry
    over unchanged (same space, same measure); window_ops does not, so
    power systems of the binary backend count through ball_key.
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

    power_maps = tuple(
        composed(symbol_digits(j, sys.m, t)) for j in range(1, sys.m ** t + 1)
    )
    array_ops = None
    if sys.array_ops is not None:
        base_ops = sys.array_ops

        def apply_arr(j, arr, _m=sys.m, _t=t, _base=base_ops):
            for d in symbol_digits(j, _m, _t):
                arr = _base.apply(d, arr)
            return arr

        array_ops = ArrayOps(base_ops.to_array, apply_arr, base_ops.within)
    return GeneratorSystem(
        name=f"{sys.name}-power{t}",
        maps=power_maps,
        metric=sys.metric,
        diameter=sys.diameter,
        mu_sampler=sys.mu_sampler,
        ball_key=sys.ball_key,
        array_ops=array_ops,
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
        mu_sampler=lambda rng: binary.random_point(depth, rng),
        ball_key=binary.ball_key,
        window_ops=WindowOps(binary.to_windows, binary.orbit_windows, binary.window_keys),
    )


def _circle_metric(x: float, y: float) -> float:
    d = abs(x - y)
    return min(d, 1.0 - d)


def _circle_within(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    d = np.abs(a[:, None] - b[None, :])
    return np.minimum(d, 1.0 - d) <= eps


def circle_double_rotate(alpha: float = GOLDEN_ROTATION) -> GeneratorSystem:
    """Doubling map and rotation by alpha on the unit circle with
    Lebesgue measure and the arc metric."""
    maps = (lambda x: (2.0 * x) % 1.0, lambda x, _a=alpha: (x + _a) % 1.0)

    def apply_arr(j, arr, _a=alpha):
        return (2.0 * arr) % 1.0 if j == 1 else (arr + _a) % 1.0

    return GeneratorSystem(
        name="circle-double-rotate",
        maps=maps,
        metric=_circle_metric,
        diameter=0.5,
        mu_sampler=lambda rng: float(rng.random()),
        array_ops=ArrayOps(
            to_array=lambda pts: np.asarray(pts, dtype=float),
            apply=apply_arr,
            within=_circle_within,
        ),
    )


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

    return GeneratorSystem(
        name="torus-affine",
        maps=maps,
        metric=_circle_metric,
        diameter=0.5,
        mu_sampler=lambda rng: float(rng.random()),
        array_ops=ArrayOps(
            to_array=lambda pts: np.asarray(pts, dtype=float),
            apply=apply_arr,
            within=_circle_within,
        ),
    )


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
