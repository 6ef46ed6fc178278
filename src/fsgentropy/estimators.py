"""Monte Carlo estimators for the entropy quantities of a free
semigroup action: correlation sums, q-order correlation integrals,
local correlation entropy, separated/spanning-set topological entropy,
ball-measure doubling diagnostics and local entropy along a word.

Conventions shared by everything here:

* The outer average over driving words is exhaustive (all m**(k-1)
  prefixes with their exact Bernoulli weights) whenever the enumeration
  is no larger than the configured word budget, capped at
  EXHAUSTIVE_OMEGA_CAP, and Monte Carlo otherwise.
* Estimators only ever look at the first k-1 symbols of the word
  argument, so any two words agreeing there give identical results.
* Every stochastic choice draws from a substream derived from
  (seed, stream kind, task index); results are bit-reproducible and
  independent of evaluation order.
* Bowen-ball counting goes through one label call wherever the system
  has ball keys: every point gets an integer label, equal for two
  points exactly when they are Bowen-within eps along the word.  Pair
  counts, ball counts, single ball measures and the greedy net are all
  read off the labels.  On the binary backend the labels come from
  uint64 windows, made once per point set and estimator call (the
  sample, or each driving word's orbit); where a window cannot decide,
  the exact stage keys of the points take over.
* On the circle family (systems with pair_ops) Bowen-ball counting
  goes through one sparse pair kernel instead: the pairs within eps at
  stage 0 are found once per point set and eps by a sort-sweep, and
  each word filters them stage by stage with the metric's own float
  expression, in chunks of systems.PAIR_CHUNK pairs.  Pair counts, ball
  counts and the greedy net are read off the surviving pairs; no N x N
  matrix is built.
* Both orbit estimators count Bowen-close pairs through one counter,
  which tallies ordered off-diagonal pairs outside a lag window by
  pairs of orbit-time blocks.  correlation_sum leaves out lags up to
  THEILER_WINDOW and floors each value at 1/n, so it lives in [1/n, 1];
  local_corr_entropy_series counts the diagonal too.  Ball counting
  includes the center itself, so empirical ball measures live in
  [1/N, 1].  Logs and negative powers stay finite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import systems
from .errors import (
    CenterNotInSample,
    InvalidEpsilon,
    KZero,
    WordTooShort,
)
from .seeding import MU, OMEGA, UPSILON, substream
from .series import EntropySeries
from .systems import GeneratorSystem, bowen_within
from .words import BernoulliSpec, SymbolWord, sample_word, uniform_spec

# Above this many word prefixes the outer symbol average switches from
# exhaustive enumeration to Monte Carlo sampling.
EXHAUSTIVE_OMEGA_CAP = 4096

# correlation_sum leaves out pairs of orbit points at most this many
# steps apart (a Theiler window): their closeness comes from the orbit's
# own short-time correlation, not from the measure.
THEILER_WINDOW = 4

# Contiguous orbit-time blocks of the jackknife behind correlation_sum's
# standard error.  Blocks must stay longer than the orbit's dependence:
# 40 blocks of a 4000-point orbit already understate the error.
JACKKNIFE_BLOCKS = 20


# ---------------------------------------------------------------------------
# Word averaging machinery


def _check_eps(eps: float) -> None:
    if not eps > 0.0:
        raise InvalidEpsilon(f"epsilon must be > 0, got {eps!r}")


def _check_word(omega: SymbolWord, k: int) -> None:
    if k < 1:
        raise KZero(f"k must be >= 1, got {k}")
    if len(omega) < k - 1:
        raise WordTooShort(f"need {k - 1} symbols, have {len(omega)}")


def exhaustive_omega(m: int, k: int, m_omega: int) -> bool:
    """Whether the outer word average enumerates all prefixes exactly."""
    return m ** (k - 1) <= min(EXHAUSTIVE_OMEGA_CAP, m_omega)


def omega_words(
    m: int, k: int, weights: BernoulliSpec | None, m_omega: int, seed: int
) -> list[tuple[SymbolWord, float]]:
    """Weighted word prefixes for the outer symbol-space average.

    Exhaustive with exact Bernoulli weights when enumerating all
    m**(k-1) prefixes costs no more than the Monte Carlo budget (and at
    most EXHAUSTIVE_OMEGA_CAP); otherwise m_omega draws with weight
    1/m_omega.  Exhaustive averages are exact and consume no
    randomness.
    """
    if weights is None:
        weights = uniform_spec(m)
    if m_omega < 1:
        raise ValueError("m_omega must be >= 1")
    if exhaustive_omega(m, k, m_omega):
        out = []
        for syms in itertools.product(range(1, m + 1), repeat=k - 1):
            wt = 1.0
            for s in syms:
                wt *= weights.weights[s - 1]
            out.append((SymbolWord(syms, m), wt))
        return out
    return [
        (sample_word(weights, k - 1, substream(seed, OMEGA, k, j)), 1.0 / m_omega)
        for j in range(m_omega)
    ]


def _weighted_mean(values, weights) -> float:
    return math.fsum(v * w for v, w in zip(values, weights))


# ---------------------------------------------------------------------------
# Pairwise Bowen-proximity counting
#
# Three paths, chosen by the system's capabilities and agreeing exactly:
# integer Bowen labels on ultrametric systems (from uint64 windows where
# the system has window_ops, else from ball_key stage keys), sparse pair
# lists on systems with pair_ops and array_ops, and the generic pairwise
# loop, which the tests keep as the oracle for the other two.


class _PointSet:
    """The points of one estimator call, plus their window form on
    systems with window_ops: converted once and reused for every word.
    `make` builds the points on first use, so orbits whose windows
    decide every label call never exist as points.  On systems with
    pair_ops the point set also keeps its array form and the stage-0
    pairs of its two latest radii."""

    def __init__(self, wins, points=None, make=None):
        self.wins = wins
        self._points = points
        self._make = make
        self._array = None
        self._stage0 = {}

    @property
    def points(self):
        if self._points is None:
            self._points = self._make()
        return self._points

    def __len__(self) -> int:
        return len(self.points) if self.wins is None else len(self.wins[0])

    def head(self, n: int) -> "_PointSet":
        """The first n points."""
        wins = None if self.wins is None else tuple(a[:n] for a in self.wins)
        return _PointSet(wins, make=lambda: self.points[:n])

    def array(self, sys: GeneratorSystem) -> np.ndarray:
        if self._array is None:
            self._array = sys.array_ops.to_array(self.points)
        return self._array

    def stage0_pairs(self, sys: GeneratorSystem, eps: float):
        """The pairs i < j within eps (before any map), kept for the two
        latest radii: enough for an eps loop and for doubling's
        eps / 2 eps alternation, at a bounded memory."""
        if eps not in self._stage0:
            if len(self._stage0) == 2:
                del self._stage0[next(iter(self._stage0))]
            self._stage0[eps] = sys.pair_ops.stage0(self.array(sys), eps)
        return self._stage0[eps]

    def release(self) -> None:
        """Forget the cached stage-0 pairs, once no further word needs
        them: callers that walk many orbits keep one orbit's alive."""
        self._stage0 = {}


def _as_point_set(sys: GeneratorSystem, points) -> _PointSet:
    points = list(points)
    ops = sys.window_ops
    return _PointSet(None if ops is None else ops.to_windows(points), points)


def _bowen_keys(sys: GeneratorSystem, omega, k, eps, points) -> list:
    """Per-point tuple of stage ball keys; two points are within Bowen
    distance eps exactly when their tuples agree."""
    keyf = sys.ball_key
    maps = sys.maps
    syms = omega.symbols
    out = []
    for p in points:
        cur = p
        kk = [keyf(cur, eps)]
        for i in range(k - 1):
            cur = maps[syms[i] - 1](cur)
            kk.append(keyf(cur, eps))
        out.append(tuple(kk))
    return out


def _bowen_labels(sys: GeneratorSystem, omega, k, eps, pset: _PointSet):
    """Integer label per point, equal for two points exactly when they
    are Bowen-within eps along omega; None on systems without ball keys.

    Window key rows are folded with np.unique; when the windows cannot
    decide, the ball_key stage keys of the points are used instead."""
    if sys.ball_key is None:
        return None
    rows = None
    if pset.wins is not None:
        rows = sys.window_ops.keys(pset.wins, omega.symbols[: k - 1], eps)
    if rows is None:
        index: dict = {}
        return np.array(
            [index.setdefault(key, len(index))
             for key in _bowen_keys(sys, omega, k, eps, pset.points)],
            dtype=np.intp,
        )
    _, labels = np.unique(rows[0], return_inverse=True)
    for row in rows[1:]:
        _, part = np.unique(row, return_inverse=True)
        _, labels = np.unique(labels * (part.max() + 1) + part, return_inverse=True)
    return labels


def _stage_arrays(sys: GeneratorSystem, omega, k, arr):
    ops = sys.array_ops
    stages = [arr]
    for i in range(k - 1):
        arr = ops.apply(omega.symbols[i], arr)
        stages.append(arr)
    return stages


def _has_pairs(sys: GeneratorSystem) -> bool:
    return sys.pair_ops is not None and sys.array_ops is not None


def _close_pairs(sys: GeneratorSystem, omega, k, eps, pset: _PointSet):
    """Chunks (i, j) of the pairs i < j of pset that are Bowen-within
    eps along omega, on systems with pair_ops: the stage-0 pairs are
    filtered through stages 1..k-1 with pair_ops.close, PAIR_CHUNK
    pairs at a time."""
    close = sys.pair_ops.close
    stages = _stage_arrays(sys, omega, k, pset.array(sys))[1:]
    i0, j0 = pset.stage0_pairs(sys, eps)
    chunk = systems.PAIR_CHUNK
    for lo in range(0, len(i0), chunk):
        # int32 in the cache, intp here: every gather below takes it as is
        i, j = i0[lo:lo + chunk].astype(np.intp), j0[lo:lo + chunk].astype(np.intp)
        for a in stages:
            keep = np.flatnonzero(close(a.take(i), a.take(j), eps))
            i, j = i.take(keep), j.take(keep)
        yield i, j


def _stage_lists(sys: GeneratorSystem, omega, k, points):
    maps = sys.maps
    syms = omega.symbols
    stages = [list(points)]
    for i in range(k - 1):
        f = maps[syms[i] - 1]
        stages.append([f(p) for p in stages[-1]])
    return stages


def _label_pair_counts(labels, block, n_blocks, w) -> np.ndarray:
    """Ordered pairs (i, j) with equal integer labels and |i - j| > w,
    tallied by (block[i], block[j]).

    Linear in the number of points: per-block label histograms give
    every equal-label pair, and the diagonal and the lags 1..w are
    subtracted back out.
    """
    n_labels = int(labels.max()) + 1
    hist = np.bincount(
        block * n_labels + labels, minlength=n_blocks * n_labels
    ).reshape(n_blocks, n_labels)
    counts = hist @ hist.T
    counts -= np.diag(np.bincount(block, minlength=n_blocks))
    for d in range(1, w + 1):
        same = labels[d:] == labels[:-d]
        near = np.bincount(
            block[:-d][same] * n_blocks + block[d:][same],
            minlength=n_blocks * n_blocks,
        ).reshape(n_blocks, n_blocks)
        counts -= near + near.T
    return counts


def _close_pair_counts(
    sys: GeneratorSystem, omega, k, eps, pset, block, n_blocks, w
) -> np.ndarray:
    """Ordered pairs (i, j) of points with |i - j| > w whose Bowen
    distance along omega is <= eps, tallied by (block[i], block[j]);
    block[i] is the non-decreasing block index of point i."""
    labels = _bowen_labels(sys, omega, k, eps, pset)
    if labels is not None:
        return _label_pair_counts(labels, block, n_blocks, w)
    if _has_pairs(sys):
        counts = np.zeros(n_blocks * n_blocks, dtype=np.int64)
        for i, j in _close_pairs(sys, omega, k, eps, pset):
            far = j - i > w
            counts += np.bincount(
                block[i[far]] * n_blocks + block[j[far]], minlength=n_blocks * n_blocks
            )
        counts = counts.reshape(n_blocks, n_blocks)
        return counts + counts.T
    points = pset.points
    n = len(points)
    stages = _stage_lists(sys, omega, k, points)
    metric = sys.metric
    bl = block.tolist()
    counts = np.zeros((n_blocks, n_blocks), dtype=np.int64)
    for i in range(n):
        for j in range(i + w + 1, n):
            for s in range(k):
                if metric(stages[s][i], stages[s][j]) > eps:
                    break
            else:
                counts[bl[i], bl[j]] += 1
                counts[bl[j], bl[i]] += 1
    return counts


def _pair_fraction(sys: GeneratorSystem, omega, k, eps, pset) -> float:
    """Fraction of ordered pairs (diagonal included) whose Bowen
    distance along omega is <= eps."""
    n = len(pset)
    one_block = np.zeros(n, dtype=np.intp)
    close = _close_pair_counts(sys, omega, k, eps, pset, one_block, 1, 0)
    return (n + int(close[0, 0])) / (n * n)


def _ball_counts(sys: GeneratorSystem, omega, k, eps, pset) -> np.ndarray:
    """For each point, how many sample points (itself included) lie in
    its Bowen eps-ball."""
    labels = _bowen_labels(sys, omega, k, eps, pset)
    if labels is not None:
        return np.bincount(labels)[labels].astype(float)
    n = len(pset)
    if _has_pairs(sys):
        out = np.ones(n, dtype=np.int64)
        for i, j in _close_pairs(sys, omega, k, eps, pset):
            out += np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
        return out.astype(float)
    points = pset.points
    stages = _stage_lists(sys, omega, k, points)
    metric = sys.metric
    out = np.ones(n)
    for i in range(n):
        for j in range(i + 1, n):
            for s in range(k):
                if metric(stages[s][i], stages[s][j]) > eps:
                    break
            else:
                out[i] += 1.0
                out[j] += 1.0
    return out


# ---------------------------------------------------------------------------
# Empirical measure


@dataclass(frozen=True)
class EmpiricalMeasure:
    """N sample points standing in for the reference measure.

    Ball measures are counting fractions over the sample; a center that
    is itself a sample point always contributes, so values stay in
    [1/N, 1].
    """

    points: tuple

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("need at least one sample point")

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def draw(cls, sys: GeneratorSystem, n_points: int, seed: int):
        if n_points < 1:
            raise ValueError("n_points must be >= 1")
        rng = substream(seed, MU)
        return cls(tuple(sys.mu_sampler(rng) for _ in range(n_points)))

    def _point_set(self, sys) -> _PointSet:
        """The sample as a point set of sys, converted once per measure
        and kind of window_ops and pair_ops."""
        memo = self.__dict__.setdefault("_point_sets", {})
        kind = (sys.window_ops, sys.pair_ops)
        if kind not in memo:
            memo[kind] = _as_point_set(sys, self.points)
        return memo[kind]

    def ball_measures(self, sys, omega, k, eps) -> np.ndarray:
        """Empirical Bowen-ball measure centered at every sample point."""
        _check_eps(eps)
        _check_word(omega, k)
        return _ball_counts(sys, omega, k, eps, self._point_set(sys)) / self.n

    def ball_measure(self, sys, omega, k, center, eps) -> float:
        """Empirical Bowen-ball measure at one center from the sample."""
        _check_eps(eps)
        _check_word(omega, k)
        at = next((i for i, p in enumerate(self.points) if p == center), None)
        if at is None:
            raise CenterNotInSample("center must be one of the sample points")
        labels = _bowen_labels(sys, omega, k, eps, self._point_set(sys))
        if labels is not None:
            return int(np.count_nonzero(labels == labels[at])) / self.n
        if sys.array_ops is not None:
            ops = sys.array_ops
            stages_all = _stage_arrays(sys, omega, k, ops.to_array(self.points))
            stages_c = _stage_arrays(sys, omega, k, ops.to_array([center]))
            row = ops.within(stages_c[0], stages_all[0], eps)
            for sc, sa in zip(stages_c[1:], stages_all[1:]):
                row &= ops.within(sc, sa, eps)
            return float(row.sum()) / self.n
        cnt = sum(
            1 for p in self.points if bowen_within(sys, omega, k, center, p, eps)
        )
        return cnt / self.n


def ball_measure(em, sys, omega, k, center, eps) -> float:
    """Module-level alias of the empirical (or exact) ball measure."""
    return em.ball_measure(sys, omega, k, center, eps)


# ---------------------------------------------------------------------------
# Correlation sum


@dataclass(frozen=True)
class CorrSumEstimate:
    """Correlation sum averaged over sampled driving words.

    `per_upsilon` holds one windowed off-diagonal pair fraction per
    driving word, each in [1/n, 1]; `value` is their mean; `stderr` is
    the delete-a-block jackknife error of `value` over orbit time
    blocks, 0.0 when the orbit is too short to cut into two blocks.
    """

    value: float
    stderr: float
    n: int
    k: int
    epsilon: float
    m_upsilon: int
    per_upsilon: tuple[float, ...] = field(repr=False, default=())


def _upsilon_orbits(sys, x, n, m_upsilon, seed, weights) -> list[_PointSet]:
    """Orbits of x along m_upsilon independently sampled driving words.

    On systems with window_ops the orbits are windows, built as points
    only if a label call needs them; when the windows cannot be built
    the points are built at once, raising where the maps raise."""
    if weights is None:
        weights = uniform_spec(sys.m)
    words = [
        sample_word(weights, n - 1, substream(seed, UPSILON, j)).symbols
        for j in range(m_upsilon)
    ]
    maps = sys.maps

    def orbit_points():
        orbits = []
        for syms in words:
            pts = [x]
            cur = x
            for s in syms:
                cur = maps[s - 1](cur)
                pts.append(cur)
            orbits.append(pts)
        return orbits

    ops = sys.window_ops
    wins = None if ops is None else ops.orbit_windows(x, words, n)
    if wins is None:
        return [_PointSet(None, pts) for pts in orbit_points()]
    built = cache(orbit_points)
    return [_PointSet(w, make=lambda j=j: built()[j]) for j, w in enumerate(wins)]


def correlation_sum(
    sys: GeneratorSystem,
    x,
    eps: float,
    omega: SymbolWord,
    k: int,
    n: int,
    m_upsilon: int,
    seed: int,
    weights: BernoulliSpec | None = None,
) -> CorrSumEstimate:
    """Fraction of Bowen-close pairs among the first n orbit points,
    averaged over m_upsilon sampled driving words.

    Each driving word contributes the fraction of ordered pairs (i, j)
    with |i - j| > THEILER_WINDOW whose Bowen distance along omega is
    <= eps, floored at 1/n so values stay in [1/n, 1]; an orbit with no
    such pairs contributes the floor.  Leaving out the diagonal and
    short lags removes the bias they add above the orbit limit.

    The standard error is the delete-a-block jackknife of the
    word-averaged value: the orbits are cut into min(JACKKNIFE_BLOCKS,
    n) contiguous time blocks, the same in every orbit, and the value is
    recomputed with each block's pairs left out in turn.  All driving
    words start at x, so the spread across them would not measure the
    error in the orbit limit; time blocks do.  With fewer than two
    blocks (n = 1) the standard error is 0.0.  Only the first k-1
    symbols of omega enter.
    """
    _check_eps(eps)
    _check_word(omega, k)
    if n < 1:
        raise ValueError("n must be >= 1")
    if m_upsilon < 1:
        raise ValueError("m_upsilon must be >= 1")
    n_blocks = min(JACKKNIFE_BLOCKS, n)
    block = np.arange(n) * n_blocks // n
    pairs = _label_pair_counts(
        np.zeros(n, dtype=np.intp), block, n_blocks, THEILER_WINDOW
    )
    close = []
    for orbit in _upsilon_orbits(sys, x, n, m_upsilon, seed, weights):
        close.append(
            _close_pair_counts(sys, omega, k, eps, orbit, block, n_blocks, THEILER_WINDOW)
        )
        orbit.release()
    close = np.array(close)
    values = _floored_fraction(close.sum(axis=(1, 2)), pairs.sum(), n).tolist()
    value = math.fsum(values) / m_upsilon
    stderr = 0.0
    if n_blocks > 1:
        dropped = _floored_fraction(
            _without_each_block(close), _without_each_block(pairs), n
        ).mean(axis=0)
        spread = float(((dropped - dropped.mean()) ** 2).sum())
        stderr = math.sqrt((n_blocks - 1) / n_blocks * spread)
    return CorrSumEstimate(value, stderr, n, k, eps, m_upsilon, tuple(values))


def _without_each_block(counts: np.ndarray) -> np.ndarray:
    """Total of the block-pair counts (last two axes) with block b's row
    and column left out, for every b."""
    return (
        counts.sum(axis=(-2, -1))[..., None]
        - counts.sum(axis=-1)
        - counts.sum(axis=-2)
        + np.diagonal(counts, axis1=-2, axis2=-1)
    )


def _floored_fraction(close, pairs, n: int) -> np.ndarray:
    """close / pairs floored at 1/n; the floor where there are no pairs."""
    frac = np.divide(close, pairs, out=np.zeros(np.shape(close)), where=pairs > 0)
    return np.maximum(frac, 1.0 / n)


# ---------------------------------------------------------------------------
# Correlation integral and entropy series


def _q_log_mean(logs: np.ndarray, q: float) -> float:
    """log of the q-mean of ball measures, given their logs.

    Computed in the log domain (log-sum-exp) so negative orders cannot
    overflow; a constant input short-circuits to that constant, which
    is the exact value for every q.
    """
    first = float(logs[0])
    if np.all(logs == logs[0]):
        return first
    if q == 1.0:
        return math.fsum(logs) / len(logs)
    a = (q - 1.0) * logs
    mx = float(a.max())
    return (mx + math.log(math.fsum(np.exp(a - mx)) / len(a))) / (q - 1.0)


def _corr_integral_detail(measure, sys, eps, k, q, m_omega, seed, weights):
    _check_eps(eps)
    pairs = omega_words(sys.m, k, weights, m_omega, seed)
    inners = []
    for w, _ in pairs:
        ms = np.asarray(measure.ball_measures(sys, w, k, eps), dtype=float)
        inners.append(_q_log_mean(np.log(ms), q))
    wts = [wt for _, wt in pairs]
    c = _weighted_mean(inners, wts)
    if exhaustive_omega(sys.m, k, m_omega) or len(inners) < 2:
        se = 0.0
    else:
        se = float(np.std(inners, ddof=1)) / math.sqrt(len(inners))
    return c, se


def corr_integral(
    measure,
    sys: GeneratorSystem,
    eps: float,
    k: int,
    q: float,
    m_omega: int,
    seed: int,
    weights: BernoulliSpec | None = None,
) -> float:
    """q-order correlation integral: the word average of the log
    q-mean of Bowen-ball measures under `measure`.

    `measure` is an EmpiricalMeasure or the exact closed-form measure
    of the binary backend; the order-1 value is the plain mean of log
    measures (the continuity limit of the q-mean), and every value is
    finite because ball measures are bounded below.
    """
    if not math.isfinite(q):
        raise ValueError("q must be finite")
    c, _ = _corr_integral_detail(measure, sys, eps, k, q, m_omega, seed, weights)
    return c


def corr_entropy_series(
    measure,
    sys: GeneratorSystem,
    eps_list,
    k_list,
    q: float,
    m_omega: int,
    seed: int,
    weights: BernoulliSpec | None = None,
) -> list[EntropySeries]:
    """One series per epsilon with rows (k, -c/k); the limit extraction
    over k and the epsilon trend are left to the limits module."""
    _check_grids(eps_list, k_list)
    out = []
    for eps in eps_list:
        rows = []
        ses = []
        for k in k_list:
            c, se = _corr_integral_detail(measure, sys, eps, k, q, m_omega, seed, weights)
            rows.append((k, -c / k))
            ses.append(se / k)
        out.append(
            EntropySeries(
                epsilon=eps,
                rows=rows,
                kind="corr-entropy",
                q=q,
                stderrs=ses,
                meta={"m_omega": m_omega, "seed": seed,
                      "n_points": len(measure.points)},
            )
        )
    return out


def _check_grids(eps_list, k_list):
    if not eps_list:
        raise ValueError("need at least one epsilon")
    if any(e <= 0 for e in eps_list):
        raise InvalidEpsilon("epsilons must be > 0")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilons must be strictly decreasing")
    if not k_list or any(k < 1 for k in k_list):
        raise ValueError("k values must be >= 1")
    if any(b <= a for a, b in zip(k_list, k_list[1:])):
        raise ValueError("k values must be strictly increasing")


def _orbit_fractions(sys, eps, k_list, word_sets, orbits) -> list:
    """_pair_fraction of every orbit for every horizon k_list[s] and
    word of word_sets[s], as out[s][t] = [one value per orbit].  The
    orbits are walked one at a time, so only one orbit's stage-0 pairs
    are ever alive."""
    out = [[[] for _ in words] for words in word_sets]
    for orbit in orbits:
        for k, words, cells in zip(k_list, word_sets, out):
            for (w, _), cell in zip(words, cells):
                cell.append(_pair_fraction(sys, w, k, eps, orbit))
        orbit.release()
    return out


def local_corr_entropy_series(
    sys: GeneratorSystem,
    x,
    eps_list,
    k_list,
    n: int,
    m_upsilon: int,
    m_omega: int,
    seed: int,
    weights: BernoulliSpec | None = None,
) -> list[EntropySeries]:
    """Local correlation entropy integrand at a starting point x.

    The inner limit over orbit length is approximated by one large n,
    with a stability check: each row also evaluates the correlation sum
    at n/2 (same driving words), and the row is flagged "unstable" when
    the two word-averaged values differ by more than twice their
    combined standard error.
    """
    _check_grids(eps_list, k_list)
    if n < 1:
        raise ValueError("n must be >= 1")
    orbits = _upsilon_orbits(sys, x, n, m_upsilon, seed, weights)
    n_half = max(1, n // 2)
    half_orbits = [orbit.head(n_half) for orbit in orbits]
    out = []
    for eps in eps_list:
        rows = []
        ses = []
        flags = []
        word_sets = [omega_words(sys.m, k, weights, m_omega, seed) for k in k_list]
        full = _orbit_fractions(sys, eps, k_list, word_sets, orbits)
        half = _orbit_fractions(sys, eps, k_list, word_sets, half_orbits)
        for k, pairs, full_k, half_k in zip(k_list, word_sets, full, half):
            logs_full = []
            logs_half = []
            se_full = []
            se_half = []
            for vals, hvals in zip(full_k, half_k):
                cf = math.fsum(vals) / len(vals)
                ch = math.fsum(hvals) / len(hvals)
                logs_full.append(math.log(cf))
                logs_half.append(math.log(ch))
                sf = np.std(vals, ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
                sh = np.std(hvals, ddof=1) / math.sqrt(len(hvals)) if len(hvals) > 1 else 0.0
                se_full.append(float(sf) / cf)
                se_half.append(float(sh) / ch)
            wts = [wt for _, wt in pairs]
            mean_full = _weighted_mean(logs_full, wts)
            mean_half = _weighted_mean(logs_half, wts)
            var_full = math.fsum((w * s) ** 2 for w, s in zip(wts, se_full))
            var_half = math.fsum((w * s) ** 2 for w, s in zip(wts, se_half))
            gap = abs(mean_full - mean_half)
            tol = 2.0 * math.sqrt(var_full + var_half)
            rows.append((k, -mean_full / k))
            ses.append(math.sqrt(var_full) / k)
            flags.append("" if gap <= tol or tol == 0.0 else "unstable")
        out.append(
            EntropySeries(
                epsilon=eps,
                rows=rows,
                kind="local-corr-entropy",
                q=None,
                stderrs=ses,
                flags=flags,
                meta={"n": n, "m_upsilon": m_upsilon, "m_omega": m_omega,
                      "seed": seed},
            )
        )
    return out


# ---------------------------------------------------------------------------
# Separated / spanning sets and topological entropy


def _greedy_net(sample, sys, omega, k, eps):
    """First-come greedy net: keep a point unless it is Bowen-within
    eps of an already kept one.  The result is a maximal eps-separated
    subset, and by maximality every sample point is within eps of a
    kept one, so the same set is also an eps-cover."""
    _check_eps(eps)
    _check_word(omega, k)
    pset = sample if isinstance(sample, _PointSet) else _as_point_set(sys, sample)
    sample = pset.points
    labels = _bowen_labels(sys, omega, k, eps, pset)
    if labels is not None:
        _, first = np.unique(labels, return_index=True)
        return [sample[i] for i in np.sort(first).tolist()]
    if _has_pairs(sys):
        pairs = list(_close_pairs(sys, omega, k, eps, pset))
        i = np.concatenate([np.empty(0, np.intp)] + [c[0] for c in pairs])
        j = np.concatenate([np.empty(0, np.intp)] + [c[1] for c in pairs])
        lower = i[np.argsort(j)]  # each point's lower-index neighbours, in point order
        kept_mask = np.zeros(len(sample), dtype=bool)
        start = 0
        for p, end in enumerate(np.cumsum(np.bincount(j, minlength=len(sample))).tolist()):
            kept_mask[p] = not kept_mask[lower[start:end]].any()
            start = end
        return [sample[p] for p in np.flatnonzero(kept_mask).tolist()]
    kept = []
    for p in sample:
        if all(not bowen_within(sys, omega, k, p, q_, eps) for q_ in kept):
            kept.append(p)
    return kept


def separated_set(sample, sys: GeneratorSystem, omega, k, eps) -> list:
    """Greedy maximal Bowen eps-separated subset of the sample (kept
    points are pairwise more than eps apart; a lower bound on the
    maximum packing)."""
    return _greedy_net(sample, sys, omega, k, eps)


def spanning_set(sample, sys: GeneratorSystem, omega, k, eps) -> list:
    """Greedy Bowen eps-cover of the sample (every sample point is
    within eps of a returned one); never larger than the greedy
    separated set at the same radius."""
    return _greedy_net(sample, sys, omega, k, eps)


def top_entropy_series(
    sys: GeneratorSystem,
    eps_list,
    k_list,
    m_omega: int,
    n_sample: int,
    seed: int,
    weights: BernoulliSpec | None = None,
    sample=None,
) -> list[EntropySeries]:
    """Growth rate of separated-set cardinality: rows are the word
    average of log #separated divided by k.

    The sample is drawn from the reference measure unless one is passed
    in; with a finite sample and a greedy packing the rows are biased
    low, approaching the true rate as the sample fills the space.
    """
    _check_grids(eps_list, k_list)
    if sample is None:
        if n_sample < 1:
            raise ValueError("n_sample must be >= 1")
        rng = substream(seed, MU)
        sample = [sys.mu_sampler(rng) for _ in range(n_sample)]
    pset = _as_point_set(sys, sample)
    out = []
    for eps in eps_list:
        rows = []
        ses = []
        for k in k_list:
            pairs = omega_words(sys.m, k, weights, m_omega, seed)
            logs = [
                math.log(len(_greedy_net(pset, sys, w, k, eps))) for w, _ in pairs
            ]
            wts = [wt for _, wt in pairs]
            rows.append((k, _weighted_mean(logs, wts) / k))
            if exhaustive_omega(sys.m, k, m_omega) or len(logs) < 2:
                ses.append(0.0)
            else:
                ses.append(float(np.std(logs, ddof=1)) / math.sqrt(len(logs)) / k)
        out.append(
            EntropySeries(
                epsilon=eps,
                rows=rows,
                kind="top-entropy",
                stderrs=ses,
                meta={"n_sample": len(sample), "m_omega": m_omega, "seed": seed},
            )
        )
    return out


# ---------------------------------------------------------------------------
# Doubling diagnostic and local entropy


def doubling_ratio(measure, sys: GeneratorSystem, omega, k, eps) -> float:
    """Entropy-doubling diagnostic per horizon: (1/k) * log of the
    worst ratio of 2eps- to eps-ball measures over the sample centers.
    Trending to 0 in k is the signature of a doubling-friendly
    measure."""
    _check_eps(eps)
    _check_word(omega, k)
    m1 = np.asarray(measure.ball_measures(sys, omega, k, eps), dtype=float)
    m2 = np.asarray(measure.ball_measures(sys, omega, k, 2.0 * eps), dtype=float)
    ratio = float((m2 / m1).max())
    return math.log(ratio) / k


def local_entropy_series(
    measure, sys: GeneratorSystem, omega, x, eps_list, k_list
) -> list[EntropySeries]:
    """Decay rate of the ball measure at a fixed center x along a fixed
    word: rows (k, -(1/k) log measure(Bowen ball))."""
    _check_grids(eps_list, k_list)
    if not any(p == x for p in measure.points):
        raise CenterNotInSample("x must be one of the sample points")
    out = []
    for eps in eps_list:
        rows = []
        for k in k_list:
            mu = measure.ball_measure(sys, omega, k, x, eps)
            rows.append((k, -math.log(mu) / k))
        out.append(
            EntropySeries(
                epsilon=eps,
                rows=rows,
                kind="local-entropy",
                meta={"n_points": len(measure.points)},
            )
        )
    return out
